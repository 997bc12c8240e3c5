import functools
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import evaluated, stored
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcyclic.codes import ComponentCode, component_code_new, count_skew_cyclic_codes
from skewcyclic.finite_field import EnumerationTooLarge, Field, FieldMismatch, Subfield
from skewcyclic.linalg import canonical_subspace
from skewcyclic import oracle, skew_poly
from skewcyclic.oracle import _combine
from skewcyclic.ring_r import RingElem, ring_elem
from skewcyclic.skew_poly import (
    AutMismatch,
    BothZero,
    DomainMismatch,
    Factorization,
    SkewPoly,
    ZeroDivisor,
    brute_right_divisors,
    extended_gcd_commutative,
    factor_xn_minus_1,
    gcrd_lclm,
    is_right_divisor_of_xn_minus_1,
    mod_xn_minus_1,
    monic_right_divisors,
    poly_from_string,
    poly_to_string,
    right_divide,
    ring_coeffs_from_string,
    ring_skew_poly_combine,
    project_components,
    skew_mul,
    subfield_irreducibles,
    xn_minus_1,
)


def _code_count(fac):
    """The number of monic right divisors that ``fac`` yields over F_q."""
    return math.prod(s + 1 for _, s in fac.factors)


def _random_poly(field, aut, max_deg, rng, monic=False):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
    if monic or not coeffs[-1]:
        coeffs[-1] = field.one.idx
    return SkewPoly(field, coeffs, aut)


class TestConstruction:
    @pytest.mark.parametrize("bad", [-1, 9, 10**9, 1.0, 0.0, "1", None])
    def test_non_index_coefficient_is_refused(self, f9, bad):
        with pytest.raises(FieldMismatch, match="is not an index of"):
            SkewPoly(f9, [bad, f9.one.idx], 1)
        with pytest.raises(FieldMismatch):
            SkewPoly(f9, [f9.one.idx, bad], 1)

    def test_element_objects_are_refused(self, f9):
        # FieldElem coefficients used to build and fail only later, inside
        # right_divide and repr
        with pytest.raises(FieldMismatch):
            SkewPoly(f9, [f9.gen, f9.one], 1)

    def test_every_index_is_accepted(self, f9):
        for c in range(f9.q):
            assert SkewPoly(f9, [c, f9.one.idx], 1).coeffs == (c, f9.one.idx)
        assert SkewPoly(f9, [f9.one.idx, 0, 0], 1).coeffs == (f9.one.idx,)


class TestSkewMul:
    def test_x_times_constant_twists(self, f9):
        # x * w = theta(w) * x = 2w x
        x = SkewPoly(f9, [0, f9.one.idx], 1)
        c = SkewPoly(f9, [f9.gen.idx], 1)
        assert skew_mul(x, c).coeffs == (0, f9.elem([0, 2]).idx)

    def test_identity_both_sides(self, f9):
        rng = random.Random(20)
        one = SkewPoly.one(f9, 1)
        for _ in range(50):
            f = _random_poly(f9, 1, 5, rng)
            assert skew_mul(f, one) == f
            assert skew_mul(one, f) == f

    def test_wx_squared(self, f9):
        # (wx)(wx) = w theta(w) x^2 = 2w^2 x^2 = x^2
        wx = SkewPoly(f9, [0, f9.gen.idx], 1)
        assert skew_mul(wx, wx) == SkewPoly(f9, [0, 0, f9.one.idx], 1)

    def test_noncommutativity_witness(self, f9):
        x = SkewPoly(f9, [0, f9.one.idx], 1)
        w = SkewPoly(f9, [f9.gen.idx], 1)
        assert skew_mul(x, w) != skew_mul(w, x)

    def test_fixed_subfield_commutes_with_x(self, f9):
        x = SkewPoly(f9, [0, f9.one.idx], 1)
        for c in f9.fixed_subfield(1):
            cp = SkewPoly(f9, [c.idx], 1)
            assert skew_mul(x, cp) == skew_mul(cp, x)

    def test_associativity_random(self, f9):
        rng = random.Random(21)
        for _ in range(500):
            f = _random_poly(f9, 1, 6, rng)
            g = _random_poly(f9, 1, 6, rng)
            h = _random_poly(f9, 1, 6, rng)
            assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))

    def test_distributivity_random(self, f9):
        rng = random.Random(22)
        for _ in range(200):
            f = _random_poly(f9, 1, 5, rng)
            g = _random_poly(f9, 1, 5, rng)
            h = _random_poly(f9, 1, 5, rng)
            assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)
            assert skew_mul(f + g, h) == skew_mul(f, h) + skew_mul(g, h)

    def test_degree_adds_over_field(self, f9):
        rng = random.Random(23)
        for _ in range(100):
            f = _random_poly(f9, 1, 5, rng)
            g = _random_poly(f9, 1, 5, rng)
            if f.is_zero() or g.is_zero():
                continue
            assert skew_mul(f, g).degree == f.degree + g.degree

    def test_mismatch_errors(self, f9, f3):
        f = SkewPoly.one(f9, 1)
        with pytest.raises(AutMismatch):
            skew_mul(f, SkewPoly.one(f9, 2))
        with pytest.raises(DomainMismatch):
            skew_mul(f, SkewPoly.one(f3, 1))


class TestRightDivide:
    def test_divide_by_one(self, f9):
        rng = random.Random(24)
        f = _random_poly(f9, 1, 6, rng)
        q, r = right_divide(f, SkewPoly.one(f9, 1))
        assert q == f and r.is_zero()

    def test_worked_example(self, f9):
        # x^2 - 1 = (x + 2w)(x - w)
        g = poly_from_string("x-[0,1]", f9, 1)
        q, r = right_divide(xn_minus_1(f9, 1, 2), g)
        assert r.is_zero()
        assert q == poly_from_string("[0,2]+x", f9, 1)
        assert skew_mul(q, g) == xn_minus_1(f9, 1, 2)

    def test_reconstruction_random(self, f9):
        rng = random.Random(25)
        for _ in range(500):
            f = _random_poly(f9, 1, 8, rng)
            g = _random_poly(f9, 1, 5, rng, monic=True)
            q, r = right_divide(f, g)
            assert r.degree < g.degree
            assert skew_mul(q, g) + r == f

    def test_zero_divisor_rejected(self, f9):
        with pytest.raises(ZeroDivisor):
            right_divide(SkewPoly.one(f9, 1), SkewPoly.zero(f9, 1))


class TestDivisorPredicates:
    def test_x_minus_one_divides_everything(self, f9):
        g = poly_from_string("x-1", f9, 1)
        for n in range(1, 9):
            assert is_right_divisor_of_xn_minus_1(g, n)

    def test_xn_minus_1_divides_itself(self, f9):
        for n in (1, 3, 5):
            assert is_right_divisor_of_xn_minus_1(xn_minus_1(f9, 1, n), n)

    def test_x_minus_w_divides_x2_minus_1_not_x3(self, f9):
        g = poly_from_string("x-[0,1]", f9, 1)
        assert is_right_divisor_of_xn_minus_1(g, 2)
        assert not is_right_divisor_of_xn_minus_1(g, 3)

    def test_mod_xn_minus_1(self, f9):
        f = SkewPoly(f9, [0] * 5 + [f9.one.idx], 1)  # x^5 = x^2 mod x^3 - 1 after twisting
        r = mod_xn_minus_1(f, 3)
        assert r.degree < 3


class TestDivisorCensus:
    def test_n1(self, f9):
        divs = monic_right_divisors(1, f9, 1)
        assert divs == [SkewPoly.one(f9, 1), poly_from_string("x-1", f9, 1)]

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 4), (5, 4)])
    def test_counts(self, f9, n, count):
        assert len(monic_right_divisors(n, f9, 1)) == count

    def test_n5_explicit_set(self, f9):
        divs = monic_right_divisors(5, f9, 1)
        quartic = poly_from_string("1+x+x^2+x^3+x^4", f9, 1)
        assert divs == [
            SkewPoly.one(f9, 1),
            poly_from_string("x-1", f9, 1),
            quartic,
            xn_minus_1(f9, 1, 5),
        ]

    def test_every_divisor_reconstructs(self, f9):
        for g in monic_right_divisors(3, f9, 1):
            q, r = right_divide(xn_minus_1(f9, 1, 3), g)
            assert r.is_zero()
            assert skew_mul(q, g) == xn_minus_1(f9, 1, 3)

    def test_order_is_degree_then_lex(self, f9):
        divs = monic_right_divisors(2, f9, 1)
        keys = [(g.degree, g.coeffs) for g in divs]
        assert keys == sorted(keys)

    def test_factorization_fallback_agrees(self, f9):
        # gcd(5, 2) = 1 routes through the factorization, which ignores the
        # search bound and must agree with the exhaustive search
        assert monic_right_divisors(5, f9, 1, search_bound=10) == brute_right_divisors(
            5, f9, 1
        )

    @pytest.mark.parametrize(
        "fixture,n", [("f9", n) for n in (1, 3, 5, 7)] + [("f25", n) for n in (1, 3, 5)]
    )
    def test_routed_equals_brute(self, request, fixture, n):
        field = request.getfixturevalue(fixture)
        assert math.gcd(n, field.m) == 1
        assert monic_right_divisors(n, field, 1) == brute_right_divisors(n, field, 1)

    def test_brute_search_refuses_past_bound(self, f9):
        with pytest.raises(EnumerationTooLarge):
            brute_right_divisors(5, f9, 1, search_bound=10)

    def test_search_too_large_when_no_fallback(self, f9):
        # gcd(2, 2) = 2: no factorization route, small bound must fail
        with pytest.raises(EnumerationTooLarge):
            monic_right_divisors(2, f9, 1, search_bound=3)

    def test_fixed_subfield_membership_when_coprime(self, f9):
        """Divisors lie in F_{p^i}[x] whenever gcd(n, t_i) = 1."""
        t_i, frob = f9.m // 1, f9.frob_table(1)
        for n in (1, 3, 5):
            assert math.gcd(n, t_i) == 1
            for g in monic_right_divisors(n, f9, 1):
                for c in g.coeffs:
                    assert frob[c] == c

    def test_divisors_outside_subfield_when_not_coprime(self, f9):
        # n = 2: x - w is a divisor although w is moved by theta
        divs, frob = monic_right_divisors(2, f9, 1), f9.frob_table(1)
        assert any(
            any(frob[c] != c for c in g.coeffs) for g in divs
        )


_F81 = (3, 4, (1, 0, 1, 1, 1))
_CENTRAL_CASES = [  # (p, m, modulus), i, n with t_i | n and p not dividing n/t_i
    ((3, 2, (1, 0, 1)), 1, 2),
    ((3, 2, (1, 0, 1)), 1, 4),
    ((3, 2, (1, 0, 1)), 1, 8),
    ((5, 2, (2, 0, 1)), 1, 2),
    ((5, 2, (2, 0, 1)), 1, 4),
    ((3, 3, (1, 2, 0, 1)), 1, 3),
    (_F81, 1, 4),
    (_F81, 2, 2),
    (_F81, 2, 4),
]


class TestCentralRoute:
    """t_i | n and p does not divide n/t_i: divisors as lclms of the
    irreducible right divisors of the central factors f(x^{t_i})."""

    @pytest.mark.parametrize(
        "spec,i,n", _CENTRAL_CASES, ids=[f"q{p**m}-i{i}-n{n}" for (p, m, _), i, n in _CENTRAL_CASES]
    )
    def test_equals_the_brute_search_in_order(self, spec, i, n):
        field = Field(*spec)
        assert math.gcd(n, field.m // i) != 1
        assert monic_right_divisors(n, field, i) == brute_right_divisors(n, field, i)

    @pytest.mark.parametrize("spec,n,count", [((3, 3, (1, 2, 0, 1)), 6, 784), ((5, 2, (2, 0, 1)), 6, 224)])
    def test_past_the_brute_search_bound_the_list_is_the_count(self, spec, n, count):
        field = Field(*spec)
        with pytest.raises(EnumerationTooLarge):
            brute_right_divisors(n, field, 1)
        divs = monic_right_divisors(n, field, 1)
        assert len(divs) == len(set(divs)) == count_skew_cyclic_codes(n, field, 1)[0] == count
        assert all(g.is_monic() and is_right_divisor_of_xn_minus_1(g, n) for g in divs)
        keys = [(g.degree, g.coeffs) for g in divs]
        assert keys == sorted(keys)

    def test_a_wrong_irreducible_count_raises(self, f9, monkeypatch):
        # x^2 - 1 over F_9 has (3^2 - 1)/(3 - 1) = 4 irreducible right
        # divisors; hiding x - 1 leaves 3
        divide, hidden = skew_poly.right_divide, poly_from_string("x-1", f9, 1)

        def hiding(f, g):
            found = divide(f, g)
            if g == hidden and f == xn_minus_1(f9, 1, 2):
                return found._replace(remainder=SkewPoly.one(f9, 1))
            return found

        monkeypatch.setattr(skew_poly, "right_divide", hiding)
        with pytest.raises(AssertionError, match="3 irreducible right divisors"):
            monic_right_divisors(2, f9, 1)

    def test_search_bound_counts_the_polynomial_operations(self, f9):
        # F_9, n = 8: the central factors y - 1, y + 1 (Q = 3: 4 lines, 6
        # subspaces) and y^2 + 1 (Q = 9: 10 lines, 12 subspaces) give
        # 2 * (9 + 4 * 6) + 81 + 10 * 12 operations and 432 divisors
        assert [tuple(c) for c in skew_poly.central_factors(8, f9, 1)] == [
            (1, 4, 6), (2, 10, 12), (1, 4, 6)
        ]
        assert len(monic_right_divisors(8, f9, 1, search_bound=699)) == 432
        with pytest.raises(EnumerationTooLarge, match="699"):
            monic_right_divisors(8, f9, 1, search_bound=698)

    def test_few_candidates_and_many_divisors_are_refused_before_factoring(self, monkeypatch):
        # F_{3^8}, n = 8 = t_1: one central factor x^8 - 1 with only 3^8
        # candidates, but its (3^8 - 1)/2 = 3280 irreducible right divisors
        # close to the 127902864 subspaces of F_3^8
        field = Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1])

        def refuse(*args):
            raise AssertionError("factored past the bound")

        monkeypatch.setattr(skew_poly, "factor_xn_minus_1", refuse)
        with pytest.raises(EnumerationTooLarge, match="127902864 divisors"):
            monic_right_divisors(8, field, 1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_gcrd_and_lclm_of_divisors(self, f9, n):
        divs = monic_right_divisors(n, f9, 1)
        for f, g in itertools.product(divs[1:8], repeat=2):
            d, m = gcrd_lclm(f, g)
            assert d.is_monic() and m.is_monic()
            for h in (f, g):
                assert right_divide(h, d).remainder.is_zero()
                assert right_divide(m, h).remainder.is_zero()
            assert m.degree + d.degree == f.degree + g.degree
            assert m in divs and d in divs

    def test_list_reads_no_dense_table_and_imports_no_numpy(self):
        script = """
import sys
from skewcyclic import skew_poly
from skewcyclic.finite_field import Field

def refuse(*args):
    raise AssertionError("the divisor search or a dense table was read")

skew_poly._brute_divisor_tails = refuse
Field.tables = refuse
divs = skew_poly.monic_right_divisors(4, Field(3, 2, (1, 0, 1)), 1)
assert len(divs) == 36, len(divs)
assert "numpy" not in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": str(Path(skew_poly.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)


class TestFactorization:
    def test_n1(self, f9):
        fac = factor_xn_minus_1(1, f9, 1)
        assert fac.factors == ((poly_from_string("x-1", f9, 1), 1),)
        assert _code_count(fac) == 2

    def test_n5_over_f3(self, f9):
        fac = factor_xn_minus_1(5, f9, 1)
        polys = [(poly_to_string(g), s) for g, s in fac.factors]
        assert polys == [
            ("[2,0] + [1,0]*x", 1),
            ("[1,0] + [1,0]*x + [1,0]*x^2 + [1,0]*x^3 + [1,0]*x^4", 1),
        ]
        assert _code_count(fac) == 4

    def test_n3_cube_of_linear(self, f9):
        fac = factor_xn_minus_1(3, f9, 1)
        assert fac.factors == ((poly_from_string("x-1", f9, 1), 3),)
        assert _code_count(fac) == 4

    def test_verify_rejects_tampering(self, f9):
        good = factor_xn_minus_1(5, f9, 1)
        bad = Factorization(
            good.n, good.field, good.aut, ((good.factors[0][0], 2), good.factors[1])
        )
        with pytest.raises(AssertionError):
            bad.verify()

    def test_verify_rejects_one_irreducible_split_across_entries(self, f9):
        # (x - 1)^3 listed as three entries would count 8 codes, not 4
        g = poly_from_string("x-1", f9, 1)
        bad = Factorization(3, f9, 1, ((g, 1),) * 3)
        with pytest.raises(AssertionError, match="more than once"):
            bad.verify()
        assert _code_count(factor_xn_minus_1(3, f9, 1)) == 4

    def test_verify_count_rejects_reducible_factor(self, f9):
        bad = Factorization(5, f9, 1, ((xn_minus_1(f9, 1, 5), 1),))
        with pytest.raises(AssertionError, match="reducible"):
            bad.verify()

    # negative controls for the certificate: product, count and multiplicities

    def test_verify_rejects_a_cube_listed_once(self, f9):
        # x^3 - 1 = (x - 1)^3 is one non-constant factor for the one coset mod 1
        cube = xn_minus_1(f9, 1, 3)
        with pytest.raises(AssertionError, match="multiplicity 1, not n/n' = 3"):
            Factorization(3, f9, 1, ((cube, 1),)).verify()
        # the product x - 1 = x^{n'} - 1 and the count both hold for this one
        linear = poly_from_string("x-1", f9, 1)
        with pytest.raises(AssertionError, match="multiplicity 1, not n/n' = 3"):
            Factorization(3, f9, 1, ((linear, 1),)).verify()

    def test_verify_rejects_two_cubics_merged_into_a_sextic(self, f3):
        good = factor_xn_minus_1(13, f3, 1)
        assert [g.degree for g, _ in good.factors] == [1, 3, 3, 3, 3]
        (a, _), (b, _), (c, _) = good.factors[1:4]
        merged = (good.factors[0], (skew_mul(b, c), 1), (a, 1), good.factors[4])
        with pytest.raises(AssertionError, match="4 factors for 5 .* a factor is reducible"):
            Factorization(13, f3, 1, merged).verify()

    def test_verify_rejects_a_wrong_multiplicity(self, f3):
        good = factor_xn_minus_1(15, f3, 1)
        assert [s for _, s in good.factors] == [3, 3]
        bad = ((good.factors[0][0], 1), good.factors[1])
        with pytest.raises(AssertionError, match="multiplicity 1, not n/n' = 3"):
            Factorization(15, f3, 1, bad).verify()

    def test_verify_rejects_a_constant_factor(self, f9):
        good = factor_xn_minus_1(5, f9, 1)
        bad = good.factors + ((SkewPoly.one(f9, 1), 1),)
        with pytest.raises(AssertionError, match="is a constant"):
            Factorization(5, f9, 1, bad).verify()

    def test_verify_rejects_a_wrong_product(self, f3):
        # five monic non-constant factors, but not those of x^13 - 1
        good = factor_xn_minus_1(13, f3, 1)
        x_plus_1 = poly_from_string("x+1", f3, 1)
        bad = ((x_plus_1, 1),) + good.factors[1:]
        with pytest.raises(AssertionError, match="does not reproduce x\\^13 - 1"):
            Factorization(13, f3, 1, bad).verify()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        fp = Field(p, 1, [0, 1])
        x = sympy.Symbol("x")
        for n in list(range(1, 41)) + ([97, 241] if p in (3, 5) else []):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, expected = sympy.factor_list(x**n - 1, modulus=p)
            want = sorted(
                ([int(c) % p for c in reversed(sympy.Poly(f, x).all_coeffs())], int(s))
                for f, s in expected
            )
            fac = factor_xn_minus_1(n, fp, 1)
            # over F_p the index of a coefficient is its residue
            got = sorted((list(g.coeffs), s) for g, s in fac.factors)
            assert got == want, f"p = {p}, n = {n}"

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_matches_trial_division_over_f9_in_f81(self, n):
        f81 = Field(3, 4, [1, 0, 1, 1, 1])
        rem = xn_minus_1(f81, 2, n)
        expected = []
        for g in subfield_irreducibles(f81, 2, n // 2):
            mult = 0
            while right_divide(rem, g).remainder.is_zero():
                rem = right_divide(rem, g).quotient
                mult += 1
            if mult:
                expected.append((g, mult))
        if rem.degree >= 1:
            expected.append((rem, 1))
        assert factor_xn_minus_1(n, f81, 2).factors == tuple(expected)

    @pytest.mark.parametrize("fixture,n", [("f3", 16), ("f9", 13), ("f25", 11), ("f27", 10)])
    def test_factor_and_its_text_build_no_log_table(self, request, fixture, n):
        # a fresh field: the lane over F_p works mod p, x^n - 1 and the lift
        # of a lane value are index formulas, and the text is base-p digits
        fld = request.getfixturevalue(fixture)
        fld = Field(fld.p, fld.m, fld.modulus)
        for k in range(1, n + 1):
            fac = factor_xn_minus_1(k, fld, 1)
            assert all(poly_to_string(g) for g, _ in fac.factors)
        assert fld._log is None

    def test_subfield_irreducibles_have_no_small_factors(self, f9):
        irr = subfield_irreducibles(f9, 1, 3)
        count_by_deg = {}
        for g in irr:
            count_by_deg[g.degree] = count_by_deg.get(g.degree, 0) + 1
        # over F_3: 3 linear, 3 quadratic, 8 cubic monic irreducibles
        assert count_by_deg == {1: 3, 2: 3, 3: 8}


class TestExtendedGcd:
    def test_gcd_with_zero(self, f9):
        f = poly_from_string("2x+2", f9, 1)
        d, a, b = extended_gcd_commutative(f, SkewPoly.zero(f9, 1))
        assert d == f.monic()
        assert skew_mul(a, f) == d and b.is_zero()

    def test_spec_pair_coprime(self, f9):
        f = poly_from_string("x-1", f9, 1)
        g = poly_from_string("1+x+x^2+x^3+x^4", f9, 1)
        d, a, b = extended_gcd_commutative(f, g)
        assert d == SkewPoly.one(f9, 1)
        assert skew_mul(a, f) + skew_mul(b, g) == d

    def test_bezout_random(self, f9):
        rng = random.Random(27)
        sub = [x.idx for x in f9.fixed_subfield(1)]

        def rand_sub_poly():
            deg = rng.randrange(5)
            coeffs = [rng.choice(sub) for _ in range(deg + 1)]
            if not coeffs[-1]:
                coeffs[-1] = f9.one.idx
            return SkewPoly(f9, coeffs, 1)

        for _ in range(500):
            f, g = rand_sub_poly(), rand_sub_poly()
            d, a, b = extended_gcd_commutative(f, g)
            assert skew_mul(a, f) + skew_mul(b, g) == d
            assert d.is_monic()
            _, rf = right_divide(f, d)
            _, rg = right_divide(g, d)
            assert rf.is_zero() and rg.is_zero()

    def test_both_zero_rejected(self, f9):
        with pytest.raises(BothZero):
            extended_gcd_commutative(SkewPoly.zero(f9, 1), SkewPoly.zero(f9, 1))

    def test_coefficient_outside_the_fixed_subfield_is_refused(self, f9):
        # w is not fixed by theta_1, so x - w does not commute with x
        f, g = poly_from_string("x-[0,1]", f9, 1), poly_from_string("x-1", f9, 1)
        for pair in ((f, g), (g, f), (f, SkewPoly.zero(f9, 1))):
            with pytest.raises(AssertionError, match="leaves the fixed subfield F_3"):
                extended_gcd_commutative(*pair)


class TestCombineProject:
    def test_combine_equal_components_is_lift(self, f9):
        g = poly_from_string("x-1", f9, 1)
        lifted = ring_skew_poly_combine(g, g, g)
        assert project_components(lifted, f9, 1) == (g, g, g)
        for c in lifted:
            assert c.b.is_zero() and c.c.is_zero()

    def test_combine_mixed_projects_back(self, f9):
        f1 = poly_from_string("x-1", f9, 1)
        one = SkewPoly.one(f9, 1)
        combined = ring_skew_poly_combine(f1, one, one)
        assert len(combined) == 2
        assert project_components(combined, f9, 1) == (f1, one, one)

    def test_roundtrip_random(self, f9):
        rng = random.Random(28)
        for _ in range(500):
            fs = tuple(_random_poly(f9, 1, 4, rng) for _ in range(3))
            assert project_components(ring_skew_poly_combine(*fs), f9, 1) == fs

    def test_roundtrip_census_divisor_triples(self, f9):
        # combine no longer re-splits its result; the splitting must still
        # invert it on every divisor triple the census builds codes from
        divs5 = monic_right_divisors(5, f9, 1)
        for fs in itertools.product(divs5, repeat=3):
            assert project_components(ring_skew_poly_combine(*fs), f9, 1) == fs
        divs4 = monic_right_divisors(4, f9, 1)
        assert len(divs4) == 36
        rng = random.Random(2024)
        for _ in range(2000):
            fs = tuple(rng.choice(divs4) for _ in range(3))
            assert project_components(ring_skew_poly_combine(*fs), f9, 1) == fs

    def test_aut_mismatch(self, f9):
        with pytest.raises(AutMismatch):
            ring_skew_poly_combine(
                SkewPoly.one(f9, 1), SkewPoly.one(f9, 2), SkewPoly.one(f9, 1)
            )


class TestTextFormat:
    def test_human_readable_integers(self, f9):
        f = poly_from_string("x^2+2x+1", f9, 1)
        assert f.coeffs == (f9.one.idx, f9.elem(2).idx, f9.one.idx)

    def test_bracket_coefficients(self, f9):
        f = poly_from_string("[1,0] + [2,1]*x^2", f9, 1)
        assert f.coeffs == (f9.one.idx, 0, f9.elem([2, 1]).idx)

    def test_leading_minus(self, f9):
        f = poly_from_string("-1+x", f9, 1)
        assert f == poly_from_string("x-1", f9, 1)

    def test_zero(self, f9):
        assert poly_from_string("0", f9, 1).is_zero()
        assert poly_to_string(SkewPoly.zero(f9, 1)) == "0"

    def test_roundtrip_random(self, f9):
        rng = random.Random(29)
        for _ in range(200):
            f = _random_poly(f9, 1, 6, rng)
            assert poly_from_string(poly_to_string(f), f9, 1) == f

    def test_ring_poly_roundtrip(self, f9):
        s = "[1,0]|[0,1]|[0,0] + [0,0]|[2,0]|[1,1]*x^2"
        f = ring_coeffs_from_string(s, f9)
        assert poly_to_string(f) == s
        assert ring_coeffs_from_string(poly_to_string(f), f9) == f

    def test_ring_poly_integer_coefficients(self, f9):
        f = ring_coeffs_from_string("x-1", f9)
        assert f == (ring_elem(f9, -1), ring_elem(f9, 1))

    def test_ring_poly_cancelling_top_term(self, f9):
        assert ring_coeffs_from_string("1 + x - x", f9) == (ring_elem(f9, 1),)
        assert ring_coeffs_from_string("x - x", f9) == ()
        assert poly_to_string(()) == "0"


# ---------------------------------------------------------------------------
# skew-ring laws the oracle's rank tests rest on (sigma is semilinear because
# x*a = theta(a)*x, and membership is a right remainder)

_F9 = Field(3, 2, [1, 0, 1])
_F81 = Field(3, 4, [2, 0, 0, 1, 1])
SKEW_RINGS = {
    "F9-i1": (_F9, 1),
    "F81-i1": (_F81, 1),
    "F81-i2": (_F81, 2),
}


def _coeffs(field, units=False):
    return st.integers(1 if units else 0, field.q - 1)


def _polys(field, aut, max_degree=4):
    return st.lists(_coeffs(field), max_size=max_degree + 1).map(
        lambda cs: SkewPoly(field, cs, aut)
    )


def _theta(c, i):
    """c -> c^(p^i) by repeated multiplication."""
    out = c.field.one
    for _ in range(c.field.p**i):
        out = out * c
    return out


@pytest.mark.parametrize("name", sorted(SKEW_RINGS))
class TestSkewRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_associative(self, name, data):
        field, aut = SKEW_RINGS[name]
        f, g, h = (data.draw(_polys(field, aut)) for _ in range(3))
        assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distributive(self, name, data):
        field, aut = SKEW_RINGS[name]
        f, g, h = (data.draw(_polys(field, aut)) for _ in range(3))
        assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)
        assert skew_mul(f + g, h) == skew_mul(f, h) + skew_mul(g, h)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_x_times_a_is_theta_a_times_x(self, name, data):
        field, aut = SKEW_RINGS[name]
        a = data.draw(_coeffs(field))
        theta_a = _theta(field.from_index(a), aut).idx
        x = SkewPoly(field, [0, field.one.idx], aut)
        lhs = skew_mul(x, SkewPoly(field, [a], aut))
        assert lhs == SkewPoly(field, [0, theta_a], aut)
        assert lhs == skew_mul(SkewPoly(field, [theta_a], aut), x)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_right_division(self, name, data):
        field, aut = SKEW_RINGS[name]
        f = data.draw(_polys(field, aut, max_degree=6))
        tail = data.draw(_polys(field, aut, max_degree=3))
        lc = data.draw(_coeffs(field, units=True))
        k = data.draw(st.integers(0, 3))
        g = tail + SkewPoly(field, [0] * (k + tail.degree + 1) + [lc], aut)
        quo, rem = right_divide(f, g)
        assert skew_mul(quo, g) + rem == f
        assert rem.is_zero() or rem.degree < g.degree


def _schoolbook_mul(f, g):
    """The skew product on ``FieldElem`` coefficients, with their operators."""
    field, aut = f.field, f.aut
    fs, gs = map(field.from_index, f.coeffs), [field.from_index(b) for b in g.coeffs]
    out = [field.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(fs):
        for j, b in enumerate(gs):
            out[i + j] = out[i + j] + a * b.frob(aut * i)
    return [c.idx for c in out]


def _schoolbook_divide(f, g):
    """Right division on ``FieldElem`` coefficients: (quotient, remainder) as
    index lists, trailing zeros kept."""
    field, aut, d = f.field, f.aut, g.degree
    r = [field.from_index(c) for c in f.coeffs]
    gs = [field.from_index(b) for b in g.coeffs]
    quo = [field.zero] * max(0, len(r) - d)
    for k in reversed(range(len(quo))):
        quo[k] = r[k + d] * gs[-1].frob(aut * k).inv()
        for j, b in enumerate(gs):
            r[k + j] = r[k + j] - quo[k] * b.frob(aut * k)
    return [c.idx for c in quo], [c.idx for c in r]


@pytest.mark.parametrize("name", sorted(SKEW_RINGS))
class TestIndexKernelAgainstElementOperators:
    """``skew_mul`` and ``right_divide`` compute on indices and logarithms;
    the schoolbook above computes on ``FieldElem`` operators."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mul(self, name, data):
        field, aut = SKEW_RINGS[name]
        f, g = (data.draw(_polys(field, aut, max_degree=5)) for _ in range(2))
        assert skew_mul(f, g) == SkewPoly(field, _schoolbook_mul(f, g), aut)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_right_divide(self, name, data):
        field, aut = SKEW_RINGS[name]
        f = data.draw(_polys(field, aut, max_degree=7))
        g = data.draw(_polys(field, aut, max_degree=4).filter(lambda h: not h.is_zero()))
        quo, rem = _schoolbook_divide(f, g)
        assert right_divide(f, g) == (SkewPoly(field, quo, aut), SkewPoly(field, rem, aut))


# the oracle's eta-combination: the one product over R that its claims
# keep, for decompose-compose, against production's crossing


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_combination_is_production_combination(data):
    polys = [data.draw(_polys(_F9, 1)) for _ in range(3)]
    assert evaluated(_combine(polys, _F9), _F9) == stored(ring_skew_poly_combine(*polys))


# the split lane of the oracle's claims over R against production's
# skew_mul: slot rows, the per-slot cofactor check and the idempotent check

_F25 = Field(5, 2, [2, 0, 1])
_LANE_FIELDS = {"F9": _F9, "F25": _F25}


@functools.cache
def _lane_divisors(name, n):
    return monic_right_divisors(n, _LANE_FIELDS[name], 1)


@pytest.mark.parametrize("name", sorted(_LANE_FIELDS))
class TestOracleSplitLane:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_slot_rows_are_shifted_generators(self, name, data):
        # the orbit row j is x^j * g mod x^n - 1, and the slot span is its
        # span in echelon form, each row with 1 at its lead column
        field = _LANE_FIELDS[name]
        n = data.draw(st.integers(1, 5))
        g = data.draw(_polys(field, 1, max_degree=2 * n))
        t = field.tables()
        orbit = oracle._twist_orbit(oracle._fold(g, n, t), n, field.frob_table(1))
        rows = []
        for j in range(n):
            x_j = SkewPoly(field, [0] * j + [field.one.idx], 1)
            rows.append(list(mod_xn_minus_1(skew_mul(x_j, g), n).padded(n)))
        assert orbit == rows
        span = oracle._slot_span(g, n)
        assert canonical_subspace(span.rows, field) == canonical_subspace(rows, field)
        assert span.leads == sorted(set(span.leads))
        for c, row in zip(span.leads, span.rows):
            assert not any(row[:c]) and row[c] == t.one

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_cofactor_check_rejects_a_changed_coefficient(self, name, n, data):
        field = _LANE_FIELDS[name]
        g = data.draw(st.sampled_from(_lane_divisors(name, n)))
        h, rem = right_divide(xn_minus_1(field, 1, n), g)
        assert rem.is_zero() and oracle._is_cofactor(h, g, n)
        k = data.draw(st.integers(0, h.degree))
        c = data.draw(st.integers(0, field.q - 1).filter(lambda c: c != h.coeffs[k]))
        changed = SkewPoly(field, h.coeffs[:k] + (c,) + h.coeffs[k + 1 :], 1)
        assert not oracle._is_cofactor(changed, g, n)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_idempotent_check_is_e_times_e_equals_e(self, name, data):
        # gcd(n, q t_1) = 1, so every component code has an idempotent; a
        # drawn e in its place is accepted exactly when e * e = e mod x^n - 1
        field = _LANE_FIELDS[name]
        n = {"F9": 5, "F25": 3}[name]
        comp = component_code_new(n, data.draw(st.sampled_from(_lane_divisors(name, n))))
        e = data.draw(st.one_of(
            st.just(comp.idempotent_generator()), _polys(field, 1, max_degree=n - 1)
        ))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ComponentCode, "idempotent_generator", lambda self: e)
            v = oracle.verify_idempotent_generators(comp, {})
        idempotent = mod_xn_minus_1(skew_mul(e, e), n) == mod_xn_minus_1(e, n)
        if v.passed:
            assert idempotent
        else:
            assert v.counterexample["idempotent"] is idempotent


# ---------------------------------------------------------------------------
# text round-trips: what poly_to_string prints, the parsers read back


@pytest.mark.parametrize("field,aut", [(_F9, 1), (_F81, 2)], ids=["F9-i1", "F81-i2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_poly_text_roundtrip(field, aut, data):
    f = data.draw(_polys(field, aut, max_degree=6))
    assert poly_from_string(poly_to_string(f), field, aut) == f


@settings(max_examples=60, deadline=None)
@given(f=st.lists(st.tuples(*[st.integers(0, _F9.q - 1)] * 3), max_size=7))
def test_ring_poly_text_roundtrip(f):
    coeffs = tuple(RingElem(*map(_F9.from_index, s)) for s in f)
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    assert ring_coeffs_from_string(poly_to_string(coeffs), _F9) == coeffs


# ---------------------------------------------------------------------------
# the commutative lane over F_{p^i} against the skew ring operations

LANES = {
    "F3": (Field(3, 1, [0, 1]), 1),
    "F9-i1": (_F9, 1),
    "F25-i1": (_F25, 1),
    "F81-i2": (_F81, 2),
}


def _lane_polys(lane, max_degree=5, min_size=0):
    return st.lists(
        st.integers(0, lane.order - 1), min_size=min_size, max_size=max_degree + 1
    ).map(lane.trim)


def _lift(field, aut, lane, f):
    return SkewPoly(field, [lane.lift(c) for c in f], aut)


@pytest.mark.parametrize("name", sorted(LANES))
class TestSubfieldLane:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mul_and_rem_match_the_skew_ring(self, name, data):
        field, aut = LANES[name]
        lane = field.subfield(aut)
        f = data.draw(_lane_polys(lane))
        g = data.draw(_lane_polys(lane).filter(bool))
        lift = lambda h: _lift(field, aut, lane, h)  # noqa: E731
        assert lift(lane.mul(f, g)) == skew_mul(lift(f), lift(g))
        quo, rem = lane.quo_rem(f, g)
        assert (lift(quo), lift(rem)) == right_divide(lift(f), lift(g))
        assert lane.rem(f, g) == rem

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_xgcd_is_a_bezout_identity_for_the_gcd(self, name, data):
        field, aut = LANES[name]
        lane = field.subfield(aut)
        f = data.draw(_lane_polys(lane))
        g = data.draw(_lane_polys(lane))
        assume(f or g)
        d, a, b = lane.xgcd(f, g)
        assert d == lane.gcd(f, g)
        lift = lambda h: _lift(field, aut, lane, h)  # noqa: E731
        big_f, big_g, big_d = lift(f), lift(g), lift(d)
        assert skew_mul(lift(a), big_f) + skew_mul(lift(b), big_g) == big_d
        assert right_divide(big_f, big_d).remainder.is_zero()
        assert right_divide(big_g, big_d).remainder.is_zero()

    def test_lane_indices_follow_the_field_index(self, name):
        field, aut = LANES[name]
        lane = field.subfield(aut)
        idx = [lane.lift(k) for k in range(lane.order)]
        assert idx == sorted(idx) and idx == [x.idx for x in field.fixed_subfield(aut)]
        assert all(lane.lane_index(lane.lift(k)) == k for k in range(lane.order))
        assert lane.lift(lane.one) == field.one.idx and lane.lift(0) == 0
        assert sum(lane.lane_index(x) is None for x in range(field.q)) == (
            field.q - lane.order
        )


@pytest.mark.parametrize(
    "field,aut", [(_F9, 1), (_F81, 2), (Field(3, 3, [1, 2, 0, 1]), 1)],
    ids=["F9-i1", "F81-i2", "F27-i1"],
)
def test_rabin_matches_the_sieve(field, aut):
    lane = field.subfield(aut)
    irreducible = {
        tuple(lane.lane_index(c) for c in g.coeffs)
        for g in subfield_irreducibles(field, aut, 3)
    }
    for d in range(1, 4):
        for tail in itertools.product(range(lane.order), repeat=d):
            f = list(tail) + [lane.one]
            assert lane.is_irreducible(f) == (tuple(f) in irreducible), f
    assert len(irreducible) == sum(
        {1: lane.order, 2: (lane.order**2 - lane.order) // 2,
         3: (lane.order**3 - lane.order) // 3}.values()
    )


# ---------------------------------------------------------------------------
# the factorization against references it does not use: Rabin's test, the
# degrees that cyclotomic theory predicts and the coset-count formula


def _cyclotomic_degrees(n1, order):
    """ord_d(Q), phi(d)/ord_d(Q) times, over every d | n1, sorted."""
    degrees = []
    for d in range(1, n1 + 1):
        if n1 % d == 0:
            phi = sum(math.gcd(j, d) == 1 for j in range(1, d + 1))
            k = next(k for k in range(1, d + 1) if pow(order, k, d) == 1 % d)
            degrees += [k] * (phi // k)
    return sorted(degrees)


def _rabin_irreducible(lane, fac):
    return all(
        lane.is_irreducible([lane.lane_index(c) for c in g.coeffs]) for g, _ in fac.factors
    )


@pytest.mark.parametrize("name", sorted(LANES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factors_are_irreducible_of_the_cyclotomic_degrees(name, data):
    field, aut = LANES[name]
    t_i = field.check_aut_exponent(aut)
    n = data.draw(st.integers(1, 400).filter(lambda n: math.gcd(n, t_i) == 1), label="n")
    lane = field.subfield(aut)
    fac = factor_xn_minus_1(n, field, aut)
    n1 = n
    while n1 % field.p == 0:
        n1 //= field.p
    assert _rabin_irreducible(lane, fac)
    assert sorted(g.degree for g, _ in fac.factors) == _cyclotomic_degrees(n1, lane.order)
    assert _code_count(fac) == count_skew_cyclic_codes(n, field, aut)[0]


def test_factors_at_n1001_over_f9_pass_rabin():
    lane = _F9.subfield(1)
    fac = factor_xn_minus_1(1001, _F9, 1)
    assert max(g.degree for g, _ in fac.factors) == 30
    assert _rabin_irreducible(lane, fac)


def test_factoring_runs_no_rabin_test(monkeypatch):
    def refuse(self, f):
        raise AssertionError("Rabin's test on the factor path")

    monkeypatch.setattr(Subfield, "is_irreducible", refuse)
    fac = factor_xn_minus_1(1001, _F9, 1)
    assert _code_count(fac) == 2 ** len(fac.factors)
