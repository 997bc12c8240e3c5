import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic.finite_field import (
    ENUMERATION_LIMIT,
    TABLE_LIMIT,
    DegreeMismatch,
    EnumerationTooLarge,
    EvenCharacteristic,
    Field,
    FieldElem,
    FieldMismatch,
    InvalidExponent,
    NotAnInteger,
    NotPrime,
    PrimeSubfield,
    ReducibleModulus,
    ZeroInverse,
    _first_generator,
    _is_irreducible_modp,
    _power_indices,
    elem_from_string,
    field_from_string,
)
from skewcyclic.oracle import _verify_log_table


class TestConstruction:
    def test_prime_field_uses_canonical_modulus(self):
        f = Field(3, 1, [0, 1])
        assert f.modulus == (0, 1)
        assert [x.coeffs for x in f.elements()] == [(0,), (1,), (2,)]

    def test_prime_field_ignores_supplied_modulus(self):
        # degenerate m = 1 case: elements are constants, modulus is recorded
        # canonically and never checked for irreducibility
        assert Field(3, 1, [1, 1]).modulus == (0, 1)

    def test_f9_valid(self):
        f = Field(3, 2, [1, 0, 1])
        assert f.q == 9

    def test_even_characteristic_rejected(self):
        with pytest.raises(EvenCharacteristic):
            Field(2, 2, [1, 1, 1])

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NotPrime):
            Field(9, 1, [0, 1])

    def test_reducible_modulus_rejected(self):
        # 1 + w + w^2 has the root 1 mod 3
        with pytest.raises(ReducibleModulus):
            Field(3, 2, [1, 1, 1])

    def test_modulus_check_builds_no_tables_for_a_large_prime(self):
        # p = 4099 > TABLE_LIMIT: Rabin's test runs mod p, with no p x p table
        assert 4099 > TABLE_LIMIT
        fld = Field(4099, 2, [1, 0, 1])  # -1 is a non-residue, 4099 = 3 mod 4
        assert fld._log is None and fld._tables is None
        with pytest.raises(ReducibleModulus):
            Field(4099, 2, [-1, 0, 1])
        # q = 4099^2 > ENUMERATION_LIMIT: arithmetic is refused before the
        # table is allocated
        assert fld.q > ENUMERATION_LIMIT
        tracemalloc.start()
        try:
            for op in (lambda: fld.gen * fld.gen, lambda: fld.gen.inv(), lambda: -fld.gen):
                with pytest.raises(EnumerationTooLarge):
                    op()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20 and fld._log is None

    def test_modulus_degree_checked(self):
        with pytest.raises(DegreeMismatch):
            Field(3, 2, [1, 0])
        with pytest.raises(DegreeMismatch):
            Field(3, 2, [1, 0, 2])  # not monic

    @pytest.mark.parametrize(
        "p, m, modulus, value",
        [
            (3, 2.0, (1, 0, 1), "m must be an integer, got 2.0"),
            (3.0, 2, (1, 0, 1), "p must be an integer, got 3.0"),
            (3, True, (0, 1), "m must be an integer, got True"),
            (True, 2, (1, 0, 1), "p must be an integer, got True"),
            (3, 2, (1.0, 0, 1.0), "modulus coefficients must be integers, got 1.0"),
            (3, 2, (1, "0", 1), "modulus coefficients must be integers, got '0'"),
        ],
        ids=["float-m", "float-p", "bool-m", "bool-p", "float-coefficient", "str-coefficient"],
    )
    def test_non_integer_input_is_a_typed_error(self, monkeypatch, p, m, modulus, value):
        # refused by name before the primality and irreducibility tests run
        from skewcyclic import finite_field

        def refuse(*args):
            raise AssertionError("checked past a non-integer input")

        monkeypatch.setattr(finite_field, "is_prime", refuse)
        monkeypatch.setattr(finite_field, "_is_irreducible_modp", refuse)
        with pytest.raises(NotAnInteger, match=re.escape(value)):
            Field(p, m, modulus)

    def test_degree_four_trial_division(self):
        Field(3, 4, [2, 1, 0, 0, 1])  # x^4 + x + 2, irreducible
        with pytest.raises(ReducibleModulus):
            Field(3, 4, [1, 0, 2, 0, 1])  # (x^2 + 1)^2

    def test_rabin_runs_once_per_modulus(self, monkeypatch):
        from skewcyclic import finite_field

        calls, rabin = [], PrimeSubfield.is_irreducible

        def recording(self, f):
            calls.append(tuple(f))
            return rabin(self, f)

        finite_field._rabin_verdict.cache_clear()
        monkeypatch.setattr(PrimeSubfield, "is_irreducible", recording)
        for _ in range(3):
            assert Field(3, 4, [2, 1, 0, 0, 1]).modulus == (2, 1, 0, 0, 1)
            with pytest.raises(ReducibleModulus):
                Field(3, 4, [1, 0, 2, 0, 1])
        # a list with coefficients outside 0..p-1 reads the same verdict
        assert _is_irreducible_modp([5, -2, 3, 0, 4], 3)
        assert calls == [(2, 1, 0, 0, 1), (1, 0, 2, 0, 1)]

    def test_element_needs_m_coefficients(self, f9):
        with pytest.raises(DegreeMismatch):
            f9.elem([1, 0, 0])


class TestArithmetic:
    def test_w_squared_is_minus_one(self, f9):
        w = f9.gen
        assert w * w == -f9.one

    def test_additive_identity_exhaustive(self, f9):
        for x in f9.elements():
            assert x + f9.zero == x

    def test_inverse_of_two_in_f3(self, f3):
        two = f3.elem(2)
        assert two.inv() == two
        assert two * two.inv() == f3.one

    def test_zero_inverse_rejected(self, f9):
        with pytest.raises(ZeroInverse):
            f9.zero.inv()

    def test_field_mismatch(self, f3, f9):
        with pytest.raises(FieldMismatch):
            f3.one + f9.one

    @pytest.mark.parametrize("spec", [(3, 1, [0, 1]), (3, 2, [1, 0, 1]), (5, 2, [2, 0, 1])])
    def test_field_axioms_exhaustive(self, spec):
        """Associativity, commutativity, distributivity, inverses for q <= 25."""
        f = Field(*spec)
        elems = f.elements()
        for x in elems:
            assert x + (-x) == f.zero
            assert x * f.one == x
            if not x.is_zero():
                assert x * x.inv() == f.one
        for x, y in itertools.product(elems, repeat=2):
            assert x + y == y + x
            assert x * y == y * x
        for x, y, z in itertools.product(elems, repeat=3):
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_axioms_sampled_above_exhaustion_cutoff(self, f27):
        rng = random.Random(0)
        elems = f27.elements()
        for _ in range(300):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            if not x.is_zero():
                assert x * x.inv() == f27.one


class TestFrobenius:
    def test_w_to_the_p(self, f9):
        w = f9.gen
        assert w.frob(1) == f9.elem([0, 2])  # w^3 = -w

    def test_fixes_prime_subfield(self, f25):
        for c in range(5):
            x = f25.elem(c)
            assert x.frob(1) == x

    @pytest.mark.parametrize("i", [1, 2])
    def test_iterating_ti_times_is_identity(self, f9, i):
        t = f9.m // i
        for x in f9.elements():
            y = x
            for _ in range(t):
                y = y.frob(i)
            assert y == x

    def test_fixed_points_count_is_p_to_i(self, f9, f27):
        assert len(f9.fixed_subfield(1)) == 3
        assert len(f9.fixed_subfield(2)) == 9
        assert len(f27.fixed_subfield(1)) == 3
        assert len(f27.fixed_subfield(3)) == 27

    def test_is_field_automorphism(self, f9):
        rng = random.Random(1)
        elems = f9.elements()
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems)
            assert (x + y).frob(1) == x.frob(1) + y.frob(1)
            assert (x * y).frob(1) == x.frob(1) * y.frob(1)

    @pytest.mark.parametrize(
        "spec", [(3, 2, [1, 0, 1]), (5, 2, [2, 0, 1]), (3, 3, [1, 2, 0, 1]),
                 (3, 4, [2, 0, 0, 1, 1])],
    )
    def test_frob_pow_linear_map_matches_repeated_pow(self, spec):
        fld = Field(*spec)
        for x in fld.elements():
            ref = x.coeffs
            for e in range(2 * fld.m):
                assert fld.frob_pow(x, e).coeffs == ref
                ref = _coeff_pow(fld, ref, fld.p)

    def test_invalid_exponent(self, f9):
        with pytest.raises(InvalidExponent):
            f9.check_aut_exponent(3)
        with pytest.raises(InvalidExponent):
            f9.check_aut_exponent(0)


class TestEnumeration:
    def test_f3_order(self, f3):
        assert [x.coeffs for x in f3.elements()] == [(0,), (1,), (2,)]

    def test_f9_deterministic_and_zero_first(self, f9):
        elems = f9.elements()
        assert len(elems) == 9
        assert elems[0] == f9.zero
        assert elems == f9.elements()

    def test_f25_count(self, f25):
        assert len(f25.elements()) == 25

    def test_enumeration_bound(self, f9):
        with pytest.raises(EnumerationTooLarge):
            f9.elements(bound=8)

    @pytest.mark.parametrize("fixture", ["f3", "f9", "f25", "f27"])
    def test_index_text_writes_the_coefficients(self, request, fixture):
        fld = request.getfixturevalue(fixture)
        for k, x in enumerate(fld.elements()):
            assert fld.index_text(k) == str(x) == "[" + ",".join(map(str, x.coeffs)) + "]"

    def test_index_roundtrip(self, f25):
        for idx, x in enumerate(f25.elements()):
            assert x.idx == idx
            assert f25.from_index(idx) == x


class TestTables:
    def test_tables_agree_with_element_ops(self, f9):
        t = f9.tables()
        elems = f9.elements()
        for a in range(9):
            assert t.neg[a] == (-elems[a]).idx
            for b in range(9):
                assert t.add[a][b] == (elems[a] + elems[b]).idx
                assert t.mul[a][b] == (elems[a] * elems[b]).idx
        for a in range(1, 9):
            assert t.inv[a] == elems[a].inv().idx

    def test_frob_table(self, f9):
        ft = f9.frob_table(1)
        for a, x in enumerate(f9.elements()):
            assert ft[a] == x.frob(1).idx

    def test_tableless_fallback_field(self):
        # q = 4489 exceeds the dense table limit; arithmetic reads the O(q) table
        f = Field(67, 2, [65, 0, 1])  # w^2 - 2 over Z_67, 2 a non-residue
        x = f.elem([12, 53])
        assert x * x.inv() == f.one
        with pytest.raises(EnumerationTooLarge):
            f.tables()


class TestTextFormats:
    def test_field_spec_roundtrip(self, f9):
        assert field_from_string("p=3,m=2,mod=1,0,1") == f9

    def test_prime_field_spec_without_modulus(self, f3):
        assert field_from_string("p=3,m=1") == f3

    def test_elem_parse(self, f9):
        assert elem_from_string(f9, "[0,1]") == f9.gen
        assert elem_from_string(f9, "[2]") == f9.elem(2)
        assert str(f9.gen) == "[0,1]"

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            field_from_string("m=2,mod=1,0,1")
        with pytest.raises(ValueError):
            field_from_string("p=3,m=2,bogus=1")


def _coeff_pow(fld, coeffs, n):
    """coeffs^n by square-and-multiply on the coefficient helper alone."""
    out, base = (1,) + (0,) * (fld.m - 1), tuple(coeffs)
    while n:
        if n & 1:
            out = tuple(fld._mul_coeffs(out, base))
        base = tuple(fld._mul_coeffs(base, base))
        n >>= 1
    return out


KERNEL_SPECS = [
    (3, 1, [0, 1]),
    (3, 2, [1, 0, 1]),
    (5, 2, [2, 0, 1]),
    (3, 3, [1, 2, 0, 1]),
    (3, 4, [2, 0, 0, 1, 1]),
]


class TestInternedKernel:
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_lookups_agree_with_coefficient_helpers(self, spec):
        fld = Field(*spec)
        p = fld.p
        elems = [fld.from_index(i) for i in range(fld.q)]
        assert fld._log is not None
        for x in elems:
            assert (-x).coeffs == tuple((-a) % p for a in x.coeffs)
            if not x.is_zero():
                assert x.inv().coeffs == _coeff_pow(fld, x.coeffs, fld.q - 2)
            ref = x.coeffs
            for e in range(2 * fld.m):
                assert fld.frob_pow(x, e).coeffs == ref
                assert x.frob(e).coeffs == ref
                ref = _coeff_pow(fld, ref, p)
            for y in elems:
                add = tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
                sub = tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
                assert (x + y).coeffs == add
                assert (x - y).coeffs == sub
                assert (x * y).coeffs == tuple(fld._mul_coeffs(x.coeffs, y.coeffs))
        assert fld._tables is None  # the O(q) table alone, no q x q lists

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_results_are_the_interned_elements(self, spec):
        fld = Field(*spec)
        t = fld.tables()
        assert fld.from_index(0) is fld.zero and fld.from_index(t.one) is fld.one
        rng = random.Random(fld.q)
        for _ in range(200):
            i, j = rng.randrange(fld.q), rng.randrange(fld.q)
            x, y = fld.from_index(i), fld.from_index(j)
            assert x is fld.from_index(i) and x.idx == i
            for r in (x + y, x - y, x * y, -x, x.frob(1)):
                assert r is t.elems[r.idx]
            if j:
                assert y.inv() is t.elems[t.inv[j]]

    def test_equal_distinct_fields_mix(self):
        tabled, plain = Field(3, 2, [1, 0, 1]), Field(3, 2, [1, 0, 1])
        assert tabled is not plain and tabled == plain
        tabled.tables()
        p = tabled.p
        for x in tabled.elements():
            for y in plain.elements():
                for a, b in ((x, y), (y, x)):
                    assert (a + b).coeffs == tuple((u + v) % p for u, v in zip(a.coeffs, b.coeffs))
                    assert (a - b).coeffs == tuple((u - v) % p for u, v in zip(a.coeffs, b.coeffs))
                    assert (a * b).coeffs == tuple(tabled._mul_coeffs(a.coeffs, b.coeffs))
                assert x == plain.elem(list(x.coeffs))
                assert hash(x) == hash(plain.elem(list(x.coeffs)))
        assert plain._tables is None

    def test_large_field_never_builds_tables(self):
        fld = Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1])  # q = 6561 > TABLE_LIMIT
        assert fld.q > TABLE_LIMIT
        rng = random.Random(8)
        x = fld.from_index(rng.randrange(1, fld.q))
        y = fld.elem([rng.randrange(3) for _ in range(8)])
        z = (x + y) * (x - y) - (-x) * fld.half
        assert x * x.inv() == fld.one
        assert x.frob(8) == x and fld.frob_pow(z, 3).coeffs == _coeff_pow(fld, z.coeffs, 27)
        assert fld.from_index(z.idx) == z
        assert fld._tables is None  # the O(q) table alone, no q x q lists

    @pytest.mark.parametrize("spec", KERNEL_SPECS[1:])
    def test_interned_elements_are_immutable(self, spec):
        fld = Field(*spec)
        x = fld.from_index(fld.q - 1)
        before = (x.coeffs, x.idx, x.field)
        for attr in ("coeffs", "idx", "field", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 0)
        for attr in ("coeffs", "idx"):
            with pytest.raises(AttributeError):
                delattr(x, attr)
        _ = (x + x, x * x, -x, x.inv(), x.frob(1))
        assert (x.coeffs, x.idx, x.field) == before
        assert fld.from_index(fld.q - 1) is x


F_243 = (3, 5, [1, 0, 0, 0, 2, 1])
F_729 = (3, 6, [1, 0, 0, 0, 1, 1, 1])


class TestCyclicTables:
    """The tables from a generator and Zech's logarithm, against the
    coefficient helpers and across the subfield lanes."""

    def test_f243_tables_match_coefficient_helpers(self):
        fld = Field(*F_243)
        t, p, q = fld.tables(), fld.p, fld.q
        coeffs = list(itertools.product(range(p), repeat=fld.m))  # index order
        for x, c in enumerate(coeffs):
            assert coeffs[t.neg[x]] == tuple(-a % p for a in c)
            if x:
                assert coeffs[t.inv[x]] == _coeff_pow(fld, c, q - 2)
        rng = random.Random(243)
        for _ in range(20000):
            x, y = rng.randrange(q), rng.randrange(q)
            a, b = coeffs[x], coeffs[y]
            assert coeffs[t.add[x][y]] == tuple((u + v) % p for u, v in zip(a, b))
            assert coeffs[t.sub[x][y]] == tuple((u - v) % p for u, v in zip(a, b))
            assert coeffs[t.mul[x][y]] == tuple(fld._mul_coeffs(a, b))

    @pytest.mark.parametrize(
        "spec, i", [((3, 4, [2, 0, 0, 1, 1]), 2), (F_729, 2), (F_729, 3)]
    )
    def test_lane_tables_are_the_field_tables_on_the_fixed_elements(self, spec, i):
        fld = Field(*spec)
        lane, t = fld.subfield(i), fld.tables()
        fixed = [x.idx for x in fld.fixed_subfield(i)]
        # the strided read of the field's table is the Frobenius fixed set
        assert fixed == [
            x.idx for x in fld.elements() if _coeff_pow(fld, x.coeffs, fld.p**i) == x.coeffs
        ]
        pos = {k: a for a, k in enumerate(fixed)}
        assert [lane.lift(k) for k in range(lane.order)] == fixed and lane.order == len(fixed)
        assert lane._mul == [[pos[t.mul[x][y]] for y in fixed] for x in fixed]
        assert lane._add == [[pos[t.add[x][y]] for y in fixed] for x in fixed]
        assert lane._inv == [pos[t.inv[x]] for x in fixed]
        assert (lane.one, lane.minus_one) == (pos[t.one], pos[t.neg[t.one]])

    def test_build_makes_linearly_many_coefficient_products(self, monkeypatch):
        # the powers of one generator and Zech's logarithm, not q^2 products
        fld, calls = Field(*F_729), []
        mul_coeffs = Field._mul_coeffs

        def counting(self, a, b):
            calls.append(a)
            return mul_coeffs(self, a, b)

        monkeypatch.setattr(Field, "_mul_coeffs", counting)
        fld.tables()
        assert len(calls) < 3 * fld.q

    @pytest.mark.parametrize(
        "spec",
        [
            (3, 2, [1, 0, 1]),  # w^2 = -1: w has order 4 and is not primitive
            (3, 2, [2, 1, 1]),  # w is primitive
            (5, 2, [2, 0, 1]),
            (3, 3, [1, 2, 0, 1]),
            (5, 3, [1, 0, 1, 1]),
            (7, 2, [1, 0, 1]),
            F_729,
            (3, 7, [1, 0, 0, 0, 0, 1, 2, 1]),
            (3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1]),
        ],
    )
    def test_power_table_is_the_iterated_coefficient_product(self, spec):
        fld = Field(*spec)
        coeffs = list(itertools.product(range(fld.p), repeat=fld.m))  # index order
        index = {c: k for k, c in enumerate(coeffs)}
        _, g = _first_generator(fld)
        x, powers = (1,) + (0,) * (fld.m - 1), []
        for _ in range(fld.q - 1):
            powers.append(index[x])
            x = tuple(fld._mul_coeffs(x, g))
        assert _power_indices(fld, g) == powers
        assert _verify_log_table(fld, coeffs, index) is None

    @pytest.mark.parametrize("spec", [(3, 2, [1, 0, 1]), (3, 3, [1, 2, 0, 1]), F_729])
    def test_interned_elements_are_the_constructed_ones(self, spec):
        fld = Field(*spec)
        elems = fld.log_table().elems
        coeffs = list(itertools.product(range(fld.p), repeat=fld.m))  # index order
        assert len(elems) == fld.q
        for k, c in enumerate(coeffs):
            x = FieldElem(fld, c)
            assert elems[k] == x and elems[k].idx == x.idx == k
            assert elems[k].coeffs == x.coeffs and elems[k].field is fld
        assert elems[0] is fld.zero and elems[fld.one.idx] is fld.one
        index = {c: k for k, c in enumerate(coeffs)}
        assert _verify_log_table(fld, coeffs, index) is None


def _divides_modp(g, f, p):
    """True iff the monic g divides f over Z_p (schoolbook long division)."""
    r, d = list(f), len(g) - 1
    while len(r) > d:
        c = r.pop()
        for j in range(d):
            r[len(r) - d + j] = (r[len(r) - d + j] - c * g[j]) % p
    return not any(r)


class TestRabinModulus:
    @staticmethod
    def _trial_division(f, p):
        deg = len(f) - 1
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                if _divides_modp(list(tail) + [1], f, p):
                    return False
        return deg >= 1

    @pytest.mark.parametrize("p,max_degree", [(3, 6), (5, 4)])
    def test_matches_trial_division(self, p, max_degree):
        irreducible = 0
        for d in range(1, max_degree + 1):
            for tail in itertools.product(range(p), repeat=d):
                f = list(tail) + [1]
                expected = self._trial_division(f, p)
                assert _is_irreducible_modp(f, p) == expected, f
                irreducible += expected
        # Gauss's count of monic irreducibles: 3+3+8+18+48+116 over Z_3
        assert irreducible == {3: 196, 5: 5 + 10 + 40 + 150}[p]


LAW_FIELDS = {9: Field(3, 2, [1, 0, 1]), 81: Field(3, 4, [2, 0, 0, 1, 1])}
LAW_TWINS = {q: Field(f.p, f.m, f.modulus) for q, f in LAW_FIELDS.items()}


def _triples(q):
    idx = st.integers(0, q - 1)
    return st.tuples(st.just(q), idx, idx, idx)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LAW_FIELDS)).flatmap(_triples))
def test_field_laws_on_interned_elements(args):
    q, i, j, k = args
    fld = LAW_FIELDS[q]
    x, y, z = (fld.from_index(a) for a in (i, j, k))
    assert (x + y) + z is x + (y + z)
    assert (x * y) * z is x * (y * z)
    assert x + y is y + x and x * y is y * x
    assert x * (y + z) is x * y + x * z
    assert x + fld.zero is x and x * fld.one is x and x - x is fld.zero
    assert (x - y) + y is x and -(-x) is x
    if not x.is_zero():
        assert x * x.inv() is fld.one
    assert (x + y).frob(1) is x.frob(1) + y.frob(1)
    assert (x * y).frob(1) is x.frob(1) * y.frob(1)
    # an equal but distinct field computes the same values, and so does
    # coefficient arithmetic mod p
    twin = LAW_TWINS[q]
    tx, ty = twin.elem(list(x.coeffs)), twin.elem(list(y.coeffs))
    assert (tx * ty, tx + ty, tx - ty, -tx, tx.frob(1)) == (
        x * y, x + y, x - y, -x, x.frob(1)
    )
    assert (x * y).coeffs == tuple(fld._mul_coeffs(x.coeffs, y.coeffs))
    assert (x + y).coeffs == tuple((a + b) % fld.p for a, b in zip(x.coeffs, y.coeffs))
    assert x.frob(1).coeffs == _coeff_pow(fld, x.coeffs, fld.p)
    assert twin._tables is None


COEFF_LAW_FIELDS = {
    3: Field(3, 1, [0, 1]),
    9: Field(3, 2, [1, 0, 1]),
    25: Field(5, 2, [2, 0, 1]),
    3**5: Field(*F_243),
    67**2: Field(67, 2, [65, 0, 1]),  # an O(q) table but no dense lists
    3**8: Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1]),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COEFF_LAW_FIELDS)).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(0, q - 1), st.integers(0, q - 1), st.integers(0, 7)
)))
def test_every_op_equals_coefficient_arithmetic(args):
    q, i, j, e = args
    fld = COEFF_LAW_FIELDS[q]
    p = fld.p
    x, y = fld.from_index(i), fld.from_index(j)
    assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
    assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
    assert (-x).coeffs == tuple(-a % p for a in x.coeffs)
    assert (x * y).coeffs == tuple(fld._mul_coeffs(x.coeffs, y.coeffs))
    if j:
        assert y.inv().coeffs == _coeff_pow(fld, y.coeffs, q - 2)
    assert x.frob(e).coeffs == _coeff_pow(fld, x.coeffs, p ** (e % fld.m))
    assert fld.frob_table(e)[i] == fld.frob_pow(x, e).idx
    assert (fld.half * fld.elem(2)).coeffs == fld.one.coeffs
    assert q > TABLE_LIMIT or fld._tables is None


class TestOneArithmetic:
    @pytest.mark.parametrize("spec", KERNEL_SPECS + [F_243])
    def test_results_do_not_depend_on_call_history(self, spec):
        fld = Field(*spec)
        rng = random.Random(fld.q)
        pairs = [(rng.randrange(fld.q), rng.randrange(1, fld.q)) for _ in range(200)]

        def results():
            out = []
            for i, j in pairs:
                x, y = fld.from_index(i), fld.from_index(j)
                out += [x + y, x - y, x * y, -x, y.inv(), x.frob(1), fld.frob_pow(x, 2)]
            return out + [fld.half] + fld.fixed_subfield(1)

        before = results()
        assert fld._tables is None
        fld.tables()
        after = results()
        assert all(a is b for a, b in zip(before, after)) and len(before) == len(after)
        assert all(r is fld.from_index(r.idx) for r in after)

    def test_arithmetic_past_the_enumeration_limit_is_refused(self):
        fld = Field(3, 11, [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1])  # q = 177147
        assert fld.q > ENUMERATION_LIMIT
        x = elem_from_string(fld, "[1,2]")
        assert str(x) == "[1,2,0,0,0,0,0,0,0,0,0]" and x.idx == 5 * 3**9
        assert fld.index_text(x.idx) == str(x)
        for op in (
            lambda: x + x, lambda: x - x, lambda: x * x, lambda: -x, lambda: x.inv(),
            lambda: x.frob(1), lambda: fld.from_index(1), lambda: fld.frob_table(1),
            lambda: fld.fixed_subfield(1), lambda: fld.half,
        ):
            with pytest.raises(EnumerationTooLarge):
                op()
        assert fld._log is None

    @pytest.mark.parametrize("spec", [(3, 6, [1, 0, 0, 0, 1, 1, 1]), (3, 10, None)])
    def test_generator_is_the_first_of_full_order(self, spec):
        from skewcyclic.oracle import default_modulus

        p, m, mod = spec
        fld = Field(p, m, mod or default_modulus(p, m))
        t, n = fld.log_table(), fld.q - 1
        coeffs = itertools.product(range(p), repeat=m)
        full_order = [
            k for k, c in zip(range(1, t.gen + 1), itertools.islice(coeffs, 1, None))
            if all(_coeff_pow(fld, c, n // r) != fld.one.coeffs for r in _prime_factors(n))
        ]
        assert full_order == [t.gen]
        assert len(t.exp) == 4 * n + 1 and len(t.zech) == 2 * n and t.log[0] == 2 * n


def _prime_factors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]


_ODD_PRIMES = (3, 5, 7, 11, 13)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(_ODD_PRIMES), m=st.integers(1, 4))
def test_field_spec_text_roundtrip(p, m):
    from skewcyclic.oracle import default_modulus

    fld = Field(p, m, default_modulus(p, m))
    mod = ",".join(map(str, fld.modulus))
    assert field_from_string(f"p={p},m={m},mod={mod}") == fld
