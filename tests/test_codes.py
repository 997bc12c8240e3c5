import functools
import itertools
import math
import random

import pytest
from conftest import evaluated, stored
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic import codes
from skewcyclic.codes import (
    ComponentCode,
    HypothesisViolated,
    LengthMismatch,
    MinDistance,
    NotCoprime,
    NotMonic,
    NotRightDivisor,
    census,
    code_from_components,
    code_to_json,
    component_code_new,
    count_skew_cyclic_codes,
    skew_shift,
)
from skewcyclic.finite_field import EnumerationTooLarge, Field, FieldMismatch, Subfield
from skewcyclic.oracle import broken_component_code, default_modulus
from skewcyclic.oracle import _combine
from skewcyclic.ring_r import RingElem, gray_map, make_idempotents, ring_elem, ring_one
from skewcyclic.skew_poly import (
    AutMismatch,
    SkewPoly,
    SkewPolyError,
    brute_right_divisors,
    mod_xn_minus_1,
    monic_right_divisors,
    poly_from_string,
    project_components,
    right_divide,
    ring_coeffs_from_string,
    ring_skew_poly_combine,
    skew_mul,
    xn_minus_1,
)
from skewcyclic import linalg


@pytest.fixture(scope="module")
def xw_code(f9):
    """The self-dual length-2 component generated by x - w."""
    return component_code_new(2, poly_from_string("x-[0,1]", f9, 1))


class TestComponentConstruction:
    def test_full_space(self, f9):
        c = component_code_new(4, SkewPoly.one(f9, 1))
        assert c.dim == 4 and c.size == 9**4

    def test_zero_code(self, f9):
        c = component_code_new(4, xn_minus_1(f9, 1, 4))
        assert c.dim == 0 and c.size == 1 and c.is_zero_code()

    def test_worked_example(self, f9, xw_code):
        assert xw_code.dim == 1
        assert xw_code.h == poly_from_string("[0,2]+x", f9, 1)

    def test_not_monic_rejected(self, f9):
        with pytest.raises(NotMonic):
            component_code_new(2, poly_from_string("2x+1", f9, 1))
        with pytest.raises(NotMonic):
            component_code_new(2, SkewPoly.zero(f9, 1))

    def test_not_divisor_rejected(self, f9):
        with pytest.raises(NotRightDivisor):
            component_code_new(3, poly_from_string("x-[0,1]", f9, 1))

    def test_constructor_rejects_non_divisor(self, f9):
        with pytest.raises(NotRightDivisor):
            ComponentCode(3, poly_from_string("x-[0,1]", f9, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cofactor_invariant(self, f9, n):
        for g in monic_right_divisors(n, f9, 1):
            c = ComponentCode(n, g)
            assert skew_mul(c.h, c.g) == xn_minus_1(f9, 1, n)


def _gray_mapped_rows(code):
    return [gray_map(row) for row in code.generator_rows()]


class TestSplitNativeConstruction:
    """Gray rows placed from component rows equal gray_map of the R rows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_gray_rows_f9_census(self, f9, n):
        for code in census(n, f9, 1):
            rows = code.gray_generator_rows()
            assert all(type(r) is tuple for r in rows)
            assert rows == _gray_mapped_rows(code)

    def test_gray_rows_f9_n4_sample(self, f9):
        comps = [component_code_new(4, g) for g in monic_right_divisors(4, f9, 1)]
        rng = random.Random(4)
        for _ in range(2000):
            code = code_from_components(*(rng.choice(comps) for _ in range(3)))
            assert code.gray_generator_rows() == _gray_mapped_rows(code)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("i", [1, 2])
    def test_gray_rows_f25_census(self, f25, n, i):
        for code in census(n, f25, i):
            assert code.gray_generator_rows() == _gray_mapped_rows(code)

    def test_combined_cofactor_over_r(self, f9):
        codes = census(5, f9, 1)
        assert len(codes) == 64
        # the oracle's eta-combinations of the cofactors and the generators,
        # in its evaluation coordinates, are production's; those coordinates
        # multiply slot by slot, where h_t * g_t = x^5 - 1
        for code in codes:
            h = _combine([c.h for c in code.components], f9)
            g = _combine([c.g for c in code.components], f9)
            combined_h = ring_skew_poly_combine(*(c.h for c in code.components))
            assert evaluated(h, f9) == stored(combined_h)
            assert evaluated(g, f9) == stored(_combined(code))
            for c in code.components:
                assert skew_mul(c.h, c.g) == xn_minus_1(f9, 1, 5)


def _recording(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call as (args, result)."""
    original, calls = getattr(owner, name), []

    def counted(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, counted)
    return calls


def _combined(code):
    """The combined generator's coefficients, as the CLI formats them."""
    return ring_skew_poly_combine(*(c.g for c in code.components))


class TestComponentEquality:
    """Equality and hashing from (n, aut, g1, g2, g3) agree with equality
    of the combined generators."""

    def test_agrees_with_combined_generators_on_census(self, f9):
        built = census(3, f9, 1)
        pairs = 0
        for a in built:
            for b in built:
                assert (a == b) == (_combined(a) == _combined(b))
                if a == b:
                    assert hash(a) == hash(b)
                pairs += 1
        assert pairs == 4096 and len(set(built)) == 64

    def test_equal_but_distinct_fields(self, f9):
        twin = Field(3, 2, [1, 0, 1])
        assert twin is not f9 and twin == f9
        ours, theirs = census(3, f9, 1), census(3, twin, 1)
        for a, b in zip(ours, theirs):
            assert a.field is not b.field
            assert a == b and hash(a) == hash(b)
            assert _combined(a) == _combined(b)
        assert set(ours) == set(theirs) and len(set(ours + theirs)) == 64
        assert ours[1] != theirs[2] and _combined(ours[1]) != _combined(theirs[2])


class TestGeneratorRows:
    def test_full_code_rows_are_identity(self, f9):
        c = component_code_new(2, SkewPoly.one(f9, 1))
        assert c.generator_rows() == [
            (f9.one, f9.zero),
            (f9.zero, f9.one),
        ]

    def test_single_row_example(self, f9, xw_code):
        assert xw_code.generator_rows() == [(-f9.gen, f9.one)]

    def test_rows_match_x_powers(self, f9):
        g = poly_from_string("x-1", f9, 1)
        c = component_code_new(5, g)
        for j, row in enumerate(c.generator_rows()):
            xj = SkewPoly(f9, [0] * j + [f9.one.idx], 1)
            prod = mod_xn_minus_1(skew_mul(xj, g), 5)
            assert [x.idx for x in row] == prod.padded(5)

    @pytest.mark.parametrize("fixture, n", [("f9", 1), ("f9", 2), ("f9", 3), ("f25", 1), ("f25", 2)])
    def test_rows_over_r_equal_the_scale_field_reference(self, request, fixture, n):
        fld = request.getfixturevalue(fixture)
        etas = make_idempotents(fld)
        for code in census(n, fld, 1):
            rows = code.generator_rows()
            assert all(type(r) is tuple for r in rows)
            assert rows == [
                tuple(eta.scale_field(x) for x in row)
                for eta, comp in zip(etas, code.components)
                for row in comp.generator_rows()
            ]

    def test_gray_rank_counts_dimension(self, f9, xw_code):
        code = code_from_components(xw_code, xw_code, xw_code)
        rows = linalg.to_index_rows(code.gray_generator_rows(), f9)
        assert linalg.rank(rows, f9) == code.dim == 3


class TestMembership:
    def test_zero_word_always_member(self, f9, xw_code):
        assert xw_code.contains((f9.zero, f9.zero))

    def test_generator_is_member(self, f9, xw_code):
        assert xw_code.contains((-f9.gen, f9.one))

    def test_rejection_example(self, f9, xw_code):
        # w + x leaves remainder 2w on division by x - w
        assert not xw_code.contains((f9.gen, f9.one))

    def test_left_multiples_are_members(self, f9):
        rng = random.Random(30)
        g = poly_from_string("x-1", f9, 1)
        c = component_code_new(5, g)
        for _ in range(100):
            deg = rng.randrange(6)
            m = SkewPoly(f9, [rng.randrange(f9.q) for _ in range(deg + 1)], 1)
            word = mod_xn_minus_1(skew_mul(m, g), 5)
            assert c.contains(tuple(map(f9.from_index, word.padded(5))))

    def test_length_mismatch(self, f9, xw_code):
        with pytest.raises(LengthMismatch):
            xw_code.contains((f9.zero,))


# ---------------------------------------------------------------------------
# linear membership: contains(w) is the zero test of w's right remainder by g

_F9 = Field(3, 2, [1, 0, 1])
_F25 = Field(5, 2, [2, 0, 1])
_F27 = Field(3, 3, [1, 2, 0, 1])
_F81 = Field(3, 4, [2, 0, 0, 1, 1])
KERNEL_FAMILIES = {
    "F9-i1-n4": (_F9, 1, 4),
    "F9-i1-n5": (_F9, 1, 5),
    "F25-i1-n4": (_F25, 1, 4),
    "F27-i1-n2": (_F27, 1, 2),
    "F27-i1-n4": (_F27, 1, 4),
    "F81-i1-n3": (_F81, 1, 3),
    "F81-i2-n5": (_F81, 2, 5),
}


@functools.lru_cache(maxsize=None)
def _kernel_components(name):
    """Every divisor's code of the family, then the oracle's broken component."""
    fld, i, n = KERNEL_FAMILIES[name]
    comps = [component_code_new(n, g) for g in monic_right_divisors(n, fld, i)]
    return comps + [broken_component_code(fld, i, n)]


def _remainder_is_zero(comp, word) -> bool:
    poly = SkewPoly(comp.field, [x.idx for x in word], comp.aut)
    return right_divide(poly, comp.g).remainder.is_zero()


def _draw_word(data, comp):
    """A uniform word, or a random F_q-combination of the generator rows."""
    fld, n = comp.field, comp.n
    coeff = st.integers(0, fld.q - 1).map(fld.from_index)
    if data.draw(st.booleans()):
        return tuple(data.draw(st.lists(coeff, min_size=n, max_size=n)))
    word = [fld.zero] * n
    for row in comp.generator_rows():
        c = data.draw(coeff)
        word = [w + c * x for w, x in zip(word, row)]
    return tuple(word)


@pytest.mark.parametrize("name", sorted(KERNEL_FAMILIES))
class TestLinearMembership:
    def test_families_hold_both_extreme_divisors(self, name):
        fld, i, n = KERNEL_FAMILIES[name]
        gs = [c.g for c in _kernel_components(name)]
        assert SkewPoly.one(fld, i) in gs and xn_minus_1(fld, i, n) in gs

    def test_remainder_columns_are_the_divided_remainders(self, name):
        for comp in _kernel_components(name):
            d, log, one = comp.g.degree, comp.field.log_table().log, comp.field.one.idx
            rems = [
                right_divide(SkewPoly(comp.field, [0] * t + [one], comp.aut), comp.g).remainder
                for t in range(d, comp.n)
            ]
            expected = tuple(tuple(log[r.coeff(k)] for r in rems) for k in range(d))
            assert comp._remainder_columns() == expected

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_contains_is_zero_remainder(self, name, data):
        for comp in _kernel_components(name):
            word = _draw_word(data, comp)
            expected = _remainder_is_zero(comp, word)
            assert comp.contains(word) is expected
            assert comp.contains(list(word)) is expected


class TestLinearMembershipKernel:
    def test_a_family_has_generators_that_theta_moves(self):
        # gcd(n, t_i) = 2: a remainder recurrence without the twist differs
        fld, i, _ = KERNEL_FAMILIES["F9-i1-n4"]
        frob = fld.frob_table(i)
        moved = [c for c in _kernel_components("F9-i1-n4") if any(frob[x] != x for x in c.g.coeffs)]
        assert moved

    def test_field_past_table_limit(self):
        fld = Field(3, 8, default_modulus(3, 8))
        assert fld.q == 6561
        rng = random.Random(6561)
        answers = set()
        for g in monic_right_divisors(5, fld, 4):
            comp = component_code_new(5, g)
            uniform = tuple(fld.from_index(rng.randrange(fld.q)) for _ in range(5))
            encoded = [fld.zero] * 5
            for row in comp.generator_rows():
                c = fld.from_index(rng.randrange(fld.q))
                encoded = [w + c * x for w, x in zip(encoded, row)]
            for word in (uniform, tuple(encoded)):
                expected = _remainder_is_zero(comp, word)
                assert comp.contains(word) is expected
                answers.add(expected)
        assert answers == {True, False}
        assert fld._tables is None

    def test_length_mismatch(self, f9):
        for comp in _kernel_components("F9-i1-n5"):
            for word in ((f9.zero,) * 4, (f9.zero,) * 6):
                with pytest.raises(LengthMismatch):
                    comp.contains(word)

    def test_word_over_another_field(self, f25):
        foreign = [
            (f25.zero,) * 5,  # all zero: no arithmetic would catch it
            (f25.one,) + (f25.zero,) * 4,
            (0, 0, 0, 0, 0),
        ]
        for comp in _kernel_components("F9-i1-n5"):
            for word in foreign:
                with pytest.raises(FieldMismatch):
                    comp.contains(word)

    def test_ring_word_over_another_field(self, f9, f25):
        code = census(5, f9, 1)[0]
        zero25 = RingElem(f25.zero, f25.zero, f25.zero)
        for word in ((zero25,) * 5, (f9.zero,) * 5):
            with pytest.raises(FieldMismatch):
                code.contains(word)

    def test_ring_code_matches_gray_span(self, f9):
        rng = random.Random(93)
        elems = f9.elements()
        for code in census(3, f9, 1):
            rows = linalg.to_index_rows(_gray_mapped_rows(code), f9)
            rank = linalg.rank(rows, f9)
            encoded = [RingElem(f9.zero, f9.zero, f9.zero)] * 3
            for row in code.generator_rows():
                c = RingElem(*(rng.choice(elems) for _ in range(3)))
                encoded = [w + c * x for w, x in zip(encoded, row)]
            uniform = [RingElem(*(rng.choice(elems) for _ in range(3))) for _ in range(3)]
            for word in (tuple(encoded), tuple(uniform)):
                image = linalg.to_index_rows([gray_map(word)], f9)
                expected = linalg.rank(rows + image, f9) == rank
                assert code.contains(word) is expected

    def test_remainders_filled_on_first_use_without_division(self, f9, monkeypatch):
        divisions = _recording(monkeypatch, codes, "right_divide")
        twists = _recording(monkeypatch, Field, "frob_table")
        divisors = monic_right_divisors(5, f9, 1)
        comps = [component_code_new(5, g) for g in divisors]
        all_codes = census(5, f9, 1)
        # construction divides only for the cofactors, never for remainders
        assert len(divisions) == 2 * len(divisors)
        assert all(c._remainder_cols is None for c in comps)
        zero = (f9.zero,) * 5
        for comp in comps:
            rows = comp.generator_rows()
            divisions.clear()
            comp.contains(zero)
            cols = comp._remainder_cols
            assert cols is not None and divisions == []
            twists.clear()
            for row in rows:
                comp.contains(row)
            comp.contains((f9.zero,) * 4 + (f9.one,))
            assert comp._remainder_cols is cols
            assert divisions == [] and twists == []
        code = all_codes[-1]
        ring_zero = (RingElem(f9.zero, f9.zero, f9.zero),) * 5
        assert all(c._remainder_cols is None for c in code.components)
        assert code.contains(ring_zero) and divisions == []
        filled = [c._remainder_cols for c in code.components]
        assert None not in filled
        twists.clear()
        assert code.contains(ring_zero) and divisions == [] and twists == []
        assert all(c._remainder_cols is memo for c, memo in zip(code.components, filled))

    def test_foreign_last_coordinate_raises_before_any_component(self, f9, f25, monkeypatch):
        calls = _recording(monkeypatch, ComponentCode, "_contains_indices")
        one9, zero9 = (RingElem(x, f9.zero, f9.zero) for x in (f9.one, f9.zero))
        # C1 = <x - 1> rejects the head of ones; the check must come first
        code = code_from_components(*_kernel_components("F9-i1-n5")[1:4])
        for last in (RingElem(f25.zero, f25.zero, f25.zero), f9.zero, 0):
            for head in (one9, zero9):
                with pytest.raises(FieldMismatch):
                    code.contains((head,) * 4 + (last,))
        for comp in code.components:
            for last in (f25.zero, RingElem(f9.zero, f9.zero, f9.zero), 0):
                with pytest.raises(FieldMismatch):
                    comp.contains((f9.one,) * 4 + (last,))
        assert calls == []


_R_FAMILIES = ("F9-i1-n5", "F25-i1-n4", "F27-i1-n4", "F81-i2-n5")


@pytest.mark.parametrize("name", _R_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_code_contains_is_gray_span_membership(name, data):
    """contains over R is membership of the Gray image in the span of the
    Gray rows, for uniform words and for F_q-combinations of the rows over R."""
    comps = _kernel_components(name)
    code = code_from_components(*(data.draw(st.sampled_from(comps)) for _ in range(3)))
    fld, n = code.field, code.n
    coord = st.integers(0, fld.q - 1).map(fld.from_index)
    elem = st.tuples(coord, coord, coord).map(lambda abc: RingElem(*abc))
    if data.draw(st.booleans()):
        word = tuple(data.draw(st.lists(elem, min_size=n, max_size=n)))
    else:
        word = [RingElem(fld.zero, fld.zero, fld.zero)] * n
        for row in code.generator_rows():
            c = data.draw(elem)
            word = [w + c * x for w, x in zip(word, row)]
        word = tuple(word)
    rows = linalg.to_index_rows(_gray_mapped_rows(code), fld)
    image = linalg.to_index_rows([gray_map(word)], fld)
    expected = linalg.rank(rows + image, fld) == linalg.rank(rows, fld)
    assert code.contains(word) is expected


class TestSkewShift:
    def test_zero_fixed(self, f9):
        word = (f9.zero,) * 4
        assert skew_shift(word, 1) == word

    def test_example(self, f9):
        assert skew_shift((f9.gen, f9.zero), 1) == (f9.zero, f9.elem([0, 2]))

    def test_order_n_times_ti(self, f9):
        rng = random.Random(31)
        for n in (2, 3):
            word = tuple(rng.choice(f9.elements()) for _ in range(n))
            out = word
            for _ in range(n * 2):  # t_1 = 2
                out = skew_shift(out, 1)
            assert out == word

    def test_codes_closed_under_shift(self, f9):
        g = poly_from_string("x-1", f9, 1)
        c = component_code_new(5, g)
        rng = random.Random(32)
        for _ in range(50):
            m = SkewPoly(f9, [rng.randrange(f9.q) for _ in range(5)], 1)
            word = tuple(map(f9.from_index, mod_xn_minus_1(skew_mul(m, g), 5).padded(5)))
            assert c.contains(skew_shift(word, 1))

    def test_ring_word_shift(self, f9):
        w = f9.gen
        word = (RingElem(w, f9.zero, w), ring_elem(f9, 0))
        shifted = skew_shift(word, 1)
        tw = f9.elem([0, 2])
        assert shifted == (ring_elem(f9, 0), RingElem(tw, f9.zero, tw))


class TestDual:
    def test_dual_of_full_is_zero(self, f9):
        c = component_code_new(3, SkewPoly.one(f9, 1))
        assert c.dual().is_zero_code()

    @pytest.mark.parametrize(
        "fld, aut, n",
        [((3, 2, [1, 0, 1]), 1, n) for n in range(1, 6)]
        + [((3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1]), 4, 5)],
        ids=[f"F9-n{n}" for n in range(1, 6)] + ["F3^8-aut4-n5"],
    )
    def test_dual_of_zero_is_full(self, fld, aut, n):
        # g = x^n - 1 has cofactor h = 1, whose reciprocal is 1 (n - deg g = 0)
        fld = Field(*fld)
        c = component_code_new(n, xn_minus_1(fld, aut, n))
        assert c.reciprocal_cofactor() == SkewPoly.one(fld, aut)
        assert c.dual() == component_code_new(n, SkewPoly.one(fld, aut))

    def test_reciprocal_cofactor_example(self, f9, xw_code):
        # h = x + 2w gives h~ = 1 + wx, monic normalization x + 2w = x - w
        assert xw_code.reciprocal_cofactor() == poly_from_string(
            "1 + [0,1]*x", f9, 1
        )
        assert xw_code.dual() == xw_code

    def test_generator_rows_orthogonal(self, f9, xw_code):
        dual = xw_code.dual()
        for row in xw_code.generator_rows():
            for drow in dual.generator_rows():
                acc = f9.zero
                for a, b in zip(row, drow):
                    acc = acc + a * b
                assert acc.is_zero()

    def test_double_dual_identity_over_census(self, f9):
        for code in census(2, f9, 1):
            assert code.dual().dual() == code

    def test_dual_dims_complement(self, f9):
        for g in ("x-1", "1", "x^2+x+1"):
            c = component_code_new(3, poly_from_string(g, f9, 1))
            assert c.dim + c.dual().dim == 3


def _from_combined(coeffs, field, n):
    """The code of a combined generator, split as the CLI splits --g."""
    gs = project_components(coeffs, field, 1)
    return code_from_components(*(component_code_new(n, g) for g in gs))


class TestRingCodeConstruction:
    def test_three_zero_codes(self, f9):
        z = component_code_new(2, xn_minus_1(f9, 1, 2))
        code = code_from_components(z, z, z)
        assert code.is_zero_code() and code.size == 1

    def test_three_full_codes(self, f9):
        full = component_code_new(2, SkewPoly.one(f9, 1))
        code = code_from_components(full, full, full)
        assert code.size == 9**6
        assert _combined(code) == (ring_one(f9),)

    def test_cardinality_formula(self, f9):
        one = SkewPoly.one(f9, 1)
        c1 = component_code_new(5, poly_from_string("x-1", f9, 1))
        c2 = component_code_new(5, one)
        code = code_from_components(c1, c2, c2)
        assert code.size == 9**14

    def test_length_mismatch(self, f9):
        a = component_code_new(2, SkewPoly.one(f9, 1))
        b = component_code_new(3, SkewPoly.one(f9, 1))
        with pytest.raises(LengthMismatch):
            code_from_components(a, b, b)

    def test_aut_mismatch(self, f9):
        a = component_code_new(2, SkewPoly.one(f9, 1))
        b = component_code_new(2, SkewPoly.one(f9, 2))
        with pytest.raises(AutMismatch):
            code_from_components(a, b, b)

    def test_field_mismatch(self, f9, f25):
        a = component_code_new(2, SkewPoly.one(f9, 1))
        b = component_code_new(2, SkewPoly.one(f25, 1))
        with pytest.raises(FieldMismatch, match="component fields differ"):
            code_from_components(a, b, a)

    def test_from_combined_roundtrip(self, f9):
        c1 = component_code_new(5, poly_from_string("x-1", f9, 1))
        c2 = component_code_new(5, SkewPoly.one(f9, 1))
        code = code_from_components(c1, c2, c2)
        again = _from_combined(_combined(code), f9, 5)
        assert again == code

    def test_from_combined_rejects_non_divisor(self, f9):
        bad = ring_coeffs_from_string("[0,1]|[0,0]|[0,0] + x", f9)  # x + w
        with pytest.raises(NotRightDivisor):
            _from_combined(bad, f9, 3)

    def test_decompose_roundtrip(self, f9):
        # Decomposition of a code over R is the component split of its
        # combined generator: recovering the components from it
        # must give them back exactly and rebuild the same code.
        comps = [
            component_code_new(5, poly_from_string(s, f9, 1))
            for s in ("x-1", "1", "1+x+x^2+x^3+x^4")
        ]
        code = code_from_components(*comps)
        parts = _from_combined(_combined(code), f9, code.n).components
        assert parts == tuple(comps)
        assert code_from_components(*parts) == code

    def test_membership_componentwise(self, f9, xw_code):
        full = component_code_new(2, SkewPoly.one(f9, 1))
        code = code_from_components(xw_code, full, full)
        for row in code.generator_rows():
            assert code.contains(row)
        # eta1 * (w, 1): first splitting coordinate is (w, 1), not a multiple
        # of (-w, 1)
        eta1 = make_idempotents(code.field).eta1
        bad = tuple(eta1 * x for x in (RingElem(f9.gen, f9.zero, f9.zero),
                                       RingElem(f9.one, f9.zero, f9.zero)))
        assert not code.contains(bad)


class TestSelfDual:
    def test_full_code_not_self_dual(self, f9):
        full = component_code_new(2, SkewPoly.one(f9, 1))
        code = code_from_components(full, full, full)
        assert not all(c == c.dual() for c in code.components)

    def test_dimension_obstruction(self, f9):
        c1 = component_code_new(2, poly_from_string("x-1", f9, 1))
        full = component_code_new(2, SkewPoly.one(f9, 1))
        code = code_from_components(c1, c1, full)
        assert 2 * code.dim != 3 * 2 * 3
        assert not all(c == c.dual() for c in code.components)

    def test_self_dual_witness(self, f9, xw_code):
        code = code_from_components(xw_code, xw_code, xw_code)
        assert all(c == c.dual() for c in code.components)
        assert code.dual() == code


class TestIdempotents:
    def test_full_code_idempotent_is_one(self, f9):
        c = component_code_new(5, SkewPoly.one(f9, 1))
        assert c.idempotent_generator() == SkewPoly.one(f9, 1)

    def test_zero_code_idempotent_is_zero(self, f9):
        c = component_code_new(5, xn_minus_1(f9, 1, 5))
        assert c.idempotent_generator().is_zero()

    def test_worked_example_n5(self, f9):
        c = component_code_new(5, poly_from_string("x-1", f9, 1))
        e = c.idempotent_generator()
        assert e == poly_from_string("2+x+x^2+x^3+x^4", f9, 1)
        assert mod_xn_minus_1(skew_mul(e, e), 5) == e

    def test_hypothesis_gate(self, f9):
        c = component_code_new(3, poly_from_string("x-1", f9, 1))
        with pytest.raises(HypothesisViolated):
            c.idempotent_generator()  # gcd(3, 9) = 3

    @staticmethod
    def _certify(comp, e):
        """<e> = <g> with e idempotent, by the skew kernels: e*e = e and
        e*g = g mod x^n - 1, and g right-divides e."""
        n, g = comp.n, comp.g
        assert mod_xn_minus_1(skew_mul(e, e), n) == e
        assert right_divide(e, g).remainder.is_zero()
        assert mod_xn_minus_1(skew_mul(e, g), n) == mod_xn_minus_1(g, n)

    @pytest.mark.parametrize(
        "fld,n", [(_F9, 5), (_F9, 7), (_F25, 7)], ids=["F9-n5", "F9-n7", "F25-n7"]
    )
    def test_census_idempotents_read_no_dense_table(self, monkeypatch, fld, n):
        def refuse(self):
            raise AssertionError("dense tables on the idempotent path")

        monkeypatch.setattr(Field, "tables", refuse)
        comps = [component_code_new(n, g) for g in monic_right_divisors(n, fld, 1)]
        assert len(comps) == count_skew_cyclic_codes(n, fld, 1)[0]
        for comp in comps:
            self._certify(comp, comp.idempotent_generator())

    @pytest.mark.parametrize("aut", [1, 4])
    def test_idempotent_past_the_table_limit(self, aut):
        fld = Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1])
        comp = component_code_new(5, poly_from_string("x-1", fld, aut))
        e = comp.idempotent_generator()
        assert e == poly_from_string("2+x+x^2+x^3+x^4", fld, aut)
        self._certify(comp, e)
        assert fld._tables is None

    def test_combined_idempotent(self, f9):
        comps = [
            component_code_new(5, poly_from_string(s, f9, 1))
            for s in ("x-1", "1", "1")
        ]
        code = code_from_components(*comps)
        e1, e2, e3 = code.idempotent_generator()
        e = _combine([e1, e2, e3], f9)
        assert evaluated(e, f9) == stored(ring_skew_poly_combine(e1, e2, e3))
        for e_t in (e1, e2, e3):
            assert mod_xn_minus_1(skew_mul(e_t, e_t), 5) == mod_xn_minus_1(e_t, 5)
        assert e1 == comps[0].idempotent_generator()
        assert e2 == SkewPoly.one(f9, 1)
        assert e3 == SkewPoly.one(f9, 1)


class TestDerivedCodeMemos:
    @pytest.mark.parametrize("g", ["x-1", "1", "1+x+x^2+x^3+x^4", "x^5-1"])
    def test_component_dual_built_once(self, f9, g):
        c = component_code_new(5, poly_from_string(g, f9, 1))
        dual = c.dual()
        assert c.dual() is dual
        # the dual's own memo starts empty: the double dual is rebuilt
        double = dual.dual()
        assert double is not c and double == c
        assert dual.dual() is double

    def test_ring_code_dual_built_once(self, f9):
        comps = [
            component_code_new(5, poly_from_string(s, f9, 1))
            for s in ("x-1", "1", "x^5-1")
        ]
        code = code_from_components(*comps)
        dual = code.dual()
        assert code.dual() is dual
        assert all(d is c.dual() for d, c in zip(dual.components, comps))
        double = dual.dual()
        assert double is not code and double == code

    def test_generator_rows_are_fresh_lists(self, f9, xw_code):
        full = component_code_new(2, SkewPoly.one(f9, 1))
        code = code_from_components(xw_code, full, full)
        first, second = code.generator_rows(), code.generator_rows()
        assert first == second and first is not second
        first.append(first[0])
        first[0] = None
        assert code.generator_rows() == second
        assert len(second) == code.dim

    def test_codes_sharing_a_slot_share_its_rows_but_not_their_lists(self, f9):
        comps = [component_code_new(4, g) for g in monic_right_divisors(4, f9, 1)]
        nonzero = [c for c in comps if c.dim]
        shared = next(c for c in nonzero if c.dim < 4)
        a = code_from_components(nonzero[0], shared, nonzero[1])
        b = code_from_components(nonzero[2], shared, nonzero[3])
        ka, kb = a.c1.dim, b.c1.dim
        for name in ("generator_rows", "gray_generator_rows"):
            ra, rb = getattr(a, name)(), getattr(b, name)()
            assert ra[ka : ka + shared.dim] == rb[kb : kb + shared.dim]
            kept_a, kept_b = list(ra), list(rb)
            ra[ka] = None
            ra.append(None)
            assert getattr(b, name)() == kept_b
            assert getattr(a, name)() == kept_a

    @pytest.mark.parametrize("g", ["x-1", "1", "1+x+x^2+x^3+x^4", "x^5-1"])
    def test_component_rows_twisted_once(self, f9, monkeypatch, g):
        c = component_code_new(5, poly_from_string(g, f9, 1))
        calls = _recording(monkeypatch, Field, "frob_table")
        first, second = c.generator_rows(), c.generator_rows()
        assert first == second and first is not second
        first.insert(0, None)
        assert c.generator_rows() == second and len(second) == c.dim
        assert len(calls) == c.dim

    def test_idempotent_kept_after_checks(self, f9):
        c = component_code_new(5, poly_from_string("x-1", f9, 1))
        e = c.idempotent_generator()
        assert c._idempotent is e and c.idempotent_generator() is e

    def test_failed_idempotent_caches_nothing(self, f9, monkeypatch):
        gated = component_code_new(3, poly_from_string("x-1", f9, 1))
        broken = broken_component_code(f9, 1, 5)
        for _ in range(2):
            with pytest.raises(HypothesisViolated):
                gated.idempotent_generator()  # gcd(3, 9) = 3
            with pytest.raises((NotCoprime, AssertionError)):
                broken.idempotent_generator()
        assert gated._idempotent is None and broken._idempotent is None
        c = component_code_new(5, poly_from_string("x-1", f9, 1))
        with monkeypatch.context() as m:  # the lane's gcd(e, x^n - 1) is no longer g
            m.setattr(Subfield, "gcd", lambda self, f, g: [self.one])
            for _ in range(2):
                with pytest.raises(AssertionError, match="generate"):
                    c.idempotent_generator()
        assert c._idempotent is None
        assert c.idempotent_generator() == poly_from_string("2+x+x^2+x^3+x^4", f9, 1)


class TestCensus:
    @pytest.mark.parametrize(
        "n,expected", [(1, (2, 8)), (3, (4, 64)), (5, (4, 64)), (7, (4, 64))]
    )
    def test_count_formula(self, f9, n, expected):
        assert count_skew_cyclic_codes(n, f9, 1) == expected

    @pytest.mark.parametrize(
        "fld,i,n",
        [("f9", 1, n) for n in (1, 3, 5, 7)]
        + [("f9", 2, n) for n in (2, 3, 4, 6)]
        + [("f3", 1, n) for n in (3, 6, 9)]
        # t_i | n and p does not divide n/t_i: the Gaussian-binomial count
        + [("f9", 1, 2), ("f9", 1, 4), ("f25", 1, 4), ("f27", 1, 3)],
    )
    def test_count_formula_matches_brute_divisors(self, request, fld, i, n):
        fld = request.getfixturevalue(fld)
        brute = len(brute_right_divisors(n, fld, i))
        assert count_skew_cyclic_codes(n, fld, i) == (brute, brute**3)

    def test_count_refuses_a_huge_length_before_any_coset(self, f9, monkeypatch):
        def refuse(*args):
            pytest.fail("a coset table was built")

        monkeypatch.setattr(codes, "_cyclotomic_cosets", refuse)
        with pytest.raises(EnumerationTooLarge, match="n' = 100000000000"):
            count_skew_cyclic_codes(10**11, f9, 2)
        with pytest.raises(SkewPolyError, match="n >= 1"):
            count_skew_cyclic_codes(0, Field(3, 1, [0, 1]), 1)

    def test_count_hypothesis_gate(self, f9):
        # gcd(6, t_1) = 2 with p = 3 dividing n/t_1 = 3: no count
        with pytest.raises(HypothesisViolated):
            count_skew_cyclic_codes(6, f9, 1)
        # gcd(2, t_1) = 2 with t_1 = 4 not dividing n = 2: no count
        with pytest.raises(HypothesisViolated):
            count_skew_cyclic_codes(2, Field(3, 4, (1, 0, 1, 1, 1)), 1)

    def test_census_n1(self, f9):
        codes = census(1, f9, 1)
        assert len(codes) == 8
        assert len(set(codes)) == 8

    def test_census_n2_brute_force_only(self, f9):
        # gcd(2, t) = 2: the formula does not apply but the search does
        codes = census(2, f9, 1)
        assert len(codes) == 216

    def test_census_deterministic(self, f9):
        a = [code_to_json(c) for c in census(1, f9, 1)]
        b = [code_to_json(c) for c in census(1, f9, 1)]
        assert a == b

    def test_census_past_its_bound_is_refused_before_anything_is_factored(self, f9, monkeypatch):
        # gcd(65, t_1) = 1: the coset count gives 1024 divisors, 2^30 codes
        from skewcyclic import skew_poly

        def refuse(*args):
            pytest.fail("x^65 - 1 was factored or a component was built")

        monkeypatch.setattr(skew_poly, "factor_xn_minus_1", refuse)
        monkeypatch.setattr(codes, "component_code_new", refuse)
        with pytest.raises(EnumerationTooLarge, match=f"census size {2**30} exceeds"):
            census(65, f9, 1)

    def test_census_divides_each_divisor_once(self, f9, monkeypatch):
        from skewcyclic import skew_poly

        divided = []

        def counting(f, g):
            divided.append((f, g))
            return right_divide(f, g)

        # the binding the divisor list would use and the one ComponentCode uses
        for module in (skew_poly, codes):
            monkeypatch.setattr(module, "right_divide", counting)
        expected = set(monic_right_divisors(5, f9, 1))
        assert len(census(5, f9, 1)) == 4**3
        divisors = [g for f, g in divided if f == xn_minus_1(f9, 1, 5)]
        assert len(divisors) == len(set(divisors)) == 4 and set(divisors) == expected


class TestDistances:
    def test_zero_code_degenerate(self, f9):
        z = component_code_new(2, xn_minus_1(f9, 1, 2))
        assert z.min_hamming_distance() == MinDistance(0, True)
        code = code_from_components(z, z, z)
        assert code.min_lee_distance() == MinDistance(0, True)

    def test_full_component_distance_one(self, f9):
        c = component_code_new(3, SkewPoly.one(f9, 1))
        assert c.min_hamming_distance() == MinDistance(1, False)

    def test_worked_example(self, f9, xw_code):
        assert xw_code.min_hamming_distance() == MinDistance(2, False)

    def test_min_over_components_skips_zero_codes(self, f9, xw_code):
        z = component_code_new(2, xn_minus_1(f9, 1, 2))
        code = code_from_components(xw_code, z, z)
        assert code.min_lee_distance() == MinDistance(2, False)

    def test_min_lee_distance_via_gray_weights(self, f9, xw_code):
        """Exhaustive cross-check on a 9-word code."""
        from skewcyclic.ring_r import lee_weight
        from skewcyclic.oracle import oracle_code_enumerate

        z = component_code_new(2, xn_minus_1(f9, 1, 2))
        code = code_from_components(xw_code, z, z)
        words = oracle_code_enumerate(code)
        best = min(lee_weight(w) for w in words if any(not x.is_zero() for x in w))
        assert best == code.min_lee_distance().value

    def test_component_distance_enumerated_once(self, f9, monkeypatch):
        calls = []

        def counting(name):
            enumerate_span = getattr(linalg, name)

            def wrapper(rows, field, bound, *args):
                calls.append((name, len(rows)))
                return enumerate_span(rows, field, bound, *args)

            return wrapper

        for name in ("span_min_weight", "span_weight_distribution"):
            monkeypatch.setattr(linalg, name, counting(name))
        codes = census(5, f9, 1)
        distances = [code.min_lee_distance() for code in codes]
        nonzero = {c for code in codes for c in code.components if not c.is_zero_code()}
        assert len(nonzero) == 3
        assert distances == [code.min_lee_distance() for code in codes]
        # dims 1 | 4, 5: the last two read the weights of the census members
        # that are their duals, of dims 1 and 0: one enumeration per dual pair
        assert sorted(calls) == [("span_weight_distribution", 0), ("span_weight_distribution", 1)]
        # outside a census each code enumerates its own dual
        calls.clear()
        fresh = {component_code_new(5, c.g): c.min_hamming_distance() for c in nonzero}
        assert {c: c.min_hamming_distance() for c in fresh} == fresh
        assert sorted(calls) == [
            ("span_weight_distribution", 0),
            ("span_weight_distribution", 1),
            ("span_weight_distribution", 1),
        ]

    def test_wrong_dual_weights_raise_and_keep_nothing(self, f9, monkeypatch):
        c = component_code_new(5, poly_from_string("x-1", f9, 1))  # k = 4 > n - k
        with monkeypatch.context() as mp:
            # two zero words: no code has this distribution
            mp.setattr(linalg, "span_weight_distribution", lambda *a: [2, 0, 0, 0, 0, 0])
            with pytest.raises(linalg.MacWilliamsError):
                c.min_hamming_distance()
        assert c._distance is None
        # a real code of the wrong size in place of the dual: the code itself
        object.__setattr__(c, "_dual", c)
        with pytest.raises(linalg.MacWilliamsError, match="carry to 9 words, not 6561"):
            c.min_hamming_distance()
        assert c._distance is None
        object.__setattr__(c, "_dual", None)
        assert c.min_hamming_distance() == MinDistance(2, False)

    def test_bound_refused_even_when_cached(self, f9):
        from skewcyclic.finite_field import EnumerationTooLarge

        # dim 2 of length 4: the code and its dual both have 81 words
        c = component_code_new(4, poly_from_string("x^2-1", f9, 1))
        assert c.dim == 2 and c.dual().dim == 2
        assert c.min_hamming_distance() == MinDistance(2, False)
        for bound in (80, 1):
            with pytest.raises(EnumerationTooLarge, match="span size 81 exceeds bound"):
                c.min_hamming_distance(bound)
        assert c.min_hamming_distance(81) == MinDistance(2, False)


def _min_dependent_columns(rows, fld, n) -> int:
    """d(C) as the fewest linearly dependent columns of a parity-check
    matrix: the nullspace basis of C's rows, with no dual construction."""
    checks = linalg.nullspace(rows, fld, n)
    for w in range(1, n + 1):
        for cols in itertools.combinations(range(n), w):
            if linalg.rank([[h[j] for h in checks] for j in cols], fld) < w:
                return w
    raise AssertionError("C has no nonzero word")


_FAMILIES = [
    ("F_9", (3, 2), 1, range(1, 8)),
    ("F_25", (5, 2), 1, (4, 5)),
    ("F_27", (3, 3), 1, (2, 4)),
    ("F_81", (3, 4), 2, (5,)),
]


@pytest.mark.parametrize(
    "p,m,i,n",
    [(p, m, i, n) for _, (p, m), i, ns in _FAMILIES for n in ns],
    ids=[f"{name}-i{i}-n{n}" for name, _, i, ns in _FAMILIES for n in ns],
)
def test_component_distance_matches_direct_minimum(p, m, i, n):
    """Every distinct component, read from whichever of C and C^perp is
    smaller, against span_min_weight on its own rows (q^k <= 10^6) and
    the parity-check column count (every size)."""
    fld = Field(p, m, default_modulus(p, m))
    for g in monic_right_divisors(n, fld, i):
        comp = component_code_new(n, g)
        if comp.is_zero_code():
            continue
        rows = linalg.to_index_rows(comp.generator_rows(), fld)
        d = comp.min_hamming_distance().value
        assert d == _min_dependent_columns(rows, fld, n), comp
        if comp.size <= 10**6:
            assert d == linalg.span_min_weight(rows, fld, 10**6), comp


def test_every_limit_default_is_its_named_constant():
    import inspect

    from skewcyclic import oracle, ring_r
    from skewcyclic.cli import build_parser
    from skewcyclic.finite_field import ENUMERATION_LIMIT
    from skewcyclic.linalg import DISTANCE_LIMIT
    from skewcyclic.skew_poly import SEARCH_LIMIT

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    for fn in (census, monic_right_divisors):
        assert default(fn, "search_bound") is SEARCH_LIMIT
    for fn in (linalg.span_min_weight, linalg.span_weight_distribution):
        assert default(fn, "bound") is DISTANCE_LIMIT
    assert default(ring_r.ring_elements, "bound") is ENUMERATION_LIMIT
    bounds = oracle.Bounds()
    assert bounds.search is SEARCH_LIMIT and bounds.distance is DISTANCE_LIMIT
    parser = build_parser()
    assert parser.parse_args(["code", "distance"]).bound is DISTANCE_LIMIT
    assert parser.parse_args(["census"]).distance_bound is DISTANCE_LIMIT
    assert codes.DISTANCE_LIMIT is DISTANCE_LIMIT
