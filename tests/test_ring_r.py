import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic.finite_field import Field, FieldMismatch
from skewcyclic.ring_r import (
    CrtTriple,
    LengthNotDivisibleBy3,
    RingElem,
    crt_join,
    crt_split,
    gray_inverse,
    gray_map,
    lee_distance,
    lee_weight,
    make_idempotents,
    ring_elem,
    ring_elem_from_string,
    ring_elements,
    ring_tables,
    ring_vector_from_string,
    ring_vector_to_string,
)


def _ring_index(field, r):
    """The table index x1 + q*x2 + q^2*x3 of r's splitting coordinates."""
    q = field.q
    return r.x1.idx + q * r.x2.idx + q * q * r.x3.idx


def _from_ring_index(field, idx):
    """The element whose splitting coordinates have table index idx."""
    q = field.q
    return crt_join(field, [field.from_index(idx // q**j % q) for j in range(3)])


class TestRingArithmetic:
    def test_v_times_v_squared_is_v(self, f3):
        v = ring_elem(f3, 0, 1, 0)
        v2 = ring_elem(f3, 0, 0, 1)
        assert v * v2 == v

    def test_multiplicative_identity_exhaustive(self, f3):
        one = ring_elem(f3, 1)
        for x in ring_elements(f3):
            assert x * one == x

    def test_one_plus_v_times_one_minus_v(self, f3):
        # (1 + v)(1 - v) = 1 - v^2, cross-checked through the splitting
        x = ring_elem(f3, 1, 1, 0)
        y = ring_elem(f3, 1, 2, 0)
        prod = x * y
        assert prod == ring_elem(f3, 1, 0, 2)
        sx, sy, sp = crt_split(x), crt_split(y), crt_split(prod)
        assert sp == CrtTriple(sx.x1 * sy.x1, sx.x2 * sy.x2, sx.x3 * sy.x3)

    def test_commutative_ring_axioms_sampled(self, f9):
        rng = random.Random(2)
        elems = f9.elements()

        def rand():
            return RingElem(rng.choice(elems), rng.choice(elems), rng.choice(elems))

        for _ in range(200):
            x, y, z = rand(), rand(), rand()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_units_and_inverses(self, f3):
        units = [x for x in ring_elements(f3) if not any(c.is_zero() for c in crt_split(x))]
        one = ring_elem(f3, 1)
        # |R*| = (q - 1)^3 under the splitting
        assert len(units) == 8
        for u in units:
            assert u * u.inv() == one

    def test_field_mismatch(self, f3, f9):
        with pytest.raises(FieldMismatch):
            RingElem(f3.one, f3.zero, f9.zero)


class TestIdempotents:
    @pytest.mark.parametrize("spec", ["f3", "f9", "f25"])
    def test_orthogonal_idempotents_sum_to_one(self, spec, request):
        fld = request.getfixturevalue(spec)
        etas = make_idempotents(fld)
        one = ring_elem(fld, 1)
        zero = ring_elem(fld, 0)
        assert etas.eta1 + etas.eta2 + etas.eta3 == one
        for j, ej in enumerate(etas):
            for k, ek in enumerate(etas):
                assert ej * ek == (ej if j == k else zero)

    def test_eta2_over_f3(self, f3):
        assert make_idempotents(f3).eta2 == ring_elem(f3, 0, 2, 2)

    def test_eta1_is_one_minus_v_squared(self, f9):
        assert make_idempotents(f9).eta1 == ring_elem(f9, 1, 0, -1)


class TestSplitting:
    def test_zero(self, f3):
        t = crt_split(ring_elem(f3, 0))
        assert all(x.is_zero() for x in t)

    def test_v_splits_to_0_1_minus1(self, f3):
        assert crt_split(ring_elem(f3, 0, 1, 0)) == CrtTriple(
            f3.zero, f3.one, -f3.one
        )

    def test_eta1_splits_to_unit_vector(self, f3):
        eta1 = make_idempotents(f3).eta1
        assert crt_split(eta1) == CrtTriple(f3.one, f3.zero, f3.zero)

    def test_join_of_ones_is_one(self, f9):
        assert crt_join(f9, (f9.one, f9.one, f9.one)) == ring_elem(f9, 1)

    def test_join_unit_vector_is_eta2(self, f9):
        assert crt_join(f9, (f9.zero, f9.one, f9.zero)) == make_idempotents(f9).eta2

    def test_split_join_inverse_exhaustive(self, f3, f9):
        for fld in (f3, f9):
            for r in ring_elements(fld):
                assert crt_join(fld, crt_split(r)) == r

    def test_ring_isomorphism_exhaustive_f3(self, f3):
        elems = ring_elements(f3)
        for x, y in itertools.product(elems, repeat=2):
            sx, sy = crt_split(x), crt_split(y)
            assert crt_split(x * y) == CrtTriple(
                sx.x1 * sy.x1, sx.x2 * sy.x2, sx.x3 * sy.x3
            )
            assert crt_split(x + y) == CrtTriple(
                sx.x1 + sy.x1, sx.x2 + sy.x2, sx.x3 + sy.x3
            )

    def test_maximal_ideals_sanity_f3(self, f3):
        """R has exactly the principal maximal ideals generated by v, v-1, v+1."""
        elems = ring_elements(f3)
        for gen in (
            ring_elem(f3, 0, 1, 0),  # v
            ring_elem(f3, -1, 1, 0),  # v - 1
            ring_elem(f3, 1, 1, 0),  # v + 1
        ):
            ideal = {r * gen for r in elems}
            assert len(ideal) == 9
            for outside in elems:
                if outside in ideal:
                    continue
                extended = {a + r * outside for a in ideal for r in elems}
                assert len(extended) == 27


class TestTheta:
    def test_fixes_v(self, f9):
        v = ring_elem(f9, 0, 1, 0)
        assert v.frob(1) == v

    def test_theta_on_w_coefficients(self, f9):
        w = f9.gen
        x = RingElem(w, w, f9.zero)  # w + wv
        tw = f9.elem([0, 2])
        assert x.frob(1) == RingElem(tw, tw, f9.zero)

    def test_is_ring_automorphism_sampled(self, f9):
        rng = random.Random(3)
        elems = f9.elements()

        def rand():
            return RingElem(rng.choice(elems), rng.choice(elems), rng.choice(elems))

        for _ in range(200):
            x, y = rand(), rand()
            assert (x * y).frob(1) == x.frob(1) * y.frob(1)
            assert (x + y).frob(1) == x.frob(1) + y.frob(1)

    def test_commutes_with_splitting(self, f9):
        for r in ring_elements(f9):
            s = crt_split(r)
            assert crt_split(r.frob(1)) == CrtTriple(
                s.x1.frob(1), s.x2.frob(1), s.x3.frob(1)
            )


class TestGrayMap:
    def test_zero_maps_to_zero(self, f3):
        img = gray_map([ring_elem(f3, 0)] * 4)
        assert len(img) == 12 and all(x.is_zero() for x in img)

    def test_definition_formula(self, f3):
        img = gray_map([ring_elem(f3, 1, 2, 0)])
        assert [x.coeffs[0] for x in img] == [1, 0, 2]

    def test_agrees_with_splitting_exhaustive(self, f3, f9):
        for fld in (f3, f9):
            for r in ring_elements(fld):
                assert gray_map([r]) == tuple(crt_split(r))

    def test_linearity_sampled(self, f9):
        rng = random.Random(4)
        size = f9.q**3
        for _ in range(200):
            x = tuple(_from_ring_index(f9, rng.randrange(size)) for _ in range(3))
            y = tuple(_from_ring_index(f9, rng.randrange(size)) for _ in range(3))
            lam = rng.choice(f9.elements())
            both = tuple(a + b for a, b in zip(x, y))
            assert gray_map(both) == tuple(
                a + b for a, b in zip(gray_map(x), gray_map(y))
            )
            scaled = tuple(RingElem(lam * r.a, lam * r.b, lam * r.c) for r in x)
            assert gray_map(scaled) == tuple(lam * a for a in gray_map(x))

    def test_inverse_roundtrip_random(self, f9):
        rng = random.Random(5)
        size = f9.q**3
        for _ in range(1000):
            vec = tuple(_from_ring_index(f9, rng.randrange(size)) for _ in range(2))
            assert gray_inverse(f9, gray_map(vec)) == vec

    def test_inverse_example(self, f3):
        vec = gray_inverse(f3, (f3.one, f3.zero, f3.elem(2)))
        assert vec == (ring_elem(f3, 1, 2, 0),)

    def test_inverse_length_check(self, f3):
        with pytest.raises(LengthNotDivisibleBy3):
            gray_inverse(f3, (f3.one, f3.zero))


class TestLeeWeight:
    def test_zero(self, f3):
        assert lee_weight(ring_elem(f3, 0)) == 0

    def test_v_has_weight_two(self, f3):
        assert lee_weight(ring_elem(f3, 0, 1, 0)) == 2

    def test_one_has_weight_three(self, f3):
        assert lee_weight(ring_elem(f3, 1)) == 3

    def test_vector_weight_is_sum(self, f3):
        vec = (ring_elem(f3, 0, 1, 0), ring_elem(f3, 1), ring_elem(f3, 0))
        assert lee_weight(vec) == 5

    def test_isometry_exhaustive_n1_q3(self, f3):
        words = [(r,) for r in ring_elements(f3)]
        for x in words:
            for y in words:
                hamming = sum(a != b for a, b in zip(gray_map(x), gray_map(y)))
                assert lee_distance(x, y) == hamming


LEE_FIELDS = {
    9: Field(3, 2, [1, 0, 1]),
    25: Field(5, 2, [2, 0, 1]),
    3**8: Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1]),  # past TABLE_LIMIT: no dense tables
}


def _word_pair(q):
    idx = st.integers(0, q - 1)
    word = st.lists(st.tuples(idx, idx, idx), min_size=0, max_size=4)
    return st.tuples(st.just(q), word.flatmap(
        lambda xs: st.tuples(
            st.just(xs),
            st.lists(st.tuples(idx, idx, idx), min_size=len(xs), max_size=len(xs)),
            st.booleans(),
        )
    ))


def _ring_word(fld, triples):
    return tuple(crt_join(fld, [fld.from_index(k) for k in t]) for t in triples)


class TestLeeDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(LEE_FIELDS)).flatmap(_word_pair))
    def test_equals_weight_of_difference(self, args):
        q, (xs, ys, twin) = args
        fld = LEE_FIELDS[q]
        # y over an equal but distinct Field counts as the same field
        yfld = Field(fld.p, fld.m, fld.modulus) if twin else fld
        x, y = _ring_word(fld, xs), _ring_word(yfld, ys)
        assert lee_distance(x, y) == sum(lee_weight(a - b) for a, b in zip(x, y))
        for a, b in zip(x, y):
            assert lee_distance(a, b) == lee_weight(a - b)
        assert LEE_FIELDS[3**8]._tables is None

    def test_mixed_fields_raise(self, f9, f25):
        zero9, zero25 = ring_elem(f9, 0), ring_elem(f25, 0)
        one9 = ring_elem(f9, 1)
        with pytest.raises(FieldMismatch):
            lee_distance(zero9, zero25)
        with pytest.raises(FieldMismatch):
            lee_distance((one9, zero9), (one9, zero25))
        with pytest.raises(FieldMismatch):
            zero9 - zero25  # the difference it stands for raises the same way

    def test_unequal_lengths_raise(self, f9):
        one = ring_elem(f9, 1)
        with pytest.raises(ValueError):
            lee_distance((one, one), (one,))


class TestRingTables:
    def test_tables_agree_with_objects(self, f3):
        rt = ring_tables(f3)
        elems = ring_elements(f3)
        for x in elems:
            ix = _ring_index(f3, x)
            assert _from_ring_index(f3, ix) == x
            assert rt.lee[ix] == lee_weight(x)
            for y in elems:
                iy = _ring_index(f3, y)
                assert rt.add[ix][iy] == _ring_index(f3, x + y)

    def test_frob_table(self, f9):
        rt = ring_tables(f9)
        ft = rt.frob(1)
        for x in ring_elements(f9):
            assert ft[_ring_index(f9, x)] == _ring_index(f9, x.frob(1))


class TestTextFormats:
    def test_elem_roundtrip(self, f3):
        r = ring_elem(f3, 1, 2, 0)
        assert str(r) == "[1]|[2]|[0]"
        assert ring_elem_from_string(f3, "[1]|[2]|[0]") == r

    def test_vector_roundtrip(self, f9):
        vec = (ring_elem(f9, 1), RingElem(f9.gen, f9.zero, f9.one))
        s = ring_vector_to_string(vec)
        assert ring_vector_from_string(f9, s) == vec

    def test_bad_elem_rejected(self, f3):
        with pytest.raises(ValueError):
            ring_elem_from_string(f3, "[1]|[2]")


class TestInternedComponents:
    def test_components_from_equal_distinct_fields(self, f9):
        twin = Field(f9.p, f9.m, f9.modulus)
        r = RingElem(f9.gen, twin.one, twin.elem([2, 1]))
        s = RingElem(twin.gen, f9.one, f9.elem([2, 1]))
        assert r == s and hash(r) == hash(s)
        assert r * s == s * r == _from_ring_index(f9, _ring_index(twin, r * r))
        with pytest.raises(FieldMismatch):
            RingElem(f9.one, Field(5, 2, [2, 0, 1]).one, f9.one)

    def test_ring_ops_agree_across_table_states(self, f9):
        plain = Field(f9.p, f9.m, f9.modulus)
        rng = random.Random(91)
        for _ in range(300):
            x, y = (_from_ring_index(f9, rng.randrange(9**3)) for _ in range(2))
            px, py = (
                RingElem(*(plain.elem(list(c.coeffs)) for c in (r.a, r.b, r.c)))
                for r in (x, y)
            )
            assert (px * py, px + py, px - py, px.frob(1)) == (
                x * y, x + y, x - y, x.frob(1)
            )
            assert crt_split(px) == crt_split(x)
        assert plain._tables is None

    def test_large_field_ring_ops_build_no_tables(self):
        fld = Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1])  # q = 6561
        r = RingElem(fld.gen, fld.elem(2), fld.gen * fld.gen + fld.one)
        s = crt_join(fld, crt_split(r * r + r))
        assert s == r * r + r
        assert s.frob(2) == RingElem(*(fld.frob_pow(c, 2) for c in (s.a, s.b, s.c)))
        assert fld._tables is None


# the a + bv + cv^2 formulas, kept here as the reference for the
# split-native RingElem
def _schoolbook_mul(s, t):
    a, b, c = s
    x, y, z = t
    return (a * x, a * y + b * x + b * z + c * y, a * z + b * y + c * x + c * z)


SPLIT_FIELDS = {9: Field(3, 2, [1, 0, 1]), 25: Field(5, 2, [2, 0, 1])}


def _two_triples(q):
    idx = st.integers(0, q - 1)
    return st.tuples(st.just(q), st.tuples(idx, idx, idx), st.tuples(idx, idx, idx))


class TestSplitNative:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SPLIT_FIELDS)).flatmap(_two_triples))
    def test_ops_agree_with_schoolbook(self, args):
        q, si, ti = args
        fld = SPLIT_FIELDS[q]
        s = tuple(fld.from_index(k) for k in si)
        t = tuple(fld.from_index(k) for k in ti)
        r, u = RingElem(*s), RingElem(*t)
        assert (r.a, r.b, r.c) == s
        assert r + u == RingElem(*(x + y for x, y in zip(s, t)))
        assert r - u == RingElem(*(x - y for x, y in zip(s, t)))
        assert -r == RingElem(*(-x for x in s))
        assert r * u == RingElem(*_schoolbook_mul(s, t))
        assert r.frob(1) == RingElem(*(x.frob(1) for x in s))
        assert r.scale_field(t[0]) == RingElem(*(x * t[0] for x in s))
        if not any(c.is_zero() for c in crt_split(r)):
            inv = r.inv()
            assert _schoolbook_mul(s, (inv.a, inv.b, inv.c)) == (
                fld.one, fld.zero, fld.zero
            )
        assert ring_elem_from_string(fld, str(r)) == r

    def test_join_and_split_move_no_arithmetic(self, f9):
        t = (f9.gen, f9.one, f9.elem([2, 2]))
        r = crt_join(f9, t)
        assert all(x is y for x, y in zip(crt_split(r), t))
        assert all(x is y for x, y in zip(gray_map([r]), t))
        with pytest.raises(FieldMismatch):
            crt_join(f9, (f9.one, f9.one, Field(5, 2, [2, 0, 1]).one))

    def test_immutable(self, f9):
        r = ring_elem(f9, 1, 2, 0)
        with pytest.raises(AttributeError):
            r.x1 = f9.zero
        with pytest.raises(AttributeError):
            r.a = f9.zero
        with pytest.raises(AttributeError):
            del r.x1

    def test_idempotents_live_on_their_field(self, f9):
        twin = Field(f9.p, f9.m, f9.modulus)
        etas, twin_etas = make_idempotents(f9), make_idempotents(twin)
        assert make_idempotents(f9) is etas
        assert etas == twin_etas
        assert all(x.field is twin for eta in twin_etas for x in crt_split(eta))
