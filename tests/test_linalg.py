import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic import linalg
from skewcyclic.finite_field import EnumerationTooLarge, Field


def _random_matrix(field, rows, cols, rng):
    return [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]


def _mat_vec(rows, vec, field):
    t = field.tables()
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, vec):
            acc = t.add[acc][t.mul[a][b]]
        out.append(acc)
    return out


class TestRref:
    def test_identity_fixed(self, f3):
        eye = [[1, 0], [0, 1]]
        assert linalg.rref(eye, f3) == eye

    def test_known_reduction(self, f3):
        # (1,0,1) = (1,2,0) - 2*(0,1,1) over F_3, so the rank is 2
        mat = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
        assert linalg.rref(mat, f3) == [[1, 0, 1], [0, 1, 1]]
        full = [[1, 2, 0], [0, 1, 1], [0, 0, 2]]
        assert linalg.rref(full, f3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_rank_of_zero_matrix(self, f9):
        assert linalg.rank([[0, 0], [0, 0]], f9) == 0

    def test_canonical_under_row_operations(self, f9):
        rng = random.Random(10)
        t = f9.tables()
        for _ in range(25):
            mat = _random_matrix(f9, 3, 5, rng)
            shuffled = mat[::-1]
            scaled = [[t.mul[2][x] for x in row] for row in mat]
            a = linalg.canonical_subspace(mat, f9)
            assert a == linalg.canonical_subspace(shuffled, f9)
            assert a == linalg.canonical_subspace(scaled, f9)


class TestNullspace:
    def test_kernel_vectors_annihilate(self, f9):
        rng = random.Random(11)
        for _ in range(25):
            mat = _random_matrix(f9, 3, 6, rng)
            basis = linalg.nullspace(mat, f9)
            assert len(basis) == 6 - linalg.rank(mat, f9)
            for vec in basis:
                assert _mat_vec(mat, vec, f9) == [0, 0, 0]

    def test_empty_matrix_kernel_is_everything(self, f3):
        basis = linalg.nullspace([], f3, ncols=4)
        assert len(basis) == 4


class TestSpan:
    def test_span_vectors_size(self, f3):
        rows = [[1, 0, 2], [0, 1, 1]]
        span = linalg.span_vectors(rows, f3)
        assert len(span) == 9
        assert tuple([0, 0, 0]) in span
        assert tuple(rows[0]) in span

    def test_span_of_no_rows_needs_a_length(self, f9):
        assert linalg.span_vectors([], f9, ncols=3) == {(0, 0, 0)}
        with pytest.raises(ValueError):
            linalg.span_vectors([], f9)
        # rows fix the length, as in nullspace
        assert linalg.span_vectors([[0, 0]], f9, ncols=3) == {(0, 0)}

    def test_span_bound(self, f9):
        with pytest.raises(EnumerationTooLarge):
            linalg.span_vectors([[1, 0], [0, 1]], f9, bound=80)

    @pytest.mark.parametrize("fixture", ["f3", "f9"])
    def test_min_weight_matches_explicit_enumeration(self, fixture, request):
        fld = request.getfixturevalue(fixture)
        rng = random.Random(12)
        for _ in range(20):
            rows = _random_matrix(fld, 2, 4, rng)
            span = linalg.span_vectors(rows, fld, bound=10**4)
            expected = min(
                (sum(1 for x in v if x != 0) for v in span if any(v)),
                default=None,
            )
            assert linalg.span_min_weight(rows, fld, 10**4) == expected

    def test_min_weight_zero_span(self, f9):
        assert linalg.span_min_weight([[0, 0, 0]], f9, 100) is None

    def test_min_weight_chunked_path(self, f3):
        # force the outer/inner split with 15 digit rows (3^15 combinations)
        rng = random.Random(13)
        rows = _random_matrix(f3, 15, 20, rng)
        w = linalg.span_min_weight(rows, f3, bound=2**31)
        assert 1 <= w <= 20

    @pytest.mark.parametrize(
        "p,m,mod", [(3, 2, [1, 0, 1]), (5, 2, [2, 0, 1]), (13, 1, [0, 1]), (17, 1, [0, 1])]
    )
    def test_min_weight_independent_of_block_size(self, monkeypatch, p, m, mod):
        # a 64-byte block leaves almost every row to the python loop; p = 17
        # needs digits wider than uint8 to stay exact
        fld = Field(p, m, mod)
        rng = random.Random(p)
        for _ in range(5):
            rows = _random_matrix(fld, 3, 5, rng)
            span = linalg.span_vectors(rows, fld, bound=10**5)
            expected = min(
                (sum(1 for x in v if x != 0) for v in span if any(v)),
                default=None,
            )
            assert linalg.span_min_weight(rows, fld, 10**5) == expected
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_BLOCK_BYTES", 64)
                assert linalg.span_min_weight(rows, fld, 10**5) == expected


def _explicit_min_weight(rows, fld):
    """Minimum weight over all q^k combinations of the raw rows (no RREF)."""
    t = fld.tables()
    add, mul = np.array(t.add), np.array(t.mul)
    coeffs = np.array(list(itertools.product(range(fld.q), repeat=len(rows))))
    words = np.zeros((len(coeffs), len(rows[0])), dtype=np.int64)
    for r, row in enumerate(rows):
        words = add[words, mul[coeffs[:, r : r + 1], np.array(row)]]
    weights = (words != 0).sum(axis=1)
    weights = weights[weights > 0]
    return int(weights.min()) if len(weights) else None


@pytest.mark.parametrize("fixture", ["f9", "f25", "f27"])
def test_projective_min_weight_matches_explicit_enumeration(fixture, request, monkeypatch):
    # only words with leading coefficient 1 are enumerated; the minimum
    # must equal that over every combination, whatever the block size
    fld = request.getfixturevalue(fixture)
    rng = random.Random(fld.q)
    for k in range(1, 5):
        for _ in range(2):
            rows = _random_matrix(fld, k, k + 2, rng)
            expected = _explicit_min_weight(rows, fld)
            assert linalg.span_min_weight(rows, fld) == expected
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_BLOCK_BYTES", 64)
                assert linalg.span_min_weight(rows, fld) == expected


def test_min_weight_bound_unchanged(f9):
    # the bound still applies to all q^k words, not the projective count
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.span_min_weight(rows, f9, bound=729) == 1
    with pytest.raises(EnumerationTooLarge):
        linalg.span_min_weight(rows, f9, bound=728)


def _weights_by_listing(rows, fld, ncols):
    """Weight distribution counted over every word of ``span_vectors``."""
    out = [0] * (ncols + 1)
    for v in linalg.span_vectors(rows, fld, bound=10**6, ncols=ncols):
        out[sum(1 for x in v if x != 0)] += 1
    return out


class TestWeightDistribution:
    @pytest.mark.parametrize("fixture", ["f3", "f9", "f25"])
    def test_matches_listing(self, fixture, request, monkeypatch):
        fld = request.getfixturevalue(fixture)
        rng = random.Random(fld.q + 1)
        for k in range(0, 4):
            rows = _random_matrix(fld, k, 5, rng)
            expected = _weights_by_listing(rows, fld, 5)
            assert linalg.span_weight_distribution(rows, fld, 10**6, 5) == expected
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_BLOCK_BYTES", 64)
                assert linalg.span_weight_distribution(rows, fld, 10**6, 5) == expected

    def test_zero_code_needs_a_length(self, f9):
        assert linalg.span_weight_distribution([], f9, 1, ncols=3) == [1, 0, 0, 0]
        assert linalg.span_weight_distribution([[0, 0]], f9, 1) == [1, 0, 0]
        with pytest.raises(ValueError):
            linalg.span_weight_distribution([], f9, 1)

    def test_refused_before_enumerating(self, f9, monkeypatch):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

        def no_enumeration(*args):
            raise AssertionError("enumeration started past the bound")

        monkeypatch.setattr(linalg, "_digit_rows", no_enumeration)
        with pytest.raises(EnumerationTooLarge, match="span size 729 exceeds bound 728"):
            linalg.span_weight_distribution(rows, f9, 728)

    def test_least_weight_is_min_weight(self, f27):
        rng = random.Random(27)
        for k in range(1, 4):
            rows = _random_matrix(f27, k, 6, rng)
            dist = linalg.span_weight_distribution(rows, f27)
            least = next(w for w in range(1, 7) if dist[w])
            assert least == linalg.span_min_weight(rows, f27)


_FIELDS = {9: Field(3, 2, [1, 0, 1]), 25: Field(5, 2, [2, 0, 1]), 27: Field(3, 3, [1, 2, 0, 1])}


def _reference_rref(rows, field):
    """The Gauss-Jordan loop that ``linalg.rref`` ran before it was split
    into ``echelon`` and back-substitution, kept verbatim as the reference."""
    t = field.tables()
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = t.inv[mat[pivot_row][col]]
        if inv != t.one:
            mul_inv = t.mul[inv]
            mat[pivot_row] = [mul_inv[x] for x in mat[pivot_row]]
        prow = mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mul_f = t.mul[factor]
                sub = t.sub
                mat[r] = [sub[x][mul_f[y]] for x, y in zip(mat[r], prow)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [r for r in mat[:pivot_row]]


_ECHELON_FIELDS = {3: Field(3, 1, [0, 1]), 9: _FIELDS[9], 25: _FIELDS[25]}
# most rows per matrix, so that a span stays a few thousand words
_MAX_ROWS = {3: 7, 9: 4, 25: 3}


@st.composite
def _matrices(draw):
    """(field, rows, ncols): no rows, zero rows, repeated rows, tall and wide."""
    q = draw(st.sampled_from(sorted(_ECHELON_FIELDS)))
    ncols = draw(st.integers(1, 7))
    # sparse entries, so that dependent rows are common
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=_MAX_ROWS[q]))
    extra = draw(st.sampled_from(["none", "zero", "repeat"]))
    if extra == "zero":
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    elif extra == "repeat" and rows:
        rows.append(list(draw(st.sampled_from(rows))))
    return _ECHELON_FIELDS[q], rows, ncols


def _combine(coeffs, rows, field):
    """The row combination sum_i coeffs[i] * rows[i]."""
    t = field.tables()
    out = [0] * len(rows[0])
    for c, r in zip(coeffs, rows):
        out = [t.add[a][t.mul[c][b]] for a, b in zip(out, r)]
    return out


class TestEchelon:
    """``echelon``, ``rank`` and ``rref``, all built on ``_pivots``, against
    the Gauss-Jordan reference."""

    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_rank_and_rref_equal_the_reference(self, case):
        fld, rows, _ = case
        reference = _reference_rref(rows, fld)
        assert linalg.rank(rows, fld) == len(reference)
        assert linalg.rref(rows, fld) == reference

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_echelon_is_an_echelon_basis_of_the_span(self, case):
        fld, rows, _ = case
        basis = linalg.echelon(rows, fld)
        leads = [next(c for c, x in enumerate(b) if x) for b in basis]
        assert leads == sorted(set(leads))
        assert all(type(b) is list for b in basis)
        assert linalg.canonical_subspace(basis, fld) == tuple(
            map(tuple, _reference_rref(rows, fld))
        )

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_rank_counts_the_echelon_rows(self, case):
        fld, rows, _ = case
        assert linalg.rank(rows, fld) == len(linalg.echelon(rows, fld))

    @settings(max_examples=100, deadline=None)
    @given(_matrices())
    def test_inputs_are_not_mutated_and_echelon_rows_are_fresh(self, case):
        # rank and echelon keep rows that need no reduction as given
        fld, rows, _ = case
        before = [list(r) for r in rows]
        linalg.rank(rows, fld)
        basis = linalg.echelon(rows, fld)
        assert rows == before
        second = [list(b) for b in basis]
        for b in basis:
            b[0] = -1
            b.append(-1)
        assert rows == before
        assert linalg.echelon(rows, fld) == second

    def test_subtraction_that_cancels_nothing_still_ends(self, f9):
        # each reduction step moves a row's lead column right, so a broken
        # table ends elimination after at most ncols steps per row
        t = f9.log_table()  # zech all 0 makes a + b read a for nonzero a and b
        broken = SimpleNamespace(exp=t.exp, log=t.log, zech=[0] * len(t.zech))
        fld = SimpleNamespace(q=f9.q, log_table=lambda: broken)
        assert linalg.rank([[1, 1, 1]] * 4, fld) == 3

    @settings(max_examples=100, deadline=None)
    @given(_matrices(), st.data())
    def test_weights_unchanged_by_an_invertible_recombination(self, case, data):
        fld, rows, ncols = case
        k = len(rows)
        # A = random row operations applied to the identity: scale a row
        # by a nonzero c, or add c times one row to another
        mat = [[fld.one.idx if i == j else 0 for j in range(k)] for i in range(k)]
        t = fld.tables()
        index = st.integers(0, max(k - 1, 0))
        ops = st.tuples(index, index, st.integers(1, fld.q - 1))
        for i, j, c in data.draw(st.lists(ops, max_size=3 * k)):
            if i == j:
                mat[i] = [t.mul[c][x] for x in mat[i]]
            else:
                mat[i] = [t.add[a][t.mul[c][b]] for a, b in zip(mat[i], mat[j])]
        mixed = [_combine(a, rows, fld) for a in mat]
        assert linalg.rank(mat, fld) == k
        assert linalg.span_min_weight(mixed, fld) == linalg.span_min_weight(rows, fld)
        assert linalg.span_weight_distribution(
            mixed, fld, ncols=ncols
        ) == linalg.span_weight_distribution(rows, fld, ncols=ncols)


F_3_8 = Field(3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1])  # q = 6561 > TABLE_LIMIT


@st.composite
def _matrices_past_the_table_limit(draw):
    """(rows, ncols) over F_{3^8}: sparse rows, and c * a + b appended for
    two of them, so that the kernel is often larger than ncols - #rows."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, F_3_8.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    if len(rows) >= 2:
        a, b = draw(st.permutations(rows))[:2]
        c = F_3_8.from_index(draw(st.integers(1, F_3_8.q - 1)))
        elems = F_3_8.log_table().elems
        rows.append([(c * elems[x] + elems[y]).idx for x, y in zip(a, b)])
    return rows, ncols


class TestPastTheTableLimit:
    """Elimination over F_{3^8} reads the O(q) LogTable alone; every check
    is made in ``FieldElem`` arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(_matrices_past_the_table_limit())
    def test_nullspace_and_rref_without_dense_tables(self, case):
        rows, ncols = case
        elems = F_3_8.log_table().elems
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Field, "tables", lambda self: pytest.fail("dense tables were read"))
            kernel = linalg.nullspace(rows, F_3_8, ncols)
            red = linalg.rref(rows, F_3_8)
            r = linalg.rank(rows, F_3_8)
        for y in kernel:
            for row in rows:
                dot = F_3_8.zero
                for a, b in zip(row, y):
                    dot = dot + elems[a] * elems[b]
                assert dot == F_3_8.zero
        assert r + len(kernel) == ncols
        assert len(red) == r
        for k, row in enumerate(red):
            c = linalg._lead(row)
            assert elems[row[c]] == F_3_8.one
            assert all(other[c] == 0 for j, other in enumerate(red) if j != k)


class TestMacWilliams:
    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from(sorted(_FIELDS)),
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_dual_weights_carry_to_the_code(self, q, n, data):
        # the dual comes from the nullspace, not from any skew construction
        fld = _FIELDS[q]
        k = data.draw(st.integers(0, n))
        entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        rows = data.draw(st.lists(entries, min_size=k, max_size=k))
        dual = linalg.nullspace(rows, fld, n)
        a = linalg.span_weight_distribution(rows, fld, 10**8, n)
        b = linalg.span_weight_distribution(dual, fld, 10**8, n)
        assert linalg.macwilliams(b, n, q) == a
        assert linalg.macwilliams(a, n, q) == b

    def test_zero_code_and_full_space(self):
        full = [math.comb(4, j) * 8**j for j in range(5)]
        assert linalg.macwilliams([1, 0, 0, 0, 0], 4, 9) == full
        assert linalg.macwilliams(full, 4, 9) == [1, 0, 0, 0, 0]

    def test_own_weights_in_place_of_the_dual_fail(self, f9):
        # a [4, 1] code whose dual has dimension 3: the transform of its
        # own weights is not its weight distribution
        rows = [[1, 1, 1, 1]]
        own = linalg.span_weight_distribution(rows, f9, ncols=4)
        try:
            carried = linalg.macwilliams(own, 4, 9)
        except linalg.MacWilliamsError:
            return
        assert carried != own

    @pytest.mark.parametrize(
        "weights,n,q,message",
        [
            ([1, 1], 1, 3, "sum 1 for B_1 is not"),  # B_1 = 1/2
            ([1, 0, 3], 2, 2, "sum -4 for B_1 is not"),  # B_1 = -1
            ([2, 0, 0], 2, 3, "sum B = 18; need 1 and 9"),  # two zero words
        ],
        ids=["fractional", "negative", "two-zero-words"],
    )
    def test_postconditions_raise(self, weights, n, q, message):
        with pytest.raises(linalg.MacWilliamsError, match=message):
            linalg.macwilliams(weights, n, q)

    def test_length_must_match(self):
        with pytest.raises(ValueError):
            linalg.macwilliams([1, 0], 2, 3)
