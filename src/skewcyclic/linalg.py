"""Exact linear algebra over F_q on integer-indexed matrices.

Rows are lists of element indices (``FieldElem.idx``). Elimination is
exact on the field's O(q) ``LogTable``, as in ``FieldElem`` (products on
logarithms, sums by ``LogTable.add``), so it runs past ``TABLE_LIMIT``,
in one forward-elimination loop (``_pivots``):
``rank`` counts its pivots, and ``echelon`` copies them out for ``rref``
and the span enumerators. Only ``rref`` fully reduces, for
``canonical_subspace`` and ``nullspace``, which need a canonical form.
The span enumerators expand F_q-vectors into base-p digit vectors so that
bulk enumeration runs through numpy in chunks, in exact integer arithmetic
mod p. They import numpy on their first call, so a process that enumerates
no span never loads it. ``macwilliams`` carries a weight distribution to
the dual code in exact integers.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence

from .finite_field import EnumerationTooLarge, Field, FieldElem, FieldError, LogTable

if TYPE_CHECKING:
    import numpy as np

_BLOCK_BYTES = 1 << 22  # bytes of words per numpy block in span enumeration
DISTANCE_LIMIT = 10**6  # default bound on the words of a weight enumeration


def to_index_rows(rows: Sequence[Sequence[FieldElem]], field: Field) -> list[list[int]]:
    return [[x.idx for x in row] for row in rows]


def _lead(row: Sequence[int]) -> int:
    """Column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _width(rows: Sequence[Sequence[int]], ncols: int | None) -> int:
    if rows:
        return len(rows[0])
    if ncols is None:
        raise ValueError("ncols required for an empty matrix")
    return ncols


def _axpy(t: LogTable, u: Sequence[int], lc: int, v: Sequence[int]) -> list[int]:
    """u + g^lc * v entrywise on indices, for 0 <= lc < q - 1: the product
    is ``exp[lc + log b]`` (``log[0]`` makes a zero b read zero) and the sum
    ``LogTable.add``, the one row operation of elimination."""
    exp, log, add = t.exp, t.log, t.add
    return [add(a, exp[lc + log[b]]) for a, b in zip(u, v)]


def _pivots(rows: Sequence[Sequence[int]], field: Field) -> dict[int, Sequence[int]]:
    """Pivot column -> pivot row, by forward elimination: each row is reduced
    by the pivot rows before it until its leading column holds no pivot.
    Nothing is normalised or cleared above a pivot; a row that needs no
    reduction (a row x^j * g of a generator) is kept as given, uncopied."""
    t, n = field.log_table(), field.q - 1
    log = t.log
    pivots: dict[int, Sequence[int]] = {}
    for r in rows:
        c, v = -1, next(filter(None, r), 0)
        while v:  # the lead moves right at each step, even on broken tables
            c = r.index(v, c + 1)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            # r - (v / p_c) p, with -1 = g^{n/2}
            r = _axpy(t, r, (log[v] - log[p[c]] + n // 2) % n, p)
            v = next(filter(None, r[c + 1 :]), 0)
    return pivots


def echelon(rows: Sequence[Sequence[int]], field: Field) -> list[list[int]]:
    """An echelon basis of the span: ``_pivots``' rows, copied in pivot order."""
    return [list(row) for _, row in sorted(_pivots(rows, field).items())]


def rref(rows: Sequence[Sequence[int]], field: Field) -> list[list[int]]:
    """Reduced row echelon form; returns the nonzero rows (canonical basis):
    ``echelon`` with each pivot scaled to 1 and cleared from the rows above."""
    t, n = field.log_table(), field.q - 1
    exp, log = t.exp, t.log
    red: list[list[int]] = []
    for row in echelon(rows, field):
        c = _lead(row)
        l_inv = n - log[row[c]]
        row = [exp[l_inv + log[x]] for x in row]
        for k, r in enumerate(red):
            if r[c]:
                red[k] = _axpy(t, r, (log[r[c]] + n // 2) % n, row)
        red.append(row)
    return red


def rank(rows: Sequence[Sequence[int]], field: Field) -> int:
    return len(_pivots(rows, field))


def nullspace(
    rows: Sequence[Sequence[int]], field: Field, ncols: int | None = None
) -> list[list[int]]:
    """Canonical basis of {y : M y^T = 0} for the row matrix M.

    ``ncols`` is required when the matrix has no rows (the kernel is then
    the whole space).
    """
    neg = field.log_table().neg
    red, ncols = rref(rows, field), _width(rows, ncols)
    pivots = [_lead(r) for r in red]
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        y = [0] * ncols
        y[j] = field.one.idx
        for r, pc in zip(red, pivots):
            y[pc] = neg[r[j]]
        basis.append(y)
    return rref(basis, field)


def canonical_subspace(rows: Sequence[Sequence[int]], field: Field) -> tuple:
    """A hashable canonical form of the row span (for subspace equality)."""
    return tuple(tuple(r) for r in rref(rows, field))


def span_vectors(
    rows: Sequence[Sequence[int]],
    field: Field,
    bound: int = 10**4,
    ncols: int | None = None,
) -> set[tuple[int, ...]]:
    """The full row span as a set of index tuples (small spaces only).

    ``ncols`` is required when there are no rows (the span is then the
    zero word of that length).
    """
    ncols = _width(rows, ncols)
    basis = echelon(rows, field)
    _refuse_span(basis, field, bound)
    t = field.log_table()
    exp, log, add = t.exp, t.log, t.add
    words = [tuple([0] * ncols)]
    for row in basis:
        logs = [log[x] for x in row]
        multiples = [[exp[lc + lx] for lx in logs] for lc in range(field.q - 1)]
        words += [tuple(map(add, w, sc)) for w in words for sc in multiples]
    return set(words)


def _digit_rows(basis: list[list[int]], field: Field) -> np.ndarray:
    """Expand an F_q basis into a Z_p basis of the same span, as digit rows.

    Row r becomes the m rows w^j * r, each flattened to its m base-p digits
    per coordinate, so the Z_p span of the result is the digit image of the
    F_q span.
    """
    import numpy as np

    t, out = field.log_table(), []
    exp, log, elems = t.exp, t.log, t.elems
    lw = log[field.gen.idx]
    for row in basis:
        for _ in range(field.m):
            out.append([d for e in row for d in elems[e].coeffs])
            row = [exp[lw + log[e]] for e in row]
    return np.array(out, dtype=np.int64)


def _projective_weights(basis: list[list[int]], field: Field):
    """Hamming weights of the projective words of the span of any basis.

    The projective words are those whose first nonzero coefficient on the
    basis is 1: (q^k - 1)/(q - 1) of the q^k words, one for each line of
    the span. They are yielded as numpy arrays of weights, one per block.
    """
    import numpy as np

    p, m = field.p, field.m
    ncoords = len(basis[0])
    width = ncoords * m
    dtype = _digit_dtype(p)
    zrows = _digit_rows(basis, field).astype(dtype)
    k = len(zrows)
    # the last inner_k digit rows are enumerated once as one numpy block of
    # at most _BLOCK_BYTES (digits plus the per-word weight); its first p^f
    # words span the last f rows alone
    row_bytes = width * np.dtype(dtype).itemsize + 8
    inner_k = 0
    while inner_k < k and p ** (inner_k + 1) * row_bytes <= _BLOCK_BYTES:
        inner_k += 1
    digits = np.arange(p, dtype=dtype)[None, :, None]
    inner = np.zeros((1, width), dtype=dtype)
    for row in zrows[k - inner_k :]:
        inner = ((inner[:, None, :] + digits * row) % p).reshape(-1, width)
    for lead in range(0, k, m):
        # coefficient 1 on basis row lead // m, 0 before it, anything after
        free = k - lead - m
        n_inner = min(free, inner_k)
        block = inner[: p**n_inner]
        outer_rows = zrows[lead + m : k - n_inner]
        for combo in itertools.product(range(p), repeat=len(outer_rows)):
            offset = zrows[lead]
            for c, row in zip(combo, outer_rows):
                if c:
                    offset = (offset + c * row) % p
            words = (block + offset) % p
            yield words.reshape(len(words), ncoords, m).any(axis=2).sum(axis=1)


def _refuse_span(basis: list[list[int]], field: Field, bound: int) -> None:
    size = field.q ** len(basis)
    if size > bound:
        raise EnumerationTooLarge(f"span size {size} exceeds bound {bound}")


def span_min_weight(
    rows: Sequence[Sequence[int]], field: Field, bound: int = DISTANCE_LIMIT
) -> int | None:
    """Minimum Hamming weight over the nonzero vectors of the row span.

    Weight counts nonzero F_q coordinates. Returns None when the span is
    the zero space. Exhaustive and exact; raises when the span is larger
    than ``bound``.

    Scaling a word does not change its weight, so only the projective
    words are enumerated (``_projective_weights``).
    """
    basis = echelon(rows, field)
    if not basis:
        return None
    _refuse_span(basis, field, bound)
    return min(int(w.min()) for w in _projective_weights(basis, field))


def span_weight_distribution(
    rows: Sequence[Sequence[int]],
    field: Field,
    bound: int = DISTANCE_LIMIT,
    ncols: int | None = None,
) -> list[int]:
    """The weight distribution A_0, ..., A_ncols of the row span.

    A_w is the exact number of words of Hamming weight w. Each projective
    word stands for its q - 1 nonzero multiples, and the zero word is
    added. Raises when the span is larger than ``bound``. ``ncols`` is
    required when there are no rows (the span is then the zero word of
    that length).
    """
    import numpy as np

    ncols = _width(rows, ncols)
    basis = echelon(rows, field)
    _refuse_span(basis, field, bound)
    counts = np.zeros(ncols + 1, dtype=np.int64)
    if basis:
        for w in _projective_weights(basis, field):
            counts += np.bincount(w, minlength=ncols + 1)
    dist = [int(c) * (field.q - 1) for c in counts]
    dist[0] += 1
    return dist


class MacWilliamsError(FieldError):
    """A weight distribution that the MacWilliams transform cannot carry
    to a dual code."""


def _krawtchouk(j: int, i: int, n: int, q: int) -> int:
    """K_j(i) = sum_s (-1)^s (q - 1)^(j - s) C(i, s) C(n - i, j - s)."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(min(i, j) + 1)
    )


def macwilliams(weights: Sequence[int], n: int, q: int) -> list[int]:
    """The dual's weight distribution B_0..B_n from a code's A_0..A_n.

    B_j = (1/|C|) sum_i A_i K_j(i) with |C| = sum A and the Krawtchouk
    sums K_j(i) in exact integers (MacWilliams and Sloane, The Theory of
    Error-Correcting Codes, 1977, ch. 5). Raises ``MacWilliamsError``
    unless every sum is divisible by |C|, every B_j >= 0, B_0 = 1 and
    |C| * sum B = q^n, so a failure is never returned as a distribution.
    """
    if len(weights) != n + 1:
        raise ValueError(f"{len(weights)} weights given for length {n}")
    total = sum(weights)
    if total < 1:
        raise MacWilliamsError(f"weights sum to {total}, not a code size")
    out = []
    for j in range(n + 1):
        s = sum(a * _krawtchouk(j, i, n, q) for i, a in enumerate(weights) if a)
        b, r = divmod(s, total)
        if r or b < 0:
            raise MacWilliamsError(
                f"Krawtchouk sum {s} for B_{j} is not a nonnegative multiple of {total}"
            )
        out.append(b)
    if out[0] != 1 or total * sum(out) != q**n:
        raise MacWilliamsError(
            f"B_0 = {out[0]} and |C| * sum B = {total * sum(out)}; need 1 and {q**n}"
        )
    return out


def _digit_dtype(p: int):
    """The narrowest unsigned dtype that holds c*d + e exactly for digits < p."""
    import numpy as np

    for dtype in (np.uint8, np.uint16, np.uint32):
        if p * (p - 1) <= np.iinfo(dtype).max:
            return dtype
    return np.int64
