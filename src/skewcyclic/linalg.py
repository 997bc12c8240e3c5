"""Exact linear algebra over F_q on integer-indexed matrices.

Rows are lists of element indices (see Field.index); all elimination is
table-driven and exact. The span enumerators expand F_q-vectors into
base-p digit vectors so that bulk enumeration can run through numpy in
chunks while staying exact integer arithmetic mod p.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .finite_field import EnumerationTooLarge, Field, FieldElem

_BLOCK_BYTES = 1 << 22  # bytes of words per numpy block in span enumeration


def to_index_rows(rows: Sequence[Sequence[FieldElem]], field: Field) -> list[list[int]]:
    return [[field.index(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[int]], field: Field) -> list[list[int]]:
    """Reduced row echelon form; returns the nonzero rows (canonical basis)."""
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


def rank(rows: Sequence[Sequence[int]], field: Field) -> int:
    return len(rref(rows, field))


def nullspace(
    rows: Sequence[Sequence[int]], field: Field, ncols: int | None = None
) -> list[list[int]]:
    """Canonical basis of {y : M y^T = 0} for the row matrix M.

    ``ncols`` is required when the matrix has no rows (the kernel is then
    the whole space).
    """
    t = field.tables()
    red = rref(rows, field)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
    else:
        ncols = len(rows[0])
    pivots = []
    for r in red:
        for c, x in enumerate(r):
            if x != 0:
                pivots.append(c)
                break
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        y = [0] * ncols
        y[j] = t.one
        for r, pc in zip(red, pivots):
            y[pc] = t.neg[r[j]]
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
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    t = field.tables()
    basis = rref(rows, field)
    size = field.q ** len(basis)
    if size > bound:
        raise EnumerationTooLarge(f"span size {size} exceeds bound {bound}")
    scaled = [[[t.mul[c][x] for x in row] for c in range(field.q)] for row in basis]
    out = {tuple([0] * ncols)}
    words = [tuple([0] * ncols)]
    add = t.add
    for srow in scaled:
        new_words = []
        for w in words:
            for sc in srow[1:]:
                nw = tuple(add[a][b] for a, b in zip(w, sc))
                new_words.append(nw)
        words.extend(new_words)
        out.update(new_words)
    return out


def _digit_rows(basis: list[list[int]], field: Field) -> np.ndarray:
    """Expand an F_q basis into a Z_p basis of the same span, as digit rows.

    Row r becomes the m rows w^j * r, each flattened to its m base-p digits
    per coordinate, so the Z_p span of the result is the digit image of the
    F_q span.
    """
    m = field.m
    out = []
    for row in basis:
        elems = [field.from_index(i) for i in row]
        scale = field.one
        for _ in range(m):
            scaled = [scale * e for e in elems]
            out.append([d for e in scaled for d in e.coeffs])
            scale = scale * field.gen if m > 1 else scale
    return np.array(out, dtype=np.int64)


def span_min_weight(
    rows: Sequence[Sequence[int]], field: Field, bound: int = 10**6
) -> int | None:
    """Minimum Hamming weight over the nonzero vectors of the row span.

    Weight counts nonzero F_q coordinates. Returns None when the span is
    the zero space. Exhaustive and exact; raises when the span is larger
    than ``bound``.

    Scaling a word does not change its weight, so only the words whose
    first nonzero coefficient on the RREF basis is 1 are enumerated:
    (q^k - 1)/(q - 1) of the q^k words.
    """
    basis = rref(rows, field)
    if not basis:
        return None
    size = field.q ** len(basis)
    if size > bound:
        raise EnumerationTooLarge(f"span size {size} exceeds bound {bound}")
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
    best = None
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
            nz = words.reshape(len(words), ncoords, m).any(axis=2).sum(axis=1)
            w = int(nz.min())
            if best is None or w < best:
                best = w
    return best


def _digit_dtype(p: int):
    """The narrowest unsigned dtype that holds c*d + e exactly for digits < p."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if p * (p - 1) <= np.iinfo(dtype).max:
            return dtype
    return np.int64
