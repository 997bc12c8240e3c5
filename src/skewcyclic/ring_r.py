"""The ring R = F_q + vF_q + v^2F_q with v^3 = v, for odd q.

An element is written uniquely as a + bv + cv^2 with a, b, c in F_q.
Because v^3 - v = v(v - 1)(v + 1) splits over any field of odd
characteristic, R decomposes as a product of three copies of F_q; the
splitting coordinates of r are its evaluations at v = 0, 1, -1, namely
(a, a+b+c, a-b+c). The orthogonal idempotents realizing the splitting are

    eta1 = 1 - v^2,   eta2 = (v + v^2)/2,   eta3 = (-v + v^2)/2.

The Gray map sends each coordinate of a vector over R to that same triple,
so the Gray image of r is literally its splitting coordinates; the Lee
weight of r is the Hamming weight of the triple. A ``RingElem`` stores
that triple, so R arithmetic is F_q arithmetic in each coordinate and the
a + bv + cv^2 form is computed only for text. All values here are
immutable and all operations pure.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .finite_field import ENUMERATION_LIMIT, EnumerationTooLarge, Field, FieldElem, FieldMismatch

RING_TABLE_LIMIT = 4096  # largest q^3 for which dense R op tables are built


class LengthNotDivisibleBy3(Exception):
    pass


class RingElem:
    """An element a + bv + cv^2 of R, stored as its splitting coordinates.

    The slots x1, x2, x3 hold the evaluations at v = 0, 1, -1, namely
    (a, a+b+c, a-b+c); every ring operation acts on them coordinatewise.
    ``RingElem(a, b, c)`` computes them once, and the properties ``a``,
    ``b``, ``c`` invert the splitting for text I/O.
    """

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, a: FieldElem, b: FieldElem, c: FieldElem):
        # field arithmetic raises FieldMismatch on components of different fields
        a_plus_c = a + c
        _set_x1(self, a)
        _set_x2(self, a_plus_c + b)
        _set_x3(self, a_plus_c - b)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    def __delattr__(self, name):
        raise AttributeError("RingElem is immutable")

    @property
    def field(self) -> Field:
        return self.x1.field

    @property
    def a(self) -> FieldElem:
        return self.x1

    @property
    def b(self) -> FieldElem:
        return self.field.half * (self.x2 - self.x3)

    @property
    def c(self) -> FieldElem:
        return self.field.half * (self.x2 + self.x3) - self.x1

    def __add__(self, other: RingElem) -> RingElem:
        return _split_elem(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: RingElem) -> RingElem:
        return _split_elem(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> RingElem:
        return _split_elem(-self.x1, -self.x2, -self.x3)

    def __mul__(self, other: RingElem) -> RingElem:
        return _split_elem(self.x1 * other.x1, self.x2 * other.x2, self.x3 * other.x3)

    def frob(self, i: int) -> RingElem:
        """theta_i applied once: the p^i power map on a, b, c.

        Frobenius is additive and fixes +-1, so it commutes with the
        splitting and acts on each coordinate.
        """
        frob_pow = self.x1.field.frob_pow
        return _split_elem(frob_pow(self.x1, i), frob_pow(self.x2, i), frob_pow(self.x3, i))

    def scale_field(self, x: FieldElem) -> RingElem:
        """Multiplication by the scalar x + 0v + 0v^2, which splits to (x, x, x)."""
        return _split_elem(self.x1 * x, self.x2 * x, self.x3 * x)

    def is_zero(self) -> bool:
        return self.x1.is_zero() and self.x2.is_zero() and self.x3.is_zero()

    def inv(self) -> RingElem:
        return _split_elem(self.x1.inv(), self.x2.inv(), self.x3.inv())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and self.x1 == other.x1
            and self.x2 == other.x2
            and self.x3 == other.x3
        )

    def __hash__(self):
        return hash((self.x1, self.x2, self.x3))

    def __repr__(self):
        return f"RingElem(a={self.a}, b={self.b}, c={self.c})"

    def __str__(self):
        return f"{self.a}|{self.b}|{self.c}"


_set_x1 = RingElem.x1.__set__
_set_x2 = RingElem.x2.__set__
_set_x3 = RingElem.x3.__set__


def _split_elem(x1: FieldElem, x2: FieldElem, x3: FieldElem) -> RingElem:
    """The element with splitting coordinates (x1, x2, x3); no arithmetic.

    The coordinates must belong to one field; callers guarantee it.
    """
    r = object.__new__(RingElem)
    _set_x1(r, x1)
    _set_x2(r, x2)
    _set_x3(r, x3)
    return r


class CrtTriple(NamedTuple):
    """Splitting coordinates (evaluations of r at v = 0, 1, -1)."""

    x1: FieldElem
    x2: FieldElem
    x3: FieldElem


class Idempotents(NamedTuple):
    eta1: RingElem
    eta2: RingElem
    eta3: RingElem


def make_idempotents(field: Field) -> Idempotents:
    """The three orthogonal idempotents, memoized on the field.

    eta_j splits to the j-th unit vector, so the algebra
    eta_j eta_k = delta_jk eta_j and eta1 + eta2 + eta3 = 1 holds by
    construction; the oracle checks the splitting itself.
    """
    etas = field._idempotents
    if etas is None:
        one, zero = field.one, field.zero
        etas = field._idempotents = Idempotents(
            _split_elem(one, zero, zero),
            _split_elem(zero, one, zero),
            _split_elem(zero, zero, one),
        )
    return etas


def crt_split(r: RingElem) -> CrtTriple:
    """The splitting coordinates (a, a+b+c, a-b+c) that r stores."""
    return CrtTriple(r.x1, r.x2, r.x3)


def crt_join(field: Field, t: Sequence[FieldElem]) -> RingElem:
    """Inverse of crt_split: the element eta1*x1 + eta2*x2 + eta3*x3."""
    x1, x2, x3 = t
    for x in (x1, x2, x3):
        if x.field is not field and x.field != field:
            raise FieldMismatch("coordinate belongs to a different field")
    return _split_elem(x1, x2, x3)


def ring_zero(field: Field) -> RingElem:
    return _split_elem(field.zero, field.zero, field.zero)


def ring_one(field: Field) -> RingElem:
    return _split_elem(field.one, field.one, field.one)


def ring_elem(field: Field, a, b=0, c=0) -> RingElem:
    return RingElem(field.elem(a), field.elem(b), field.elem(c))


def ring_elements(field: Field, bound: int = ENUMERATION_LIMIT) -> list[RingElem]:
    """All q^3 elements of R, ordered lexicographically on (a, b, c)."""
    if field.q**3 > bound:
        raise EnumerationTooLarge(f"|R| = {field.q**3} exceeds bound {bound}")
    elems = field.elements()
    return [RingElem(a, b, c) for a in elems for b in elems for c in elems]


# ---------------------------------------------------------------------------
# Gray map and Lee weight


def gray_map(vec: Sequence[RingElem]) -> tuple[FieldElem, ...]:
    """Per coordinate emit (a, a+b+c, a-b+c), concatenated in source order."""
    out: list[FieldElem] = []
    for r in vec:
        out += (r.x1, r.x2, r.x3)
    return tuple(out)


def gray_inverse(field: Field, vec: Sequence[FieldElem]) -> tuple[RingElem, ...]:
    if len(vec) % 3 != 0:
        raise LengthNotDivisibleBy3(f"length {len(vec)} is not a multiple of 3")
    return tuple(
        crt_join(field, vec[3 * i : 3 * i + 3]) for i in range(len(vec) // 3)
    )


def lee_weight(r) -> int:
    """Hamming weight of the Gray triple; extends to vectors by summation."""
    if isinstance(r, RingElem):
        return (not r.x1.is_zero()) + (not r.x2.is_zero()) + (not r.x3.is_zero())
    return sum(lee_weight(x) for x in r)


def lee_distance(x, y) -> int:
    """lee_weight(x - y): the split coordinates where x and y differ.

    Raises ``FieldMismatch`` for coordinates over different fields, as
    their difference does, and ``ValueError`` for vectors of unequal
    length.
    """
    if isinstance(x, RingElem):
        x, y = (x,), (y,)
    d = 0
    for a, b in zip(x, y, strict=True):
        a1, b1 = a.x1, b.x1
        if a1.field is not b1.field and a1.field != b1.field:
            raise FieldMismatch("operands belong to different fields")
        d += (a1.idx != b1.idx) + (a.x2.idx != b.x2.idx) + (a.x3.idx != b.x3.idx)
    return d


# ---------------------------------------------------------------------------
# dense integer tables for hot loops (oracle enumeration)
#
# An R element is encoded as x1 + q*x2 + q^2*x3 in its splitting
# coordinates, so addition, multiplication and theta all act digitwise.


class RingTables:
    __slots__ = ("q", "size", "zero", "one", "add", "lee", "_frob", "_field")

    def __init__(self, field: Field):
        from .finite_field import EnumerationTooLarge

        q = field.q
        if q**3 > RING_TABLE_LIMIT:
            raise EnumerationTooLarge(f"|R| = {q**3} too large for tables")
        ft = field.tables()
        self.q = q
        size = q**3
        self.size = size
        self.zero = 0
        self.one = ft.one * (1 + q + q * q)
        self.add = [[0] * size for _ in range(size)]
        self.lee = [0] * size
        for r in range(size):
            r1, rest = r % q, r // q
            r2, r3 = rest % q, rest // q
            self.lee[r] = (r1 != 0) + (r2 != 0) + (r3 != 0)
            fadd = ft.add
            for s in range(size):
                s1, srest = s % q, s // q
                s2, s3 = srest % q, srest // q
                self.add[r][s] = (
                    fadd[r1][s1] + q * fadd[r2][s2] + q * q * fadd[r3][s3]
                )
        self._frob: dict[int, list[int]] = {}
        self._field = field

    def frob(self, i: int) -> list[int]:
        if i not in self._frob:
            q = self.q
            f = self._field.frob_table(i)
            self._frob[i] = [
                f[r % q] + q * f[(r // q) % q] + q * q * f[r // (q * q)]
                for r in range(self.size)
            ]
        return self._frob[i]


_ring_tables_cache: dict[Field, RingTables] = {}


def ring_tables(field: Field) -> RingTables:
    if field not in _ring_tables_cache:
        _ring_tables_cache[field] = RingTables(field)
    return _ring_tables_cache[field]


# ---------------------------------------------------------------------------
# text formats: `a|b|c` with bracket lists, vectors semicolon-separated


def ring_elem_from_string(field: Field, s: str) -> RingElem:
    from .finite_field import elem_from_string

    parts = s.strip().split("|")
    if len(parts) != 3:
        raise ValueError(f"ring element must be a|b|c, got {s!r}")
    a, b, c = (elem_from_string(field, t) for t in parts)
    return RingElem(a, b, c)


def ring_vector_from_string(field: Field, s: str) -> tuple[RingElem, ...]:
    return tuple(
        ring_elem_from_string(field, t) for t in s.strip().split(";") if t.strip()
    )


def ring_vector_to_string(vec: Sequence[RingElem]) -> str:
    return ";".join(str(r) for r in vec)
