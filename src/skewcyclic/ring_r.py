"""The ring R = F_q + vF_q + v^2F_q with v^3 = v, for odd q.

An element is written uniquely as a + bv + cv^2 with a, b, c in F_q.
Because v^3 - v = v(v - 1)(v + 1) splits over any field of odd
characteristic, R decomposes as a product of three copies of F_q; the
splitting coordinates of r are its evaluations at v = 0, 1, -1, namely
(a, a+b+c, a-b+c). The orthogonal idempotents realizing the splitting are

    eta1 = 1 - v^2,   eta2 = (v + v^2)/2,   eta3 = (-v + v^2)/2.

The Gray map sends each coordinate of a vector over R to that same triple,
so the Gray image of r is literally its splitting coordinates; the Lee
weight of r is the Hamming weight of the triple. All values here are
immutable and all operations pure.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .finite_field import Field, FieldElem, FieldMismatch

RING_TABLE_LIMIT = 4096  # largest q^3 for which dense R op tables are built


class LengthNotDivisibleBy3(Exception):
    pass


class RingElem:
    """An element a + bv + cv^2 of R."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: FieldElem, b: FieldElem, c: FieldElem):
        field = a.field
        if (b.field is not field and b.field != field) or (
            c.field is not field and c.field != field
        ):
            raise FieldMismatch("components belong to different fields")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    @property
    def field(self) -> Field:
        return self.a.field

    def __add__(self, other: RingElem) -> RingElem:
        return RingElem(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: RingElem) -> RingElem:
        return RingElem(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> RingElem:
        return RingElem(-self.a, -self.b, -self.c)

    def __mul__(self, other: RingElem) -> RingElem:
        # expand (a+bv+cv^2)(a'+b'v+c'v^2) and reduce v^3 -> v, v^4 -> v^2
        a, b, c = self.a, self.b, self.c
        x, y, z = other.a, other.b, other.c
        return RingElem(
            a * x,
            a * y + b * x + b * z + c * y,
            a * z + b * y + c * x + c * z,
        )

    def frob(self, i: int) -> RingElem:
        """theta_i applied once: raise each of a, b, c to the p^i power."""
        return RingElem(self.a.frob(i), self.b.frob(i), self.c.frob(i))

    def scale_field(self, x: FieldElem) -> RingElem:
        """Multiplication by the scalar x + 0v + 0v^2."""
        return RingElem(self.a * x, self.b * x, self.c * x)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()

    def is_unit(self) -> bool:
        x1, x2, x3 = crt_split(self)
        return not (x1.is_zero() or x2.is_zero() or x3.is_zero())

    def inv(self) -> RingElem:
        x1, x2, x3 = crt_split(self)
        return crt_join(self.field, CrtTriple(x1.inv(), x2.inv(), x3.inv()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"RingElem(a={self.a}, b={self.b}, c={self.c})"

    def __str__(self):
        return f"{self.a}|{self.b}|{self.c}"


class CrtTriple(NamedTuple):
    """Splitting coordinates (evaluations of r at v = 0, 1, -1)."""

    x1: FieldElem
    x2: FieldElem
    x3: FieldElem


class RingDomain:
    """Coefficient-domain marker for polynomials over R (vs the base field)."""

    __slots__ = ("field", "zero", "one")

    def __init__(self, field: Field):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "zero", RingElem(field.zero, field.zero, field.zero))
        object.__setattr__(self, "one", RingElem(field.one, field.zero, field.zero))

    def __setattr__(self, name, value):
        raise AttributeError("RingDomain is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, RingDomain) and self.field == other.field

    def __hash__(self):
        return hash(("RingDomain", self.field))

    def __repr__(self):
        return f"RingDomain({self.field!r})"


class Idempotents(NamedTuple):
    eta1: RingElem
    eta2: RingElem
    eta3: RingElem


_idempotents_cache: dict[Field, Idempotents] = {}


def make_idempotents(field: Field) -> Idempotents:
    """The three orthogonal idempotents; the algebra is verified on first
    construction for each field and the result memoized."""
    cached = _idempotents_cache.get(field)
    if cached is not None:
        return cached
    one, zero = field.one, field.zero
    half = field.half
    eta1 = RingElem(one, zero, -one)
    eta2 = RingElem(zero, half, half)
    eta3 = RingElem(zero, -half, half)
    etas = Idempotents(eta1, eta2, eta3)
    r_zero = RingElem(zero, zero, zero)
    r_one = RingElem(one, zero, zero)
    for j, ej in enumerate(etas):
        for k, ek in enumerate(etas):
            expect = ej if j == k else r_zero
            assert ej * ek == expect, "idempotent algebra failed"
    assert eta1 + eta2 + eta3 == r_one, "idempotents do not sum to 1"
    _idempotents_cache[field] = etas
    return etas


def crt_split(r: RingElem) -> CrtTriple:
    a, b, c = r.a, r.b, r.c
    return CrtTriple(a, a + b + c, a - b + c)


def crt_join(field: Field, t: Sequence[FieldElem]) -> RingElem:
    """Inverse of crt_split: the element eta1*x1 + eta2*x2 + eta3*x3."""
    x1, x2, x3 = t
    half = field.half
    b = half * (x2 - x3)
    c = half * (x2 + x3) - x1
    return RingElem(x1, b, c)


def theta(r: RingElem, i: int) -> RingElem:
    """The automorphism a + bv + cv^2 -> a^{p^i} + v b^{p^i} + v^2 c^{p^i}."""
    r.field.check_aut_exponent(i)
    return r.frob(i)


def ring_zero(field: Field) -> RingElem:
    return RingElem(field.zero, field.zero, field.zero)


def ring_one(field: Field) -> RingElem:
    return RingElem(field.one, field.zero, field.zero)


def ring_elem(field: Field, a, b=0, c=0) -> RingElem:
    return RingElem(field.elem(a), field.elem(b), field.elem(c))


def ring_elements(field: Field, bound: int = 2**16) -> list[RingElem]:
    """All q^3 elements of R, ordered lexicographically on (a, b, c)."""
    from .finite_field import EnumerationTooLarge

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
        out.extend(crt_split(r))
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
        return sum(1 for x in crt_split(r) if not x.is_zero())
    return sum(lee_weight(x) for x in r)


def lee_distance(x, y) -> int:
    if isinstance(x, RingElem):
        return lee_weight(x - y)
    return sum(lee_weight(a - b) for a, b in zip(x, y, strict=True))


def hamming_distance(x: Sequence[FieldElem], y: Sequence[FieldElem]) -> int:
    return sum(1 for a, b in zip(x, y, strict=True) if a != b)


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


def ring_index(field: Field, r: RingElem) -> int:
    x1, x2, x3 = crt_split(r)
    q = field.q
    return field.index(x1) + q * field.index(x2) + q * q * field.index(x3)


def ring_from_index(field: Field, idx: int) -> RingElem:
    q = field.q
    x1, rest = idx % q, idx // q
    x2, x3 = rest % q, rest // q
    return crt_join(
        field,
        CrtTriple(field.from_index(x1), field.from_index(x2), field.from_index(x3)),
    )


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
