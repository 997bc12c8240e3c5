"""Exact arithmetic in F_q = F_{p^m} for odd primes p.

The field is represented as Z_p[w]/(f(w)) with f monic irreducible of
degree m; elements are coefficient vectors in the basis 1, w, ..., w^{m-1}.
Everything is integer arithmetic mod p, so all results are exact.

A ``Field``'s defining data (p, m, modulus) never changes after
construction; its caches are filled lazily, without locks, and
idempotently (see ``Field``). ``FieldElem`` values are plain immutable
data and all operations are pure functions.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

ENUMERATION_LIMIT = 2**16
TABLE_LIMIT = 4096  # largest q for which dense int op tables are built


class FieldError(Exception):
    """Base class for field construction and arithmetic errors."""


class NotPrime(FieldError):
    pass


class EvenCharacteristic(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class DegreeMismatch(FieldError):
    pass


class ZeroInverse(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class InvalidExponent(FieldError):
    pass


class EnumerationTooLarge(FieldError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# coefficient-vector helpers over Z_p (ascending degree, plain int lists)


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul_modp(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_divmod_modp(f: Sequence[int], g: Sequence[int], p: int):
    """Quotient and remainder of f by g over Z_p; g must be nonzero."""
    f = list(f)
    _poly_trim(f)
    dg = len(g) - 1
    inv_lc = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        c = (f[-1] * inv_lc) % p
        q[k] = c
        for j in range(dg + 1):
            f[k + j] = (f[k + j] - c * g[j]) % p
        _poly_trim(f)
    return q, f


def _poly_has_root_modp(f: Sequence[int], p: int) -> bool:
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def _monic_polys_modp(degree: int, p: int) -> Iterable[list[int]]:
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible_modp(f: Sequence[int], p: int) -> bool:
    """Exact irreducibility test over Z_p at desk scale.

    Degree <= 3 reduces to a root search; beyond that we trial-divide by
    every monic polynomial of degree at most deg(f)/2.
    """
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if _poly_has_root_modp(f, p):
        return False
    if deg <= 3:
        return True
    for d in range(2, deg // 2 + 1):
        for g in _monic_polys_modp(d, p):
            _, rem = _poly_divmod_modp(f, g, p)
            if not rem:
                return False
    return True


class FieldElem:
    """An element of F_{p^m}, stored as m residues mod p (ascending degree)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        if len(coeffs) != field.m:
            raise DegreeMismatch(
                f"expected {field.m} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(c % field.p for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def _check(self, other: FieldElem) -> None:
        if not isinstance(other, FieldElem):
            raise FieldMismatch("operand is not a field element")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        p = self.field.p
        return _raw_elem(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        p = self.field.p
        return _raw_elem(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> FieldElem:
        p = self.field.p
        return _raw_elem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return _raw_elem(
            self.field, tuple(self.field._mul_coeffs(self.coeffs, other.coeffs))
        )

    def inv(self) -> FieldElem:
        """Multiplicative inverse via extended Euclid on coefficient polynomials."""
        if self.is_zero():
            raise ZeroInverse("0 has no multiplicative inverse")
        return FieldElem(self.field, self.field._inv_coeffs(self.coeffs))

    def frob(self, i: int) -> FieldElem:
        """One application of the automorphism a -> a^{p^i} (i need not divide m)."""
        return self.field.frob_pow(self, i)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FieldElem({list(self.coeffs)})"

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def _raw_elem(field, coeffs: tuple) -> FieldElem:
    """Fast constructor for already-reduced coefficient tuples."""
    e = object.__new__(FieldElem)
    object.__setattr__(e, "field", field)
    object.__setattr__(e, "coeffs", coeffs)
    return e


class FieldTables:
    """Dense integer operation tables for a small field.

    Elements are indexed by their position in the canonical enumeration
    (lexicographic on ascending-degree coefficient vectors), so index 0 is
    always the zero element. ``inv[0]`` is 0 as a sentinel; callers must
    not invert zero.
    """

    __slots__ = ("q", "zero", "one", "add", "sub", "mul", "neg", "inv", "_frob")

    def __init__(self, field: Field):
        q = field.q
        elems = field.elements()
        self.q = q
        self.zero = 0
        self.one = field.index(field.one)
        self.add = [[0] * q for _ in range(q)]
        self.sub = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        self.neg = [0] * q
        self.inv = [0] * q
        for a in range(q):
            ea = elems[a]
            self.neg[a] = field.index(-ea)
            if a != 0:
                self.inv[a] = field.index(ea.inv())
            for b in range(q):
                eb = elems[b]
                self.add[a][b] = field.index(ea + eb)
                self.sub[a][b] = field.index(ea - eb)
                self.mul[a][b] = field.index(ea * eb)
        self._frob: dict[int, list[int]] = {}

    def frob(self, i: int) -> list[int]:
        return self._frob[i]


class Field:
    """The finite field F_{p^m} as Z_p[w]/(f(w)).

    For m = 1 the canonical modulus [0, 1] is recorded and the
    irreducibility check is skipped; elements are single residues.

    The caches ``_tables``, ``_half`` and ``_frob_rows`` (and the Frobenius
    index tables inside ``FieldTables``) are filled lazily, without locks,
    and idempotently: each entry is a deterministic function of the field,
    so a concurrent or repeated fill writes an equal value.
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic must be odd")
        if m < 1:
            raise DegreeMismatch("extension degree must be positive")
        if m == 1:
            modulus = (0, 1)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1:
                raise DegreeMismatch(
                    f"modulus must have {m + 1} coefficients, got {len(modulus)}"
                )
            if modulus[-1] != 1:
                raise DegreeMismatch("modulus must be monic")
            if not _is_irreducible_modp(modulus, p):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} is reducible over Z_{p}"
                )
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(modulus)
        # reduction rows: w^{m+j} expressed in the basis, for j = 0..m-2
        self._red = []
        if m > 1:
            row = [(-c) % p for c in modulus[:m]]
            self._red.append(row)
            for _ in range(m - 2):
                prev = self._red[-1]
                row = [0] + prev[:-1]
                top = prev[-1]
                if top:
                    row = [(row[t] + top * self._red[0][t]) % p for t in range(m)]
                self._red.append(row)
        self.zero = FieldElem(self, [0] * m)
        self.one = FieldElem(self, [1] + [0] * (m - 1))
        self._tables: FieldTables | None = None
        self._half: FieldElem | None = None
        self._frob_rows: dict[int, list[list[int]]] = {}

    @property
    def half(self) -> FieldElem:
        """The inverse of 2 (exists since p is odd); memoized."""
        if self._half is None:
            self._half = self.elem(2).inv()
        return self._half

    # -- construction helpers ------------------------------------------------

    def elem(self, coeffs) -> FieldElem:
        """Build an element from a coefficient sequence or a plain integer."""
        if isinstance(coeffs, FieldElem):
            if coeffs.field != self:
                raise FieldMismatch("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            return FieldElem(self, [coeffs] + [0] * (self.m - 1))
        return FieldElem(self, coeffs)

    @property
    def gen(self) -> FieldElem:
        """The adjoined root w (only meaningful for m >= 2)."""
        if self.m == 1:
            return self.one
        return FieldElem(self, [0, 1] + [0] * (self.m - 2))

    # -- internal coefficient arithmetic --------------------------------------

    def _mul_coeffs(self, a: tuple, b: tuple) -> list[int]:
        p, m = self.p, self.m
        if m == 1:
            return [(a[0] * b[0]) % p]
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:m]
        for j in range(m - 1):
            c = conv[m + j]
            if c:
                red = self._red[j]
                for t in range(m):
                    out[t] = (out[t] + c * red[t]) % p
        return out

    def _inv_coeffs(self, a: tuple) -> list[int]:
        p = self.p
        if self.m == 1:
            return [pow(a[0], p - 2, p)]
        # extended Euclid in Z_p[w]: r0 = modulus, r1 = a
        r0, s0 = list(self.modulus), []
        r1, s1 = _poly_trim(list(a)), [1]
        while r1:
            q, r = _poly_divmod_modp(r0, r1, p)
            s = [x % p for x in self._poly_sub(s0, _poly_mul_modp(q, s1, p), p)]
            r0, s0, r1, s1 = r1, s1, r, _poly_trim(s)
        # r0 is gcd (a nonzero constant since modulus is irreducible)
        c = pow(r0[0], p - 2, p)
        out = [(c * x) % p for x in s0]
        out += [0] * (self.m - len(out))
        return out[: self.m]

    @staticmethod
    def _poly_sub(f: list[int], g: list[int], p: int) -> list[int]:
        n = max(len(f), len(g))
        return [
            ((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
            for i in range(n)
        ]

    # -- the Frobenius power maps ---------------------------------------------

    def frobenius(self, x: FieldElem, i: int) -> FieldElem:
        """theta_i : a -> a^{p^i}. Requires i positive and dividing m."""
        self.check_aut_exponent(i)
        return self.frob_pow(x, i)

    def check_aut_exponent(self, i: int) -> int:
        """Validate an automorphism exponent and return the order t_i = m / i."""
        if not isinstance(i, int) or i < 1 or self.m % i != 0:
            raise InvalidExponent(f"exponent {i} does not divide m = {self.m}")
        return self.m // i

    def frob_pow(self, x: FieldElem, e: int) -> FieldElem:
        """x^{p^e} for any e >= 0 (e is reduced mod m).

        The map is F_p-linear, so x = sum x_j w^j goes to sum x_j (w^j)^{p^e}:
        an m x m matrix mod p whose rows are memoized per e.
        """
        if x.field is not self and x.field != self:
            raise FieldMismatch("element belongs to a different field")
        e %= self.m
        if e == 0 or self.m == 1:
            return x
        p, m = self.p, self.m
        rows = self._frob_rows.get(e)
        if rows is None:
            basis = [[int(j == k) for k in range(m)] for j in range(m)]
            rows = self._frob_rows[e] = [
                list(self._pow(FieldElem(self, b), p**e).coeffs) for b in basis
            ]
        out = [0] * m
        for xj, row in zip(x.coeffs, rows):
            if xj:
                for t, r in enumerate(row):
                    out[t] += xj * r
        return _raw_elem(self, tuple(c % p for c in out))

    def _pow(self, x: FieldElem, e: int) -> FieldElem:
        out = self.one
        base = x
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- enumeration and indexing ----------------------------------------------

    def elements(self, bound: int = ENUMERATION_LIMIT) -> list[FieldElem]:
        """All q elements, in lexicographic order on coefficient vectors."""
        if self.q > bound:
            raise EnumerationTooLarge(f"q = {self.q} exceeds bound {bound}")
        return [
            FieldElem(self, coeffs)
            for coeffs in itertools.product(range(self.p), repeat=self.m)
        ]

    def index(self, x: FieldElem) -> int:
        """Position of x in the canonical enumeration (0 is the zero element)."""
        idx = 0
        for c in x.coeffs:
            idx = idx * self.p + c
        return idx

    def from_index(self, idx: int) -> FieldElem:
        coeffs = [0] * self.m
        for j in range(self.m - 1, -1, -1):
            idx, coeffs[j] = divmod(idx, self.p)
        return FieldElem(self, coeffs)

    def tables(self) -> FieldTables:
        """Dense int operation tables (memoized; rebuilding is idempotent)."""
        if self._tables is None:
            if self.q > TABLE_LIMIT:
                raise EnumerationTooLarge(
                    f"q = {self.q} too large for operation tables"
                )
            self._tables = FieldTables(self)
        return self._tables

    def frob_table(self, i: int) -> list[int]:
        """Index table of one application of theta_i."""
        t = self.tables()
        if i not in t._frob:
            t._frob[i] = [
                self.index(self.frob_pow(self.from_index(a), i))
                for a in range(self.q)
            ]
        return t._frob[i]

    def fixed_subfield(self, i: int) -> list[FieldElem]:
        """The elements fixed by theta_i, i.e. the subfield F_{p^i}."""
        self.check_aut_exponent(i)
        fixed = [x for x in self.elements() if self.frob_pow(x, i) == x]
        assert len(fixed) == self.p**i
        return fixed

    # -- equality / formatting ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def spec_string(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p},m={self.m},mod={mod}"


def field_new(p: int, m: int, modulus: Sequence[int]) -> Field:
    """Construct and validate F_{p^m} = Z_p[w]/(f(w))."""
    return Field(p, m, modulus)


def frobenius(x: FieldElem, i: int) -> FieldElem:
    return x.field.frobenius(x, i)


def elements(field: Field, bound: int = ENUMERATION_LIMIT) -> list[FieldElem]:
    return field.elements(bound)


# ---------------------------------------------------------------------------
# text formats: `p=3,m=2,mod=1,0,1` for fields, `[c0,c1,...]` for elements


def field_from_string(s: str) -> Field:
    parts = [t.strip() for t in s.strip().split(",")]
    p = m = None
    mod: list[int] = []
    in_mod = False
    for tok in parts:
        if tok.startswith("p="):
            p = int(tok[2:])
            in_mod = False
        elif tok.startswith("m="):
            m = int(tok[2:])
            in_mod = False
        elif tok.startswith("mod="):
            mod = [int(tok[4:])]
            in_mod = True
        elif in_mod:
            mod.append(int(tok))
        else:
            raise ValueError(f"unrecognized field spec token {tok!r}")
    if p is None or m is None:
        raise ValueError("field spec must provide p= and m=")
    if m == 1 and not mod:
        mod = [0, 1]
    return Field(p, m, mod)


def elem_from_string(field: Field, s: str) -> FieldElem:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"element must be a bracket list, got {s!r}")
    body = s[1:-1].strip()
    coeffs = [int(t) for t in body.split(",")] if body else []
    if len(coeffs) < field.m:
        coeffs += [0] * (field.m - len(coeffs))
    return field.elem(coeffs)
