"""Exact arithmetic in F_q = F_{p^m} for odd primes p, and the commutative
polynomial lane over its subfields.

The field is represented as Z_p[w]/(f(w)) with f monic irreducible of
degree m; elements are coefficient vectors in the basis 1, w, ..., w^{m-1}.
Everything is integer arithmetic mod p, so all results are exact.

Every ``FieldElem`` carries its canonical index ``idx`` (its base-p
digits, c_0 first), the form in which the package computes below text I/O.
Element arithmetic has one path: every operation (+ - * neg inv frob)
reads the field's ``LogTable`` of O(q) ints, built on first use from the
powers of a generator, and returns an interned element. The powers are
computed in pure Python, so the field layer never loads numpy. Fields past
ENUMERATION_LIMIT are constructed, checked and printed, but their
arithmetic raises ``EnumerationTooLarge``; ``linalg`` eliminates on the
same table. For q <= TABLE_LIMIT, ``Field.tables()`` expands it into dense
q x q index lists for two readers only: the oracle, as its own reference
arithmetic, and the numpy divisor search, which gathers from them.

Commutative polynomials (moduli, and F_{p^i}[x] inside F_q[x, theta_i])
have one lane: ``Field.subfield(i)``, index lists over F_{p^i} with
quotient and remainder, product, gcd, the extended Euclidean algorithm
and Rabin's irreducibility test (SIAM J. Comput. 9, 1980). For i = 1 it
is arithmetic mod p and never enumerates F_q; for i > 1 it reads dense
tables from strided reads of the field's table.
Every modulus is checked by Rabin's test on the lane over Z_p, once per
process.

A ``Field``'s defining data (p, m, modulus) never changes after
construction; its caches are filled lazily, without locks, and
idempotently (see ``Field``). ``FieldElem`` values are plain immutable
data and all operations are pure functions.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

ENUMERATION_LIMIT = 2**16
TABLE_LIMIT = 4096  # largest q with dense tables (oracle, divisor search), or subfield order p^i


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


class NotAnInteger(FieldError):
    """p, m or a modulus coefficient that is not an integer (bools included)."""


def _prime_divisors(d: int) -> list[int]:
    out, r = [], 2
    while r * r <= d:
        if d % r == 0:
            out.append(r)
            while d % r == 0:
                d //= r
        r += 1
    return out + ([d] if d > 1 else [])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def _is_irreducible_modp(f: Sequence[int], p: int) -> bool:
    """Rabin's test over Z_p for the monic f (ascending degree), run once
    per (f mod p, p) in a process."""
    return _rabin_verdict(tuple(c % p for c in f), p)


@functools.lru_cache(maxsize=1024)
def _rabin_verdict(f: tuple[int, ...], p: int) -> bool:
    return PrimeSubfield(p).is_irreducible(list(f))


class FieldElem:
    """An element of F_{p^m}: m residues mod p (ascending degree) and its
    canonical index ``idx`` (base-p digits, c_0 first).

    Every operation reads the field's ``LogTable`` and returns the field's
    interned element for the result. The binary operations read the table
    directly when both operands hold the same field object and otherwise
    let ``_check`` validate the operand first.
    """

    __slots__ = ("field", "coeffs", "idx")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        if len(coeffs) != field.m:
            raise DegreeMismatch(
                f"expected {field.m} coefficients, got {len(coeffs)}"
            )
        p, idx = field.p, 0
        reduced = tuple(c % p for c in coeffs)
        for c in reduced:  # the canonical index: base-p digits, c_0 first
            idx = idx * p + c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", reduced)
        object.__setattr__(self, "idx", idx)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElem is immutable")

    def _check(self, other: FieldElem) -> LogTable:
        """Validate the operand; return the field's table."""
        if not isinstance(other, FieldElem):
            raise FieldMismatch("operand is not a field element")
        field = self.field
        if field is not other.field and field != other.field:
            raise FieldMismatch("operands belong to different fields")
        return field.log_table()

    def __add__(self, other: FieldElem) -> FieldElem:
        t = self.field._log
        if t is None or other.__class__ is not FieldElem or other.field is not self.field:
            t = self._check(other)
        return t.elems[t.add(self.idx, other.idx)]

    def __sub__(self, other: FieldElem) -> FieldElem:
        t = self.field._log
        if t is None or other.__class__ is not FieldElem or other.field is not self.field:
            t = self._check(other)
        return t.elems[t.add(self.idx, t.neg[other.idx])]

    def __neg__(self) -> FieldElem:
        t = self.field._log or self.field.log_table()
        return t.elems[t.neg[self.idx]]

    def __mul__(self, other: FieldElem) -> FieldElem:
        t = self.field._log
        if t is None or other.__class__ is not FieldElem or other.field is not self.field:
            t = self._check(other)
        log = t.log
        return t.elems[t.exp[log[self.idx] + log[other.idx]]]

    def inv(self) -> FieldElem:
        """Multiplicative inverse: g^{-log a}."""
        if self.idx == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        t = self.field._log or self.field.log_table()
        return t.elems[t.exp[self.field.q - 1 - t.log[self.idx]]]

    def frob(self, i: int) -> FieldElem:
        """One application of the automorphism a -> a^{p^i} (i need not divide m)."""
        return self.field.frob_pow(self, i)

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FieldElem)
            and self.idx == other.idx
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash(self.idx)

    def __repr__(self):
        return f"FieldElem({list(self.coeffs)})"

    def __str__(self):
        return self.field.index_text(self.idx)


_set_field = FieldElem.field.__set__
_set_coeffs = FieldElem.coeffs.__set__
_set_idx = FieldElem.idx.__set__


def _interned(field: Field, coeffs: tuple, idx: int) -> FieldElem:
    """The element with reduced coefficients ``coeffs`` and their canonical
    index ``idx``; nothing is checked or derived, callers guarantee both."""
    x = object.__new__(FieldElem)
    _set_field(x, field)
    _set_coeffs(x, coeffs)
    _set_idx(x, idx)
    return x


def _pow_coeffs(field: Field, c: tuple, e: int) -> tuple:
    """c^e by square-and-multiply on ``_mul_coeffs``."""
    out = field.one.coeffs
    while e:
        if e & 1:
            out = tuple(field._mul_coeffs(out, c))
        c, e = tuple(field._mul_coeffs(c, c)), e >> 1
    return out


def _first_generator(field: Field) -> tuple[int, tuple]:
    """The index and coefficients of the first generator of F_q^* in index
    order: the first c with c^{(q-1)/r} != 1 for every prime r | q - 1."""
    n, one = field.q - 1, field.one.coeffs
    tests = [n // r for r in _prime_divisors(n)]
    coeffs = itertools.product(range(field.p), repeat=field.m)
    for idx, c in enumerate(coeffs):
        if idx and all(_pow_coeffs(field, c, e) != one for e in tests):
            return idx, c


def _power_indices(field: Field, g: tuple) -> list[int]:
    """The indices of g^0, ..., g^{q-2}: each power is the previous one
    times the m x m matrix over F_p of multiplication by g, whose column j
    holds the coefficients of w^j g.

    Each column is packed into one int, s bits per coefficient, wide enough
    that the product's unreduced coefficients (at most m (p-1)^2) do not
    carry; so the product is one integer dot product, then m reductions.
    """
    p, m, n = field.p, field.m, field.q - 1
    basis = [tuple(int(j == k) for k in range(m)) for j in range(m)]
    s = (m * (p - 1) ** 2).bit_length()
    cols = [sum(d << s * k for k, d in enumerate(field._mul_coeffs(b, g))) for b in basis]
    mask, shifts = (1 << s) - 1, range(0, s * m, s)
    places = [p ** (m - 1 - k) for k in range(m)]  # c_0 is the leading digit
    c, out = basis[0], []
    for _ in range(n):
        out.append(sum(map(operator.mul, places, c)))
        v = sum(map(operator.mul, c, cols))
        c = [(v >> k & mask) % p for k in shifts]
    return out


def _dense_tables(exp: list[int], zech: list[int]) -> tuple[list, list, list]:
    """Dense ``mul``, ``add`` and ``inv`` on the positions 0..Q-1 of F_Q
    (0 is zero), from ``exp[k]``, the position of g^k for a generator g of
    F_Q^*, and ``zech[k]``, the position of 1 + g^k (0 where g^k = -1):
    ab = g^(log a + log b) and a + b = a (1 + b/a)."""
    n = len(exp)
    log = [0] * (n + 1)
    for k, a in enumerate(exp):
        log[a] = k
    exp = exp + exp
    mul = [[0] * (n + 1)] + [[0] + [exp[la + lb] for lb in log[1:]] for la in log[1:]]
    add = [list(range(n + 1))]
    for a in range(1, n + 1):  # a negative index wraps mod n
        row, la = mul[a], log[a]
        add.append([a] + [row[zech[lb - la]] for lb in log[1:]])
    inv = [0] + [exp[n - la] for la in log[1:]]
    return mul, add, inv


class LogTable:
    """The O(q) table of F_q that every element operation reads.

    ``gen`` is the index of g, the first generator of F_q^* in index order.
    With n = q - 1, ``exp[k]`` is the index of g^k for k < 2n (doubled, so
    a sum of two logarithms needs no reduction) and 0 from 2n to 4n.
    ``log`` inverts ``exp`` on F_q^*, and ``log[0]`` is 2n, so a product
    with zero reads zero. ``zech[k]``, Zech's logarithm log(1 + g^k), is
    doubled like ``exp`` and 2n where g^k = -1 (Lidl and Niederreiter,
    Finite Fields, 2.1); the index of 1 + x is x + q/p mod q, since an
    index's leading base-p digit is the constant coefficient. ``neg`` is
    negation, ``elems`` the interned elements (``field.zero`` and
    ``field.one`` among them), and ``frob`` memoizes ``Field.frob_table``.
    """

    __slots__ = ("gen", "exp", "log", "zech", "neg", "elems", "frob")

    def __init__(self, field: Field):
        p, q, n = field.p, field.q, field.q - 1
        self.gen, g = _first_generator(field)
        powers = _power_indices(field, g)
        self.log = [2 * n] * q
        for k, x in enumerate(powers):
            self.log[x] = k
        self.exp = powers * 2 + [0] * (2 * n + 1)
        self.zech = [self.log[(x + q // p) % q] for x in powers] * 2
        self.neg = [self.exp[k + n // 2] for k in self.log]  # -1 = g^{n/2}
        # the k-th coefficient tuple in lexicographic order has index k
        digits = itertools.product(range(p), repeat=field.m)
        self.elems = [_interned(field, c, k) for k, c in enumerate(digits)]
        self.elems[0], self.elems[field.one.idx] = field.zero, field.one
        self.frob: dict[int, list[int]] = {}

    def add(self, a: int, b: int) -> int:
        """The index of a + b, for indices a and b: a (1 + b/a), read from
        ``zech``; the one index-level sum of the package's F_q arithmetic."""
        if not (a and b):
            return a or b
        log = self.log
        la = log[a]
        return self.exp[la + self.zech[log[b] - la]]


class FieldTables:
    """Dense q x q integer operation tables of a small field, expanded from
    its ``LogTable`` for the oracle and the numpy divisor search.

    Elements are indexed by their position in the canonical enumeration
    (lexicographic on ascending-degree coefficient vectors), so index 0 is
    always the zero element. ``elems`` and ``neg`` are the ``LogTable``'s
    lists; ``mul``, ``add`` and ``inv`` come from ``_dense_tables``, and
    ``sub`` reads ``add`` and ``neg``. ``inv[0]`` is 0 as a sentinel;
    callers must not invert zero.
    """

    __slots__ = ("one", "elems", "add", "sub", "mul", "neg", "inv")

    def __init__(self, field: Field):
        t, q = field.log_table(), field.q
        powers = t.exp[: q - 1]
        self.one, self.elems, self.neg = field.one.idx, t.elems, t.neg
        self.mul, self.add, self.inv = _dense_tables(
            powers, [(x + q // field.p) % q for x in powers]
        )
        self.sub = [[row[b] for b in self.neg] for row in self.add]


class Field:
    """The finite field F_{p^m} as Z_p[w]/(f(w)).

    For m = 1 the canonical modulus [0, 1] is recorded and the
    irreducibility check is skipped; elements are single residues.

    The caches ``_log`` (the ``LogTable``, with the Frobenius index
    tables), ``_tables``, ``_subfields`` (the polynomial lanes by i) and
    ``_idempotents`` (the idempotents of R over this field, filled by
    ``ring_r.make_idempotents``) are filled lazily, without locks, and
    idempotently: each entry is a deterministic function of the field, so
    a concurrent or repeated fill writes an equal value. They live and die
    with the field.
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        for name, v in (("p", p), ("m", m)):
            if not _is_int(v):
                raise NotAnInteger(f"{name} must be an integer, got {v!r}")
        bad = [c for c in modulus if not _is_int(c)]
        if bad:
            raise NotAnInteger(f"modulus coefficients must be integers, got {bad[0]!r}")
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
        self.zero = FieldElem(self, [0] * m)
        self.one = FieldElem(self, [1] + [0] * (m - 1))
        self._log: LogTable | None = None
        self._tables: FieldTables | None = None
        self._subfields: dict[int, Subfield] = {}
        self._idempotents = None

    @property
    def half(self) -> FieldElem:
        """The inverse of 2: the constant (p + 1)/2, since p is odd."""
        return self.from_index((self.p + 1) // 2 * (self.q // self.p))

    # -- construction helpers ------------------------------------------------

    def elem(self, coeffs) -> FieldElem:
        """Build an element from a coefficient sequence or a plain integer."""
        if isinstance(coeffs, FieldElem):
            if coeffs.field is not self and coeffs.field != self:
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
        for j in range(m - 2, -1, -1):  # c w^{m+j} = c w^j (w^m - f(w))
            c = conv[m + j]
            if c:
                for t, b in enumerate(self.modulus, j):
                    conv[t] = (conv[t] - c * b) % p
        return conv[:m]

    # -- the Frobenius power maps ---------------------------------------------

    def check_aut_exponent(self, i: int) -> int:
        """Validate an automorphism exponent and return the order t_i = m / i."""
        if not isinstance(i, int) or i < 1 or self.m % i != 0:
            raise InvalidExponent(f"exponent {i} does not divide m = {self.m}")
        return self.m // i

    def frob_pow(self, x: FieldElem, e: int) -> FieldElem:
        """x^{p^e} for any e >= 0 (e is reduced mod m): a lookup in
        ``frob_table(e)``."""
        if x.field is not self and x.field != self:
            raise FieldMismatch("element belongs to a different field")
        e %= self.m
        if e == 0:
            return x
        t = self._log or self.log_table()
        table = t.frob.get(e) or self.frob_table(e)
        return t.elems[table[x.idx]]

    # -- enumeration and indexing ----------------------------------------------

    def elements(self, bound: int = ENUMERATION_LIMIT) -> list[FieldElem]:
        """All q interned elements, in lexicographic order on coefficient vectors."""
        if self.q > bound:
            raise EnumerationTooLarge(f"q = {self.q} exceeds bound {bound}")
        return list(self.log_table().elems)

    def index_text(self, k: int) -> str:
        """The text ``[c0,c1,...]`` of the element at index k, from the
        base-p digits of k alone: no table is read."""
        p = self.p
        return "[" + ",".join(str(k // p**j % p) for j in range(self.m - 1, -1, -1)) + "]"

    def from_index(self, idx: int) -> FieldElem:
        """The interned element at position idx."""
        return self.log_table().elems[idx]

    def log_table(self) -> LogTable:
        """The O(q) table that element arithmetic reads (memoized;
        rebuilding is idempotent). Past ENUMERATION_LIMIT it raises
        ``EnumerationTooLarge`` before anything is allocated."""
        if self._log is None:
            if self.q > ENUMERATION_LIMIT:
                raise EnumerationTooLarge(
                    f"q = {self.q} exceeds bound {ENUMERATION_LIMIT} for field arithmetic"
                )
            self._log = LogTable(self)
        return self._log

    def tables(self) -> FieldTables:
        """Dense int operation tables (memoized; rebuilding is idempotent),
        read by the oracle and ``skew_poly._brute_divisor_tails`` only."""
        if self._tables is None:
            if self.q > TABLE_LIMIT:
                raise EnumerationTooLarge(
                    f"q = {self.q} too large for operation tables"
                )
            self._tables = FieldTables(self)
        return self._tables

    def frob_table(self, i: int) -> list[int]:
        """Index table of one application of theta_i: x^{p^i} = g^{p^i log x}."""
        t = self.log_table()
        if i not in t.frob:
            n, e = self.q - 1, self.p ** (i % self.m)
            t.frob[i] = [0] + [t.exp[k * e % n] for k in t.log[1:]]
        return t.frob[i]

    def fixed_subfield(self, i: int) -> list[FieldElem]:
        """The elements fixed by theta_i, i.e. the subfield F_{p^i}, in index
        order: 0 and the powers of g^{(q-1)/(p^i-1)}, which generates its
        multiplicative group."""
        self.check_aut_exponent(i)
        t, n = self.log_table(), self.q - 1
        return [t.elems[x] for x in sorted(t.exp[: n : n // (self.p**i - 1)] + [0])]

    def subfield(self, i: int) -> Subfield:
        """The lane over the theta_i-fixed subfield F_{p^i} (memoized)."""
        self.check_aut_exponent(i)
        lane = self._subfields.get(i)
        if lane is None:
            lane = PrimeSubfield(self.p, self) if i == 1 else Subfield(self, i)
            self._subfields[i] = lane
        return lane

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


# ---------------------------------------------------------------------------
# the commutative lane: polynomials over F_{p^i} as lists of lane indices


class Subfield:
    """The subfield F_{p^i} fixed by theta_i, on lane indices 0..p^i - 1.

    Lane index k is the k-th fixed element in the canonical enumeration, so
    lane indices increase with the F_q index and 0 is zero (``lift`` and
    ``lane_index`` convert). Polynomials are lists of lane indices,
    ascending, no trailing zeros. The helpers rest on
    two kernels, ``inv`` and ``axpy(u, c, v) = u + c*v`` (equal lengths),
    which read dense tables from strided reads of the field's ``LogTable``
    here and are arithmetic mod p in ``PrimeSubfield``.
    """

    __slots__ = ("p", "order", "one", "minus_one", "field", "elems", "_lanes",
                 "_add", "_mul", "_inv")

    def __init__(self, field: Field, i: int):
        order = field.p**i
        if order > TABLE_LIMIT:
            raise EnumerationTooLarge(f"subfield order {order} too large for tables")
        self.elems = [x.idx for x in field.fixed_subfield(i)]
        lanes = self._lanes = {x: k for k, x in enumerate(self.elems)}
        q, one = field.q, field.q // field.p  # the index of 1 is q/p
        powers = field.log_table().exp[: q - 1 : (q - 1) // (order - 1)]
        self._mul, self._add, self._inv = _dense_tables(
            [lanes[x] for x in powers], [lanes[(x + one) % q] for x in powers]
        )
        self.p, self.order, self.field = field.p, order, field
        self.one, self.minus_one = lanes[one], lanes[(field.p - 1) * one]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        add, row = self._add, self._mul[c]
        return [add[a][row[b]] for a, b in zip(u, v)]

    def lift(self, k: int) -> int:
        """The F_q index of lane index k."""
        return self.elems[k]

    def lane_index(self, x: int) -> int | None:
        """The lane index of the F_q index x; None outside the subfield."""
        return self._lanes.get(x)

    @staticmethod
    def trim(f: list[int]) -> list[int]:
        while f and not f[-1]:
            f.pop()
        return f

    def monic(self, f: list[int]) -> list[int]:
        return self.axpy([0] * len(f), self.inv(f[-1]), f)

    def sub(self, f: list[int], g: list[int]) -> list[int]:
        n = max(len(f), len(g))
        pad = [0] * n
        return self.trim(self.axpy((f + pad)[:n], self.minus_one, (g + pad)[:n]))

    def quo_rem(self, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
        """The quotient and remainder of f on division by the nonzero g."""
        lc = g[-1]
        if lc != self.one:
            g = self.monic(g)
        d = len(g) - 1
        low = self.axpy([0] * d, self.minus_one, g[:-1])
        r, quo = list(f), []
        while len(r) > d:
            c = r.pop()
            quo.append(c)
            if c:
                r[len(r) - d :] = self.axpy(r[len(r) - d :], c, low)
        quo.reverse()  # the quotient by g/lc; scale it to the quotient by g
        if lc != self.one:
            quo = self.axpy([0] * len(quo), self.inv(lc), quo)
        return quo, self.trim(r)

    def rem(self, f: list[int], g: list[int]) -> list[int]:
        """The remainder of f on division by the nonzero g."""
        return self.quo_rem(f, g)[1]

    def mul(self, f: list[int], g: list[int]) -> list[int]:
        n, out = len(g), [0] * (len(f) + len(g) - 1)
        for j, a in enumerate(f):
            if a:
                out[j : j + n] = self.axpy(out[j : j + n], a, g)
        return self.trim(out)

    def mulmod(self, a: list[int], b: list[int], g: list[int]) -> list[int]:
        return self.rem(self.mul(a, b), g)

    def powmod(self, a: list[int], e: int, g: list[int]) -> list[int]:
        out = [self.one]
        while e:
            if e & 1:
                out = self.mulmod(out, a, g)
            a = self.mulmod(a, a, g)
            e >>= 1
        return out

    def gcd(self, f: list[int], g: list[int]) -> list[int]:
        """The monic gcd of f and g, not both zero."""
        while g:
            f, g = g, self.rem(f, g)
        return self.monic(f)

    def xgcd(self, f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
        """(d, a, b) with a*f + b*g = d, the monic gcd of f and g, not both
        zero. ``gcd`` stays apart: it carries no cofactors."""
        u, v = (f, [self.one], []), (g, [], [self.one])  # each (r, a, b) has a*f + b*g = r
        while v[0]:
            quo = self.quo_rem(u[0], v[0])[0]
            u, v = v, tuple(self.sub(x, self.mul(quo, y)) for x, y in zip(u, v))
        c = self.inv(u[0][-1])
        return tuple(self.axpy([0] * len(h), c, h) for h in u)

    def is_irreducible(self, f: list[int]) -> bool:
        """Rabin's test for a monic f of degree d over F_Q, Q = p^i.

        f is irreducible iff x^{Q^d} = x mod f and gcd(f, x^{Q^{d/r}} - x)
        = 1 for every prime r dividing d. v -> v^Q mod f is F_Q-linear; it
        is applied as the matrix whose row j is x^{Qj} mod f. Field moduli
        are checked with it; the factors of x^n - 1 are certified by
        counting cosets instead (``Factorization.verify``).
        """
        d = len(f) - 1
        if d <= 1:
            return d == 1
        x = [0, self.one]
        xq = self.powmod(x, self.order, f)
        rows = [[self.one]]
        for _ in range(1, d):
            rows.append(self.mulmod(rows[-1], xq, f))
        rows = [row + [0] * (d - len(row)) for row in rows]
        powers = [x]  # powers[k] = x^{Q^k} mod f
        for _ in range(d):
            out = [0] * d
            for c, row in zip(powers[-1], rows):
                if c:
                    out = self.axpy(out, c, row)
            powers.append(self.trim(out))
        return powers[d] == x and all(
            len(self.gcd(f, self.sub(powers[d // r], x))) == 1 for r in _prime_divisors(d)
        )


class PrimeSubfield(Subfield):
    """F_p on the residues 0..p-1, by arithmetic mod p: no table is built
    and F_q is never enumerated. ``field`` is None for a bare Z_p."""

    def __init__(self, p: int, field: Field | None = None):
        self.p, self.order, self.one, self.minus_one, self.field = p, p, 1, p - 1, field

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def axpy(self, u: list[int], c: int, v: list[int]) -> list[int]:
        p = self.p
        return [(a + c * b) % p for a, b in zip(u, v)]

    def lift(self, k: int) -> int:
        return k * (self.field.q // self.p)  # the constant k: leading digit k

    def lane_index(self, x: int) -> int | None:
        k, low = divmod(x, self.field.q // self.p)
        return None if low else k


# ---------------------------------------------------------------------------
# text formats: `p=3,m=2,mod=1,0,1` for fields, `[c0,c1,...]` for elements


def field_to_json(field: Field) -> dict:
    """The field's JSON block, as every payload and config prints it."""
    return {"p": field.p, "m": field.m, "mod": list(field.modulus)}


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
