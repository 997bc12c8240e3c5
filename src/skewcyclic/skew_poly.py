"""Skew polynomial rings F_q[x, theta_i].

Addition is coefficientwise; multiplication obeys the twisted monomial
rule (a x^i)(b x^j) = a theta^i(b) x^{i+j}, which makes the ring
noncommutative whenever theta_i moves some coefficient. Right division by
a nonzero divisor is total, and membership in left ideals reduces to
right remainders.

Coefficients fixed by theta_i commute with x, so the subring
F_{p^i}[x] is an ordinary commutative polynomial ring. Factoring x^n - 1,
its divisors and the extended Euclidean algorithm happen there, on the
field's subfield lane; ``lane_read`` and ``lane_lift`` cross to it.

Coefficients are F_q indices (``FieldElem.idx``), as in ``linalg`` and
the subfield lanes: products read the field's ``LogTable``, sums its
``add``, and theta^k the table ``frob_table(i*k mod m)``. The splitting
R[x, theta_i] = F_q[x, theta_i]^3 makes a polynomial over R a triple of
these, so element objects appear only at text I/O and in
``ring_skew_poly_combine`` and ``project_components``, which cross to R.
Polynomials are normalized eagerly (no trailing zeros) and immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .finite_field import (
    EnumerationTooLarge,
    Field,
    FieldMismatch,
    _prime_divisors,
    elem_from_string,
)
from .ring_r import (
    RingElem,
    crt_join,
    crt_split,
    ring_elem,
    ring_elem_from_string,
    ring_one,
    ring_zero,
)

SEARCH_LIMIT = 10**7
_NP_CHUNK = 1 << 20


class SkewPolyError(Exception):
    pass


class DomainMismatch(SkewPolyError):
    pass


class AutMismatch(SkewPolyError):
    pass


class ZeroDivisor(SkewPolyError):
    pass


class BothZero(SkewPolyError):
    pass


class SkewPoly:
    """A polynomial in F_q[x, theta_i]: ``coeffs`` holds the F_q indices of
    its coefficients, ascending, with no trailing zeros."""

    __slots__ = ("field", "aut", "coeffs")

    # coefficients lie in F_q; bench/spans.py names the mul/divide spans by this
    over_ring = False

    def __init__(self, field: Field, coeffs: Sequence[int], aut: int):
        field.check_aut_exponent(aut)
        cs, q = list(coeffs), field.q
        for c in cs:
            if not (isinstance(c, int) and 0 <= c < q):
                raise FieldMismatch(f"coefficient {c!r} is not an index of {field!r}")
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "aut", aut)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, aut: int) -> SkewPoly:
        return cls(field, [], aut)

    @classmethod
    def one(cls, field: Field, aut: int) -> SkewPoly:
        return cls(field, [field.one.idx], aut)

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if self.is_zero():
            raise ZeroDivisor("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one.idx

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def padded(self, length: int) -> list[int]:
        return list(self.coeffs) + [0] * (length - len(self.coeffs))

    def _check_compat(self, other: SkewPoly) -> None:
        if self.field != other.field:
            raise DomainMismatch("polynomials over different fields")
        if self.aut != other.aut:
            raise AutMismatch(f"automorphism exponents differ: {self.aut} vs {other.aut}")

    # -- arithmetic: indices, on the field's LogTable ------------------------------

    def __add__(self, other: SkewPoly) -> SkewPoly:
        self._check_compat(other)
        n, add = max(len(self.coeffs), len(other.coeffs)), self.field.log_table().add
        return SkewPoly(self.field, list(map(add, self.padded(n), other.padded(n))), self.aut)

    def __sub__(self, other: SkewPoly) -> SkewPoly:
        return self + -other

    def __neg__(self) -> SkewPoly:
        neg = self.field.log_table().neg
        return SkewPoly(self.field, [neg[c] for c in self.coeffs], self.aut)

    def __mul__(self, other: SkewPoly) -> SkewPoly:
        return skew_mul(self, other)

    def scale(self, c: int) -> SkewPoly:
        """Left multiplication by the constant of index c (no twist on degree zero)."""
        t = self.field.log_table()
        exp, log, lc = t.exp, t.log, t.log[c]
        return SkewPoly(self.field, [exp[lc + log[x]] for x in self.coeffs], self.aut)

    def monic(self) -> SkewPoly:
        """The left scalar multiple with leading coefficient one."""
        if self.is_zero() or self.is_monic():
            return self
        t = self.field.log_table()
        return self.scale(t.exp[self.field.q - 1 - t.log[self.lc()]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.field == other.field
            and self.aut == other.aut
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.aut, self.coeffs))

    def __repr__(self):
        return f"SkewPoly({poly_to_string(self)!r}, aut={self.aut})"

    def __str__(self):
        return poly_to_string(self)


class DivisionResult(NamedTuple):
    quotient: SkewPoly
    remainder: SkewPoly


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product under (a x^i)(b x^j) = a theta^i(b) x^{i+j}, on logarithms:
    f_i theta^i(g_j) is exp[log f_i + log frob[g_j]], frob = theta^i."""
    f._check_compat(g)
    field = f.field
    if f.is_zero() or g.is_zero():
        return SkewPoly.zero(field, f.aut)
    t = field.log_table()
    exp, log, add = t.exp, t.log, t.add
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            frob, la = field.frob_table(f.aut * i % field.m), log[a]
            for j, b in enumerate(g.coeffs, i):
                if b:
                    out[j] = add(out[j], exp[la + log[frob[b]]])
    return SkewPoly(field, out, f.aut)


def right_divide(f: SkewPoly, g: SkewPoly) -> DivisionResult:
    """f = q * g + r with deg r < deg g (skew multiplication), for g nonzero,
    in len f - deg g steps from the top (broken tables leave a longer r)."""
    f._check_compat(g)
    if g.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    field, aut, d = f.field, f.aut, g.degree
    r = list(f.coeffs)
    quo = [0] * max(0, len(r) - d)
    if quo:
        t = field.log_table()
        exp, log, add, n = t.exp, t.log, t.add, field.q - 1
        for k in reversed(range(len(quo))):
            if r[k + d]:
                frob = field.frob_table(aut * k % field.m)
                lq = log[r[k + d]] - log[frob[g.coeffs[-1]]]
                quo[k] = exp[lq % n]
                lq = (lq + n // 2) % n  # -q_k = q_k g^{n/2}, since -1 = g^{n/2}
                for j, b in enumerate(g.coeffs, k):
                    if b:
                        r[j] = add(r[j], exp[lq + log[frob[b]]])
    return DivisionResult(SkewPoly(field, quo, aut), SkewPoly(field, r, aut))


def xn_minus_1(field: Field, aut: int, n: int) -> SkewPoly:
    """x^n - 1, with no table: 1 has the index q/p and -1 the index (p - 1)q/p."""
    one = field.q // field.p
    return SkewPoly(field, [(field.p - 1) * one] + [0] * (n - 1) + [one], aut)


def is_right_divisor_of_xn_minus_1(g: SkewPoly, n: int) -> bool:
    """True iff g right-divides x^n - 1, by computing the right remainder."""
    return right_divide(xn_minus_1(g.field, g.aut, n), g).remainder.is_zero()


def mod_xn_minus_1(f: SkewPoly, n: int) -> SkewPoly:
    """Right remainder of f by x^n - 1 (which is monic, so always defined)."""
    if f.degree < n:
        return f
    return right_divide(f, xn_minus_1(f.field, f.aut, n)).remainder


# ---------------------------------------------------------------------------
# brute-force census of monic right divisors of x^n - 1 over F_q


def _brute_divisor_tails(n: int, field: Field, i: int, d: int) -> list[tuple[int, ...]]:
    """Index tuples (c_0..c_{d-1}) of the monic degree-d right divisors.

    Vectorized over all q^d candidates: track x^k mod g via the left shift
    s = x*r followed by cancellation of the top coefficient against monic
    g; g right-divides x^n - 1 iff x^n reduces to 1.
    """
    import numpy as np

    t = field.tables()
    q = field.q
    mul = np.array(t.mul, dtype=np.int16)
    sub = np.array(t.sub, dtype=np.int16)
    frb = np.array(field.frob_table(i), dtype=np.int16)
    one = t.one
    total = q**d
    found: list[tuple[int, ...]] = []
    for start in range(0, total, _NP_CHUNK):
        ar = np.arange(start, min(total, start + _NP_CHUNK), dtype=np.int64)
        g_tails = np.empty((len(ar), d), dtype=np.int16)
        for j in range(d - 1, -1, -1):
            g_tails[:, j] = ar % q
            ar //= q
        r = np.zeros((len(g_tails), d), dtype=np.int16)
        r[:, 0] = one
        for _ in range(n):
            lead = frb[r[:, d - 1]]
            s = np.empty_like(r)
            s[:, 0] = 0
            if d > 1:
                s[:, 1:] = frb[r[:, :-1]]
            r = sub[s, mul[lead[:, None], g_tails]]
        good = r[:, 0] == one
        if d > 1:
            good &= (r[:, 1:] == 0).all(axis=1)
        for k in np.nonzero(good)[0]:
            found.append(tuple(int(x) for x in g_tails[k]))
    return found


def brute_right_divisors(
    n: int, field: Field, i: int, search_bound: int = SEARCH_LIMIT
) -> list[SkewPoly]:
    """All monic right divisors of x^n - 1 in F_q[x, theta_i], by exhaustion.

    Tests every monic polynomial of degree < n (the only degree-n divisor
    is x^n - 1 itself). Ordered by degree, then lexicographically on the
    coefficient vector. Raises when the search space exceeds the bound.
    """
    field.check_aut_exponent(i)
    space = 0
    for d in range(n):  # stops at the first degree past the bound, whatever n
        space += field.q**d
        if space > search_bound:
            raise EnumerationTooLarge(
                f"search space exceeds bound {search_bound}: {space} "
                f"polynomials of degree < {d + 1} (n = {n})"
            )
    divisors = [SkewPoly.one(field, i)]
    for d in range(1, n):
        for tail in _brute_divisor_tails(n, field, i, d):
            divisors.append(SkewPoly(field, tail + (field.one.idx,), i))
    divisors.append(xn_minus_1(field, i, n))
    return divisors


def monic_right_divisors(
    n: int, field: Field, i: int, search_bound: int = SEARCH_LIMIT
) -> list[SkewPoly]:
    """All monic right divisors of x^n - 1 in F_q[x, theta_i].

    Ordered by degree, then lexicographically on the coefficient vector.
    When gcd(n, t_i) = 1 every divisor lies in F_{p^i}[x], so the divisors
    are the products of the fixed-subfield factorization and
    ``search_bound`` does not apply. Otherwise they come from
    ``brute_right_divisors`` within the bound. Nothing is divided here:
    ``ComponentCode`` divides x^n - 1 by each divisor once, for its
    cofactor, and raises ``NotRightDivisor`` on a remainder.
    """
    t_i = field.check_aut_exponent(i)
    if math.gcd(n, t_i) == 1:
        return divisors_from_factorization(factor_xn_minus_1(n, field, i))
    return brute_right_divisors(n, field, i, search_bound)


# ---------------------------------------------------------------------------
# the commutative lane: F_{p^i}[x] inside F_q[x, theta_i]
#
# theta_i fixes every coefficient of F_{p^i}[x], so there the skew product
# is the ordinary one. ``Field.subfield(i)`` gives the one lane for it:
# polynomials as lists of lane indices (ascending, no trailing zeros) with
# quotient and remainder, product, gcd and extended gcd. Factoring, its
# verification, the divisors and Bezout's identity run on the lane;
# ``lane_read`` and ``lane_lift`` cross to it and back, once each way.

# Factoring x^n - 1 (and counting its factors) allocates, for n = p^e * n',
# a cyclotomic coset table mod n' (about 95 bytes an entry at its peak: a
# set slot, an int and a tuple slot) and dense lane lists of x^{n'} - 1 and
# its pieces (8 bytes a coefficient). At 128 bytes per unit of n', the
# 64 MiB budget admits n' <= 2^19.
FACTOR_BYTES = 1 << 26
FACTOR_LIMIT = FACTOR_BYTES // 128


def _coprime_part(n: int, p: int) -> int:
    """n' = n / p^e with p not dividing n', refused past ``FACTOR_LIMIT``
    before anything of size n' is allocated."""
    if n < 1:  # x^0 - 1 = 0 has no factorization, and n = 0 never leaves the loop
        raise SkewPolyError(f"x^n - 1 needs n >= 1, got {n}")
    n1 = n
    while n1 % p == 0:
        n1 //= p
    if n1 > FACTOR_LIMIT:
        raise EnumerationTooLarge(
            f"n' = {n1} (n = {n} without its factors p = {p}) exceeds the bound "
            f"{FACTOR_LIMIT} for factoring x^n - 1 in {FACTOR_BYTES} bytes"
        )
    return n1


def _cyclotomic_cosets(q: int, n: int) -> list[tuple[int, ...]]:
    """The q-cyclotomic cosets mod n, for gcd(q, n) = 1, by least element."""
    seen: set[int] = set()
    cosets = []
    for j in range(n):
        coset = []
        k = j
        while k not in seen:
            seen.add(k)
            coset.append(k)
            k = k * q % n
        if coset:
            cosets.append(tuple(coset))
    return cosets


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, from its prime factorization."""
    divs = [1]
    for r in _prime_divisors(n):
        e = 0
        while n % r == 0:
            n //= r
            e += 1
        divs = [d * r**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _lane_xn_minus_1(lane, n: int) -> list[int]:
    return [lane.minus_one] + [0] * (n - 1) + [lane.one]


def lane_read(lane, g: SkewPoly) -> list[int]:
    """g on the lane; ``AssertionError`` for a coefficient outside it."""
    f = [lane.lane_index(c) for c in g.coeffs]
    if None in f:
        raise AssertionError(f"{g} leaves the fixed subfield F_{lane.order}")
    return f


def lane_lift(lane, f: list[int], aut: int) -> SkewPoly:
    """The lane polynomial f in F_q[x, theta_aut]."""
    return SkewPoly(lane.field, list(map(lane.lift, f)), aut)


def subfield_irreducibles(field: Field, i: int, max_degree: int) -> list[SkewPoly]:
    """Monic irreducibles over F_{p^i} up to max_degree, by incremental sieve.

    Exponential in max_degree; kept as an independent reference for tests.
    """
    sub = [x.idx for x in field.fixed_subfield(i)]
    irr: list[SkewPoly] = []
    for d in range(1, max_degree + 1):
        for tail in itertools.product(sub, repeat=d):
            g = SkewPoly(field, tail + (field.one.idx,), i)
            if any(
                right_divide(g, h).remainder.is_zero()
                for h in irr
                if h.degree <= d // 2
            ):
                continue
            irr.append(g)
    return irr


@dataclass(frozen=True)
class Factorization:
    """x^n - 1 = prod of p_k(x)^{s_k} over the theta-fixed subfield F_{p^i}."""

    n: int
    field: Field
    aut: int
    factors: tuple[tuple[SkewPoly, int], ...]

    def verify(self) -> None:
        """Certify the factorization by a product and a count.

        Each factor is read onto the lane of F_{p^i} first, which fails for a
        coefficient outside the subfield; the factors must be monic, of
        degree >= 1 and pairwise distinct, each with multiplicity n/n' = p^e
        (n = p^e * n', p not dividing n'). Their product, each taken once, must
        be x^{n'} - 1, and there must be as many as there are Q-cyclotomic
        cosets mod n', Q = p^i. That proves every factor irreducible: the
        square-free x^{n'} - 1 has exactly one irreducible factor per coset
        (Lidl and Niederreiter, Finite Fields, Thm 2.47), so N non-constant
        factors whose product it is cannot include a reducible one.
        """
        lane = self.field.subfield(self.aut)
        n1 = _coprime_part(self.n, self.field.p)
        polys = []
        for g, s in self.factors:
            f = lane_read(lane, g)
            if s < 1 or not f or f[-1] != lane.one:
                raise AssertionError(f"factor ({g})^{s} is not a monic power")
            if len(f) < 2:
                raise AssertionError(f"factor {g} is a constant")
            polys.append(f)
        if len(set(map(tuple, polys))) != len(polys):
            raise AssertionError("an irreducible factor is listed more than once")
        for g, s in self.factors:
            if s != self.n // n1:
                raise AssertionError(
                    f"factor ({g})^{s} has multiplicity {s}, not n/n' = {self.n // n1}"
                )
        prod = [lane.one]
        for f in sorted(polys, key=len):
            prod = lane.mul(f, prod)
        if prod != _lane_xn_minus_1(lane, n1):
            raise AssertionError(f"factor product does not reproduce x^{n1} - 1")
        cosets = len(_cyclotomic_cosets(lane.order, n1))
        if len(polys) != cosets:
            raise AssertionError(
                f"{len(polys)} factors for {cosets} cyclotomic cosets mod {n1}: "
                f"a factor is reducible over F_{lane.order}"
            )


def _split_cyclotomic(lane, f: list[int], d: int) -> list[list[int]]:
    """The monic irreducible factors of f = Phi_d over F_Q, Q = lane order.

    Every factor has degree k = ord_d(Q), so there are deg(f)/k of them. Over
    F_Q[x]/(x^d - 1) the map v -> v^Q sends x^j to x^{Qj mod d}, so the coset
    sums e_C = sum_{j in C} x^j over the Q-cyclotomic cosets C mod d span
    Berlekamp's subalgebra {v : v^Q = v}, and their residues mod f span that
    of f. Splitting by gcd(g, e_C - s), s in F_Q, therefore separates every
    two factors (Berlekamp, Bell Syst. Tech. J. 46, 1967).
    """
    cosets = _cyclotomic_cosets(lane.order, d)
    k = len(cosets[1]) if d > 1 else 1  # the coset of 1 is {Q^j mod d}
    count = (len(f) - 1) // k
    pieces = [f]
    if count == 1:
        return pieces
    for coset in cosets:
        e_c = [0] * d
        for j in coset:
            e_c[j] = lane.one
        split = []
        for g in pieces:
            r = lane.rem(e_c, g) if len(g) - 1 > k else []
            # gcd(g, r - s) as s runs over F_Q; each piece found is divided
            # out of g, and what is left once e_C is constant mod g is a piece
            for s in range(lane.order):
                if len(r) <= 1:
                    split.append(g)
                    break
                h = lane.gcd(g, lane.sub(r, [s]))
                if len(h) > 1:
                    split.append(h)
                    g = lane.quo_rem(g, h)[0]
                    r = lane.rem(r, g)
        pieces = split
        if len(pieces) == count:
            break
    return pieces


def factor_xn_minus_1(n: int, field: Field, i: int) -> Factorization:
    """Complete factorization of x^n - 1 into monic irreducibles over F_{p^i}.

    With n = p^e * n' and p not dividing n', x^n - 1 = (x^{n'} - 1)^{p^e},
    and x^{n'} - 1 is the product of the cyclotomic polynomials Phi_d over
    the divisors d of n'. Each Phi_d is the exact quotient of x^d - 1 by the
    Phi_e of the smaller divisors e of d, and splits over F_Q, Q = p^i, into
    phi(d)/ord_d(Q) irreducibles of degree ord_d(Q) (Lidl and Niederreiter,
    Finite Fields, Thms 2.45-2.47): when phi(d) = ord_d(Q) it is irreducible
    as it stands, and otherwise ``_split_cyclotomic`` splits it by the coset
    sums mod d. Factors are sorted by degree, then by coefficient indices,
    and certified by ``Factorization.verify`` before they are returned.
    Past ``FACTOR_LIMIT`` for n' this raises ``EnumerationTooLarge`` first.
    """
    n1 = _coprime_part(n, field.p)
    lane = field.subfield(i)
    divs = _divisors(n1)
    cyclo: dict[int, list[int]] = {}
    factors = []
    for d in divs:
        below = [lane.one]  # prod of Phi_e over the divisors e < d of d
        for e in divs:
            if e < d and d % e == 0:
                below = lane.mul(cyclo[e], below)
        cyclo[d] = lane.quo_rem(_lane_xn_minus_1(lane, d), below)[0]
        factors += _split_cyclotomic(lane, cyclo[d], d)
    # lane indices increase with the F_q index, so this is the (degree,
    # coefficient indices) order
    factors.sort(key=lambda f: (len(f), f))
    fac = Factorization(n, field, i, tuple((lane_lift(lane, f, i), n // n1) for f in factors))
    fac.verify()
    return fac


def divisors_from_factorization(fac: Factorization) -> list[SkewPoly]:
    """All products prod p_k^{e_k} with 0 <= e_k <= s_k, sorted (degree,
    lex) on the lane, whose indices increase with the F_q index."""
    lane = fac.field.subfield(fac.aut)
    divisors = [[lane.one]]
    for g, s in fac.factors:
        f, powers = lane_read(lane, g), [[lane.one]]
        for _ in range(s):
            powers.append(lane.mul(powers[-1], f))
        divisors = [lane.mul(d, pw) for d in divisors for pw in powers]
    divisors.sort(key=lambda f: (len(f), f))
    return [lane_lift(lane, f, fac.aut) for f in divisors]


def extended_gcd_commutative(f: SkewPoly, g: SkewPoly):
    """(d, a, b) with a*f + b*g = d, d the monic gcd, in F_{p^i}[x], by
    ``Subfield.xgcd``; a coefficient outside F_{p^i}, which need not
    commute with x, raises ``AssertionError`` as f and g are read."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    f._check_compat(g)
    lane = f.field.subfield(f.aut)
    return tuple(
        lane_lift(lane, h, f.aut) for h in lane.xgcd(lane_read(lane, f), lane_read(lane, g))
    )


# ---------------------------------------------------------------------------
# crossing between F_q[x, theta] and R[x, theta], at text I/O only


def ring_skew_poly_combine(f1: SkewPoly, f2: SkewPoly, f3: SkewPoly) -> tuple[RingElem, ...]:
    """The coefficients of eta1*f1 + eta2*f2 + eta3*f3, one ``crt_join`` each.

    Ascending with no trailing zeros (the zero polynomial gives ()), ready
    for ``poly_to_string``.
    """
    f1._check_compat(f2)
    f1._check_compat(f3)
    elems = f1.field.log_table().elems
    n = max(len(f1.coeffs), len(f2.coeffs), len(f3.coeffs))
    padded = [f.padded(n) for f in (f1, f2, f3)]
    return tuple(crt_join(f1.field, [elems[c] for c in t]) for t in zip(*padded))


def project_components(
    coeffs: Sequence[RingElem], field: Field, aut: int
) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
    """The three polynomials over F_q whose combination has these R coefficients."""
    triples = [crt_split(c) for c in coeffs]
    return tuple(SkewPoly(field, [t[k].idx for t in triples], aut) for k in range(3))


# ---------------------------------------------------------------------------
# text format: `c0 + c1*x + c2*x^2`, coefficients as bracket lists (field)
# or `[..]|[..]|[..]` triples (ring); integer literals mean prime-subfield
# constants


def poly_to_string(f: SkewPoly | Sequence[RingElem]) -> str:
    """Text of a polynomial over F_q, or of ascending coefficients over R."""
    if isinstance(f, SkewPoly):
        texts = [c and f.field.index_text(c) for c in f.coeffs]
    else:
        texts = [not c.is_zero() and str(c) for c in f]
    terms = []
    for k, cs in enumerate(texts):
        if not cs:
            continue
        if k == 0:
            terms.append(cs)
        elif k == 1:
            terms.append(f"{cs}*x")
        else:
            terms.append(f"{cs}*x^{k}")
    return " + ".join(terms) or "0"


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Split on top-level + and -, returning (sign, term) pairs."""
    terms = []
    depth = 0
    sign = 1
    cur = ""
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-":
            if cur.strip():
                terms.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
            continue
        cur += ch
    if cur.strip():
        terms.append((sign, cur.strip()))
    return terms


def _parse_term(term: str):
    """-> (coeff_text or None, power)."""
    term = term.strip()
    if "x" not in term:
        return term, 0
    head, _, tail = term.partition("x")
    head = head.strip().rstrip("*").strip()
    tail = tail.strip()
    if tail.startswith("^"):
        power = int(tail[1:])
    elif tail == "":
        power = 1
    else:
        raise ValueError(f"cannot parse polynomial term {term!r}")
    return (head if head else None), power


def _parse_coeffs(s: str, read: Callable, zero, max_degree: int | None) -> list:
    """Ascending coefficients of the text s, without trailing zeros; ``read``
    turns one coefficient's text into a coefficient, and gets None for a
    bare power of x.

    A term of degree above ``max_degree`` raises ``ValueError`` before the
    coefficient list is allocated.
    """
    s = s.strip()
    if s in ("0", ""):
        return []
    coeffs: dict = {}
    for sign, term in _split_terms(s):
        ctext, power = _parse_term(term)
        c = read(ctext)
        coeffs[power] = coeffs.get(power, zero) + (-c if sign < 0 else c)
    deg = max(coeffs)
    if max_degree is not None and deg > max_degree:
        raise ValueError(f"degree {deg} exceeds the maximum {max_degree}")
    out = [coeffs.get(k, zero) for k in range(deg + 1)]
    while out and out[-1].is_zero():
        out.pop()
    return out


def poly_from_string(
    s: str, field: Field, aut: int, max_degree: int | None = None
) -> SkewPoly:
    """Parse a polynomial over F_q; coefficients are bracket lists or integers."""

    def read(ctext):
        if ctext is None:
            return field.one
        return elem_from_string(field, ctext) if ctext.startswith("[") else field.elem(int(ctext))

    coeffs = _parse_coeffs(s, read, field.zero, max_degree)
    return SkewPoly(field, [c.idx for c in coeffs], aut)


def ring_coeffs_from_string(
    s: str, field: Field, max_degree: int | None = None
) -> tuple[RingElem, ...]:
    """Parse a polynomial over R into its ascending coefficients (as
    ``ring_skew_poly_combine`` returns them); coefficients are a|b|c
    triples or integers."""

    def read(ctext):
        if ctext is None:
            return ring_one(field)
        return ring_elem_from_string(field, ctext) if "|" in ctext else ring_elem(field, int(ctext))

    return tuple(_parse_coeffs(s, read, ring_zero(field), max_degree))
