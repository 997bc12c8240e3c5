"""Skew polynomial rings K[x, theta_i] for K in {F_q, R}.

Addition is coefficientwise; multiplication obeys the twisted monomial
rule (a x^i)(b x^j) = a theta^i(b) x^{i+j}, which makes the ring
noncommutative whenever theta_i moves some coefficient. Right division by
a divisor with unit leading coefficient is total, and membership in left
ideals reduces to right remainders.

Coefficients fixed by theta_i commute with x, so the subring
F_{p^i}[x] is an ordinary commutative polynomial ring. Factoring x^n - 1
and the extended Euclidean algorithm happen there.

Polynomials are normalized eagerly (no trailing zeros), immutable, and
all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .finite_field import Field, FieldElem
from .ring_r import RingDomain, RingElem, crt_join, crt_split

SEARCH_LIMIT = 10**7
_NP_CHUNK = 1 << 20


class SkewPolyError(Exception):
    pass


class DomainMismatch(SkewPolyError):
    pass


class AutMismatch(SkewPolyError):
    pass


class NonMonicDivisor(SkewPolyError):
    pass


class ZeroDivisor(SkewPolyError):
    pass


class SearchSpaceTooLarge(SkewPolyError):
    pass


class BothZero(SkewPolyError):
    pass


def _twist(c, i: int, k: int):
    """theta_i applied k times, i.e. the p^{(i*k mod m)} power map.

    c is a FieldElem or a RingElem; both apply the map by ``frob``.
    """
    e = (i * k) % c.field.m
    return c.frob(e) if e else c


class SkewPoly:
    """A polynomial in K[x, theta_i], coefficients ascending, no trailing zeros."""

    __slots__ = ("domain", "aut", "coeffs")

    def __init__(self, domain, coeffs: Sequence, aut: int):
        field = domain.field if isinstance(domain, RingDomain) else domain
        field.check_aut_exponent(aut)
        cs = list(coeffs)
        while cs and cs[-1] == domain.zero:
            cs.pop()
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "aut", aut)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, domain, aut: int) -> SkewPoly:
        return cls(domain, [], aut)

    @classmethod
    def one(cls, domain, aut: int) -> SkewPoly:
        return cls(domain, [domain.one], aut)

    @classmethod
    def x_power(cls, domain, aut: int, k: int, coeff=None) -> SkewPoly:
        c = domain.one if coeff is None else coeff
        return cls(domain, [domain.zero] * k + [c], aut)

    # -- structure ------------------------------------------------------------

    @property
    def field(self) -> Field:
        d = self.domain
        return d.field if isinstance(d, RingDomain) else d

    @property
    def over_ring(self) -> bool:
        return isinstance(self.domain, RingDomain)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ZeroDivisor("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.domain.one

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.domain.zero

    def padded(self, length: int) -> list:
        return list(self.coeffs) + [self.domain.zero] * (length - len(self.coeffs))

    def _check_compat(self, other: SkewPoly) -> None:
        if self.domain != other.domain:
            raise DomainMismatch("polynomials over different coefficient domains")
        if self.aut != other.aut:
            raise AutMismatch(f"automorphism exponents differ: {self.aut} vs {other.aut}")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: SkewPoly) -> SkewPoly:
        self._check_compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.domain,
            [a + b for a, b in zip(self.padded(n), other.padded(n))],
            self.aut,
        )

    def __sub__(self, other: SkewPoly) -> SkewPoly:
        self._check_compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.domain,
            [a - b for a, b in zip(self.padded(n), other.padded(n))],
            self.aut,
        )

    def __neg__(self) -> SkewPoly:
        return SkewPoly(self.domain, [-c for c in self.coeffs], self.aut)

    def __mul__(self, other: SkewPoly) -> SkewPoly:
        return skew_mul(self, other)

    def scale(self, c) -> SkewPoly:
        """Left multiplication by the constant c (no twist on degree zero)."""
        return SkewPoly(self.domain, [c * x for x in self.coeffs], self.aut)

    def monic(self) -> SkewPoly:
        """The left scalar multiple with leading coefficient one."""
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.lc().inv())

    def twist_coeffs(self, k: int) -> SkewPoly:
        """Apply theta^k to every coefficient (degrees unchanged)."""
        return SkewPoly(
            self.domain, [_twist(c, self.aut, k) for c in self.coeffs], self.aut
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.domain == other.domain
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
    """Product under (a x^i)(b x^j) = a theta^i(b) x^{i+j}."""
    f._check_compat(g)
    if f.is_zero() or g.is_zero():
        return SkewPoly.zero(f.domain, f.aut)
    out = [f.domain.zero] * (f.degree + g.degree + 1)
    i_aut = f.aut
    for i, fi in enumerate(f.coeffs):
        if fi == f.domain.zero:
            continue
        for j, gj in enumerate(g.coeffs):
            out[i + j] = out[i + j] + fi * _twist(gj, i_aut, i)
    return SkewPoly(f.domain, out, f.aut)


def right_divide(f: SkewPoly, g: SkewPoly) -> DivisionResult:
    """f = q * g + r with deg r < deg g (skew multiplication).

    The divisor's leading coefficient must be invertible; over F_q that is
    any nonzero g, over R it must be a unit in all three splitting
    coordinates.
    """
    f._check_compat(g)
    if g.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    lc = g.lc()
    if isinstance(lc, RingElem):
        if not lc.is_unit():
            raise NonMonicDivisor(
                "divisor leading coefficient is not a unit of R"
            )
    d = g.degree
    r = list(f.coeffs)
    q = [f.domain.zero] * max(0, len(r) - d)
    aut = f.aut
    while len(r) - 1 >= d and r:
        if r[-1] == f.domain.zero:
            r.pop()
            continue
        k = len(r) - 1 - d
        qk = r[-1] * _twist(lc, aut, k).inv()
        q[k] = qk
        for j in range(d + 1):
            r[k + j] = r[k + j] - qk * _twist(g.coeffs[j], aut, k)
        while r and r[-1] == f.domain.zero:
            r.pop()
    return DivisionResult(
        SkewPoly(f.domain, q, aut), SkewPoly(f.domain, r, aut)
    )


def xn_minus_1(domain, aut: int, n: int) -> SkewPoly:
    return SkewPoly(
        domain, [-domain.one] + [domain.zero] * (n - 1) + [domain.one], aut
    )


def is_right_divisor_of_xn_minus_1(g: SkewPoly, n: int) -> bool:
    """True iff g right-divides x^n - 1, by computing the right remainder."""
    return right_divide(xn_minus_1(g.domain, g.aut, n), g).remainder.is_zero()


def mod_xn_minus_1(f: SkewPoly, n: int) -> SkewPoly:
    """Right remainder of f by x^n - 1 (which is monic, so always defined)."""
    if f.degree < n:
        return f
    return right_divide(f, xn_minus_1(f.domain, f.aut, n)).remainder


# ---------------------------------------------------------------------------
# brute-force census of monic right divisors of x^n - 1 over F_q


def _brute_divisor_tails(n: int, field: Field, i: int, d: int) -> list[tuple[int, ...]]:
    """Index tuples (c_0..c_{d-1}) of the monic degree-d right divisors.

    Vectorized over all q^d candidates: track x^k mod g via the left shift
    s = x*r followed by cancellation of the top coefficient against monic
    g; g right-divides x^n - 1 iff x^n reduces to 1.
    """
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
    space = sum(field.q**d for d in range(n))
    if space > search_bound:
        raise SearchSpaceTooLarge(
            f"search space {space} exceeds bound {search_bound}"
        )
    divisors = [SkewPoly.one(field, i)]
    for d in range(1, n):
        for tail in _brute_divisor_tails(n, field, i, d):
            coeffs = [field.from_index(c) for c in tail] + [field.one]
            divisors.append(SkewPoly(field, coeffs, i))
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
    ``brute_right_divisors`` within the bound. Every returned polynomial is
    re-verified by division either way.
    """
    t_i = field.check_aut_exponent(i)
    if math.gcd(n, t_i) == 1:
        divisors = divisors_from_factorization(factor_xn_minus_1(n, field, i))
    else:
        divisors = brute_right_divisors(n, field, i, search_bound)
    for g in divisors:
        if not is_right_divisor_of_xn_minus_1(g, n):
            raise AssertionError(f"search produced a non-divisor: {g}")
    return divisors


# ---------------------------------------------------------------------------
# the commutative lane: F_{p^i}[x] inside F_q[x, theta_i]
#
# theta_i fixes every coefficient of F_{p^i}[x], so there the skew product
# is the ordinary one. ``Field.subfield(i)`` gives the one lane for it:
# polynomials as lists of lane indices (ascending, no trailing zeros) with
# remainder, product, gcd and Rabin's test. Factoring and its verification
# run on the lane; factors are lifted to ``SkewPoly`` once, at the end.


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


def subfield_irreducibles(field: Field, i: int, max_degree: int) -> list[SkewPoly]:
    """Monic irreducibles over F_{p^i} up to max_degree, by incremental sieve.

    Exponential in max_degree; kept as an independent reference for tests.
    """
    sub = field.fixed_subfield(i)
    irr: list[SkewPoly] = []
    for d in range(1, max_degree + 1):
        for tail in itertools.product(sub, repeat=d):
            g = SkewPoly(field, list(tail) + [field.one], i)
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
        """Re-check the subfield, the product and irreducibility of every factor.

        Each factor is read onto the lane of F_{p^i} first, which fails for a
        coefficient outside the subfield. The factors must be monic and
        pairwise distinct with positive multiplicities, so that
        ``census_counts`` counts distinct irreducibles; irreducibility is
        Rabin's test over F_{p^i}.
        """
        lane = self.field.subfield(self.aut)
        polys, prod = [], [lane.one]
        for g, s in self.factors:
            f = [lane.lane_index(c) for c in g.coeffs]
            if None in f:
                raise AssertionError(f"factor {g} leaves the fixed subfield")
            if s < 1 or not f or f[-1] != lane.one:
                raise AssertionError(f"factor ({g})^{s} is not a monic power")
            polys.append(f)
            for _ in range(s):
                prod = lane.mul(prod, f)
        if len(set(map(tuple, polys))) != len(polys):
            raise AssertionError("an irreducible factor is listed more than once")
        if prod != [lane.minus_one] + [0] * (self.n - 1) + [lane.one]:
            raise AssertionError("factor product does not reproduce x^n - 1")
        for f, (g, _) in zip(polys, self.factors):
            if not lane.is_irreducible(f):
                raise AssertionError(f"factor {g} is reducible over F_{lane.order}")

    def census_counts(self) -> tuple[int, int]:
        """(number of skew cyclic codes over F_q, number over R)."""
        over_field = 1
        for _, s in self.factors:
            over_field *= s + 1
        return over_field, over_field**3


def factor_xn_minus_1(n: int, field: Field, i: int) -> Factorization:
    """Complete factorization of x^n - 1 into monic irreducibles over F_{p^i}.

    With n = p^e * n' and p not dividing n', x^n - 1 = (x^{n'} - 1)^{p^e}
    and x^{n'} - 1 is square-free. Over F_Q[x]/(x^{n'} - 1), Q = p^i, the
    map v -> v^Q sends x^j to x^{Qj mod n'}, so Berlekamp's subalgebra
    {v : v^Q = v} is spanned by the coset sums e_C = sum_{j in C} x^j over
    the Q-cyclotomic cosets C mod n'. Splitting by gcd(f, e_C - s), s in
    F_Q, therefore ends with one irreducible per coset (Berlekamp, Bell
    Syst. Tech. J. 46, 1967). Factors are sorted by degree, then by
    coefficient indices.
    """
    if n < 1:  # x^0 - 1 = 0 has no factorization, and n = 0 never leaves the loop
        raise SkewPolyError(f"x^n - 1 needs n >= 1, got {n}")
    lane = field.subfield(i)
    n1 = n
    while n1 % field.p == 0:
        n1 //= field.p
    cosets = _cyclotomic_cosets(lane.order, n1)
    factors = [[lane.minus_one] + [0] * (n1 - 1) + [lane.one]]
    for coset in cosets:
        if len(factors) == len(cosets):
            break
        e_c = [0] * n1
        for j in coset:
            e_c[j] = lane.one
        split = []
        for f in factors:
            r = lane.rem(e_c, f)
            if len(r) <= 1:
                split.append(f)
                continue
            left = len(f) - 1
            for c in range(lane.order):  # gcd(f, r - s) as s runs over F_Q
                h = lane.gcd(f, [c] + r[1:])
                if len(h) > 1:
                    split.append(h)
                    left -= len(h) - 1
                    if not left:
                        break
        factors = split
    # lane indices increase with the F_q index, so this is the (degree,
    # coefficient indices) order
    factors.sort(key=lambda f: (len(f), f))
    lift = [SkewPoly(field, [lane.elem(c) for c in f], i) for f in factors]
    fac = Factorization(n, field, i, tuple((g, n // n1) for g in lift))
    fac.verify()
    return fac


def divisors_from_factorization(fac: Factorization) -> list[SkewPoly]:
    """All products prod p_k^{e_k} with 0 <= e_k <= s_k, sorted (degree, lex)."""
    divisors = [SkewPoly.one(fac.field, fac.aut)]
    for g, s in fac.factors:
        powers = [SkewPoly.one(fac.field, fac.aut)]
        for _ in range(s):
            powers.append(skew_mul(powers[-1], g))
        divisors = [skew_mul(d, pw) for d in divisors for pw in powers]
    field = fac.field
    divisors.sort(key=lambda f: (f.degree, tuple(field.index(c) for c in f.coeffs)))
    return divisors


def extended_gcd_commutative(f: SkewPoly, g: SkewPoly):
    """(d, a, b) with a*f + b*g = d, d the monic gcd, in F_{p^i}[x].

    Requires coefficients fixed by the automorphism; the identity is
    recomputed with skew multiplication before returning, which catches
    misuse on noncommuting inputs.
    """
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    f._check_compat(g)
    domain, aut = f.domain, f.aut
    one, zero = SkewPoly.one(domain, aut), SkewPoly.zero(domain, aut)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero():
        quo, rem = right_divide(r0, r1)
        r0, a0, b0, r1, a1, b1 = (
            r1,
            a1,
            b1,
            rem,
            a0 - skew_mul(quo, a1),
            b0 - skew_mul(quo, b1),
        )
    c = r0.lc().inv()
    d, a, b = r0.scale(c), a0.scale(c), b0.scale(c)
    if skew_mul(a, f) + skew_mul(b, g) != d:
        raise AssertionError("Bezout identity failed; inputs must commute")
    return d, a, b


# ---------------------------------------------------------------------------
# crossing between F_q[x, theta] and R[x, theta]


def ring_skew_poly_combine(f1: SkewPoly, f2: SkewPoly, f3: SkewPoly) -> SkewPoly:
    """eta1*f1 + eta2*f2 + eta3*f3, built coefficientwise via the splitting."""
    f1._check_compat(f2)
    f1._check_compat(f3)
    if f1.over_ring:
        raise DomainMismatch("components must be polynomials over the field")
    field = f1.field
    n = max(len(f1.coeffs), len(f2.coeffs), len(f3.coeffs))
    coeffs = [
        crt_join(field, (c1, c2, c3))
        for c1, c2, c3 in zip(f1.padded(n), f2.padded(n), f3.padded(n))
    ]
    return SkewPoly(RingDomain(field), coeffs, f1.aut)


def project_components(f: SkewPoly) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
    """The three field polynomials whose combination is f."""
    if not f.over_ring:
        raise DomainMismatch("expected a polynomial over R")
    field = f.field
    triples = [crt_split(c) for c in f.coeffs]
    return tuple(
        SkewPoly(field, [t[k] for t in triples], f.aut) for k in range(3)
    )


# ---------------------------------------------------------------------------
# text format: `c0 + c1*x + c2*x^2`, coefficients as bracket lists (field)
# or `[..]|[..]|[..]` triples (ring); integer literals mean prime-subfield
# constants


def poly_to_string(f: SkewPoly) -> str:
    if f.is_zero():
        return "0"
    terms = []
    for k, c in enumerate(f.coeffs):
        if c == f.domain.zero:
            continue
        cs = str(c)
        if k == 0:
            terms.append(cs)
        elif k == 1:
            terms.append(f"{cs}*x")
        else:
            terms.append(f"{cs}*x^{k}")
    return " + ".join(terms)


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


def _check_degree(deg: int, max_degree: int | None) -> None:
    # refused before the coefficient list of length deg + 1 is allocated
    if max_degree is not None and deg > max_degree:
        raise ValueError(f"degree {deg} exceeds the maximum {max_degree}")


def poly_from_string(
    s: str, field: Field, aut: int, max_degree: int | None = None
) -> SkewPoly:
    """Parse a field polynomial; accepts bracket lists and plain integers.

    A term of degree above ``max_degree`` raises ``ValueError``.
    """
    from .finite_field import elem_from_string

    s = s.strip()
    if s in ("0", ""):
        return SkewPoly.zero(field, aut)
    coeffs: dict[int, FieldElem] = {}
    for sign, term in _split_terms(s):
        ctext, power = _parse_term(term)
        if ctext is None:
            c = field.one
        elif ctext.startswith("["):
            c = elem_from_string(field, ctext)
        else:
            c = field.elem(int(ctext))
        if sign < 0:
            c = -c
        coeffs[power] = coeffs.get(power, field.zero) + c
    deg = max(coeffs)
    _check_degree(deg, max_degree)
    out = [coeffs.get(k, field.zero) for k in range(deg + 1)]
    return SkewPoly(field, out, aut)


def ring_poly_from_string(
    s: str, field: Field, aut: int, max_degree: int | None = None
) -> SkewPoly:
    """Parse a polynomial over R; coefficients are a|b|c triples or integers.

    A term of degree above ``max_degree`` raises ``ValueError``.
    """
    from .ring_r import ring_elem, ring_elem_from_string

    domain = RingDomain(field)
    s = s.strip()
    if s in ("0", ""):
        return SkewPoly.zero(domain, aut)
    coeffs: dict[int, RingElem] = {}
    for sign, term in _split_terms(s):
        ctext, power = _parse_term(term)
        if ctext is None:
            c = domain.one
        elif "|" in ctext:
            c = ring_elem_from_string(field, ctext)
        else:
            c = ring_elem(field, int(ctext))
        if sign < 0:
            c = -c
        coeffs[power] = coeffs.get(power, domain.zero) + c
    deg = max(coeffs)
    _check_degree(deg, max_degree)
    out = [coeffs.get(k, domain.zero) for k in range(deg + 1)]
    return SkewPoly(domain, out, aut)
