"""Skew cyclic codes over F_q and over R = F_q + vF_q + v^2F_q.

A component code of length n over F_q is the left module generated by a
monic right divisor g of x^n - 1 in F_q[x, theta_i]; its dimension is
n - deg g. A code over R is the direct sum eta1*C1 + eta2*C2 + eta3*C3 of
three component codes of equal length. The splitting
R[x, theta_i] = F_q[x, theta_i]^3 makes the code its component triple:
the combined generator eta1*g1 + eta2*g2 + eta3*g3 that generates it over
R, like the combined generator of its dual and its idempotent, is fixed
by the components, so no polynomial over R is built here. The CLI formats
them at output through ``ring_skew_poly_combine``; the oracle rebuilds
them with its own arithmetic over R and re-checks them.

Duals come from the reversed-and-twisted cofactor: if x^n - 1 = h*g with
deg g = r, the dual of <g> is generated by

    h~(x) = h_{n-r} + theta(h_{n-r-1}) x + ... + theta^{n-r}(h_0) x^{n-r},

normalized monic. Idempotent generators exist when n is coprime to both q
and the automorphism order, via the Bezout identity a*g + b*h = 1 in the
fixed subfield; they are built and checked on its commutative lane.

Polynomials, twists and remainders are F_q indices; ``FieldElem`` and
``RingElem`` values appear only in the words ``contains`` takes and in
the rows that ``generator_rows`` and ``gray_generator_rows`` return.
``contains`` checks a word once, where it enters, and hands its index
vectors (one per splitting coordinate over R) to one kernel,
``ComponentCode._contains_indices``, which reads remainders x^t mod g
filled by a twisted-shift recurrence, with no division. Code objects are
immutable; what they derive is built on first request and kept. A code
over R keeps no rows; it joins those its components keep per slot.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from . import linalg
from .finite_field import EnumerationTooLarge, Field, FieldElem, FieldMismatch, field_to_json
from .linalg import DISTANCE_LIMIT
from .ring_r import RingElem, make_idempotents
from .skew_poly import (
    SEARCH_LIMIT,
    AutMismatch,
    SkewPoly,
    _coprime_part,
    _cyclotomic_cosets,
    _lane_xn_minus_1,
    central_factors,
    is_semisimple,
    lane_lift,
    lane_read,
    monic_right_divisors,
    poly_to_string,
    right_divide,
    xn_minus_1,
)

CENSUS_LIMIT = 10**4  # codes over R a census may hold unless a caller's bound says otherwise


class CodeError(Exception):
    pass


class NotMonic(CodeError):
    pass


class NotRightDivisor(CodeError):
    pass


class LengthMismatch(CodeError):
    pass


class HypothesisViolated(CodeError):
    pass


class NotCoprime(CodeError):
    pass


class MinDistance(NamedTuple):
    """Minimum nonzero weight; degenerate flags the zero code (reported as 0)."""

    value: int
    degenerate: bool


def skew_shift(word: Sequence, i: int):
    """sigma(c) = (theta_i(c_{n-1}), theta_i(c_0), ..., theta_i(c_{n-2}))."""
    if not word:
        return tuple(word)
    twisted = [c.frob(i) for c in word]
    return tuple([twisted[-1]] + twisted[:-1])


class ComponentCode:
    """A skew cyclic code over F_q: the left module <g> with g | x^n - 1.

    Construction computes the cofactor h as the right quotient of x^n - 1
    by g and raises ``NotRightDivisor`` on a nonzero remainder, so every
    instance satisfies h*g = x^n - 1. The minimum distance is computed on
    first request and kept (``_distance``); codes that share a component
    share the enumeration. So are the right remainders x^t mod g for
    deg g <= t < n that ``_contains_indices`` reads (``_remainder_cols``,
    filled by ``_remainder_columns`` without division and stored column
    by column: entry [k][t - deg g] is the logarithm, in the field's
    ``LogTable``, of the coefficient of x^k). Membership has one kernel,
    ``_contains_indices`` on a checked index vector; ``contains`` here and
    ``SkewCyclicCode.contains`` check words and feed it.
    The generator rows (``_rows``), the dual code (``_dual``) and the
    idempotent generator (``_idempotent``) are likewise built on first
    request and kept; a failed construction is not kept. So are the rows of
    eta_j * C that codes over R with C in slot j share (``_slot_rows``).
    The hash of (n, aut, g) is computed once, at construction (``_hash``),
    since codes are dict keys wherever a census shares work per component.
    A code that ``census_components`` built keeps that census's members,
    each mapped to itself (``_census``), so that a distance read on the
    dual reads the member's weights.
    """

    __slots__ = (
        "n", "g", "h", "field", "aut",
        "_distance", "_weights", "_remainder_cols", "_dual", "_idempotent", "_rows",
        "_slot_rows", "_hash", "_census",
    )

    def __init__(self, n: int, g: SkewPoly):
        h, rem = right_divide(xn_minus_1(g.field, g.aut, n), g)
        if not rem.is_zero():
            raise NotRightDivisor(
                f"{poly_to_string(g)} does not right-divide x^{n} - 1"
            )
        self._set(n, g, h)

    def _set(self, n: int, g: SkewPoly, h: SkewPoly) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "field", g.field)
        object.__setattr__(self, "aut", g.aut)
        object.__setattr__(self, "_distance", None)
        object.__setattr__(self, "_weights", None)
        object.__setattr__(self, "_remainder_cols", None)
        object.__setattr__(self, "_dual", None)
        object.__setattr__(self, "_idempotent", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_slot_rows", None)
        object.__setattr__(self, "_hash", hash((n, g.aut, g)))
        object.__setattr__(self, "_census", None)

    def __setattr__(self, name, value):
        raise AttributeError("ComponentCode is immutable")

    @property
    def dim(self) -> int:
        return self.n - self.g.degree

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    def is_zero_code(self) -> bool:
        return self.dim == 0

    def generator_rows(self) -> list[tuple[FieldElem, ...]]:
        """Row j is the coefficient vector of x^j * g, for j < dim.

        Built once into ``_rows``; each call returns a new list.
        """
        rows = self._rows
        if rows is None:
            fld, elems = self.field, self.field.log_table().elems
            twists = [fld.frob_table(self.aut * j % fld.m) for j in range(self.dim)]
            rows = tuple(  # theta^j on the coefficients of g, shifted by j
                tuple(elems[theta[c]] for c in [0] * j + self.g.padded(self.n - j))
                for j, theta in enumerate(twists)
            )
            object.__setattr__(self, "_rows", rows)
        return list(rows)

    def _slot(self, j: int, gray: bool) -> tuple:
        """The rows of eta_j * C over R (each row c as eta_j times c) or as
        Gray rows (c on coordinates 3i + j, zero elsewhere). Each of the six
        is built on its first request and kept in ``_slot_rows``."""
        if self._slot_rows is None:
            object.__setattr__(self, "_slot_rows", [None] * 6)
        rows = self._slot_rows[3 * gray + j]
        if rows is None:
            crows, eta = self.generator_rows(), make_idempotents(self.field)[j]
            if gray:
                placed = [[self.field.zero] * (3 * self.n) for _ in crows]
                for row, crow in zip(placed, crows):
                    row[j::3] = crow
                rows = tuple(map(tuple, placed))
            else:
                rows = tuple(tuple(eta.scale_field(x) for x in crow) for crow in crows)
            self._slot_rows[3 * gray + j] = rows
        return rows

    def _remainder_columns(self) -> tuple:
        """``_remainder_cols``, filled on first use from x^d mod g = -(g - x^d)
        by x^{t+1} mod g = x (x^t mod g) - c g, c = theta(r_{d-1}) for
        r = x^t mod g: one twisted shift and at most one axpy per column."""
        cols = self._remainder_cols
        if cols is None:
            d, t = self.g.degree, self.field.log_table()
            exp, log, neg, add = t.exp, t.log, t.neg, t.add
            frob = self.field.frob_table(self.aut)
            glog = [log[c] for c in self.g.coeffs[:d]]
            rem, rems = [neg[c] for c in self.g.coeffs[:d]], []  # x^d mod g
            for step in range(self.n - d if d else 0):  # g = 1 has no remainder rows
                if step:
                    c = frob[rem[-1]]
                    rem = [0] + [frob[r] for r in rem[:-1]]
                    if c:
                        lc = log[neg[c]]
                        rem = [add(r, exp[lc + lg]) for r, lg in zip(rem, glog)]
                rems.append(rem)
            cols = tuple(tuple(log[rem[k]] for rem in rems) for k in range(d))
            object.__setattr__(self, "_remainder_cols", cols)
        return cols

    def _contains_indices(self, word: Sequence[int]) -> bool:
        """Membership of the word with coefficient indices ``word`` (length
        n, in this field; the callers check both): its right remainder by g,
        word[:d] + sum over t >= d of word_t * (x^t mod g) with d = deg g, is
        zero. Each coefficient of x^k is summed over the nonzero word_t and
        tested in turn, on indices and logarithms of the field's
        ``LogTable``: a product is ``exp[log a + log b]`` and a sum
        a (1 + b/a) reads ``zech``, as in ``FieldElem``.
        """
        cols = self._remainder_cols or self._remainder_columns()
        d = len(cols)  # one entry per coefficient of x^k, k < deg g
        t = self.field._log or self.field.log_table()
        exp, log, zech = t.exp, t.log, t.zech
        high = [(j, log[c]) for j, c in enumerate(word[d:]) if c]
        for k, col in enumerate(cols):
            s = word[k]
            for j, a in high:
                x = exp[a + col[j]]
                if s and x:
                    ls = log[s]
                    s = exp[ls + zech[log[x] - ls]]
                else:
                    s = s or x
            if s:
                return False
        return True

    def contains(self, word) -> bool:
        """Membership of a word of n ``FieldElem`` of this field, checked
        here and read once into the indices ``_contains_indices`` tests."""
        n = self.n
        if len(word) != n:
            raise LengthMismatch(f"word length {len(word)} != n = {n}")
        field, idx = self.field, []
        for x in word:
            if not isinstance(x, FieldElem) or (x.field is not field and x.field != field):
                raise FieldMismatch(f"word coordinate {x!r} is not in {field!r}")
            idx.append(x.idx)
        return self._contains_indices(idx)

    def reciprocal_cofactor(self) -> SkewPoly:
        """h~ = h_{n-r} + theta(h_{n-r-1}) x + ... + theta^{n-r}(h_0) x^{n-r}.

        Built from the cofactor h with x^n - 1 = h*g; generates the dual
        once normalized monic.
        """
        fld, nr = self.field, self.n - self.g.degree
        twists = (fld.frob_table(self.aut * j % fld.m) for j in range(nr + 1))
        return SkewPoly(fld, [t[self.h.coeff(nr - j)] for j, t in enumerate(twists)], self.aut)

    def dual(self) -> ComponentCode:
        """The orthogonal code, generated by the monic normalization of h~.

        Built on the first call and kept in ``_dual``. The dual's own
        ``_dual`` starts empty, so its dual is rebuilt from its cofactor.
        """
        dual = self._dual
        if dual is None:
            dual = component_code_new(self.n, self.reciprocal_cofactor().monic())
            object.__setattr__(self, "_dual", dual)
        return dual

    def weight_distribution(self, bound: int = DISTANCE_LIMIT) -> list[int]:
        """A_0, ..., A_n: the number of codewords of each Hamming weight.

        Enumerated (``span_weight_distribution``) on the first call and kept
        in ``_weights``; raises ``EnumerationTooLarge`` whenever q^dim
        exceeds ``bound``, also when the distribution is already known.
        """
        if self.size > bound:
            raise EnumerationTooLarge(f"span size {self.size} exceeds bound {bound}")
        if self._weights is None:
            rows = linalg.to_index_rows(self.generator_rows(), self.field)
            weights = linalg.span_weight_distribution(rows, self.field, bound, self.n)
            object.__setattr__(self, "_weights", weights)
        return self._weights

    def min_hamming_distance(self, bound: int = DISTANCE_LIMIT) -> MinDistance:
        """Minimum nonzero weight, read on the smaller of C and C^perp.

        With k = dim: if k <= n - k, it is the least nonzero weight of the
        ``weight_distribution``. Otherwise that of the q^(n-k)-word
        ``dual()`` is carried back by ``linalg.macwilliams``; its
        postconditions, and a result of other than q^k words, raise
        ``MacWilliamsError`` and keep nothing. In a census the dual is read
        from the census members (``_census``) when it is one, so each dual
        pair is enumerated once, on its smaller side. The dual itself is
        ``dual()``'s fresh build, never replaced by the member, so the
        oracle's duality claim still rebuilds it. Raises
        ``EnumerationTooLarge`` whenever q^min(k, n - k) exceeds ``bound``,
        also when the value is already known.
        """
        if self.is_zero_code():
            return MinDistance(0, True)
        k, n, fld = self.dim, self.n, self.field
        size = fld.q ** min(k, n - k)
        if size > bound:
            raise EnumerationTooLarge(f"span size {size} exceeds bound {bound}")
        if self._distance is None:
            if k <= n - k:
                weights = self.weight_distribution(bound)
            else:
                dual = self.dual()
                dual = dual if self._census is None else self._census.get(dual, dual)
                weights = linalg.macwilliams(dual.weight_distribution(bound), n, fld.q)
                if sum(weights) != self.size:
                    raise linalg.MacWilliamsError(
                        f"the dual's weights carry to {sum(weights)} words, not {self.size}"
                    )
            w = next(j for j in range(1, n + 1) if weights[j])
            object.__setattr__(self, "_distance", w)
        return MinDistance(self._distance, False)

    def idempotent_generator(self) -> SkewPoly:
        """e with e*e = e mod x^n - 1 and <e> = <g>, via the Bezout identity.

        Requires n coprime to q and to the automorphism order, so that g and
        h lie in F_{p^i}[x]. e = a*g for a*g + b*h = 1 is built on the
        subfield lane, a from ``xgcd`` on the lane reads of g and h, and
        kept in ``_idempotent`` once both postconditions hold there:
        e*e = e, and gcd(e, x^n - 1) = g, which is <e> = <g>. A failure
        raises on every call.
        """
        if self._idempotent is not None:
            return self._idempotent
        t_i = self.field.m // self.aut
        if math.gcd(self.n, self.field.q) != 1 or math.gcd(self.n, t_i) != 1:
            raise HypothesisViolated(
                f"requires gcd(n, q) = gcd(n, t_i) = 1; "
                f"got n = {self.n}, q = {self.field.q}, t_i = {t_i}"
            )
        lane = self.field.subfield(self.aut)
        g, xn1 = lane_read(lane, self.g), _lane_xn_minus_1(lane, self.n)
        d, a, _ = lane.xgcd(g, lane_read(lane, self.h))
        if len(d) != 1:
            raise NotCoprime(f"g and h share the factor {lane_lift(lane, d, self.aut)}")
        e = lane.rem(lane.mul(a, g), xn1)
        if lane.rem(lane.mul(e, e), xn1) != e:
            raise AssertionError("constructed generator is not idempotent")
        if lane.gcd(e, xn1) != g:
            raise AssertionError("idempotent does not generate the code")
        e = lane_lift(lane, e, self.aut)
        object.__setattr__(self, "_idempotent", e)
        return e

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComponentCode)
            and self.n == other.n
            and self.aut == other.aut
            and self.g == other.g
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ComponentCode(n={self.n}, g={poly_to_string(self.g)}, aut={self.aut})"


def component_code_new(n: int, g: SkewPoly) -> ComponentCode:
    """Validated construction: g must be monic and right-divide x^n - 1."""
    if n < 1:
        raise LengthMismatch("length must be positive")
    if g.is_zero() or not g.is_monic():
        raise NotMonic(f"generator must be monic, got {poly_to_string(g)}")
    return ComponentCode(n, g)


def _unchecked_component_code(n: int, g: SkewPoly) -> ComponentCode:
    """Bypass divisor validation (negative controls in the verification suite).

    The only way to build a ``ComponentCode`` whose h*g is not x^n - 1.
    """
    quo, _ = right_divide(xn_minus_1(g.field, g.aut, n), g)
    code = object.__new__(ComponentCode)
    code._set(n, g, quo)
    return code


class SkewCyclicCode:
    """A skew cyclic code over R, as eta1*C1 + eta2*C2 + eta3*C3.

    The code is its component triple (c1, c2, c3); equality and hash come
    from the three generators. The dual (``_dual``) is built on first request
    and kept; the rows join those its components keep per slot (``_slot``).
    """

    __slots__ = ("n", "c1", "c2", "c3", "field", "aut", "_dual")

    def __init__(self, c1: ComponentCode, c2: ComponentCode, c3: ComponentCode):
        _set_n(self, c1.n)
        _set_c1(self, c1)
        _set_c2(self, c2)
        _set_c3(self, c3)
        _set_field(self, c1.field)
        _set_aut(self, c1.aut)
        _set_dual(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("SkewCyclicCode is immutable")

    @property
    def components(self) -> tuple[ComponentCode, ComponentCode, ComponentCode]:
        return (self.c1, self.c2, self.c3)

    @property
    def dim(self) -> int:
        return self.c1.dim + self.c2.dim + self.c3.dim

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    def is_zero_code(self) -> bool:
        return self.dim == 0

    def generator_rows(self) -> list[tuple[RingElem, ...]]:
        """The stacked rows eta_j * (rows of C_j) over R, as a new list."""
        return [*self.c1._slot(0, False), *self.c2._slot(1, False), *self.c3._slot(2, False)]

    def gray_generator_rows(self) -> list[tuple[FieldElem, ...]]:
        """The Gray images of ``generator_rows()``, in order, as a new list."""
        return [*self.c1._slot(0, True), *self.c2._slot(1, True), *self.c3._slot(2, True)]

    def contains(self, word) -> bool:
        """Membership of a sequence of ``RingElem`` via the splitting: the
        coordinate words (x1), (x2), (x3) it stores lie in C1, C2 and C3.

        Every coordinate is checked once, here, before any component is
        tested; the index words go to ``_contains_indices`` in turn, so a
        word C1 rejects never reads its x2 or x3.
        """
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n = {self.n}")
        field = self.field
        for r in word:
            if not isinstance(r, RingElem):
                raise FieldMismatch("word coordinates must be elements of R")
            if r.x1.field is not field and r.x1.field != field:
                raise FieldMismatch(f"word coordinate {r!r} is not in R over {field!r}")
        return (
            self.c1._contains_indices([r.x1.idx for r in word])
            and self.c2._contains_indices([r.x2.idx for r in word])
            and self.c3._contains_indices([r.x3.idx for r in word])
        )

    def dual(self) -> SkewCyclicCode:
        """eta1*C1^perp + eta2*C2^perp + eta3*C3^perp, built once into ``_dual``."""
        dual = self._dual
        if dual is None:
            dual = code_from_components(self.c1.dual(), self.c2.dual(), self.c3.dual())
            _set_dual(self, dual)
        return dual

    def min_lee_distance(self, bound: int = DISTANCE_LIMIT) -> MinDistance:
        """Minimum over the nonzero components of their Hamming distances."""
        best = None
        for comp in self.components:
            if comp.is_zero_code():
                continue
            d = comp.min_hamming_distance(bound).value
            if best is None or d < best:
                best = d
        if best is None:
            return MinDistance(0, True)
        return MinDistance(best, False)

    def idempotent_generator(self) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
        """The components (e1, e2, e3) of the idempotent generator
        e = eta1*e1 + eta2*e2 + eta3*e3 over R.

        Each e_j is a verified idempotent generator of C_j, and the
        splitting carries e_j*e_j = e_j and <e_j> = C_j to e over R
        (``oracle.verify_idempotent_generators`` re-checks each e_j).
        """
        return tuple(c.idempotent_generator() for c in self.components)

    def _key(self) -> tuple:
        # the splitting is a bijection: equal triples, equal combined generators
        return (self.n, self.aut, self.c1.g, self.c2.g, self.c3.g)

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewCyclicCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        gs = ", ".join(poly_to_string(c.g) for c in self.components)
        return f"SkewCyclicCode(n={self.n}, g=({gs}), aut={self.aut})"


_set_n, _set_c1, _set_c2, _set_c3, _set_field, _set_aut, _set_dual = (
    getattr(SkewCyclicCode, name).__set__ for name in SkewCyclicCode.__slots__
)


def code_from_components(
    c1: ComponentCode, c2: ComponentCode, c3: ComponentCode
) -> SkewCyclicCode:
    """The code eta1*C1 + eta2*C2 + eta3*C3.

    Each component satisfies h_j*g_j = x^n - 1, and the splitting
    R[x, theta_i] = F_q[x, theta_i]^3 carries that to the combined h and g,
    so nothing is combined or re-multiplied over R here (the oracle
    re-checks it).
    """
    if not (c1.n == c2.n == c3.n):
        raise LengthMismatch("component lengths differ")
    if not (c1.aut == c2.aut == c3.aut):
        raise AutMismatch("component automorphisms differ")
    if not (c1.field is c2.field is c3.field or c1.field == c2.field == c3.field):
        raise FieldMismatch("component fields differ")
    return SkewCyclicCode(c1, c2, c3)


def count_skew_cyclic_codes(n: int, field: Field, i: int) -> tuple[int, int]:
    """(count over F_q, count over R) from number theory alone.

    With n = p^e * n' and p not dividing n', x^n - 1 has one irreducible
    factor over F_{p^i} per p^i-cyclotomic coset mod n', each of
    multiplicity p^e, so when gcd(n, t_i) = 1 there are
    (p^e + 1)^{#cosets} monic divisors. When t_i | n and p does not divide
    N = n/t_i, x^{t_i} is central and each coset C mod N gives a factor
    M_{t_i}(F_Q), Q = p^{i|C|}, of F_q[x, theta_i]/(x^n - 1), whose left
    ideals are the subspaces of F_Q^{t_i}: the count is the product over
    the cosets of sum_k [t_i choose k]_Q (``skew_poly.central_factors``,
    which the divisor route reads for its bound too). No polynomial is
    factored. Any
    other n raises ``HypothesisViolated``. Past ``skew_poly.FACTOR_LIMIT``
    for n' (or N) it raises ``EnumerationTooLarge`` before the coset table
    is built, as factoring does.
    """
    t_i = field.check_aut_exponent(i)
    if math.gcd(n, t_i) == 1:
        n1 = _coprime_part(n, field.p)
        over_field = (n // n1 + 1) ** len(_cyclotomic_cosets(field.p**i, n1))
    elif is_semisimple(n, field, i):
        over_field = math.prod(c.subspaces for c in central_factors(n, field, i))
    else:
        raise HypothesisViolated(
            f"gcd(n, t_i) = {math.gcd(n, t_i)} != 1 (n = {n}, t_i = {t_i}), and t_i does "
            f"not divide n or p = {field.p} divides n/t_i"
        )
    return over_field, over_field**3


def census_components(
    n: int, field: Field, i: int, bound: int = CENSUS_LIMIT, search_bound: int = SEARCH_LIMIT
) -> tuple[list[ComponentCode], int, int | None]:
    """(components, D^3, formula): a ``ComponentCode`` per monic right
    divisor of x^n - 1, each derived and built once, and the count over R
    (``count_skew_cyclic_codes``), or None where it has none. Each
    component keeps the list's members (``_census``): a distance read on a
    dual that is a member reads the member's weights, so each dual pair is
    enumerated once. Past ``bound`` codes it raises ``EnumerationTooLarge``: from that count
    before anything is factored, else from the divisors before any build."""
    try:
        formula = count_skew_cyclic_codes(n, field, i)[1]
    except HypothesisViolated:  # the divisors come from a search
        formula = None
    early = formula is not None and formula > bound
    divisors = [] if early else monic_right_divisors(n, field, i, search_bound)
    size = formula if early else len(divisors) ** 3
    if size > bound:
        raise EnumerationTooLarge(f"census size {size} exceeds table bound {bound}")
    comps = [component_code_new(n, g) for g in divisors]
    members = {c: c for c in comps}
    for c in comps:
        object.__setattr__(c, "_census", members)
    return comps, size, formula


def census(
    n: int, field: Field, i: int, bound: int = CENSUS_LIMIT, search_bound: int = SEARCH_LIMIT
) -> list[SkewCyclicCode]:
    """Every skew cyclic code of length n over R, in deterministic order:
    the D^3 triples of the ``census_components`` list, last component
    fastest. Past ``bound`` codes it raises, as that does."""
    comps = census_components(n, field, i, bound, search_bound)[0]
    return [code_from_components(*triple) for triple in itertools.product(comps, repeat=3)]


# ---------------------------------------------------------------------------
# JSON description block (used by the CLI for reproducible output)


def code_to_json(code: SkewCyclicCode) -> dict:
    return {
        "field": field_to_json(code.field),
        "aut": code.aut,
        "n": code.n,
        "g1": poly_to_string(code.c1.g),
        "g2": poly_to_string(code.c2.g),
        "g3": poly_to_string(code.c3.g),
    }
