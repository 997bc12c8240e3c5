"""Independent oracles for every structural claim at desk scale.

Each ``verify_*`` function checks one claim and returns a
``VerdictReport``. A failing verdict always carries a concrete witness
that can be replayed from (claim, configuration, seed). Skipped
preconditions are reported as verdicts too, never silently dropped.

The claims work on generator rows, never on the list of codewords: a
code is an F_q-subspace, and sigma and the projections eta_j are additive
and theta_i-semilinear, so a claim holds on every codeword exactly when
it holds on a basis, and a rank test replaces an enumeration of q^k
words. Only the minimum distance is enumerated, one coordinate-class
block of the Gray image at a time. No claim divides a polynomial to
build its rows.

R[x, theta_i] = F_q[x, theta_i]^3 (checked once per entry by
``_verify_splitting``) makes every claim about a code over R a claim
about its components, checked on each ``ComponentCode``: a code over R
passes when each of its components does (``_by_component``). The one
per-code check of production's rows over R is ``_placement``; the Gray
claims report its witness. The claims about the combined generator
eta1*g1 + eta2*g2 + eta3*g3 read it in split coordinates, as the triple
(g1, g2, g3): its rows, its cofactor and the idempotent are products on
index vectors with the dense field tables, through the skew shift sigma
(``_twist_orbit``). The a + bv + cv^2 form
with its schoolbook product (``_schoolbook_mul``) stays in three places:
``_verify_splitting``, the evaluation map of ``gray-isometry``
(``_evaluations``), and the eta-combination (``_combine``) that
``decompose-compose`` hands to production's ``project_components`` and
``ring_skew_poly_combine``. Production's rows over R reach ``_placement``
through ``gray_map``, and ``principal-generator``'s words over R reach
``contains`` through ``gray_inverse``; its uniform words are drawn per
distinct component of an entry, not per code. The claims share only the field
tables with production's arithmetic; ``_verify_tables`` checks them.

Each claim has one path and builds nothing another claim reads. A claim
over R takes a ``Case``: the code's config, its component generators and
its placement witness, built once per code by ``_case``. The combined
generator's Gray span is the direct sum of its components' sigma-orbit
spans, one on each coordinate class 3k + t, so
``principal-generator`` and ``distance-law`` read it as three
``SlotSpan``s, built once per distinct component generator of an entry
(``_slot_spans``). A component claim takes a ``ComponentCode`` and its
config, which ``_by_component`` builds once per distinct component.
``verify_entry`` takes its codes from one bounded ``census`` call and runs
the claims one at a time in ``CLAIMS`` order, whatever the data: a per-code
claim maps every code to its verdict and folds them into one report before
the next claim starts. Each sampled claim draws from its own
``Random(entry.seed)``: ``gray-isometry``, ``principal-generator`` and the
shift-closure pair (which share their component verdicts) one stream each,
so no claim's samples depend on another claim's draws. ``verify_all`` runs
``_verify_splitting`` once per distinct (field, i, pairs, seed) of its entries.

``oracle_code_enumerate`` lists codewords, for tests at desk size.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from . import linalg
from .codes import (
    CENSUS_LIMIT,
    ComponentCode,
    SkewCyclicCode,
    _unchecked_component_code,
    census,
    code_from_components,
    code_to_json,
    component_code_new,
    count_skew_cyclic_codes,
)
from .finite_field import (
    EnumerationTooLarge,
    Field,
    FieldError,
    NotPrime,
    field_to_json,
    is_prime,
)
from .linalg import DISTANCE_LIMIT
from .ring_r import (
    RingElem,
    gray_inverse,
    gray_map,
    lee_distance,
)
from .skew_poly import (
    SEARCH_LIMIT,
    SkewPoly,
    brute_right_divisors,
    is_right_divisor_of_xn_minus_1,
    is_semisimple,
    monic_right_divisors,
    poly_from_string,
    poly_to_string,
    project_components,
    ring_skew_poly_combine,
    xn_minus_1,
)

if TYPE_CHECKING:
    import numpy as np


def _check_at_least(least: int, **values) -> None:
    """Raise ``ValueError`` unless every value is an int (not a bool) >= least."""
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass(frozen=True)
class Bounds:
    enumeration: int = CENSUS_LIMIT  # codes over R in the census: larger ones are refused
    pairs: int = 10**4  # isometry pair samples
    distance: int = DISTANCE_LIMIT  # span of one Gray block in the distance law
    search: int = SEARCH_LIMIT  # brute-force divisor search space

    def __post_init__(self):
        _check_at_least(0, **vars(self))


@dataclass(frozen=True)
class TestMatrixEntry:
    __test__ = False  # not a pytest class, despite the name

    p: int
    m: int
    i: int
    n: int
    modulus: tuple | None = None
    seed: int = 0
    bounds: Bounds = dc_field(default_factory=Bounds)
    _field: Field | None = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_at_least(1, p=self.p, m=self.m, i=self.i, n=self.n)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        if self.modulus is not None:
            object.__setattr__(self, "modulus", tuple(self.modulus))

    def field(self) -> Field:
        """The entry's field, built on first use; every claim shares it."""
        if self._field is None:
            mod = self.modulus if self.modulus is not None else default_modulus(self.p, self.m)
            object.__setattr__(self, "_field", Field(self.p, self.m, mod))
        return self._field

    def config(self) -> dict:
        """The entry as ``matrix_from_json`` reads it back: p, m, i, n and
        seed, with the modulus when it is not ``default_modulus(p, m)`` and
        the bounds when they are not ``Bounds()``."""
        cfg = {"p": self.p, "m": self.m, "i": self.i, "n": self.n, "seed": self.seed}
        if self.modulus is not None and self.modulus != default_modulus(self.p, self.m):
            cfg["modulus"] = list(self.modulus)
        if self.bounds != Bounds():
            cfg["bounds"] = asdict(self.bounds)
        return cfg


@dataclass
class VerdictReport:
    claim: str
    config: dict
    mode: str  # "exhaustive" | "sampled" | "skipped"
    passed: bool
    counterexample: dict | None = None
    # how many codes (or whole entries) the report covers: a single verdict
    # counts itself by its mode, an aggregate sums its verdicts
    checked: int | None = None
    skipped: int | None = None

    def __post_init__(self):
        if self.checked is None:
            skipped = self.mode == "skipped"
            self.checked, self.skipped = int(not skipped), int(skipped)

    def to_json(self) -> str:
        return json.dumps(
            {
                "claim": self.claim,
                "config": self.config,
                "mode": self.mode,
                "pass": self.passed,
                "counterexample": self.counterexample,
                "checked": self.checked,
                "skipped": self.skipped,
            },
            sort_keys=True,
        )


@dataclass
class Case:
    """What the claims over R read about one code, built by ``_case``.

    ``combined`` is eta1*g1 + eta2*g2 + eta3*g3 in split coordinates.
    ``placement`` is ``_placement``'s witness, which the Gray claims and
    ``principal-generator`` report as their failure. A case holds no Gray
    rows and no span: the combined generator's span is the direct sum of
    the ``SlotSpan`` of each g_t, which ``_slot_spans`` keeps once per
    distinct g_t of an entry. No field of a case is an R element:
    ``decompose-compose`` builds its few ``RingElem`` coefficients itself.
    """

    code: SkewCyclicCode
    config: dict
    combined: tuple[SkewPoly, SkewPoly, SkewPoly]  # (g1, g2, g3)
    placement: dict | None  # None when production's rows are placed


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree m over Z_p."""
    from .finite_field import _is_irreducible_modp

    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        # a root in Z_p is a linear factor: cheap to find, and most
        # reducible candidates have one, so Rabin's test runs on few
        if not _has_root_modp(f, p) and _is_irreducible_modp(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _has_root_modp(f: Sequence[int], p: int) -> bool:
    """Does the polynomial f (ascending coefficients) vanish somewhere on Z_p?"""
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _code_config(code) -> dict:
    if isinstance(code, ComponentCode):
        return {
            "field": field_to_json(code.field),
            "aut": code.aut,
            "n": code.n,
            "g": poly_to_string(code.g),
        }
    return code_to_json(code)


# ---------------------------------------------------------------------------
# claim oracles


def _schoolbook_mul(s: tuple, t: tuple, tables) -> tuple:
    """(a + bv + cv^2)(x + yv + zv^2) on (a, b, c) index triples, with v^3 = v."""
    add, mul = tables.add, tables.mul
    a, b, c = mul[s[0]], mul[s[1]], mul[s[2]]
    x, y, z = t
    return a[x], add[add[a[y]][b[x]]][add[b[z]][c[y]]], add[add[a[z]][b[y]]][add[c[x]][c[z]]]


def _evaluations(s: tuple, tables) -> tuple:
    """The oracle's own splitting of an (a, b, c) index triple: its values
    (a, a+b+c, a-b+c) at v = 0, 1, -1."""
    a, b, c = s
    a_c = tables.add[a][c]
    return (a, tables.add[a_c][b], tables.sub[a_c][b])


def _splitting_witness(fld: Field, law: str, x: tuple, y, expected: tuple, got) -> dict:
    def abc(t):  # an (a, b, c) index triple as ``RingElem`` prints it
        return None if t is None else "|".join(map(fld.index_text, t))

    return {"law": law, "x": abc(x), "y": abc(y), "expected": abc(expected), "got": str(got)}


def _verify_log_table(fld: Field, coeffs: list, index: dict) -> dict | None:
    """Does the field's ``LogTable`` agree with coefficient arithmetic mod p?

    Element arithmetic reads only this table, so it is checked in O(q)
    against ``_mul_coeffs`` and addition mod p: ``gen`` has order
    n = q - 1, ``exp[k]`` is the index of g^k (0 from 2n on), ``log``
    inverts ``exp`` (2n at zero), and ``zech[k]`` is the logarithm of the
    index of 1 + g^k, which is 2n exactly where g^k = -1. By the exponent
    law and a + b = a (1 + b/a) that covers every product and every sum.
    Returns the witness {table, k, expected, got} of the first
    disagreement, or None.
    """
    t, p, n = fld.log_table(), fld.p, fld.q - 1
    one = (1,) + (0,) * (fld.m - 1)
    g, x, powers = coeffs[t.gen], one, []  # the coefficients of g^k, k < n
    for _ in range(n):
        powers.append(x)
        x = tuple(fld._mul_coeffs(x, g))
    cycle = powers[1:] + [x]
    order = cycle.index(one) + 1 if one in cycle else None
    if order != n:
        return {"table": "gen", "k": t.gen, "expected": n, "got": order}
    exp = [index[c] for c in powers]
    log = [2 * n] * (n + 1)
    for k, x in enumerate(exp):
        log[x] = k
    expected = {
        "exp": exp * 2 + [0] * (2 * n + 1),
        "log": log,
        "zech": [log[index[((c[0] + 1) % p,) + c[1:]]] for c in powers] * 2,
    }
    for table, want in expected.items():
        for k, (e, got) in enumerate(itertools.zip_longest(want, getattr(t, table))):
            if e != got:
                return {"table": table, "k": k, "expected": e, "got": got}
    return None


def _verify_tables(fld: Field, i: int, pairs: int, seed: int) -> tuple[bool, dict | None]:
    """Do the field's tables agree with coefficient arithmetic mod p?

    The tables come from a generator and Zech's logarithm, not from the
    coefficients, so the schoolbook side of ``_verify_splitting`` checks
    them first: the ``LogTable`` that element arithmetic reads in O(q)
    (``_verify_log_table``), then the dense tables. ``add``, ``sub`` and
    ``mul`` are compared with addition and subtraction mod p and
    ``_mul_coeffs`` on every pair when q^2 <= ``pairs``, else on ``pairs``
    pairs drawn from ``Random(seed)``. ``neg``, ``inv`` and
    ``frob_table(i)`` are compared on every element, the last two with
    a^{q-2} and a^{p^i} by square-and-multiply on ``_mul_coeffs``.
    Returns (exhaustive, witness or None).
    """
    t, p, q = fld.tables(), fld.p, fld.q
    frob = fld.frob_table(i)
    coeffs = list(itertools.product(range(p), repeat=fld.m))  # in index order
    index = {c: k for k, c in enumerate(coeffs)}
    exhaustive = q * q <= pairs
    witness = _verify_log_table(fld, coeffs, index)
    if witness is not None:
        return exhaustive, witness

    def power(c: tuple, e: int) -> tuple:
        out = coeffs[t.one]
        while e:
            if e & 1:
                out = tuple(fld._mul_coeffs(out, c))
            c, e = tuple(fld._mul_coeffs(c, c)), e >> 1
        return out

    if exhaustive:
        operands = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(seed)
        operands = ((rng.randrange(q), rng.randrange(q)) for _ in range(pairs))

    def laws():
        for x, c in enumerate(coeffs):
            yield "neg", (x,), tuple(-a % p for a in c), t.neg[x]
            if x:
                yield "inv", (x,), power(c, q - 2), t.inv[x]
            yield f"frob_table({i})", (x,), power(c, p**i), frob[x]
        for x, y in operands:
            a, b = coeffs[x], coeffs[y]
            yield "add", (x, y), tuple((u + v) % p for u, v in zip(a, b)), t.add[x][y]
            yield "sub", (x, y), tuple((u - v) % p for u, v in zip(a, b)), t.sub[x][y]
            yield "mul", (x, y), tuple(fld._mul_coeffs(a, b)), t.mul[x][y]

    for table, xs, expected, got in laws():
        if index[expected] != got:
            return exhaustive, {
                "table": table, "operands": list(xs), "expected": index[expected], "got": got
            }
    return exhaustive, None


def _verify_splitting(fld: Field, i: int, pairs: int, seed: int) -> tuple[bool, dict | None]:
    """Is (a, b, c) -> RingElem(a, b, c) a ring isomorphism commuting with theta_i?

    ``RingElem`` stores the splitting coordinates and multiplies them
    coordinatewise; this is the one independent check of that against the
    schoolbook product on a + bv + cv^2. ``*``, ``+`` and ``-`` are
    compared on every pair in R x B, B = {w^j, w^j v, w^j v^2 : j < m} an
    F_p-basis of R; the product is F_p-bilinear, so agreement on R x B is
    agreement on R x R. theta_i and negation are compared on every
    element, theta and negation first, then the three laws with each basis
    element in turn. The schoolbook side runs on (a, b, c) index triples
    with the field tables, and each production result must equal the
    oracle's own evaluation map (a, a+b+c, a-b+c) of it, read from the
    table rows. Before any law, the tables must pass ``_verify_tables``,
    the map is checked injective, and ``a``, ``b``, ``c`` must read every
    triple back. Past ``pairs`` products, a sample of R drawn from
    ``Random(seed)`` replaces R.
    Returns (exhaustive, witness or None).
    """
    tables_exhaustive, witness = _verify_tables(fld, i, pairs, seed)
    if witness is not None:
        return tables_exhaustive, witness
    t = fld.tables()
    add, sub, neg = t.add, t.sub, t.neg
    frob = fld.frob_table(i)
    basis = []
    w = t.one
    for _ in range(fld.m):
        basis += [(w, 0, 0), (0, w, 0), (0, 0, w)]
        w = t.mul[w][fld.gen.idx]
    exhaustive = fld.q**3 * len(basis) <= pairs and tables_exhaustive
    if exhaustive:
        # index order is the lexicographic order of fld.elements()
        space = list(itertools.product(range(fld.q), repeat=3))
    else:
        rng = random.Random(seed)
        space = [
            tuple(rng.randrange(fld.q) for _ in range(3))
            for _ in range(max(1, pairs // len(basis)))
        ]

    def fail(law: str, x: tuple, y: tuple | None, expected: tuple, got: RingElem):
        return exhaustive, _splitting_witness(fld, law, x, y, expected, got)

    def wrong(expected: tuple, got: RingElem) -> bool:
        """Does ``got`` store other than the evaluations of ``expected``?"""
        x, y, z = expected
        xz = add[x][z]
        return got.x1.idx != x or got.x2.idx != add[xz][y] or got.x3.idx != sub[xz][y]

    elems = t.elems
    made = [RingElem(elems[a], elems[b], elems[c]) for a, b, c in space]
    seen: dict[RingElem, tuple] = {}
    for s, r in zip(space, made):
        first = seen.setdefault(r, s)
        if first != s:
            return fail("injective", first, s, s, r)
        if (r.a.idx, r.b.idx, r.c.idx) != s:
            return fail("abc", s, None, s, r)
    basis_elems = [RingElem(*(elems[k] for k in u)) for u in basis]
    for s, r in zip(space, made):
        a, b, c = s
        if wrong(expected := (frob[a], frob[b], frob[c]), got := r.frob(i)):
            return fail("theta", s, None, expected, got)
        if wrong(expected := (neg[a], neg[b], neg[c]), got := -r):
            return fail("neg", s, None, expected, got)
        add_a, add_b, add_c, sub_a, sub_b, sub_c = add[a], add[b], add[c], sub[a], sub[b], sub[c]
        for u, ru in zip(basis, basis_elems):
            x, y, z = u
            if wrong(expected := _schoolbook_mul(s, u, t), got := r * ru):
                return fail("mul", s, u, expected, got)
            if wrong(expected := (add_a[x], add_b[y], add_c[z]), got := r + ru):
                return fail("add", s, u, expected, got)
            if wrong(expected := (sub_a[x], sub_b[y], sub_c[z]), got := r - ru):
                return fail("sub", s, u, expected, got)
    return exhaustive, None


_ISOMETRY_BLOCK = 2**14  # word coordinates per numpy block of isometry pairs


def _draw_digits(rng: random.Random, count: int, size: int) -> np.ndarray:
    """``count`` uniform digits below ``size``, as int64, from ``rng.randbytes``.

    Each digit is a little-endian unsigned word masked to the bit length of
    size - 1; a value >= ``size`` is rejected, which keeps more than half
    of the draws, and the shortfall is drawn again until ``count`` are kept.
    """
    import numpy as np

    bits = (size - 1).bit_length()
    dtype = np.dtype(next(f"<u{k}" for k in (1, 2, 4, 8) if 8 * k >= bits))
    mask = dtype.type((1 << bits) - 1)
    kept, have = [], 0
    while have < count:
        raw = np.frombuffer(rng.randbytes(dtype.itemsize * (count - have)), dtype) & mask
        raw = raw[raw < size]
        kept.append(raw)
        have += len(raw)
    return np.concatenate(kept).astype(np.int64)


def _isometry_blocks(entry: TestMatrixEntry, exhaustive: bool):
    """The word pairs of the isometry claim as (X, Y) digit arrays, in order.

    A word is n base-q^3 digits, each the (a, b, c) index triple of one
    element, and a pair is the n digits of x then the n digits of y.
    Exhaustive: every pair, x before y, each in the lexicographic order of
    ``ring_elements``, as ``itertools.product`` lists the 2n digits.
    Sampled: ``pairs`` pairs whose digits ``_draw_digits`` draws from
    ``Random(entry.seed)``, one block at a time. Each block holds at most
    about ``_ISOMETRY_BLOCK`` coordinates.
    """
    import numpy as np

    n, rsize = entry.n, entry.field().q ** 3
    per = max(1, _ISOMETRY_BLOCK // (2 * n))  # pairs per block

    def split(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        block = digits.reshape(-1, 2, n)
        return block[:, 0], block[:, 1]

    if exhaustive:
        pairs = itertools.product(range(rsize), repeat=2 * n)
        while block := list(itertools.islice(pairs, per)):
            yield split(np.array(block, dtype=np.int64))
    else:
        rng, total = random.Random(entry.seed), entry.bounds.pairs
        for k in range(0, total, per):
            yield split(_draw_digits(rng, 2 * n * min(per, total - k), rsize))


def verify_gray_isometry(entry: TestMatrixEntry, splitting: dict | None = None) -> VerdictReport:
    """R arithmetic matches the schoolbook a + bv + cv^2 ring (see
    ``_verify_splitting``), and Lee distance on R^n equals Hamming distance
    of the Gray images.

    ``splitting`` keeps ``_verify_splitting``'s result under (field, i,
    pairs, seed), so entries that share them check the splitting once. The
    pairs come from ``_isometry_blocks``. Each distinct element is built
    once as ``RingElem(a, b, c)``, next to its Gray triple: the oracle's
    own (a, a+b+c, a-b+c) on the field tables. The Hamming side of a whole
    block is one numpy comparison of Gray triples; the distance under test
    gets the ``RingElem`` words as lists, one pair at a time, and the
    first pair that disagrees is the witness. A zero ``pairs`` bound skips.
    """
    import numpy as np

    if not entry.bounds.pairs:
        reason = {"reason": "pair bound 0: no pair to compare"}
        return VerdictReport("gray-isometry", entry.config(), "skipped", True, reason)
    fld = entry.field()
    n = entry.n
    splitting = {} if splitting is None else splitting
    key = (fld, entry.i, entry.bounds.pairs, entry.seed)
    if key not in splitting:
        splitting[key] = _verify_splitting(*key)
    split_exhaustive, witness = splitting[key]
    if witness is not None:
        mode = "exhaustive" if split_exhaustive else "sampled"
        return VerdictReport("gray-isometry", entry.config(), mode, False, witness)
    t = fld.tables()
    q = fld.q
    exhaustive = q ** (6 * n) <= entry.bounds.pairs
    mode = "exhaustive" if exhaustive else "sampled"
    ring: dict[int, RingElem] = {}
    gray: dict[int, tuple] = {}
    for xd, yd in _isometry_blocks(entry, exhaustive):
        digits, inverse = np.unique(np.concatenate([xd, yd]).ravel(), return_inverse=True)
        digits = digits.tolist()
        for k in digits:
            if k not in ring:
                s = (k // (q * q), k // q % q, k % q)
                ring[k] = RingElem(*(t.elems[x] for x in s))
                gray[k] = _evaluations(s, t)
        elems = np.empty(len(digits), dtype=object)
        elems[:] = [ring[k] for k in digits]
        images = np.array([gray[k] for k in digits], dtype=np.int32)
        xi, yi = inverse.reshape(2, len(xd), n)
        hamming = np.count_nonzero(images[xi] != images[yi], axis=(1, 2))
        for x, y, dh in zip(elems[xi].tolist(), elems[yi].tolist(), hamming.tolist()):
            dl = lee_distance(x, y)
            if dl != dh:
                witness = {"x": [str(r) for r in x], "y": [str(r) for r in y]}
                witness |= {"lee": dl, "hamming": dh}
                return VerdictReport("gray-isometry", entry.config(), mode, False, witness)
    mode = "exhaustive" if exhaustive and split_exhaustive else "sampled"
    return VerdictReport("gray-isometry", entry.config(), mode, True)


def _brute_divisors(entry: TestMatrixEntry) -> list[SkewPoly] | str:
    """The entry's monic right divisors of x^n - 1 by exhaustive search, or
    why the census claims skip it: production searches too (gcd(n, t_i) != 1
    where t_i does not divide n or p divides n/t_i), or a search space past
    ``bounds.search``."""
    fld = entry.field()
    g = math.gcd(entry.n, fld.check_aut_exponent(entry.i))
    if g != 1 and not is_semisimple(entry.n, fld, entry.i):
        return f"gcd(n, t_i) = {g} != 1 and t_i does not divide n or p divides n/t_i"
    try:
        return brute_right_divisors(entry.n, fld, entry.i, entry.bounds.search)
    except EnumerationTooLarge as exc:
        return str(exc)


def _coprime_divisors(
    entry: TestMatrixEntry, divisors: list[SkewPoly] | str
) -> list[SkewPoly] | str:
    """``divisors`` (``_brute_divisors(entry)``) as ``fixed-subfield-divisors``
    reads them: that claim is about gcd(n, t_i) = 1 only, so any other
    entry skips it, semisimple or not."""
    gcd = math.gcd(entry.n, entry.field().check_aut_exponent(entry.i))
    return divisors if gcd == 1 else f"gcd(n, t_i) = {gcd} != 1"


def verify_census(entry: TestMatrixEntry, divisors: list[SkewPoly] | str) -> VerdictReport:
    """The brute-force divisors are the ones ``census`` builds its codes
    from (``monic_right_divisors``), and their count is the number-theory
    formula ``count_skew_cyclic_codes`` (and its cube over R).

    ``divisors`` is ``_brute_divisors(entry)``. Differing lists fail with
    the divisors production misses and those it adds.
    """
    claim, cfg = "census-count", entry.config()
    if isinstance(divisors, str):
        return VerdictReport(claim, cfg, "skipped", True, {"reason": divisors})
    fld = entry.field()
    wanted = Counter(divisors)
    found = Counter(monic_right_divisors(entry.n, fld, entry.i, entry.bounds.search))
    if found != wanted:
        witness = {
            "missing": [poly_to_string(g) for g in (wanted - found).elements()],
            "extra": [poly_to_string(g) for g in (found - wanted).elements()],
        }
        return VerdictReport(claim, cfg, "exhaustive", False, witness)
    brute = len(divisors)
    formula_fq, formula_r = count_skew_cyclic_codes(entry.n, fld, entry.i)
    ok = brute == formula_fq and brute**3 == formula_r
    witness = None
    if not ok:
        witness = {
            "brute_force": brute,
            "formula": formula_fq,
            "brute_force_cubed": brute**3,
            "formula_over_R": formula_r,
        }
    return VerdictReport(claim, cfg, "exhaustive", ok, witness)


def verify_fixed_subfield_divisors(
    entry: TestMatrixEntry, divisors: list[SkewPoly] | str
) -> VerdictReport:
    """When gcd(n, t_i) = 1, every monic right divisor has theta-fixed coefficients.

    ``divisors`` is ``_coprime_divisors(entry, _brute_divisors(entry))``:
    the list, or why the claim skips the entry.
    """
    claim, cfg = "fixed-subfield-divisors", entry.config()
    fld = entry.field()
    if isinstance(divisors, str):
        return VerdictReport(claim, cfg, "skipped", True, {"reason": divisors})
    for g in divisors:
        for c in g.coeffs:
            if fld.frob_table(entry.i)[c] != c:
                witness = {"divisor": poly_to_string(g), "coefficient": fld.index_text(c)}
                return VerdictReport(claim, cfg, "exhaustive", False, witness)
    return VerdictReport(claim, cfg, "exhaustive", True)


def _twist_shift(w: Sequence[int], frob: list[int]) -> list[int]:
    """sigma on an index vector: (theta(w_{n-1}), theta(w_0), ..., theta(w_{n-2}))."""
    return [frob[w[-1]]] + [frob[a] for a in w[:-1]]


# The claims' skew arithmetic, on index vectors with the dense field tables:
# for w of length n, sigma^j(w) is x^j * w mod x^n - 1, so a product f * w
# mod x^n - 1 is sum_j f_j sigma^j(w), and a product of degree at most n is
# the same sum on n + 1 coefficients. Over R it runs on each component.


def _twist_orbit(w: Sequence[int], count: int, frob: list[int]) -> list[list[int]]:
    """[w, sigma(w), ..., sigma^{count-1}(w)]."""
    orbit = [list(w)]
    for _ in range(count - 1):
        orbit.append(_twist_shift(orbit[-1], frob))
    return orbit


def _combination(
    coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int, tables
) -> list[int]:
    """sum_k coeffs[k] * rows[k], for rows of length ``width``."""
    add, mul = tables.add, tables.mul
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        mul_c = mul[c]
        acc = [add[x][mul_c[y]] for x, y in zip(acc, row)]
    return acc


def _fold(f: SkewPoly, n: int, tables) -> list[int]:
    """The right remainder of f by x^n - 1 as n indices, with no division:
    a x^{n+k} = (a x^k)(x^n - 1) + a x^k moves each coefficient to degree k mod n."""
    out = [0] * n
    for k, c in enumerate(f.coeffs):
        out[k % n] = tables.add[out[k % n]][c]
    return out


def _is_cofactor(h: SkewPoly, g: SkewPoly, n: int) -> bool:
    """h * g = x^n - 1, as sum_j h_j (x^j * g) with x^j * g = sigma^j(g) on
    the n + 1 coefficients of g once deg h + deg g = n."""
    if h.degree + g.degree != n:
        return False
    t = g.field.tables()
    orbit = _twist_orbit(g.padded(n + 1), h.degree + 1, g.field.frob_table(g.aut))
    return _combination(h.coeffs, orbit, n + 1, t) == [t.neg[t.one]] + [0] * (n - 1) + [t.one]


def _shift_closure_basis(comp: ComponentCode) -> tuple[list[list[int]], bool]:
    """Echelon basis of the smallest sigma-closed F_q-space containing the
    component's generator rows, and whether their span was closed already.

    sigma is additive and theta-semilinear, so span(B) is closed exactly
    when rank(B + sigma(B)) = rank(B); B grows to the larger span until
    that holds.
    """
    fld = comp.field
    frob = fld.frob_table(comp.aut)

    def grow(basis):
        return linalg.echelon(basis + [_twist_shift(b, frob) for b in basis], fld)

    basis = linalg.echelon(linalg.to_index_rows(comp.generator_rows(), fld), fld)
    grown = grow(basis)
    first_closed = len(grown) == len(basis)
    while len(grown) > len(basis):
        basis, grown = grown, grow(grown)
    return basis, first_closed


def oracle_code_enumerate(code, bound: int = 10**4):
    """All codewords: the span of ``_shift_closure_basis``, refused past
    ``bound``; never calls ``contains`` and never divides.

    A code over R places each component's basis on the coordinate classes
    3i + j of the Gray image, lists that span and maps it back with
    ``gray_inverse`` (``gray-isometry`` checks the splitting itself).
    """
    fld = code.field
    comps = [code] if isinstance(code, ComponentCode) else code.components
    width = len(comps) * code.n
    basis = []
    for j, comp in enumerate(comps):
        for row in _shift_closure_basis(comp)[0]:
            placed = [0] * width
            placed[j :: len(comps)] = row
            basis.append(placed)
    words = linalg.span_vectors(basis, fld, bound, ncols=width)
    elems = fld.tables().elems
    if isinstance(code, ComponentCode):
        return {tuple(elems[a] for a in w) for w in words}
    return {gray_inverse(fld, [elems[a] for a in w]) for w in words}


def _by_component(
    check: Callable, code: SkewCyclicCode, config: dict, memo: dict, *args
) -> VerdictReport:
    """The verdict on ``code`` (config ``config``) from ``check(component,
    its config, *args)`` on its components: the first failing one's, its
    witness naming the slot j (1, 2 or 3), else a pass in the mode the
    three share ("sampled" when they differ). ``memo`` keeps each
    component's config under the component and each verdict under (check,
    component), so equal components, a dual equal to a census member
    included, are configured once and checked once per check.
    """
    for j, comp in enumerate(code.components, 1):
        if (check, comp) not in memo:
            if comp not in memo:
                memo[comp] = _code_config(comp)
            memo[check, comp] = check(comp, memo[comp], *args)
        v = memo[check, comp]
        if not v.passed:
            witness = {**v.counterexample, "slot": j}
            return VerdictReport(v.claim, config, v.mode, False, witness)
    modes = {memo[check, comp].mode for comp in code.components}
    mode = modes.pop() if len(modes) == 1 else "sampled"
    witness = v.counterexample if mode == "skipped" else None
    return VerdictReport(v.claim, config, mode, True, witness)


def verify_shift_closure(code: ComponentCode, cfg: dict, rng: random.Random) -> VerdictReport:
    """Closure under the skew shift, and production membership on the span.

    The span of a component code's rows must be closed under sigma, by
    rank tests (no division), and hold exactly the code's size. The
    production membership test must reject the unit vector e_j of every
    column j that is no pivot of the closure basis (a span word that is
    zero on every pivot is zero), and accept every generator row and up to
    64 words of the span drawn from ``rng``. ``cfg`` is the code's
    ``_code_config``. A code over R is checked by ``_by_component``.
    """
    claim = "shift-closure"
    fld = code.field
    basis, shifted_ok = _shift_closure_basis(code)
    closure_size = fld.q ** len(basis)
    expected = code.size
    gens_in = all(code.contains(row) for row in code.generator_rows())
    ok = shifted_ok and closure_size == expected and gens_in
    if not ok:
        witness = {
            "span_shift_closed": shifted_ok,
            "closure_size": closure_size,
            "expected_size": expected,
            "generators_pass_membership": gens_in,
        }
        return VerdictReport(claim, cfg, "exhaustive", False, witness)
    t = fld.tables()
    pivots = {b.index(next(filter(None, b))) for b in basis}
    for j in sorted(set(range(code.n)) - pivots):
        word = [t.elems[t.one if k == j else 0] for k in range(code.n)]
        if code.contains(word):
            witness = {"nonmember_accepted": [str(x) for x in word]}
            return VerdictReport(claim, cfg, "exhaustive", False, witness)
    for _ in range(min(64, closure_size)):
        acc = _combination([rng.randrange(fld.q) for _ in basis], basis, code.n, t)
        word = [t.elems[a] for a in acc]
        if not code.contains(word):
            return VerdictReport(
                claim, cfg, "exhaustive", False,
                {"member_rejected": [str(x) for x in word]},
            )
    return VerdictReport(claim, cfg, "exhaustive", True)


def verify_cardinality(code: ComponentCode, cfg: dict) -> VerdictReport:
    """The rank of a component code's rows is n - deg g: over R, with
    ``_placement``, the Gray rank is 3n - sum(deg g_t)."""
    r = linalg.rank(linalg.to_index_rows(code.generator_rows(), code.field), code.field)
    expected = code.n - code.g.degree
    ok = r == expected
    witness = None if ok else {"rank": r, "expected": expected}
    return VerdictReport("cardinality-rank", cfg, "exhaustive", ok, witness)


def verify_duality(code: ComponentCode, cfg: dict) -> VerdictReport:
    """Generator rows of C and dual(C) are orthogonal; |C| |dual(C)| = q^n;
    the double dual is C itself.

    The inner products of a component code's rows run on the dense field
    tables; ``cfg`` is the code's ``_code_config``. Over R,
    x.y = sum_j eta_j x_j y_j, so a code over R is checked by
    ``_by_component``.
    """
    fld = code.field
    add, mul = fld.tables().add, fld.tables().mul
    dual = code.dual()
    drows = linalg.to_index_rows(dual.generator_rows(), fld)
    for row in linalg.to_index_rows(code.generator_rows(), fld):
        for drow in drows:
            ip = 0
            for a, b in zip(row, drow, strict=True):
                ip = add[ip][mul[a][b]]
            if ip:
                witness = {
                    "row": [fld.index_text(a) for a in row],
                    "dual_row": [fld.index_text(b) for b in drow],
                    "inner_product": fld.index_text(ip),
                }
                return VerdictReport("duality", cfg, "exhaustive", False, witness)
    size_ok = code.size * dual.size == fld.q**code.n
    double_ok = dual.dual() == code
    if size_ok and double_ok:
        return VerdictReport("duality", cfg, "exhaustive", True)
    witness = {"size_product_ok": size_ok, "double_dual_ok": double_ok, "dual": _code_config(dual)}
    return VerdictReport("duality", cfg, "exhaustive", False, witness)


def verify_dual_gray_commutation(code: ComponentCode, cfg: dict) -> VerdictReport:
    """The ``nullspace`` of a component code's rows is the span of its
    dual's rows: over R, with ``_placement``, the Gray image of the dual is
    the dual of the Gray image (``_dual_gray_commute``)."""
    fld = code.field
    kernel = linalg.nullspace(linalg.to_index_rows(code.generator_rows(), fld), fld, code.n)
    dual = linalg.canonical_subspace(linalg.to_index_rows(code.dual().generator_rows(), fld), fld)
    ok = tuple(map(tuple, kernel)) == dual
    witness = None if ok else {"kernel_dim": len(kernel), "dual_dim": len(dual)}
    return VerdictReport("dual-gray-commute", cfg, "exhaustive", ok, witness)


def verify_quasi_cyclic_gray(code: ComponentCode, cfg: dict) -> VerdictReport:
    """The span of a component code's rows is sigma-closed
    (``_shift_closure_basis``): over R, with ``_placement``, the Gray image
    is closed under sigma on each coordinate class 3k + t."""
    basis, closed = _shift_closure_basis(code)
    witness = None if closed else {"shift_closure_dim": len(basis), "dim": code.dim}
    return VerdictReport("quasi-cyclic-gray", cfg, "exhaustive", closed, witness)


# ---------------------------------------------------------------------------
# claims over R: the combined generator in split coordinates


@dataclass
class SlotSpan:
    """The span of the sigma-orbit of one component generator g on n
    columns: the block that eta_t * g puts on each Gray coordinate class
    3k + t of the combined generator's span.

    ``rows`` is ``linalg.echelon`` of sigma^j(g mod x^n - 1), j < n, from
    the oracle's own ``_fold`` and ``_twist_orbit``, each row scaled by
    the inverse of its lead so that ``holds`` clears a lead column with
    one table lookup. ``leads`` are the lead columns, and ``free`` is the
    first column that is none (None when the span is all of F_q^n): a span
    word is fixed by its lead entries, so a span word plus e_free is not in
    the span. The minimum weight is enumerated once, on first read
    (``min_weight``), and each component's rows are tested once
    (``outside``). ``sampled`` keeps ``principal-generator``'s verdict on
    each component's uniform words checked against the span.
    """

    field: Field
    rows: list[list[int]]
    leads: list[int]
    free: int | None
    _min_weight: int | None = dc_field(default=None, init=False, repr=False)
    _outside: dict = dc_field(default_factory=dict, init=False, repr=False)
    sampled: dict = dc_field(default_factory=dict, init=False, repr=False)

    def holds(self, vec: Sequence[int]) -> bool:
        """Is ``vec`` (n indices) in the span?"""
        t = self.field.tables()
        mul, sub = t.mul, t.sub
        rest = list(vec)
        for c, row in zip(self.leads, self.rows):
            if rest[c]:
                mul_f = mul[rest[c]]
                rest = [sub[x][mul_f[y]] for x, y in zip(rest, row)]
        return not any(rest)

    def outside(self, comp: ComponentCode) -> int | None:
        """The index of the component's first row outside the span, or None."""
        if comp not in self._outside:
            rows = linalg.to_index_rows(comp.generator_rows(), self.field)
            self._outside[comp] = next((k for k, r in enumerate(rows) if not self.holds(r)), None)
        return self._outside[comp]

    def min_weight(self, bound: int) -> int | None:
        """The least weight of a nonzero word, refused past ``bound`` words."""
        if self._min_weight is None:
            self._min_weight = linalg.span_min_weight(self.rows, self.field, bound)
        return self._min_weight


def _slot_span(g: SkewPoly, n: int) -> SlotSpan:
    """The ``SlotSpan`` of g at length n."""
    fld = g.field
    t = fld.tables()
    orbit = _twist_orbit(_fold(g, n, t), n, fld.frob_table(g.aut))
    rows, leads = [], []
    for row in linalg.echelon(orbit, fld):
        c = row.index(next(filter(None, row)))
        mul_inv = t.mul[t.inv[row[c]]]
        rows.append([mul_inv[x] for x in row])
        leads.append(c)
    free = next((j for j in range(n) if j not in leads), None)
    return SlotSpan(fld, rows, leads, free)


def _slot_spans(case: Case, memo: dict) -> tuple[SlotSpan, SlotSpan, SlotSpan]:
    """The ``SlotSpan`` of each of the case's g1, g2, g3; ``memo`` keeps them
    under (g, n), so an entry builds one per distinct component generator."""
    n = case.code.n
    for g in case.combined:
        if (g, n) not in memo:
            memo[g, n] = _slot_span(g, n)
    return tuple(memo[g, n] for g in case.combined)


def _placement(code: SkewCyclicCode) -> dict | None:
    """None when production's rows over R, through ``gray_map``, are the
    rows of C1, C2, C3 in turn, each row of C_t on the coordinates 3k + t
    and zero elsewhere; else the witness naming the slot and the row of
    the first that is not, or the row counts when they differ."""
    comps, zeros = code.components, (code.field.zero,) * code.n
    want = [(t, k, r) for t, c in enumerate(comps) for k, r in enumerate(c.generator_rows())]
    rows = code.generator_rows()
    if len(rows) != len(want):
        return {"rows": len(rows), "component_rows": len(want)}
    for (t, k, crow), row in zip(want, rows):
        gray = gray_map(row)
        if any(gray[s::3] != (crow if s == t else zeros) for s in range(3)):
            return {"slot": t + 1, "row": k, "gray_row": [str(x) for x in gray]}
    return None


def _case(code: SkewCyclicCode) -> Case:
    """Everything the claims over R share about ``code``."""
    combined = tuple(c.g for c in code.components)
    return Case(code, _code_config(code), combined, _placement(code))


def _placed(claim: str, check: Callable, case: Case, memo: dict) -> VerdictReport:
    """``claim`` on the case: its placement witness, else ``_by_component``."""
    if case.placement is not None:
        return VerdictReport(claim, case.config, "exhaustive", False, case.placement)
    return _by_component(check, case.code, case.config, memo)


def _dual_gray_commute(case: Case, dual: Case | None, memo: dict) -> VerdictReport:
    """``dual-gray-commute`` on the case: ``dual``, the case of production's
    ``code.dual()`` (None outside the census), must hold the components'
    duals, C^perp = eta1*C1^perp + eta2*C2^perp + eta3*C3^perp; then ``_placed``."""
    if dual is None or dual.code.components != tuple(c.dual() for c in case.code.components):
        key = "dual_outside_census" if dual is None else "dual_not_componentwise"
        witness = {key: _code_config(case.code.dual())}
        return VerdictReport("dual-gray-commute", case.config, "exhaustive", False, witness)
    return _placed("dual-gray-commute", verify_dual_gray_commutation, case, memo)


# ---------------------------------------------------------------------------
# the a + bv + cv^2 side of decompose-compose: elements of R as (a, b, c)
# index triples


def _combine(polys: Sequence[SkewPoly], fld: Field) -> tuple:
    """eta1*f1 + eta2*f2 + eta3*f3 over R as (a, b, c) triples, ascending
    without trailing zeros, by schoolbook products with the constants
    c + 0v + 0v^2: the form that ``project_components`` must split and
    ``ring_skew_poly_combine`` must join."""
    t = fld.tables()
    add, one, neg = t.add, t.one, t.neg
    half = t.inv[add[one][one]]
    # eta1 = 1 - v^2, eta2 = (v + v^2)/2, eta3 = (-v + v^2)/2
    etas = (one, 0, neg[one]), (0, half, half), (0, neg[half], half)
    out = []
    for k in range(max(len(f.coeffs) for f in polys)):
        terms = [_schoolbook_mul(eta, (f.coeff(k), 0, 0), t) for eta, f in zip(etas, polys)]
        out.append(tuple(add[add[x][y]][z] for x, y, z in zip(*terms)))
    while out and out[-1] == (0, 0, 0):
        out.pop()
    return tuple(out)


_PRINCIPALITY_SAMPLES = 20  # uniform words per distinct component of an entry


def _component_samples(
    comp: ComponentCode, span: SlotSpan, rng: random.Random
) -> list[str] | None:
    """The first of ``_PRINCIPALITY_SAMPLES`` uniform words of F_q^n, drawn
    from ``rng`` in one bulk call, on which the component's ``contains``
    and the span disagree, as text; None when they agree on all."""
    fld, n = comp.field, comp.n
    elems = fld.tables().elems
    for digits in _draw_digits(rng, _PRINCIPALITY_SAMPLES * n, fld.q).reshape(-1, n).tolist():
        word = [elems[k] for k in digits]
        if comp.contains(word) != span.holds(digits):
            return [str(x) for x in word]
    return None


def verify_principality(case: Case, rng: random.Random, slots: dict) -> VerdictReport:
    """Membership from the single combined generator agrees with the
    componentwise membership test.

    The case's placement witness fails the claim. The combined generator's
    Gray span is the direct sum of the slot spans of g1, g2, g3
    (``_slot_spans``, with the entry's memo ``slots``). Its dimension, the
    sum of their ranks, is the code's, and the span of g_t holds the rows
    of C_t, tested once per (C_t, g_t) (``SlotSpan.outside``).
    ``contains`` accepts each production row over R, and a member whose
    coordinate class 3k + t is a word of slot t's span, its coefficients
    on the span's rows drawn from ``rng``. It rejects that member plus
    e_j on the class of slot t, j the span's ``free`` column, for each
    slot whose span is not all of F_q^n. These words reach ``contains`` as
    the ``RingElem`` words ``gray_inverse`` reads from their Gray index
    rows. Each component agrees with its slot's span on the uniform words
    of ``_component_samples``, drawn from ``rng`` once per distinct
    component and span of the entry, whatever its slot, and kept in the
    span's ``sampled``.
    The rows are not divided by the combined generator: once
    ``combined-generator`` shows that each g_t divides x^n - 1, their
    remainder is zero by sigma's own arithmetic.
    """
    code = case.code
    fld = code.field
    tables = fld.tables()
    spans = _slot_spans(case, slots)

    def fail(mode: str, witness: dict) -> VerdictReport:
        return VerdictReport("principal-generator", case.config, mode, False, witness)

    if case.placement is not None:
        return fail("exhaustive", case.placement)
    dim = sum(len(span.rows) for span in spans)
    if dim != code.dim:
        return fail("exhaustive", {"combined_span_dim": dim, "code_dim": code.dim})
    for t, (comp, span) in enumerate(zip(code.components, spans), 1):
        k = span.outside(comp)
        if k is not None:
            row = [str(x) for x in comp.generator_rows()[k]]
            return fail("exhaustive", {"slot": t, "generator_row_outside_combined_span": row})
    for row in code.generator_rows():
        if not code.contains(row):
            return fail("exhaustive", {"generator_row_rejected": [str(x) for x in row]})
    members = [
        _combination([rng.randrange(fld.q) for _ in span.rows], span.rows, code.n, tables)
        for span in spans
    ]
    words = [(members, True)]
    for t, span in enumerate(spans):
        if span.free is not None:
            pushed = list(members[t])
            pushed[span.free] = tables.add[pushed[span.free]][tables.one]
            words.append((members[:t] + [pushed] + members[t + 1 :], False))
    for classes, member in words:
        word = gray_inverse(fld, [tables.elems[k] for k in itertools.chain(*zip(*classes))])
        if code.contains(word) != member:
            return fail("sampled", {"word": [str(x) for x in word]})
    for t, (comp, span) in enumerate(zip(code.components, spans), 1):
        if comp not in span.sampled:
            span.sampled[comp] = _component_samples(comp, span, rng)
        if span.sampled[comp] is not None:
            return fail("sampled", {"slot": t, "word": span.sampled[comp]})
    return VerdictReport("principal-generator", case.config, "sampled", True)


def verify_distance_law(case: Case, bound: int, slots: dict) -> VerdictReport:
    """Minimum Lee distance equals the smallest component Hamming distance,
    cross-checked on the Gray image V of the combined generator alone.

    V is the direct sum of its three coordinate-class blocks, the slot
    spans of g1, g2, g3 (``_slot_spans``, with the entry's memo
    ``slots``), so its minimum weight is the least minimum weight of a
    nonzero slot span. Each is enumerated once per entry, on its first
    read, and refused past ``bound``. A component distance past ``bound``
    skips the claim; any other error from it (a ``MacWilliamsError``,
    say) is left to ``verify_entry``.
    """
    code, cfg = case.code, case.config
    fld = code.field
    try:
        formula = code.min_lee_distance(bound)
    except EnumerationTooLarge as exc:
        reason = {"reason": f"component distance: {exc}"}
        return VerdictReport("distance-law", cfg, "skipped", True, reason)
    minima = []
    for span in _slot_spans(case, slots):
        if not span.rows:
            continue
        size = fld.q ** len(span.rows)
        if size > bound:
            reason = {"reason": f"block span {size} exceeds bound {bound}"}
            return VerdictReport("distance-law", cfg, "skipped", True, reason)
        minima.append(span.min_weight(bound))
    direct = min(minima, default=None)
    ok = direct is None if formula.degenerate else direct == formula.value
    witness = None
    if not ok:
        witness = {
            "component_minimum": formula.value,
            "direct_enumeration": direct,
            "degenerate": formula.degenerate,
        }
    return VerdictReport("distance-law", cfg, "exhaustive", ok, witness)


def verify_idempotent_generators(code: ComponentCode, cfg: dict) -> VerdictReport:
    """The idempotent generator e of a component code has e*e = e mod
    x^n - 1, that is sum_j e_j sigma^j(e) = e on the sigma-orbit of e, and
    the span of that orbit is the span of the code's rows. Over R,
    e = eta1*e1 + eta2*e2 + eta3*e3, so a code over R is checked by
    ``_by_component``. ``cfg`` is the code's ``_code_config``.
    """
    from .codes import HypothesisViolated, NotCoprime

    try:
        e = code.idempotent_generator()
    except HypothesisViolated as exc:
        return VerdictReport(
            "idempotent-generator", cfg, "skipped", True, {"reason": str(exc)}
        )
    except (AssertionError, NotCoprime) as exc:
        return VerdictReport(
            "idempotent-generator", cfg, "exhaustive", False, {"reason": str(exc)}
        )
    fld, t = code.field, code.field.tables()
    orbit = _twist_orbit(_fold(e, code.n, t), code.n, fld.frob_table(code.aut))
    idempotent = _combination(orbit[0], orbit, code.n, t) == orbit[0]
    rows = linalg.to_index_rows(code.generator_rows(), fld)
    generates = linalg.canonical_subspace(orbit, fld) == linalg.canonical_subspace(rows, fld)
    ok = idempotent and generates
    witness = {"e": poly_to_string(e), "idempotent": idempotent, "generates": generates}
    return VerdictReport("idempotent-generator", cfg, "exhaustive", ok, None if ok else witness)


def verify_decomposition(case: Case) -> VerdictReport:
    """Splitting the combined generator recovers the components exactly,
    and ``ring_skew_poly_combine`` joins them back to the same generator.

    The combined generator is the oracle's own eta-combination of
    ``case.combined`` in a + bv + cv^2 (``_combine``), made ``RingElem``
    coefficients from the field's interned elements, for production to
    split and join.
    """
    code = case.code
    elems = code.field.tables().elems
    g = tuple(RingElem(*(elems[k] for k in s)) for s in _combine(case.combined, code.field))
    parts = project_components(g, code.field, code.aut)
    ok = parts == tuple(c.g for c in code.components) and ring_skew_poly_combine(*parts) == g
    witness = None
    if not ok:
        witness = {"recovered": [poly_to_string(f) for f in parts]}
    return VerdictReport("decompose-compose", case.config, "exhaustive", ok, witness)


def verify_combined_uniqueness(cases: Sequence[Case], config: dict) -> VerdictReport:
    """Distinct censused codes carry distinct combined generators, each a
    right divisor of x^n - 1 over R: in split coordinates, each g_t has
    h_t * g_t = x^n - 1 for the cofactor h_t of its component
    (``_is_cofactor``)."""

    def fail(witness: dict) -> VerdictReport:
        return VerdictReport("combined-generator", config, "exhaustive", False, witness)

    seen = {}
    divides = functools.cache(_is_cofactor)  # each distinct (h_t, g_t, n) once
    for case in cases:
        code, g = case.code, case.combined
        if g in seen:
            return fail({"duplicate": case.config, "first": seen[g]})
        seen[g] = case.config
        if not all(divides(c.h, g_t, code.n) for c, g_t in zip(code.components, g)):
            return fail({"not_a_divisor": case.config})
    return VerdictReport("combined-generator", config, "exhaustive", True)


# ---------------------------------------------------------------------------
# negative controls


def broken_component_code(field: Field, i: int, n: int) -> ComponentCode:
    """A deliberately invalid code: monic g that does NOT right-divide x^n - 1.

    Only proper degrees are searched so the fake code has nonzero claimed
    dimension; n must be at least 2.
    """
    for d in range(1, n):
        for tail in itertools.product(range(field.q), repeat=d):
            g = SkewPoly(field, tail + (field.one.idx,), i)
            if not is_right_divisor_of_xn_minus_1(g, n):
                return _unchecked_component_code(n, g)
    raise AssertionError(f"no proper-degree non-divisor of x^{n} - 1 exists")


def broken_code(field: Field, i: int, n: int, slot: int = 1) -> SkewCyclicCode:
    """A code over R whose component in ``slot`` (1, 2 or 3) is
    ``broken_component_code``; the other two components are zero codes."""
    comps = [component_code_new(n, xn_minus_1(field, i, n))] * 3
    comps[slot - 1] = broken_component_code(field, i, n)
    return code_from_components(*comps)


def mismatched_case(field: Field, i: int, n: int) -> Case:
    """The case of the full code with the rows read from another combined
    generator, eta1*g + eta2*g + eta3*g for g = x - 1."""
    full = component_code_new(n, SkewPoly.one(field, i))
    case = _case(code_from_components(full, full, full))
    return replace(case, combined=(poly_from_string("x-1", field, i),) * 3)


# ---------------------------------------------------------------------------
# the harness


# the claims in the order that ``verify_entry`` reports them: the three
# about the whole entry, combined-generator about the whole census, then
# one aggregate of per-code verdicts each
CLAIMS = (
    "gray-isometry",
    "census-count",
    "fixed-subfield-divisors",
    "combined-generator",
    "cardinality-rank",
    "duality",
    "dual-gray-commute",
    "decompose-compose",
    "idempotent-generator",
    "quasi-cyclic-gray",
    "principal-generator",
    "distance-law",
    "dual-shift-closure",
    "shift-closure",
)


def default_matrix(seed: int = 0) -> list[TestMatrixEntry]:
    return [TestMatrixEntry(p=3, m=2, i=1, n=n, seed=seed) for n in (1, 3, 5)]


class MatrixError(ValueError):
    """A ``verify --matrix`` entry that does not describe a configuration."""


def matrix_from_json(raw, seed: int) -> list[TestMatrixEntry]:
    """The entries of a parsed ``verify --matrix`` file, with ``seed`` where
    an entry has none, each validated before any claim runs: its
    ``TestMatrixEntry`` and ``Bounds`` are built, and so is its field,
    whose degree m the exponent i must divide and whose operation tables,
    which the claims read, must be within ``TABLE_LIMIT``. Raises
    ``MatrixError`` naming the first bad entry."""
    if not isinstance(raw, list):
        raise MatrixError(f"expected a list of entries, got {type(raw).__name__}")
    entries = []
    for k, item in enumerate(raw):
        try:
            if not isinstance(item, dict):
                raise TypeError(f"expected an object, got {item!r}")
            bounds = Bounds(**item.get("bounds", {}))
            entry = TestMatrixEntry(**{**item, "seed": item.get("seed", seed), "bounds": bounds})
            entry.field().check_aut_exponent(entry.i)
            entry.field().tables()
        except (TypeError, ValueError, FieldError) as exc:
            raise MatrixError(f"entry {k}: {type(exc).__name__}: {exc}") from exc
        entries.append(entry)
    return entries


def _aggregate(claim: str, config: dict, verdicts: list[VerdictReport]) -> VerdictReport:
    """Collapse per-code verdicts into one report per (claim, entry).

    A failure reports the first failing verdict's witness; when that verdict
    is about one code, its config is kept as the witness's ``code``.
    """
    mode = "exhaustive"
    if any(v.mode == "sampled" for v in verdicts):
        mode = "sampled"
    if verdicts and all(v.mode == "skipped" for v in verdicts):
        mode = "skipped"
    counts = {
        "checked": sum(v.checked for v in verdicts),
        "skipped": sum(v.skipped for v in verdicts),
    }
    for v in verdicts:
        if not v.passed:
            witness = v.counterexample
            if v.config != config:  # a per-code verdict: name the failing code
                witness = {**(witness or {}), "code": v.config}
            return VerdictReport(claim, config, v.mode, False, witness, **counts)
    return VerdictReport(claim, config, mode, True, **counts)


def _guarded(claim: str, config: dict, check: Callable, *args) -> VerdictReport:
    """``check(*args)``; an exception that production raises inside it
    fails ``claim`` on ``config``, with the error as the witness."""
    try:
        return check(*args)
    except Exception as exc:
        witness = {"error": f"{type(exc).__name__}: {exc}"}
        return VerdictReport(claim, config, "exhaustive", False, witness)


def verify_entry(
    entry: TestMatrixEntry, inject_broken: bool = False, splitting: dict | None = None
) -> list[VerdictReport]:
    """One report per claim of ``CLAIMS``, run one claim at a time in that
    order, whatever the data. A per-code claim maps every code of the census
    to its verdict, and ``_aggregate`` folds them before the next claim
    starts. A census that raises (past ``bounds.enumeration`` codes, or on a
    broken postcondition) fails every claim about its codes, with the error
    and no code checked; ``census-count`` reads the divisors on its own. An
    exception inside a claim on one code, or inside ``census-count``
    (``_guarded``), fails that claim, and the run goes on to a verdict. A
    skipped verdict (a dual outside the census) is recorded like any other,
    and ``_aggregate`` counts it as skipped. ``splitting`` is
    ``verify_gray_isometry``'s memo of splitting checks."""
    fld = entry.field()
    cfg = entry.config()
    divisors = _brute_divisors(entry)  # one exhaustive search for both census claims
    reports = [
        verify_gray_isometry(entry, splitting),
        _guarded("census-count", cfg, verify_census, entry, divisors),
        verify_fixed_subfield_divisors(entry, _coprime_divisors(entry, divisors)),
    ]
    try:
        codes = census(entry.n, fld, entry.i, entry.bounds.enumeration, entry.bounds.search)
    except Exception as exc:  # no code was built, so none is checked
        witness = {"error": f"{type(exc).__name__}: {exc}"}
        refused = VerdictReport("", cfg, "exhaustive", False, witness, checked=0, skipped=0)
        return reports + [replace(refused, claim=c) for c in CLAIMS[3:]]
    cases = [_case(code) for code in codes]
    by_code = {case.code: case for case in cases}  # the census should hold every dual
    dual = {code: by_code.get(code.dual()) for code in by_code}  # its case, or None
    reports.append(verify_combined_uniqueness(cases, cfg))
    principal_rng, closure_rng = random.Random(entry.seed), random.Random(entry.seed)
    slots: dict = {}  # this entry's slot spans, by (component generator, n)
    # each component's config and component-claim verdicts: shift-closure
    # and dual-shift-closure share theirs
    by_component: dict = {}

    def closure(case: Case | None, config: dict) -> VerdictReport:
        if case is None:  # a dual outside the census, on the code's ``config``
            reason = "dual outside the census"
            return VerdictReport("shift-closure", config, "skipped", True, {"reason": reason})
        args = (verify_shift_closure, case.code, case.config, by_component, closure_rng)
        return _guarded("shift-closure", case.config, _by_component, *args)

    checks = {  # each per-code claim's verdict on one code's case
        "cardinality-rank": lambda case: _placed(
            "cardinality-rank", verify_cardinality, case, by_component
        ),
        "duality": lambda case: _by_component(verify_duality, case.code, case.config, by_component),
        "dual-gray-commute": lambda case: _dual_gray_commute(case, dual[case.code], by_component),
        "decompose-compose": verify_decomposition,
        "idempotent-generator": lambda case: _by_component(
            verify_idempotent_generators, case.code, case.config, by_component
        ),
        "quasi-cyclic-gray": lambda case: _placed(
            "quasi-cyclic-gray", verify_quasi_cyclic_gray, case, by_component
        ),
        "principal-generator": lambda case: verify_principality(case, principal_rng, slots),
        "distance-law": lambda case: verify_distance_law(case, entry.bounds.distance, slots),
        "dual-shift-closure": lambda case: closure(dual[case.code], case.config),
        "shift-closure": lambda case: closure(case, case.config),
    }
    for claim in CLAIMS[4:]:
        check = checks[claim]
        reports.append(_aggregate(claim, cfg, [_guarded(claim, c.config, check, c) for c in cases]))
    if inject_broken:
        # a proper-degree non-divisor needs length at least 2
        bad = broken_code(fld, entry.i, max(entry.n, 2))
        args = (verify_shift_closure, bad, cfg, {}, closure_rng)
        v = _guarded("shift-closure", cfg, _by_component, *args)
        reports.append(replace(v, claim="shift-closure[injected-broken-generator]"))
    return reports


def verify_all(
    matrix: Sequence[TestMatrixEntry] | None = None, inject_broken: bool = False
) -> list[VerdictReport]:
    """One report per (claim, entry); failures carry replayable witnesses.
    Entries that share (field, i, pairs, seed) share one splitting check."""
    entries = default_matrix() if matrix is None else list(matrix)
    reports: list[VerdictReport] = []
    splitting: dict = {}
    for entry in entries:
        reports.extend(verify_entry(entry, inject_broken, splitting))
    return reports
