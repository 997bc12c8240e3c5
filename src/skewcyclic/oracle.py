"""Independent brute-force oracles for every structural claim at desk scale.

Each ``verify_*`` function checks one claim by exhaustion where feasible
and by seeded sampling otherwise, and returns a ``VerdictReport``. A
failing verdict always carries a concrete witness that can be replayed
from (claim, configuration, seed). Skipped preconditions are reported as
verdicts too, never silently dropped.

The codeword enumerator here is deliberately independent of the
membership test in ``codes``: it closes the generator rows under
addition, scalar action and the skew shift, and never performs a
polynomial division. Agreement between the two is itself one of the
verified claims.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from . import linalg
from .codes import (
    ComponentCode,
    SkewCyclicCode,
    _poly_to_row,
    _unchecked_component_code,
    census,
    code_from_components,
    code_to_json,
    component_code_new,
    skew_shift,
)
from .finite_field import EnumerationTooLarge, Field, FieldElem
from .ring_r import (
    RingElem,
    gray_map,
    hamming_distance,
    lee_distance,
    make_idempotents,
    ring_from_index,
    ring_tables,
    RING_TABLE_LIMIT,
)
from .skew_poly import (
    Factorization,
    SearchSpaceTooLarge,
    SkewPoly,
    brute_right_divisors,
    factor_xn_minus_1,
    is_right_divisor_of_xn_minus_1,
    mod_xn_minus_1,
    poly_to_string,
    right_divide,
    ring_skew_poly_combine,
    skew_mul,
    xn_minus_1,
)


@dataclass(frozen=True)
class Bounds:
    enumeration: int = 10**4  # codeword closure / quasi-cyclic span
    pairs: int = 10**4  # isometry pair samples
    distance: int = 10**6  # direct distance enumeration
    search: int = 10**7  # brute-force divisor search space


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

    def field(self) -> Field:
        """The entry's field, built on first use; every claim shares it."""
        if self._field is None:
            mod = self.modulus if self.modulus is not None else default_modulus(self.p, self.m)
            object.__setattr__(self, "_field", Field(self.p, self.m, mod))
        return self._field

    def config(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "i": self.i,
            "n": self.n,
            "seed": self.seed,
        }


@dataclass
class VerdictReport:
    claim: str
    config: dict
    mode: str  # "exhaustive" | "sampled" | "skipped"
    passed: bool
    counterexample: dict | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "claim": self.claim,
                "config": self.config,
                "mode": self.mode,
                "pass": self.passed,
                "counterexample": self.counterexample,
            },
            sort_keys=True,
        )


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree m over Z_p."""
    from .finite_field import _is_irreducible_modp

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
            "field": {
                "p": code.field.p,
                "m": code.field.m,
                "mod": list(code.field.modulus),
            },
            "aut": code.aut,
            "n": code.n,
            "g": poly_to_string(code.g),
        }
    return code_to_json(code)


# ---------------------------------------------------------------------------
# ground-truth codeword enumeration (no division anywhere)


def _module_closure(gen_rows, basis_scale, add, shift, zero, bound: int):
    """Smallest set containing the rows, closed under addition, scalar
    action and the skew shift.

    Scalar closure comes for free from additive closure of the
    additive-basis multiples of the generators. The span grows one seed at
    a time: a seed s outside the span W adds w + k*s for every w in W and
    k = 1..p-1, so each new word costs one addition and the span is
    refused as soon as its size would pass ``bound``. Shifted words
    escaping the current span are fed back as new generators until the
    fixed point. Returns (words, first_span_shift_closed).
    """
    if bound < 1:
        raise EnumerationTooLarge(f"closure exceeded bound {bound}")
    words = {zero}
    order = [zero]

    def grow(gens):
        for g in gens:
            for s in basis_scale(g):
                if s in words:
                    continue
                multiples = []  # s, 2s, ..., (p-1)s
                ks = s
                while ks != zero:
                    multiples.append(ks)
                    ks = add(ks, s)
                if len(order) * (len(multiples) + 1) > bound:
                    raise EnumerationTooLarge(f"closure exceeded bound {bound}")
                new = [add(w, sk) for sk in multiples for w in order]
                order.extend(new)
                words.update(new)

    grow(gen_rows)
    shift_ok = None
    while True:
        escaped = []
        seen = set()
        for w in words:
            sw = shift(w)
            if sw not in words and sw not in seen:
                escaped.append(sw)
                seen.add(sw)
        if shift_ok is None:
            shift_ok = not escaped
        if not escaped:
            return words, shift_ok
        grow(escaped)


def _component_closure_idx(code: ComponentCode, bound: int):
    """Integer-lane closure of a component code; words are index tuples."""
    fld = code.field
    t = fld.tables()
    frob = fld.frob_table(code.aut)
    add, mul = t.add, t.mul
    rows = [tuple(fld.index(x) for x in row) for row in code.generator_rows()]
    # additive basis 1, w, ..., w^{m-1}
    basis = []
    b = fld.one
    for _ in range(fld.m):
        basis.append(fld.index(b))
        b = b * fld.gen if fld.m > 1 else b

    def basis_scale(g):
        return [tuple(mul[c][x] for x in g) for c in basis]

    def add_w(x, y):
        return tuple(add[a][b] for a, b in zip(x, y))

    def shift_w(w):
        return (frob[w[-1]],) + tuple(frob[a] for a in w[:-1])

    zero = tuple([0] * code.n)
    return _module_closure(rows, basis_scale, add_w, shift_w, zero, bound)


def _ring_closure(code: SkewCyclicCode, bound: int):
    """Closure over R; integer-encoded when tables fit, objects otherwise.

    Returns (words, shift_closed, to_word) with to_word mapping a set
    element back to a tuple of RingElem.
    """
    fld = code.field
    rows = code.generator_rows()
    q = fld.q
    if q**3 <= RING_TABLE_LIMIT:
        rt = ring_tables(fld)
        radd = rt.add
        rfrob = rt.frob(code.aut)
        from .ring_r import ring_index

        idx_rows = [tuple(ring_index(fld, x) for x in row) for row in rows]
        ft = fld.tables()
        # additive basis of R: w^t * eta_s, encoded digitwise
        field_basis = []
        b = fld.one
        for _ in range(fld.m):
            field_basis.append(fld.index(b))
            b = b * fld.gen if fld.m > 1 else b
        scale_tables = []
        for wt in field_basis:
            mul_wt = ft.mul[wt]
            for s in range(3):
                tab = [0] * rt.size
                for r in range(rt.size):
                    digits = (r % q, (r // q) % q, r // (q * q))
                    scaled = [0, 0, 0]
                    scaled[s] = mul_wt[digits[s]]
                    tab[r] = scaled[0] + q * scaled[1] + q * q * scaled[2]
                scale_tables.append(tab)

        def basis_scale(g):
            return [tuple(tab[x] for x in g) for tab in scale_tables]

        def add_w(x, y):
            return tuple(radd[a][b] for a, b in zip(x, y))

        def shift_w(w):
            return (rfrob[w[-1]],) + tuple(rfrob[a] for a in w[:-1])

        zero = tuple([0] * code.n)
        words, closed = _module_closure(
            idx_rows, basis_scale, add_w, shift_w, zero, bound
        )
        return words, closed, lambda w: tuple(ring_from_index(fld, a) for a in w)

    from .ring_r import ring_zero

    etas = make_idempotents(fld)
    basis = []
    b = fld.one
    for _ in range(fld.m):
        for eta in etas:
            basis.append(eta * RingElem(b, fld.zero, fld.zero))
        b = b * fld.gen if fld.m > 1 else b

    def basis_scale(g):
        return [tuple(lam * x for x in g) for lam in basis]

    def add_w(x, y):
        return tuple(a + c for a, c in zip(x, y))

    def shift_w(w):
        return skew_shift(w, code.aut)

    zero = tuple([ring_zero(fld)] * code.n)
    words, closed = _module_closure(rows, basis_scale, add_w, shift_w, zero, bound)
    return words, closed, lambda w: w


def oracle_code_enumerate(code, bound: int = 10**4):
    """All codewords, by closure of the generator rows; never uses division."""
    if isinstance(code, ComponentCode):
        fld = code.field
        words, _ = _component_closure_idx(code, bound)
        return {tuple(fld.from_index(a) for a in w) for w in words}
    words, _, to_word = _ring_closure(code, bound)
    return {to_word(w) for w in words}


# ---------------------------------------------------------------------------
# claim oracles


def _schoolbook_mul(s: tuple, t: tuple) -> tuple:
    """(a + bv + cv^2)(x + yv + zv^2) on (a, b, c) triples, with v^3 = v."""
    a, b, c = s
    x, y, z = t
    return (a * x, a * y + b * x + b * z + c * y, a * z + b * y + c * x + c * z)


def _splitting_witness(law: str, x: tuple, y, expected: tuple, got: RingElem) -> dict:
    def abc(t):
        return None if t is None else "|".join(str(c) for c in t)

    return {"law": law, "x": abc(x), "y": abc(y), "expected": abc(expected), "got": str(got)}


def _verify_splitting(fld: Field, i: int, pairs: int, rng) -> tuple[bool, dict | None]:
    """Is (a, b, c) -> RingElem(a, b, c) a ring isomorphism commuting with theta_i?

    ``RingElem`` stores the splitting coordinates and multiplies them
    coordinatewise; this is the one independent check of that against the
    schoolbook product on a + bv + cv^2. ``*`` and ``+`` are compared on
    every pair in R x B, B = {w^j, w^j v, w^j v^2 : j < m} an F_p-basis of
    R; both products are F_p-bilinear, so agreement on R x B is agreement
    on R x R. theta_i is compared on every element, the map is checked
    injective, and ``a``, ``b``, ``c`` must read the triple back. Past
    ``pairs`` products, a seeded sample of R replaces R.
    Returns (exhaustive, witness or None).
    """
    zero = fld.zero
    basis = []
    w = fld.one
    for _ in range(fld.m):
        basis += [(w, zero, zero), (zero, w, zero), (zero, zero, w)]
        w = w * fld.gen
    exhaustive = fld.q**3 * len(basis) <= pairs
    if exhaustive:
        # index order is the lexicographic order of fld.elements()
        elems = [fld.from_index(k) for k in range(fld.q)]
        space = itertools.product(elems, repeat=3)
    else:
        space = (
            tuple(fld.from_index(rng.randrange(fld.q)) for _ in range(3))
            for _ in range(max(1, pairs // len(basis)))
        )
    basis_elems = [RingElem(*t) for t in basis]
    seen: dict[RingElem, tuple] = {}
    for s in space:
        r = RingElem(*s)
        first = seen.setdefault(r, s)
        if first != s:
            return exhaustive, _splitting_witness("injective", first, s, s, r)
        if (r.a, r.b, r.c) != s:
            return exhaustive, _splitting_witness("abc", s, None, s, r)
        laws = [("theta", None, tuple(fld.frob_pow(x, i) for x in s), r.frob(i))]
        for t, rt in zip(basis, basis_elems):
            laws.append(("mul", t, _schoolbook_mul(s, t), r * rt))
            laws.append(("add", t, tuple(x + y for x, y in zip(s, t)), r + rt))
        for law, t, expected, got in laws:
            if got != RingElem(*expected):
                return exhaustive, _splitting_witness(law, s, t, expected, got)
    return exhaustive, None


def verify_gray_isometry(
    entry: TestMatrixEntry,
    lee_distance_fn: Callable | None = None,
) -> VerdictReport:
    """R arithmetic matches the schoolbook a + bv + cv^2 ring (see
    ``_verify_splitting``), and Lee distance on R^n equals Hamming distance
    of the Gray images."""
    fld = entry.field()
    n = entry.n
    split_exhaustive, witness = _verify_splitting(
        fld, entry.i, entry.bounds.pairs, random.Random(entry.seed)
    )
    if witness is not None:
        mode = "exhaustive" if split_exhaustive else "sampled"
        return VerdictReport("gray-isometry", entry.config(), mode, False, witness)
    dist = lee_distance_fn if lee_distance_fn is not None else lee_distance
    size = fld.q ** (3 * n)
    total_pairs = size * size
    exhaustive = total_pairs <= entry.bounds.pairs

    def check(x, y):
        dl = dist(x, y)
        dh = hamming_distance(gray_map(x), gray_map(y))
        return dl == dh, dl, dh

    if exhaustive:
        from .ring_r import ring_elements

        space = [
            tuple(word)
            for word in itertools.product(ring_elements(fld), repeat=n)
        ]
        for x in space:
            for y in space:
                ok, dl, dh = check(x, y)
                if not ok:
                    return VerdictReport(
                        "gray-isometry",
                        entry.config(),
                        "exhaustive",
                        False,
                        {
                            "x": [str(r) for r in x],
                            "y": [str(r) for r in y],
                            "lee": dl,
                            "hamming": dh,
                        },
                    )
        mode = "exhaustive" if split_exhaustive else "sampled"
        return VerdictReport("gray-isometry", entry.config(), mode, True)

    rng = random.Random(entry.seed)
    rsize = fld.q**3
    for _ in range(entry.bounds.pairs):
        x = tuple(ring_from_index(fld, rng.randrange(rsize)) for _ in range(n))
        y = tuple(ring_from_index(fld, rng.randrange(rsize)) for _ in range(n))
        ok, dl, dh = check(x, y)
        if not ok:
            return VerdictReport(
                "gray-isometry",
                entry.config(),
                "sampled",
                False,
                {
                    "x": [str(r) for r in x],
                    "y": [str(r) for r in y],
                    "lee": dl,
                    "hamming": dh,
                },
            )
    return VerdictReport("gray-isometry", entry.config(), "sampled", True)


def verify_census(
    entry: TestMatrixEntry, factorization: Factorization | None = None
) -> VerdictReport:
    """Brute-force divisor count against the factorization formula (and cube)."""
    fld = entry.field()
    t_i = fld.check_aut_exponent(entry.i)
    if math.gcd(entry.n, t_i) != 1:
        return VerdictReport(
            "census-count",
            entry.config(),
            "skipped",
            True,
            {"reason": f"gcd(n, t_i) = {math.gcd(entry.n, t_i)} != 1"},
        )
    try:
        brute = len(brute_right_divisors(entry.n, fld, entry.i, entry.bounds.search))
    except SearchSpaceTooLarge as exc:
        return VerdictReport(
            "census-count", entry.config(), "skipped", True, {"reason": str(exc)}
        )
    fac = factorization or factor_xn_minus_1(entry.n, fld, entry.i)
    formula_fq, formula_r = fac.census_counts()
    ok = brute == formula_fq and brute**3 == formula_r
    witness = None
    if not ok:
        witness = {
            "brute_force": brute,
            "formula": formula_fq,
            "brute_force_cubed": brute**3,
            "formula_over_R": formula_r,
        }
    return VerdictReport("census-count", entry.config(), "exhaustive", ok, witness)


def verify_fixed_subfield_divisors(entry: TestMatrixEntry) -> VerdictReport:
    """When gcd(n, t_i) = 1, every monic right divisor has theta-fixed coefficients."""
    fld = entry.field()
    t_i = fld.check_aut_exponent(entry.i)
    if math.gcd(entry.n, t_i) != 1:
        return VerdictReport(
            "fixed-subfield-divisors",
            entry.config(),
            "skipped",
            True,
            {"reason": f"gcd(n, t_i) = {math.gcd(entry.n, t_i)} != 1"},
        )
    try:
        divisors = brute_right_divisors(entry.n, fld, entry.i, entry.bounds.search)
    except SearchSpaceTooLarge as exc:
        return VerdictReport(
            "fixed-subfield-divisors",
            entry.config(),
            "skipped",
            True,
            {"reason": str(exc)},
        )
    for g in divisors:
        for c in g.coeffs:
            if fld.frob_pow(c, entry.i) != c:
                return VerdictReport(
                    "fixed-subfield-divisors",
                    entry.config(),
                    "exhaustive",
                    False,
                    {"divisor": poly_to_string(g), "coefficient": str(c)},
                )
    return VerdictReport(
        "fixed-subfield-divisors", entry.config(), "exhaustive", True
    )


def _remainder_rank(comp: ComponentCode) -> int:
    """Rank of the linear map word -> right remainder mod g on F_q^n."""
    fld = comp.field
    if comp.g.degree == 0:
        return 0
    rows = []
    for t in range(comp.n):
        word = [fld.zero] * comp.n
        word[t] = fld.one
        rem = right_divide(
            SkewPoly(fld, word, comp.aut), comp.g
        ).remainder
        rows.append([fld.index(rem.coeff(j)) for j in range(comp.g.degree)])
    return linalg.rank(rows, fld)


def verify_shift_closure(code, bound: int = 10**4, rng=None, config=None) -> VerdictReport:
    """Closure under the skew shift, and oracle span == membership set.

    The span is enumerated by closure (no division); the membership set is
    the kernel of the linear remainder map, whose size is computed by rank.
    Exact equality follows from span-inside-kernel plus equal cardinality.
    """
    cfg = config or _code_config(code)
    claim = "shift-closure"
    fld = code.field
    try:
        if isinstance(code, ComponentCode):
            words, shifted_ok = _component_closure_idx(code, bound)
            kernel = fld.q ** (code.n - _remainder_rank(code))

            def to_word(w):
                return tuple(fld.from_index(a) for a in w)

        else:
            words, shifted_ok, to_word = _ring_closure(code, bound)
            kernel = fld.q ** (
                3 * code.n - sum(_remainder_rank(c) for c in code.components)
            )
    except EnumerationTooLarge as exc:
        return VerdictReport(claim, cfg, "skipped", True, {"reason": str(exc)})

    expected = code.size
    gens_in = all(code.contains(row) for row in code.generator_rows())
    ok = shifted_ok and len(words) == expected and kernel == expected and gens_in
    witness = None
    if not ok:
        witness = {
            "span_shift_closed": shifted_ok,
            "closure_size": len(words),
            "expected_size": expected,
            "membership_kernel_size": kernel,
            "generators_pass_membership": gens_in,
        }
    # spot-check the production membership test on enumerated words
    rng = rng or random.Random(0)
    sample_src = sorted(words, key=str)
    picks = sample_src if len(sample_src) <= 64 else rng.sample(sample_src, 64)
    for w in picks:
        word = to_word(w)
        member = code.contains(word)
        if ok and not member:
            ok = False
            witness = (witness or {}) | {"member_rejected": [str(x) for x in word]}
            break
    return VerdictReport(claim, cfg, "exhaustive", ok, witness)


def _gray_rows(code: SkewCyclicCode) -> list[tuple]:
    """Gray images of the R-level generator rows, through ``gray_map``.

    Production places ``gray_generator_rows`` straight from the component
    rows; the claims below keep checking the Gray map on R words instead.
    """
    return [gray_map(row) for row in code.generator_rows()]


def verify_cardinality(code: SkewCyclicCode, rows_override=None) -> VerdictReport:
    """Rank of the Gray generator matrix equals 3n - sum(deg g_i)."""
    rows = rows_override if rows_override is not None else _gray_rows(code)
    idx = linalg.to_index_rows(rows, code.field)
    r = linalg.rank(idx, code.field)
    expected = 3 * code.n - sum(c.g.degree for c in code.components)
    ok = r == expected
    witness = None if ok else {"rank": r, "expected": expected}
    return VerdictReport(
        "cardinality-rank", _code_config(code), "exhaustive", ok, witness
    )


def _ring_inner_product(x: Sequence[RingElem], y: Sequence[RingElem]) -> RingElem:
    acc = None
    for a, b in zip(x, y, strict=True):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def verify_duality(code: SkewCyclicCode) -> VerdictReport:
    """Generator rows of C and dual(C) are orthogonal over R; sizes multiply
    to q^{3n}; the double dual is C itself."""
    dual = code.dual()
    for row in code.generator_rows():
        for drow in dual.generator_rows():
            ip = _ring_inner_product(row, drow)
            if not ip.is_zero():
                return VerdictReport(
                    "duality",
                    _code_config(code),
                    "exhaustive",
                    False,
                    {
                        "row": [str(x) for x in row],
                        "dual_row": [str(x) for x in drow],
                        "inner_product": str(ip),
                    },
                )
    size_ok = code.size * dual.size == code.field.q ** (3 * code.n)
    dd = dual.dual()
    double_ok = dd == code
    ok = size_ok and double_ok
    witness = None
    if not ok:
        witness = {
            "size_product_ok": size_ok,
            "double_dual_ok": double_ok,
            "dual": _code_config(dual),
        }
    return VerdictReport("duality", _code_config(code), "exhaustive", ok, witness)


def verify_dual_gray_commutation(code: SkewCyclicCode) -> VerdictReport:
    """Canonical bases of the Gray image's orthogonal space and of the Gray
    image of the dual coincide."""
    fld = code.field
    ncols = 3 * code.n
    gray_rows = linalg.to_index_rows(_gray_rows(code), fld)
    kernel = linalg.nullspace(gray_rows, fld, ncols)
    lhs = tuple(tuple(r) for r in kernel)
    dual_rows = linalg.to_index_rows(_gray_rows(code.dual()), fld)
    rhs = linalg.canonical_subspace(dual_rows, fld)
    ok = lhs == rhs
    witness = None
    if not ok:
        witness = {
            "gray_kernel_dim": len(lhs),
            "gray_dual_dim": len(rhs),
        }
    return VerdictReport(
        "dual-gray-commute", _code_config(code), "exhaustive", ok, witness
    )


def _interleaved_qc_shift(y: tuple, n: int, frob: list[int]) -> tuple:
    out = []
    for b in range(3):
        block = y[b * n : (b + 1) * n]
        out.extend((frob[block[-1]],) + tuple(frob[a] for a in block[:-1]))
    return tuple(out)


def _deinterleaved_qc_shift(y: tuple, n: int, frob: list[int]) -> tuple:
    out = list(y)
    for t in range(3):
        block = y[t::3]
        shifted = (frob[block[-1]],) + tuple(frob[a] for a in block[:-1])
        for j in range(n):
            out[3 * j + t] = shifted[j]
    return tuple(out)


def verify_quasi_cyclic_gray(code: SkewCyclicCode, bound: int = 10**4) -> VerdictReport:
    """The Gray image is closed under an index-3 blockwise skew shift.

    Tested first with consecutive blocks of the interleaved coordinates,
    then with the de-interleaved (per-component) blocks; the verdict
    records which convention holds rather than asserting one.
    """
    fld = code.field
    cfg = _code_config(code)
    rows = linalg.to_index_rows(_gray_rows(code), fld)
    if not rows:
        return VerdictReport(
            "quasi-cyclic-gray",
            cfg,
            "exhaustive",
            True,
            {"reason": "zero code, trivially closed"},
        )
    try:
        span = linalg.span_vectors(rows, fld, bound)
    except EnumerationTooLarge as exc:
        return VerdictReport(
            "quasi-cyclic-gray", cfg, "skipped", True, {"reason": str(exc)}
        )
    frob = fld.frob_table(code.aut)
    n = code.n
    interleaved = all(_interleaved_qc_shift(y, n, frob) in span for y in span)
    block = all(_deinterleaved_qc_shift(y, n, frob) in span for y in span)
    ok = interleaved or block
    witness = {
        "interleaved_convention_closed": interleaved,
        "per_component_convention_closed": block,
    }
    if not ok:
        bad = next(
            y for y in span if _deinterleaved_qc_shift(y, n, frob) not in span
        )
        witness["word"] = list(bad)
    return VerdictReport("quasi-cyclic-gray", cfg, "exhaustive", ok, witness)


def _combined_generator_rows(code: SkewCyclicCode) -> list[tuple[RingElem, ...]]:
    """Rows spanning <g_combined> over R: eta_t * (x^j * g mod x^n - 1)."""
    etas = make_idempotents(code.field)
    g = code.g_combined
    rows = []
    for j in range(code.n):
        shifted = mod_xn_minus_1(
            skew_mul(SkewPoly.x_power(g.domain, g.aut, j), g), code.n
        )
        base = _poly_to_row(shifted, code.n)
        for eta in etas:
            rows.append(tuple(eta * c for c in base))
    return rows


def verify_principality(
    code: SkewCyclicCode, samples: int = 100, rng=None
) -> VerdictReport:
    """Membership from the single combined generator agrees with the
    componentwise membership test."""
    fld = code.field
    cfg = _code_config(code)
    rows = [gray_map(r) for r in _combined_generator_rows(code)]
    basis = linalg.rref(linalg.to_index_rows(rows, fld), fld)
    base_rank = len(basis)
    if base_rank != code.dim:
        return VerdictReport(
            "principal-generator",
            cfg,
            "exhaustive",
            False,
            {"combined_span_dim": base_rank, "code_dim": code.dim},
        )

    def in_span(word) -> bool:
        row = [fld.index(x) for x in gray_map(word)]
        return linalg.rank(basis + [row], fld) == base_rank

    for row in code.generator_rows():
        if not in_span(row):
            return VerdictReport(
                "principal-generator",
                cfg,
                "exhaustive",
                False,
                {"generator_row_outside_combined_span": [str(x) for x in row]},
            )
    for row in _combined_generator_rows(code):
        if not code.contains(row):
            return VerdictReport(
                "principal-generator",
                cfg,
                "exhaustive",
                False,
                {"combined_row_rejected": [str(x) for x in row]},
            )
    rng = rng or random.Random(0)
    rsize = fld.q**3
    for _ in range(samples):
        word = tuple(
            ring_from_index(fld, rng.randrange(rsize)) for _ in range(code.n)
        )
        if code.contains(word) != in_span(word):
            return VerdictReport(
                "principal-generator",
                cfg,
                "sampled",
                False,
                {"word": [str(x) for x in word]},
            )
    # when the combined generator has a unit leading coefficient the
    # literal right-remainder test must agree as well
    if code.g_combined.is_zero() or code.g_combined.lc().is_unit():
        for row in code.generator_rows():
            f = SkewPoly(code.g_combined.domain, list(row), code.aut)
            rem = right_divide(f, code.g_combined).remainder
            if not rem.is_zero():
                return VerdictReport(
                    "principal-generator",
                    cfg,
                    "exhaustive",
                    False,
                    {"right_remainder_nonzero_on": [str(x) for x in row]},
                )
    return VerdictReport("principal-generator", cfg, "sampled", True)


def verify_distance_law(
    code: SkewCyclicCode, bound: int = 10**6
) -> VerdictReport:
    """Minimum Lee distance equals the smallest component Hamming distance,
    cross-checked against enumeration of the full Gray image from the
    combined generator alone."""
    fld = code.field
    cfg = _code_config(code)
    formula = code.min_lee_distance(bound)
    rows = [gray_map(r) for r in _combined_generator_rows(code)]
    basis = linalg.rref(linalg.to_index_rows(rows, fld), fld)
    if fld.q ** len(basis) > bound:
        return VerdictReport(
            "distance-law",
            cfg,
            "skipped",
            True,
            {"reason": f"direct span {fld.q ** len(basis)} exceeds bound {bound}"},
        )
    direct = linalg.span_min_weight(basis, fld, bound)
    if formula.degenerate:
        ok = direct is None
    else:
        ok = direct == formula.value
    witness = None
    if not ok:
        witness = {
            "component_minimum": formula.value,
            "direct_enumeration": direct,
            "degenerate": formula.degenerate,
        }
    return VerdictReport("distance-law", cfg, "exhaustive", ok, witness)


def verify_idempotent_generators(code: SkewCyclicCode) -> VerdictReport:
    """The Bezout idempotents exist, square to themselves and generate."""
    from .codes import HypothesisViolated, NotCoprime

    cfg = _code_config(code)
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
    sq = mod_xn_minus_1(skew_mul(e, e), code.n)
    ok = sq == mod_xn_minus_1(e, code.n)
    witness = None if ok else {"e": poly_to_string(e)}
    return VerdictReport("idempotent-generator", cfg, "exhaustive", ok, witness)


def verify_decomposition(code: SkewCyclicCode) -> VerdictReport:
    """Splitting the combined generator recovers the components exactly."""
    from .codes import decompose

    parts = decompose(code)
    rebuilt = code_from_components(*parts)
    ok = parts == code.components and rebuilt == code
    witness = None
    if not ok:
        witness = {"recovered": [poly_to_string(c.g) for c in parts]}
    return VerdictReport(
        "decompose-compose", _code_config(code), "exhaustive", ok, witness
    )


def verify_combined_uniqueness(codes: Sequence[SkewCyclicCode], config: dict) -> VerdictReport:
    """Distinct censused codes carry distinct combined generators, each a
    right divisor of x^n - 1 over R (witnessed by its cofactor)."""
    seen = {}
    for code in codes:
        key = code.g_combined
        if key in seen:
            return VerdictReport(
                "combined-generator",
                config,
                "exhaustive",
                False,
                {"duplicate": _code_config(code), "first": seen[key]},
            )
        seen[key] = _code_config(code)
        h = ring_skew_poly_combine(code.c1.h, code.c2.h, code.c3.h)
        if skew_mul(h, code.g_combined) != xn_minus_1(
            code.g_combined.domain, code.aut, code.n
        ):
            return VerdictReport(
                "combined-generator",
                config,
                "exhaustive",
                False,
                {"not_a_divisor": _code_config(code)},
            )
    return VerdictReport("combined-generator", config, "exhaustive", True)


# ---------------------------------------------------------------------------
# negative controls


def broken_component_code(field: Field, i: int, n: int) -> ComponentCode:
    """A deliberately invalid code: monic g that does NOT right-divide x^n - 1.

    Only proper degrees are searched so the fake code has nonzero claimed
    dimension; n must be at least 2.
    """
    for d in range(1, n):
        for tail in itertools.product(field.elements(), repeat=d):
            g = SkewPoly(field, list(tail) + [field.one], i)
            if not is_right_divisor_of_xn_minus_1(g, n):
                return _unchecked_component_code(n, g)
    raise AssertionError(f"no proper-degree non-divisor of x^{n} - 1 exists")


def broken_code(field: Field, i: int, n: int) -> SkewCyclicCode:
    """An R-code whose first component generator is not a divisor.

    The other components are zero codes so that the closure oracle stays
    within its enumeration bound.
    """
    bad = broken_component_code(field, i, n)
    zero = component_code_new(n, xn_minus_1(field, i, n))
    g = ring_skew_poly_combine(bad.g, zero.g, zero.g)
    return SkewCyclicCode(bad, zero, zero, g)


def mismatched_code(field: Field, i: int, n: int) -> SkewCyclicCode:
    """Components and combined generator that disagree (for distance control)."""
    from .skew_poly import poly_from_string

    full = component_code_new(n, SkewPoly.one(field, i))
    xm1 = component_code_new(n, poly_from_string("x-1", field, i))
    g = ring_skew_poly_combine(xm1.g, xm1.g, xm1.g)
    return SkewCyclicCode(full, full, full, g)


# ---------------------------------------------------------------------------
# the harness


CLAIMS = (
    "gray-isometry",
    "census-count",
    "fixed-subfield-divisors",
    "cardinality-rank",
    "duality",
    "dual-gray-commute",
    "distance-law",
    "shift-closure",
    "dual-shift-closure",
    "quasi-cyclic-gray",
    "principal-generator",
    "idempotent-generator",
    "decompose-compose",
    "combined-generator",
)


def default_matrix(seed: int = 0) -> list[TestMatrixEntry]:
    return [TestMatrixEntry(p=3, m=2, i=1, n=n, seed=seed) for n in (1, 3, 5)]


def _aggregate(claim: str, config: dict, verdicts: list[VerdictReport]) -> VerdictReport:
    """Collapse per-code verdicts into one report per (claim, entry)."""
    mode = "exhaustive"
    if any(v.mode == "sampled" for v in verdicts):
        mode = "sampled"
    if verdicts and all(v.mode == "skipped" for v in verdicts):
        mode = "skipped"
    for v in verdicts:
        if not v.passed:
            return VerdictReport(claim, config, v.mode, False, v.counterexample)
    return VerdictReport(claim, config, mode, True)


def verify_entry(entry: TestMatrixEntry, inject_broken: bool = False) -> list[VerdictReport]:
    fld = entry.field()
    cfg = entry.config()
    reports = [
        verify_gray_isometry(entry),
        verify_census(entry),
        verify_fixed_subfield_divisors(entry),
    ]
    codes = census(entry.n, fld, entry.i, entry.bounds.search)
    reports.append(verify_combined_uniqueness(codes, cfg))
    rng = random.Random(entry.seed)
    per_code: dict[str, list[VerdictReport]] = {}

    def record(v: VerdictReport):
        per_code.setdefault(v.claim, []).append(v)

    for code in codes:
        record(verify_cardinality(code))
        record(verify_duality(code))
        record(verify_dual_gray_commutation(code))
        record(verify_decomposition(code))
        record(verify_idempotent_generators(code))
        record(verify_quasi_cyclic_gray(code, entry.bounds.enumeration))
        record(verify_principality(code, samples=20, rng=rng))
        record(verify_distance_law(code, entry.bounds.distance))
        if code.size <= entry.bounds.enumeration:
            record(verify_shift_closure(code, entry.bounds.enumeration, rng))
        dual = code.dual()
        if dual.size <= entry.bounds.enumeration:
            v = verify_shift_closure(dual, entry.bounds.enumeration, rng)
            record(
                VerdictReport(
                    "dual-shift-closure", v.config, v.mode, v.passed, v.counterexample
                )
            )
    for claim, verdicts in per_code.items():
        reports.append(_aggregate(claim, cfg, verdicts))
    if inject_broken:
        # a proper-degree non-divisor needs length at least 2
        bad = broken_code(fld, entry.i, max(entry.n, 2))
        v = verify_shift_closure(bad, entry.bounds.enumeration, rng)
        reports.append(
            VerdictReport(
                "shift-closure[injected-broken-generator]",
                cfg,
                v.mode,
                v.passed,
                v.counterexample,
            )
        )
    return reports


def verify_all(
    matrix: Sequence[TestMatrixEntry] | None = None, inject_broken: bool = False
) -> list[VerdictReport]:
    """One report per (claim, entry); failures carry replayable witnesses."""
    entries = default_matrix() if matrix is None else list(matrix)
    reports: list[VerdictReport] = []
    for entry in entries:
        reports.extend(verify_entry(entry, inject_broken=inject_broken))
    return reports
