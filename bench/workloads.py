"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, hands the package only
those inputs through its public functions, and checks every output against
a reference computed outside the timed region.

A workload has three steps:

- ``setup(seed)`` builds everything the ops need (fields, codes, argv
  lists) and returns a state object;
- ``inputs(state, k)`` makes the inputs of batch k (deterministic in the
  seed and k) and ``ops(state, inputs)`` turns them into zero-argument
  callables, one per op;
- ``check(state, inputs, outputs, corrupt)`` returns one failure message
  (or None) per op. ``corrupt`` falsifies one reference answer, as a
  negative control of the gate itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import warnings
from pathlib import Path
from typing import NamedTuple

# module attributes, not names: the tracer rebinds them on the modules
from skewcyclic import cli, codes, linalg, skew_poly
from skewcyclic.finite_field import Field
from skewcyclic.ring_r import RingElem

BENCH_DIR = Path(__file__).resolve().parent

F3 = "p=3,m=1"
F9 = "p=3,m=2,mod=1,0,1"
F25 = "p=5,m=2,mod=1,1,1"
F27 = "p=3,m=3,mod=1,0,2,1"


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    """One in-process ``skewcyclic`` invocation with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# verify: the verification suite through the CLI


# (claim, mode, pass) in output order for bench/verify_matrix.json; any
# claim that newly skips, samples or fails breaks the gate
VERIFY_EXPECTED = (
    ("gray-isometry", "sampled", True),
    ("census-count", "exhaustive", True),
    ("fixed-subfield-divisors", "exhaustive", True),
    ("combined-generator", "exhaustive", True),
    ("cardinality-rank", "exhaustive", True),
    ("duality", "exhaustive", True),
    ("dual-gray-commute", "exhaustive", True),
    ("decompose-compose", "exhaustive", True),
    ("idempotent-generator", "exhaustive", True),
    ("quasi-cyclic-gray", "exhaustive", True),
    ("principal-generator", "sampled", True),
    ("distance-law", "exhaustive", True),
    ("dual-shift-closure", "exhaustive", True),
    ("shift-closure", "exhaustive", True),
)


class Verify:
    name = "verify"
    matrix = BENCH_DIR / "verify_matrix.json"

    def setup(self, seed: int):
        return {"argv": ["verify", "--matrix", str(self.matrix), "--seed", str(seed)]}

    def describe(self, state) -> dict:
        return {
            "argv": ["skewcyclic"] + state["argv"],
            "matrix": json.loads(self.matrix.read_text()),
        }

    def inputs(self, state, k: int):
        return [state["argv"]]

    def ops(self, state, inputs):
        return [lambda argv=argv: call_cli(argv) for argv in inputs]

    def check(self, state, inputs, outputs, corrupt: bool):
        expected = list(VERIFY_EXPECTED)
        if corrupt:
            claim, mode, ok = expected[0]
            expected[0] = (claim, "exhaustive" if mode == "sampled" else "sampled", ok)
        msgs = []
        for res in outputs:
            if res.rc != 0:
                msgs.append(f"exit code {res.rc}: {res.err.strip()[:200]}")
                continue
            got = [
                (v["claim"], v["mode"], v["pass"])
                for v in map(json.loads, _json_lines(res.out))
            ]
            msgs.append(None if got == expected else f"verdicts {got} != {expected}")
        return msgs


def _json_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("{")]


# ---------------------------------------------------------------------------
# build-sweep: code construction plus the Gray-rank acceptance check


class BuildSweep:
    name = "build-sweep"
    n = 4
    batch = 1000  # codes per batch

    def setup(self, seed: int):
        fld = Field(3, 2, (1, 0, 1))
        divisors = skew_poly.monic_right_divisors(self.n, fld, 1)
        comps = [codes.component_code_new(self.n, g) for g in divisors]
        if len(comps) != 36:
            raise RuntimeError(f"expected 36 components, got {len(comps)}")
        order = list(range(len(comps) ** 3))
        random.Random(seed).shuffle(order)
        return {"field": fld, "comps": comps, "order": order}

    def describe(self, state) -> dict:
        return {
            "field": F9, "aut": 1, "n": self.n,
            "components": len(state["comps"]), "codes_in_census": len(state["order"]),
            "codes_per_batch": self.batch,
        }

    def inputs(self, state, k: int):
        order, c = state["order"], len(state["comps"])
        picks = (order[(k * self.batch + j) % len(order)] for j in range(self.batch))
        return [(t // (c * c), (t // c) % c, t % c) for t in picks]

    def ops(self, state, inputs):
        comps, fld = state["comps"], state["field"]

        def build_and_rank(a, b, c):
            code = codes.code_from_components(comps[a], comps[b], comps[c])
            rows = linalg.to_index_rows(code.gray_generator_rows(), fld)
            return linalg.rank(rows, fld)

        return [lambda t=t: build_and_rank(*t) for t in inputs]

    def check(self, state, inputs, outputs, corrupt: bool):
        comps = state["comps"]
        msgs = []
        for j, (triple, rank) in enumerate(zip(inputs, outputs)):
            expected = 3 * self.n - sum(comps[i].g.degree for i in triple)
            if corrupt and j == 0:
                expected += 1
            msgs.append(None if rank == expected else f"code {triple}: rank {rank} != {expected}")
        return msgs


# ---------------------------------------------------------------------------
# membership: SkewCyclicCode.contains on encoded and uniform words


class _Query(NamedTuple):
    code: int  # index into state["codes"]
    word: tuple  # of RingElem, handed to the package
    gray: list  # Gray image as field indices, for the reference


class Membership:
    name = "membership"
    batch = 2000  # queries per batch, half encoded codewords, half uniform
    families = ((F9, (3, 2, (1, 0, 1)), 7), (F25, (5, 2, (1, 1, 1)), 5))

    def setup(self, seed: int):
        built = []
        for _spec, (p, m, mod), n in self.families:
            fld = Field(p, m, mod)
            fld.tables()
            divisors = skew_poly.monic_right_divisors(n, fld, 1)
            comps = [codes.component_code_new(n, g) for g in divisors]
            for a in comps:
                for b in comps:
                    for c in comps:
                        built.append(codes.code_from_components(a, b, c))
        # per code: component generator rows as field indices
        rows = [
            [linalg.to_index_rows(comp.generator_rows(), code.field) for comp in code.components]
            for code in built
        ]
        return {"seed": seed, "codes": built, "rows": rows, "basis": None}

    def describe(self, state) -> dict:
        return {
            "families": [
                {"field": spec, "aut": 1, "n": n, "codes": sum(1 for c in state["codes"] if c.n == n)}
                for spec, _, n in self.families
            ],
            "queries_per_batch": self.batch,
            "encoded_fraction": 0.5,
        }

    def inputs(self, state, k: int):
        rng = random.Random(f"membership:{state['seed']}:{k}")
        codes = state["codes"]
        queries = []
        for j in range(self.batch):
            ci = j % len(codes)
            encoded = j < self.batch // 2
            queries.append(self._query(state, ci, encoded, rng))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _query(state, ci: int, encoded: bool, rng: random.Random) -> _Query:
        code = state["codes"][ci]
        fld, n = code.field, code.n
        t, q = fld.tables(), fld.q
        if encoded:
            # x_j = random F_q combination of the rows of component j
            split = []
            for comp_rows in state["rows"][ci]:
                word = [0] * n
                for row in comp_rows:
                    c = rng.randrange(q)
                    mul_c = t.mul[c]
                    word = [t.add[w][mul_c[x]] for w, x in zip(word, row)]
                split.append(word)
            triples = list(zip(*split))
            half = t.inv[t.add[t.one][t.one]]
            abc = []
            for x1, x2, x3 in triples:
                b = t.mul[half][t.sub[x2][x3]]
                c = t.sub[t.mul[half][t.add[x2][x3]]][x1]
                abc.append((x1, b, c))
        else:
            abc = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
            add, sub = t.add, t.sub
            triples = [(a, add[add[a][b]][c], add[sub[a][b]][c]) for a, b, c in abc]
        word = tuple(RingElem(*(fld.from_index(x) for x in e)) for e in abc)
        gray = [x for tr in triples for x in tr]
        return _Query(ci, word, gray)

    def ops(self, state, inputs):
        codes = state["codes"]
        return [lambda qr=qr: codes[qr.code].contains(qr.word) for qr in inputs]

    def check(self, state, inputs, outputs, corrupt: bool):
        if state["basis"] is None:
            state["basis"] = [_gray_basis(code, rows) for code, rows in zip(state["codes"], state["rows"])]
        msgs = []
        for j, (qr, got) in enumerate(zip(inputs, outputs)):
            code = state["codes"][qr.code]
            expected = _in_span(state["basis"][qr.code], qr.gray, code.field.tables())
            if corrupt and j == 0:
                expected = not expected
            msgs.append(None if got is expected else f"code {qr.code}: contains -> {got}, reference {expected}")
        return msgs


def _gray_basis(code, comp_rows):
    """Echelon basis of the Gray image, built from the component rows.

    eta_j * row has Gray image row placed on coordinates 3i + j, so no ring
    arithmetic, Gray map or division from the package is involved.
    """
    t = code.field.tables()
    n = code.n
    rows = []
    for j, comp in enumerate(comp_rows):
        for row in comp:
            g = [0] * (3 * n)
            for i, x in enumerate(row):
                g[3 * i + j] = x
            rows.append(g)
    basis = []  # (pivot column, row with 1 at the pivot)
    for row in rows:
        row = _reduce(basis, row, t)
        col = next((i for i, x in enumerate(row) if x), None)
        if col is None:
            continue
        inv = t.mul[t.inv[row[col]]]
        basis.append((col, [inv[x] for x in row]))
    return basis


def _reduce(basis, row, t):
    row = list(row)
    for col, prow in basis:
        c = row[col]
        if c:
            mul_c = t.mul[c]
            row = [t.sub[x][mul_c[y]] for x, y in zip(row, prow)]
    return row


def _in_span(basis, gray, t) -> bool:
    return not any(_reduce(basis, gray, t))


# ---------------------------------------------------------------------------
# cli-ladder: factor x^n - 1 at growing n, then one census


class CliLadder:
    name = "cli-ladder"
    factor_rungs = (
        [(F3, n) for n in (7, 11, 13, 15)]
        + [(F9, n) for n in (11, 13, 15)]
        + [(F25, n) for n in (7, 9)]
        + [(F27, n) for n in (8, 10)]
    )
    census_rung = (F9, 7)

    def setup(self, seed: int):
        argvs = [
            ["factor", "--field", spec, "--aut", "1", "--n", str(n), "--format", "json"]
            for spec, n in self.factor_rungs
        ]
        spec, n = self.census_rung
        argvs.append(["census", "--field", spec, "--aut", "1", "--n", str(n), "--format", "json"])
        # the seed fixes the order in which the rungs run
        random.Random(seed).shuffle(argvs)
        return {"argvs": argvs}

    def describe(self, state) -> dict:
        return {"argv": [["skewcyclic"] + a for a in state["argvs"]]}

    def inputs(self, state, k: int):
        return state["argvs"]

    def ops(self, state, inputs):
        return [lambda argv=argv: call_cli(argv) for argv in inputs]

    def check(self, state, inputs, outputs, corrupt: bool):
        msgs = []
        for j, (argv, res) in enumerate(zip(inputs, outputs)):
            if res.rc != 0:
                msgs.append(f"{' '.join(argv)}: exit code {res.rc}: {res.err.strip()[:200]}")
                continue
            try:
                payload = json.loads(res.out)
            except json.JSONDecodeError as exc:
                msgs.append(f"{' '.join(argv)}: bad JSON: {exc}")
                continue
            if argv[0] == "census":
                expected = 64 + (1 if corrupt and j == 0 else 0)
                got = (payload["count"], payload["count_formula"], len(payload["rows"]))
                ok = got == (expected, expected, expected)
                msgs.append(None if ok else f"census counts {got} != {expected}")
                continue
            p, n = int(argv[2].split(",")[0][2:]), int(argv[6])
            want = _sympy_factor_degrees(n, p)
            if corrupt and j == 0:
                deg, mult = want[0]
                want[0] = (deg, mult + 1)
            got = sorted((_degree(f["poly"]), f["multiplicity"]) for f in payload["factors"])
            over_field = math.prod(s + 1 for _, s in want)
            counts = (payload["codes_over_field"], payload["codes_over_ring"])
            ok = got == sorted(want) and counts == (over_field, over_field**3)
            msgs.append(None if ok else f"factor p={p} n={n}: {got} {counts} vs sympy {sorted(want)}")
        return msgs


def _degree(poly: str) -> int:
    """Degree of a polynomial in the CLI's text format."""
    if "x" not in poly:
        return 0
    return max([int(e) for e in re.findall(r"x\^(\d+)", poly)] + [1])


def _sympy_factor_degrees(n: int, p: int) -> list[tuple[int, int]]:
    import sympy

    x = sympy.Symbol("x")
    with warnings.catch_warnings():
        # sympy 1.14 warns about its own modular-integer comparisons
        warnings.simplefilter("ignore")
        _, factors = sympy.factor_list(x**n - 1, modulus=p)
    return [(int(sympy.degree(f, x)), int(s)) for f, s in factors]


WORKLOADS = {w.name: w for w in (Verify(), BuildSweep(), Membership(), CliLadder())}
