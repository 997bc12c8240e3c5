import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import count_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic import codes, linalg, skew_poly
from skewcyclic.cli import main
from skewcyclic.codes import census
from skewcyclic.finite_field import EnumerationTooLarge, Field, FieldError, field_from_string
from skewcyclic.oracle import CLAIMS
from skewcyclic.ring_r import ring_vector_from_string
from skewcyclic.skew_poly import poly_from_string, project_components, ring_coeffs_from_string

FIELD = "p=3,m=2,mod=1,0,1"
DATA = Path(__file__).resolve().parent / "data"
BENCH_MATRIX = Path(__file__).resolve().parents[1] / "bench" / "verify_matrix.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFieldCommand:
    def test_check_ok(self, capsys):
        code, out, _ = run(capsys, "field", "check", "--field", FIELD)
        assert code == 0 and "q = 9" in out

    def test_check_json(self, capsys):
        code, out, _ = run(
            capsys, "field", "check", "--field", FIELD, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 9 and payload["valid"]

    def test_malformed_field_exits_2(self, capsys):
        code, _, err = run(capsys, "field", "check", "--field", "p=3,m=2,mod=1,1,1")
        assert code == 2 and "reducible" in err

    def test_missing_field_exits_2(self, capsys):
        code, _, err = run(capsys, "field", "check")
        assert code == 2 and "--field" in err


class TestFactorCommand:
    def test_n5(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--field", FIELD, "--aut", "1", "--n", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["factors"]) == 2
        assert payload["codes_over_field"] == 4
        assert payload["codes_over_ring"] == 64

    def test_n1(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--field", FIELD, "--n", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0 and len(payload["factors"]) == 1
        assert payload["codes_over_field"] == 2
        assert payload["codes_over_ring"] == 8

    def test_gcd_gate_exits_1(self, capsys, monkeypatch):
        from skewcyclic import cli

        def refuse(*args):
            pytest.fail("x^n - 1 was factored")

        for module in (cli, skew_poly):
            monkeypatch.setattr(module, "factor_xn_minus_1", refuse)
        code, out, err = run(capsys, "factor", "--field", FIELD, "--n", "4")
        assert (code, out) == (1, "")
        assert err.startswith("error: HypothesisViolated: gcd(n, t_i) = 2 != 1")

    def test_deterministic_output(self, capsys):
        a = run(capsys, "factor", "--field", FIELD, "--n", "5")
        b = run(capsys, "factor", "--field", FIELD, "--n", "5")
        assert a == b

    @pytest.mark.parametrize("cmd", [
        ("code", "build", "--g1", "x-1", "--g2", "1", "--g3", "x^5-1"),
        ("code", "contains", "--g1", "1", "--g2", "1", "--g3", "1", "--word", "1|2|0,0,0,0,0"),
    ])
    def test_arithmetic_past_the_enumeration_limit_is_a_typed_refusal(self, capsys, cmd):
        # q = 3^11: the field parses, but its arithmetic raises before any
        # table is allocated, and the CLI exits 1 naming the error
        code, out, err = run(
            capsys, *cmd[:2], "--field", "p=3,m=11,mod=1,0,2,0,0,0,0,0,0,0,0,1",
            "--aut", "1", "--n", "5", *cmd[2:],
        )
        assert code == 1 and out == ""
        assert err.startswith("error: EnumerationTooLarge: q = 177147 exceeds bound 65536")

    @pytest.mark.parametrize("command", ["factor", "census"])
    @pytest.mark.parametrize("aut,n", [("1", "99999999999"), ("2", "100000000000")])
    def test_huge_length_is_refused_before_any_allocation(
        self, capsys, monkeypatch, command, aut, n
    ):
        # n' = n / 3^e is past skew_poly.FACTOR_LIMIT: the refusal comes
        # before any coset table or lane list of x^{n'} - 1 is built
        def refuse(*args):
            pytest.fail("an object of size n' was built")

        for module in (skew_poly, codes):
            monkeypatch.setattr(module, "_cyclotomic_cosets", refuse)
        monkeypatch.setattr(skew_poly, "_lane_xn_minus_1", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--field", FIELD, "--aut", aut, "--n", n)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: EnumerationTooLarge: n' = ") and "factoring" in err

    def test_huge_length_outside_the_subfield_is_refused_by_the_search_bound(self, capsys):
        # gcd(n, t_1) = 2: census searches divisors by brute force, and the
        # search space passes its bound at degree 8, whatever n is
        start = time.perf_counter()
        code, out, err = run(
            capsys, "census", "--field", FIELD, "--aut", "1", "--n", "100000000000"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "") and "EnumerationTooLarge" in err

    def test_large_field_with_prime_subfield(self, capsys):
        # q = 3^11 is past the enumeration bound, but theta_1 fixes F_3 and
        # the factorization never enumerates F_q
        code, out, err = run(
            capsys, "factor", "--field", "p=3,m=11,mod=1,0,2,0,0,0,0,0,0,0,0,1",
            "--aut", "1", "--n", "5", "--format", "json",
        )
        assert code == 0, err
        payload = json.loads(out)

        def c(k):
            return "[" + ",".join([str(k)] + ["0"] * 10) + "]"

        x_minus_1 = f"{c(2)} + {c(1)}*x"
        quartic = " + ".join([c(1), f"{c(1)}*x"] + [f"{c(1)}*x^{k}" for k in (2, 3, 4)])
        assert payload["factors"] == [
            {"poly": x_minus_1, "multiplicity": 1},
            {"poly": quartic, "multiplicity": 1},
        ]
        assert (payload["codes_over_field"], payload["codes_over_ring"]) == (4, 64)

    PINNED = json.loads((DATA / "factor_json_pins.json").read_text())

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_json_output_is_pinned(self, capsys, argv):
        # recorded before the factorization moved to the index lane: the
        # cli-ladder rungs and F_9 (i = 1) at n = 97 and 241; and before it
        # split one cyclotomic polynomial at a time: F_9 (i = 1) at
        # n = 485, 1001, 1999 and 2001
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == self.PINNED[argv]


class TestCodeCommand:
    BUILD = [
        "code", "build", "--field", FIELD, "--aut", "1", "--n", "5",
        "--g1", "x-1", "--g2", "1", "--g3", "1", "--format", "json",
    ]

    def test_build_cardinality(self, capsys):
        code, out, _ = run(capsys, *self.BUILD)
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinality"] == 9**14
        assert payload["dims"] == [4, 5, 5]

    CODE_PINS = json.loads((DATA / "code_json_pins.json").read_text())

    @pytest.mark.parametrize("argv", sorted(CODE_PINS))
    def test_json_output_is_pinned(self, capsys, argv):
        # recorded while codes still combined their generators at
        # construction: build, dual and (n = 5) idempotent over F_9 for
        # thirteen codes at n = 4 and 5, zero and full components included;
        # gray (gray_rank) and distance for the same codes were recorded
        # while rank still ran through the Gauss-Jordan rref; matrix (the
        # generator rows over R) while each code still built its own rows
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == self.CODE_PINS[argv]

    def test_components_over_different_fields_exit_1(self, capsys, monkeypatch):
        from skewcyclic import cli

        f25 = field_from_string("p=5,m=2,mod=2,0,1")
        build, built = cli.component_code_new, []

        def second_over_f25(n, g):
            if len(built) == 1:
                g = poly_from_string("1", f25, 1)
            built.append(build(n, g))
            return built[-1]

        monkeypatch.setattr(cli, "component_code_new", second_over_f25)
        code, out, err = run(capsys, *self.BUILD)
        assert code == 1 and out == ""
        assert err.startswith("error: FieldMismatch: component fields differ")

    def test_json_block_roundtrips_through_contains(self, capsys):
        _, out, _ = run(capsys, *self.BUILD)
        block = json.loads(out)["code"]
        field_str = "p={p},m={m},mod={mods}".format(
            p=block["field"]["p"],
            m=block["field"]["m"],
            mods=",".join(str(c) for c in block["field"]["mod"]),
        )
        # the zero word of length n is always a member
        word = ";".join(["[0,0]|[0,0]|[0,0]"] * block["n"])
        code, out, _ = run(
            capsys, "code", "contains", "--field", field_str,
            "--aut", str(block["aut"]), "--n", str(block["n"]),
            "--g1", block["g1"], "--g2", block["g2"], "--g3", block["g3"],
            "--word", word, "--format", "json",
        )
        assert code == 0 and json.loads(out)["member"] is True

    def test_contains_rejects_non_member(self, capsys):
        # eta1-embedded (w, 1) is not in the code generated by x - w
        word = "[0,1]|[0,0]|[0,2];[1,0]|[0,0]|[2,0]"
        code, out, _ = run(
            capsys, "code", "contains", "--field", FIELD, "--n", "2",
            "--g1", "x-[0,1]", "--g2", "1", "--g3", "1",
            "--word", word, "--format", "json",
        )
        assert code == 0 and json.loads(out)["member"] is False

    def test_dual_prints_reversed_cofactors(self, capsys):
        code, out, _ = run(
            capsys, "code", "dual", "--field", FIELD, "--n", "2",
            "--g1", "x-[0,1]", "--g2", "x-[0,1]", "--g3", "x-[0,1]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["htilde"] == ["[1,0] + [0,1]*x"] * 3
        assert payload["dual"]["g1"] == "[0,2] + [1,0]*x"
        assert payload["dual_cardinality"] == 9**3

    def test_dual_of_full_code_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "code", "dual", "--field", FIELD, "--n", "2",
            "--g1", "1", "--g2", "1", "--g3", "1", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["dual_cardinality"] == 1

    def test_distance_single_component_embedding(self, capsys):
        code, out, _ = run(
            capsys, "code", "distance", "--field", FIELD, "--n", "2",
            "--g1", "x-[0,1]", "--g2", "x^2-1", "--g3", "x^2-1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_lee_distance"] == 2

    def test_idempotent(self, capsys):
        code, out, _ = run(
            capsys, "code", "idempotent", "--field", FIELD, "--n", "5",
            "--g1", "x-1", "--g2", "1", "--g3", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["idempotent_verified"] is True
        assert payload["component_idempotents"][0] == (
            "[2,0] + [1,0]*x + [1,0]*x^2 + [1,0]*x^3 + [1,0]*x^4"
        )

    def test_idempotent_hypothesis_exits_1(self, capsys):
        code, _, err = run(
            capsys, "code", "idempotent", "--field", FIELD, "--n", "3",
            "--g1", "x-1", "--g2", "1", "--g3", "1",
        )
        assert code == 1 and "HypothesisViolated" in err

    def test_gray_word(self, capsys):
        code, out, _ = run(
            capsys, "code", "gray", "--field", FIELD, "--n", "1",
            "--g1", "1", "--g2", "1", "--g3", "1",
            "--word", "[1,0]|[2,0]|[0,0]", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["gray_image"] == ["[1,0]", "[0,0]", "[2,0]"]
        assert payload["lee_weight"] == 2

    def test_gray_matrix_rank(self, capsys):
        code, out, _ = run(
            capsys, "code", "gray", "--field", FIELD, "--n", "2",
            "--g1", "x-[0,1]", "--g2", "1", "--g3", "x^2-1", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["gray_rank"] == 3 and payload["gray_length"] == 6

    def test_matrix(self, capsys):
        code, out, _ = run(
            capsys, "code", "matrix", "--field", FIELD, "--n", "2",
            "--g1", "x-[0,1]", "--g2", "1", "--g3", "x^2-1", "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["generator_matrix"]) == 3

    def test_combined_generator_input(self, capsys):
        # build from --g over R: the lift of x - 1
        code, out, _ = run(
            capsys, "code", "build", "--field", FIELD, "--n", "5",
            "--g", "x-1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [4, 4, 4]

    def test_non_divisor_exits_1(self, capsys):
        code, _, err = run(
            capsys, "code", "build", "--field", FIELD, "--n", "3",
            "--g1", "x-[0,1]", "--g2", "1", "--g3", "1",
        )
        assert code == 1 and "NotRightDivisor" in err

    def test_conflicting_generator_flags_exit_2(self, capsys):
        code, _, err = run(
            capsys, "code", "build", "--field", FIELD, "--n", "2",
            "--g", "x-1", "--g1", "x-1", "--g2", "1", "--g3", "1",
        )
        assert code == 2


class TestCensusCommand:
    def test_n1_rows(self, capsys):
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 8 and len(payload["rows"]) == 8
        full = next(
            r for r in payload["rows"]
            if (r["g1"], r["g2"], r["g3"]) == ("[1,0]", "[1,0]", "[1,0]")
        )
        assert full["cardinality"] == 9**3 and full["min_lee_distance"] == 1
        zero = next(r for r in payload["rows"] if r["cardinality"] == 1)
        assert zero["degenerate"] and zero["min_lee_distance"] == 0

    def test_table_bound_exceeded(self, capsys, monkeypatch):
        # gcd(2, t_1) = 2: the 6 divisors come from the bounded search, and
        # the 216 codes are refused before any component is built
        from skewcyclic import cli

        def refuse(*args):
            pytest.fail("a component was built")

        for module in (cli, codes):
            monkeypatch.setattr(module, "component_code_new", refuse)
        code, out, err = run(
            capsys, "census", "--field", FIELD, "--n", "2", "--bound", "10"
        )
        assert (code, out) == (1, "")
        assert err == "error: EnumerationTooLarge: census size 216 exceeds table bound 10\n"

    def test_coprime_refusal_builds_no_divisor(self, capsys, monkeypatch):
        # gcd(91, t_1) = 1: the coset count, 2^54 codes, is refused before
        # x^91 - 1 is factored or any of its 2^18 divisors is built
        def refuse(*args):
            pytest.fail("x^n - 1 was factored or a divisor was built")

        for name in ("factor_xn_minus_1", "divisors_from_factorization"):
            monkeypatch.setattr(skew_poly, name, refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "--field", FIELD, "--aut", "1", "--n", "91")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == f"error: EnumerationTooLarge: census size {2**54} exceeds table bound 10000\n"

    def test_refusal_is_fast(self, capsys):
        # the F_25 census at n = 4 is refused before any code is built
        start = time.perf_counter()
        code, out, err = run(
            capsys, "census", "--field", "p=5,m=2,mod=2,0,1", "--n", "4",
            "--bound", "10",
        )
        assert code == 1 and out == "" and "EnumerationTooLarge" in err
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize(
        "n,distance_bound", [(5, 10**6), (5, 100), (7, 1000), (5, 5), (7, 8)]
    )
    def test_distances_follow_the_distance_law(self, capsys, n, distance_bound):
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", str(n), "--format", "json",
            "--distance-bound", str(distance_bound),
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        codes = census(n, field_from_string(FIELD), 1)
        assert len(rows) == len(codes) == 64
        seen_none = False
        for row, c in zip(rows, codes):
            assert (row["g1"], row["g2"], row["g3"]) == tuple(
                str(comp.g) for comp in c.components
            )
            try:
                dist = c.min_lee_distance(distance_bound)
                expected = (dist.value, dist.degenerate)
            except EnumerationTooLarge:
                expected = (None, False)
                seen_none = True
            assert (row["min_lee_distance"], row["degenerate"]) == expected
        # a component is enumerated on the smaller of itself and its dual
        smaller = [
            9 ** min(comp.dim, n - comp.dim)
            for c in codes for comp in c.components if not comp.is_zero_code()
        ]
        assert seen_none == (max(smaller) > distance_bound)
        assert seen_none == (distance_bound < 9)

    def test_count_formula_column(self, capsys):
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["count"] == payload["count_formula"] == 64

    def test_no_empty_distance_at_n11(self, capsys):
        # every component has min(k, n - k) <= 5 and 9^5 is below the
        # default bound, so the smaller side always fits
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", "11", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 512
        assert all(r["min_lee_distance"] is not None for r in rows)
        fld = field_from_string(FIELD)
        comps = {c for code in census(11, fld, 1) for c in code.components}
        assert sorted(c.dim for c in comps) == [0, 1, 5, 5, 6, 6, 10, 11]
        for comp in comps:
            if not comp.is_zero_code() and comp.size <= 10**6:
                own = linalg.to_index_rows(comp.generator_rows(), fld)
                assert comp.min_hamming_distance().value == linalg.span_min_weight(
                    own, fld, 10**6
                )
        assert time.perf_counter() - start < 10

    def test_census_factors_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, skew_poly, "monic_right_divisors", "factor_xn_minus_1")
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", "7", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count_formula"] == 4**3
        assert calls == {"monic_right_divisors": 1, "factor_xn_minus_1": 1}

    def test_census_and_verify_share_one_sizing(self, capsys, monkeypatch):
        from skewcyclic import oracle

        sizing, calls = codes.census_components, []

        def counting(*args):  # (n, field, i, bound, ...), from the CLI and from census
            calls.append((args[0], args[3]))
            return sizing(*args)

        monkeypatch.setattr(codes, "census_components", counting)
        code, _, _ = run(capsys, "census", "--field", FIELD, "--n", "5")
        assert code == 0 and calls == [(5, codes.CENSUS_LIMIT)]
        entry = oracle.TestMatrixEntry(p=3, m=2, i=1, n=1, bounds=oracle.Bounds(enumeration=8))
        assert all(r.passed for r in oracle.verify_entry(entry))
        assert calls == [(5, codes.CENSUS_LIMIT), (1, 8)]

    CENSUS_PINS = json.loads((DATA / "census_pins.json").read_text())

    @pytest.mark.parametrize("argv", sorted(CENSUS_PINS))
    def test_stdout_is_pinned(self, argv):
        # recorded while the census still built all D^3 codes and printed
        # its output at the end: F_9 at n = 4 (the brute-search path,
        # 46656 rows), 5, 7, 11 and 13, and F_25 (i = 2) at n = 3
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv.split())
        data = buf.getvalue().encode()
        assert code == 0
        assert len(data) == self.CENSUS_PINS[argv]["bytes"]
        assert hashlib.sha256(data).hexdigest() == self.CENSUS_PINS[argv]["sha256"]

    def test_rows_come_from_the_components_alone(self, capsys, monkeypatch):
        built = {"code": 0, "component": 0}
        comps = []

        def counting(cls, key):
            init = cls.__init__

            def counted(self, *args):
                built[key] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)

        counting(codes.SkewCyclicCode, "code")
        counting(codes.ComponentCode, "component")
        census_components = codes.census_components

        def listing(*args):
            found = census_components(*args)
            comps.extend(found[0])
            return found

        monkeypatch.setattr(codes, "census_components", listing)
        code, out, _ = run(capsys, "census", "--field", FIELD, "--n", "11")
        assert code == 0 and len(out.splitlines()) == 1 + 512
        assert built["code"] == 0
        # the D = 8 components, and the dual of each component past half
        # the length, enumerated on that smaller side for its distance
        duals = [c for c in comps if c.dim > 11 - c.dim]
        assert len(comps) == 8 and len(duals) == 4
        assert all(c._dual is not None for c in duals)
        assert built["component"] == len(comps) + len(duals)

    def test_distance_error_leaves_stdout_empty(self, capsys, monkeypatch):
        def failing(weights, n, q):
            raise linalg.MacWilliamsError("injected")

        monkeypatch.setattr(linalg, "macwilliams", failing)
        for fmt in ("table", "json"):
            code, out, err = run(
                capsys, "census", "--field", FIELD, "--n", "5", "--format", fmt
            )
            assert code == 1 and out == ""
            assert err.startswith("error: MacWilliamsError: injected")

    def test_reader_that_leaves_early_gets_no_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "skewcyclic.cli", "census", "--field", FIELD,
                "--aut", "1", "--n", "13", "--bound", "100000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b"census of skew cyclic codes over R, n = 13, q = 9")
        assert b"Traceback" not in err


def _coprime_census(argv: str) -> bool:
    """gcd(n, t_i) = 1: the census factors x^n - 1 instead of searching."""
    words = argv.split()
    opts = dict(zip(words[3::2], words[4::2]))
    m = field_from_string(words[2]).m
    return math.gcd(int(opts["--n"]), m // int(opts["--aut"])) == 1


class TestWithoutDenseTables:
    """Gray ranks, distances and the factored census read no dense q x q
    table: their pins hold with ``Field.tables`` refusing."""

    @pytest.fixture(autouse=True)
    def _refuse_tables(self, monkeypatch):
        monkeypatch.setattr(Field, "tables", lambda self: pytest.fail("dense tables were read"))

    @pytest.mark.parametrize("argv", sorted(
        k for k in TestCodeCommand.CODE_PINS if k.split()[1] in ("gray", "distance")
    ))
    def test_code_pins(self, capsys, argv):
        TestCodeCommand().test_json_output_is_pinned(capsys, argv)

    @pytest.mark.parametrize("argv", sorted(filter(_coprime_census, TestCensusCommand.CENSUS_PINS)))
    def test_census_pins(self, argv):
        TestCensusCommand().test_stdout_is_pinned(argv)


class TestVerifyCommand:
    def test_matrix_file(self, capsys, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 1}]))
        code, out, _ = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert lines
        for line in lines:
            parsed = json.loads(line)
            assert parsed["pass"] is True
        assert "failed: 0" in out

    def test_inject_broken_exits_1(self, capsys, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 1}]))
        code, out, _ = run(
            capsys, "verify", "--matrix", str(matrix), "--inject-broken"
        )
        assert code == 1
        assert "FAIL" in out
        failing = [
            json.loads(l)
            for l in out.splitlines()
            if l.startswith("{") and not json.loads(l)["pass"]
        ]
        assert failing and all(f["counterexample"] for f in failing)

    def test_broken_zech_table_fails_every_entry_without_hanging(self):
        # a LogTable whose Zech logarithms read 1 + x at x + 1 instead of
        # x + q/p: every sum is wrong, and the division steps still end
        script = (
            "import sys\n"
            "from skewcyclic import cli\n"
            "from skewcyclic.finite_field import LogTable\n"
            "build = LogTable.__init__\n"
            "def broken(self, field):\n"
            "    build(self, field)\n"
            "    q = field.q\n"
            "    self.zech = [self.log[(x + 1) % q] for x in self.exp[: q - 1]] * 2\n"
            "LogTable.__init__ = broken\n"
            "sys.exit(cli.main(['verify', '--seed', '0']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""  # no traceback
        verdicts = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
        for n in (1, 3, 5):
            entry = [v for v in verdicts if v["config"]["n"] == n]
            assert [v["claim"] for v in entry] == list(CLAIMS)
            gray = next(v for v in entry if v["claim"] == "gray-isometry")
            assert not gray["pass"] and gray["counterexample"]["table"] == "zech"
            assert all(v["counterexample"] for v in entry if not v["pass"])

    def test_failing_verdict_names_the_failing_code(self, capsys, tmp_path, monkeypatch):
        from skewcyclic import oracle

        from skewcyclic.codes import census, code_to_json

        real, checked = oracle.verify_cardinality, []

        def fail_second_component(comp, cfg):
            v = real(comp, cfg)
            checked.append(cfg)
            if len(checked) == 2:
                return oracle.VerdictReport(
                    v.claim, v.config, v.mode, False, {"rank": 0, "expected": 1}
                )
            return v

        monkeypatch.setattr(oracle, "verify_cardinality", fail_second_component)
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 3}]))
        code, out, _ = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 1
        verdicts = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        failing = [v for v in verdicts if not v["pass"]]
        assert [v["claim"] for v in failing] == ["cardinality-rank"]
        assert failing[0]["config"]["n"] == 3 and "g1" not in failing[0]["config"]
        # the census runs its last slot fastest: the second distinct
        # component first appears in slot 3 of the second code
        first = code_to_json(census(3, oracle.TestMatrixEntry(p=3, m=2, i=1, n=3).field(), 1)[1])
        assert failing[0]["counterexample"] == {
            "rank": 0, "expected": 1, "slot": 3, "code": first,
        }
        assert first["g3"] == checked[1]["g"] and len(checked) == 4

    def test_malformed_matrix_exits_2(self, capsys, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text("{not json")
        code, _, err = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 0}, "ValueError: n must be an integer >= 1, got 0"),
            ({"n": -2}, "ValueError: n must be an integer >= 1, got -2"),
            ({"p": 4}, "NotPrime: 4 is not prime"),
            ({"i": 3}, "InvalidExponent: exponent 3 does not divide m = 2"),
            ({"modulus": [2, 0, 1]}, "ReducibleModulus: modulus [2, 0, 1] is reducible"),
            ({"bounds": {"pairs": -5}}, "ValueError: pairs must be an integer >= 0, got -5"),
            (
                {"modulus": [1.0, 0, 1.0]},
                "NotAnInteger: modulus coefficients must be integers, got 1.0",
            ),
            ({"seed": True}, "TypeError: seed must be an integer, got True"),
            (
                {"m": 8, "i": 8, "n": 2},
                "EnumerationTooLarge: q = 6561 too large for operation tables",
            ),
        ],
        ids=["n-zero", "n-negative", "p-composite", "i-not-dividing-m", "reducible-modulus",
             "negative-bound", "float-modulus-coefficient", "bool-seed", "past-table-limit"],
    )
    def test_bad_matrix_entry_exits_2_before_any_verdict(
        self, capsys, tmp_path, change, message
    ):
        # the second entry is bad: the first prints nothing either
        good = {"p": 3, "m": 2, "i": 1, "n": 1}
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([good, {**good, **change}]))
        code, out, err = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 2 and out == ""
        assert err.startswith("configuration error: bad matrix file")
        assert f"entry 1: {message}" in err

    def test_bad_flag_exits_2(self, capsys):
        assert main(["census", "--nope"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "check", "--field", FIELD, "--seed", "1"],
            ["factor", "--field", FIELD, "--n", "5", "--seed", "1"],
            ["code", "build", "--field", FIELD, "--n", "1",
             "--g1", "1", "--g2", "1", "--g3", "1", "--seed", "1"],
            ["census", "--field", FIELD, "--n", "1", "--seed", "1"],
            ["verify", "--format", "table"],
        ],
        ids=["field-seed", "factor-seed", "code-seed", "census-seed", "verify-format"],
    )
    def test_options_that_did_nothing_exit_2(self, capsys, argv):
        # nothing but verify samples, and verify only prints JSON lines
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, golden, exit_code",
        [
            (["verify", "--seed", "0"], "verify_seed0.txt", 0),
            (
                ["verify", "--matrix", str(BENCH_MATRIX), "--seed", "101"],
                "verify_bench_matrix_seed101.txt",
                0,
            ),
            (
                ["verify", "--matrix", str(DATA / "verify_matrix_f9_n2.json"), "--seed", "0"],
                "verify_f9_n2_seed0.txt",
                0,
            ),
            (
                ["verify", "--matrix", str(DATA / "verify_matrix_f25_n3.json"), "--seed", "0"],
                "verify_f25_n3_seed0.txt",
                0,
            ),
            (
                ["verify", "--seed", "0", "--inject-broken"],
                "verify_seed0_inject_broken.txt",
                1,
            ),
        ],
        ids=[
            "default-seed0",
            "bench-matrix-seed101",
            "f9-n2-seed0",
            "f25-n3-seed0",
            "seed0-inject-broken",
        ],
    )
    def test_seeded_output_is_reproduced(self, capsys, argv, golden, exit_code):
        # the recorded stdout pins every verdict, mode, count, witness and
        # the FAIL summary byte for byte
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert out.encode() == (DATA / golden).read_bytes()

    def test_small_distance_bound_skips_only_the_distance_law(self, capsys, tmp_path):
        # components of dimension 1 and 2 have a 9-word smaller side, past
        # the bound; the distance law skips their codes and nothing else is lost
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([
            {"p": 3, "m": 2, "i": 1, "n": 3, "modulus": [1, 0, 1], "bounds": {"distance": 5}}
        ]))
        code, out, _ = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert [l["claim"] for l in lines] == list(CLAIMS)
        assert all(l["pass"] for l in lines)
        law = next(l for l in lines if l["claim"] == "distance-law")
        assert law["skipped"] > 0 and law["checked"] + law["skipped"] == 64
        assert "claims checked: 14, passed: 14, failed: 0" in out

    def test_default_matrix_all_pass(self, capsys):
        """The default matrix (q = 9, n in 1, 3, 5) must pass end to end."""
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert all(l["pass"] for l in lines)
        lengths = {l["config"]["n"] for l in lines}
        assert lengths == {1, 3, 5}
        assert "failed: 0" in out


CODE_N1 = ["--field", FIELD, "--n", "1", "--g1", "1", "--g2", "1", "--g3", "1"]


class TestWordParsing:
    @pytest.mark.parametrize("action", ["gray", "contains"])
    @pytest.mark.parametrize("word", ["1|0|0", "[1]|[0]", "[1,2,3]|[0]|[0]", "--"])
    def test_garbage_word_exits_2(self, capsys, action, word):
        # --word=-- reaches argparse as one token, which it turns into []
        code, out, err = run(capsys, "code", action, *CODE_N1, f"--word={word}")
        assert code == 2 and out == ""
        assert err.startswith("configuration error: bad word")

    @pytest.mark.parametrize("action", ["gray", "contains"])
    def test_wrong_length_word_is_a_length_mismatch(self, capsys, action):
        # both actions reach the typed check of SkewCyclicCode.contains
        code, out, err = run(
            capsys, "code", action, "--field", FIELD, "--n", "3",
            "--g1", "1", "--g2", "1", "--g3", "1", "--word", "[1,0]|[0,0]|[0,0]",
        )
        assert code == 1 and out == ""
        assert err == "error: LengthMismatch: word length 1 != n = 3\n"

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["code", "build", *CODE_N1[:4], "--g1=--", "--g2", "1", "--g3", "1"], "g1"),
            (["code", "build", "--field=--", *CODE_N1[2:]], "field"),
            (["code", "distance", *CODE_N1[:2], "--n=--", *CODE_N1[4:]], "n"),
            (["census", *CODE_N1[:4], "--distance-bound=--"], "distance-bound"),
            (["verify", "--seed=--"], "seed"),
        ],
    )
    def test_lone_dashes_value_exits_2(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"configuration error: bad {option} '--'\n"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="[]|;,0123456789-x ", max_size=24) | st.text(max_size=12))
    def test_random_words_never_raise(self, word):
        fld = field_from_string(FIELD)
        try:
            ring_vector_from_string(fld, word)
            parses = True
        except (ValueError, FieldError):
            parses = False
        for action in ("gray", "contains"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["code", action, *CODE_N1, f"--word={word}"])
            if parses:
                assert code in (0, 1, 2)
            else:
                assert code == 2 and out.getvalue() == ""
                assert err.getvalue().startswith("configuration error: bad word")


class TestGeneratorParsing:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--g1", "[1,2,3]", "--g2", "1", "--g3", "1"],  # DegreeMismatch
            ["--g1", "x^2-1", "--g2", "1", "--g3", "1"],  # degree above n
            ["--g1", "1", "--g2", "[1", "--g3", "1"],
            ["--g", "[1,2,3]|[0]|[0]"],
            ["--g", "x^99999999999"],  # refused before any allocation
        ],
    )
    def test_garbage_generator_exits_2(self, capsys, flags):
        code, out, err = run(
            capsys, "code", "build", "--field", "p=3,m=2,mod=1,0,1", "--n", "1", *flags
        )
        assert code == 2 and out == ""
        assert err.startswith("configuration error: bad generator polynomial")

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="[]|,0123456789-+x^* ", max_size=24) | st.text(max_size=12),
        st.sampled_from(["--g1", "--g2", "--g3", "--g"]),
    )
    def test_random_generators_never_raise(self, text, flag):
        fld = field_from_string(FIELD)
        try:
            if flag == "--g":
                project_components(ring_coeffs_from_string(text, fld, max_degree=2), fld, 1)
            else:
                poly_from_string(text, fld, 1, max_degree=2)
            parses = True
        except (ValueError, FieldError):
            parses = False
        gens = {"--g1": "1", "--g2": "1", "--g3": "1"}
        gens = {flag: text} if flag == "--g" else gens | {flag: text}
        argv = ["code", "build", "--field", FIELD, "--n", "2"]
        argv += [f"{k}={v}" for k, v in gens.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if parses and text:  # an empty flag counts as a missing one
            assert code in (0, 1)
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("configuration error: ")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("field", [FIELD, "p=3,m=1"])
@pytest.mark.parametrize(
    "command",
    [["factor"], ["code", "build", "--g1", "1", "--g2", "1", "--g3", "1"], ["census"]],
    ids=["factor", "code-build", "census"],
)
def test_nonpositive_length_exits_2(capsys, command, field, n):
    # one check for every subcommand with --n: factor at n = 0 used to loop
    # forever, and census went on to the divisor search and exited 1
    code, out, err = run(capsys, *command, "--field", field, "--n", n)
    assert code == 2 and out == ""
    assert err == f"configuration error: --n must be positive, got {n}\n"


@pytest.mark.parametrize("aut", ["3", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["factor", "--n", "5"],
        ["census", "--n", "1"],
        ["code", "build", "--n", "1", "--g1", "1", "--g2", "1", "--g3", "1"],
        ["code", "build", "--n", "1", "--g", "1"],
    ],
    ids=["factor", "census", "code-triple", "code-combined"],
)
def test_aut_not_dividing_m_exits_2(capsys, command, aut):
    # one check next to the field: factor and census used to exit 1, and
    # code build blamed its generator polynomial
    code, out, err = run(capsys, *command, "--field", FIELD, "--aut", aut)
    assert code == 2 and out == ""
    assert err == (
        f"configuration error: bad --aut {aut}: exponent {aut} does not divide m = 2\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--field", FIELD, "--n", "1", "--bound", "-1"],
        ["census", "--field", FIELD, "--n", "1", "--distance-bound", "-1"],
        ["code", "distance", *CODE_N1, "--bound", "-1"],
    ],
    ids=["census-bound", "census-distance-bound", "code-distance-bound"],
)
def test_negative_bound_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be non-negative, got -1" in err


def test_zero_bound_is_a_refusal_not_a_configuration_error(capsys):
    code, out, err = run(capsys, "census", "--field", FIELD, "--n", "1", "--bound", "0")
    assert code == 1 and out == "" and "EnumerationTooLarge" in err


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process, and no call leaks into the next."""
    from skewcyclic.cli import build_parser

    distance = [
        "code", "distance", "--field", FIELD, "--n", "5",
        "--g1", "x-1", "--g2", "x^5-1", "--g3", "x^5-1", "--format", "json",
    ]
    calls = [
        ["census", "--nope"],
        distance + ["--bound", "0"],
        distance,  # --bound back at its default
        ["census", "--field", FIELD, "--n", "3", "--format", "json"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert shared == alone
    assert [rc for rc, _, _ in shared] == [2, 1, 0, 0]
    assert "unrecognized arguments: --nope" in shared[0][2]
    assert json.loads(shared[2][1])["min_lee_distance"] == 2
    assert build_parser() is build_parser()


N5_CODE = ["--field", FIELD, "--aut", "1", "--n", "5", "--g1", "x-1", "--g2", "1", "--g3", "x^5-1"]
NUMPY_FREE = [
    ["field", "check", "--field", FIELD],
    ["factor", "--field", FIELD, "--aut", "1", "--n", "13"],
    ["factor", "--field", FIELD, "--aut", "2", "--n", "4"],
    *(["code", command, *N5_CODE] for command in ("build", "dual", "gray", "matrix", "idempotent")),
    ["code", "contains", *N5_CODE, "--word", ";".join(["[1,0]|[1,0]|[0,0]"] * 5)],
]


def _fresh_run(argvs, block_numpy):
    """Run each argv through ``cli.main`` in one fresh process; return its
    [exit code, stdout] pairs and whether numpy was loaded before and after."""
    script = (
        "import contextlib, io, json, sys\n"
        f"if {block_numpy!r}:\n"
        "    sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "import skewcyclic\n"
        "from skewcyclic import cli\n"
        "before, runs = 'numpy' in sys.modules, []\n"
        f"for argv in {argvs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        runs.append([cli.main(argv), buf.getvalue()])\n"
        "print(json.dumps([runs, before, 'numpy' in sys.modules]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_span_enumeration_loads_numpy(capsys):
    # with numpy unimportable, every command that enumerates no span runs
    # and prints what an in-process run prints
    runs, _, _ = _fresh_run(NUMPY_FREE, block_numpy=True)
    assert len(runs) == len(NUMPY_FREE)
    for argv, (rc, out) in zip(NUMPY_FREE, runs):
        assert rc == 0, argv
        assert run(capsys, *argv)[:2] == (0, out), argv
    # a minimum distance enumerates a span, and that first loads numpy
    (((rc, _),), before, after) = _fresh_run([["code", "distance", *N5_CODE]], block_numpy=False)
    assert (rc, before, after) == (0, False, True)


def test_closed_stdout_exits_quietly(tmp_path):
    """`verify | head`: a reader that leaves early gets no traceback."""
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 1}]))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start: the first write fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewcyclic.cli", "verify", "--matrix", str(matrix)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
