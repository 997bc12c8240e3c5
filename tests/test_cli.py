import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic import linalg
from skewcyclic.cli import main
from skewcyclic.codes import census
from skewcyclic.finite_field import EnumerationTooLarge, FieldError, field_from_string
from skewcyclic.oracle import CLAIMS
from skewcyclic.ring_r import ring_vector_from_string
from skewcyclic.skew_poly import poly_from_string, ring_poly_from_string

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

    def test_gcd_gate_exits_1(self, capsys):
        code, _, err = run(capsys, "factor", "--field", FIELD, "--n", "4")
        assert code == 1 and "gcd" in err

    def test_deterministic_output(self, capsys):
        a = run(capsys, "factor", "--field", FIELD, "--n", "5")
        b = run(capsys, "factor", "--field", FIELD, "--n", "5")
        assert a == b


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

    def test_table_bound_exceeded(self, capsys):
        code, out, err = run(
            capsys, "census", "--field", FIELD, "--n", "2", "--bound", "10"
        )
        assert code == 1
        assert out == ""
        assert "216" in err  # the count is reported on stderr

    def test_refusal_is_fast(self, capsys):
        # the F_25 census at n = 4 is refused before any code is built
        start = time.perf_counter()
        code, out, err = run(
            capsys, "census", "--field", "p=5,m=2,mod=2,0,1", "--n", "4",
            "--bound", "10",
        )
        assert code == 1 and out == "" and "TableTooLarge" in err
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
        import sys

        from skewcyclic import skew_poly

        original = skew_poly.factor_xn_minus_1
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # rebind every package module that imported the function by name
        for name, mod in list(sys.modules.items()):
            if name.startswith("skewcyclic") and getattr(
                mod, "factor_xn_minus_1", None
            ) is original:
                monkeypatch.setattr(mod, "factor_xn_minus_1", counting)
        code, out, _ = run(
            capsys, "census", "--field", FIELD, "--n", "5", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count_formula"] == 64
        assert len(calls) == 1


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

    def test_malformed_matrix_exits_2(self, capsys, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text("{not json")
        code, _, err = run(capsys, "verify", "--matrix", str(matrix))
        assert code == 2

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
        "argv, golden",
        [
            (["verify", "--seed", "0"], "verify_seed0.txt"),
            (
                ["verify", "--matrix", str(BENCH_MATRIX), "--seed", "101"],
                "verify_bench_matrix_seed101.txt",
            ),
        ],
        ids=["default-seed0", "bench-matrix-seed101"],
    )
    def test_seeded_output_is_reproduced(self, capsys, argv, golden):
        # the recorded stdout pins every verdict, mode and count byte for byte
        code, out, _ = run(capsys, *argv)
        assert code == 0
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
        assert sorted(l["claim"] for l in lines) == sorted(CLAIMS)
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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_length_exits_2(self, capsys, n):
        code, out, err = run(capsys, "code", "build", *CODE_N1[:2], "--n", n, *CODE_N1[4:])
        assert code == 2 and out == ""
        assert err.startswith("configuration error: --n must be positive")

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="[]|,0123456789-+x^* ", max_size=24) | st.text(max_size=12),
        st.sampled_from(["--g1", "--g2", "--g3", "--g"]),
    )
    def test_random_generators_never_raise(self, text, flag):
        fld = field_from_string(FIELD)
        parse = ring_poly_from_string if flag == "--g" else poly_from_string
        try:
            parse(text, fld, 1, max_degree=2)
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
