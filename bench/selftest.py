"""Self-tests of the benchmark harness (not of the package).

    python3 bench/selftest.py [--workload NAME ...]

Run from the root of a source checkout. For each workload (default: all):

- negative control: a run with one corrupted reference answer must report
  ``failed > 0``, ``correct: false`` and exit nonzero;
- smoke: a short untraced run must emit every end-to-end metric of
  BENCHMARK.json with its unit, and pass its correctness gate;
- repeatability: two traced runs with the same seed must emit every
  per-layer metric and give identical counts.

Then a copy holding only BENCHMARK.json and bench/ must exit nonzero
without printing a result. All workloads together take about six minutes
on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")  # per-layer metrics that must repeat exactly


def run(root: Path, workload: str, seed: int, trace: int, *extra: str):
    """(exit code, parsed last stdout line or None)."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metrics(result, wanted) -> list[str]:
    problems = []
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
            problems.append(f"bad metric {m['name']}: {entry}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def test_workload(name: str) -> list[str]:
    problems = []
    rc, res = run(ROOT, name, 0, 0, "--corrupt-reference")
    if rc == 0 or res is None or res["failed"] == 0 or res["correct"]:
        problems.append(f"negative control not caught: exit {rc}, result {res}")

    rc, res = run(ROOT, name, 0, 0)
    if rc != 0 or res is None or not res["correct"] or res["attempted"] < 1:
        problems.append(f"smoke run failed: exit {rc}, result {res}")
    else:
        problems += check_metrics(res, SPEC["end_to_end"])

    traced = []
    for _ in range(2):
        rc, res = run(ROOT, name, 0, 1)
        if rc != 0 or res is None or not res["correct"]:
            problems.append(f"traced run failed: exit {rc}, result {res}")
            return problems
        problems += check_metrics(res, SPEC["per_layer"])
        traced.append(res["metrics"])
    for m in SPEC["per_layer"]:
        if m["unit"] in EXACT_UNITS:
            a, b = (t[m["name"]]["value"] for t in traced)
            if a != b:
                problems.append(f"count {m['name']} differs between traced runs: {a} != {b}")
    return problems


def test_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = run(bare, "membership", 0, 0)
    if rc == 0 or res is not None:
        return [f"bare directory: exit {rc}, result {res}"]
    return []


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    failures = 0
    for name in args.workload or names:
        problems = test_workload(name)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}", flush=True)
        for p in problems:
            print(f"     {p}")
    problems = test_bare_directory()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
