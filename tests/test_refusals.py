"""Refusals cost nothing: one table of typed refusals through ``cli.main``.

Each row runs in-process, with numpy already imported so that its import
is not booked to the refusal, and under ``tracemalloc``. A refusal must
exit 1 with ``EnumerationTooLarge`` on stderr and nothing on stdout,
inside a traced peak of ``PEAK_BYTES`` and ``SECONDS`` of wall time: a
size limit raises before it allocates or computes what it bounds.
"""

import contextlib
import io
import json
import time
import tracemalloc

import numpy  # noqa: F401  (preloaded: the rows measure the refusal, not the import)
import pytest

from skewcyclic.cli import main

F9 = "p=3,m=2,mod=1,0,1"
F3_11 = "p=3,m=11,mod=1,0,2,0,0,0,0,0,0,0,0,1"
PEAK_BYTES = 4 * 2**20
SECONDS = 0.5

REFUSALS = {
    # gcd(n, t_i) = 1: 2^54 codes, from the cyclotomic cosets
    "census F_9 n = 91": ["census", "--field", F9, "--aut", "1", "--n", "91"],
    # t_i | n and p does not divide n/t_i: from the subspace count
    "census F_9 n = 10": ["census", "--field", F9, "--aut", "1", "--n", "10"],
    "census F_9 n = 8": ["census", "--field", F9, "--aut", "1", "--n", "8"],
    # p | n/t_i: from the bounded divisor search
    "census F_9 n = 6": ["census", "--field", F9, "--aut", "1", "--n", "6"],
    # FACTOR_LIMIT, before any coset table is built
    "factor n = 10^11": ["factor", "--field", F9, "--aut", "2", "--n", str(10**11)],
    # past the field's enumeration limit
    "code build over F_{3^11}": [
        "code", "build", "--field", F3_11, "--aut", "1", "--n", "5",
        "--g1", "x-1", "--g2", "1", "--g3", "x^5-1",
    ],
}


def _traced(argv: list[str]) -> tuple[int, str, str, int, float]:
    """(exit code, stdout, stderr, traced peak in bytes, seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, out.getvalue(), err.getvalue(), peak, seconds


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_is_typed_and_cheap(name):
    rc, out, err, peak, seconds = _traced(REFUSALS[name])
    assert (rc, out) == (1, "")
    assert err.startswith("error: EnumerationTooLarge: "), err
    assert peak < PEAK_BYTES, f"{name}: traced peak {peak / 2**20:.2f} MiB"
    assert seconds < SECONDS, f"{name}: {seconds:.3f} s"


def test_verify_entry_of_2_to_the_30_codes_is_refused_at_every_census_claim(tmp_path):
    # the census claims refuse from the coset count and build no code; the
    # first three claims (isometry and divisors) run in full, so no time bound
    matrix = tmp_path / "n65.json"
    matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 65}]))
    rc, out, _, peak, _ = _traced(["verify", "--matrix", str(matrix)])
    verdicts = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    refused = [
        v for v in verdicts
        if (v["counterexample"] or {}).get("error", "").startswith("EnumerationTooLarge: ")
    ]
    assert rc == 1 and len(verdicts) == 14 and len(refused) == 11
    assert all((v["pass"], v["checked"], v["skipped"]) == (False, 0, 0) for v in refused)
    assert peak < PEAK_BYTES, f"traced peak {peak / 2**20:.2f} MiB"
