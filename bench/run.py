"""Benchmark for skewcyclic: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Workloads: verify, build-sweep, membership, cli-ladder
(see bench/README.md).

With ``--trace 0`` the run repeats whole batches of ops until ``--seconds``
have passed (at least one batch) and reports the end-to-end metrics. With
``--trace 1`` it runs one batch traced, one untraced and one under the
element-op counter, each after its own set-up, and reports the per-layer
metrics. Every op's output is checked. Earlier stdout lines describe the
run (seed, inputs, sample counts, versions, failures); the last line is the
result object. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# keep numpy's BLAS single-threaded: one process, one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus fresh child processes


# Host contention on shared machines moves timings here by up to a third
# within minutes, far more than a run can average out. Every timing of a run
# is therefore divided by the run's machine factor: the mean, over kernel
# samples taken after set-up, after each batch and in each set-up probe, of
# the time of a fixed pure-Python kernel over REF_KERNEL_S. The kernel does
# the same kind of work as the package (small-object churn, dict lookups,
# modular arithmetic) and never calls it, so a change to the package moves
# the workload time and not the factor. Raw times and factors are in the
# detail line.
REF_KERNEL_S = 0.02
KERNEL_REPEATS = 11


class _Cell:
    __slots__ = ("key", "coeffs")

    def __init__(self, key, coeffs):
        self.key = key
        self.coeffs = coeffs


def _kernel(rounds: int = 4, n: int = 5000) -> int:
    acc = 0
    for r in range(rounds):
        cells = [_Cell(i, (i % 7, (i + r) % 11, i % 13)) for i in range(n)]
        index = {c.key: c for c in cells}
        for c in cells:
            a, b, d = index[c.key].coeffs
            acc = (acc + a * b + d) % 101
        cells.sort(key=lambda c: c.coeffs)
    return acc


def machine_factor() -> float:
    """Median kernel time over REF_KERNEL_S; 1.0 at the reference speed.

    The collector is off while the kernel runs, so the size of the
    package's heap does not change the kernel's cost.
    """
    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_REPEATS):
            t = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(times) / REF_KERNEL_S


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_ops(ops):
    """Run ops in order; (outputs, errors, latencies in seconds)."""
    outputs, errors, lats = [], [], []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            out, err = op(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        lats.append(clock() - start)
        outputs.append(out)
        errors.append(err)
    return outputs, errors, lats


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self, wl, corrupt: bool):
        self.wl, self.corrupt = wl, corrupt
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, state, inputs, outputs, errors) -> None:
        ok = [j for j, e in enumerate(errors) if e is None]
        msgs = dict(zip(ok, self.wl.check(
            state, [inputs[j] for j in ok], [outputs[j] for j in ok], self.corrupt
        )))
        for j, err in enumerate(errors):
            msg = err if err is not None else msgs.get(j)
            self.attempted += 1
            if msg is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(msg)


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def setup_probe(workload: str, seed: int) -> dict:
    """Raw set-up time and machine factor of a fresh process (--setup-only)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and their sample counts."""
    state = wl.setup(seed)
    inputs = wl.inputs(state, 0)
    setups = [{"raw_s": time.perf_counter() - T0, "factor": machine_factor()}]
    batch_times, factors, batch_p99, lats, k = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        if k:
            inputs = wl.inputs(state, k)
        ops = wl.ops(state, inputs)
        t = time.perf_counter()
        outputs, errors, op_lats = run_ops(ops)
        batch_times.append(time.perf_counter() - t)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        factors.append(machine_factor())
        lats.extend(op_lats)
        batch_p99.append(percentile(sorted(op_lats), 99))
        tally.check(state, inputs, outputs, errors)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            break
    setups += [setup_probe(wl.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    factor = statistics.fmean(factors + [s["factor"] for s in setups])
    per_batch = len(ops)
    # p99 of each batch (>= 10 samples beyond it once a batch has 1000 ops),
    # then the median over batches: one stalled second of the machine moves
    # a run-wide p99 but not this
    metrics = {
        "setup_s": statistics.median(s["raw_s"] for s in setups) / factor,
        "wall_s": statistics.median(batch_times) / factor,
        "op_p50_ms": 1000 * statistics.median(lats) / factor,
        "op_p99_ms": 1000 * statistics.median(batch_p99) / factor,
        "peak_rss_mb": rss_kb / 1024,
    }
    samples = {
        "machine_factor": factor,
        "setup_s": {"samples": len(setups), "raw_and_factor": setups},
        "wall_s": {
            "samples": len(batch_times), "ops_per_batch": per_batch,
            "raw_s": batch_times, "factor_after_batch": factors,
        },
        "op_p50_ms": {"samples": len(lats)},
        "op_p99_ms": {
            "samples": len(lats), "batches": len(batch_p99),
            "beyond_per_batch": per_batch - math.ceil(0.99 * per_batch),
        },
        "peak_rss_mb": {"samples": 1, "source": "getrusage ru_maxrss after the last batch"},
    }
    return metrics, {"inputs": wl.describe(state), "samples": samples}


def traced(wl, seed: int, tally: Tally) -> tuple[dict, dict]:
    """One batch each: traced, untraced, element-op counting; per-layer metrics."""
    from spans import ElemCounter, Tracer

    def one_batch(hook=None):
        if hook is not None:
            hook.install()
        try:
            state = wl.setup(seed)
            inputs = wl.inputs(state, 0)
            ops = wl.ops(state, inputs)
            covered0 = getattr(hook, "covered", 0.0)
            t = time.perf_counter()
            outputs, errors, _ = run_ops(ops)
            wall = time.perf_counter() - t
            covered = getattr(hook, "covered", 0.0) - covered0
        finally:
            if hook is not None:
                hook.uninstall()
        tally.check(state, inputs, outputs, errors)
        return state, outputs, wall, covered

    tracer = Tracer()
    state, outputs, traced_wall, covered = one_batch(tracer)
    _, _, untraced_wall, _ = one_batch()
    counter = ElemCounter()
    one_batch(counter)

    values: dict[str, float] = {}
    for name, n in tracer.calls.items():
        values[f"{name}.calls"] = n
        values[f"{name}.self_s"] = tracer.self_time[name]
    values.update(tracer.counters)
    values.update(counter.values())
    values["skew_poly.factor.verify_s"] = tracer.total.get("skew_poly.factor.verify", 0.0)
    cand = values.get("skew_poly.divisor_search.candidates", 0)
    values["skew_poly.divisor_search.found_per_candidate"] = (
        values.get("skew_poly.divisor_search.found", 0) / cand if cand else 0.0
    )
    values["cli.stdout_bytes"] = sum(
        len(o.out.encode()) for o in outputs if hasattr(o, "out")
    )
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.coverage"] = covered / traced_wall if traced_wall else 0.0
    context = {
        "inputs": wl.describe(state),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "ops_per_pass": len(outputs),
        "span_edges": {f"{a} > {b}": n for (a, b), n in sorted(tracer.edges.items())},
    }
    return values, context


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {**versions, "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit (set-up probe)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="falsify one reference answer (negative control)")
    args = parser.parse_args(argv)

    if not (SRC / "skewcyclic" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'skewcyclic'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        state = wl.setup(args.seed)
        wl.inputs(state, 0)
        raw = time.perf_counter() - T0
        print(json.dumps({"raw_s": raw, "factor": machine_factor()}))
        return 0

    spec = _spec()
    tally = Tally(wl, args.corrupt_reference)
    if args.trace:
        values, context = traced(wl, args.seed, tally)
        wanted = spec["per_layer"]
    else:
        values, context = measure(wl, args.seed, args.seconds, tally)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    correct = tally.failed == 0
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else None,
        "failures": tally.messages,
        **context,
        "environment": environment(),
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
