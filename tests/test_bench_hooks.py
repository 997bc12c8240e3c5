"""The benchmark's instruments still fit the package.

``bench/spans.py`` wraps package functions and methods by name, and the
verify workload feeds ``bench/verify_matrix.json`` to ``verify --matrix``.
A rename or deletion that breaks either fails here, not only in a
benchmark run.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import skewcyclic.cli  # noqa: F401  (the wrappers resolve every package module)
from skewcyclic import oracle
from skewcyclic.codes import census
from skewcyclic.finite_field import Field
from skewcyclic.ring_r import RingElem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes(spans) -> dict:
    """Every module- and class-level attribute of the package, by location."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == spans.PKG or name.startswith(spans.PKG + ".")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_installs_and_uninstalls(spans):
    before = _package_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert oracle.verify_entry is not before[("skewcyclic.oracle", "verify_entry")]
        oracle.verify_entry(oracle.TestMatrixEntry(p=3, m=2, i=1, n=1))
        fld = Field(3, 2, (1, 0, 1))
        comp = census(2, fld, 1)[1].c1
        words = oracle.oracle_code_enumerate(comp)
    finally:
        tracer.uninstall()
    assert _package_attributes(spans) == before
    assert tracer.calls["oracle.harness"] == 1
    for claim in spans.ORACLE_CLAIMS:
        assert tracer.calls[f"oracle.{claim}"] >= 1, claim
    assert tracer.counters["linalg.span_vectors.words"] == len(words)
    assert tracer.counters["oracle.verdicts.exhaustive"] > 0


def test_elem_counter_installs_and_uninstalls(spans):
    before = _package_attributes(spans)
    fld = Field(3, 2, (1, 0, 1))
    counter = spans.ElemCounter()
    counter.install()
    try:
        r = RingElem(fld.gen, fld.one, fld.zero)
        r * r + r.frob(1)
    finally:
        counter.uninstall()
    assert _package_attributes(spans) == before
    counts = counter.values()
    assert counts["ring_r.elem_ops"] == 3
    assert counts["finite_field.elem_ops"] > 0


def test_verify_matrix_builds_entries():
    # the parser that `verify --matrix` uses, fields and all
    raw = json.loads((BENCH / "verify_matrix.json").read_text())
    entries = oracle.matrix_from_json(raw, 101)
    assert entries and len(entries) == len(raw)
    for item, entry in zip(raw, entries):
        assert (entry.p, entry.m, entry.i, entry.n) == tuple(item[k] for k in "pmin")
        assert entry.modulus == tuple(item["modulus"])
        assert entry.bounds == oracle.Bounds(**item.get("bounds", {}))
        assert entry.seed == item.get("seed", 101)
        assert entry.field().q == item["p"] ** item["m"]
