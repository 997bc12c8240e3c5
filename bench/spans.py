"""Span and counter wrappers installed around skewcyclic's public functions.

Nothing here edits the package: a ``Tracer`` replaces functions and methods
with timing wrappers at the module boundaries and puts the originals back on
``uninstall``. Callers bind with ``from .x import f``, so a module-level
function is replaced on every ``skewcyclic`` module that holds it, not only
on the module that defines it.

Each span has a name, a start, an end and a parent (the span open when it
started). Spans are folded into per-name totals as they close: calls,
inclusive time and self time, where self time is the duration minus the
time covered by child spans. Counters record work done at the same
boundaries (candidates searched, words enumerated, verdict modes).

``ElemCounter`` is the separate counting-only pass over ``FieldElem`` and
``RingElem`` arithmetic. Wrapping those dunder methods with timers would
inflate every enclosing span's self time, so element counts never come
from the timed pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PKG = "skewcyclic"


def _by_domain(prefix: str):
    """Span name split by coefficient domain: <prefix>.ring or <prefix>.field."""

    def name(f, *_args, **_kwargs):
        return f"{prefix}.ring" if f.over_ring else f"{prefix}.field"

    return name


# (module, attribute path, span name); the name may be a callable of the
# call's arguments.  Methods are given as "Class.method".
_SPANS = [
    ("finite_field", "Field.__init__", "finite_field.setup"),
    ("finite_field", "Field.tables", "finite_field.setup"),
    ("finite_field", "Field.frob_table", "finite_field.setup"),
    ("finite_field", "Field.elements", "finite_field.setup"),
    ("finite_field", "Field.fixed_subfield", "finite_field.setup"),
    ("ring_r", "gray_map", "ring_r.gray_map"),
    ("ring_r", "crt_split", "ring_r.crt"),
    ("ring_r", "crt_join", "ring_r.crt"),
    ("ring_r", "ring_tables", "ring_r.tables"),
    ("ring_r", "make_idempotents", "ring_r.tables"),
    ("skew_poly", "skew_mul", _by_domain("skew_poly.mul")),
    ("skew_poly", "right_divide", _by_domain("skew_poly.divide")),
    ("skew_poly", "ring_skew_poly_combine", "skew_poly.combine"),
    ("skew_poly", "project_components", "skew_poly.combine"),
    ("skew_poly", "monic_right_divisors", "skew_poly.divisor_search"),
    ("skew_poly", "factor_xn_minus_1", "skew_poly.factor"),
    ("skew_poly", "subfield_irreducibles", "skew_poly.factor"),
    ("skew_poly", "Factorization.verify", "skew_poly.factor.verify"),
    ("skew_poly", "extended_gcd_commutative", "skew_poly.egcd"),
    ("codes", "code_from_components", "codes.build"),
    ("codes", "component_code_new", "codes.build"),
    ("codes", "SkewCyclicCode.contains", "codes.contains"),
    ("codes", "SkewCyclicCode.dual", "codes.dual"),
    ("codes", "SkewCyclicCode.idempotent_generator", "codes.idempotent"),
    ("codes", "SkewCyclicCode.min_lee_distance", "codes.distance"),
    ("codes", "census", "codes.census"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "span_vectors", "linalg.span_vectors"),
    ("linalg", "span_min_weight", "linalg.span_min_weight"),
    ("cli", "main", "cli.main"),
]

# claim oracles in ``oracle`` that get one span each (oracle.<claim>)
ORACLE_CLAIMS = (
    "gray_isometry",
    "census",
    "fixed_subfield_divisors",
    "shift_closure",
    "cardinality",
    "duality",
    "dual_gray_commutation",
    "quasi_cyclic_gray",
    "principality",
    "distance_law",
    "idempotent_generators",
    "decomposition",
    "combined_uniqueness",
)

ELEM_OPS = {
    ("finite_field", "FieldElem"): ("__add__", "__sub__", "__mul__", "__neg__", "inv", "frob"),
    ("ring_r", "RingElem"): (
        "__add__", "__sub__", "__mul__", "__neg__", "inv", "frob", "scale_field",
    ),
}


def _module(name: str):
    return sys.modules[f"{PKG}.{name}"]


def _resolve(module: str, path: str):
    """(owner, attribute) for 'func' or 'Class.method' in a package module."""
    owner = _module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # a module-level function: rebind it everywhere it was imported
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters at the package's module boundaries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent, child) -> spans
        self.counters: Counter = Counter()
        self.covered = 0.0  # time inside top-level spans
        self._stack: list[list] = []  # [name, child time]
        self._patches = _Patches()

    # -- spans -----------------------------------------------------------------

    def _span(self, fn, name, on_return=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                self.calls[label] += 1
                self.total[label] += dur
                self.self_time[label] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    self.edges[(stack[-1][0], label)] += 1
                else:
                    self.covered += dur
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    def _hook(self, fn, on_return):
        """Count-only wrapper: no span, its time stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        returns = {
            "monic_right_divisors": self._found,
            "subfield_irreducibles": self._sieve,
            "span_vectors": self._span_words,
        }
        for module, path, name in _SPANS:
            owner, key = _resolve(module, path)
            on_return = returns.get(key)
            self._patches.replace(
                owner, key, lambda f, n=name, r=on_return: self._span(f, n, r)
            )
        for claim in ORACLE_CLAIMS:
            owner, key = _resolve("oracle", f"verify_{claim}")
            self._patches.replace(
                owner, key,
                lambda f, n=f"oracle.{claim}": self._span(f, n, self._verdict),
            )
        owner, key = _resolve("oracle", "verify_entry")
        self._patches.replace(owner, key, lambda f: self._span(f, "oracle.harness"))

        # private helpers that see the work sizes; counters only
        hooks = (
            ("skew_poly", "_brute_divisor_tails", self._candidates),
            ("linalg", "_digit_rows", self._digit_rows),
        )
        for module, path, on_return in hooks:
            owner, key = _resolve(module, path)
            self._patches.replace(owner, key, lambda f, r=on_return: self._hook(f, r))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- counters fed from return values -----------------------------------------

    def _found(self, result, args, kwargs):
        self.counters["skew_poly.divisor_search.found"] += len(result)

    def _candidates(self, result, args, kwargs):
        _n, field, _i, d = args[:4]
        self.counters["skew_poly.divisor_search.candidates"] += field.q**d

    def _sieve(self, result, args, kwargs):
        field, i, max_degree = args[:3]
        sub = field.p**i
        self.counters["skew_poly.factor.sieve_candidates"] += sum(
            sub**d for d in range(1, max_degree + 1)
        )

    def _span_words(self, result, args, kwargs):
        self.counters["linalg.span_vectors.words"] += len(result)

    def _digit_rows(self, result, args, kwargs):
        # span_min_weight enumerates all p^k digit combinations of the k
        # rows; every word is materialized as an int64 row of this width
        field = args[1]
        k, width = result.shape
        words = field.p**k
        self.counters["linalg.span_min_weight.words"] += words
        self.counters["linalg.span_min_weight.bytes_computed"] += words * width * 8

    def _verdict(self, result, args, kwargs):
        self.counters[f"oracle.verdicts.{result.mode}"] += 1


class ElemCounter:
    """Counting-only pass over FieldElem and RingElem arithmetic."""

    def __init__(self):
        self.counts = {"finite_field.elem_ops": [0], "ring_r.elem_ops": [0]}
        self._patches = _Patches()

    def install(self) -> None:
        for (module, cls_name), methods in ELEM_OPS.items():
            cls = getattr(_module(module), cls_name)
            cell = self.counts[f"{module}.elem_ops"]
            for meth in methods:
                self._patches.replace(cls, meth, lambda f, c=cell: _counting(f, c))

    def uninstall(self) -> None:
        self._patches.undo()

    def values(self) -> dict[str, int]:
        return {k: v[0] for k, v in self.counts.items()}


def _counting(fn, cell):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper
