import functools
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import count_calls, dual_gray, over_r, placed
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcyclic import linalg, oracle, skew_poly
from skewcyclic.codes import (
    ComponentCode,
    NotRightDivisor,
    SkewCyclicCode,
    census,
    code_from_components,
    component_code_new,
)
from skewcyclic.finite_field import Field
from skewcyclic.linalg import DISTANCE_LIMIT
from skewcyclic.oracle import (
    Bounds,
    TestMatrixEntry,
    VerdictReport,
    _brute_divisors,
    _case,
    _code_config,
    broken_code,
    broken_component_code,
    default_matrix,
    default_modulus,
    matrix_from_json,
    mismatched_case,
    oracle_code_enumerate,
    verify_all,
    verify_cardinality,
    verify_census,
    verify_combined_uniqueness,
    verify_decomposition,
    verify_distance_law,
    verify_dual_gray_commutation,
    verify_duality,
    verify_entry,
    verify_fixed_subfield_divisors,
    verify_gray_isometry,
    verify_idempotent_generators,
    verify_principality,
    verify_quasi_cyclic_gray,
    verify_shift_closure,
)
from skewcyclic.ring_r import gray_map, ring_elements
from skewcyclic.skew_poly import (
    SkewPoly,
    mod_xn_minus_1,
    poly_from_string,
    ring_skew_poly_combine,
    skew_mul,
    xn_minus_1,
)


BENCH_MATRIX = Path(__file__).parents[1] / "bench" / "verify_matrix.json"
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def entry9():
    return TestMatrixEntry(p=3, m=2, i=1, n=1)


@pytest.fixture(scope="module")
def mixed_code(f9):
    c1 = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
    full = component_code_new(2, SkewPoly.one(f9, 1))
    zero = component_code_new(2, xn_minus_1(f9, 1, 2))
    return code_from_components(c1, full, zero)


class TestDefaultModulus:
    def test_prime_field(self):
        assert default_modulus(3, 1) == (0, 1)

    def test_degree_two(self):
        mod = default_modulus(3, 2)
        Field(3, 2, mod)  # must construct
        assert mod == (1, 0, 1)  # lexicographically first irreducible

    def test_entry_field(self, entry9):
        assert entry9.field().q == 9


class TestOracleEnumeration:
    def test_zero_code(self, f9):
        z = component_code_new(2, xn_minus_1(f9, 1, 2))
        assert oracle_code_enumerate(z) == {(f9.zero, f9.zero)}

    def test_full_code_over_prime_field(self, f3):
        c = component_code_new(1, SkewPoly.one(f3, 1))
        assert len(oracle_code_enumerate(c)) == 3

    def test_xw_code_has_nine_words(self, f9):
        c = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
        words = oracle_code_enumerate(c)
        assert len(words) == 9
        from skewcyclic.codes import skew_shift

        for w in words:
            assert skew_shift(w, 1) in words

    def test_agrees_with_membership_exhaustively(self, f9):
        """Full-universe sweep: closure set == division-test set (n = 2)."""
        c = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
        words = oracle_code_enumerate(c)
        elems = f9.elements()
        members = {
            w
            for w in itertools.product(elems, repeat=2)
            if c.contains(w)
        }
        assert words == members

    def test_enumeration_never_calls_membership(self, f9, monkeypatch):
        """The two codeword paths must stay algorithmically independent."""
        from skewcyclic.codes import ComponentCode, SkewCyclicCode

        def boom(self, word):
            raise AssertionError("oracle enumeration invoked contains()")

        monkeypatch.setattr(ComponentCode, "contains", boom)
        monkeypatch.setattr(SkewCyclicCode, "contains", boom)
        c = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
        assert len(oracle_code_enumerate(c)) == 9
        full = component_code_new(2, SkewPoly.one(f9, 1))
        zero = component_code_new(2, xn_minus_1(f9, 1, 2))
        code = code_from_components(c, full, zero)
        assert len(oracle_code_enumerate(code)) == 9**3

    def test_ring_code_agrees_with_membership(self, f3):
        from skewcyclic.ring_r import ring_elements

        c1 = component_code_new(1, poly_from_string("x-1", f3, 1))
        full = component_code_new(1, SkewPoly.one(f3, 1))
        zero = component_code_new(1, xn_minus_1(f3, 1, 1))
        code = code_from_components(c1, full, zero)
        words = oracle_code_enumerate(code)
        members = {(r,) for r in ring_elements(f3) if code.contains((r,))}
        assert words == members


class TestIsometryOracle:
    def test_exhaustive_q3_n1(self):
        entry = TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=10**5))
        v = verify_gray_isometry(entry)
        assert v.passed and v.mode == "exhaustive"

    def test_sampled_q9(self, entry9):
        v = verify_gray_isometry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        assert v.passed and v.mode == "sampled"

    def test_corrupt_weight_fails_with_witness(self, monkeypatch):
        from skewcyclic.ring_r import lee_distance

        def corrupt(x, y):
            return lee_distance(x, y) + 1

        monkeypatch.setattr(oracle, "lee_distance", corrupt)
        entry = TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=10**5))
        v = verify_gray_isometry(entry)
        assert not v.passed
        assert v.counterexample is not None and "x" in v.counterexample

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 1)])  # F_9 and F_25
    def test_zero_pair_bound_skips(self, monkeypatch, p, n):
        # no word pair and no table pair is compared, so nothing may run
        def boom(*args):
            raise AssertionError("a zero pair bound compared a pair")

        monkeypatch.setattr(oracle, "_verify_splitting", boom)
        monkeypatch.setattr(oracle, "lee_distance", boom)
        entry = TestMatrixEntry(p=p, m=2, i=1, n=n, bounds=Bounds(pairs=0))
        v = verify_gray_isometry(entry)
        assert (v.mode, v.passed, v.checked, v.skipped) == ("skipped", True, 0, 1)
        assert v.counterexample == {"reason": "pair bound 0: no pair to compare"}

    def test_reproducible(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=2, seed=7)
        a = verify_gray_isometry(entry).to_json()
        b = verify_gray_isometry(entry).to_json()
        assert a == b

    def test_sampled_pairs_reject_a_distance_blind_to_x3(self, monkeypatch):
        from skewcyclic.ring_r import lee_distance

        def blind(x, y):
            # the Lee distance with every third split coordinate ignored
            return sum(lee_distance(a, b) - (a.x3 != b.x3) for a, b in zip(x, y))

        monkeypatch.setattr(oracle, "lee_distance", blind)
        # the bench entry: F_9, n = 5, default pairs, so the pairs are sampled
        entry = TestMatrixEntry(p=3, m=2, i=1, n=5, modulus=(1, 0, 1))
        v = verify_gray_isometry(entry)
        assert not v.passed and v.mode == "sampled"
        assert {"x", "y", "lee", "hamming"} <= set(v.counterexample)
        assert v.counterexample["lee"] < v.counterexample["hamming"]
        assert v.to_json() == verify_gray_isometry(entry).to_json()


class TestIsometryDraw:
    @pytest.mark.parametrize("p, m, n, pairs", [(3, 2, 5, 10**4), (3, 2, 3, 12345), (5, 2, 1, 7)])
    def test_exactly_pairs_pairs_of_digits_below_q3(self, p, m, n, pairs):
        entry = TestMatrixEntry(p=p, m=m, i=1, n=n, bounds=Bounds(pairs=pairs))
        rsize = entry.field().q ** 3
        blocks = list(oracle._isometry_blocks(entry, exhaustive=False))
        assert sum(len(x) for x, _ in blocks) == pairs
        for x, y in blocks:
            assert x.shape == y.shape == (len(x), n)
            for d in (x, y):
                assert d.min() >= 0 and d.max() < rsize

    @pytest.mark.parametrize("size", [8, 27, 729, 256, 257, 15625, 2**40 + 3])
    def test_draw_is_exact_in_count_and_range(self, size):
        digits = oracle._draw_digits(random.Random(-3), 5000, size)
        assert len(digits) == 5000 and digits.dtype.kind == "i"
        assert 0 <= digits.min() and digits.max() < size
        if size <= 257:  # every value is drawn: none is masked away
            assert len(set(digits.tolist())) == size

    def test_negative_seed_verdict_is_reproducible(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=3, seed=-7)
        first = verify_gray_isometry(entry).to_json()
        assert json.loads(first)["mode"] == "sampled"
        assert verify_gray_isometry(entry).to_json() == first

    def test_exhaustive_order_is_lexicographic(self):
        # F_3, n = 1: q^6 = 729 pairs, so pairs >= 3^6 compares every pair
        entry = TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=3**6))
        got = [
            (x, y)
            for xd, yd in oracle._isometry_blocks(entry, exhaustive=True)
            for x, y in zip(xd.tolist(), yd.tolist())
        ]
        want = [([x], [y]) for x, y in itertools.product(range(27), repeat=2)]
        assert got == want
        assert verify_gray_isometry(entry).mode == "exhaustive"


class TestCensusOracle:
    @pytest.mark.parametrize("n", [1, 3])
    def test_passes(self, n):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=n)
        v = verify_census(entry, _brute_divisors(entry))
        assert v.passed and v.mode == "exhaustive"

    def test_skipped_when_not_coprime(self):
        # gcd(6, t_1) = 2 and p = 3 divides 6/t_1: production searches too
        entry = TestMatrixEntry(p=3, m=2, i=1, n=6)
        v = verify_census(entry, _brute_divisors(entry))
        assert v.mode == "skipped" and v.passed
        assert v.counterexample["reason"].startswith("gcd(n, t_i) = 2 != 1")

    @pytest.mark.parametrize("n", [2, 4])
    def test_checks_the_central_route(self, n, monkeypatch):
        # t_1 | n and p does not divide n/t_1: production's lclms against the
        # oracle's search and the count, and a dropped divisor is missing
        entry = TestMatrixEntry(p=3, m=2, i=1, n=n)
        divisors = _brute_divisors(entry)
        assert len(divisors) == {2: 6, 4: 36}[n]
        v = verify_census(entry, divisors)
        assert v.passed and v.mode == "exhaustive"
        central = skew_poly._central_right_divisors
        monkeypatch.setattr(skew_poly, "_central_right_divisors", lambda *a: central(*a)[:-1])
        v = verify_census(entry, divisors)
        assert not v.passed and v.counterexample == {"missing": [f"[2,0] + [1,0]*x^{n}"], "extra": []}

    def test_corrupt_count_formula_fails(self, entry9, monkeypatch):
        divisors = _brute_divisors(entry9)
        assert verify_census(entry9, divisors).passed
        monkeypatch.setattr(oracle, "count_skew_cyclic_codes", lambda n, fld, i: (3, 27))
        v = verify_census(entry9, divisors)
        assert not v.passed
        assert v.counterexample["brute_force"] == 2
        assert v.counterexample["formula"] == 3

    def test_census_list_that_raises_fails_with_the_error(self, monkeypatch):
        from skewcyclic import skew_poly

        def refuse(fac):
            raise ValueError("no divisors")

        monkeypatch.setattr(skew_poly, "divisors_from_factorization", refuse)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        assert [r.claim for r in reports] == list(oracle.CLAIMS)
        # census-count, and every claim about the census's codes
        error = {"error": "ValueError: no divisors"}
        assert [r.claim for r in reports if r.counterexample == error] == [
            "census-count", *oracle.CLAIMS[3:]
        ]

    def test_fixed_subfield_divisors(self, entry9):
        divisors = oracle._coprime_divisors(entry9, _brute_divisors(entry9))
        assert verify_fixed_subfield_divisors(entry9, divisors).passed
        # n = 2: the oracle searches (production's route is semisimple), and
        # the claim, about gcd(n, t_i) = 1 only, skips
        entry = TestMatrixEntry(p=3, m=2, i=1, n=2)
        divisors = _brute_divisors(entry)
        assert len(divisors) == 6
        v = verify_fixed_subfield_divisors(entry, oracle._coprime_divisors(entry, divisors))
        assert v.mode == "skipped" and v.counterexample == {"reason": "gcd(n, t_i) = 2 != 1"}
        # handed the list itself, the claim finds x - w outside F_3[x]
        assert not verify_fixed_subfield_divisors(entry, divisors).passed

    def test_skipped_past_search_bound(self):
        # the oracle never falls back to the factorization it checks
        entry = TestMatrixEntry(p=3, m=2, i=1, n=5, bounds=Bounds(search=10))
        for verify in (verify_census, verify_fixed_subfield_divisors):
            v = verify(entry, _brute_divisors(entry))
            assert v.mode == "skipped" and v.passed
            assert "exceeds bound" in v.counterexample["reason"]


class TestClosureOracle:
    def test_corrupt_membership_memo_rejects_the_generators(self, f9):
        comp = component_code_new(5, poly_from_string("x-1", f9, 1))
        comp.contains((f9.zero,) * 5)
        assert comp._remainder_cols is not None
        # a corrupt memo: x^t mod (x - 1) read as 0 (its logarithm) instead of 1
        object.__setattr__(comp, "_remainder_cols", ((f9.log_table().log[0],) * 4,))
        v = verify_shift_closure(comp, _code_config(comp), random.Random(0))
        assert not v.passed
        # the span is right, and only production's membership is wrong
        assert v.counterexample["span_shift_closed"] is True
        assert v.counterexample["closure_size"] == v.counterexample["expected_size"] == 9**4
        assert v.counterexample["generators_pass_membership"] is False

    def test_membership_that_accepts_everything_fails(self, f9, monkeypatch):
        # the zero component's closure has no pivot: e_1 must be rejected
        zero = component_code_new(3, xn_minus_1(f9, 1, 3))
        monkeypatch.setattr(ComponentCode, "contains", lambda self, word: True)
        rng = random.Random(0)
        state = rng.getstate()
        v = verify_shift_closure(zero, _code_config(zero), rng)
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample == {"nonmember_accepted": ["[1,0]", "[0,0]", "[0,0]"]}
        assert rng.getstate() == state  # the rejection check draws nothing

    def test_passes_on_valid_code(self, mixed_code):
        v = over_r(verify_shift_closure, mixed_code, random.Random(0))
        assert v.passed and v.mode == "exhaustive"

    def test_component_negative_control(self, f9):
        bad = broken_component_code(f9, 1, 3)
        v = verify_shift_closure(bad, _code_config(bad), random.Random(0))
        assert not v.passed
        assert v.counterexample["span_shift_closed"] is False

    def test_broken_controls_build_outside_the_invariant(self, f9):
        bad = broken_component_code(f9, 1, 3)
        assert skew_mul(bad.h, bad.g) != xn_minus_1(f9, 1, 3)
        with pytest.raises(NotRightDivisor):
            ComponentCode(3, bad.g)
        code = broken_code(f9, 1, 3)
        assert code.c1.g == bad.g
        assert skew_mul(code.c1.h, code.c1.g) != xn_minus_1(f9, 1, 3)

    def test_ring_negative_control(self, f9):
        v = over_r(verify_shift_closure, broken_code(f9, 1, 3), random.Random(0))
        assert not v.passed
        assert v.counterexample is not None

    def test_full_code_checked_exhaustively(self, f9):
        # 9^9 words: rank tests close the span, nothing is enumerated
        full = component_code_new(3, SkewPoly.one(f9, 1))
        code = code_from_components(full, full, full)
        v = over_r(verify_shift_closure, code, random.Random(0))
        assert v.mode == "exhaustive" and v.passed


class TestComponentClaims:
    """shift-closure, duality and idempotent-generator are checked on the
    components: a code over R fails with its first failing slot, and an
    entry checks each distinct component once per claim."""

    @pytest.mark.parametrize("slot", [2, 3])
    def test_broken_component_in_any_slot_fails(self, f9, slot):
        from skewcyclic.codes import code_to_json
        from skewcyclic.oracle import _aggregate

        code = broken_code(f9, 1, 5, slot)
        assert code.components[slot - 1] == broken_component_code(f9, 1, 5)
        entry_config = TestMatrixEntry(p=3, m=2, i=1, n=5).config()
        for check, args in (
            (verify_shift_closure, (random.Random(0),)),
            (verify_duality, ()),
            (verify_idempotent_generators, ()),
        ):
            v = over_r(check, code, *args)
            assert not v.passed and v.mode == "exhaustive", check
            assert v.config == code_to_json(code)
            assert v.counterexample["slot"] == slot
            # as verify_entry reports it: the code and the slot
            reported = _aggregate(v.claim, entry_config, [v])
            assert reported.counterexample["code"] == code_to_json(code)
            assert reported.counterexample["slot"] == slot

    def test_entry_checks_each_distinct_component_once_per_claim(self, monkeypatch):
        calls: dict[str, list] = {}
        for name in ("verify_shift_closure", "verify_duality", "verify_idempotent_generators"):

            def recording(code, *args, name=name, check=getattr(oracle, name), **kwargs):
                calls.setdefault(name, []).append(code)
                return check(code, *args, **kwargs)

            monkeypatch.setattr(oracle, name, recording)
        # F_9 at n = 2 is genuinely skew: 216 codes over R from 6 components
        entry = TestMatrixEntry(p=3, m=2, i=1, n=2)
        reports = {r.claim: r for r in verify_entry(entry)}
        assert all(r.passed for r in reports.values())
        assert reports["shift-closure"].checked == reports["dual-shift-closure"].checked == 216
        assert reports["duality"].checked == 216
        comps = {c for code in census(2, entry.field(), 1) for c in code.components}
        assert len(comps) == 6 and len(calls) == 3
        for name, got in calls.items():
            assert len(got) == len(set(got)) == 6 and set(got) == comps, name


class TestMatrixAndDualityOracles:
    def test_cardinality(self, mixed_code):
        assert placed("cardinality-rank", verify_cardinality, mixed_code).passed

    def test_gray_claims_use_gray_map_not_production_rows(
        self, mixed_code, monkeypatch
    ):
        def refuse(code):
            raise AssertionError("oracle read the production Gray rows")

        monkeypatch.setattr(SkewCyclicCode, "gray_generator_rows", refuse)
        assert placed("cardinality-rank", verify_cardinality, mixed_code).passed
        assert dual_gray(mixed_code).passed
        assert placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, mixed_code).passed
        assert over_r(verify_shift_closure, mixed_code, random.Random(0)).passed

    def test_cardinality_negative_control(self, f9):
        comp = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
        rows = comp.generator_rows()
        object.__setattr__(comp, "_rows", tuple(rows + rows[:1]))
        v = verify_cardinality(comp, _code_config(comp))
        assert v.passed  # duplicate row does not change the rank
        object.__setattr__(comp, "_rows", tuple(rows[1:]))
        v = verify_cardinality(comp, _code_config(comp))
        assert not v.passed
        assert v.counterexample == {"rank": comp.dim - 1, "expected": comp.dim}

    def test_duality(self, mixed_code):
        assert over_r(verify_duality, mixed_code).passed

    def test_duality_negative_control(self, f9):
        v = over_r(verify_duality, broken_code(f9, 1, 3))
        assert not v.passed and v.counterexample is not None

    def test_duality_checks_what_the_memo_holds(self, f9):
        c1 = component_code_new(5, poly_from_string("x-1", f9, 1))
        full = component_code_new(5, SkewPoly.one(f9, 1))
        zero = component_code_new(5, xn_minus_1(f9, 1, 5))
        code = code_from_components(c1, full, zero)
        assert over_r(verify_duality, code_from_components(c1, full, zero)).passed
        # <x - 1> has dimension 4; the full code is not orthogonal to it
        object.__setattr__(c1, "_dual", full)
        v = over_r(verify_duality, code)
        assert not v.passed and "inner_product" in v.counterexample

    def test_dual_gray_commutation(self, mixed_code):
        assert dual_gray(mixed_code).passed
        for comp in mixed_code.components:
            assert verify_dual_gray_commutation(comp, _code_config(comp)).passed

    def test_dual_gray_checks_the_dual_components(self, mixed_code):
        # a census case of a code whose components are not the
        # components' duals fails, naming production's dual
        other = code_from_components(*reversed(mixed_code.dual().components))
        v = dual_gray(mixed_code, other)
        assert not v.passed and v.counterexample == {
            "dual_not_componentwise": _code_config(mixed_code.dual())
        }

    def test_self_dual_code_has_self_dual_gray_image(self, f9):
        from skewcyclic import linalg

        c = component_code_new(2, poly_from_string("x-[0,1]", f9, 1))
        code = code_from_components(c, c, c)
        assert code.dual() == code
        assert dual_gray(code, code).passed
        rows = linalg.to_index_rows(code.gray_generator_rows(), f9)
        image = linalg.canonical_subspace(rows, f9)
        kernel = tuple(tuple(r) for r in linalg.nullspace(rows, f9, 6))
        assert image == kernel

    def test_dual_gray_negative_control(self, f9):
        code = broken_code(f9, 1, 3)
        v = dual_gray(code)
        assert not v.passed and v.counterexample["slot"] == 1

    def test_decomposition(self, mixed_code):
        assert verify_decomposition(_case(mixed_code)).passed

    def test_decomposition_checks_the_combined_round_trip(self, mixed_code, monkeypatch):
        # equal components, different combined generator: only the R-level
        # comparison can see it
        other = ring_skew_poly_combine(*(c.g for c in reversed(mixed_code.components)))
        assert other != ring_skew_poly_combine(*(c.g for c in mixed_code.components))
        monkeypatch.setattr(oracle, "ring_skew_poly_combine", lambda *fs: other)
        v = verify_decomposition(_case(mixed_code))
        assert not v.passed and v.mode == "exhaustive"

    def test_decomposition_of_a_foreign_generator_fails(self, mixed_code):
        other = tuple(c.g for c in reversed(mixed_code.components))
        v = verify_decomposition(replace(_case(mixed_code), combined=other))
        assert not v.passed and len(v.counterexample["recovered"]) == 3

    def test_uniqueness_over_census(self, f9, entry9):
        cases = [_case(code) for code in census(1, f9, 1)]
        assert verify_combined_uniqueness(cases, entry9.config()).passed
        v = verify_combined_uniqueness(cases + [cases[0]], entry9.config())
        assert not v.passed and "duplicate" in v.counterexample

    def test_uniqueness_checks_each_distinct_cofactor_once(self, f9, monkeypatch):
        calls = []
        is_cofactor = oracle._is_cofactor

        def counting(h, g, n):
            calls.append((h, g))
            return is_cofactor(h, g, n)

        monkeypatch.setattr(oracle, "_is_cofactor", counting)
        codes = census(3, f9, 1)
        cases = [_case(code) for code in codes]
        assert verify_combined_uniqueness(cases, {}).passed
        pairs = {(c.h, c.g) for code in codes for c in code.components}
        assert len(calls) == len(set(calls)) == len(pairs) == 4

    def test_uniqueness_names_the_first_code_of_a_failing_cofactor(self, f9, monkeypatch):
        codes = census(3, f9, 1)
        cases = [_case(code) for code in codes]
        bad = codes[5].c2.g  # every code with this generator in some slot fails
        is_cofactor = oracle._is_cofactor
        monkeypatch.setattr(
            oracle, "_is_cofactor", lambda h, g, n: g != bad and is_cofactor(h, g, n)
        )
        v = verify_combined_uniqueness(cases, {})
        first = next(case for case in cases if bad in case.combined)
        assert first.code != codes[0]
        assert not v.passed and v.counterexample == {"not_a_divisor": first.config}


class TestQuasiCyclicOracle:
    def test_negative_control(self, f9):
        for slot in (1, 2, 3):
            v = placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, broken_code(f9, 1, 3, slot))
            assert not v.passed and v.counterexample["slot"] == slot
            assert v.counterexample["shift_closure_dim"] > v.counterexample["dim"]


class TestPrincipalityOracle:
    def test_passes(self, mixed_code):
        assert verify_principality(_case(mixed_code), random.Random(0), {}).passed

    def test_negative_control(self, f9):
        v = verify_principality(mismatched_case(f9, 1, 3), random.Random(0), {})
        assert not v.passed
        assert v.counterexample["combined_span_dim"] == 6
        assert v.counterexample["code_dim"] == 9

    def test_generator_row_outside_the_combined_span_fails(self, mixed_code, f9):
        from skewcyclic.skew_poly import monic_right_divisors

        # another degree-1 generator in slot 1: the dimensions agree, and
        # its span misses the first row of C1
        case = _case(mixed_code)
        c1 = mixed_code.c1
        other = next(
            g for g in monic_right_divisors(2, f9, 1) if g.degree == 1 and g != c1.g
        )
        slots: dict = {}
        foreign = replace(case, combined=(other,) + case.combined[1:])
        v = verify_principality(foreign, random.Random(0), slots)
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample == {
            "slot": 1,
            "generator_row_outside_combined_span": [str(x) for x in c1.generator_rows()[0]],
        }
        # the same component against its own generator's span is tested
        # apart, so the memo does not carry the failure over
        assert verify_principality(case, random.Random(0), slots).passed

    def test_membership_rejecting_every_word_fails(self, mixed_code, monkeypatch):
        monkeypatch.setattr(SkewCyclicCode, "contains", lambda self, word: False)
        v = verify_principality(_case(mixed_code), random.Random(0), {})
        assert not v.passed and v.mode == "exhaustive"
        # the first production row, once the combined span has certified it
        assert v.counterexample["generator_row_rejected"] == [
            str(x) for x in mixed_code.generator_rows()[0]
        ]

    def test_membership_accepting_every_word_fails(self, mixed_code, monkeypatch):
        monkeypatch.setattr(SkewCyclicCode, "contains", lambda self, word: True)
        v = verify_principality(_case(mixed_code), random.Random(0), {})
        assert not v.passed and v.mode == "sampled"
        word = v.counterexample["word"]
        assert len(word) == mixed_code.n
        # the witness is a word outside the code
        monkeypatch.undo()
        elems = {str(r): r for r in ring_elements(mixed_code.field)}
        assert not mixed_code.contains(tuple(elems[x] for x in word))


class TestDistanceOracle:
    def test_passes(self, mixed_code):
        assert verify_distance_law(_case(mixed_code), DISTANCE_LIMIT, {}).passed

    def test_negative_control(self, f9):
        v = verify_distance_law(mismatched_case(f9, 1, 3), DISTANCE_LIMIT, {})
        assert not v.passed
        assert v.counterexample["component_minimum"] == 1
        assert v.counterexample["direct_enumeration"] == 2

    def test_slot_minima_shared_within_an_entry(self, f9, monkeypatch):
        codes = census(3, f9, 1)
        slots, enumerated = {}, []
        span_min_weight = linalg.span_min_weight

        def recording(rows, *args):
            enumerated.append(rows)
            return span_min_weight(rows, *args)

        monkeypatch.setattr(linalg, "span_min_weight", recording)
        for code in codes:
            assert verify_distance_law(_case(code), DISTANCE_LIMIT, slots).passed
        # one slot span per component generator, 4 at n = 3; the 3 nonzero
        # ones are each enumerated once, against 64 codes
        comps = {c for code in codes for c in code.components}
        assert set(slots) == {(c.g, 3) for c in comps} and len(slots) == 4
        ours = [rows for rows in enumerated if any(rows is s.rows for s in slots.values())]
        assert len(ours) == len({id(rows) for rows in ours}) == 3

    def test_component_past_the_bound_is_skipped(self, f9):
        # C1 = <x - 1> at n = 3 has dimension 2; its 9-word dual is the
        # smaller side, and 9 exceeds the bound
        c1 = component_code_new(3, poly_from_string("x-1", f9, 1))
        full = component_code_new(3, SkewPoly.one(f9, 1))
        v = verify_distance_law(_case(code_from_components(c1, full, full)), 5, {})
        assert v.mode == "skipped" and v.passed
        assert v.counterexample == {
            "reason": "component distance: span size 9 exceeds bound 5"
        }

    def test_small_bound_keeps_the_rest_of_the_entry(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=3, bounds=Bounds(distance=5))
        reports = verify_entry(entry)
        assert [r.claim for r in reports] == [
            r.claim for r in verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        ]
        assert all(r.passed for r in reports)
        law = next(r for r in reports if r.claim == "distance-law")
        assert law.skipped > 0 and law.checked + law.skipped == 64

    def test_no_work_shared_between_entries(self, monkeypatch):
        from skewcyclic import linalg

        calls = []

        def counting(name):
            enumerate_span = getattr(linalg, name)

            def wrapper(rows, field, bound, *args):
                calls.append(name)
                return enumerate_span(rows, field, bound, *args)

            return wrapper

        for name in ("span_min_weight", "span_weight_distribution"):
            monkeypatch.setattr(linalg, name, counting(name))
        counts = []
        for _ in range(2):
            calls.clear()
            verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
            counts.append(sorted(calls))
        # 3 production component distances (dims 1, 2, 3: the last two
        # read the weights of their duals, the census members of dims 1
        # and 0, so 2 enumerations) and 3 distinct oracle blocks
        expected = ["span_min_weight"] * 3 + ["span_weight_distribution"] * 2
        assert counts == [expected, expected]


class TestIdempotentOracle:
    def test_passes_at_n5(self, f9):
        c1 = component_code_new(5, poly_from_string("x-1", f9, 1))
        full = component_code_new(5, SkewPoly.one(f9, 1))
        code = code_from_components(c1, full, full)
        assert over_r(verify_idempotent_generators, code).passed

    def test_skipped_when_hypotheses_fail(self, mixed_code):
        v = over_r(verify_idempotent_generators, mixed_code)  # n = 2, gcd(2, t) = 2
        assert v.mode == "skipped" and v.passed

    def test_negative_control_at_n5(self, f9):
        v = over_r(verify_idempotent_generators, broken_code(f9, 1, 5))
        assert not v.passed

    @pytest.mark.parametrize(
        "g, e, idempotent, generates",
        [("1", "2", False, True), ("x-1", "1", True, False)],
    )
    def test_wrong_component_idempotent_fails(
        self, f9, monkeypatch, g, e, idempotent, generates
    ):
        # production's own postconditions are bypassed for one component,
        # so only the oracle's square and span can see the wrong e
        comp = component_code_new(5, poly_from_string(g, f9, 1))
        other = component_code_new(5, poly_from_string("x-1" if g == "1" else "1", f9, 1))
        wrong, right = poly_from_string(e, f9, 1), ComponentCode.idempotent_generator
        monkeypatch.setattr(
            ComponentCode,
            "idempotent_generator",
            lambda self: wrong if self == comp else right(self),
        )
        code = code_from_components(other, other, comp)
        for v, slot in (
            (verify_idempotent_generators(comp, _code_config(comp)), None),
            (over_r(verify_idempotent_generators, code), 3),
        ):
            assert not v.passed and v.mode == "exhaustive"
            assert v.counterexample["idempotent"] is idempotent
            assert v.counterexample["generates"] is generates
            assert v.counterexample.get("slot") == slot


class TestEntryConfig:
    def test_default_entry_prints_no_modulus_or_bounds(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=2, modulus=(1, 0, 1))
        assert entry.config() == {"p": 3, "m": 2, "i": 1, "n": 2, "seed": 0}

    @pytest.mark.parametrize(
        "other",
        [
            TestMatrixEntry(p=3, m=2, i=1, n=2, modulus=(2, 2, 1)),
            TestMatrixEntry(p=3, m=2, i=1, n=2, bounds=Bounds(pairs=0)),
            TestMatrixEntry(p=3, m=2, i=1, n=2, bounds=Bounds(search=5, distance=7)),
        ],
    )
    def test_config_tells_entries_apart_and_replays_to_them(self, other):
        base = TestMatrixEntry(p=3, m=2, i=1, n=2)
        assert other.config() != base.config()
        for entry in (base, other):
            (replayed,) = matrix_from_json([json.loads(json.dumps(entry.config()))], 99)
            assert replayed == entry and replayed.field() == entry.field()

    def test_f25_pin_replays_to_its_field(self):
        (entry,) = matrix_from_json(json.loads((DATA / "verify_matrix_f25_n3.json").read_text()), 0)
        assert entry.config()["modulus"] == [2, 0, 1] != list(default_modulus(5, 2))
        (replayed,) = matrix_from_json([entry.config()], 1)
        assert replayed.field() == entry.field() and replayed.seed == 0


class TestHarness:
    def test_default_matrix_shape(self):
        entries = default_matrix()
        assert [e.n for e in entries] == [1, 3, 5]
        assert {e.seed for e in default_matrix(7)} == {7}

    def test_verify_entry_n1_all_pass(self):
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=1))
        assert reports and all(r.passed for r in reports)
        claims = {r.claim for r in reports}
        assert "gray-isometry" in claims and "census-count" in claims

    @pytest.mark.parametrize(
        "entry, closure",
        [
            # n = 1: 8 codes, every code and dual is checked
            (TestMatrixEntry(p=3, m=2, i=1, n=1), 8),
            # the bench entry: 64 codes, the full component's closure included
            (matrix_from_json(json.loads(BENCH_MATRIX.read_text()), 101)[0], 64),
            # a zero bound refuses the census: every claim about its codes fails
            (TestMatrixEntry(p=3, m=2, i=1, n=3, bounds=Bounds(enumeration=0)), None),
        ],
        ids=["n1", "bench", "enumeration0"],
    )
    def test_claims_come_in_claims_order(self, entry, closure):
        reports = verify_entry(entry)
        assert [r.claim for r in reports] == list(oracle.CLAIMS)
        assert [r.passed for r in reports] == [True] * 3 + [closure is not None] * 11
        if closure is not None:
            closures = [r for r in reports if r.claim.endswith("shift-closure")]
            assert [(r.mode, r.checked, r.skipped) for r in closures] == [
                ("exhaustive", closure, 0)
            ] * 2

    def test_census_past_the_bound_is_refused_before_any_component(self, monkeypatch):
        # F_9 at n = 65: gcd(65, t_1) = 1, and the coset count gives 1024
        # divisors, 2^30 codes, refused before x^65 - 1 is factored
        def refuse(*args):
            raise AssertionError("x^65 - 1 was factored or a component was built")

        for module in ("codes", "oracle"):
            monkeypatch.setattr(f"skewcyclic.{module}.component_code_new", refuse)
        monkeypatch.setattr("skewcyclic.skew_poly.factor_xn_minus_1", refuse)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=65))
        assert [r.claim for r in reports] == list(oracle.CLAIMS)
        failed = [r for r in reports if not r.passed]
        assert [r.claim for r in failed] == list(oracle.CLAIMS[3:])
        error = f"EnumerationTooLarge: census size {2**30} exceeds table bound 10000"
        assert all(r.counterexample == {"error": error} for r in failed)
        # no code was built, so none is counted checked
        assert all((r.checked, r.skipped) == (0, 0) for r in failed)

    @pytest.mark.parametrize(
        "matrix, seed, calls",
        [
            # gcd(5, t_1) = 1: census-count's own read and the one census
            (BENCH_MATRIX, 101, {"monic_right_divisors": 2, "factor_xn_minus_1": 2}),
            # gcd(2, t_1) = 2 with t_1 | 2: census-count's own read and the
            # one census, each from the central factor y - 1
            (DATA / "verify_matrix_f9_n2.json", 0, {"monic_right_divisors": 2, "factor_xn_minus_1": 2}),
        ],
        ids=["bench", "f9-n2"],
    )
    def test_entry_derives_its_census_divisors_once(self, monkeypatch, matrix, seed, calls):
        names = ("monic_right_divisors", "factor_xn_minus_1", "brute_right_divisors")
        counted = count_calls(monkeypatch, skew_poly, *names)
        verify_entry(matrix_from_json(json.loads(matrix.read_text()), seed)[0])
        # one exhaustive search, the oracle's, for census-count and
        # fixed-subfield-divisors
        assert counted == {**calls, "brute_right_divisors": 1}

    @pytest.mark.parametrize("bound, passed", [(215, False), (216, True)])
    def test_searched_census_is_sized_by_its_divisors(self, bound, passed):
        # gcd(2, t_1) = 2 over F_9: the bounded search finds 6 divisors, 216 codes
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=2, bounds=Bounds(enumeration=bound)))
        assert [r.passed for r in reports] == [True] * 3 + [passed] * 11
        assert passed or reports[3].counterexample == {
            "error": f"EnumerationTooLarge: census size 216 exceeds table bound {bound}"
        }

    def test_principal_generator_samples_ignore_the_closure_draws(self, monkeypatch):
        # principal-generator draws from its own stream: extra draws by the
        # shift-closure checks change none of its words
        principality = oracle.verify_principality
        closure = oracle.verify_shift_closure
        words: list | None = None  # set while principal-generator runs

        def recording(owner):
            contains = owner.contains

            def recorded(code, word):
                if words is not None:
                    words.append((owner.__name__, [str(r) for r in word]))
                return contains(code, word)

            return recorded

        def watched(*args):
            nonlocal words
            words = runs[-1]
            try:
                return principality(*args)
            finally:
                words = None

        for owner in (SkewCyclicCode, ComponentCode):
            monkeypatch.setattr(owner, "contains", recording(owner))
        monkeypatch.setattr(oracle, "verify_principality", watched)
        runs = []
        for extra in (0, 100):

            def drawing(code, cfg, rng, extra=extra):
                for _ in range(extra):
                    rng.random()
                return closure(code, cfg, rng)

            monkeypatch.setattr(oracle, "verify_shift_closure", drawing)
            runs.append([])
            reports = {r.claim: r for r in verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3, seed=5))}
            assert reports["principal-generator"].passed and reports["shift-closure"].passed
        # over R, each of the 64 codes: its 288 generator rows in all, one
        # member, and one word pushed outside each of its 144 slots whose
        # span is not F_9^3 (3 of the 4 components); over F_9, 20 uniform
        # words for each of the 4 components, whatever its slot
        owners = Counter(owner for owner, _ in runs[0])
        assert owners == {"SkewCyclicCode": 288 + 64 + 144, "ComponentCode": 4 * 20}
        assert runs[0] == runs[1]

    def test_verify_entry_with_twisted_divisors_all_pass(self):
        # gcd(2, t_1) = 2 over F_9: some divisors of x^2 - 1 have
        # coefficients that theta moves, so the R lane's twist is exercised
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=2))
        assert reports and all(r.passed for r in reports)

    def test_split_lane_without_the_twist_fails_at_n2(self, monkeypatch):
        orbit = oracle._twist_orbit
        monkeypatch.setattr(
            oracle, "_twist_orbit", lambda w, count, frob: orbit(w, count, range(len(frob)))
        )
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=2))
        failed = {r.claim for r in reports if not r.passed}
        assert {"combined-generator", "principal-generator", "distance-law"} <= failed

    def test_schoolbook_product_with_v_cubed_minus_v_fails(self, monkeypatch):
        # the splitting check rests on v^3 = v; with v^3 = -v instead, the
        # eta_j stop being orthogonal idempotents
        def v_cubed_is_minus_v(s, t, tables):
            add, sub, mul = tables.add, tables.sub, tables.mul
            (a, b, c), (x, y, z) = s, t
            v = sub[add[mul[a][y]][mul[b][x]]][add[mul[b][z]][mul[c][y]]]
            v2 = sub[add[add[mul[a][z]][mul[b][y]]][mul[c][x]]][mul[c][z]]
            return mul[a][x], v, v2

        monkeypatch.setattr(oracle, "_schoolbook_mul", v_cubed_is_minus_v)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        failed = {r.claim: r for r in reports if not r.passed}
        # the other claims multiply in split coordinates, and the
        # eta-combination of decompose-compose only by constants c + 0v + 0v^2
        assert failed.keys() == {"gray-isometry"}
        assert failed["gray-isometry"].counterexample["law"] == "mul"

    def test_per_code_claims_use_no_ring_arithmetic_of_production(self, monkeypatch):
        # the R lane computes on index triples: with every RingElem operator
        # raising, all claims but the splitting check itself still pass
        from skewcyclic.ring_r import RingElem, ring_one

        def refuse(*args):
            raise AssertionError("RingElem arithmetic called")

        for op in ("__add__", "__sub__", "__mul__", "__neg__", "inv", "frob"):
            monkeypatch.setattr(RingElem, op, refuse)
        one = ring_one(Field(3, 2, [1, 0, 1]))
        with pytest.raises(AssertionError):
            one * one
        # gray-isometry checks those operators, so it is the one claim left out
        monkeypatch.setattr(
            oracle,
            "verify_gray_isometry",
            lambda entry, splitting: VerdictReport(
                "gray-isometry", entry.config(), "skipped", True
            ),
        )
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        assert len(reports) == len(oracle.CLAIMS)
        assert all(r.passed for r in reports), [r.claim for r in reports if not r.passed]

    def test_entry_builds_each_code_config_once(self, monkeypatch):
        built = []
        code_config = oracle._code_config

        def recording(code):
            built.append(code)
            return code_config(code)

        monkeypatch.setattr(oracle, "_code_config", recording)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        assert all(r.passed for r in reports)
        # the census holds every dual, so its 64 codes and their 4
        # components (the component claims' configs) are all there is
        assert len(built) == len(set(built)) == 64 + 4

    def test_entry_builds_each_component_dual_and_idempotent_once(self, monkeypatch):
        from skewcyclic import codes

        from skewcyclic.finite_field import Subfield

        duals: dict[int, list] = {}  # id(component) -> [component, each dual() result]
        built_by_dual, in_dual, xgcd_on = [], [], []
        new, dual, xgcd = codes.component_code_new, ComponentCode.dual, Subfield.xgcd

        def recording_new(n, g):
            code = new(n, g)
            if in_dual:
                built_by_dual.append(code)
            return code

        def recording_dual(self):
            in_dual.append(self)
            try:
                result = dual(self)
            finally:
                in_dual.pop()
            duals.setdefault(id(self), [self]).append(result)
            return result

        def recording_xgcd(lane, g, h):
            xgcd_on.append(tuple(g))
            return xgcd(lane, g, h)

        monkeypatch.setattr(codes, "component_code_new", recording_new)
        monkeypatch.setattr(ComponentCode, "dual", recording_dual)
        monkeypatch.setattr(Subfield, "xgcd", recording_xgcd)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=5))
        assert all(r.passed for r in reports)
        # the 4 census components and their 4 duals (whose duals are the
        # double duals): each asked many times, each dual built once
        assert len(duals) == 8 and len(built_by_dual) == 8
        assert all(all(d is got[1] for d in got[1:]) for got in duals.values())
        assert {id(got[1]) for got in duals.values()} == {id(c) for c in built_by_dual}
        # one Bezout construction on the lane per distinct census component
        assert len(xgcd_on) == 4 and len(set(xgcd_on)) == 4

    def test_entry_searches_divisors_and_builds_slot_spans_once(self, monkeypatch):
        calls: dict[str, list] = {}
        names = ("brute_right_divisors", "_slot_span", "_placement")
        for name in names:

            def recording(*args, name=name, build=getattr(oracle, name)):
                calls.setdefault(name, []).append(args)
                return build(*args)

            monkeypatch.setattr(oracle, name, recording)
        entry = TestMatrixEntry(p=3, m=2, i=1, n=3)
        reports = {r.claim: r for r in verify_entry(entry)}
        assert all(r.passed for r in reports.values())
        # census-count and fixed-subfield-divisors share one search; the
        # slot span of each of the 4 distinct component generators is built
        # once for the entry, and the placement of production's generator
        # rows once per code, by its case (the census holds every dual)
        assert len(calls["brute_right_divisors"]) == 1
        assert len(calls["_slot_span"]) == len({args for args in calls["_slot_span"]}) == 4
        assert len(calls["_placement"]) == 64
        assert reports["principal-generator"].checked == reports["distance-law"].checked == 64
        assert reports["dual-gray-commute"].checked == reports["cardinality-rank"].checked == 64

    def test_default_matrix_checks_the_splitting_once(self, monkeypatch):
        from skewcyclic.ring_r import RingElem

        calls = []
        split = oracle._verify_splitting

        def recording(*key):
            calls.append(key)
            return split(*key)

        monkeypatch.setattr(oracle, "_verify_splitting", recording)
        reports = verify_all(default_matrix(0))
        assert all(r.passed for r in reports) and len(calls) == 1
        # another seed is another check, and each run checks afresh
        verify_all([TestMatrixEntry(p=3, m=2, i=1, n=1, seed=s) for s in (0, 1)])
        assert len(calls) == 3
        # a shared failing check fails gray-isometry at every entry
        monkeypatch.setattr(RingElem, "__neg__", lambda r: r)
        entries = [TestMatrixEntry(p=3, m=2, i=1, n=n) for n in (1, 2)]
        isometry = [r for r in verify_all(entries) if r.claim == "gray-isometry"]
        assert len(calls) == 4 and len(isometry) == 2
        assert not any(r.passed for r in isometry)
        assert isometry[0].counterexample == isometry[1].counterexample

    def test_dual_outside_the_census_fails_dual_gray_commute(self, monkeypatch):
        from skewcyclic.codes import code_to_json

        entry = TestMatrixEntry(p=3, m=2, i=1, n=3)
        fld = entry.field()
        base = {r.claim: r for r in verify_entry(entry)}
        # a production dual() that leaves the census: a failing verdict
        # naming the code and its dual, and no dual-shift-closure check
        target, outside = census(3, fld, 1)[1], broken_code(fld, 1, 3)
        dual = SkewCyclicCode.dual
        monkeypatch.setattr(
            SkewCyclicCode, "dual", lambda self: outside if self == target else dual(self)
        )
        reports = {r.claim: r for r in verify_entry(entry)}
        assert [c for c, r in reports.items() if not r.passed] == ["dual-gray-commute"]
        r = reports["dual-gray-commute"]
        assert r.mode == "exhaustive"
        assert r.counterexample == {
            "dual_outside_census": code_to_json(outside),
            "code": code_to_json(target),
        }
        r, before = reports["dual-shift-closure"], base["dual-shift-closure"]
        assert (r.checked, r.skipped) == (before.checked - 1, before.skipped + 1)
        assert list(reports) == list(base)

    def test_component_dual_outside_the_census_fails_duality_and_distance_law(
        self, monkeypatch, capsys, tmp_path
    ):
        from skewcyclic.cli import main

        entry = TestMatrixEntry(p=3, m=2, i=1, n=3)
        fld = entry.field()
        # a production ComponentCode.dual() that returns a non-divisor for
        # the degree-1 component: the MacWilliams transform of its weights
        # cannot carry back to the component's q^2 words
        target = next(c for code in census(3, fld, 1) for c in code.components if c.g.degree == 1)
        outside = broken_component_code(fld, 1, 3)
        dual = ComponentCode.dual
        monkeypatch.setattr(
            ComponentCode, "dual", lambda self: outside if self == target else dual(self)
        )
        reports = {r.claim: r for r in verify_entry(entry)}
        for claim in ("duality", "distance-law"):
            assert not reports[claim].passed and reports[claim].counterexample
        assert reports["distance-law"].mode == "exhaustive"
        assert reports["distance-law"].counterexample["error"] == (
            "MacWilliamsError: the dual's weights carry to 9 words, not 81"
        )
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([{"p": 3, "m": 2, "i": 1, "n": 3}]))
        assert main(["verify", "--matrix", str(matrix), "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "Traceback" not in out
        fails = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL ")]
        assert {"duality", "distance-law"} <= set(fails)

    def test_exception_inside_a_claim_is_a_failing_verdict(self, f9, monkeypatch, capsys):
        from skewcyclic.cli import main

        # every enumerated weight one too high: the dual-side distance of a
        # component past half the length then overflows np.bincount's
        # n + 1 bins with a ValueError inside distance-law
        weights = linalg._projective_weights
        monkeypatch.setattr(
            linalg, "_projective_weights", lambda basis, fld: (w + 1 for w in weights(basis, fld))
        )
        comp = component_code_new(3, poly_from_string("x-1", f9, 1))
        code = code_from_components(comp, comp, comp)
        with pytest.raises(ValueError):
            verify_distance_law(_case(code), DISTANCE_LIMIT, {})
        v = oracle._guarded(
            "distance-law", {}, verify_distance_law, _case(code), DISTANCE_LIMIT, {}
        )
        assert (v.claim, v.mode, v.passed) == ("distance-law", "exhaustive", False)
        assert v.counterexample["error"].startswith("ValueError: ")
        assert main(["verify", "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "Traceback" not in out
        fails = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL ")]
        assert fails == ["distance-law"] * 3

    def test_reports_are_json_lines(self):
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=1))
        for r in reports:
            parsed = json.loads(r.to_json())
            assert {"claim", "config", "mode", "pass", "counterexample"} <= set(
                parsed
            )

    def test_empty_matrix(self):
        assert verify_all([]) == []

    def test_duals_outside_the_census_count_as_skipped(self, monkeypatch):
        seen = {}
        aggregate = oracle._aggregate

        def capturing(claim, config, verdicts):
            seen[claim] = list(verdicts)
            return aggregate(claim, config, verdicts)

        monkeypatch.setattr(oracle, "_aggregate", capturing)
        # n = 1 over F_9: 8 codes; with the full code dropped from the
        # census, the zero code's dual is outside it
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
        full = code_from_components(*[component_code_new(1, SkewPoly.one(entry.field(), 1))] * 3)
        monkeypatch.setattr(oracle, "census", lambda *args: [c for c in census(*args) if c != full])
        reports = {r.claim: r for r in verify_entry(entry)}
        r = reports["dual-shift-closure"]
        assert (r.mode, r.passed, r.checked, r.skipped) == ("exhaustive", True, 6, 1)
        skipped = [v for v in seen["dual-shift-closure"] if v.mode == "skipped"]
        assert [v.counterexample for v in skipped] == [{"reason": "dual outside the census"}]
        parsed = json.loads(r.to_json())
        assert (parsed["checked"], parsed["skipped"]) == (6, 1)
        for claim, codes_checked in (("shift-closure", 7), ("gray-isometry", 1)):
            r = reports[claim]
            assert (r.checked, r.skipped) == (codes_checked, 0)

    def test_failed_aggregate_keeps_counts(self, f9):
        from skewcyclic.oracle import _aggregate

        verdicts = [
            VerdictReport("c", {}, "exhaustive", True),
            VerdictReport("c", {}, "skipped", True, {"reason": "r"}),
            VerdictReport("c", {}, "exhaustive", False, {"w": 1}),
        ]
        r = _aggregate("c", {}, verdicts)
        assert (r.passed, r.counterexample, r.checked, r.skipped) == (False, {"w": 1}, 2, 1)

    def test_inject_broken_produces_failing_verdict(self):
        reports = verify_all(
            [TestMatrixEntry(p=3, m=2, i=1, n=3)], inject_broken=True
        )
        failing = [r for r in reports if not r.passed]
        assert failing
        assert all(r.counterexample is not None for r in failing)
        assert any("injected" in r.claim for r in failing)

    def test_reproducibility(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1, seed=3)
        a = [r.to_json() for r in verify_entry(entry)]
        b = [r.to_json() for r in verify_entry(entry)]
        assert a == b


class TestSplittingCheck:
    """gray-isometry also checks RingElem arithmetic against a + bv + cv^2."""

    @pytest.mark.parametrize(
        "attr, law, broken",
        [
            ("__mul__", "mul", lambda r, s: r + s),
            ("__add__", "add", lambda r, s: r - s),
            ("__sub__", "sub", lambda r, s: r + s),
            ("__neg__", "neg", lambda r: r),
            ("frob", "theta", lambda r, i: r),
        ],
    )
    def test_broken_ring_op_fails_with_witness(self, monkeypatch, attr, law, broken):
        from skewcyclic.ring_r import RingElem

        monkeypatch.setattr(RingElem, attr, broken)
        # R x B has 9^3 * 6 <= 10^4 pairs over F_9: checked exhaustively
        v = verify_gray_isometry(TestMatrixEntry(p=3, m=2, i=1, n=1))
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample["law"] == law
        assert v.counterexample["expected"] != v.counterexample["got"]
        assert {"x", "y"} <= set(v.counterexample)

    def test_broken_splitting_fails_exhaustively(self, monkeypatch):
        from skewcyclic import ring_r

        def not_injective(self, a, b, c):
            ring_r._set_x1(self, a)
            ring_r._set_x2(self, a)
            ring_r._set_x3(self, a)

        monkeypatch.setattr(ring_r.RingElem, "__init__", not_injective)
        entry = TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=10**5))
        v = verify_gray_isometry(entry)
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample["law"] == "injective"

    @pytest.mark.parametrize(
        "table, operands", [("mul", [4, 7]), ("add", [4, 7]), ("frob_table(1)", [5])]
    )
    def test_corrupt_table_entry_fails_with_witness(self, table, operands):
        # the tables do not come from coefficient arithmetic, so the
        # schoolbook side checks them against it before any law
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
        fld = entry.field()
        if table == "frob_table(1)":
            row = fld.frob_table(1)
        else:
            row = getattr(fld.tables(), table)[operands[0]]
        expected = row[operands[-1]]
        row[operands[-1]] = (expected + 1) % fld.q
        v = verify_gray_isometry(entry)
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample == {
            "table": table, "operands": operands, "expected": expected,
            "got": (expected + 1) % fld.q,
        }

    @pytest.mark.parametrize("table, k", [("exp", 5), ("zech", 3)])
    def test_corrupt_log_table_entry_fails_with_witness(self, table, k):
        # element arithmetic reads only the O(q) table; the oracle checks it
        # against coefficient arithmetic before the dense tables
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
        fld = entry.field()
        fld.tables()
        row = getattr(fld.log_table(), table)
        expected = row[k]
        row[k] = (expected + 1) % (fld.q - 1)
        v = verify_gray_isometry(entry)
        assert not v.passed and v.mode == "exhaustive"
        assert v.counterexample == {
            "table": table, "k": k, "expected": expected, "got": (expected + 1) % (fld.q - 1),
        }

    def test_log_table_generator_of_lower_order_fails_with_witness(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
        fld = entry.field()
        fld.tables()
        fld.log_table().gen = fld.elem(-1).idx  # -1 has order 2, not 8
        v = verify_gray_isometry(entry)
        assert not v.passed
        assert v.counterexample == {"table": "gen", "k": fld.elem(-1).idx, "expected": 8, "got": 2}

    def test_table_pairs_sampled_past_pairs_bound(self):
        # q^2 = 625 > 100 pairs: add, sub and mul are checked on pairs
        # drawn from Random(seed), the first of them first
        from skewcyclic.oracle import _verify_tables

        fld = Field(5, 2, [2, 0, 1])
        assert _verify_tables(fld, 1, 625, 0) == (True, None)
        assert _verify_tables(fld, 1, 100, 0) == (False, None)
        rng = random.Random(0)
        x, y = rng.randrange(25), rng.randrange(25)
        fld.tables().mul[x][y] = (fld.tables().mul[x][y] + 1) % 25
        exhaustive, witness = _verify_tables(fld, 1, 100, 0)
        assert not exhaustive and (witness["table"], witness["operands"]) == ("mul", [x, y])

    def test_sampled_past_pairs_bound(self):
        # |R x B| = 25^3 * 6 exceeds the default 10^4 pairs
        v = verify_gray_isometry(TestMatrixEntry(p=5, m=2, i=1, n=1))
        assert v.passed and v.mode == "sampled"


class TestEntryField:
    def test_one_field_per_entry(self):
        entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
        fld = entry.field()
        assert entry.field() is fld
        assert entry == TestMatrixEntry(p=3, m=2, i=1, n=1)
        assert hash(entry) == hash(TestMatrixEntry(p=3, m=2, i=1, n=1))

    def test_bool_seed_rejected(self):
        # p, m, i, n and the bounds already refuse bools
        with pytest.raises(TypeError, match="seed must be an integer, got True"):
            TestMatrixEntry(p=3, m=2, i=1, n=1, seed=True)

    @pytest.mark.parametrize(
        "p, m", [(3, m) for m in range(1, 8)] + [(5, m) for m in range(1, 5)]
        + [(7, m) for m in range(1, 4)],
    )
    def test_default_modulus_is_first_irreducible(self, p, m):
        from skewcyclic.finite_field import _is_irreducible_modp

        # the definition: Rabin's test on every monic candidate in order
        expected = (0, 1) if m == 1 else next(
            tuple(tail) + (1,)
            for tail in itertools.product(range(p), repeat=m)
            if _is_irreducible_modp(list(tail) + [1], p)
        )
        assert default_modulus(p, m) == expected


def _reference_closure(gen_rows, basis_scale, add, shift, zero, bound):
    """The closure as first written: every seed added to every word."""
    from skewcyclic.finite_field import EnumerationTooLarge

    gens = list(gen_rows)
    shift_ok = None
    while True:
        seeds = {s for g in gens for s in basis_scale(g)}
        seeds.discard(zero)
        words = {zero} | seeds
        if len(words) > bound:
            raise EnumerationTooLarge(f"closure exceeded bound {bound}")
        frontier = list(seeds)
        while frontier:
            w = frontier.pop()
            for s in seeds:
                nw = add(w, s)
                if nw not in words:
                    if len(words) >= bound:
                        raise EnumerationTooLarge(f"closure exceeded bound {bound}")
                    words.add(nw)
                    frontier.append(nw)
        escaped = {shift(w) for w in words} - words
        if shift_ok is None:
            shift_ok = not escaped
        if not escaped:
            return words, shift_ok
        gens.extend(escaped)


class TestIncrementalClosure:
    """``oracle_code_enumerate`` lists the same words as the word-by-word
    closure of the generator rows, and refuses at the same bounds."""

    @staticmethod
    def _both(code, bound):
        from skewcyclic.finite_field import EnumerationTooLarge

        reference = (
            _reference_component_closure
            if isinstance(code, ComponentCode)
            else _reference_ring_closure
        )
        results = []
        for enumerate_words in (oracle_code_enumerate, lambda c, b: reference(c, b)[0]):
            try:
                results.append(set(enumerate_words(code, bound)))
            except EnumerationTooLarge:
                results.append("refused")
        return results

    def test_equals_reference_on_census(self, f9):
        for n in (1, 2, 3):
            comps = {c for code in census(n, f9, 1) for c in code.components}
            for comp in comps:
                new, old = self._both(comp, 10**3)
                assert new == old, comp

    def test_equals_reference_on_broken_controls(self, f9):
        for code in (broken_component_code(f9, 1, 3), broken_code(f9, 1, 3)):
            new, old = self._both(code, 10**4)
            assert new == old, code
            # the closure is larger than the span of the generator rows
            assert len(new) > code.size

    def test_refuses_at_the_same_sizes(self, f9):
        for code in (broken_component_code(f9, 1, 3), broken_code(f9, 1, 3)):
            size = len(oracle_code_enumerate(code, 10**4))
            for bound in (0, 1, size - 1, size):
                new, old = self._both(code, bound)
                assert new == old, (code, bound)
                assert (new == "refused") == (bound < size)


def _reference_ring_closure(code, bound):
    """Closure of a code over R on RingElem words: addition, the R-scalars
    eta_s * w^t and the skew shift, as the oracle once enumerated it."""
    from skewcyclic.codes import skew_shift
    from skewcyclic.ring_r import RingElem, make_idempotents, ring_zero

    fld = code.field
    scalars = []
    b = fld.one
    for _ in range(fld.m):
        scalars += [eta * RingElem(b, fld.zero, fld.zero) for eta in make_idempotents(fld)]
        b = b * fld.gen
    return _reference_closure(
        code.generator_rows(),
        lambda g: [tuple(lam * x for x in g) for lam in scalars],
        lambda x, y: tuple(a + c for a, c in zip(x, y)),
        lambda w: skew_shift(w, code.aut),
        tuple([ring_zero(fld)] * code.n),
        bound,
    )


def _reference_component_closure(code, bound):
    from skewcyclic.codes import skew_shift

    fld = code.field
    scalars = [fld.one]
    for _ in range(1, fld.m):
        scalars.append(scalars[-1] * fld.gen)
    return _reference_closure(
        code.generator_rows(),
        lambda g: [tuple(lam * x for x in g) for lam in scalars],
        lambda x, y: tuple(a + c for a, c in zip(x, y)),
        lambda w: skew_shift(w, code.aut),
        tuple([fld.zero] * code.n),
        bound,
    )


def _non_divisor_codes(f9, n):
    """Component and R codes built on every monic degree-1 non-divisor of x^n - 1."""
    from skewcyclic.codes import _unchecked_component_code
    from skewcyclic.skew_poly import is_right_divisor_of_xn_minus_1

    zero = component_code_new(n, xn_minus_1(f9, 1, n))
    out = []
    for c in range(f9.q):
        g = SkewPoly(f9, [c, f9.one.idx], 1)
        if is_right_divisor_of_xn_minus_1(g, n):
            continue
        bad = _unchecked_component_code(n, g)
        out.append(bad)
        for comps in ((bad, zero, zero), (zero, bad, zero)):
            out.append(code_from_components(*comps))
    return out


class TestRankClaimsAgainstEnumeration:
    """The generator-level claims agree with the codeword enumerations they
    replaced, on the F_9 census for n <= 3 and on non-shift-closed spans."""

    def test_rank_closure_equals_reference_closure(self, f9):
        from skewcyclic.oracle import _shift_closure_basis

        checked = 0
        codes = [c for n in (1, 2, 3) for c in census(n, f9, 1)]
        codes += [broken_code(f9, 1, 3)] + _non_divisor_codes(f9, 2)
        for code in codes:
            reference = (
                _reference_component_closure
                if isinstance(code, ComponentCode)
                else _reference_ring_closure
            )
            if code.size > 10**3:
                continue
            words, closed = reference(code, 10**4)
            # a code over R is closed when each component is, and its
            # closure is the sum of theirs
            comps = [code] if isinstance(code, ComponentCode) else code.components
            bases = [_shift_closure_basis(c) for c in comps]
            rank = sum(len(basis) for basis, _ in bases)
            assert (len(words), closed) == (9**rank, all(ok for _, ok in bases)), code
            assert oracle_code_enumerate(code) == words, code
            checked += 1
        assert checked >= 150

    def test_non_closed_spans_are_detected(self, f9):
        from skewcyclic.oracle import _shift_closure_basis

        rng = random.Random(0)
        for code in _non_divisor_codes(f9, 2) + [broken_code(f9, 1, 3)]:
            if isinstance(code, ComponentCode):
                assert not _shift_closure_basis(code)[1]
                v = verify_shift_closure(code, _code_config(code), rng)
            else:
                assert not all(_shift_closure_basis(c)[1] for c in code.components)
                v = over_r(verify_shift_closure, code, rng)
            assert not v.passed

    def test_quasi_cyclic_flags_equal_span_enumeration(self, f9):
        from skewcyclic.oracle import _shift_closure_basis

        checked = 0
        codes = [c for n in (1, 2, 3) for c in census(n, f9, 1)]
        codes += [broken_code(f9, 1, 3)]
        codes += [c for c in _non_divisor_codes(f9, 2) if isinstance(c, SkewCyclicCode)]
        for code in codes:
            if code.size > 10**3:
                continue
            rows = _reference_gray_rows(code)
            span = linalg.span_vectors(rows, f9, 10**3, ncols=3 * code.n)
            frob = f9.frob_table(code.aut)
            closed = all(tuple(_qc_shift(y, frob)) in span for y in span)
            v = placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, code)
            assert v.passed == closed, code
            if not v.passed:
                assert not _shift_closure_basis(code.components[v.counterexample["slot"] - 1])[1]
            checked += 1
        assert checked >= 100

    def test_block_distance_equals_full_span_enumeration(self, f9):
        checked = 0
        cases = [_case(c) for n in (1, 2, 3) for c in census(n, f9, 1)]
        cases.append(mismatched_case(f9, 1, 3))
        for case in cases:
            # the whole Gray span, not block by block
            basis = linalg.echelon(_combined_gray_rows(case.combined, case.code.n), f9)
            if 9 ** len(basis) > 10**5:
                continue
            full = linalg.span_min_weight(basis, f9, 10**5)
            v = verify_distance_law(case, DISTANCE_LIMIT, {})
            if v.passed:
                formula = case.code.min_lee_distance()
                assert full == (None if formula.degenerate else formula.value)
            else:
                assert v.counterexample["direct_enumeration"] == full
            checked += 1
        assert checked >= 150


def _combined_gray_rows(combined, n):
    """Gray index rows spanning <eta1*g1 + eta2*g2 + eta3*g3> over R, for
    ``combined`` = (g1, g2, g3): x^j * g_t mod x^n - 1 by production's
    ``skew_mul``, on the coordinates 3k + t, for j < n and t < 3."""
    fld, aut = combined[0].field, combined[0].aut
    rows = []
    for j in range(n):
        x_j = SkewPoly(fld, [0] * j + [fld.one.idx], aut)
        for t, g in enumerate(combined):
            row = [0] * (3 * n)
            row[t::3] = mod_xn_minus_1(skew_mul(x_j, g), n).padded(n)
            rows.append(row)
    return rows


# The 3n-column forms of the three Gray claims that the component forms
# replaced, kept as their reference: production's rows over R through
# ``gray_map``, reduced as one matrix per code.


def _reference_gray_rows(code):
    return linalg.to_index_rows([gray_map(row) for row in code.generator_rows()], code.field)


def _reference_cardinality(code) -> bool:
    """The rank of the Gray rows is 3n - sum(deg g_t)."""
    expected = 3 * code.n - sum(c.g.degree for c in code.components)
    return linalg.rank(_reference_gray_rows(code), code.field) == expected


def _reference_dual_gray_commute(code, dual) -> bool:
    """The nullspace of the Gray rows is the span of the dual's Gray rows."""
    fld = code.field
    kernel = linalg.nullspace(_reference_gray_rows(code), fld, 3 * code.n)
    return tuple(map(tuple, kernel)) == linalg.canonical_subspace(_reference_gray_rows(dual), fld)


def _qc_shift(y, frob):
    """sigma on each coordinate class 3k + t of y: the Gray image of sigma."""
    out = list(y)
    for t in range(3):
        out[t::3] = oracle._twist_shift(y[t::3], frob)
    return out


def _reference_quasi_cyclic(code) -> bool:
    """The echelon basis B of the Gray rows has rank(B + shift(B)) = rank(B)."""
    fld = code.field
    basis = linalg.echelon(_reference_gray_rows(code), fld)
    frob = fld.frob_table(code.aut)
    return linalg.rank(basis + [_qc_shift(b, frob) for b in basis], fld) == len(basis)


_SLOT_CENSUSES = {
    "F9 n=3": (Field(3, 2, (1, 0, 1)), 3),
    "F9 n=2, gcd 2": (Field(3, 2, (1, 0, 1)), 2),
    "F25 n=3": (Field(5, 2, (2, 0, 1)), 3),
}


@functools.cache
def _slot_census(name):
    """(slot spans, echelon of the full 3n-column combined rows) per code."""
    fld, n = _SLOT_CENSUSES[name]
    slots, out = {}, []
    for case in map(_case, census(n, fld, 1)):
        full = linalg.echelon(_combined_gray_rows(case.combined, n), fld)
        out.append((oracle._slot_spans(case, slots), full))
    return out


def _in_slot_spans(spans, row) -> bool:
    """Is the Gray index row in the combined span: is each coordinate class
    3k + t of it in the span of slot t?"""
    return all(span.holds(row[t::3]) for t, span in enumerate(spans))


@pytest.mark.parametrize("name", sorted(_SLOT_CENSUSES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers())
def test_slot_span_test_equals_the_full_row_space_test(name, seed):
    # uniform words, span members, and span members with one coordinate moved
    fld, n = _SLOT_CENSUSES[name]
    rng, t = random.Random(seed), fld.tables()
    for spans, full in _slot_census(name):
        member = [0] * (3 * n)
        for row in full:
            c = rng.randrange(fld.q)
            member = [t.add[x][t.mul[c][y]] for x, y in zip(member, row)]
        moved = list(member)
        k = rng.randrange(3 * n)
        moved[k] = t.add[moved[k]][rng.randrange(1, fld.q)]
        uniform = [rng.randrange(fld.q) for _ in range(3 * n)]
        for word in (member, moved, uniform):
            in_span = linalg.rank(full + [word], fld) == len(full)
            assert _in_slot_spans(spans, word) == in_span
        assert _in_slot_spans(spans, member)


@pytest.mark.parametrize("name", sorted(_SLOT_CENSUSES))
def test_component_gray_claims_agree_with_the_3n_column_reference(name):
    # every census code, and the broken code in each slot, whose dual is
    # outside the census and gets its own case
    fld, n = _SLOT_CENSUSES[name]
    broken = [broken_code(fld, 1, n, slot) for slot in (1, 2, 3)]
    cases = {code: _case(code) for code in census(n, fld, 1) + broken}
    memo: dict = {}
    for code, case in cases.items():
        dual = code.dual()
        got = (
            oracle._placed("cardinality-rank", verify_cardinality, case, memo).passed,
            oracle._dual_gray_commute(case, cases.get(dual) or _case(dual), memo).passed,
            oracle._placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, case, memo).passed,
        )
        want = (
            _reference_cardinality(code),
            _reference_dual_gray_commute(code, dual),
            _reference_quasi_cyclic(code),
        )
        assert got == want, code
        assert all(want) == (code not in broken), code


def _swap_eta2_eta3(monkeypatch):
    """Production's rows over R built with eta2 and eta3 swapped, as
    ``codes`` reads them."""
    from skewcyclic import codes
    from skewcyclic.ring_r import Idempotents, make_idempotents

    def swapped(field):
        eta1, eta2, eta3 = make_idempotents(field)
        return Idempotents(eta1, eta3, eta2)

    monkeypatch.setattr(codes, "make_idempotents", swapped)


class TestPlacement:
    def test_swapped_idempotents_fail_every_gray_claim_in_the_slot(self, f9, monkeypatch):
        _swap_eta2_eta3(monkeypatch)
        full = component_code_new(3, SkewPoly.one(f9, 1))
        zero = component_code_new(3, xn_minus_1(f9, 1, 3))
        code = code_from_components(zero, full, zero)
        case = _case(code)
        witness = {
            "slot": 2, "row": 0, "gray_row": [str(x) for x in gray_map(code.generator_rows()[0])]
        }
        assert case.placement == witness and witness["gray_row"][2] != "0"
        memo: dict = {}
        verdicts = [
            oracle._placed("cardinality-rank", verify_cardinality, case, memo),
            oracle._dual_gray_commute(case, _case(code.dual()), memo),
            oracle._placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, case, memo),
            verify_principality(case, random.Random(0), {}),
        ]
        assert [v.claim for v in verdicts] == [
            "cardinality-rank", "dual-gray-commute", "quasi-cyclic-gray", "principal-generator"
        ]
        for v in verdicts:
            assert (v.passed, v.mode, v.counterexample) == (False, "exhaustive", witness)
        # the component forms never saw the misplaced rows
        assert memo == {}

    def test_swapped_idempotents_fail_only_the_gray_claims_of_an_entry(self, monkeypatch):
        _swap_eta2_eta3(monkeypatch)
        reports = verify_entry(TestMatrixEntry(p=3, m=2, i=1, n=3))
        failed = {r.claim: r.counterexample for r in reports if not r.passed}
        assert sorted(failed) == sorted(
            ["cardinality-rank", "dual-gray-commute", "quasi-cyclic-gray", "principal-generator"]
        )
        assert all(w["slot"] in (2, 3) and "code" in w for w in failed.values())

    def test_a_missing_extra_or_moved_row_is_named(self, mixed_code, monkeypatch):
        rows = mixed_code.generator_rows()
        for got in (rows[:-1], rows + rows[:1]):
            monkeypatch.setattr(SkewCyclicCode, "generator_rows", lambda self, got=got: got)
            assert _case(mixed_code).placement == {"rows": len(got), "component_rows": 3}
        # C1's row put after C2's: the first row is C2's, in slot 1
        moved = rows[1:2] + rows[:1] + rows[2:]
        monkeypatch.setattr(SkewCyclicCode, "generator_rows", lambda self: moved)
        assert _case(mixed_code).placement == {
            "slot": 1, "row": 0, "gray_row": [str(x) for x in gray_map(moved[0])]
        }

    def test_bench_entry_runs_each_gray_claim_once_per_component(self, monkeypatch):
        calls: dict[str, int] = {}
        names = ("verify_cardinality", "verify_dual_gray_commutation", "verify_quasi_cyclic_gray")
        for name in names:

            def counting(*args, name=name, check=getattr(oracle, name)):
                calls[name] = calls.get(name, 0) + 1
                return check(*args)

            monkeypatch.setattr(oracle, name, counting)
        (entry,) = matrix_from_json(json.loads(BENCH_MATRIX.read_text()), 0)
        reports = {r.claim: r for r in verify_entry(entry)}
        assert all(r.passed for r in reports.values())
        # 64 codes from D = 4 components: one component verdict each
        assert reports["cardinality-rank"].checked == 64
        assert calls == {name: 4 for name in names}
