"""Acceptance suite: every criterion checked at its stated bound, exactly.

All algebraic comparisons are exact (integer equality, zero tolerance).
One PASS line per criterion is printed for the run log.
"""

import itertools
import random

import pytest
from conftest import dual_gray, over_r, placed

from skewcyclic import linalg, oracle
from skewcyclic.codes import (
    census,
    code_from_components,
    component_code_new,
    count_skew_cyclic_codes,
)
from skewcyclic.finite_field import Field
from skewcyclic.oracle import (
    Bounds,
    TestMatrixEntry,
    _brute_divisors,
    _case,
    _code_config,
    broken_code,
    broken_component_code,
    mismatched_case,
    verify_cardinality,
    verify_census,
    verify_decomposition,
    verify_distance_law,
    verify_duality,
    verify_gray_isometry,
    verify_idempotent_generators,
    verify_principality,
    verify_quasi_cyclic_gray,
    verify_shift_closure,
)
from skewcyclic.ring_r import lee_distance, make_idempotents, ring_elem
from skewcyclic.skew_poly import (
    SkewPoly,
    factor_xn_minus_1,
    monic_right_divisors,
)

ENUM_BOUND = 10**4
DISTANCE_BOUND = 10**6


@pytest.fixture(scope="module")
def censuses(f9):
    return {n: census(n, f9, 1) for n in (1, 2, 3, 5)}


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_gray_isometry():
    """Lee distance equals Hamming distance of Gray images, exactly."""
    exhaustive = verify_gray_isometry(
        TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=10**5))
    )
    assert exhaustive.passed and exhaustive.mode == "exhaustive"
    capped = verify_gray_isometry(
        TestMatrixEntry(p=3, m=1, i=1, n=2, bounds=Bounds(pairs=10**5))
    )
    assert capped.passed and capped.mode == "sampled"
    sampled9 = verify_gray_isometry(
        TestMatrixEntry(p=3, m=2, i=1, n=5, bounds=Bounds(pairs=10**4))
    )
    assert sampled9.passed and sampled9.mode == "sampled"
    _report(1, "gray isometry")


def test_criterion_2_idempotent_algebra():
    """eta_j eta_k = delta_jk eta_j and sum = 1 for q in {3, 9, 25}."""
    for p, m, mod in ((3, 1, [0, 1]), (3, 2, [1, 0, 1]), (5, 2, [2, 0, 1])):
        fld = Field(p, m, mod)
        etas = make_idempotents(fld)
        one = ring_elem(fld, 1)
        zero = ring_elem(fld, 0)
        assert etas.eta1 + etas.eta2 + etas.eta3 == one
        for j, ej in enumerate(etas):
            for k, ek in enumerate(etas):
                assert ej * ek == (ej if j == k else zero)
    _report(2, "idempotent algebra")


def test_criterion_3_census_counts(f9):
    """Brute-force divisor counts equal the factorization formula and cube."""
    expected = {1: (2, 8), 3: (4, 64), 5: (4, 64), 7: (4, 64)}
    for n in (1, 3, 5, 7):
        brute = len(monic_right_divisors(n, f9, 1))
        formula = count_skew_cyclic_codes(n, f9, 1)
        assert brute == formula[0]
        assert brute**3 == formula[1]
        assert formula == expected[n]
        entry = TestMatrixEntry(p=3, m=2, i=1, n=n)
        assert verify_census(entry, _brute_divisors(entry)).passed
    _report(3, "census counts for n in {1, 3, 5, 7}")


def test_criterion_4_cardinality_rank(f9, censuses):
    """Gray generator rank equals 3n - sum(deg g_i) for every code, n <= 5."""
    checked = 0
    for n in (1, 2, 3, 5):
        for code in censuses[n]:
            assert placed("cardinality-rank", verify_cardinality, code).passed
            checked += 1
    # n = 4 has 36 component codes; iterate the 46656 codes lazily
    comps4 = [component_code_new(4, g) for g in monic_right_divisors(4, f9, 1)]
    for a, b, c in itertools.product(comps4, repeat=3):
        code = code_from_components(a, b, c)
        rows = linalg.to_index_rows(code.gray_generator_rows(), f9)
        assert linalg.rank(rows, f9) == 12 - (
            a.g.degree + b.g.degree + c.g.degree
        )
        checked += 1
    assert checked == 8 + 216 + 64 + 64 + 36**3
    _report(4, f"cardinality rank over {checked} codes at n <= 5")


def test_criterion_5_duality(censuses):
    """Orthogonality, |C| * |dual| = q^{3n}, and double dual, n <= 3."""
    checked = 0
    for n in (1, 2, 3):
        for code in censuses[n]:
            assert over_r(verify_duality, code).passed
            checked += 1
    assert checked == 288
    _report(5, f"duality over {checked} codes at n <= 3")


def test_criterion_6_dual_gray_commutation(censuses):
    """Canonical bases of Phi(C)-perp and Phi(C-perp) coincide, n <= 3."""
    checked = 0
    for n in (1, 2, 3):
        for code in censuses[n]:
            assert dual_gray(code).passed
            checked += 1
    assert checked >= 20
    _report(6, f"dual/Gray commutation over {checked} codes")


def test_criterion_7_shift_closure(censuses):
    """Enumerable codes and duals are shift-closed; span == membership set."""
    rng = random.Random(0)
    checked = 0
    for n in (1, 2, 3):
        for code in censuses[n]:
            if code.size <= ENUM_BOUND:
                v = over_r(verify_shift_closure, code, rng)
                assert v.passed and v.mode == "exhaustive"
                checked += 1
            dual = code.dual()
            if dual.size <= ENUM_BOUND:
                v = over_r(verify_shift_closure, dual, rng)
                assert v.passed and v.mode == "exhaustive"
                checked += 1
    assert checked > 0
    _report(7, f"skew-shift closure over {checked} enumerable codes and duals")


def test_criterion_8_idempotent_generators(censuses):
    """e*e = e mod x^5 - 1 and <e> = C for every census code at n = 5."""
    from skewcyclic.skew_poly import mod_xn_minus_1, skew_mul

    for code in censuses[5]:
        v = over_r(verify_idempotent_generators, code)
        assert v.passed and v.mode == "exhaustive"
        for e in code.idempotent_generator():  # each component re-verifies its e_j
            assert mod_xn_minus_1(skew_mul(e, e), 5) == mod_xn_minus_1(e, 5)
    _report(8, f"idempotent generators over {len(censuses[5])} codes at n = 5")


def test_criterion_9_distance_law(censuses):
    """Min Lee distance = min component Hamming distance, cross-checked by
    direct Gray-image enumeration whenever |C| <= 10^6."""
    direct_checked = 0
    for n in (1, 2, 3):
        for code in censuses[n]:
            v = verify_distance_law(_case(code), DISTANCE_BOUND, {})
            assert v.passed
            if v.mode != "skipped":
                direct_checked += 1
    assert direct_checked > 0
    _report(9, f"distance law with {direct_checked} direct enumerations")


def test_criterion_10_negative_controls(f9, monkeypatch):
    """Every verification suite fails, with a witness, on corrupted input."""
    bad = broken_component_code(f9, 1, 3)
    broken3 = broken_code(f9, 1, 3)
    broken5 = broken_code(f9, 1, 5)
    mismatched = mismatched_case(f9, 1, 3)
    rng = random.Random(0)
    verdicts = {
        "closure-component": verify_shift_closure(bad, _code_config(bad), rng),
        "closure-ring": over_r(verify_shift_closure, broken3, rng),
        "duality": over_r(verify_duality, broken3),
        "dual-gray": dual_gray(broken3),
        "quasi-cyclic": placed("quasi-cyclic-gray", verify_quasi_cyclic_gray, broken3),
        "distance": verify_distance_law(mismatched, DISTANCE_BOUND, {}),
        "principality": verify_principality(mismatched, rng, {}),
        "decomposition": verify_decomposition(mismatched),
        "idempotent": over_r(verify_idempotent_generators, broken5),
    }
    for name, verdict in verdicts.items():
        assert not verdict.passed, f"{name} accepted corrupted input"
        assert verdict.counterexample is not None, f"{name} lacks a witness"
    # cardinality reads its corrupted side from the component's rows;
    # census and the isometry read theirs from the names they call
    short = component_code_new(1, SkewPoly.one(f9, 1))
    object.__setattr__(short, "_rows", short.generator_rows()[1:])
    v = verify_cardinality(short, _code_config(short))
    assert not v.passed and v.counterexample is not None
    entry = TestMatrixEntry(p=3, m=2, i=1, n=1)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "count_skew_cyclic_codes", lambda n, fld, i: (3, 27))
        v = verify_census(entry, _brute_divisors(entry))
    assert not v.passed and v.counterexample is not None
    # the corrupt distance function is caught by the isometry oracle
    def corrupt_distance(x, y):
        return lee_distance(x, y) + (1 if x != y else 0)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "lee_distance", corrupt_distance)
        v = verify_gray_isometry(
            TestMatrixEntry(p=3, m=1, i=1, n=1, bounds=Bounds(pairs=10**5))
        )
    assert not v.passed and v.counterexample is not None
    _report(10, "negative controls (12 corrupted inputs, all rejected)")
