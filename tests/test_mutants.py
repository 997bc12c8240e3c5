"""What a passing ``verify`` rules out: a pinned table of named mutants.

Each mutant is one monkeypatch on production or on the oracle. It runs
``verify_all`` on the default matrix and on the F_9 n = 2 entry of
``tests/data/verify_matrix_f9_n2.json``, and the (entry, claim) pairs that
fail must equal its row in ``tests/data/mutant_kills.json``. A mutant that
no claim catches is pinned too, with its one-line ``reason``. A change to
the oracle, the matrix or a claim rewrites the table on purpose.

Every claim of ``oracle.CLAIMS`` earns its place: some row fails that
claim and no other (its "own" row), or ``tests/data/claim_reasons.json``
says which paper statement it checks on oracle data alone, or which
ROADMAP item decides it.
"""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewcyclic import linalg, oracle, ring_r, skew_poly
from skewcyclic.codes import ComponentCode, SkewCyclicCode, census, component_code_new
from skewcyclic.finite_field import FieldTables, LogTable
from skewcyclic.oracle import (
    TestMatrixEntry,
    default_matrix,
    matrix_from_json,
    verify_all,
    verify_entry,
)
from skewcyclic.ring_r import RingElem
from skewcyclic.skew_poly import SkewPoly, poly_from_string, poly_to_string

DATA = Path(__file__).parent / "data"
TABLE = json.loads((DATA / "mutant_kills.json").read_text())
REASONS = json.loads((DATA / "claim_reasons.json").read_text())


def _skew_mul_without_theta(mp):
    def untwisted(f, g):
        f._check_compat(g)
        if f.is_zero() or g.is_zero():
            return SkewPoly.zero(f.field, f.aut)
        t = f.field.tables()
        out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs, i):
                out[j] = t.add[out[j]][t.mul[a][b]]
        return SkewPoly(f.field, out, f.aut)

    mp.setattr(skew_poly, "skew_mul", untwisted)


def _reciprocal_cofactor_without_theta(mp):
    def untwisted(self):
        nr = self.n - self.g.degree
        return SkewPoly(self.field, [self.h.coeff(nr - j) for j in range(nr + 1)], self.aut)

    mp.setattr(ComponentCode, "reciprocal_cofactor", untwisted)


def _oracle_lane_without_theta(mp):
    # the skew shift of the claims over R, with theta the identity
    orbit = oracle._twist_orbit
    mp.setattr(oracle, "_twist_orbit", lambda w, count, frob: orbit(w, count, range(len(frob))))


def _idempotents_swap_eta2_eta3(mp):
    from skewcyclic import codes

    def swapped(field):
        eta1, eta2, eta3 = ring_r.make_idempotents(field)
        return ring_r.Idempotents(eta1, eta3, eta2)

    mp.setattr(codes, "make_idempotents", swapped)


def _membership_accepts_everything(mp):
    mp.setattr(ComponentCode, "_contains_indices", lambda self, word: True)


def _gray_map_swaps_x2_x3(mp):
    def swapped(vec):
        return tuple(x for r in vec for x in (r.x1, r.x3, r.x2))

    for module in (ring_r, oracle):
        mp.setattr(module, "gray_map", swapped)


def _distance_plus_one(mp):
    distance = ComponentCode.min_hamming_distance

    def plus_one(self, bound=linalg.DISTANCE_LIMIT):
        d = distance(self, bound)
        return d._replace(value=d.value + 1)

    mp.setattr(ComponentCode, "min_hamming_distance", plus_one)


def _idempotent_is_the_generator(mp):
    mp.setattr(ComponentCode, "idempotent_generator", lambda self: self.g)


def _dual_is_the_code(mp):
    mp.setattr(ComponentCode, "dual", lambda self: self)


def _pivots_drop_the_last(mp):
    pivots = linalg._pivots

    def dropped(rows, field):
        found = pivots(rows, field)
        if found:
            del found[next(reversed(found))]
        return found

    mp.setattr(linalg, "_pivots", dropped)


def _weights_drop_the_last_word(mp):
    weights = linalg._projective_weights

    def dropped(basis, field):
        blocks = list(weights(basis, field))
        # a one-word block is kept, so that the enumeration is never empty
        if len(blocks[-1]) > 1:
            blocks[-1] = blocks[-1][:-1]
        yield from blocks

    mp.setattr(linalg, "_projective_weights", dropped)


def _weights_plus_one(mp):
    weights = linalg._projective_weights
    mp.setattr(linalg, "_projective_weights", lambda basis, field: (
        w + 1 for w in weights(basis, field)
    ))


def _census_drops_a_divisor_and_its_dual(mp):
    divisors = skew_poly.divisors_from_factorization

    def dropped(fac):
        found = divisors(fac)
        if len(found) <= 2:
            return found
        n, second = found[-1].degree, found[1]
        dual = component_code_new(n, second).dual().g
        return [g for g in found if g not in (second, dual)]

    mp.setattr(skew_poly, "divisors_from_factorization", dropped)


def _lee_distance_plus_one(mp):
    distance = oracle.lee_distance
    mp.setattr(oracle, "lee_distance", lambda x, y: distance(x, y) + (x != y))


def _b_flips_its_sign(mp):
    mp.setattr(RingElem, "b", property(lambda self: self.field.half * (self.x3 - self.x2)))


def _mul_swaps_x2_x3(mp):
    mp.setattr(RingElem, "__mul__", lambda self, other: ring_r._split_elem(
        self.x1 * other.x1, self.x3 * other.x3, self.x2 * other.x2
    ))


def _equality_ignores_x3(mp):
    mp.setattr(RingElem, "__eq__", lambda self, other: (
        isinstance(other, RingElem) and self.x1 == other.x1 and self.x2 == other.x2
    ))
    mp.setattr(RingElem, "__hash__", lambda self: hash((self.x1, self.x2)))


def _crt_join_swaps_x2_x3(mp):
    join = ring_r.crt_join

    def swapped(field, t):
        return join(field, (t[0], t[2], t[1]))

    for module in (ring_r, skew_poly):
        mp.setattr(module, "crt_join", swapped)


def _combine_swaps_slots(mp):
    combine = oracle.ring_skew_poly_combine
    mp.setattr(oracle, "ring_skew_poly_combine", lambda f1, f2, f3: combine(f1, f3, f2))


def _project_swaps_slots(mp):
    project = oracle.project_components

    def swapped(coeffs, field, aut):
        f1, f2, f3 = project(coeffs, field, aut)
        return f1, f3, f2

    mp.setattr(oracle, "project_components", swapped)


def _brute_force_drops_the_last(mp):
    brute = oracle.brute_right_divisors
    mp.setattr(oracle, "brute_right_divisors", lambda *args: brute(*args)[:-1])


def _contains_swaps_x2_x3(mp):
    def swapped(self, word):
        return (
            self.c1._contains_indices([r.x1.idx for r in word])
            and self.c2._contains_indices([r.x3.idx for r in word])
            and self.c3._contains_indices([r.x2.idx for r in word])
        )

    mp.setattr(SkewCyclicCode, "contains", swapped)


def _contains_answers(owner: type, answer: bool):
    return lambda mp: mp.setattr(owner, "contains", lambda self, word: answer)


def _contains_rejects_a_last_coordinate(mp):
    contains = SkewCyclicCode.contains
    mp.setattr(SkewCyclicCode, "contains", lambda self, word: (
        contains(self, word) and word[-1].is_zero()
    ))


def _contains_rejects_small_codes(mp):
    contains = SkewCyclicCode.contains
    mp.setattr(SkewCyclicCode, "contains", lambda self, word: contains(self, word) and (
        self.dim > 2 or all(r.is_zero() for r in word)
    ))


def _membership_rejects_a_last_coordinate(mp):
    indices = ComponentCode._contains_indices
    mp.setattr(ComponentCode, "_contains_indices", lambda self, word: (
        indices(self, word) and not word[-1]
    ))


def _census_repeats_a_divisor(mp):
    divisors = skew_poly.divisors_from_factorization

    def repeated(fac):
        found = divisors(fac)
        return found if len(found) <= 2 else found[:2] + found[1:]

    mp.setattr(skew_poly, "divisors_from_factorization", repeated)


def _census_adds_xn_plus_1(mp):
    # x^n + 1 is monic and does not right-divide x^n - 1 (p is odd)
    divisors = skew_poly.divisors_from_factorization
    mp.setattr(skew_poly, "divisors_from_factorization", lambda fac: divisors(fac) + [
        poly_from_string(f"x^{fac.n}+1", fac.field, fac.aut)
    ])


def _remainder_columns_without_theta(mp):
    columns = ComponentCode._remainder_columns

    def untwisted(self):
        if self._remainder_cols is None:
            # the same recurrence read with theta_0, the identity
            plain = SimpleNamespace(_remainder_cols=None, g=self.g, field=self.field, aut=0, n=self.n)
            object.__setattr__(self, "_remainder_cols", columns(plain))
        return self._remainder_cols

    mp.setattr(ComponentCode, "_remainder_columns", untwisted)


def _zech_swaps_two_entries(mp):
    init = LogTable.__init__

    def swapped(self, field):
        init(self, field)
        zech, n = self.zech, field.q - 1
        for k in (1, n + 1):  # entries 1 and 2 and their doubled copies
            zech[k], zech[k + 1] = zech[k + 1], zech[k]

    mp.setattr(LogTable, "__init__", swapped)


def _add_table_moves_one_entry(mp):
    init = FieldTables.__init__

    def moved(self, field):
        init(self, field)
        self.add[1][1] = (self.add[1][1] + 1) % field.q

    mp.setattr(FieldTables, "__init__", moved)


MUTANTS = {
    "skew_mul without theta": _skew_mul_without_theta,
    "reciprocal_cofactor without theta": _reciprocal_cofactor_without_theta,
    "oracle lane without theta": _oracle_lane_without_theta,
    "component membership accepts every word": _membership_accepts_everything,
    # only ComponentCode.contains: SkewCyclicCode.contains still rejects
    "ComponentCode.contains accepts every word": _contains_answers(ComponentCode, True),
    "gray_map emits (x1, x3, x2)": _gray_map_swaps_x2_x3,
    "make_idempotents swaps eta2 and eta3, as codes calls it": _idempotents_swap_eta2_eta3,
    "min_hamming_distance + 1": _distance_plus_one,
    "idempotent_generator returns g": _idempotent_is_the_generator,
    "ComponentCode.dual returns the code": _dual_is_the_code,
    "linalg._pivots drops its last pivot": _pivots_drop_the_last,
    "_projective_weights drops the last word": _weights_drop_the_last_word,
    "_projective_weights adds 1 to each weight": _weights_plus_one,
    "census drops its second divisor and that divisor's dual": (
        _census_drops_a_divisor_and_its_dual
    ),
    "lee_distance + 1 on unequal words, as the oracle calls it": _lee_distance_plus_one,
    "RingElem.b flips the sign of x2 - x3": _b_flips_its_sign,
    "RingElem.__mul__ swaps x2 and x3 of the product": _mul_swaps_x2_x3,
    "RingElem.__eq__ and __hash__ ignore x3": _equality_ignores_x3,
    "crt_join swaps x2 and x3": _crt_join_swaps_x2_x3,
    "ring_skew_poly_combine swaps slots 2 and 3, as the oracle calls it": _combine_swaps_slots,
    "project_components swaps slots 2 and 3, as the oracle calls it": _project_swaps_slots,
    "brute_right_divisors drops its last divisor, as the oracle calls it": (
        _brute_force_drops_the_last
    ),
    "SkewCyclicCode.contains reads x3 for C2 and x2 for C3": _contains_swaps_x2_x3,
    "SkewCyclicCode.contains accepts every word": _contains_answers(SkewCyclicCode, True),
    "SkewCyclicCode.contains rejects every word": _contains_answers(SkewCyclicCode, False),
    "SkewCyclicCode.contains rejects a nonzero last coordinate": (
        _contains_rejects_a_last_coordinate
    ),
    "SkewCyclicCode.contains rejects the nonzero members of codes of dimension <= 2": (
        _contains_rejects_small_codes
    ),
    "component membership rejects a nonzero last coordinate": (
        _membership_rejects_a_last_coordinate
    ),
    "ComponentCode.contains rejects every word": _contains_answers(ComponentCode, False),
    "divisors_from_factorization repeats its second divisor": _census_repeats_a_divisor,
    "divisors_from_factorization also returns x^n + 1": _census_adds_xn_plus_1,
    "_remainder_columns without theta": _remainder_columns_without_theta,
    "LogTable.zech swaps entries 1 and 2 (and their doubled copies)": _zech_swaps_two_entries,
    "FieldTables.add moves add[1][1] to the next index": _add_table_moves_one_entry,
}


def _matrix() -> list[TestMatrixEntry]:
    twisted = json.loads((DATA / "verify_matrix_f9_n2.json").read_text())
    return default_matrix(0) + matrix_from_json(twisted, 0)


def _entry(config: dict) -> str:
    return "q={} i={} n={}".format(config["p"] ** config["m"], config["i"], config["n"])


def kills() -> list[list[str]]:
    """The sorted (entry, claim) pairs that fail ``verify_all`` on the matrix."""
    failed = {(_entry(r.config), r.claim) for r in verify_all(_matrix()) if not r.passed}
    return [list(pair) for pair in sorted(failed)]


def test_table_names_every_mutant_once():
    assert sorted(TABLE) == sorted(MUTANTS)
    for name, row in TABLE.items():
        # a survivor says why; a killed mutant needs no reason
        assert bool(row["kills"]) != bool(row.get("reason")), name


def test_every_claim_has_an_own_row_or_a_reason():
    own = set()
    for row in TABLE.values():
        claims = {claim for _, claim in row["kills"]}
        if len(claims) == 1:
            own |= claims
    assert own <= set(oracle.CLAIMS)
    # both ways: a claim that gains an own row loses its reason
    assert sorted(set(oracle.CLAIMS) - own) == sorted(REASONS)
    for claim, reason in REASONS.items():
        assert re.search(r"the paper's|ROADMAP item \d", reason), claim


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_kills_are_pinned(monkeypatch, name):
    MUTANTS[name](monkeypatch)
    assert kills() == TABLE[name]["kills"]


@pytest.mark.parametrize("n", [3, 5])
def test_census_mutant_names_the_lost_divisors(monkeypatch, n):
    # the census loses <x - 1> and its dual; it stays closed under duals,
    # so only census-count's comparison with the brute force sees it
    _census_drops_a_divisor_and_its_dual(monkeypatch)
    entry = TestMatrixEntry(p=3, m=2, i=1, n=n)
    assert len(census(n, entry.field(), 1)) == 2**3
    failed = [r for r in verify_entry(entry) if not r.passed]
    assert [r.claim for r in failed] == ["census-count"]
    lost = ["x-1", "+".join(["1"] + [f"x^{k}" for k in range(1, n)])]
    assert failed[0].counterexample == {
        "missing": [poly_to_string(poly_from_string(g, entry.field(), 1)) for g in lost],
        "extra": [],
    }


def test_census_count_reads_the_list_its_rows_come_from(monkeypatch, capsys):
    # the repeated divisor makes 5 components: 125 rows, against 64 from the cosets
    from skewcyclic.cli import main

    _census_repeats_a_divisor(monkeypatch)
    assert main("census --field p=3,m=2,mod=1,0,1 --aut 1 --n 5 --format json".split()) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["count"], out["count_formula"], len(out["rows"])) == (125, 64, 125)
