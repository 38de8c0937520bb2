"""End-to-end acceptance checks, one verdict line per criterion.

Each test sweeps a frozen corpus, collects every violation instead of
stopping at the first, records a single "CRITERION n: PASS/FAIL" line
(replayed by a terminal-summary hook so it survives output capture),
and then asserts. Runtime budgets are part of the contract too.
"""
from __future__ import annotations

import time
from functools import lru_cache

import pytest

from conftest import ACCEPTANCE_VERDICTS

import reference
from corpus import is_isomorphic, posets_by_size, posets_up_to
from esakialab.heyting import (
    boolean_core_iso_maximal,
    check_inqb_tensor_axioms,
    dual_algebra,
    dual_poset,
    duality_counit,
    duality_unit,
    is_heyting_iso,
    is_leq,
    is_regularly_generated,
    regular_upsets,
)
from esakialab.jankov import antichain_verify, jankov_dna_formula, jankov_refutation_check, separating_formula
from esakialab.logic import (
    Iff,
    atoms,
    axiom_instances,
    big_or,
    dnf_inquisitive,
    enumerate_formulas,
    is_dna_valid,
    is_standard,
    parse,
    sample_formulas,
    team_valid,
)
from esakialab.poset_core import (
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    p_morphism_violation,
    strong_regularization,
)
from esakialab.regularity import (
    is_regular_bruteforce_morphism,
    is_regular_structural,
    is_stable_under_sim_infty,
    is_strongly_regular,
    quotient,
    separation_equivalence_check,
    sim_n,
)


def _verdict(num: int, failures: list, elapsed: float, budget: float, extra: str = ""):
    if elapsed >= budget:
        failures = failures + [
            f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"
        ]
    ok = not failures
    bits = "; ".join(x for x in (extra, f"{elapsed:.1f}s") if x)
    ACCEPTANCE_VERDICTS.append(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({bits})")
    assert ok, f"criterion {num}: " + "; ".join(str(f) for f in failures[:8])


@lru_cache(maxsize=None)
def _one_atom_corpus():
    return tuple(enumerate_formulas(["p"], 9))


@lru_cache(maxsize=None)
def _two_atom_sample():
    return tuple(sample_formulas(["p", "q"], 11, 500, seed=0))


def test_criterion_01_duality_round_trips():
    t0 = time.perf_counter()
    failures = []
    posets = posets_up_to(6)
    for P in posets:
        H = dual_algebra(P)
        if not is_isomorphic(P, dual_poset(H)):
            failures.append(("poset round trip", P.points))
        Q, mapping = duality_unit(P)
        if sorted(mapping.values()) != sorted(Q.points) or any(
            P.leq(x, y) != Q.leq(mapping[x], mapping[y])
            for x in P.points
            for y in P.points
        ):
            failures.append(("unit not an order iso", P.points))
        K, cmap = duality_counit(H)
        if not is_heyting_iso(H, K, cmap):
            failures.append(("algebra round trip", P.points))
    _verdict(1, failures, time.perf_counter() - t0, 60.0, f"{len(posets)} poset classes, both directions")


def test_criterion_02_regular_upsets_and_core_iso():
    t0 = time.perf_counter()
    failures = []
    posets = posets_up_to(6)
    for P in posets:
        H = dual_algebra(P)
        route_negation = sorted(reference.regulars(H))
        route_topological = sorted(regular_upsets(P))
        hulls = set()
        maximal = P.maximal_mask
        a = maximal
        while True:
            hull = 0
            for i in range(len(P)):
                if P.m_mask(i) & ~a == 0:
                    hull |= 1 << i
            hulls.add(hull)
            if a == 0:
                break
            a = (a - 1) & maximal
        if not (route_negation == route_topological == sorted(hulls)):
            failures.append(("tri-equivalence", P.points))
        report = boolean_core_iso_maximal(P)
        if not report.ok:
            failures.append(("core trace iso", P.points, report.counterexample))
    _verdict(2, failures, time.perf_counter() - t0, 60.0, f"{len(posets)} poset classes, three routes")


def test_criterion_03_regularity_oracles():
    t0 = time.perf_counter()
    failures = []
    everything = posets_up_to(7)
    regular_count = 0
    for P in everything:
        a = is_regular_structural(P)
        b = is_stable_under_sim_infty(P)
        c = is_regularly_generated(dual_algebra(P))
        if not a == b == c:
            failures.append(("trio disagreement", P.points, a, b, c))
        if a != is_regular_bruteforce_morphism(P):
            failures.append(("morphism oracle", P.points))
        regular_count += a
    if regular_count != 119:
        failures.append(("regular class count", regular_count, "expected 119"))
    _verdict(
        3, failures, time.perf_counter() - t0, 600.0,
        f"{len(everything)} x 4 oracles",
    )


def test_criterion_04_rank_bisimulation_bridge():
    t0 = time.perf_counter()
    failures = []
    posets = posets_up_to(6)
    for P in posets:
        for n in (0, 1, 2, 3, 4, None):
            check = separation_equivalence_check(P, n)
            if not check.ok:
                failures.append((P.points, n, check.witness))
    _verdict(
        4, failures, time.perf_counter() - t0, 300.0,
        f"{len(posets)} classes, levels 0-4 and the limit, both directions",
    )


def test_criterion_05_strong_regularization():
    t0 = time.perf_counter()
    failures = []
    posets = posets_up_to(6)
    for P in posets:
        star, retraction = strong_regularization(P)
        if not is_strongly_regular(star):
            failures.append(("star not strongly regular", P.points))
        if not (
            p_morphism_violation(retraction) is None
            and retraction.is_surjective
            and retraction.source is star
            and retraction.target == P
        ):
            failures.append(("retraction invalid", P.points))
    _verdict(5, failures, time.perf_counter() - t0, 60.0, f"{len(posets)} classes")


def test_criterion_06_jankov_biconditional():
    t0 = time.perf_counter()
    failures = []
    a_corpus = [
        P for P in posets_up_to(4)
        if any(P.up[i] == P.full_mask for i in range(len(P)))
        and is_regular_structural(P)
    ]
    b_corpus = posets_up_to(5)
    if len(a_corpus) != 3:
        failures.append(("A corpus size", len(a_corpus), "expected 3"))
    if len(b_corpus) != 87:
        failures.append(("B corpus size", len(b_corpus), "expected 87"))
    for A in a_corpus:
        bundle = jankov_dna_formula(dual_algebra(A), force=True)
        for B in b_corpus:
            # the check itself recomputes the order-theoretic route and
            # raises on divergence, so this asserts the biconditional twice
            refuted = jankov_refutation_check(B, bundle, force=True)
            if refuted != is_leq(A, B):
                failures.append((A.points, B.points, refuted))
    _verdict(
        6, failures, time.perf_counter() - t0, 900.0,
        f"{len(a_corpus)} sources x {len(b_corpus)} targets",
    )


def test_criterion_07_fan_and_transposition_towers():
    t0 = time.perf_counter()
    failures = []
    towers = {n: make_delta0(n) for n in (1, 2, 3, 4)}
    for n, F in towers.items():
        if not (is_regular_structural(F) and is_stable_under_sim_infty(F)):
            failures.append(("tower not regular", n))
        if quotient(F, sim_n(F, n)) != F:
            failures.append(("level-n quotient moved", n))
    # the literal sharpness sub-clause, recorded exactly as stated
    literal_holds = all(
        quotient(F, sim_n(F, n - 1)) != F for n, F in towers.items()
    )
    for n in (2, 3, 4):
        if quotient(towers[n], sim_n(towers[n], n - 2)) == towers[n]:
            failures.append(("corrected sharp bound", n))
    for n in (3, 4, 5):
        if not is_strongly_regular(make_delta1(n)):
            failures.append(("transposition tower", n))
    for pair in ([towers[2], towers[3]], [make_delta1(3), make_delta1(4)]):
        if not antichain_verify(pair).is_antichain:
            failures.append(("antichain", pair[0].name, pair[1].name))
    if separating_formula([towers[2]], [towers[3]], force=True) is None:
        failures.append(("separating formula missing",))
    elapsed = time.perf_counter() - t0
    ok = not failures and literal_holds and elapsed < 1200.0
    detail = (
        "sharpness sub-clause false: the level n-1 quotient already equals "
        "F_n for every n in 1..4; level n-2 is the sharp bound and holds for "
        "n in 2..4; every other sub-clause passes"
    )
    ACCEPTANCE_VERDICTS.append(
        f"CRITERION 7: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)"
    )
    assert not failures, failures[:8]
    assert elapsed < 1200.0


@pytest.mark.xfail(
    strict=True,
    reason="the level n-1 partition is already discrete on every fan tower; "
    "the sharp separation sits at level n-2 (see the criterion 7 verdict)",
)
def test_criterion_07_literal_sharpness_clause():
    for n in (1, 2, 3, 4):
        F = make_delta0(n)
        assert quotient(F, sim_n(F, n - 1)) != F


def test_criterion_08_ladder_separation():
    t0 = time.perf_counter()
    failures = []
    R = make_ladder("R1", 8)
    for n in range(6):
        if sim_n(R, n + 1).same_block(f"a{n}", f"a{n + 1}"):
            failures.append((f"a{n}", f"a{n + 1}"))
    _verdict(8, failures, time.perf_counter() - t0, 1.0, "rail pairs n <= 5")


def test_criterion_09_team_algebra_bridge():
    t0 = time.perf_counter()
    failures = []
    H1 = dual_algebra(make_medvedev(2))
    H2 = dual_algebra(make_medvedev(4))

    counts = {}
    corpus = _one_atom_corpus()
    counts["1-atom"] = 0
    for f in corpus:
        team = team_valid(f, 1)
        if team != is_dna_valid(H1, f):
            failures.append(("k=1 mismatch", f))
        counts["1-atom"] += team
    sample = _two_atom_sample()
    counts["2-atom"] = 0
    for f in sample:
        team = team_valid(f, 2)
        if team != is_dna_valid(H2, f):
            failures.append(("k=2 mismatch", f))
        counts["2-atom"] += team
    tensor1 = sample_formulas(["p"], 9, 100, seed=0, with_tensor=True)
    tensor2 = sample_formulas(["p", "q"], 9, 100, seed=0, with_tensor=True)
    counts["tensor-1"] = sum(team_valid(f, 1) for f in tensor1)
    counts["tensor-2"] = sum(team_valid(f, 2) for f in tensor2)
    for f in tensor1:
        if team_valid(f, 1) != is_dna_valid(H1, f):
            failures.append(("tensor k=1 mismatch", f))
    for f in tensor2:
        if team_valid(f, 2) != is_dna_valid(H2, f):
            failures.append(("tensor k=2 mismatch", f))
    expected = {"1-atom": 144105, "2-atom": 205, "tensor-1": 61, "tensor-2": 55}
    if counts != expected:
        failures.append(("frozen validity counts", counts, expected))

    spots = [
        ("~~p -> p", True),
        ("p | ~p", False),
        ("p (+) ~p", True),
    ]
    for text, want in spots:
        f = parse(text)
        if not (team_valid(f, 1) == is_dna_valid(H1, f) == want):
            failures.append(("spot", text))
    kp = axiom_instances("KP")
    if not (team_valid(kp, 3, force=True) and is_dna_valid(H2, kp)):
        failures.append(("spot", "KP"))
    _verdict(
        9, failures, time.perf_counter() - t0, 1800.0,
        f"{len(corpus)} exhaustive + {len(sample)} sampled + 200 tensor formulas",
    )


def test_criterion_10_disjunctive_normal_form():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for f in list(_one_atom_corpus()) + list(_two_atom_sample()):
        disjuncts = dnf_inquisitive(f)
        if not all(is_standard(g) for g in disjuncts):
            failures.append(("non-standard disjunct", f))
            continue
        if not team_valid(Iff(f, big_or(disjuncts)), len(atoms(f)), force=True):
            failures.append(("biconditional not team-valid", f))
        checked += 1
    _verdict(10, failures, time.perf_counter() - t0, 600.0, f"{checked} formulas")


def test_criterion_11_tensor_suite():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        P = make_medvedev(n)
        H = dual_algebra(P)
        for u in H.elements:
            for v in H.elements:
                if H.tensor_op(u, v) != reference.tensor(H, u, v):
                    failures.append(("regular pairs", n, u, v))
        report = check_inqb_tensor_axioms(P)
        if not all(report.proxy_valid.values()):
            failures.append(("proxy suite", n, report.proxy_valid))
        if report.core_join_violations:
            failures.append(("core join", n))
        if report.distributivity_violations:
            failures.append(("distributivity", n))
        if not report.repaired_form_holds:
            failures.append(("conjunctive implication form", n))
    tiny = check_inqb_tensor_axioms(make_medvedev(1))
    if tiny.printed_form_holds:
        failures.append(("printed form unexpectedly holds",))
    else:
        first = tiny.printed_implication_violations[0]
        if first != ((0, 1, 1, 0), (0, 1)):
            failures.append(("first printed witness", first))
        # the 1-vs-0 witness: both implications collapse the tensor pair
        if ((1, 0, 0, 0), (1, 0)) not in tiny.printed_implication_violations:
            failures.append(("hand witness missing",))
    _verdict(
        11, failures, time.perf_counter() - t0, 300.0,
        "frames n <= 3, all pairs; axiom sweep; frozen 2-element witnesses",
    )
