import gc
import json
from collections import Counter

import pytest

from esakialab import jankov
from esakialab.heyting import dual_algebra, dual_poset, is_leq, is_regularly_generated
from esakialab.jankov import (
    MAX_ATOMS,
    _root_index,
    antichain_verify,
    jankov_dna_formula,
    jankov_refutation_check,
    separating_formula,
)
from esakialab.logic import SweepGuardError, eval_algebra, format_formula, refutes
from esakialab.poset_core import depth_width, make_delta0, make_medvedev
from esakialab.regularity import is_regular_bruteforce_morphism


@pytest.fixture()
def fork_bundle(fork):
    return jankov_dna_formula(dual_algebra(fork))


def test_bundle_parts_on_fork(fork, fork_bundle):
    H = fork_bundle.source
    assert sorted(fork_bundle.atom_names.values()) == ["p0", "p1", "p2", "p4"]
    assert H.element_label(fork_bundle.second_greatest) == "{a,b}"
    assert format_formula(fork_bundle.representatives[fork_bundle.second_greatest]) == "p1 | p2"


def test_identity_valuation_separates(fork_bundle):
    # the source algebra itself satisfies alpha but keeps chi off the top
    H = fork_bundle.source
    ident = {fork_bundle.atom_names[u]: u for u in H.regulars}
    assert eval_algebra(H, ident, fork_bundle.alpha) == H.top
    assert eval_algebra(H, ident, fork_bundle.chi) != H.top


def test_refutation_matches_divisibility(fork, p1, c2, w3, diamond, fork_bundle):
    # the sweep cross-checks is_leq internally; a mismatch would raise
    expected = {"V": True, "P1": False, "C2": False, "W3": True, "D4": False}
    for B in (fork, p1, c2, w3, diamond):
        assert jankov_refutation_check(B, fork_bundle) == expected[B.name]


def test_bundle_keeps_the_source_dual(fork, p1, c2, w3, diamond, fork_bundle, monkeypatch):
    assert fork_bundle.dual == dual_poset(fork_bundle.source)
    calls = [0]

    def counting(H):
        calls[0] += 1
        return dual_poset(H)

    monkeypatch.setattr(jankov, "dual_poset", counting)
    for B in (fork, p1, c2, w3, diamond):
        jankov_refutation_check(B, fork_bundle)
    assert calls[0] == 0


def test_refutation_sweep_is_guarded(w3, fork_bundle, monkeypatch):
    # the fork's bundle has 4 atoms and W3's root has 8 regulars: 8^4 valuations
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "3")
    with pytest.raises(
        SweepGuardError,
        match=r"^jankov_refutation_check: search passed 3 nodes .* up to 8\^4 valuations",
    ):
        jankov_refutation_check(w3, fork_bundle)
    assert jankov_refutation_check(w3, fork_bundle, force=True)


def test_recursive_searches_leave_no_garbage(fork, fork_bundle):
    # a search that recurses through a closure leaves a reference cycle per call
    M3 = make_medvedev(3)
    gc.collect()
    gc.disable()
    try:
        assert is_regular_bruteforce_morphism(M3)
        assert is_leq(fork, M3)
        assert jankov_refutation_check(M3, fork_bundle)
        assert depth_width(M3) == (3, 3)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


@pytest.fixture(scope="module")
def fan_bundles(corpus_levels):
    # the rooted, regularly generated classes of at most 4 points: the point
    # and the fans of 2 and 3 leaves
    return [
        jankov_dna_formula(H, force=True)
        for H in (dual_algebra(P) for level in corpus_levels[:4] for P in level)
        if _root_index(H.base) is not None and is_regularly_generated(H)
    ]


def test_refutation_search_work_is_pinned(fan_bundles, corpus6):
    # every distinct principal upset of the <=6-point corpus is searched, with
    # no early stop, as the divisibility benchmark does; the count of values
    # tried catches any weakened pruning
    assert [len(bundle.atom_names) for bundle in fan_bundles] == [2, 4, 8]
    algebras = [dual_algebra(B.induced(mask)) for B in corpus6 for mask in dict.fromkeys(B.up)]
    refuted = 0
    budget = [10**6]
    for bundle in fan_bundles:
        for K in algebras:
            refuted += refutes(K, K.regulars, bundle.plan, budget)
    assert (len(algebras), refuted, 10**6 - budget[0]) == (2307, 2911, 88172)


def test_symmetric_refutation_search_keeps_the_plain_verdict(fan_bundles, corpus5):
    # an automorphism of K fixes top and commutes with every connective, so
    # it maps a valuation that meets chi's equations and keeps psi_s below
    # top to another one: one valuation per orbit gives the plain verdict
    verdicts = Counter()
    tried = [0, 0]
    for bundle in fan_bundles:
        for P in corpus5:
            K = dual_algebra(P)
            symmetry = K.domain_symmetry(True, 10**6)
            plain, orbit = [10**6], [10**6]
            want = refutes(K, K.regulars, bundle.plan, plain)
            assert refutes(K, K.regulars, bundle.plan, orbit, symmetry) == want, (P, bundle)
            verdicts[want, symmetry is not None] += 1
            tried[0] += 10**6 - plain[0]
            tried[1] += 10**6 - orbit[0]
    assert verdicts == {(True, True): 67, (True, False): 69, (False, True): 38, (False, False): 87}
    assert tried == [14691, 7927]


def test_trivial_bundle_refuted_everywhere(p1, c2, fork, w3, diamond):
    bundle = jankov_dna_formula(dual_algebra(p1))
    for B in (p1, c2, fork, w3, diamond):
        assert jankov_refutation_check(B, bundle)


def test_precondition_errors(a2, c2, w3):
    with pytest.raises(ValueError, match="no root"):
        jankov_dna_formula(dual_algebra(a2))
    with pytest.raises(ValueError, match="not regularly generated"):
        jankov_dna_formula(dual_algebra(c2))
    match = f"^jankov_dna_formula: 8 atoms exceed the limit of {MAX_ATOMS} "
    with pytest.raises(SweepGuardError, match=match):
        jankov_dna_formula(dual_algebra(w3))


def test_forced_wide_bundle(fork, c2, w3, diamond):
    bundle = jankov_dna_formula(dual_algebra(w3), force=True)
    assert len(bundle.atom_names) == 8
    for B in (fork, c2, w3, diamond):
        assert jankov_refutation_check(B, bundle, force=True) == is_leq(w3, B)


def test_bundle_json_deterministic(fork, fork_bundle):
    again = jankov_dna_formula(dual_algebra(fork))
    assert again.to_json() == fork_bundle.to_json()
    payload = json.loads(fork_bundle.to_json())
    assert set(payload) == {"source", "atom_map", "chi"}
    assert payload["atom_map"] == {
        "{}": "p0",
        "{a}": "p1",
        "{b}": "p2",
        "{r,a,b}": "p4",
    }


def test_antichain_fan_towers():
    report = antichain_verify([make_delta0(2), make_delta0(3)])
    assert report.is_antichain
    assert report.comparable_pairs == ()
    assert report.regular_flags == (True, True)
    assert report.strongly_regular_flags == (False, False)


def test_antichain_rejects_comparable(c2, diamond):
    report = antichain_verify([c2, diamond])
    assert not report.is_antichain
    assert report.comparable_pairs == ((0, 1),)
    assert report.regular_flags == (False, False)


def test_separating_formula_on_towers(p1):
    F2, F3 = make_delta0(2), make_delta0(3)
    chi = separating_formula([F2], [F3], force=True)
    assert chi is not None
    bundle = jankov_dna_formula(dual_algebra(F2), force=True)
    assert format_formula(chi) == format_formula(bundle.chi)
    assert jankov_refutation_check(F2, bundle, force=True)
    assert not jankov_refutation_check(F3, bundle, force=True)
    assert not jankov_refutation_check(p1, bundle, force=True)


def test_separating_formula_equal_sides():
    F2 = make_delta0(2)
    assert separating_formula([F2], [F2], force=True) is None


def test_separating_formula_preconditions(p1, a2, c2, fork):
    with pytest.raises(ValueError, match="not rooted"):
        separating_formula([a2], [fork])
    with pytest.raises(ValueError, match="not regular"):
        separating_formula([c2], [fork])
    with pytest.raises(ValueError, match="not an antichain"):
        separating_formula([p1], [fork])
    with pytest.raises(SweepGuardError):
        separating_formula([make_delta0(2)], [make_delta0(3)])
