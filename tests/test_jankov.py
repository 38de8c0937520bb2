import copy
import gc
import json
import math
import random
from collections import Counter

import pytest

from esakialab import heyting, jankov
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
from esakialab.poset_core import (
    FinitePoset,
    depth_width,
    make_delta0,
    make_delta1,
    make_medvedev,
    morphisms,
)
from esakialab.regularity import is_regular_bruteforce_morphism

from corpus import named_frames


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


def test_refutation_sweep_is_guarded(c2, w3, fork_bundle, monkeypatch):
    # the fork's bundle has 4 atoms and each root of C2 has 2 regulars, listed
    # in 2 x 2^1 = 4 steps: the sweep over 2^4 valuations stops at the 5th node
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "4")
    with pytest.raises(
        SweepGuardError,
        match=r"^jankov_refutation_check: .* a root's 2\^4 valuations = 5 nodes, .* budget of 4 ",
    ):
        jankov_refutation_check(c2, fork_bundle)
    assert not jankov_refutation_check(c2, fork_bundle, force=True)
    # W3's root lists its 8 regulars in 4 x 2^3 = 32 steps, refused before its sweep
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "31")
    with pytest.raises(
        SweepGuardError,
        match=r"^principal_upset_views: .* = 4 x 2\^3 = 32 steps, .* budget of 31 ",
    ):
        jankov_refutation_check(w3, fork_bundle)
    assert jankov_refutation_check(w3, fork_bundle, force=True)


def test_a_spent_budget_stops_the_whole_search(w3, fork_bundle):
    # the root's refutation is the 26th value tried; on any smaller budget the
    # levels that unwind from the overdrawn one try no further value
    root = next(heyting.principal_upset_views(w3))
    assert root.top == w3.full_mask
    for limit in range(1, 26):
        budget = [limit]
        assert not refutes(root, root.regulars, fork_bundle.plan, budget)
        assert budget == [-1], limit
    budget = [26]
    assert refutes(root, root.regulars, fork_bundle.plan, budget)
    assert budget == [0]


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


def test_refutation_search_work_is_pinned_on_views(fan_bundles, corpus6, monkeypatch):
    # the same searches over the views jankov_refutation_check builds, each
    # check's views recorded in full whatever its early stop: the same roots,
    # verdicts and values tried as over the induced algebras above
    views = []

    def recording(B, force):
        built = list(heyting.principal_upset_views(B, force))
        views.extend(built)
        return iter(built)

    monkeypatch.setattr(jankov, "principal_upset_views", recording)
    for B in corpus6:
        assert jankov_refutation_check(B, fan_bundles[0])
    refuted = 0
    budget = [10**6]
    for bundle in fan_bundles:
        for K in views:
            refuted += refutes(K, K.regulars, bundle.plan, budget)
    assert (len(views), refuted, 10**6 - budget[0]) == (2307, 2911, 88172)


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


@pytest.fixture
def listings(monkeypatch):
    # the posets whose automorphisms is_leq lists, in order
    listed, real = [], morphisms.list_automorphisms

    def recorded(P, budget):
        listed.append(P)
        return real(P, budget)

    monkeypatch.setattr(morphisms, "list_automorphisms", recorded)
    return listed


def test_antichain_matches_plain_pairs_on_random_families(corpus6, listings):
    # copies, so that the groups listed stay off the shared corpus
    frames = [copy.copy(P) for P in corpus6 + named_frames()]
    assert len(frames) == 420
    rnd, plain = random.Random(0), {}
    for _ in range(3000):
        picks = rnd.sample(range(len(frames)), rnd.randint(2, 4))
        want = []
        for i, a in enumerate(picks):
            for j, b in enumerate(picks):
                if i != j:
                    if (a, b) not in plain:
                        plain[a, b] = morphisms._leq_search(frames[a], frames[b], math.inf)
                    if plain[a, b]:
                        want.append((i, j))
        report = antichain_verify([frames[k] for k in picks])
        assert report.comparable_pairs == tuple(want), picks
    # the symmetric route ran too
    assert listings


def test_antichain_lists_each_member_at_most_once(listings):
    G = [make_delta1(n) for n in range(3, 8)]
    assert antichain_verify(G).is_antichain
    assert listings and len(set(map(id, listings))) == len(listings)
    # each group stays on its poset, so later calls onto it list nothing more
    kept, count = [P._symmetry for P in G], len(listings)
    assert antichain_verify(G).is_antichain
    assert not any(is_leq(A, B) for A in G for B in G if A is not B)
    assert len(listings) == count
    assert all(P._symmetry is S for P, S in zip(G, kept))
    assert sum(S is not None for S in kept) == count
    # copies and pickles rebuild from the rows, without it
    assert all(copy.copy(P)._symmetry is None for P in G)


def test_short_searches_list_no_automorphisms(listings):
    # large groups, short searches: listing them cost up to 36 s on the fans
    def fan(k):
        return FinitePoset(["r"] + [f"m{i}" for i in range(k)], [("r", f"m{i}") for i in range(k)])

    def antichain(k):
        return FinitePoset([f"x{i}" for i in range(k)], [])

    for family in ([fan(60), fan(61)], [antichain(12), antichain(13)]):
        assert antichain_verify(family).comparable_pairs == ((0, 1),)
        assert all(P._symmetry is None for P in family)
    assert listings == []


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


def test_separating_formula_errors_name_unnamed_posets(fork):
    unnamed_fork = FinitePoset(["r", "a", "b"], [("r", "a"), ("r", "b")])
    for I, J, words in (
        ([unnamed_fork], [FinitePoset(["a", "b"], [])], "an unnamed poset is not rooted"),
        ([FinitePoset(["r", "a"], [("r", "a")])], [unnamed_fork], "an unnamed poset is not regular"),
        ([FinitePoset(["x"], [])], [fork], "an unnamed poset and poset V are comparable"),
    ):
        with pytest.raises(ValueError) as info:
            separating_formula(I, J)
        assert str(info.value).startswith(words) and "None" not in str(info.value)
