import copy
import math

import pytest
import reference

from esakialab import cli, heyting, jankov
from esakialab.budget import SweepGuardError
from esakialab.heyting import is_leq
from esakialab.jankov import antichain_verify
from esakialab.poset_core.morphisms import Symmetry
from esakialab.poset_core import (
    FinitePoset,
    PMorphism,
    ReductionError,
    apply_reduction,
    enumerate_reductions,
    iter_surjective_p_morphisms,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    p_morphism_violation,
    strong_regularization,
)
from esakialab.poset_core import morphisms
from esakialab.regularity import is_strongly_regular

from corpus import canonical_key, named_frames


def test_from_dict_and_validate(fork, c2):
    f = PMorphism.from_dict(fork, c2, {"r": "r", "a": "m", "b": "m"})
    assert f.is_surjective
    assert p_morphism_violation(f) is None


def test_monotonicity_violation(c2, a2):
    # r < m collapses onto an antichain point pair: not monotone
    f = PMorphism.from_dict(c2, a2, {"r": "u", "m": "v"})
    kind, _, _ = p_morphism_violation(f)
    assert kind == "monotone"


def test_back_condition_violation(c2):
    f = PMorphism.from_dict(c2, c2, {"r": "r", "m": "r"})
    kind, _, _ = p_morphism_violation(f)
    assert kind == "back"


def _sorted_surjections(P, Q):
    return sorted(iter_surjective_p_morphisms(P, Q), key=lambda f: f.mapping)


def test_surjective_morphism_counts(p1, c2, c3, fork, a2):
    expectations = [
        (fork, c2, 1),
        (c2, p1, 1),
        (p1, p1, 1),
        (a2, p1, 1),
        (c3, c2, 2),
    ]
    for src, tgt, want in expectations:
        got = _sorted_surjections(src, tgt)
        assert len(got) == want, (src.name, tgt.name)
        for f in got:
            assert p_morphism_violation(f) is None and f.is_surjective


def test_enumeration_matches_brute_force(c3, c2, corpus5):
    assert len(_sorted_surjections(c3, c2)) == len(
        reference.surjective_p_morphisms(c3, c2)
    ) == 2
    pairs = 0
    for P in corpus5:
        for Q in corpus5:
            if len(Q) > 4 or len(Q) ** len(P) > 256:
                continue
            pairs += 1
            assert _sorted_surjections(P, Q) == reference.surjective_p_morphisms(
                P, Q
            ), (P.up, Q.up)
    assert pairs == 1080


def _reference_leq(A, B) -> bool:
    """Some upset of B, found by testing every mask, has a reference surjection onto A."""
    n = len(B)
    for u in range(1 << n):
        if any(B.up[i] & ~u for i in range(n) if u >> i & 1):
            continue
        if reference.surjective_p_morphisms(B.induced(u), A):
            return True
    return False


def test_is_leq_matches_brute_force(corpus_levels):
    small = [P for level in corpus_levels[:4] for P in level]
    assert len(small) ** 2 == 576
    for A in small:
        for B in small:
            assert is_leq(A, B) == _reference_leq(A, B), (A.up, B.up)


def test_is_leq_matches_all_upsets_sweep(corpus5):
    # sources with one to five minimal points, so rooted and non-rooted ones
    assert len(corpus5) == 87
    for family in (corpus5, named_frames()):
        for A in family:
            for B in family:
                assert is_leq(A, B) == reference.is_leq_all_upsets(A, B), (A.up, B.up)


def test_generated_upsets_are_those_with_few_minimal_points(corpus6):
    for B in corpus6:
        minimal = {u: sum(B.down[i] & u == 1 << i for i in range(len(B))) for u in B.upsets()}
        for k in (1, 2, 3):
            got = morphisms._generated_upsets(B, k, math.inf)
            assert len(got) == len(set(got)), B
            assert sorted(got, key=int.bit_count) == got, B
            assert set(got) == {u for u, n in minimal.items() if n <= k}, (B, k)
    assert len(corpus6) == 405


class _CountingAssign(list):
    """An assignment list that counts its writes."""

    def __init__(self, items, count):
        super().__init__(items)
        self.count = count

    def __setitem__(self, i, q):
        self.count[0] += 1
        super().__setitem__(i, q)


@pytest.fixture
def search_nodes(monkeypatch):
    # the search writes one image per node below its root, so a node is a
    # root or a write
    nodes = [0]
    real = morphisms._extend

    def counting(P, Q, order, assign, *rest):
        nodes[0] += 1
        return real(P, Q, order, _CountingAssign(assign, nodes), *rest)

    monkeypatch.setattr(morphisms, "_extend", counting)
    return nodes


@pytest.fixture
def reference_nodes(monkeypatch):
    # the recursive reference search in its place, one call per node; it
    # has no countdown, so is_leq's budget is dropped
    calls = [0]
    real = reference.extend

    def counting(P, Q, order, assign, pos, image):
        calls[0] += 1
        return real(P, Q, order, assign, pos, image)

    def search(P, Q, order, assign, like, budget, symmetry=None):
        assert like is None and symmetry is None
        return counting(P, Q, order, assign, 0, 0)

    monkeypatch.setattr(reference, "extend", counting)
    monkeypatch.setattr(morphisms, "_extend", search)
    return calls


def _plain(A, B) -> bool:
    return morphisms._leq_search(A, B, math.inf)


def _plain_pairs(family) -> list[bool]:
    # every ordered pair of distinct members, searched plainly
    return [_plain(A, B) for A in family for B in family if A is not B]


def _check_search_work(nodes, corpus_levels):
    assert _plain_pairs([make_delta1(n) for n in (3, 4, 5)]) == [False] * 6
    assert nodes[0] == 31758

    nodes[0] = 0
    sources = [P for level in corpus_levels[:4] for P in level]
    targets = [P for level in corpus_levels[:5] for P in level]
    holds = sum(_plain(A, B) for A in sources for B in targets)
    assert (holds, nodes[0]) == (638, 26533)


def _check_rooted_search_work(nodes):
    # M4 lists small non-principal upsets before the principal ones
    assert _plain(make_medvedev(3), make_medvedev(4))
    assert nodes[0] == 8

    nodes[0] = 0
    assert _plain_pairs([make_delta1(n) for n in (3, 4, 5, 6)]) == [False] * 12
    assert nodes[0] == 473918


def _check_symmetric_work(nodes, top: int) -> tuple[int, int]:
    # the nodes of is_leq over every ordered pair of G3..G<top>, and of
    # antichain_verify on them, each on fresh posets, listings included
    G = [make_delta1(n) for n in range(3, top + 1)]
    nodes[0] = 0
    assert not any([is_leq(A, B) for A in G for B in G if A is not B])
    pairwise, nodes[0] = nodes[0], 0
    report = antichain_verify([make_delta1(n) for n in range(3, top + 1)])
    assert report.is_antichain
    assert report.regular_flags == report.strongly_regular_flags == (True,) * (top - 2)
    return pairwise, nodes[0]


def test_search_work_is_pinned(search_nodes, corpus_levels):
    _check_search_work(search_nodes, corpus_levels)
    # with one candidate per orbit once searches onto a poset prove long
    assert _check_symmetric_work(search_nodes, 5) == (4008, 4008)


def test_rooted_source_tries_only_principal_upsets(search_nodes):
    _check_rooted_search_work(search_nodes)
    assert _check_symmetric_work(search_nodes, 6) == (12231, 12231)


def test_recursive_reference_does_the_pinned_work(reference_nodes, corpus_levels):
    _check_search_work(reference_nodes, corpus_levels)
    reference_nodes[0] = 0
    _check_rooted_search_work(reference_nodes)


def test_search_loop_matches_recursive_reference(corpus5):
    G = [make_delta1(n) for n in (3, 4, 5)]
    runs = found = 0
    for family in (corpus5, G):
        for A in family:
            for B in family:
                # B onto A from every upset of B, as is_leq and the full search start it
                order = morphisms._top_down(B)
                for u in morphisms._generated_upsets(B, len(B), math.inf):
                    args = (B, A, [i for i in order if u >> i & 1])
                    search = morphisms._extend(*args, [-1] * len(B), None, [math.inf])
                    got = [tuple(a) for a in search]
                    want = [tuple(a) for a in reference.extend(*args, [-1] * len(B), 0, 0)]
                    assert got == want, (A.up, B.up, u)
                    runs, found = runs + 1, found + len(got)
    assert (runs, found) == (82323, 8107)


def test_search_on_a_chain_past_the_recursion_limit():
    # the search goes one point deeper per point of the chain
    points = [f"c{i}" for i in range(1200)]
    chain = FinitePoset(points, list(zip(points, points[1:])))
    (f,) = iter_surjective_p_morphisms(chain, chain)
    assert f.mapping == tuple(range(1200))


def test_automorphism_listing_matches_permutation_sweep(corpus6):
    for P in corpus6 + [make_medvedev(3), make_delta0(1), make_delta1(3)]:
        maps, nodes, finished = morphisms.list_automorphisms(P, 10**6)
        assert finished and nodes <= 10**6
        assert sorted(maps) == reference.automorphisms(P), P


def test_automorphism_listing_work_is_pinned():
    antichain = FinitePoset([f"x{i}" for i in range(12)], [])
    counts = {
        P.name: morphisms.list_automorphisms(P, 10**5)[1:]
        for P in (make_medvedev(4), make_medvedev(5), make_delta1(5), make_ladder("R2", 4))
    }
    assert counts == {
        "medvedev4": (328, True), "medvedev5": (3445, True), "G5": (6996, True),
        "R2@4": (88, True),
    }
    assert len(morphisms.list_automorphisms(make_medvedev(4), 328)[0]) == 23
    # a budget that runs out keeps what it found: 12! automorphisms here
    maps, nodes, finished = morphisms.list_automorphisms(antichain, 500)
    assert (nodes, finished) == (500, False)
    assert maps and all(sorted(g) == list(range(12)) for g in maps)
    assert morphisms.list_automorphisms(make_medvedev(4), 327)[1:] == (327, False)
    assert morphisms.list_automorphisms(FinitePoset([]), 0) == ((), 0, True)
    # the largest group and the widest set of maximal points the key prune handles
    assert morphisms.list_automorphisms(make_delta1(6), 10**5)[1:] == (54019, True)
    assert morphisms.list_automorphisms(make_ladder("R2", 6), 10**5)[1:] == (376, True)


def test_automorphism_listing_budget_counts_down():
    for P in (make_medvedev(3), make_delta1(3), make_ladder("R2", 4)):
        full, total, finished = morphisms.list_automorphisms(P, 10**6)
        assert finished
        for b in range(total + 2):
            maps, nodes, finished = morphisms.list_automorphisms(P, b)
            assert (nodes, finished) == (min(b, total), b >= total), (P, b)
            assert maps == full[: len(maps)], (P, b)


def test_is_leq_is_the_search_module_function(c2):
    assert heyting.is_leq is jankov.is_leq is cli.is_leq is morphisms.is_leq
    empty = FinitePoset([])
    assert not is_leq(empty, c2) and not is_leq(empty, empty)


def test_chain_collapses_onto_a_shorter_chain(c3, c2):
    # below z's image m, y's candidates are r (new) and m, onto which y
    # collapses: up(m) is f(strict up(y)) with nothing added
    maps = [f.mapping for f in iter_surjective_p_morphisms(c3, c2)]
    assert maps == [(0, 0, 1), (0, 1, 1)]


def test_is_leq_charges_one_countdown_over_all_upsets(monkeypatch):
    # G3 <= F3 is false, so every principal upset of F3 is searched out
    A, B = make_delta1(3), make_delta0(3)
    writes = []
    real = morphisms._extend

    def counting(P, Q, order, assign, *rest):
        writes.append([0])
        return real(P, Q, order, _CountingAssign(assign, writes[-1]), *rest)

    monkeypatch.setattr(morphisms, "_extend", counting)
    assert not is_leq(A, B)
    total = sum(count for count, in writes)
    # four upsets assign points: a countdown per upset would not refuse
    assert total == 224 and max(count for count, in writes) == 104
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(total))
    assert not is_leq(A, B)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(total - 1))
    message = f"is_leq: search nodes = {total} nodes, more than the budget of {total - 1} "
    with pytest.raises(SweepGuardError, match="^" + message):
        is_leq(A, B)


def test_is_leq_counts_its_listing_in_the_one_countdown(monkeypatch):
    # G6 <= G8 is false after 113,147 nodes: 15^3 plain, 3,375 listing
    # Aut(G6), cut there, and 106,397 with one candidate per orbit
    G8 = make_delta1(8)

    def refused(A, budget):
        monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(budget))
        with pytest.raises(SweepGuardError, match=f"^is_leq: search nodes = {budget + 1} nodes, "):
            is_leq(A, G8)

    # a listing that this countdown would cut is not kept
    refused(G6 := make_delta1(6), 5000)
    assert G6._symmetry is None
    refused(G6 := make_delta1(6), 113146)
    assert G6._symmetry is not None
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "113147")
    assert not is_leq(make_delta1(6), G8)
    # a later call onto G6 starts from the group it keeps
    refused(G6, 106396)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "106397")
    assert not is_leq(G6, G8)


def test_countdown_leaves_minus_one_or_what_is_unspent(monkeypatch):
    # G3 <= F3 searches out 224 nodes over F3's principal upsets; G3 onto
    # itself stops at its first surjection
    G3, F3 = make_delta1(3), make_delta0(3)
    runs = []
    for A, B in ((G3, F3), (G3, G3)):
        order = morphisms._top_down(B)
        for u in morphisms._generated_upsets(B, 1, math.inf):
            if u.bit_count() >= len(A):
                runs.append((B, A, [i for i in order if u >> i & 1]))

    def first(run, b):
        # the nodes a run visits up to its first yield or its end, and what it found
        nodes, budget = [0], [b]
        assign = _CountingAssign([-1] * len(run[0]), nodes)
        search = morphisms._extend(*run, assign, None, budget)
        found = next(search, None)
        found = found and tuple(found)
        search.close()
        return nodes[0], budget[0], found

    whole = [first(run, math.inf) for run in runs]
    assert sum(nodes for nodes, _, found in whole if found is None) == 224
    assert any(found for _, _, found in whole)
    for b in range(226):
        monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(b))
        if b >= 224:
            assert not is_leq(G3, F3)
        else:
            with pytest.raises(SweepGuardError, match=f"^is_leq: search nodes = {b + 1} nodes, "):
                is_leq(G3, F3)
        for run, (need, _, want) in zip(runs, whole):
            if b >= need:
                assert first(run, b) == (need, b - need, want), b
            else:
                assert first(run, b) == (b, -1, None), b


def test_a_lower_cap_refuses_and_never_answers_no():
    # G3 <= F3 is false after 224 nodes; a cap below that is refused even
    # though it is below ESAKIA_MAX_SWEEP
    G3, F3 = make_delta1(3), make_delta0(3)
    for b in range(224):
        with pytest.raises(SweepGuardError, match=f"^is_leq: search nodes = {b + 1} nodes, "):
            morphisms._is_leq(G3, F3, b)
        assert morphisms._leq_search(G3, F3, b) is None
    assert morphisms._is_leq(G3, F3, 224) is False


def test_search_with_symmetry_keeps_the_plain_verdict(corpus5):
    # Aut(A) whole, its first map only and its first half: any set of
    # automorphisms keeps the verdict
    family = corpus5 + named_frames()
    plain = [[_plain(A, B) for B in family] for A in family]
    for A, row in zip(family, plain):
        maps, _, finished = morphisms.list_automorphisms(A, 10**6)
        assert finished
        for listing in (maps, maps[:1], maps[: len(maps) // 2]):
            symmetry = Symmetry(range(len(A)), listing)
            got = [morphisms._leq_search(A, B, math.inf, symmetry) for B in family]
            assert got == row, (A.up, len(listing))
    assert (len(family) ** 2, sum(map(sum, plain))) == (10404, 1255)
    # is_leq on copies, as its rule lists, then with each copy keeping its whole group
    copies = [copy.copy(A) for A in family]
    assert [[is_leq(A, B) for B in family] for A in copies] == plain
    assert sum(A._symmetry is not None for A in copies) == 90
    for A in copies:
        A._symmetry = Symmetry(range(len(A)), morphisms.list_automorphisms(A, 10**6)[0])
    assert [[is_leq(A, B) for B in family] for A in copies] == plain


def test_countdown_is_read_again_after_each_yield(c3, c2):
    # C3 maps onto C2 twice in five nodes; the first yield comes at the third
    budget = [10]
    search = morphisms._extend(c3, c2, morphisms._top_down(c3), [-1] * 3, None, budget)
    assert tuple(next(search)) == (0, 0, 1) and budget == [7]
    budget[0] = 0
    assert next(search, None) is None and budget == [-1]


def test_alpha_reduction_on_chain(c2):
    # r has the single cover m with m's upset = r's strict upset
    reds = enumerate_reductions(c2)
    assert ("alpha", "r", "m") in reds
    Q, f = apply_reduction(c2, "alpha", "r", "m")
    assert len(Q) == 1
    assert p_morphism_violation(f) is None and f.is_surjective


def test_beta_reduction_on_antichain(a2):
    reds = enumerate_reductions(a2)
    assert ("beta", "u", "v") in reds and ("beta", "v", "u") in reds
    Q, f = apply_reduction(a2, "beta", "u", "v")
    assert len(Q) == 1
    assert p_morphism_violation(f) is None


def test_beta_reduction_on_fork(fork):
    Q, f = apply_reduction(fork, "beta", "a", "b")
    assert len(Q) == 2
    assert p_morphism_violation(f) is None and f.is_surjective
    # the image is a 2-chain
    assert sorted(len(list(filter(None, (Q.up[i] >> j & 1 for j in range(2))))) for i in range(2)) == [1, 2]


def test_reduction_side_condition_enforced(c3):
    with pytest.raises(ReductionError):
        apply_reduction(c3, "alpha", "x", "z")


def test_fan_tower_reductions_are_maximal_collapses():
    F1 = make_delta0(1)
    reds = enumerate_reductions(F1)
    assert len(reds) == 6
    tops = {"a0", "b0", "c0"}
    for kind, x, y in reds:
        assert kind == "beta"
        assert {x, y} <= tops


def test_reductions_of_regular_poset_collapse_maximals(corpus6):
    from esakialab.regularity import is_regular_structural

    for P in corpus6:
        if not is_regular_structural(P):
            continue
        maximal = P.maximal_mask
        for kind, x, y in enumerate_reductions(P):
            assert maximal >> P.index(x) & 1
            assert maximal >> P.index(y) & 1


def test_strong_regularization_fixtures(p1, c2, diamond):
    star, f = strong_regularization(p1)
    assert star == p1
    assert f.is_surjective

    star, f = strong_regularization(c2)
    assert len(star) == 3
    assert is_strongly_regular(star)
    assert p_morphism_violation(f) is None and f.is_surjective

    star, f = strong_regularization(diamond)
    assert len(star) == 7
    assert is_strongly_regular(star)
    assert p_morphism_violation(f) is None and f.is_surjective


def test_starred_ladder_matches_double_rail():
    for levels in (2, 3):
        plain = make_ladder("R0", levels)
        double = make_ladder("R2", levels)
        star, _ = strong_regularization(plain)
        assert canonical_key(star) == canonical_key(double)
    for levels in (4, 5, 6):
        plain = make_ladder("R0", levels)
        star, _ = strong_regularization(plain)
        assert len(star) == len(make_ladder("R2", levels))
        assert is_strongly_regular(star)


def test_double_rail_collapses_onto_plain():
    for levels in (2, 3, 4):
        plain = make_ladder("R0", levels)
        double = make_ladder("R2", levels)
        # stars are maximal, so they must land on maximal points of the image
        assignment = {p: p for p in plain.points}
        for i in range(levels - 1):
            assignment[f"c{i}"] = "a0"
            assignment[f"d{i}"] = "b0"
        f = PMorphism.from_dict(double, plain, assignment)
        assert p_morphism_violation(f) is None and f.is_surjective
