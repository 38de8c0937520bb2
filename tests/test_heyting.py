import copy
import gc
import json
import pickle
import random
import tracemalloc
import weakref

import pytest

from esakialab import heyting, regularity
from esakialab.heyting import (
    FiniteHeytingAlgebra,
    TensorUndefinedError,
    boolean_core_iso_maximal,
    check_inqb_tensor_axioms,
    close_under,
    dual_algebra,
    dual_poset,
    duality_counit,
    duality_unit,
    generated_subalgebra,
    is_heyting_iso,
    is_leq,
    is_regularly_generated,
    principal_upset_views,
    regular_upsets,
)
from esakialab.jankov import _witness_terms
from esakialab.logic import SweepGuardError, format_formula, is_valid, parse
from esakialab.poset_core import (
    FinitePoset,
    PMorphism,
    make_ladder,
    make_medvedev,
)
from esakialab.poset_core.poset import _bits, _renumbered
from esakialab.regularity import (
    morphism_regularity_report,
    rank_table,
    separation_equivalence_check,
)

import reference
from corpus import is_isomorphic


def test_algebra_of_chain(c2):
    H = dual_algebra(c2)
    assert len(H) == 3
    m = 1 << c2.index("m")
    assert H.elements == (0, m, H.top)
    # implication table of the 3-chain
    assert H.imp(H.top, m) == m
    assert H.imp(m, 0) == 0
    assert H.imp(0, m) == H.top
    assert H.neg(m) == 0
    assert H.neg(0) == H.top


def _assert_imp_is_downset_complement(H, pairs):
    for u, v in pairs:
        assert H.imp(u, v) == H.top & ~H.base.down_mask_of(u & ~v), (H, u, v)


def test_imp_matches_downset_complement(corpus5):
    # M4 has 15 points, so its masks span two lookup tables
    for P in corpus5 + [make_medvedev(4)]:
        H = dual_algebra(P)
        _assert_imp_is_downset_complement(H, [(u, v) for u in H.elements for v in H.elements])


def test_imp_matches_downset_complement_across_three_tables():
    # R2@5 has 18 points: bits 16 and 17 sit in the third table
    H = dual_algebra(make_ladder("R2", 5))
    assert len(H.base) == 18
    rnd = random.Random(3)
    pairs = [(rnd.choice(H.elements), rnd.choice(H.elements)) for _ in range(3000)]
    assert any((u & ~v) >> 16 for u, v in pairs)
    _assert_imp_is_downset_complement(H, pairs)


def test_upset_views_match_the_induced_algebras(corpus6):
    # induced keeps the points in index order, so the induced algebra's
    # masks map back onto the base's bit by bit
    views = 0
    for B in corpus6:
        for K in principal_upset_views(B):
            H = dual_algebra(B.induced(K.top))
            back = dict(zip(H.elements, _renumbered(H.elements, [1 << i for i in _bits(K.top)])))
            assert (K.top, K.bot) == (back[H.top], back[H.bot]), (B, K.top)
            assert K.regulars == tuple(back[u] for u in H.regulars), (B, K.top)
            for u in H.elements:
                for v in H.elements:
                    assert K.imp(back[u], back[v]) == back[H.imp(u, v)], (B, K.top, u, v)
            views += 1
    assert views == 2307


def test_upset_views_answer_no_tensor(fork):
    # a view reads its base's tables; a tensor or symmetry read there would
    # belong to the base, not to the upset
    for K in principal_upset_views(fork):
        with pytest.raises(TensorUndefinedError):
            K.tensor_op(K.top, K.top)
        assert not hasattr(K, "domain_symmetry")


def test_canonical_element_order(fork):
    H = dual_algebra(fork)
    sizes = [u.bit_count() for u in H.elements]
    assert sizes == sorted(sizes)
    assert H.elements[0] == 0
    assert H.elements[-1] == H.top


def test_index_rejects_non_upsets(c2):
    H = dual_algebra(c2)
    r = 1 << c2.index("r")
    with pytest.raises(ValueError):
        H.index(r)


def test_regulars_fixtures(c2, fork, diamond):
    assert len(dual_algebra(fork).regulars) == 4
    HC2 = dual_algebra(c2)
    assert [HC2.element_label(u) for u in HC2.regulars] == ["{}", "{r,m}"]
    assert len(dual_algebra(diamond).regulars) == 2


def test_regular_elements_form_boolean_core(fork):
    H = dual_algebra(fork)
    for u in H.regulars:
        assert H.neg(H.neg(u)) == u
        # complemented: x meet neg x = 0, core-join with neg x = 1
        assert H.meet(u, H.neg(u)) == 0
        assert H.core_join(u, H.neg(u)) == H.top


def test_regular_upsets_topological_route_agrees(corpus6):
    for P in corpus6:
        H = dual_algebra(P)
        assert list(H.regulars) == regular_upsets(P)


def test_dual_poset_recovers_base(fork, c3, diamond):
    for P in (fork, c3, diamond):
        Q = dual_poset(dual_algebra(P))
        assert is_isomorphic(P, Q)


def test_duality_unit_is_order_iso(fork, diamond, a2):
    for P in (fork, diamond, a2):
        Q, mapping = duality_unit(P)
        assert sorted(mapping.values()) == sorted(Q.points)
        for x in P.points:
            for y in P.points:
                assert P.leq(x, y) == Q.leq(mapping[x], mapping[y])


def test_duality_counit_is_heyting_iso(fork, c2, diamond):
    for P in (fork, c2, diamond):
        H = dual_algebra(P)
        K, cmap = duality_counit(H)
        assert is_heyting_iso(H, K, cmap)


def test_boolean_core_trace_iso(fork, c2, diamond, w3):
    for P in (fork, c2, diamond, w3):
        report = boolean_core_iso_maximal(P)
        assert report.ok
        assert report.counterexample is None
        assert sorted(report.trace_map.values()) == sorted(
            report.inverse_map
        )


def test_generated_subalgebra_witnesses(fork):
    H = dual_algebra(fork)
    members = generated_subalgebra(H, H.regulars)
    terms = _witness_terms(H, H.regulars)
    assert len(members) == len(H)
    labelled = {H.element_label(u): format_formula(terms[u]) for u in members}
    assert labelled["{a,b}"] == "p1 | p2"
    assert labelled["{a}"] == "p1"
    assert labelled["{}"] == "p0"


def test_generated_subalgebra_matches_witness_terms(corpus6):
    # the term-free closure against the smallest-first term search
    for P in corpus6:
        H = dual_algebra(P)
        members = generated_subalgebra(H, H.regulars)
        assert members == tuple(sorted(_witness_terms(H, H.regulars), key=H.index)), P


def test_witness_terms_evaluate_to_their_elements(fork, w3):
    from esakialab.logic import eval_algebra

    for P in (fork, w3):
        H = dual_algebra(P)
        members = generated_subalgebra(H, H.regulars)
        terms = _witness_terms(H, H.regulars)
        mu = {f"p{H.index(u)}": u for u in H.regulars}
        for u in members:
            assert eval_algebra(H, mu, terms[u]) == u


def test_regular_generation_fixtures(p1, c2, fork, diamond):
    assert is_regularly_generated(dual_algebra(p1))
    assert is_regularly_generated(dual_algebra(fork))
    assert not is_regularly_generated(dual_algebra(c2))
    assert not is_regularly_generated(dual_algebra(diamond))


def test_regular_generation_memory_bound():
    # R2@3 has |H| = 113; a closure that keeps a term or a heap entry per
    # tried pair peaks at about 2.4 MB here
    H = dual_algebra(make_ladder("R2", 3))
    tracemalloc.start()
    try:
        assert is_regularly_generated(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_algebra_construction_memory_bound():
    # a 16-point antichain has 65,536 upsets; sorting them by a key that
    # builds a tuple of member indices per upset peaks at about 15 MB here
    P = FinitePoset([f"a{i}" for i in range(16)])
    tracemalloc.start()
    try:
        H = FiniteHeytingAlgebra(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(H) == 1 << 16
    assert peak < 10_000_000


def test_counit_finds_the_join_irreducibles_once(monkeypatch):
    calls = [0]
    real = heyting._join_irreducibles

    def counting(H):
        calls[0] += 1
        return real(H)

    monkeypatch.setattr(heyting, "_join_irreducibles", counting)
    duality_counit(dual_algebra(make_ladder("R2", 3)))
    assert calls[0] == 1


def test_regular_generation_on_large_ladders(monkeypatch):
    # every principal upset of R2@n is regular, so the closure stops at
    # its seeds and charges nothing; listing the upsets is charged, so the
    # algebras are built before the budget drops
    sizes = {5: 1873, 6: 7505}
    algebras = [(dual_algebra(make_ladder("R2", n)), size) for n, size in sizes.items()]
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "0")
    for H, size in algebras:
        assert len(H) == size
        assert is_regularly_generated(H)


def _four_4_chains() -> FinitePoset:
    return FinitePoset(
        [f"c{i}{j}" for i in range(4) for j in range(4)],
        [(f"c{i}{j}", f"c{i}{j + 1}") for i in range(4) for j in range(3)],
    )


def test_closure_memory_bound_on_a_non_generating_closure():
    # four disjoint 4-chains: |H| = 625 but about 23 |H| convex sets, so a
    # closure holding every difference u & ~v of a level at once would peak
    # at about 1.9 MB here. These seeds close on 400 elements after an
    # implication level; a level holds at most |P| g's, |P| h's and |P|^2
    # implications, and only the listing holds the 400 members
    H = dual_algebra(_four_4_chains())
    seeds = [H.elements[i] for i in (373, 66, 434, 313, 349)]
    tracemalloc.start()
    try:
        levels = close_under(H, seeds)
        members = generated_subalgebra(H, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(H), len(members), len(levels)) == (625, 400, 2)
    assert peak < 800_000


def test_closure_pairs_are_guarded(n6, monkeypatch):
    H = dual_algebra(n6)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "211")
    with pytest.raises(
        SweepGuardError,
        match=r"^close_under: .* = 212 steps, more than the budget of 211 \(ESAKIA_MAX_SWEEP\)$",
    ):
        is_regularly_generated(H)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "212")
    levels = close_under(H, H.regulars)
    assert (len(generated_subalgebra(H, H.regulars)), len(H), len(levels) - 1) == (12, 19, 1)
    assert not is_regularly_generated(H)


def test_member_listing_is_guarded(monkeypatch):
    # the seeds close at a charge of 1693; listing their 400 members joins
    # 14 distinct least elements into |H| = 625 sets at most
    H = dual_algebra(_four_4_chains())
    seeds = [H.elements[i] for i in (373, 66, 434, 313, 349)]
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "8749")
    with pytest.raises(
        SweepGuardError,
        match=r"^generated_subalgebra: .* = 8750 steps, more than the budget of 8749 \(ESAKIA_MAX_SWEEP\)$",
    ):
        generated_subalgebra(H, seeds)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "8750")
    assert len(generated_subalgebra(H, seeds)) == 400


def test_dual_algebra_is_one_live_object_per_poset(fork):
    H = dual_algebra(fork)
    assert dual_algebra(fork) is H
    # sharing goes by poset object: an equal poset builds its own algebra
    assert dual_algebra(FinitePoset(fork.points, fork.cover_pairs())) is not H
    link = weakref.ref(H)
    gc.disable()
    try:
        del H
        assert link() is None  # freed by its last reference, not by the collector
    finally:
        gc.enable()
    assert len(dual_algebra(fork)) == 5


def test_copies_and_pickles_leave_the_algebra_link_behind(fork):
    H = dual_algebra(fork)
    assert is_regularly_generated(H)
    for P in (pickle.loads(pickle.dumps(fork)), copy.deepcopy(fork), copy.copy(fork)):
        assert P == fork and P.name == fork.name and P._algebra is None
    K = pickle.loads(pickle.dumps(H))
    assert K.elements == H.elements and K.regular_closure == H.regular_closure


@pytest.fixture
def closure_calls(monkeypatch):
    # the algebra calls close_under through the heyting module, so every run is counted
    calls = [0]
    real = heyting.close_under

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(heyting, "close_under", counting)
    return calls


def test_only_ranks_and_generated_subalgebras_list_members(corpus5, monkeypatch):
    # the least elements answer regular generation, the pullback route and
    # the separation check without listing a level
    calls = [0]
    real = heyting._level_members

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(heyting, "_level_members", counting)
    monkeypatch.setattr(regularity, "_level_members", counting)
    for P in corpus5:
        H = dual_algebra(P)
        is_regularly_generated(H)
        identity = PMorphism(P, P, tuple(range(len(P))))
        assert morphism_regularity_report(identity).preserves_polynomials
        for n in (0, 1, None):
            assert separation_equivalence_check(P, n)
    assert calls[0] == 0
    rank_table(P)
    assert calls[0] == len(H.regular_closure)
    generated_subalgebra(H, H.regulars)
    assert calls[0] == len(H.regular_closure) + 1


def test_one_regular_closure_per_algebra(fork, closure_calls):
    H = dual_algebra(fork)
    assert is_regularly_generated(H)
    assert rank_table(fork).algebra is H
    assert H.tensor_defined()
    identity = PMorphism(fork, fork, tuple(range(len(fork))))
    assert morphism_regularity_report(identity).preserves_polynomials
    assert closure_calls[0] == 1
    with pytest.raises(TypeError):
        H.regular_closure[H.top] = 1


def test_rank_tables_own_their_ranks(fork):
    H = dual_algebra(fork)
    table = rank_table(fork)
    want = dict(table.ranks)
    table.ranks.clear()
    assert rank_table(fork).ranks == want == reference.rank_levels(H, H.regulars)


def test_tensor_on_fork(fork):
    H = dual_algebra(fork)
    assert H.tensor_defined()
    a = 1 << fork.index("a")
    b = 1 << fork.index("b")
    assert H.tensor_op(a, b) == H.top
    assert H.tensor_op(H.top, 0) == H.top
    assert H.tensor_op(a | b, 0) == a | b


def test_tensor_matches_pointwise_description(fork):
    H = dual_algebra(fork)
    for u in H.elements:
        for v in H.elements:
            assert H.tensor_op(u, v) == reference.tensor(H, u, v)


def test_tensor_keeps_no_memo():
    # a memo per (u, v) pair held 3.6 MB after all pairs of M4
    H = dual_algebra(make_medvedev(4))
    H.tensor_op(0, 0)
    tracemalloc.start()
    try:
        for u in H.elements:
            for v in H.elements:
                H.tensor_op(u, v)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept == 0


def test_tensor_restricted_to_core_is_core_join():
    P = make_medvedev(3)
    H = dual_algebra(P)
    for u in H.regulars:
        for v in H.regulars:
            assert H.tensor_op(u, v) == H.core_join(u, v)


def test_tensor_undefined_on_irregular(c2):
    H = dual_algebra(c2)
    with pytest.raises(TensorUndefinedError):
        H.tensor_op(0, 0)
    with pytest.raises(TensorUndefinedError):
        check_inqb_tensor_axioms(c2)


def test_tensor_axiom_sweep_is_guarded(fork, monkeypatch):
    # the fork's algebra has 5 elements: 5^4 = 625 implication-axiom checks
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "624")
    with pytest.raises(SweepGuardError, match=r"check_inqb_tensor_axioms.*625"):
        check_inqb_tensor_axioms(fork)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "625")
    assert check_inqb_tensor_axioms(fork).ok_except_printed_form


def test_validity_lists_automorphisms_inside_its_budget(monkeypatch):
    # a two-atom sweep over |H| elements lists for at most |H| nodes and
    # keeps at most one automorphism per |H| nodes; the antichain has 12!
    listings, original = [], heyting.list_automorphisms

    def recorded(P, budget):
        listings.append((budget, original(P, budget)))
        return listings[-1][1]

    monkeypatch.setattr(heyting, "list_automorphisms", recorded)
    antichain = FinitePoset([f"x{i}" for i in range(12)], [])
    cases = ((make_ladder("R2", 4), "(p -> q) -> p -> p", True), (antichain, "p -> q", False))
    for P, text, want in cases:
        H = dual_algebra(P)
        assert is_valid(H, parse(text), force=True) == want
        budget, (_, nodes, _) = listings.pop()
        assert budget == len(H) and nodes <= budget
        symmetry = H.domain_symmetry(False, budget)
        assert symmetry.every.bit_length() <= budget // len(H)
    assert not listings
    assert (len(dual_algebra(make_ladder("R2", 4))), len(dual_algebra(antichain))) == (465, 4096)


def test_tensor_axiom_report_on_trivial(p1):
    report = check_inqb_tensor_axioms(p1)
    assert report.ok_except_printed_form
    assert not report.printed_form_holds
    assert report.repaired_form_holds
    # first printed-form witness, elements coded bottom=0 top=1
    assert report.printed_implication_violations[0] == ((0, 1, 1, 0), (0, 1))
    assert ((1, 0, 0, 0), (1, 0)) in report.printed_implication_violations


def test_leq_fixtures(p1, c2, c3, fork, diamond):
    assert is_leq(c2, diamond)
    assert is_leq(c2, c2)
    assert not is_leq(fork, c2)
    assert not is_leq(fork, diamond) and not is_leq(diamond, fork)
    # the single point divides everything
    for B in (c2, c3, fork, diamond):
        assert is_leq(p1, B)


def test_algebra_json_shape(fork):
    H = dual_algebra(fork)
    obj = json.loads(H.to_json())
    assert set(obj) == {"base", "elements"}
    assert sorted(obj["elements"], key=lambda s: (len(s), s)) == obj["elements"]
    assert obj["base"]["points"] == ["r", "a", "b"]
