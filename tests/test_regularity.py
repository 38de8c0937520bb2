import tracemalloc
from collections import Counter

import pytest
import reference

from esakialab import regularity
from esakialab.heyting import dual_algebra, is_regularly_generated
from esakialab.poset_core import (
    FinitePoset,
    ParentMismatchError,
    PMorphism,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    p_morphism_violation,
)
from esakialab.poset_core.poset import collapse
from esakialab.regularity import (
    Partition,
    is_regular_bruteforce_morphism,
    is_regular_structural,
    is_stable_under_sim_infty,
    is_strongly_regular,
    morphism_regularity_report,
    quotient,
    quotient_map,
    rank_table,
    separation_equivalence_check,
    sim_infty,
    sim_n,
    sim_stabilization_index,
)


def test_partition_validates_blocks(c2):
    with pytest.raises(ValueError):
        Partition(c2, (0b01,))
    with pytest.raises(ValueError):
        Partition(c2, (0b01, 0b11))
    # an empty block would count toward is_discrete and quotient to a phantom point
    for blocks in ((0b01, 0, 0b10), (0, 0b11)):
        with pytest.raises(ValueError, match="empty block"):
            Partition(c2, blocks)
    part = Partition(c2, (0b11,))
    assert len(part) == 1 and not part.is_discrete
    assert part.same_block("r", "m")


def test_sim_levels_on_chains(c2, c3):
    # chains are trace-indiscernible at every level
    for P in (c2, c3):
        assert len(sim_n(P, 0)) == 1
        assert len(sim_infty(P)) == 1
        assert sim_stabilization_index(P) == 0


def test_sim_discrete_on_fork_and_antichain(fork, a2, w3):
    for P in (fork, a2, w3):
        assert sim_n(P, 0).is_discrete
        assert sim_infty(P).is_discrete


def test_sim_n_stops_at_the_limit_level(corpus7, monkeypatch):
    calls = [0]
    real = regularity._refine

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(regularity, "_refine", counting)
    for P in corpus7:
        index = sim_stabilization_index(P)
        calls[0] = 0
        assert sim_n(P, 10**12) == sim_infty(P), P
        # each refines up to the limit level, and once more to see it is stable
        assert calls[0] == 2 * (index + 1), P


def test_sim_negative_level_rejected(c2):
    with pytest.raises(ValueError):
        sim_n(c2, -1)


def test_diamond_collapses_to_point(diamond):
    part = sim_infty(diamond)
    assert part.blocks_as_labels() == [["o", "a", "b", "t"]]
    Q = quotient(diamond, part)
    assert Q.points == ("{o,a,b,t}",)


def test_quotient_keeps_singleton_labels(fork):
    Q = quotient(fork, sim_infty(fork))
    assert Q.points == ("r", "a", "b")
    assert Q.name == "V/~"
    assert Q == fork


def test_quotient_is_the_collapse_of_its_blocks(diamond, fork):
    merged = {
        "D4": FinitePoset(["o", "{a,b}", "t"], [("o", "{a,b}"), ("{a,b}", "t")]),
        "V": FinitePoset(["r", "{a,b}"], [("r", "{a,b}")]),
    }
    for P in (diamond, fork):
        middle = 1 << P.index("a") | 1 << P.index("b")
        rest = [1 << i for i in range(len(P)) if not middle >> i & 1]
        parts = [sim_n(P, 0), sim_infty(P), Partition(P, (rest[0], middle, *rest[1:]))]
        for part in parts:
            Q = quotient(P, part)
            assert Q == collapse(P, part.block_index(), Q.points)
        assert quotient(P, parts[-1]) == merged[P.name]


def test_quotient_rejects_foreign_partition(c2, a2):
    with pytest.raises(ParentMismatchError):
        quotient(a2, Partition(c2, (0b11,)))


def test_quotient_map_is_p_morphism(diamond, c3):
    for P in (diamond, c3):
        qm = quotient_map(P, sim_infty(P))
        assert p_morphism_violation(qm) is None
        assert qm.is_surjective


def test_fan_tower_stabilization():
    for n in range(1, 6):
        assert sim_stabilization_index(make_delta0(n)) == max(0, n - 1)


def test_fan_tower_limit_partition_discrete():
    for n in range(1, 5):
        F = make_delta0(n)
        assert sim_infty(F).is_discrete
        assert quotient(F, sim_infty(F)) == F


def test_fan_tower_sharpness():
    # one level below stabilization the partition is still coarse
    for n in (2, 3, 4):
        F = make_delta0(n)
        assert not sim_n(F, n - 2).is_discrete


def test_strongly_regular_fixtures(p1, c2, fork, diamond, w3):
    assert is_strongly_regular(p1)
    assert is_strongly_regular(fork)
    assert is_strongly_regular(w3)
    assert not is_strongly_regular(c2)
    assert not is_strongly_regular(diamond)


def test_strongly_regular_families():
    for n in (2, 3):
        assert is_strongly_regular(make_medvedev(n))
    # fan towers beyond the first are regular yet not strongly so
    assert is_strongly_regular(make_delta0(1))
    for n in (2, 3, 4):
        F = make_delta0(n)
        assert is_regular_structural(F) and is_stable_under_sim_infty(F)
        assert not is_strongly_regular(F)
    for n in (3, 4, 5):
        assert is_strongly_regular(make_delta1(n))
    # the starred ladder is regular at every level, the others fall off
    for n in (1, 2, 3, 4, 8):
        assert is_strongly_regular(make_ladder("R2", n))
    assert not is_strongly_regular(make_ladder("R0", 2))
    assert not is_strongly_regular(make_ladder("R1", 4))


def test_oracle_trio_on_small_corpus(corpus5):
    for P in corpus5:
        answers = {
            is_regular_structural(P),
            is_stable_under_sim_infty(P),
            is_regular_bruteforce_morphism(P),
        }
        assert len(answers) == 1


def test_trace_partitions_are_the_reference_strings_within_one_trace(corpus6):
    total = kept = 0
    for P in corpus6:
        traces = [P.m_mask(i) for i in range(len(P))]
        want = []
        for cls in reference._set_partitions([0] * len(P), 1, 0):
            total += 1
            block_trace = {}
            if all(block_trace.setdefault(c, t) == t for c, t in zip(cls, traces)):
                want.append(cls)
        got = list(regularity._trace_partitions([0] * len(P), 1, traces, [0]))
        assert got == want, P.up
        kept += len(want)
    assert (len(corpus6), total, kept) == (405, 68100, 16723)


def test_morphism_oracle_matches_all_kernels_sweep(corpus6):
    named = [make_medvedev(n) for n in (1, 2, 3)] + [make_delta0(n) for n in (0, 1)]
    named += [make_ladder(kind, n) for kind in ("R0", "R1") for n in (1, 2, 3)]
    named += [make_ladder("R2", n) for n in (1, 2)]
    assert max(len(P) for P in named) == regularity.BRUTEFORCE_LIMIT
    for P in corpus6 + named:
        assert is_regular_bruteforce_morphism(P) == reference.is_regular_bruteforce_all_kernels(P), P.up


def test_bruteforce_work_is_pinned(monkeypatch, corpus6):
    calls = [0]
    real = regularity.collapse

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, "collapse", counting)
    regular = sum(is_regular_bruteforce_morphism(P) for P in corpus6)
    assert (regular, calls[0]) == (35, 372)


def test_rank_table_fork(fork):
    rt = rank_table(fork)
    assert rt.as_labelled() == {
        "{}": 0,
        "{a}": 0,
        "{b}": 0,
        "{a,b}": 0,
        "{r,a,b}": 0,
    }
    assert rt.max_rank == 0


def test_rank_table_domain_is_generated_part(c2, diamond):
    # chains generate only the bounds, so the table stops there
    assert rank_table(c2).as_labelled() == {"{}": 0, "{r,m}": 0}
    assert rank_table(diamond).as_labelled() == {"{}": 0, "{o,a,b,t}": 0}


def test_rank_table_fan_tower():
    rt = rank_table(make_delta0(2))
    assert len(rt.domain) == len(rt.algebra.elements) == 29
    assert rt.max_rank == 1
    assert Counter(rt.as_labelled().values()) == {0: 19, 1: 10}
    top = rt.algebra.top
    assert top in rt and rt.rank(top) == 0


def test_rank_table_memory_bound():
    # R2@3 has |H| = 113; keeping every imp the levels try holds 113^2
    # entries and peaks at about 0.57 MB
    P = make_ladder("R2", 3)
    tracemalloc.start()
    try:
        assert len(rank_table(P).ranks) == 113
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000


def test_rank_table_on_large_ladders(monkeypatch):
    # the regulars of R2@n hold every principal upset: all of H at rank 0,
    # with nothing charged to the closure; listing the upsets is charged,
    # so each live algebra is built before the budget drops
    sizes = {5: 1873, 6: 7505}
    algebras = [(dual_algebra(make_ladder("R2", n)), size) for n, size in sizes.items()]
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "0")
    for H, size in algebras:
        rt = rank_table(H.base)
        assert rt.algebra is H
        assert len(rt.ranks) == len(rt.algebra) == size
        assert rt.max_rank == 0


def test_separation_equivalence_fixture_sweep(fork, diamond):
    F2 = make_delta0(2)
    for n in (0, 1, 2, None):
        check = separation_equivalence_check(F2, n)
        assert check.ok and check.witness is None
        assert bool(check)
    assert separation_equivalence_check(fork, 0).ok
    assert separation_equivalence_check(diamond, None).ok


def test_separation_witness_is_the_first_separating_least_element(fork, monkeypatch):
    # a partition lumping every point together fails on level 0's g's:
    # g(r) = {r,a,b}, g(a) = {a} and g(b) = {b}, so {a} separates r from a first
    monkeypatch.setattr(regularity, "sim_n", lambda P, n: Partition(P, (P.full_mask,)))
    check = separation_equivalence_check(fork, 0)
    assert check.witness == ("r", "a", 1 << fork.index("a"))


def test_separation_verdicts_do_not_depend_on_a_held_algebra(corpus6):
    # with the algebra held, every check reads its one regular closure
    levels = (0, 1, 2, None)
    for P in corpus6:
        fresh = [separation_equivalence_check(P, n) for n in levels]
        H = dual_algebra(P)
        is_regularly_generated(H)
        held = [separation_equivalence_check(P, n) for n in levels]
        assert rank_table(P).algebra is H
        assert held == fresh and all(fresh), P
        del H


def test_separation_equivalence_on_corpus(corpus5):
    for P in corpus5:
        assert separation_equivalence_check(P, None).ok
        assert separation_equivalence_check(P, 1).ok


def test_morphism_report_collapsing_fork(fork, c2):
    f = PMorphism.from_dict(fork, c2, {"r": "r", "a": "m", "b": "m"})
    rep = morphism_regularity_report(f)
    assert not rep.preserves_regulars
    assert not rep.preserves_polynomials


def test_morphism_report_chain_to_point(c2, p1):
    rep = morphism_regularity_report(
        PMorphism.from_dict(c2, p1, {"r": "x", "m": "x"})
    )
    assert rep.preserves_regulars and rep.preserves_polynomials


def test_morphism_report_identity(diamond):
    ident = PMorphism.from_dict(diamond, diamond, {x: x for x in diamond.points})
    rep = morphism_regularity_report(ident)
    assert rep.preserves_regulars and rep.preserves_polynomials


def test_morphism_report_requires_surjective(p1, c2):
    with pytest.raises(ValueError):
        morphism_regularity_report(PMorphism.from_dict(p1, c2, {"x": "m"}))


def test_morphism_report_requires_p_morphism(fork, c2):
    # monotone but fails the back condition
    f = PMorphism.from_dict(fork, c2, {"r": "r", "a": "m", "b": "r"})
    with pytest.raises(ValueError):
        morphism_regularity_report(f)
