"""The fast paths against the literal reference routes."""
import math
import random
from collections import Counter
from functools import partial

import pytest
import reference
from corpus import posets_by_size

from esakialab.heyting import (
    _join_irreducibles,
    close_under,
    dual_algebra,
    dual_poset,
    duality_counit,
    generated_subalgebra,
    is_regularly_generated,
    tensor_pointwise,
)
from esakialab.logic import (
    FormulaSyntaxError,
    Team,
    _lex,
    atoms,
    compile_formulas,
    dnf_inquisitive,
    enumerate_formulas,
    eval_algebra,
    format_formula,
    is_dna_valid,
    is_valid,
    ml_proxy_formulas,
    parse,
    refutes,
    sample_formulas,
    stage_plan,
    team_eval,
    team_valid,
)
from esakialab.poset_core import (
    FinitePoset,
    OrderConstructionError,
    PMorphism,
    apply_reduction,
    depth_width,
    iter_surjective_p_morphisms,
    enumerate_reductions,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    p_morphism_violation,
    strong_regularization,
)
from esakialab.poset_core.poset import _renumbered
from esakialab.regularity import (
    morphism_regularity_report,
    quotient,
    rank_table,
    separation_equivalence_check,
    sim_infty,
    sim_n,
)

# the empty and one-world teams are covered by the random 3-atom teams
ONE_ATOM_TEAMS = ([1], [0, 1])


def test_one_atom_tensor_corpus_matches_reference():
    corpus = enumerate_formulas(["p"], 7, with_tensor=True)
    assert len(corpus) == 26823
    for f in corpus:
        assert team_valid(f, 1) == reference.team_valid(f, atoms(f), 1), f
        for rows in ONE_ATOM_TEAMS:
            assert team_eval(Team.of(("p",), rows), f) == reference.team_eval(("p",), rows, f), (f, rows)


@pytest.mark.parametrize("names", [("p", "q"), ("p", "q", "r")])
def test_tensor_samples_at_k3_match_reference(names):
    for f in sample_formulas(names, 9, 40, seed=7, with_tensor=True):
        want = reference.team_valid(f, atoms(f), 3)
        assert team_valid(f, 3, force=True) == want, f


def test_random_three_atom_teams_match_reference():
    rnd = random.Random(11)
    names = ("p", "q", "r")
    for f in sample_formulas(names, 11, 150, seed=3, with_tensor=True):
        for _ in range(4):
            rows = [w for w in range(8) if rnd.random() < 0.5]
            assert team_eval(Team.of(names, rows), f) == reference.team_eval(names, rows, f), (f, rows)


def test_eval_algebra_matches_reference_on_small_corpus():
    rnd = random.Random(5)
    plain = sample_formulas(["p", "q"], 11, 30, seed=1)
    tensor = sample_formulas(["p", "q"], 9, 30, seed=2, with_tensor=True)
    checked = 0
    for level in posets_by_size(5):
        for P in level:
            H = dual_algebra(P)
            for f in plain + (tensor if H.tensor_defined() else []):
                for _ in range(3):
                    mu = {"p": rnd.choice(H.elements), "q": rnd.choice(H.elements)}
                    assert eval_algebra(H, mu, f) == reference.eval_algebra(H, mu, f), (P, f)
                    checked += 1
    assert checked > 87 * 30 * 3


def test_validity_matches_reference_sweep(corpus5):
    # the reference sweeps the whole algebra, its elements and its regulars,
    # so both sweeps' split into component algebras is checked too
    plain = sample_formulas(["p"], 9, 20, seed=4) + sample_formulas(["p", "q"], 9, 20, seed=5)
    tensor = sample_formulas(["p", "q"], 7, 20, seed=6, with_tensor=True)
    verdicts = Counter()
    for P in corpus5:
        H = dual_algebra(P)
        for f in plain + (tensor if H.tensor_defined() else []):
            valid, dna = is_valid(H, f), is_dna_valid(H, f)
            assert valid == reference.is_valid(H, f, H.elements), (P, f)
            assert dna == reference.is_valid(H, f, H.regulars), (P, f)
            verdicts[valid, dna] += 1
    assert len(corpus5) == 87
    assert verdicts == {(False, False): 1995, (False, True): 40, (True, True): 1625}


def _plain_valid(H, f, regular: bool) -> bool:
    prog = compile_formulas([f])
    domain = H.regulars if regular else H.elements
    return not refutes(H, domain, stage_plan(prog, prog.names, prog.roots[0]), [math.inf])


def test_orbit_sweep_matches_the_plain_sweep(corpus5):
    # the plain sweep reads the whole algebra, so the orbit sweep on each
    # component algebra is checked as well; four atoms only
    # where the plain sweep has at most 16^4 valuations
    two = sample_formulas(["p", "q"], 9, 12, seed=41) + [
        parse("(p -> q) | (q -> p)"),
        parse("~p | ~~p | q"),
    ]
    three = sample_formulas(["p", "q", "r"], 11, 8, seed=42) + list(ml_proxy_formulas()[:2])
    four = sample_formulas(["p", "q", "r", "s"], 13, 6, seed=43) + [ml_proxy_formulas()[2]]
    tensor = sample_formulas(["p", "q", "r"], 9, 6, seed=44, with_tensor=True)
    verdicts = Counter()
    for P in corpus5:
        H = dual_algebra(P)
        some = two + three + (tensor if H.tensor_defined() else [])
        for regular, check in ((False, is_valid), (True, is_dna_valid)):
            size = len(H.regulars if regular else H.elements)
            for f in some + (four if size <= 16 else []):
                got = check(H, f, force=True)
                assert got == _plain_valid(H, f, regular), (P, f, regular)
                verdicts[regular, got] += 1
    assert verdicts == {
        (False, False): 1529, (False, True): 1159, (True, False): 1545, (True, True): 1199
    }


class _LoggedImp:
    """An algebra's operations for refutes, logging imp's left argument."""

    def __init__(self, H):
        self.top, self.bot, self.tensor_op, self.imp_of = H.top, H.bot, H.tensor_op, H.imp
        self.lefts = []

    def imp(self, u, v):
        self.lefts.append(u)
        return self.imp_of(u, v)


def _leaves(H, domain, target: str, symmetry):
    """The verdict of p -> q -> r -> target and the valuations the sweep
    reached, as index triples: each leaf values r -> target, then q -> .,
    then p -> ., so imp's left arguments give r, q, p in turn."""
    logged = _LoggedImp(H)
    prog = compile_formulas([parse(f"p -> q -> r -> {target}")])
    plan = stage_plan(prog, prog.names, prog.roots[0])
    found = refutes(logged, domain, plan, [math.inf], symmetry)
    place = {u: i for i, u in enumerate(domain)}
    lefts = [place[u] for u in logged.lefts]
    return found, [(lefts[i + 2], lefts[i + 1], lefts[i]) for i in range(0, len(lefts), 3)]


def test_orbit_sweep_reaches_each_orbits_least_valuation(corpus5):
    # The least valuation of each orbit, and so the first refuting
    # valuation of the plain sweep, must be reached (on domains of at most
    # 20 values). A rule that skipped values sent to a later place would be
    # sound as well, but would reach other valuations.
    groups = 0
    for P in corpus5 + [make_medvedev(3)]:
        H = dual_algebra(P)
        for regular in (False, True):
            domain = H.regulars if regular else H.elements
            symmetry = H.domain_symmetry(regular, len(domain) ** 2)
            if symmetry is None or len(domain) > 20:
                continue
            groups += 1
            place = {u: i for i, u in enumerate(domain)}
            group = [
                [place[v] for v in _renumbered(domain, [1 << q for q in g])]
                for g in reference.automorphisms(P)
            ]
            _, every = _leaves(H, domain, "r", None)
            _, reached = _leaves(H, domain, "r", symmetry)
            least = {min([t] + [tuple(g[i] for i in t) for g in group]) for t in every}
            assert least <= set(reached) <= set(every), (P, regular)
            assert len(reached) < len(every)
            plain, symmetric = _leaves(H, domain, "bot", None), _leaves(H, domain, "bot", symmetry)
            assert plain[0] == symmetric[0] and plain[1][-1] == symmetric[1][-1], (P, regular)
    assert groups == 92


def test_tensor_matches_regular_pairs_on_small_corpus():
    pairs = defined = 0
    for P in [P for level in posets_by_size(5) for P in level]:
        H = dual_algebra(P)
        gated = H.tensor_defined()
        for u in H.elements:
            for v in H.elements:
                want = reference.tensor(H, u, v)
                assert tensor_pointwise(P, u, v) == want, (P, u, v)
                if gated:
                    assert H.tensor_op(u, v) == want, (P, u, v)
                    defined += 1
                pairs += 1
    assert (pairs, defined) == (11992, 2058)


def test_join_irreducibles_match_primality_sweep(corpus7):
    named = [make_medvedev(3), make_delta0(1), make_delta1(3)]
    for P in corpus7 + named:
        H = dual_algebra(P)
        assert _join_irreducibles(H) == reference.join_irreducibles(H), P
    assert len(corpus7) == 2450


def test_regulars_match_the_double_negation_sweep(corpus7):
    # in order: jankov --json lists its atom map in the order of H.regulars;
    # M4, R2@5 and M5 have 15, 18 and 31 points, so masks of 2 to 4 bytes
    named = [make_medvedev(n) for n in (2, 3, 4, 5)]
    named += [make_delta0(n) for n in (1, 2, 3)] + [make_delta1(n) for n in (3, 4, 5)]
    named += [make_ladder("R1", 8), make_ladder("R2", 3), make_ladder("R2", 5)]
    for P in corpus7 + named:
        H = dual_algebra(P)
        assert H.regulars == reference.regulars(H), P
    assert len(corpus7) == 2450


def test_join_irreducibles_of_full_upset_algebras_are_the_principal_upsets():
    # beyond the reach of the O(|H|^3) primality sweep
    for P in (make_ladder("R2", 5), make_ladder("R2", 6), make_medvedev(5)):
        H = dual_algebra(P)
        assert _join_irreducibles(H) == sorted(set(P.up), key=H.index), P


def _disjoint_chains(count: int, length: int) -> FinitePoset:
    points = [f"c{i}{j}" for i in range(count) for j in range(length)]
    covers = [(f"c{i}{j}", f"c{i}{j + 1}") for i in range(count) for j in range(length - 1)]
    return FinitePoset(points, covers)


def _ranks_from_levels(H, levels) -> dict[int, int]:
    # u is in level k iff g_k(x) <= u for each x in u: u is then the join of those g's
    ranks = {}
    for u in H.elements:
        points = [x for x in range(len(H.base)) if u >> x & 1]
        for k, g in enumerate(levels):
            if all(g[x] & ~u == 0 for x in points):
                ranks[u] = k
                break
    return ranks


def test_closure_matches_pairwise_reference(corpus7):
    named = [make_medvedev(n) for n in (2, 3, 4)]
    named += [make_delta0(n) for n in (1, 2, 3)] + [make_delta1(n) for n in (3, 4, 5)]
    named += [make_ladder("R1", 8), make_ladder("R2", 3), make_ladder("R2", 4)]
    rnd = random.Random(17)
    for P in corpus7 + named:
        H = dual_algebra(P)
        levels = reference.rank_levels(H, H.regulars)
        assert rank_table(P).ranks == levels, P
        assert is_regularly_generated(H) == (len(levels) == len(H)), P
        subsets = [rnd.sample(H.elements, min(len(H), rnd.randint(1, 3))) for _ in range(3)]
        for seeds in (H.regulars, *subsets):
            want = reference.generated_subalgebra(H, seeds)
            ranks = _ranks_from_levels(H, close_under(H, seeds))
            assert ranks == reference.rank_levels(H, seeds), (P, seeds)
            assert generated_subalgebra(H, seeds) == tuple(sorted(want, key=H.index)), (P, seeds)
    assert len(corpus7) == 2450
    # closures that stop short of H after an implication level
    H = dual_algebra(_disjoint_chains(4, 4))
    cases = [(H, [H.elements[i] for i in (373, 66, 434, 313, 349)], 400)]
    H = dual_algebra(_disjoint_chains(5, 5))
    rnd = random.Random(5)
    cases += [(H, rnd.sample(H.elements, 6), 660), (H, rnd.sample(H.elements, 6), 484)]
    for H, seeds, size in cases:
        ranks = _ranks_from_levels(H, close_under(H, seeds))
        assert len(ranks) == size and max(ranks.values()) > 0
        assert ranks == reference.rank_levels(H, seeds), seeds
        assert len(generated_subalgebra(H, seeds)) == size


def test_separation_matches_the_element_wise_check(corpus6):
    for P in corpus6:
        H = dual_algebra(P)
        ranks = reference.rank_levels(H, H.regulars)
        for n in (0, 1, 2, 3, 4, None):
            part = sim_infty(P) if n is None else sim_n(P, n)
            want = reference.separation_failure(P, ranks, n, part)
            check = separation_equivalence_check(P, n)
            assert (check.ok, check.witness and check.witness[:2]) == (want is None, want), (P, n)
    assert len(corpus6) == 405


def test_generated_pullback_matches_the_member_sets(corpus5):
    members = {}
    for P in corpus5:
        H = dual_algebra(P)
        members[P] = reference.generated_subalgebra(H, H.regulars)
    verdicts = Counter()
    for S in corpus5:
        for T in corpus5:
            if len(T) > len(S):
                continue
            for f in iter_surjective_p_morphisms(S, T):
                want = reference.pulls_back_onto(f, members[S], members[T])
                assert morphism_regularity_report(f).preserves_polynomials == want, f
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False]
    assert sum(verdicts.values()) == 2766


def _assert_label_constructor_agrees(Q):
    # the label-pair constructor, fed Q's own covers, is the reference
    R = FinitePoset(Q.points, Q.cover_pairs(), name=Q.name)
    got = (Q.points, Q.up, Q.down, Q.maximal_mask, Q.name)
    assert got == (R.points, R.up, R.down, R.maximal_mask, R.name), Q


def test_row_built_posets_match_the_label_constructor(corpus7):
    named = [make_medvedev(n) for n in (2, 3, 4)] + [make_delta0(n) for n in (1, 2)]
    named += [make_delta1(n) for n in (3, 4)] + [make_ladder(k, 4) for k in ("R0", "R1", "R2")]
    # labels that already hold a* and a**, so each star of strong_regularization is renamed
    named += [
        FinitePoset(["a", "a*", "a**", "b"], [("a", "a*"), ("a*", "a**"), ("a", "b")], "stars"),
        FinitePoset(["a**", "a*", "a", "r"], [("a", "a*"), ("a", "a**"), ("r", "a")], "stars"),
    ]
    reductions = 0
    for P in corpus7 + named:
        H = dual_algebra(P)
        Q = dual_poset(H)
        _assert_label_constructor_agrees(Q)
        gens = _join_irreducibles(H)
        _, counit = duality_counit(H)
        for u in H.elements:
            want = 0
            for a in gens:
                if H.leq(a, u):
                    want |= 1 << Q.index(f"f{H.index(a)}")
            assert counit[u] == want, (P, u)
        _assert_label_constructor_agrees(quotient(P, sim_infty(P)))
        _assert_label_constructor_agrees(quotient(P, sim_n(P, 0)))
        star, retraction = strong_regularization(P)
        _assert_label_constructor_agrees(star)
        assignment = {p: p for p in P.points}
        for i, p in enumerate(P.points):
            if P.strict_up(i):
                least_max = min(j for j in range(len(P)) if P.m_mask(i) >> j & 1)
                # p*, with one more * while that label is taken
                label = p + "*"
                while label in assignment:
                    label += "*"
                assignment[label] = P.points[least_max]
        assert retraction.mapping == PMorphism.from_dict(star, P, assignment).mapping, P
        for mask in P.components() + list(dict.fromkeys(P.up)):
            _assert_label_constructor_agrees(P.induced(mask))
        if len(P) <= 5 and P.name is None:
            for kind, x, y in enumerate_reductions(P):
                _assert_label_constructor_agrees(apply_reduction(P, kind, x, y)[0])
                reductions += 1
    assert len(corpus7) == 2450 and reductions == 539


def test_frame_families_match_their_label_pair_definitions():
    cases = [(make_medvedev, reference.medvedev, n) for n in range(1, 6)]
    cases += [(make_delta0, reference.delta0, n) for n in [*range(40), 200]]
    cases += [(make_delta1, reference.delta1, n) for n in range(3, 40)]
    for kind in ("R0", "R1", "R2"):
        build, define = partial(make_ladder, kind), partial(reference.ladder, kind)
        cases += [(build, define, n) for n in range(1, 30)]
    for build, define, n in cases:
        P, R = build(n), define(n)
        assert (P.points, P.up, P.name) == (R.points, R.up, R.name), R.name


def test_upsets_come_in_canonical_order(corpus7):
    named = [make_medvedev(4), make_delta0(3), make_delta1(5), make_ladder("R2", 6)]
    # listed top first, so the "in" branch runs 1100 points deep
    chain = FinitePoset(
        [f"c{i}" for i in range(1100)], [(f"c{i + 1}", f"c{i}") for i in range(1099)]
    )
    for P in corpus7 + named + [chain]:
        assert P.upsets() == reference.upsets(P), P
    assert len(corpus7) == 2450


def _named_frames(*fixtures):
    named = [make_medvedev(n) for n in (2, 3, 4)] + [make_delta0(n) for n in (1, 2, 3)]
    named += [make_delta1(n) for n in (3, 4, 5, 6)]
    named += [make_ladder(k, n) for k in ("R0", "R1", "R2") for n in (3, 4, 5)]
    return named + list(fixtures)


def test_kept_covers_match_the_minimal_points_above(corpus7, p1, c2, c3, a2, fork, w3, diamond, n6):
    # a chain listed top first (each point's strict up-set is every earlier
    # point) and one listed bottom first
    points = [f"c{i}" for i in range(60)]
    chains = [FinitePoset(points, zip(points[1:], points)), FinitePoset(points, zip(points, points[1:]))]
    for P in corpus7 + _named_frames(p1, c2, c3, a2, fork, w3, diamond, n6) + chains:
        assert [sum(1 << c for c in row) for row in P.covers] == reference.covers(P), P
    assert len(corpus7) == 2450


def test_up_index_lists_the_points_of_each_up_row(corpus7, p1, c2, c3, a2, fork, w3, diamond, n6):
    for P in corpus7 + _named_frames(p1, c2, c3, a2, fork, w3, diamond, n6):
        n = len(P)
        assert set(P.up_index) == set(P.up) | {P.strict_up(q) for q in range(n)}, P
        for A, points in P.up_index.items():
            assert points == tuple(q for q in range(n) if P.up[q] == A | 1 << q), (P, A)
    assert len(corpus7) == 2450


def test_cycle_messages_match_the_up_row_walk():
    rnd = random.Random(29)
    outcomes = Counter()
    for _ in range(4000):
        n = rnd.randint(1, 7)
        pts = rnd.sample([f"p{k}" for k in range(10)], n)
        pairs = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(0, 2 * n))]
        cycle = reference.first_cycle(n, pairs)
        try:
            FinitePoset(pts, [(pts[a], pts[b]) for a, b in pairs])
            message = None
        except OrderConstructionError as err:
            message = str(err)
        want = None
        if cycle:
            want = f"cycle between {pts[cycle[0]]!r} and {pts[cycle[1]]!r}"
        assert message == want, (pts, pairs)
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_p_morphism_violation_matches_two_pass_reference(corpus5):
    rnd = random.Random(29)
    kinds = Counter()
    for _ in range(8000):
        P, Q = rnd.choice(corpus5), rnd.choice(corpus5)
        f = PMorphism(P, Q, tuple(rnd.randrange(len(Q)) for _ in range(len(P))))
        got = p_morphism_violation(f)
        assert got == reference.p_morphism_violation(f), f
        kinds[got and got[0]] += 1
    assert kinds[None] and kinds["monotone"] and kinds["back"], kinds


def _parsed(parser, text):
    try:
        return parser(text)
    except FormulaSyntaxError as err:
        return str(err)


def _lexed(lex, text):
    try:
        return lex(text)
    except FormulaSyntaxError as err:
        return str(err), err.pos


def test_width_matches_the_recursive_matcher(corpus7):
    for P in corpus7:
        assert depth_width(P)[1] == reference.width(P), P


def test_lexer_matches_the_character_loop():
    rnd = random.Random(32)
    pieces = ("p", "q1", "x_Y", "bot", "top", "botx", "~", "&", "|", "(+)", "->", "<->", "(", ")")
    # \x1c and \u3000 are spaces to str.isspace, \u200b is not; "(+" is "(" and "+"
    odd = (" ", "\t", "\n", "\x1c", "\u3000", "\u00a0", "\u200b", "$", "P", "1", "+", "-", "<", ">", "é")
    texts = ["", "   ", "(+", "<-", "- >", "<>", "p$q", "p_1Q", "(+)(+)", "~\x00p"]
    texts += ["".join(rnd.choices(pieces + odd, k=rnd.randint(1, 10))) for _ in range(20000)]
    texts += [" ".join(rnd.choices(pieces, k=rnd.randint(0, 12))) for _ in range(10000)]
    corpora = enumerate_formulas(["p", "q"], 7) + sample_formulas(["p", "q"], 13, 400, seed=4, with_tensor=True)
    texts += [format_formula(f) for f in corpora]
    errors = 0
    for text in texts:
        got = _lexed(_lex, text)
        assert got == _lexed(reference.lex, text), text
        errors += isinstance(got, tuple)
    assert 5000 < errors < 20010, errors


def test_dnf_matches_the_recursive_reference():
    for f in enumerate_formulas(["p"], 9):
        assert dnf_inquisitive(f) == reference.dnf(f)
    for f in sample_formulas(["p", "q"], 11, 500, seed=5):
        want = [format_formula(g) for g in reference.dnf(f)]
        assert [format_formula(g) for g in dnf_inquisitive(f)] == want, f


def test_parser_matches_recursive_reference():
    pieces = ("p", "q", "bot", "top", "~", "&", "|", "(+)", "->", "<->", "(", ")")
    rnd = random.Random(31)
    texts = [" ".join(rnd.choices(pieces, k=rnd.randint(0, 12))) for _ in range(30000)]
    texts += [format_formula(f) for f in sample_formulas(["p", "q"], 13, 400, seed=4, with_tensor=True)]
    accepted = 0
    for text in texts:
        got = _parsed(parse, text)
        assert got == _parsed(reference.parse, text), text
        accepted += not isinstance(got, str)
    assert accepted > 1000
