import gc
import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esakialab.heyting import dual_algebra
from esakialab.logic import (
    And,
    Atom,
    Bot,
    MAX_NESTING,
    FormulaSyntaxError,
    Iff,
    Implies,
    Neg,
    NegativeValuation,
    Or,
    SweepGuardError,
    Team,
    Tensor,
    Top,
    UnboundAtomError,
    _validity_plan,
    atoms,
    axiom_instances,
    compile_formulas,
    dnf_inquisitive,
    enumerate_formulas,
    eval_algebra,
    format_formula,
    formula_size,
    has_tensor,
    is_dna_valid,
    is_standard,
    is_valid,
    ml_proxy_formulas,
    parse,
    refutes,
    sample_formulas,
    sweep_limit,
    team_eval,
    team_valid,
)
from esakialab.poset_core import FinitePoset, make_medvedev

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# -- parsing and printing -----------------------------------------------------


def test_parse_precedence():
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("p | q & r") == Or(P, And(Q, R))
    assert parse("~p & q") == And(Neg(P), Q)
    assert parse("p (+) q & r") == Tensor(P, And(Q, R))
    assert parse("p | q (+) r") == Or(P, Tensor(Q, R))
    assert parse("(p -> q) -> r") == Implies(Implies(P, Q), R)
    assert parse("p <-> q") == Iff(P, Q) == And(Implies(P, Q), Implies(Q, P))
    assert parse("bot") == Bot() and parse("top") == Top()
    assert parse("~~p") == Neg(Neg(P))


def test_parse_errors_carry_positions():
    for text, pos in [("", 0), ("p &", 3), ("(p", 2), ("p q", 2), ("P", 0), ("p ) q", 2)]:
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.pos == pos


def test_format_minimal_parentheses():
    assert format_formula(parse("(p -> (q | r))")) == "p -> q | r"
    assert format_formula(parse("((~p) & q)")) == "~p & q"
    assert format_formula(parse("(p | q) & r")) == "(p | q) & r"
    assert format_formula(axiom_instances("KP")) == (
        "(~p -> q | r) -> (~p -> q) | (~p -> r)"
    )
    assert format_formula(
        axiom_instances("dep", premises=("p", "q"), target="r")
    ) == "(p | ~p) & (q | ~q) -> r | ~r"


def test_format_parse_round_trip_fixtures():
    for text in [
        "p", "bot", "top", "~p", "p & q | r", "p (+) (q | r)",
        "~(p -> q) -> ~p | ~~q", "p <-> q & r",
    ]:
        f = parse(text)
        assert parse(format_formula(f)) == f


def _formulas(names=("p", "q")):
    leaves = st.sampled_from([Bot(), Top()] + [Atom(a) for a in names])
    return st.recursive(
        leaves,
        lambda sub: st.builds(And, sub, sub)
        | st.builds(Or, sub, sub)
        | st.builds(Implies, sub, sub)
        | st.builds(Tensor, sub, sub),
        max_leaves=12,
    )


@given(_formulas())
def test_format_parse_round_trip_random(f):
    assert parse(format_formula(f)) == f


def test_structural_helpers():
    f = parse("~p (+) (q -> bot)")
    assert has_tensor(f) and is_standard(f)
    assert not is_standard(parse("p | q"))
    assert atoms(f) == ("p", "q")
    assert formula_size(parse("p & q")) == 3
    assert formula_size(parse("~p")) == 3


# -- algebraic and negative validity ------------------------------------------


def test_excluded_middle_boolean_only(p1, c2):
    em = parse("p | ~p")
    assert is_valid(dual_algebra(p1), em)
    assert not is_valid(dual_algebra(c2), em)


def test_double_negation_elimination_dna_only(c2):
    H = dual_algebra(c2)
    dne = parse("~~p -> p")
    assert not is_valid(H, dne)
    assert is_dna_valid(H, dne)


def test_kp_axiom_on_medvedev_frame():
    H = dual_algebra(make_medvedev(2))
    assert is_valid(H, axiom_instances("KP"), force=True)


def test_dna_validity_factors_through_components(c2, a2):
    # a disjoint chain pair validates exactly what each chain does
    two_chains = FinitePoset(
        ["r1", "m1", "r2", "m2"], [("r1", "m1"), ("r2", "m2")]
    )
    f = parse("~~p -> p")
    assert is_dna_valid(dual_algebra(two_chains), f)
    assert not is_valid(dual_algebra(two_chains), parse("p | ~p"))


def test_eval_algebra_value(c2):
    H = dual_algebra(c2)
    m = 1 << c2.index("m")
    assert eval_algebra(H, {"p": m}, parse("p | ~p")) == m
    assert eval_algebra(H, {"p": m}, parse("~~p")) == H.top


def test_algebra_sweeps_leave_no_garbage():
    # a sweep that recurses through a closure leaves a reference cycle per call
    H = dual_algebra(make_medvedev(4))
    f = parse("(p | q) -> (p | ~q)")
    gc.collect()
    gc.disable()
    try:
        assert is_valid(H, parse("p -> q -> p"))
        assert is_dna_valid(H, axiom_instances("KP"))
        assert eval_algebra(H, {"p": 0, "q": H.top}, parse("~p & q")) == H.top
        assert len(dnf_inquisitive(f)) == 4
        assert len(sample_formulas(["p"], 5, 10)) == 10
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


class _CountedTop(int):
    """An int that counts the comparisons made against it. An int subclass
    is asked first when compared with a plain int, so the sweep's check of
    its target against top lands here once per leaf."""

    compared = 0

    def __eq__(self, other):
        _CountedTop.compared += 1
        return int(self) == other

    __hash__ = int.__hash__


def test_nd3_on_m4_regulars_sweeps_one_valuation_per_orbit():
    # Aut(M4) permutes the 4 maximal points, and a valuation of the four
    # atoms by regulars is a 4 x 4 0/1 matrix, one column per maximal
    # point: its orbits are the multisets of 4 columns, C(19, 4) = 3,876
    H = dual_algebra(make_medvedev(4))
    plan = _validity_plan(compile_formulas([axiom_instances("ND", k=3)]))
    symmetry = H.domain_symmetry(True, 16 ** 3)
    leaves = []
    for sym in (None, symmetry):
        _CountedTop.compared = 0
        counted = SimpleNamespace(top=_CountedTop(H.top), bot=H.bot, imp=H.imp, tensor_op=None)
        assert not refutes(counted, H.regulars, plan, [math.inf], sym)
        leaves.append(_CountedTop.compared)
    assert leaves == [16 ** 4, 3876]
    assert len(symmetry.fixes) == 16 and symmetry.every == (1 << 23) - 1


def test_eval_unbound_atom(c2):
    with pytest.raises(UnboundAtomError):
        eval_algebra(dual_algebra(c2), {}, parse("p"))


def test_negative_valuation_gate(c2):
    H = dual_algebra(c2)
    with pytest.raises(ValueError):
        NegativeValuation(H, {"p": 1 << c2.index("m")})
    nv = NegativeValuation(H, {"p": 0, "q": H.top})
    assert nv["p"] == 0 and nv["q"] == H.top


def test_sweep_guard_trips(c2, monkeypatch):
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "10")
    H = dual_algebra(c2)
    f = parse("p | q | r -> p | q | r")
    with pytest.raises(SweepGuardError, match=r"^is_valid: 3\^3 = 27 valuations, .* budget of 10"):
        is_valid(H, f)
    assert is_valid(H, f, force=True)
    with pytest.raises(SweepGuardError, match=r"^is_dna_valid: 2\^4 = 16 valuations"):
        is_dna_valid(H, parse("p & q -> r | s"))


def test_malformed_sweep_limit_is_a_guard_error(c2, monkeypatch):
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "lots")
    with pytest.raises(SweepGuardError, match="ESAKIA_MAX_SWEEP must be an integer, got 'lots'"):
        sweep_limit()
    with pytest.raises(SweepGuardError, match="ESAKIA_MAX_SWEEP"):
        is_dna_valid(dual_algebra(c2), parse("~~p -> p"))


def test_deep_negation_chain(c2):
    f, short = parse("~" * 900 + "p"), parse("~~p")
    H = dual_algebra(c2)
    m = 1 << c2.index("m")
    assert team_valid(f, 1) == team_valid(short, 1)
    for rows in ([1], [0, 1]):
        assert team_eval(Team.of(("p",), rows), f) == team_eval(Team.of(("p",), rows), short)
    assert is_dna_valid(H, f) == is_dna_valid(H, short)
    assert is_dna_valid(H, Iff(f, short)) and team_valid(Iff(f, short), 1)
    assert eval_algebra(H, {"p": m}, f) == eval_algebra(H, {"p": m}, short) == H.top


def test_format_deep_negation_chain():
    f = P
    for _ in range(2000):
        f = Neg(f)
    assert format_formula(f) == "~" * 2000 + "p"


def test_dnf_deep_negation_chain():
    f = P
    for _ in range(2000):
        f = Neg(f)
    (g,) = dnf_inquisitive(f)
    assert format_formula(g) == "~" * 2000 + "p"


def test_parse_rejects_runaway_nesting():
    with pytest.raises(FormulaSyntaxError, match="formula nested too deeply"):
        parse("~" * 1500 + "p")
    with pytest.raises(FormulaSyntaxError, match="formula nested too deeply"):
        parse("(" * 1500 + "p" + ")" * 1500)


def _nesting_error_at(text: str, frames: int) -> int:
    if frames:
        return _nesting_error_at(text, frames - 1)
    with pytest.raises(FormulaSyntaxError, match="formula nested too deeply") as err:
        parse(text)
    return err.value.pos


def test_nesting_limit_is_the_same_at_any_caller_depth():
    assert _nesting_error_at("~" * 1500 + "p", 0) == MAX_NESTING
    for text in ("~" * 1500 + "p", "(" * 1500 + "p" + ")" * 1500, "p -> " * 1500 + "p"):
        assert _nesting_error_at(text, 0) == _nesting_error_at(text, 200), text[:8]
    # the limit itself parses, one more level does not
    assert format_formula(parse("~" * MAX_NESTING + "p")) == "~" * MAX_NESTING + "p"
    assert _nesting_error_at("(" * MAX_NESTING + "~p" + ")" * MAX_NESTING, 0) == MAX_NESTING


# -- team semantics ------------------------------------------------------------


def test_team_split_disjunction():
    t = Team.of(("p",), [0, 1])
    assert not team_eval(t, parse("p | ~p"))
    assert team_eval(t, parse("p (+) ~p"))


def test_team_basic_clauses():
    t = Team.of(("p", "q"), [0b01, 0b11])
    assert team_eval(t, parse("p"))
    assert not team_eval(t, parse("q"))
    assert team_eval(t, parse("q -> p"))
    empty = Team.of(("p",), [])
    assert team_eval(empty, parse("bot"))
    assert team_eval(empty, parse("p & ~p"))


def test_team_errors():
    with pytest.raises(UnboundAtomError):
        team_eval(Team.of(("p",), [0]), parse("q"))
    with pytest.raises(ValueError):
        team_eval(Team.of(("p",), [2]), parse("p"))


def test_team_valid_spot_set():
    assert not team_valid(parse("p | ~p"), 1)
    assert team_valid(parse("p (+) ~p"), 1)
    assert team_valid(parse("p -> p"), 2)
    assert team_valid(axiom_instances("KP"), 3, force=True)


def test_team_valid_guards():
    with pytest.raises(ValueError):
        team_valid(parse("p | q | r"), 2)
    with pytest.raises(SweepGuardError, match=r"^team_valid: k=3 gives 2\^\(2\^3\) teams.*force"):
        team_valid(parse("p"), 3)


def test_team_size_guards_refuse_before_allocating():
    assert team_valid(parse("p -> p"), 4, force=True)
    wide = Team.of(("p", "q", "r", "s", "t"), range(17))
    tracemalloc.start()
    try:
        with pytest.raises(SweepGuardError, match=r"team_valid: k=5 gives 2\^\(2\^5\) teams"):
            team_valid(parse("p"), 5, force=True)
        with pytest.raises(SweepGuardError, match=r"team_valid: k=64 gives 2\^\(2\^64\) teams"):
            team_valid(parse("p"), 64, force=True)
        with pytest.raises(SweepGuardError, match=r"team_eval: 17 assignments give 2\^17 subteams"):
            team_eval(wide, parse("p"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert team_eval(Team.of(wide.atoms, range(16)), parse("p | ~p")) is False


@settings(deadline=None, max_examples=60)
@given(_formulas(("p", "q")), st.sets(st.integers(0, 3)))
def test_team_support_downward_closed(f, rows):
    t = Team.of(("p", "q"), rows)
    if team_eval(t, f):
        for drop in rows:
            assert team_eval(Team.of(("p", "q"), rows - {drop}), f)


@given(_formulas(("p", "q")))
def test_empty_team_supports_everything(f):
    assert team_eval(Team.of(("p", "q"), []), f)


# -- normal form ----------------------------------------------------------------


def test_dnf_spot_values():
    def dnf(s):
        return [format_formula(g) for g in dnf_inquisitive(parse(s))]

    assert dnf("p | q") == ["p", "q"]
    assert dnf("(p | q) & r") == ["p & r", "q & r"]
    assert dnf("p -> q | r") == ["p -> q", "p -> r"]
    assert dnf("p <-> q | r") == [
        "(p -> q) & ((q -> p) & (r -> p))",
        "(p -> r) & ((q -> p) & (r -> p))",
    ]
    assert dnf("p & q") == ["p & q"]


def test_dnf_disjuncts_are_disjunction_free():
    for s in ["p | q | r", "~(p | q)", "(p | q) -> (q | r)"]:
        for g in dnf_inquisitive(parse(s)):
            assert "|" not in format_formula(g)


def test_dnf_rejects_tensor():
    for s in ["p (+) q", "~(p (+) q) | r"]:
        with pytest.raises(ValueError, match="^normal form is defined for tensor-free formulas$"):
            dnf_inquisitive(parse(s))


def test_dnf_support_equivalence_small():
    from esakialab.logic import big_or

    for s in ["p | q", "p -> q | r", "~(p | q)", "p <-> q"]:
        f = parse(s)
        eq = Iff(f, big_or(dnf_inquisitive(f)))
        assert team_valid(eq, len(atoms(f)), force=True)


# -- axiom schemata and corpora --------------------------------------------------


def test_axiom_instances_forms():
    assert axiom_instances("ND_3") == axiom_instances("ND", k=3)
    nd2 = axiom_instances("ND", k=2)
    assert format_formula(nd2) == (
        "(~p -> ~q1 | ~q2) -> (~p -> ~q1) | (~p -> ~q2)"
    )
    assert ml_proxy_formulas() == (
        axiom_instances("KP"),
        axiom_instances("ND_2"),
        axiom_instances("ND_3"),
    )


def test_axiom_instances_errors():
    with pytest.raises(ValueError):
        axiom_instances("ND", k=1)
    with pytest.raises(ValueError):
        axiom_instances("dep", premises=(), target="r")
    with pytest.raises(ValueError):
        axiom_instances("glivenko")


def test_enumerate_formulas_counts():
    assert len(enumerate_formulas(["p"], 1)) == 3
    assert len(enumerate_formulas(["p"], 3)) == 30
    assert len(enumerate_formulas(["p"], 5)) == 516
    assert len(enumerate_formulas(["p"], 5, with_tensor=True)) == 903


def test_enumerate_formulas_order_and_shape():
    fs = enumerate_formulas(["p"], 3)
    assert fs[:3] == [Bot(), Top(), P]
    assert [formula_size(f) for f in fs] == sorted(formula_size(f) for f in fs)
    assert len(set(fs)) == len(fs)
    assert not any(has_tensor(f) for f in fs)


def test_sample_formulas_deterministic():
    a = sample_formulas(["p", "q"], 7, 50, seed=0)
    b = sample_formulas(["p", "q"], 7, 50, seed=0)
    assert a == b
    assert len(set(a)) == 50
    assert all(formula_size(f) <= 7 for f in a)
    assert sample_formulas(["p", "q"], 7, 50, seed=1) != a
    assert any(
        has_tensor(f) for f in sample_formulas(["p"], 9, 80, with_tensor=True)
    )
