import re

import pytest

from esakialab.budget import SweepGuardError
from esakialab.heyting import (
    check_inqb_tensor_axioms,
    close_under,
    dual_algebra,
    generated_subalgebra,
    is_leq,
    principal_upset_views,
)
from esakialab.jankov import jankov_dna_formula, jankov_refutation_check
from esakialab.logic import axiom_instances, is_dna_valid, is_valid, parse
from esakialab.poset_core import (
    FinitePoset,
    iter_surjective_p_morphisms,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
)
from esakialab.regularity import rank_table

from corpus import side_by_side

# the one message of every ESAKIA_MAX_SWEEP refusal
SHAPE = re.compile(
    r"^(\w+): [^\n]+ = (\d+) [a-z -]+, more than the budget of (\d+) \(ESAKIA_MAX_SWEEP\)$"
)


def _antichain5() -> FinitePoset:
    return FinitePoset(list("abcde"), [])


def _rank_table_of_a_closed_algebra(n6):
    # the regular closure is paid at the default budget; the live algebra
    # is held so that rank_table reads it and charges only the listing
    H = dual_algebra(n6)
    H.regular_closure
    return lambda: rank_table(H.base)


def _members_of_a_closed_level():
    # no seeds: the closure charges 21 and lists {0, 1} at |H| = 32 x 1 = 32
    H = dual_algebra(_antichain5())
    return lambda: generated_subalgebra(H, [])


def _jankov_sweep(fork, c2):
    # each root of C2 lists its 2 regulars in 2 x 2^1 = 4 steps, within the budget
    bundle = jankov_dna_formula(dual_algebra(fork))
    return lambda: jankov_refutation_check(c2, bundle)


def _kp_on_two_m3s(check):
    # the algebra of two disjoint M3s is built under the default budget, so
    # that upsets does not refuse first; each factor has 19 elements, 8 regulars
    H = dual_algebra(side_by_side(make_medvedev(3), make_medvedev(3)))
    return lambda: check(H, axiom_instances("KP"))


FOUR_ATOMS = parse("p & q -> r | s")

# layer, budget, and a maker run under the default budget that returns the
# call to run under the lowered one
CASES = [
    # C2's algebra: 3 elements, 2 regulars
    ("is_valid", 26, lambda fx: lambda: is_valid(dual_algebra(fx("c2")), parse("p | q -> r"))),
    ("is_dna_valid", 15, lambda fx: lambda: is_dna_valid(dual_algebra(fx("c2")), FOUR_ATOMS)),
    # a split sweep is charged once: 19^3 + 19^3 = 13718 and 8^3 + 8^3 = 1024
    ("is_valid", 10000, lambda fx: _kp_on_two_m3s(is_valid)),
    ("is_dna_valid", 1000, lambda fx: _kp_on_two_m3s(is_dna_valid)),
    ("close_under", 211, lambda fx: lambda: close_under(H := dual_algebra(fx("n6")), H.regulars)),
    ("generated_subalgebra", 31, lambda fx: _members_of_a_closed_level()),
    ("rank_table", 18, lambda fx: _rank_table_of_a_closed_algebra(fx("n6"))),
    ("check_inqb_tensor_axioms", 624, lambda fx: lambda: check_inqb_tensor_axioms(fx("fork"))),
    ("jankov_refutation_check", 4, lambda fx: _jankov_sweep(fx("fork"), fx("c2"))),
    # W3's root: 4 points x 2^3 hulls
    ("principal_upset_views", 31, lambda fx: lambda: list(principal_upset_views(fx("w3")))),
    ("upsets", 100, lambda fx: _antichain5().upsets),
    # the fork maps onto C2 at its third node, one past this budget
    ("is_leq", 2, lambda fx: lambda: is_leq(fx("c2"), fx("fork"))),
    # five minimal points: B's upsets by at most 5 points, 5 x 21 steps by its third round
    ("is_leq", 100, lambda fx: lambda: is_leq(_antichain5(), _antichain5())),
    # C3 maps onto C2 twice in five nodes, one past this budget
    ("iter_surjective_p_morphisms", 4,
     lambda fx: lambda: list(iter_surjective_p_morphisms(fx("c3"), fx("c2")))),
    # the closure of F1's 7 points, G3's 9 and R2@2's 6, charged before any pair is listed
    ("make_delta0", 48, lambda fx: lambda: make_delta0(1)),
    ("make_delta1", 80, lambda fx: lambda: make_delta1(3)),
    ("make_ladder", 35, lambda fx: lambda: make_ladder("R2", 2)),
]


def _case_ids() -> list[str]:
    # a layer's first case is named by the layer, a later one by its budget too
    ids: list[str] = []
    for layer, limit, _ in CASES:
        ids.append(f"{layer}@{limit}" if layer in ids else layer)
    return ids


@pytest.mark.parametrize("layer, limit, make", CASES, ids=_case_ids())
def test_every_charge_refuses_in_one_shape(layer, limit, make, request, monkeypatch):
    call = make(request.getfixturevalue)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(limit))
    with pytest.raises(SweepGuardError) as caught:
        call()
    shape = SHAPE.match(str(caught.value))
    assert shape is not None, str(caught.value)
    assert shape[1] == layer
    assert int(shape[2]) > int(shape[3]) == limit


@pytest.mark.parametrize("make, limit, message", [
    (lambda fx: _jankov_sweep(fx("fork"), fx("c2")), 4,
     "jankov_refutation_check: search nodes over all roots = 5 nodes"),
    (lambda fx: _kp_on_two_m3s(is_valid), 13717, "is_valid: 19^3 + 19^3 = 13718 valuations"),
], ids=["jankov_refutation_check", "is_valid"])
def test_refusals_name_what_they_count(make, limit, message, request, monkeypatch):
    call = make(request.getfixturevalue)
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(limit))
    with pytest.raises(SweepGuardError) as caught:
        call()
    assert str(caught.value) == f"{message}, more than the budget of {limit} (ESAKIA_MAX_SWEEP)"


def test_forced_sweeps_never_read_the_budget(c2, fork, w3, monkeypatch):
    H = dual_algebra(c2)
    bundle = jankov_dna_formula(dual_algebra(fork))
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", "lots")
    assert is_valid(H, parse("p | q | r -> p | q | r"), force=True)
    assert is_dna_valid(H, parse("~~p -> p"), force=True)
    assert jankov_refutation_check(w3, bundle, force=True)
    with pytest.raises(SweepGuardError, match="ESAKIA_MAX_SWEEP must be an integer, got 'lots'"):
        jankov_refutation_check(w3, bundle)


def test_a_wide_root_is_refused_before_its_hulls(fork, monkeypatch):
    # a root below 16 maximal points has 2^16 hulls, about a second to list
    tops = [f"m{i}" for i in range(16)]
    B = FinitePoset(["r"] + tops, [("r", m) for m in tops])
    bundle = jankov_dna_formula(dual_algebra(fork))
    hulls = []
    real = FinitePoset.m_hull
    monkeypatch.setattr(FinitePoset, "m_hull", lambda P, mask: hulls.append(mask) or real(P, mask))
    monkeypatch.setenv("ESAKIA_MAX_SWEEP", str(10**6))
    with pytest.raises(SweepGuardError, match=r"^principal_upset_views: .* = 17 x 2\^16 = 1114112 steps"):
        jankov_refutation_check(B, bundle)
    assert hulls == []
