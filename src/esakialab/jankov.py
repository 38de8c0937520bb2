"""Jankov-style formulas for the negative-valuation semantics.

Builds, for a finite regularly generated algebra with a rooted dual, the
characteristic implication chi = alpha -> psi_s: alpha conjoins the bottom
clause with one biconditional per operation table entry, and psi_s names
the second-greatest element.  A negative valuation refutes chi on B exactly
when the source algebra divides B, which is what the refutation check
verifies from both ends.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .heyting import (
    FiniteHeytingAlgebra,
    dual_algebra,
    dual_poset,
    is_leq,
    is_regularly_generated,
)
from .logic import (
    And,
    Atom,
    Bot,
    Formula,
    Iff,
    Implies,
    Or,
    SweepGuardError,
    Top,
    atoms,
    big_and,
    compile_formulas,
    format_formula,
    stage_nodes,
    sweep_limit,
    sweep_nodes,
)
from .poset_core import FinitePoset
from .regularity import is_regular_structural, is_strongly_regular

# Negative-valuation sweeps cost |B-core|^len(atoms); four atoms keeps the
# worst case at 16^4 per component without pruning.
MAX_ATOMS = 4


class _SearchPlan(NamedTuple):
    """The refutation sweep's schedule, fixed by the representatives.

    atom_node and steps stage the representatives' nodes by the search's atom
    order, as logic.stage_nodes does; conjuncts[d] are the table equations
    (kind, node of a, node of b, node of the result) whose three sides
    become known at level d.
    """

    size: int
    atom_node: list[int]
    steps: list[list[tuple[int, int, int, int]]]
    conjuncts: list[list[tuple[int, int, int, int]]]
    bot: tuple[int, int]  # (level, node) of psi_bot
    second: tuple[int, int]  # (level, node) of psi_s


@dataclass(frozen=True)
class JankovBundle:
    """The characteristic formula of one algebra, with its parts exposed.

    representatives maps every element to its formula: a fresh atom for
    core elements, the generated-subalgebra witness term for the rest.
    """

    source: FiniteHeytingAlgebra
    atom_names: dict[int, str]
    representatives: dict[int, Formula]
    second_greatest: int
    alpha: Formula
    chi: Formula
    plan: _SearchPlan = field(repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "source": json.loads(self.source.to_json()),
            "atom_map": {
                self.source.element_label(u): self.atom_names[u]
                for u in self.source.regulars
            },
            "chi": format_formula(self.chi),
        }
        return json.dumps(payload, indent=2)


def _root_index(P: FinitePoset) -> int | None:
    for i in range(len(P)):
        if P.up[i] == P.full_mask:
            return i
    return None


def _witness_terms(H: FiniteHeytingAlgebra, seeds: Iterable[int]) -> dict[int, Formula]:
    """A witness term for every element of the subalgebra generated by seeds.

    Seed atoms are named p<canonical index>. Each element gets the first
    term found in a smallest-first search, ties broken by the operation
    order meet, join, imp, then operand indices.
    """
    seed_list = sorted(set(seeds), key=H.index)
    base_terms: list[tuple[int, Formula, int]] = []
    for u in seed_list:
        base_terms.append((u, Atom(f"p{H.index(u)}"), 1))
    if H.bot not in set(seed_list):
        base_terms.append((H.bot, Bot(), 1))
    if H.top not in set(seed_list):
        base_terms.append((H.top, Top(), 1))

    ops = [(0, And, H.meet), (1, Or, H.join), (2, Implies, H.imp)]
    terms: dict[int, Formula] = {}
    sizes: dict[int, int] = {}
    order: list[int] = []

    heap: list[tuple[int, int, int, int, int, int, Formula]] = []
    tick = 0
    for u, t, s in base_terms:
        heapq.heappush(heap, (s, -1, H.index(u), -1, tick, u, t))
        tick += 1
    while heap:
        size, op_rank, ia, ib, _, value, term = heapq.heappop(heap)
        if value in terms:
            continue
        terms[value] = term
        sizes[value] = size
        order.append(value)
        for rank, node, fn in ops:
            for other in order:
                for a, b in ((value, other), (other, value)):
                    w = fn(a, b)
                    if w in terms:
                        continue
                    s = sizes[a] + sizes[b] + 1
                    heapq.heappush(
                        heap,
                        (s, rank, H.index(a), H.index(b), tick, w, node(terms[a], terms[b])),
                    )
                    tick += 1
    return terms


def jankov_dna_formula(H: FiniteHeytingAlgebra, force: bool = False) -> JankovBundle:
    """Construct the characteristic bundle of H.

    H must have a rooted base (else it is not subdirectly irreducible) and
    must be regularly generated (else some element has no representative).
    More than MAX_ATOMS core elements is refused unless force is set.
    """
    root = _root_index(H.base)
    if root is None:
        raise ValueError(
            f"{H.base.name}: dual poset has no root, "
            "the algebra is not subdirectly irreducible"
        )
    if not is_regularly_generated(H):
        raise ValueError(
            f"{H.base.name}: algebra is not regularly generated, "
            "no Jankov representative exists for some element"
        )
    if len(H.regulars) > MAX_ATOMS and not force:
        raise SweepGuardError(
            f"jankov_dna_formula: {len(H.regulars)} atoms exceed the limit of {MAX_ATOMS} "
            f"(|B-core|^{len(H.regulars)} valuations per root); pass force=True to accept the cost"
        )
    atom_names = {u: f"p{H.index(u)}" for u in H.regulars}
    s = H.top & ~(1 << root)
    psi = _witness_terms(H, H.regulars)

    conjuncts: list[Formula] = [Iff(psi[H.bot], Bot())]
    for node, fn in ((And, H.meet), (Or, H.join), (Implies, H.imp)):
        for a in H.elements:
            for b in H.elements:
                conjuncts.append(Iff(node(psi[a], psi[b]), psi[fn(a, b)]))
    alpha = big_and(conjuncts)
    chi = Implies(alpha, psi[s])
    return JankovBundle(
        source=H,
        atom_names=atom_names,
        representatives=psi,
        second_greatest=s,
        alpha=alpha,
        chi=chi,
        plan=_search_plan(H, psi, s),
    )


def _search_plan(H: FiniteHeytingAlgebra, psi: dict[int, Formula], s: int) -> _SearchPlan:
    prog = compile_formulas(psi[x] for x in H.elements)
    # the atoms of chi are those of the representatives; the atoms of psi_s
    # come first so the psi_s != top condition prunes early
    s_names = atoms(psi[s])
    order = s_names + tuple(sorted(set(prog.names) - set(s_names)))
    atom_node, steps, level = stage_nodes(prog, order)
    root = dict(zip(H.elements, prog.roots))
    conjuncts: list[list[tuple[int, int, int, int]]] = [[] for _ in steps]
    for kind, fn in enumerate((H.meet, H.join, H.imp)):
        for a in H.elements:
            for b in H.elements:
                ra, rb, rc = root[a], root[b], root[fn(a, b)]
                conjuncts[max(level[ra], level[rb], level[rc])].append((kind, ra, rb, rc))
    return _SearchPlan(
        size=len(prog.nodes),
        atom_node=atom_node,
        steps=steps,
        conjuncts=conjuncts,
        bot=(level[root[H.bot]], root[H.bot]),
        second=(level[root[s]], root[s]),
    )


def _refuted_at_root(
    K: FiniteHeytingAlgebra, bundle: JankovBundle, budget: list[int], force: bool
) -> bool:
    """Search for a negative valuation putting K's root in alpha but not psi_s.

    K must be the algebra of a rooted poset.  A biconditional contains the
    root iff its two sides agree on the whole frame, so every alpha conjunct
    becomes an exact equation and a branch dies on the first failed one.
    The schedule comes from the bundle's plan.
    """
    values = [0] * bundle.plan.size
    ops = (K.meet, K.join, K.imp)
    return _refuted_from(K, ops, bundle.plan, values, budget, sweep_limit(), force, 0)


def _refuted_from(
    K: FiniteHeytingAlgebra,
    ops: tuple,
    plan: _SearchPlan,
    values: list[int],
    budget: list[int],
    limit: int,
    force: bool,
    level: int,
) -> bool:
    """True iff valuing the atoms from ``level`` on can refute chi at K's
    root. A plain function: a closure that calls itself would leave a
    reference cycle for the collector on every root."""
    sweep_nodes(K, plan.steps[level], values)
    if level == plan.second[0] and values[plan.second[1]] == K.top:
        return False
    if level == plan.bot[0] and values[plan.bot[1]] != K.bot:
        return False
    for kind, a, b, c in plan.conjuncts[level]:
        if ops[kind](values[a], values[b]) != values[c]:
            return False
    if level == len(plan.atom_node):
        return True
    atom = plan.atom_node[level]
    for value in K.regulars:
        budget[0] += 1
        if budget[0] > limit and not force:
            raise SweepGuardError(
                f"jankov_refutation_check: search passed {limit} nodes (ESAKIA_MAX_SWEEP), of "
                f"up to {len(K.regulars)}^{len(plan.atom_node)} valuations at this root; "
                "pass force=True"
            )
        values[atom] = value
        if _refuted_from(K, ops, plan, values, budget, limit, force, level + 1):
            return True
    return False


def jankov_refutation_check(
    Bpos: FinitePoset, bundle: JankovBundle, force: bool = False
) -> bool:
    """True iff some negative valuation on Bpos's algebra refutes chi.

    chi = alpha -> psi_s fails under a valuation iff some point lands in
    alpha but outside psi_s.  Membership at a point only depends on the
    point's upset, and restricting upsets to it is an algebra homomorphism
    under which every regular element has a regular preimage, so the sweep
    runs once per distinct principal upset with the point as root.  The
    result is cross-checked against the order-theoretic route (an upset of
    Bpos mapping onto the source's dual); divergence would falsify the
    characteristic-formula theorem, so it is raised, not returned.
    """
    budget = [0]
    refuted = False
    tried: set[int] = set()
    for i in range(len(Bpos)):
        mask = Bpos.up[i]
        if mask in tried:
            continue
        tried.add(mask)
        K = dual_algebra(Bpos.induced(mask))
        if _refuted_at_root(K, bundle, budget, force):
            refuted = True
            break
    structural = is_leq(dual_poset(bundle.source), Bpos)
    if refuted != structural:
        raise RuntimeError(
            f"refutation sweep ({refuted}) disagrees with the divisibility "
            f"search ({structural}) on {Bpos.name}"
        )
    return refuted


@dataclass(frozen=True)
class AntichainReport:
    """Pairwise comparability and regularity flags for a poset family."""

    posets: tuple[FinitePoset, ...]
    comparable_pairs: tuple[tuple[int, int], ...]
    regular_flags: tuple[bool, ...]
    strongly_regular_flags: tuple[bool, ...]

    @property
    def is_antichain(self) -> bool:
        return not self.comparable_pairs


def antichain_verify(posets: list[FinitePoset]) -> AntichainReport:
    """Check pairwise incomparability in both directions, with regularity flags."""
    family = tuple(posets)
    pairs = []
    for i, P in enumerate(family):
        for j, Q in enumerate(family):
            if i != j and is_leq(P, Q):
                pairs.append((i, j))
    return AntichainReport(
        posets=family,
        comparable_pairs=tuple(pairs),
        regular_flags=tuple(is_regular_structural(P) for P in family),
        strongly_regular_flags=tuple(is_strongly_regular(P) for P in family),
    )


def separating_formula(
    I: list[FinitePoset], J: list[FinitePoset], force: bool = False
) -> Formula | None:
    """A formula valid (negatively) on one side and refuted on the other.

    Inputs must be rooted, regular, and pairwise incomparable across the
    union.  Returns None when the two sides are equal as sets; otherwise
    returns chi of a one-sided member, after verifying by sweep that the
    member refutes it and every poset of the other side validates it.
    """
    both = [*I, *J]
    for P in both:
        if _root_index(P) is None:
            raise ValueError(f"poset {P.name} is not rooted")
        if not is_regular_structural(P):
            raise ValueError(f"poset {P.name} is not regular")
    # posets compare by points and order, so equal ones count once
    reps = list(dict.fromkeys(both))
    for i, P in enumerate(reps):
        for Q in reps[i + 1:]:
            if is_leq(P, Q) or is_leq(Q, P):
                raise ValueError(
                    f"posets {P.name} and {Q.name} are comparable, "
                    "the family is not an antichain"
                )
    set_i, set_j = set(I), set(J)
    if set_i == set_j:
        return None
    witness = next(P for P in both if (P in set_i) != (P in set_j))
    other = J if witness in set_i else I
    bundle = jankov_dna_formula(dual_algebra(witness), force=force)
    if not jankov_refutation_check(witness, bundle, force=force):
        raise RuntimeError(
            f"{witness.name} fails to refute its own characteristic formula"
        )
    for Q in other:
        if jankov_refutation_check(Q, bundle, force=force):
            raise RuntimeError(
                f"characteristic formula of {witness.name} is refuted on "
                f"{Q.name}, which sits on the opposite side"
            )
    return bundle.chi
