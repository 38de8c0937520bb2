"""Jankov-style formulas for the negative-valuation semantics.

Builds, for a finite regularly generated algebra with a rooted dual, the
characteristic implication chi = alpha -> psi_s: alpha conjoins the bottom
clause with one biconditional per operation table entry, and psi_s names
the second-greatest element.  A negative valuation refutes chi on B exactly
when the source algebra divides B, which is what the refutation check
verifies from both ends.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .heyting import (
    FiniteHeytingAlgebra,
    dual_algebra,
    dual_poset,
    generated_subalgebra,
    is_leq,
)
from .logic import (
    OP_ATOM,
    OP_BOT,
    OP_TOP,
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Or,
    SweepGuardError,
    atoms,
    big_and,
    compile_formulas,
    format_formula,
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

    Depth d of the search values the atom order[d] at node atom_node[d];
    steps[d] are the other nodes of the compiled representatives whose last
    atom that is, and conjuncts[d] the table equations (kind, node of a,
    node of b, node of the result) whose three sides become known there.
    """

    size: int
    order: tuple[str, ...]
    atom_node: tuple[int, ...]
    steps: tuple[list[tuple[int, int, int, int]], ...]
    conjuncts: tuple[list[tuple[int, int, int, int]], ...]
    bot: tuple[int, int]  # (depth, node) of psi_bot
    second: tuple[int, int]  # (depth, node) of psi_s


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


def jankov_dna_formula(
    H: FiniteHeytingAlgebra,
    witness_order: str = "size",
    force: bool = False,
) -> JankovBundle:
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
    members, terms = generated_subalgebra(H, H.regulars, witness_order=witness_order)
    if len(members) != len(H.elements):
        raise ValueError(
            f"{H.base.name}: algebra is not regularly generated, "
            "no Jankov representative exists for some element"
        )
    if len(H.regulars) > MAX_ATOMS and not force:
        raise SweepGuardError(
            f"{len(H.regulars)} atoms exceed the limit of {MAX_ATOMS}; "
            "pass force=True to accept the sweep cost"
        )
    atom_names = {u: f"p{H.index(u)}" for u in H.regulars}
    s = H.top & ~(1 << root)
    psi = terms

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
    rank = {n: i for i, n in enumerate(order)}
    root = dict(zip(H.elements, prog.roots))
    level: list[int] = []
    atom_node = [0] * len(order)
    steps: list[list[tuple[int, int, int, int]]] = [[] for _ in order]
    for i, (op, a, b) in enumerate(prog.nodes):
        if op == OP_ATOM:
            level.append(rank[prog.names[a]])
            atom_node[level[i]] = i
            continue
        level.append(0 if op in (OP_BOT, OP_TOP) else max(level[a], level[b]))
        steps[level[i]].append((i, op, a, b))
    conjuncts: list[list[tuple[int, int, int, int]]] = [[] for _ in order]
    for kind, fn in enumerate((H.meet, H.join, H.imp)):
        for a in H.elements:
            for b in H.elements:
                ra, rb, rc = root[a], root[b], root[fn(a, b)]
                conjuncts[max(level[ra], level[rb], level[rc])].append((kind, ra, rb, rc))
    return _SearchPlan(
        size=len(prog.nodes),
        order=order,
        atom_node=tuple(atom_node),
        steps=tuple(steps),
        conjuncts=tuple(conjuncts),
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
    plan = bundle.plan
    values = [0] * plan.size
    target_ops = (K.meet, K.join, K.imp)
    bot_lvl, bot_node = plan.bot
    s_lvl, s_node = plan.second
    limit = sweep_limit()

    def rec(depth: int) -> bool:
        if depth == len(plan.order):
            return True
        atom, steps, conjuncts = plan.atom_node[depth], plan.steps[depth], plan.conjuncts[depth]
        for value in K.regulars:
            budget[0] += 1
            if budget[0] > limit and not force:
                raise SweepGuardError(
                    f"refutation sweep exceeded {limit} nodes; "
                    "pass force=True to continue"
                )
            values[atom] = value
            sweep_nodes(K, steps, values)
            ok = not (depth == s_lvl and values[s_node] == K.top)
            if ok and depth == bot_lvl and values[bot_node] != K.bot:
                ok = False
            if ok:
                for kind, a, b, c in conjuncts:
                    if target_ops[kind](values[a], values[b]) != values[c]:
                        ok = False
                        break
            if ok and rec(depth + 1):
                return True
        return False

    return rec(0)


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


def _poset_key(P: FinitePoset) -> tuple:
    return (P.points, tuple(P.up))


def separating_formula(
    I: list[FinitePoset], J: list[FinitePoset], force: bool = False
) -> Formula | None:
    """A formula valid (negatively) on one side and refuted on the other.

    Inputs must be rooted, regular, and pairwise incomparable across the
    union.  Returns None when the two sides are equal as sets; otherwise
    returns chi of a one-sided member, after verifying by sweep that the
    member refutes it and every poset of the other side validates it.
    """
    for P in list(I) + list(J):
        if _root_index(P) is None:
            raise ValueError(f"poset {P.name} is not rooted")
        if not is_regular_structural(P):
            raise ValueError(f"poset {P.name} is not regular")
    distinct: dict[tuple, FinitePoset] = {}
    for P in list(I) + list(J):
        distinct.setdefault(_poset_key(P), P)
    reps = list(distinct.values())
    for i, P in enumerate(reps):
        for Q in reps[i + 1:]:
            if is_leq(P, Q) or is_leq(Q, P):
                raise ValueError(
                    f"posets {P.name} and {Q.name} are comparable, "
                    "the family is not an antichain"
                )
    keys_i = {_poset_key(P) for P in I}
    keys_j = {_poset_key(P) for P in J}
    if keys_i == keys_j:
        return None
    witness = None
    for P in list(I) + list(J):
        k = _poset_key(P)
        if (k in keys_i) != (k in keys_j):
            witness = P
            other = J if k in keys_i else I
            break
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
