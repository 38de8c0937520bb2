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
import math
from dataclasses import dataclass, field
from typing import Iterable

from .budget import SweepGuardError, charge, sweep_limit
from .heyting import (
    FiniteHeytingAlgebra,
    dual_algebra,
    dual_poset,
    is_leq,
    is_regularly_generated,
    principal_upset_views,
)
from .logic import (
    And,
    Atom,
    Bot,
    Formula,
    Iff,
    Implies,
    Or,
    Top,
    atoms,
    big_and,
    compile_formulas,
    format_formula,
    refutes,
    stage_plan,
)
from .poset_core import FinitePoset
from .poset_core.morphisms import _is_leq
from .regularity import is_regular_structural, is_strongly_regular

# Negative-valuation sweeps cost |B-core|^len(atoms); four atoms keeps the
# worst case at 16^4 per component without pruning.
MAX_ATOMS = 4


@dataclass(frozen=True)
class JankovBundle:
    """The characteristic formula of one algebra, with its parts exposed.

    representatives maps every element to its formula: a fresh atom for
    core elements, the generated-subalgebra witness term for the rest.
    plan is chi's refutation search, as logic.refutes takes it. dual is the
    source's dual poset, built once for the refutation check's cross-check.
    """

    source: FiniteHeytingAlgebra
    atom_names: dict[int, str]
    representatives: dict[int, Formula]
    second_greatest: int
    alpha: Formula
    chi: Formula
    plan: tuple = field(repr=False, compare=False)
    dual: FinitePoset = field(repr=False, compare=False)

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


def _called(P: FinitePoset) -> str:
    """How an error message names P, which may have no name."""
    return f"poset {P.name}" if P.name else "an unnamed poset"


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
    base: dict[int, Formula] = {u: Atom(f"p{H.index(u)}") for u in seeds}
    base.setdefault(H.bot, Bot())
    base.setdefault(H.top, Top())
    ops = [(And, H.meet), (Or, H.join), (Implies, H.imp)]
    terms: dict[int, Formula] = {}
    sizes: dict[int, int] = {}
    order: list[int] = []

    # (size, op rank, operand indices); a key always names one term, and the
    # term is built only when its entry is the first to reach its value
    heap = sorted((1, -1, H.index(u), -1) for u in base)
    els = H.elements
    while heap:
        size, rank, ia, ib = heapq.heappop(heap)
        a, b = els[ia], els[ib]
        value = a if rank < 0 else ops[rank][1](a, b)
        if value in terms:
            continue
        terms[value] = base[a] if rank < 0 else ops[rank][0](terms[a], terms[b])
        sizes[value] = size
        order.append(value)
        for r, (_, fn) in enumerate(ops):
            for other in order:
                for a, b in ((value, other), (other, value)):
                    if fn(a, b) not in terms:
                        heapq.heappush(heap, (sizes[a] + sizes[b] + 1, r, H.index(a), H.index(b)))
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
            f"{_called(H.base)} has no root, so its algebra is not subdirectly irreducible"
        )
    if not is_regularly_generated(H):
        raise ValueError(
            f"the algebra of {_called(H.base)} is not regularly generated, "
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

    # the operation table: (node, a, b, fn(a, b)) for meet, join, imp
    table = [
        (node, a, b, fn(a, b))
        for node, fn in ((And, H.meet), (Or, H.join), (Implies, H.imp))
        for a in H.elements
        for b in H.elements
    ]
    conjuncts = [Iff(psi[H.bot], Bot())]
    conjuncts += [Iff(node(psi[a], psi[b]), psi[c]) for node, a, b, c in table]
    alpha = big_and(conjuncts)
    chi = Implies(alpha, psi[s])
    return JankovBundle(
        source=H,
        atom_names=atom_names,
        representatives=psi,
        second_greatest=s,
        alpha=alpha,
        chi=chi,
        plan=_search_plan(H, psi, s, table),
        dual=dual_poset(H),
    )


def _search_plan(
    H: FiniteHeytingAlgebra, psi: dict[int, Formula], s: int, table: list[tuple]
) -> tuple:
    """chi's refutation search on the algebra of a rooted poset.

    A biconditional contains the root iff its two sides agree on the whole
    frame, so alpha's conjuncts become exact equations: the bottom clause
    and one per entry of the operation table. The target is psi_s.
    """
    prog = compile_formulas([*(psi[x] for x in H.elements), Bot()])
    # the atoms of chi are those of the representatives; the atoms of psi_s
    # come first so the psi_s != top condition prunes early
    s_names = atoms(psi[s])
    order = s_names + tuple(sorted(set(prog.names) - set(s_names)))
    *roots, bot = prog.roots
    node = dict(zip(H.elements, roots))
    eqs = [(And, node[H.bot], node[H.bot], bot)]  # psi_bot & psi_bot = bot
    eqs += [(kind, node[a], node[b], node[c]) for kind, a, b, c in table]
    return stage_plan(prog, order, node[s], eqs)


def jankov_refutation_check(
    Bpos: FinitePoset, bundle: JankovBundle, force: bool = False
) -> bool:
    """True iff some negative valuation on Bpos's algebra refutes chi.

    chi = alpha -> psi_s fails under a valuation iff some point lands in
    alpha but outside psi_s.  Membership at a point only depends on the
    point's upset, and restricting upsets to it is an algebra homomorphism
    under which every regular element has a regular preimage, so the sweep
    runs once per distinct principal upset with the point as root.  Each
    root's algebra is a ``heyting.UpsetView`` on Bpos's own masks: its imp
    reads Bpos's downset tables, built once per call, and its regulars are
    neg m for the sets m of maximal points above the root, read through
    that imp; no subposet or algebra is built per root.  The sweep passes
    no automorphisms: those a view could list are Bpos's, not the upset's,
    and listing each upset's own cost more than the orbit sweep saved on
    the classes of at most 6 points.  The result is cross-checked against the order-theoretic route
    (an upset of Bpos mapping onto the source's dual); divergence would
    falsify the characteristic-formula theorem, so it is raised, not
    returned.  The cross-check is ``is_leq``, budget and all; forced, it
    reads no budget either.
    """
    budget = [math.inf if force else sweep_limit()]
    refuted = False
    for K in principal_upset_views(Bpos, force):
        refuted = refutes(K, K.regulars, bundle.plan, budget)
        if budget[0] < 0:  # stopped on the node past the budget
            charge("jankov_refutation_check", "search nodes over all roots",
                   sweep_limit() + 1, "nodes")
        if refuted:
            break
    structural = _is_leq(bundle.dual, Bpos, math.inf) if force else is_leq(bundle.dual, Bpos)
    if refuted != structural:
        raise RuntimeError(
            f"refutation sweep ({refuted}) disagrees with the divisibility "
            f"search ({structural}) on {_called(Bpos)}"
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
    """Check pairwise incomparability in both directions, with regularity flags.

    Each ordered pair asks ``is_leq(A, B)``, each under its own countdown
    of ``sweep_limit()`` points assigned, read once per call. So a member
    whose searches run long lists its automorphisms once, on the poset,
    and every later pair onto it tries one candidate per orbit; members
    whose searches are short list nothing, however large their groups."""
    family = tuple(posets)
    limit = sweep_limit()
    pairs = tuple(
        (i, j)
        for i, A in enumerate(family)
        for j, B in enumerate(family)
        if i != j and _is_leq(A, B, limit)
    )
    return AntichainReport(
        posets=family,
        comparable_pairs=pairs,
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
            raise ValueError(f"{_called(P)} is not rooted")
        if not is_regular_structural(P):
            raise ValueError(f"{_called(P)} is not regular")
    # posets compare by points and order, so equal ones count once
    reps = list(dict.fromkeys(both))
    pairs = antichain_verify(reps).comparable_pairs
    if pairs:
        i, j = min(tuple(sorted(pair)) for pair in pairs)
        raise ValueError(
            f"{_called(reps[i])} and {_called(reps[j])} are comparable, "
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
            f"{_called(witness)} fails to refute its own characteristic formula"
        )
    for Q in other:
        if jankov_refutation_check(Q, bundle, force=force):
            raise RuntimeError(
                f"the characteristic formula of {_called(witness)} is refuted on "
                f"{_called(Q)}, which sits on the opposite side"
            )
    return bundle.chi
