"""Regularity machinery: bounded-bisimulation partitions, quotients,
implication rank, and the morphism preservation reports.

Four independent oracles decide regularity of a finite poset: the
structural cover condition, discreteness of the limit partition, regular
generation of the upset algebra, and (at small sizes) a brute-force sweep
over maximal-bijective p-morphic collapses whose blocks each lie inside
one maximal trace. Tests pin their agreement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .heyting import FiniteHeytingAlgebra, _level_members, dual_algebra, regular_upsets
from .poset_core import (
    FinitePoset,
    OrderConstructionError,
    ParentMismatchError,
    PMorphism,
    p_morphism_violation,
)
from .poset_core.poset import _bits, _renumbered, collapse


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks (bitmasks) covering the poset, ordered by
    least member."""

    poset: FinitePoset
    blocks: tuple[int, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if union & b:
                raise ValueError("blocks overlap")
            union |= b
        if union != self.poset.full_mask:
            raise ValueError("blocks do not cover the poset")

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def is_discrete(self) -> bool:
        return len(self.blocks) == len(self.poset)

    def block_index(self) -> list[int]:
        out = [0] * len(self.poset)
        for k, b in enumerate(self.blocks):
            for i in _bits(b):
                out[i] = k
        return out

    def same_block(self, a: str, b: str) -> bool:
        idx = self.block_index()
        return idx[self.poset.index(a)] == idx[self.poset.index(b)]

    def blocks_as_labels(self) -> list[list[str]]:
        return [
            [self.poset.points[i] for i in _bits(b)] for b in self.blocks
        ]


def _classes_to_partition(P: FinitePoset, cls: list[int]) -> Partition:
    masks: dict[int, int] = {}
    for i, c in enumerate(cls):
        masks[c] = masks.get(c, 0) | 1 << i
    blocks = sorted(masks.values(), key=lambda m: (m & -m).bit_length())
    return Partition(P, tuple(blocks))


def _first_seen(sigs: Iterable[int]) -> list[int]:
    """Each point's class: the rank of its signature's first appearance."""
    seen: dict[int, int] = {}
    return [seen.setdefault(sig, len(seen)) for sig in sigs]


def _sim0_classes(P: FinitePoset) -> list[int]:
    return _first_seen(P.m_mask(i) for i in range(len(P)))


def _refine(P: FinitePoset, cls: list[int]) -> list[int]:
    return _first_seen(_renumbered(P.up, [1 << c for c in cls]))


def _classes_upto(P: FinitePoset, n: int | None) -> tuple[int, list[int]]:
    """Level min(n, limit) and its classes, n=None asking for the limit:
    the first level the next leaves with as many classes, since each
    level refines the last."""
    level, cls = 0, _sim0_classes(P)
    while n is None or level < n:
        nxt = _refine(P, cls)
        if len(set(nxt)) == len(set(cls)):
            break
        level, cls = level + 1, nxt
    return level, cls


def sim_n(P: FinitePoset, n: int) -> Partition:
    """The level-n trace equivalence: level 0 groups by maximal trace,
    each further level by the set of previous-level classes in the up-set."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _classes_to_partition(P, _classes_upto(P, n)[1])


def sim_infty(P: FinitePoset) -> Partition:
    return _classes_to_partition(P, _classes_upto(P, None)[1])


def sim_stabilization_index(P: FinitePoset) -> int:
    """Least n with the level-n partition equal to the limit partition."""
    return _classes_upto(P, None)[0]


def quotient(P: FinitePoset, part: Partition) -> FinitePoset:
    """Poset on the blocks with the induced order.

    Intended for sim_n / sim_infty partitions, where the relation is a
    partial order; anything else may fail the antisymmetry check inside
    the poset constructor, which names the offending cycle.
    """
    if part.poset != P:
        raise ParentMismatchError("partition belongs to a different poset")
    labels = [
        members[0] if len(members) == 1 else "{" + ",".join(members) + "}"
        for members in part.blocks_as_labels()
    ]
    return collapse(P, part.block_index(), labels, name=f"{P.name}/~" if P.name else None)


def quotient_map(P: FinitePoset, part: Partition) -> PMorphism:
    Q = quotient(P, part)
    idx = part.block_index()
    return PMorphism(P, Q, tuple(idx))


# -- regularity oracles -------------------------------------------------------


def is_regular_structural(P: FinitePoset) -> bool:
    """Every non-maximal point has >= 2 covers, and distinct non-maximal
    points have distinct cover sets."""
    seen = set()
    for covers in P.covers:
        if not covers:
            continue  # a maximal point
        if len(covers) < 2 or covers in seen:
            return False
        seen.add(covers)
    return True


def is_strongly_regular(P: FinitePoset) -> bool:
    traces = {P.m_mask(i) for i in range(len(P))}
    return len(traces) == len(P)


def is_stable_under_sim_infty(P: FinitePoset) -> bool:
    return sim_infty(P).is_discrete


def _trace_partitions(
    cls: list[int], i: int, traces: list[int], firsts: list[int]
) -> Iterator[list[int]]:
    """Every restricted growth string extending ``cls[:i]`` whose blocks
    each lie inside one maximal trace, in lexicographic order. Class c has
    least member ``firsts[c]``; point i joins it only when their traces
    agree, and otherwise opens a new class. A plain function: a closure
    that calls itself would leave a reference cycle for the collector on
    every sweep."""
    if i == len(cls):
        yield list(cls)
        return
    for c in range(len(firsts)):
        if traces[firsts[c]] == traces[i]:
            cls[i] = c
            yield from _trace_partitions(cls, i + 1, traces, firsts)
    cls[i] = len(firsts)
    firsts.append(i)
    yield from _trace_partitions(cls, i + 1, traces, firsts)
    firsts.pop()


BRUTEFORCE_LIMIT = 7
_BLOCK_LABELS = tuple(f"q{c}" for c in range(BRUTEFORCE_LIMIT))


def is_regular_bruteforce_morphism(P: FinitePoset) -> bool:
    """Sweep the proper p-morphic collapses; regular iff none of them is
    injective-on-maximals with a bijective maximal image.

    Only kernels whose blocks each lie inside one maximal trace
    ``M(x) = up(x) & maximal`` are tried. A p-morphism f has
    M(f(x)) = f(M(x)); when f is injective on maximal points, f(x) = f(y)
    gives f(M(x)) = f(M(y)) and so M(x) = M(y). No other kernel can be a
    witness. A kernel whose induced relation has a cycle has no poset image
    and is skipped. Every kernel uses each of its classes, so every
    collapse is onto its image.
    """
    n = len(P)
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force oracle is limited to {BRUTEFORCE_LIMIT} points (got {n})")
    if not n:
        return True
    traces = [row & P.maximal_mask for row in P.up]
    for cls in _trace_partitions([0] * n, 1, traces, [0]):
        k = max(cls) + 1
        if k == n:
            continue
        try:
            Q = collapse(P, cls, _BLOCK_LABELS[:k])
        except OrderConstructionError:
            continue
        f = PMorphism(P, Q, tuple(cls))
        if p_morphism_violation(f) is not None:
            continue
        if {cls[i] for i in _bits(P.maximal_mask)} != set(_bits(Q.maximal_mask)):
            continue
        return False
    return True


# -- implication rank ---------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    algebra: FiniteHeytingAlgebra
    ranks: dict[int, int]

    def rank(self, u: int) -> int:
        return self.ranks[u]

    def __contains__(self, u: int) -> bool:
        return u in self.ranks

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.ranks, key=self.algebra.index))

    @property
    def max_rank(self) -> int:
        return max(self.ranks.values())

    def as_labelled(self) -> dict[str, int]:
        return {self.algebra.element_label(u): self.ranks[u] for u in self.domain}


def rank_table(P: FinitePoset) -> RankTable:
    """The implication rank of each element the regular upsets generate:
    the first level of close_under listing it, where level 0 is the
    meet/join closure of the regulars with the bounds and each next level
    adds one implication layer. Reads the regular closure of the live
    algebra of P, so a caller holding that algebra pays for it once; each
    table owns the map it lists."""
    H = dual_algebra(P)
    ranks: dict[int, int] = {}
    for level, g in enumerate(H.regular_closure):
        for u in _level_members(H, g, "rank_table"):
            ranks.setdefault(u, level)
    return RankTable(H, ranks)


@dataclass(frozen=True)
class SeparationCheck:
    ok: bool
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.ok


def separation_equivalence_check(P: FinitePoset, n: int | None) -> SeparationCheck:
    """Verify both directions of: x and y are level-n equivalent iff they
    agree on every element of rank <= n (n=None: the limit level against
    the whole closure). Those elements are the joins of the level's least
    elements g(x), so only the g's are tested, in canonical order."""
    H = dual_algebra(P)
    g = H.regular_closure[-1 if n is None else min(n, len(H.regular_closure) - 1)]
    part = sim_infty(P) if n is None else sim_n(P, n)
    tests = sorted(set(g), key=H.index)
    idx = part.block_index()
    for a in range(len(P)):
        for b in range(a + 1, len(P)):
            equivalent = idx[a] == idx[b]
            agree_on = None
            for u in tests:
                if (u >> a & 1) != (u >> b & 1):
                    agree_on = u
                    break
            agree = agree_on is None
            if equivalent and not agree:
                return SeparationCheck(False, (P.points[a], P.points[b], agree_on))
            if agree and not equivalent:
                return SeparationCheck(False, (P.points[a], P.points[b], None))
    return SeparationCheck(True, None)


# -- morphism preservation ----------------------------------------------------


@dataclass(frozen=True)
class MorphismRegularityReport:
    preserves_regulars: bool
    preserves_polynomials: bool


def morphism_regularity_report(f: PMorphism) -> MorphismRegularityReport:
    """Both preservation properties, each decided by two independent routes.

    Route one for regulars: injectivity on maximal points. Route two: the
    pullback is a Boolean isomorphism from the target's regular upsets onto
    the source's. Polynomials likewise: forward preservation of limit-level
    distinctness against pullback equality of the generated subalgebras.
    Requires a surjective p-morphism; the pullback routes are only
    equivalences under surjectivity. The two routes of each property are
    cross-checked, and a disagreement raises RuntimeError, so the report
    holds one verdict per property.
    """
    if p_morphism_violation(f) is not None:
        raise ValueError("not a p-morphism")
    if not f.is_surjective:
        raise ValueError("report requires a surjective p-morphism")
    src, tgt = f.source, f.target

    seen: set[int] = set()
    injective_on_max = True
    for i in _bits(src.maximal_mask):
        q = f.mapping[i]
        if q in seen:
            injective_on_max = False
            break
        seen.add(q)

    src_regs = set(regular_upsets(src))
    tgt_regs = regular_upsets(tgt)
    pulled = [f.preimage_mask(v) for v in tgt_regs]
    pullback_iso = set(pulled) == src_regs and len(set(pulled)) == len(pulled)
    HS, HT = dual_algebra(src), dual_algebra(tgt)
    if pullback_iso:
        for v in tgt_regs:
            if f.preimage_mask(HT.neg(v)) != HS.neg(f.preimage_mask(v)):
                pullback_iso = False
                break
            for w in tgt_regs:
                if f.preimage_mask(HT.core_join(v, w)) != HS.core_join(
                    f.preimage_mask(v), f.preimage_mask(w)
                ):
                    pullback_iso = False
                    break
            if not pullback_iso:
                break
    if pullback_iso != injective_on_max:
        raise RuntimeError(
            "regularity routes disagree; this indicates an implementation bug"
        )

    src_part = sim_infty(src).block_index()
    tgt_part = sim_infty(tgt).block_index()
    sim_forward = True
    for a in range(len(src)):
        for b in range(a + 1, len(src)):
            if src_part[a] != src_part[b] and tgt_part[f.mapping[a]] == tgt_part[f.mapping[b]]:
                sim_forward = False
                break
        if not sim_forward:
            break

    # f^-1 preserves unions and meets, so the pulled-back subalgebra's least
    # element holding x is f^-1(gT(f(x))); equal least elements, equal sublattices
    gS, gT = HS.regular_closure[-1], HT.regular_closure[-1]
    gen_pullback_equal = all(f.preimage_mask(gT[q]) == gS[x] for x, q in enumerate(f.mapping))
    if gen_pullback_equal != sim_forward:
        raise RuntimeError(
            "polynomial routes disagree; this indicates an implementation bug"
        )

    return MorphismRegularityReport(
        preserves_regulars=injective_on_max,
        preserves_polynomials=sim_forward,
    )
