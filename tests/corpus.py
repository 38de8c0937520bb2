"""Exhaustive small-poset corpus for the test suite.

Generates one representative per isomorphism class by extending each
smaller poset with a fresh maximal point over every order ideal, then
deduplicating by a canonical relabeling.  Class counts per size are
checked against the published sequence for unlabeled posets.
"""
from __future__ import annotations

from itertools import permutations, product

import reference
from esakialab.poset_core import FinitePoset, make_delta0, make_delta1, make_ladder, make_medvedev

# unlabeled posets on 1..7 points
CLASS_COUNTS = (1, 2, 5, 16, 63, 318, 2045)


def _refined_groups(P: FinitePoset) -> list[list[int]]:
    n = len(P)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if P.up[j] >> i & 1:
                down[i] |= 1 << j
    inv = [(bin(P.up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    while True:
        nxt = []
        for i in range(n):
            above = tuple(sorted(inv[j] for j in range(n) if P.up[i] >> j & 1))
            below = tuple(sorted(inv[j] for j in range(n) if down[i] >> j & 1))
            nxt.append((inv[i], above, below))
        ranks = {v: r for r, v in enumerate(sorted(set(nxt)))}
        coarse = [ranks[v] for v in nxt]
        if len(set(coarse)) == len(set(inv)):
            inv = coarse
            break
        inv = coarse
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(inv):
        groups.setdefault(v, []).append(i)
    return [groups[v] for v in sorted(groups)]


def canonical_key(P: FinitePoset) -> tuple:
    """A relabeling-invariant key: minimal relation encoding over admissible orders."""
    n = len(P)
    groups = _refined_groups(P)
    best = None
    for perms in product(*[permutations(g) for g in groups]):
        position = [0] * n
        slot = 0
        for g in perms:
            for i in g:
                position[i] = slot
                slot += 1
        rel = sorted(
            (position[i], position[j])
            for i in range(n)
            for j in range(n)
            if i != j and P.up[i] >> j & 1
        )
        if best is None or rel < best:
            best = rel
    return (n, tuple(best))


def is_isomorphic(P: FinitePoset, Q: FinitePoset) -> bool:
    return len(P) == len(Q) and canonical_key(P) == canonical_key(Q)


def _ideals(P: FinitePoset) -> list[int]:
    # the reference enumeration, so the corpus does not move with the library
    return [P.full_mask & ~u for u in reference.upsets(P)]


def _extend(P: FinitePoset, counter: int) -> list[FinitePoset]:
    """All one-point extensions of P by a new maximal point."""
    out = []
    for ideal in _ideals(P):
        points = list(P.points) + [f"x{counter}"]
        pairs = [
            (P.points[i], P.points[j])
            for i in range(len(P))
            for j in range(len(P))
            if i != j and P.up[i] >> j & 1
        ]
        for i in range(len(P)):
            if ideal >> i & 1:
                pairs.append((P.points[i], f"x{counter}"))
        out.append(FinitePoset(points, pairs))
    return out


_cache: dict[int, list[list[FinitePoset]]] = {}


def posets_by_size(max_size: int) -> list[list[FinitePoset]]:
    """posets_by_size(n)[k] lists representatives with k+1 points, k < n."""
    if max_size in _cache:
        return _cache[max_size]
    levels: list[list[FinitePoset]] = [[FinitePoset(["x0"], [])]]
    counter = 1
    while len(levels) < max_size:
        seen: dict[tuple, FinitePoset] = {}
        for P in levels[-1]:
            for Q in _extend(P, counter):
                key = canonical_key(Q)
                if key not in seen:
                    seen[key] = Q
        levels.append([seen[k] for k in sorted(seen)])
        counter += 1
    _cache[max_size] = levels
    return levels


def posets_up_to(max_size: int) -> list[FinitePoset]:
    return [P for level in posets_by_size(max_size) for P in level]


def named_frames() -> list[FinitePoset]:
    """M2-M4, F1-F3, G3-G5 and R0, R1 and R2 at 3 and 4 levels."""
    named = [make_medvedev(n) for n in (2, 3, 4)]
    named += [make_delta0(n) for n in (1, 2, 3)] + [make_delta1(n) for n in (3, 4, 5)]
    named += [make_ladder(kind, n) for kind in ("R0", "R1", "R2") for n in (3, 4)]
    return named


def side_by_side(*posets: FinitePoset) -> FinitePoset:
    """The disjoint union, points in argument order, the k-th poset's labels
    prefixed with k."""
    points = [f"{k}{p}" for k, P in enumerate(posets) for p in P.points]
    pairs = [(f"{k}{a}", f"{k}{b}") for k, P in enumerate(posets) for a, b in P.cover_pairs()]
    return FinitePoset(points, pairs)
