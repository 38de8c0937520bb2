"""P-morphisms between finite posets: validation, search, reductions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..budget import charge, sweep_limit
from .poset import FinitePoset, UnknownPointError, _bits, _renumbered, _top_down, _within, collapse


class ReductionError(ValueError):
    """The side condition of a point reduction does not hold."""


@dataclass(frozen=True)
class PMorphism:
    """A total point map between two posets.

    ``mapping[i]`` is the target index of the i-th source point. Validity
    (monotone plus back condition) is checked by :func:`p_morphism_violation`,
    not at construction.
    """

    source: FinitePoset
    target: FinitePoset
    mapping: tuple[int, ...]

    @classmethod
    def from_dict(
        cls, source: FinitePoset, target: FinitePoset, assignment: dict[str, str]
    ) -> "PMorphism":
        try:
            mapping = tuple(target.index(assignment[p]) for p in source.points)
        except KeyError as err:
            raise UnknownPointError(*err.args) from None
        return cls(source, target, mapping)

    def __call__(self, label: str) -> str:
        return self.target.points[self.mapping[self.source.index(label)]]

    def image_mask(self, source_mask: int) -> int:
        """UnknownPointError for a mask with bits beyond the source."""
        return _renumbered((_within(self.source, source_mask),), [1 << q for q in self.mapping])[0]

    def preimage_mask(self, target_mask: int) -> int:
        out = 0
        for i, q in enumerate(self.mapping):
            if target_mask >> q & 1:
                out |= 1 << i
        return out

    @property
    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full_mask) == self.target.full_mask


def p_morphism_violation(f: PMorphism) -> tuple[str, str, str] | None:
    """First violated condition as (kind, point, point), or None if valid.

    Every monotonicity failure comes before every back failure; within a
    kind, the least source point first, then the least partner. Both read
    one image f(up(x)) per point: monotone at x is f(up(x)) inside
    up(f(x)), and back the reverse inclusion."""
    src, tgt, m = f.source, f.target, f.mapping
    if len(m) != len(src.points) or any(not 0 <= q < len(tgt.points) for q in m):
        return ("total", "", "")
    images = _renumbered(src.up, [1 << q for q in m])
    for i, image in enumerate(images):
        if image & ~tgt.up[m[i]]:
            j = next(j for j in _bits(src.up[i]) if not tgt.up[m[i]] >> m[j] & 1)
            return ("monotone", src.points[i], src.points[j])
    for i, image in enumerate(images):
        missing = tgt.up[m[i]] & ~image
        if missing:
            q = next(_bits(missing))
            return ("back", src.points[i], tgt.points[q])
    return None


def iter_surjective_p_morphisms(P: FinitePoset, Q: FinitePoset) -> Iterator[PMorphism]:
    """Backtracking search for surjective p-morphisms P onto Q.

    The search counts down ``sweep_limit()`` points assigned, read once per
    call; past it the iterator raises ``SweepGuardError``."""
    n, m = len(P.points), len(Q.points)
    if n < m or m == 0:
        return
    limit = sweep_limit()
    left = [limit]
    for assign in _extend(P, Q, _top_down(P), [-1] * n, None, left):
        yield PMorphism(P, Q, tuple(assign))
    if left[0] < 0:  # stopped on the node past the budget
        charge("iter_surjective_p_morphisms", "search nodes", limit + 1, "nodes")


def is_leq(Apos: FinitePoset, Bpos: FinitePoset) -> bool:
    """True iff some upset of Bpos admits a surjective p-morphism onto Apos.

    If f maps an upset onto Apos, pick one preimage of each minimal point of
    Apos: f restricted to the upset they generate is still a p-morphism, and
    its image, an upset holding every minimal point, is all of Apos. So only
    the upsets generated by at most k points are tried, k the number of
    minimal points; for a rooted Apos, the principal upsets. An upset holds
    every point above its own, so it is searched on Bpos's rows, and each
    node joins the images of its covers in Bpos (see ``_extend``). Past the
    principal upsets, listing them costs |Bpos| per upset, charged on its
    own once it passes ``sweep_limit()``, as ``FinitePoset.upsets`` charges.

    A search onto Apos runs plain, capped at |Apos|^3 points assigned (or
    the countdown, if smaller), until one runs out of that cap. Then
    Apos's automorphisms are listed under the same cap and kept on Apos,
    and that search and every later one onto Apos try one candidate per
    orbit (``_extend``'s ``symmetry``), a cut listing used as it is. So a
    poset whose searches stay short lists nothing, however large its group.

    The searches and the listing share one countdown of ``sweep_limit()``
    points assigned; past it the call raises ``SweepGuardError``."""
    return _is_leq(Apos, Bpos, sweep_limit())


def _is_leq(Apos: FinitePoset, Bpos: FinitePoset, limit: float) -> bool:
    """``is_leq`` with one countdown of ``limit`` points assigned; ``math.inf``
    never reads the budget. A spent countdown refuses, whatever the cap.
    Aut(Apos) is listed under |Apos|^3 alone, so what Apos keeps depends
    on Apos only: a listing the countdown would cut refuses instead."""
    upsets = _upsets_to_try(Apos, Bpos, limit)
    if not upsets:
        return False
    symmetry, left = Apos._symmetry, limit
    if symmetry is None:
        m = len(Apos.points)
        cap = min(m ** 3, limit)
        found = _leq_search(Apos, Bpos, cap, None, upsets)
        if found is not None:
            return found
        left -= cap
        if left > 0:
            maps, spent, finished = list_automorphisms(Apos, min(cap, left))
            if finished or cap <= left:
                symmetry = Apos._symmetry = Symmetry(range(m), maps)
            left -= spent
    found = None if symmetry is None else _leq_search(Apos, Bpos, left, symmetry, upsets)
    if found is None:
        charge("is_leq", "search nodes", limit + 1, "nodes", limit)
    return found


def _leq_search(
    Apos: FinitePoset, Bpos: FinitePoset, limit: float, symmetry=None, upsets=None
) -> bool | None:
    """``is_leq``'s search over one countdown of ``limit`` points assigned:
    its verdict, or None once the countdown is spent. ``upsets`` are those
    ``_upsets_to_try`` lists, under ``limit`` when not given. ``symmetry``,
    a ``Symmetry`` of automorphisms of Apos over its point indices,
    prunes each upset's search to one candidate per orbit (see ``_extend``);
    without it this is the plain search."""
    if upsets is None:
        upsets = _upsets_to_try(Apos, Bpos, limit)
    m = len(Apos.points)
    order, assign, left = _top_down(Bpos), [-1] * len(Bpos.points), [limit]
    for u in upsets:
        if u.bit_count() < m:
            continue
        run = [i for i in order if u >> i & 1]
        for _ in _extend(Bpos, Apos, run, assign, None, left, symmetry):
            return True
        if left[0] < 0:  # stopped on the node past the budget
            return None
    return False


def _upsets_to_try(Apos: FinitePoset, Bpos: FinitePoset, limit: float) -> list[int]:
    """The upsets of Bpos that ``is_leq`` searches, none when Apos is empty
    or has more points than Bpos."""
    m = len(Apos.points)
    if m == 0 or m > len(Bpos.points):
        return []  # no upset of Bpos is large enough
    k = sum(row == 1 << i for i, row in enumerate(Apos.down))
    return _generated_upsets(Bpos, k, limit)


def _generated_upsets(P: FinitePoset, k: int, limit: float) -> list[int]:
    """The distinct upsets of P generated by at most k points, stably by size.

    Round r ORs the sets first found in round r - 1 with every principal
    upset; older sets gave theirs in earlier rounds. Stops after k rounds
    or at a fixed point. The first round gives P's own rows; after it the
    listing costs |P| per set, charged to ``is_leq`` once it passes
    ``limit``, so a wide source is refused before its 2^|P| sets."""
    n = len(P.points)
    found = dict.fromkeys([0])
    frontier = [0]
    for r in range(k):
        size = len(found)
        for u in frontier:
            for row in P.up:
                found.setdefault(u | row)
            if r and len(found) * n > limit:
                expr = f"|B| x generated upsets = {n} x {len(found)}"
                charge("is_leq", expr, n * len(found), "steps", limit)
        if len(found) == size:
            break
        frontier = list(found)[size:]
    return sorted(found, key=int.bit_count)


def _extend(
    P: FinitePoset, Q: FinitePoset, order: list[int], assign: list[int],
    like: list[int] | None, budget: list, symmetry=None,
) -> Iterator[list[int]]:
    """Yield ``assign`` once per surjective p-morphism onto Q from the upset
    ``order`` of P, which lists it top-down: the points above x have their
    images when x is reached. An image q is kept for x iff f(up(x)) = up(q):
    monotonicity at x is the inclusion into up(q), and the back condition
    the reverse one. A node joins its covers' images: each cover c of x
    passed that test, so up(f(c)) = f(up(c)), and strict up(x) is the union
    of the up(c), so f(strict up(x)) is the join of the up(f(c)), read in
    O(covers) rather than O(|up(x)|). The q with up(q) = that join plus q
    are ``Q.up_index``'s entry for it, so a node reads its few candidates
    and tests none. An empty ``order`` yields once, the empty map, when Q
    is empty too.

    Depth-first over an explicit stack, so a long chain costs no
    interpreter frames: moving on to the next position pushes the current
    one's candidates still untried, the image before it and its ``stab``, and
    running out of candidates pops back to the position before. Candidates
    are tried in increasing order, so assignments come out in
    lexicographic order of the images along ``order``.

    ``like[x]``, when given, is a mask that x's candidates must also lie
    in. ``budget`` is a one-element list that loses 1 per point assigned;
    the search stops once it falls below 0, as ``logic.refutes`` does, so
    a search the budget stops leaves it at -1. The count runs in a local
    int, written back to ``budget[0]`` before each yield and return and
    read again after each yield.

    ``symmetry``, when given, is a ``Symmetry`` of automorphisms of
    Q over its point indices, and the search then only decides whether a
    surjection exists. Each stack entry keeps its position's ``stab``, the
    listed maps that fix every image so far, and a node drops a candidate
    q that one of them sends lower. Such a map a fixes the join of the
    covers' images, so a(q) is a candidate too, and f followed by a is a
    surjective p-morphism that agrees with f before x and comes earlier in
    the order. So the plain search's first surjection is never dropped,
    whatever maps are listed; later ones may be. So ``is_leq``, which asks
    only for existence, passes Q's kept automorphisms once its searches onto
    Q run long, while ``iter_surjective_p_morphisms`` and
    ``list_automorphisms``, which list, pass none. Where ``stab`` is 0 a
    node filters nothing."""
    n, m = len(order), len(Q.points)
    if not n:
        if not m:
            yield assign
        return
    Pcovers, Qup, candidates_of = P.covers, Q.up, Q.up_index.get
    count, stack, pos, image = budget[0], [], 0, 0
    stab = symmetry.every if symmetry else 0
    if stab:
        lowers, fixes = symmetry.lowers, symmetry.fixes
    while True:
        x = order[pos]
        above = 0
        for c in Pcovers[x]:
            above |= Qup[assign[c]]
        candidates = candidates_of(above, ())
        if like:
            keep = like[x]
            candidates = [q for q in candidates if keep >> q & 1]
        if stab:
            candidates = [q for q in candidates if not stab & lowers[q]]
        candidates = iter(candidates)
        left = n - pos - 1
        while True:
            for q in candidates:
                new_image = image | 1 << q
                if m - new_image.bit_count() > left:
                    continue  # not enough points left to reach surjectivity
                break
            else:
                if not stack:
                    budget[0] = count
                    return
                candidates, image, stab = stack.pop()
                pos, left = pos - 1, left + 1
                continue
            count -= 1
            if count < 0:
                budget[0] = count
                return
            assign[order[pos]] = q
            if not left:
                budget[0] = count
                yield assign  # the count check left only the full image
                count = budget[0]
                continue
            stack.append((candidates, image, stab))
            pos, image = pos + 1, new_image
            if stab:
                stab &= fixes[q]
            break


class Symmetry:
    """Permutations of a sweep's domain, each a tuple of domain indices, as
    bit tables over their list: per domain value v, bit j of fixes[v] is
    set iff permutation j fixes v, and of lowers[v] iff it sends v to an
    earlier place in the domain. every has a bit per permutation."""

    __slots__ = ("fixes", "lowers", "every")

    def __init__(self, domain: Sequence[int], perms: Sequence[Sequence[int]]):
        self.fixes, self.lowers = dict.fromkeys(domain, 0), dict.fromkeys(domain, 0)
        self.every = (1 << len(perms)) - 1
        for j, g in enumerate(perms):
            for v, w in enumerate(g):
                if w == v:
                    self.fixes[domain[v]] |= 1 << j
                elif w < v:
                    self.lowers[domain[v]] |= 1 << j


def list_automorphisms(
    P: FinitePoset, budget: int
) -> tuple[tuple[tuple[int, ...], ...], int, bool]:
    """The order automorphisms of P other than the identity, each as its
    point map, from a search that assigns at most ``budget`` points.
    Returns (maps, points assigned, whether the search finished).

    An automorphism of a finite poset is a surjective p-morphism from P
    onto itself, so this is ``_extend`` from P onto P, top-down, with x's
    candidates cut by one mask per point to the points of the same |up|
    and |down|. Onto a poset of |P| points the count check rejects a
    repeated image, so every result is a bijection f with f(up(x)) =
    up(f(x)), hence an order automorphism: y >= x iff f(y) is in f(up(x))
    iff y is in up(x). The key prune keeps the search small: without it
    R2@4's 8 maximal points are tried in every order. A search the budget stops returns the maps
    it found, which are automorphisms all the same."""
    n = len(P.points)
    key = [(P.up[i].bit_count(), P.down[i].bit_count()) for i in range(n)]
    same: dict[tuple[int, int], int] = {}
    for i, k in enumerate(key):
        same[k] = same.get(k, 0) | 1 << i
    like = [same[k] for k in key]
    left, identity = [budget], list(range(n))
    found = _extend(P, P, _top_down(P), [-1] * n, like, left)
    maps = tuple(tuple(f) for f in found if f != identity)
    return maps, budget - max(left[0], 0), left[0] >= 0


def _alpha_condition(P: FinitePoset, xi: int, yi: int) -> bool:
    return P.up[xi] == P.up[yi] | 1 << xi


def _beta_condition(P: FinitePoset, xi: int, yi: int) -> bool:
    return P.strict_up(xi) == P.strict_up(yi)


def apply_reduction(
    P: FinitePoset, kind: str, x: str, y: str
) -> tuple[FinitePoset, PMorphism]:
    """Collapse y onto x under an alpha or beta side condition.

    alpha needs up(x) = up(y) + {x} (y is the unique cover of x); beta needs
    up(x) - {x} = up(y) - {y}. The result is the quotient identifying x and
    y, named P minus y; its order adds a <= x for every a <= y so that the
    collapse map is monotone.
    """
    xi, yi = P.index(x), P.index(y)
    if xi == yi:
        raise ReductionError("reduction needs two distinct points")
    if kind == "alpha":
        if not _alpha_condition(P, xi, yi):
            raise ReductionError(
                f"alpha reduction needs up({x!r}) = up({y!r}) with {x!r} added; "
                f"the up-set equality fails"
            )
    elif kind == "beta":
        if not _beta_condition(P, xi, yi):
            raise ReductionError(
                f"beta reduction needs up({x!r}) minus {x!r} = up({y!r}) minus {y!r}; "
                f"the up-set equality fails"
            )
    else:
        raise ReductionError(f"unknown reduction kind {kind!r}")

    keep = [p for p in P.points if p != y]
    block_of = [i - (i > yi) for i in range(len(P.points))]
    block_of[yi] = block_of[xi]
    reduced = collapse(P, block_of, keep, name=f"{P.name}/{kind}" if P.name else None)
    h = PMorphism(P, reduced, tuple(block_of))
    if p_morphism_violation(h) is not None:
        raise RuntimeError("reduction map failed validation; this is a bug")
    return reduced, h


def enumerate_reductions(P: FinitePoset) -> list[tuple[str, str, str]]:
    """Every ordered pair admitting a reduction, as (kind, x, y).

    Beta pairs are symmetric and appear in both orders; alpha pairs only as
    (lower point, its unique cover). At most one kind fits a given pair.
    """
    out = []
    n = len(P.points)
    for xi in range(n):
        for yi in range(n):
            if xi == yi:
                continue
            if _alpha_condition(P, xi, yi):
                out.append(("alpha", P.points[xi], P.points[yi]))
            elif _beta_condition(P, xi, yi):
                out.append(("beta", P.points[xi], P.points[yi]))
    return out


def strong_regularization(P: FinitePoset) -> tuple[FinitePoset, PMorphism]:
    """Add a fresh maximal point over every non-maximal point's downset.

    Returns (P*, p) where p retracts P* onto P: identity on the original
    points, and each added star goes to the least maximal point above its
    base. P* always has pairwise distinct maximal-point traces.
    """
    existing = set(P.points)
    points, up, down = list(P.points), list(P.up), list(P.down)
    mapping = list(range(len(P.points)))
    for i, p in enumerate(P.points):
        if P.up[i] != 1 << i:
            label = p + "*"
            while label in existing:
                label += "*"
            existing.add(label)
            # the star is maximal and lies over exactly the points below i
            star, rest = 1 << len(points), P.down[i]
            while rest:
                low = rest & -rest
                up[low.bit_length() - 1] |= star
                rest ^= low
            points.append(label)
            up.append(star)
            down.append(P.down[i] | star)
            mapping.append(next(_bits(P.m_mask(i))))
    result = FinitePoset._from_closed(points, up, down, f"{P.name}*" if P.name else None)
    retraction = PMorphism(result, P, tuple(mapping))
    if p_morphism_violation(retraction) is not None:
        raise RuntimeError("star retraction failed validation; this is a bug")
    return result, retraction
