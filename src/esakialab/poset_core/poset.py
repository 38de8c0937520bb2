"""Finite posets stored as per-point bitmask up-sets.

Bit j of ``P.up[i]`` is set iff ``P.points[i] <= P.points[j]``. All order
combinatorics (closures, maximal traces, covers, depth, width, upset
enumeration) are mask operations on these rows.
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

from ..budget import charge, sweep_limit


class OrderConstructionError(ValueError):
    """The input relation cannot be completed to a partial order."""


class ParentMismatchError(ValueError):
    """A partition was used with a poset it does not belong to."""


class UnknownPointError(KeyError):
    """A point label is not present in the poset."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite partial order over labelled points.

    Construction takes generating pairs (x, y) meaning x <= y, computes the
    reflexive-transitive closure and rejects cycles. Reflexive pairs may be
    omitted. Equality is by (point labels, order), not by name.
    """

    # _algebra: a weak link to the upset algebra heyting.dual_algebra built last;
    # _covers and _up_index: see covers and up_index, each built on first use;
    # _symmetry: the automorphisms morphisms.is_leq lists once a search onto P runs long
    __slots__ = (
        "points", "up", "down", "name", "_index", "_maximal", "_algebra", "_covers", "_up_index",
        "_symmetry",
    )

    def __init__(
        self,
        points: Iterable[str],
        pairs: Iterable[tuple[str, str]] = (),
        name: str | None = None,
    ):
        pts = tuple(points)
        index = {p: i for i, p in enumerate(pts)}
        up = [0] * len(pts)
        for a, b in pairs:
            if a not in index:
                raise UnknownPointError(a)
            if b not in index:
                raise UnknownPointError(b)
            up[index[a]] |= 1 << index[b]
        self._close(pts, index, up, name)

    @classmethod
    def _from_rows(cls, points: Sequence[str], up: Sequence[int], name: str | None = None):
        """The poset with point i below the points of row ``up[i]``, closed as in
        ``__init__``: for rows that are open or may hold a cycle (the frame
        families' cover rows, ``collapse``). Closed rows go to ``_from_closed``."""
        P = cls.__new__(cls)
        P._close(points, {p: i for i, p in enumerate(points)}, list(up), name)
        return P

    @classmethod
    def _from_closed(
        cls, points: Sequence[str], up: Sequence[int], down: Sequence[int], name: str | None = None
    ):
        """The poset whose rows are already closed: ``up[i]`` holds i and every
        point above it, ``down`` is its transpose, and the labels are distinct.
        For derived posets that are partial orders by construction (``induced``,
        strong regularisation, the prime-filter dual) and for copies and
        unpickling: no closing, no cycle check."""
        P = cls.__new__(cls)
        P._fill(tuple(points), {p: i for i, p in enumerate(points)}, tuple(up), tuple(down), name)
        return P

    def _close(self, pts: Sequence[str], index: dict[str, int], up: list[int], name: str | None):
        """Close the rows in place, reject duplicate labels and cycles, fill every slot."""
        n = len(pts)
        if len(index) != n:
            raise OrderConstructionError("duplicate point labels")
        # Floyd-Warshall reachability, one bitmask row per point; row k spreads only at step k
        for k in range(n):
            bit = 1 << k
            up[k] |= bit
            row = up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        down = [0] * n
        for i in range(n):
            bit, rest = 1 << i, up[i]
            while rest:
                low = rest & -rest
                down[low.bit_length() - 1] |= bit
                rest ^= low
        # the least point on a cycle has only larger partners, so the pair
        # named is the one a walk over the up-rows for i < j finds first
        for i in range(n):
            cycle = up[i] & down[i] & ~(1 << i)
            if cycle:
                j = (cycle & -cycle).bit_length() - 1
                raise OrderConstructionError(f"cycle between {pts[i]!r} and {pts[j]!r}")
        self._fill(tuple(pts), index, tuple(up), tuple(down), name)

    def _fill(
        self,
        pts: tuple[str, ...],
        index: dict[str, int],
        up: tuple[int, ...],
        down: tuple[int, ...],
        name: str | None,
    ):
        """Fill every slot from closed, acyclic rows and their transpose."""
        maximal = 0
        for i, row in enumerate(up):
            if row == 1 << i:
                maximal |= row
        self.points = pts
        self.up = up
        self.down = down
        self.name = name
        self._index = index
        self._maximal = maximal
        self._algebra = None
        self._covers = None
        self._up_index = None
        self._symmetry = None
        # finite posets always have a maximal point above every point
        assert all(row & maximal for row in up)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[str]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.points == other.points and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.points, self.up))

    def __reduce__(self):
        # copies and pickles rebuild from the closed rows, without the weak algebra
        # link or the listed automorphisms
        return type(self)._from_closed, (self.points, self.up, self.down, self.name)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<FinitePoset{tag} n={len(self.points)}>"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPointError(label) from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @property
    def maximal_mask(self) -> int:
        return self._maximal

    # -- mask-level order combinatorics --------------------------------

    def strict_up(self, i: int) -> int:
        return self.up[i] ^ (1 << i)

    def m_mask(self, i: int) -> int:
        """Maximal points above point i, as a mask."""
        return self.up[i] & self._maximal

    def m_hull(self, mask: int) -> int:
        """Points whose maximal points all lie in mask: {x | M(x) subseteq mask}."""
        out = 0
        for i in range(len(self.points)):
            if self.m_mask(i) & ~mask == 0:
                out |= 1 << i
        return out

    @property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """The covers of each point as the increasing tuple of their indices
        (the transitive reduction), listed once per poset: the minimal points
        of its strict up-set. Each point still left there drops its own strict
        up-set; a point already dropped lies above one taken before, so its
        strict up-set is gone and it is skipped. The walk starts next to the
        point's own index, the points above it lowest first and those below
        it highest first, so a chain takes one step per point whichever end
        is listed first."""
        if self._covers is None:
            up, covers = self.up, []
            for i, row in enumerate(up):
                out = row ^ 1 << i
                rest = out >> i << i
                while rest:
                    low = rest & -rest
                    out &= ~(up[low.bit_length() - 1] ^ low)
                    rest = (rest ^ low) & out
                rest = out & (1 << i) - 1
                while rest:
                    j = rest.bit_length() - 1
                    out &= ~(up[j] ^ 1 << j)
                    rest &= out & ~(1 << j)
                covers.append(tuple(_bits(out)))
            self._covers = tuple(covers)
        return self._covers

    @property
    def up_index(self) -> dict[int, tuple[int, ...]]:
        """For a mask A, ``up_index[A]`` is the increasing tuple of the points q
        with ``up[q] == A | 1 << q``: those whose up-set is A, and those whose
        up-set is A with q itself added. Built once per poset in one pass, each
        point under its up-row and its strict up-row. Read it, do not change it."""
        if self._up_index is None:
            index: dict[int, list[int]] = {}
            for q, row in enumerate(self.up):
                index.setdefault(row, []).append(q)
                index.setdefault(row ^ 1 << q, []).append(q)
            self._up_index = {key: tuple(points) for key, points in index.items()}
        return self._up_index

    def up_mask_of(self, mask: int) -> int:
        """Least upward-closed superset of the mask; UnknownPointError for
        a mask with bits beyond the poset."""
        return _renumbered((_within(self, mask),), self.up)[0]

    def down_mask_of(self, mask: int) -> int:
        """Least downward-closed superset of the mask; UnknownPointError
        for a mask with bits beyond the poset."""
        return _renumbered((_within(self, mask),), self.down)[0]

    def is_upset(self, mask: int) -> bool:
        return self.up_mask_of(mask) == mask

    def upsets(self) -> list[int]:
        """All upward-closed subsets, as masks, in canonical order: by size, and
        at one size the set holding the least point where two differ first.
        The listing costs |upsets| x |P|, charged once it passes the budget."""
        # decide points in index order, "in" first (both are always feasible)
        n = len(self)
        cap = sweep_limit() // max(n, 1)
        out, stack, full = [], [(0, 0)], self.full_mask
        while stack:
            inside, outside = stack.pop()
            free = full & ~(inside | outside)
            if not free:
                out.append(inside)
                if len(out) > cap:
                    charge("upsets", f"|P| x upsets = {n} x {len(out)}", n * len(out), "steps")
                continue
            i = (free & -free).bit_length() - 1
            stack.append((inside, outside | self.down[i]))
            stack.append((inside | self.up[i], outside))
        out.sort(key=int.bit_count)
        return out

    def components(self) -> list[int]:
        """Connected components of the comparability graph, as masks, by least point."""
        up, down, comps, rest = self.up, self.down, [], self.full_mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                i = low.bit_length() - 1
                new = (up[i] | down[i]) & ~comp
                comp |= new
                frontier = frontier ^ low | new
            rest ^= comp
            comps.append(comp)
        return comps

    def induced(self, mask: int) -> "FinitePoset":
        """Subposet on the points of ``mask``, keeping label order;
        UnknownPointError for a mask with bits beyond the poset."""
        keep = list(_bits(_within(self, mask)))
        bit = [0] * len(self.points)
        for r, i in enumerate(keep):
            bit[i] = 1 << r
        up = _renumbered([self.up[i] & mask for i in keep], bit)
        down = _renumbered([self.down[i] & mask for i in keep], bit)
        return FinitePoset._from_closed([self.points[i] for i in keep], up, down)

    # -- serialization --------------------------------------------------

    def cover_pairs(self) -> list[tuple[str, str]]:
        out = []
        for i, covers in enumerate(self.covers):
            for j in covers:
                out.append((self.points[i], self.points[j]))
        return out

    def to_json(self) -> str:
        obj = {
            "name": self.name or "",
            "points": list(self.points),
            "leq": [list(p) for p in self.cover_pairs()],
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Read ``{"points": [str], "leq": [[str, str]], "name": str}``; name is optional."""
        return cls._from_obj(json.loads(text))

    @classmethod
    def _from_obj(cls, obj) -> "FinitePoset":
        """The poset an already decoded ``from_json`` object describes; a
        ValueError naming the field for any other shape."""
        if not isinstance(obj, dict):
            raise ValueError("a poset file is a JSON object")
        for key in ("points", "leq"):
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
        points, leq, name = obj["points"], obj["leq"], obj.get("name", "")
        if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
            raise ValueError("points must be a list of strings")
        if not isinstance(leq, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
            for pair in leq
        ):
            raise ValueError("each leq entry must be a list of two strings")
        if not isinstance(name, str):
            raise ValueError("name must be a string")
        try:
            return cls(points, [tuple(p) for p in leq], name=name or None)
        except UnknownPointError as exc:
            raise ValueError(f"leq names an unknown point {exc.args[0]!r}") from None

    def to_dot(self) -> str:
        # one edge per cover, drawn upward
        lines = [f"digraph {_dot_quote(self.name or 'poset')} {{", "  rankdir=BT;"]
        for p in self.points:
            lines.append(f"  {_dot_quote(p)};")
        for a, b in self.cover_pairs():
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_quote(label: str) -> str:
    """label as a quoted DOT ID: backslash and double quote are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def collapse(
    P: FinitePoset, block_of: Sequence[int], labels: Sequence[str], name: str | None = None
) -> FinitePoset:
    """Image of P under a block map: point i goes to block ``block_of[i]``,
    which is named ``labels[block_of[i]]``.

    A block lies below another when some member of the first lies below
    some member of the second. The poset core closes that relation and
    raises OrderConstructionError when it has a cycle.
    """
    reach = [0] * len(labels)
    for i, b in enumerate(block_of):
        reach[b] |= P.up[i]
    return FinitePoset._from_rows(labels, _renumbered(reach, [1 << b for b in block_of]), name)


def _renumbered(masks: Iterable[int], bit: Sequence[int]) -> list[int]:
    """Each mask with the bit of its point j replaced by ``bit[j]``."""
    rows = []
    for mask in masks:
        row = 0
        while mask:
            low = mask & -mask
            row |= bit[low.bit_length() - 1]
            mask ^= low
        rows.append(row)
    return rows


def _within(P: FinitePoset, mask: int) -> int:
    if mask >> len(P.points):
        raise UnknownPointError(f"mask {mask:#x} has bits beyond the poset")
    return mask


def maximal_of(P: FinitePoset, mask: int) -> int:
    """Points of the mask with nothing of the mask strictly above them."""
    out = 0
    for i in _bits(_within(P, mask)):
        if P.up[i] & mask == 1 << i:
            out |= 1 << i
    return out


def _top_down(P: FinitePoset) -> list[int]:
    """Points by up-set size: each comes after every point above it."""
    return sorted(range(len(P.points)), key=lambda i: (P.up[i].bit_count(), i))


def point_depths(P: FinitePoset) -> dict[str, int]:
    """Depth of each point: 0 for maximal points, else 1 + max over covers."""
    n = len(P.points)
    depth = [0] * n
    covers = P.covers
    for i in _top_down(P):
        if covers[i]:
            depth[i] = 1 + max(depth[j] for j in covers[i])
    return {P.points[i]: depth[i] for i in range(n)}


def depth_width(P: FinitePoset) -> tuple[int, int]:
    """(depth, width): longest-chain length and largest-antichain size."""
    n = len(P.points)
    if n == 0:
        raise ValueError("empty poset has no depth")
    depth = 1 + max(point_depths(P).values())

    # Dilworth via bipartite matching: width = n - max matching on i < j.
    # Kuhn's augmenting-path search from each point, depth first over an
    # explicit stack, so a long path costs no interpreter frames: path holds
    # the points on the left of the path with an iterator over each one's
    # successors, via the successors that led from each to the next.
    succ = [list(_bits(P.strict_up(i))) for i in range(n)]
    match_to = [-1] * n
    matched = 0
    for i in range(n):
        seen = [False] * n
        path, via = [(i, iter(succ[i]))], []
        while path:
            for j in path[-1][1]:
                if not seen[j]:
                    seen[j] = True
                    break
            else:
                path.pop()
                if via:
                    via.pop()
                continue
            via.append(j)
            if match_to[j] < 0:
                for (u, _), v in zip(path, via):
                    match_to[v] = u
                matched += 1
                break
            path.append((match_to[j], iter(succ[match_to[j]])))
    return depth, n - matched
