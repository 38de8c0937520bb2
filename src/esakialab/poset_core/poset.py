"""Finite posets stored as per-point bitmask up-sets.

Bit j of ``P.up[i]`` is set iff ``P.points[i] <= P.points[j]``. All order
combinatorics (closures, maximal traces, covers, depth, width, upset
enumeration) are mask operations on these rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class OrderConstructionError(ValueError):
    """The input relation cannot be completed to a partial order."""


class ParentMismatchError(ValueError):
    """A PointSet was used with a poset it does not belong to."""


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

    # _algebra: a weak link to the upset algebra heyting.dual_algebra built last
    __slots__ = ("points", "up", "down", "name", "_index", "_maximal", "_algebra")

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
        """The poset with point i below the points of row ``up[i]``, closed as in ``__init__``."""
        P = cls.__new__(cls)
        P._close(points, {p: i for i, p in enumerate(points)}, list(up), name)
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
            for j in _bits(up[i]):
                down[j] |= 1 << i
        # the least point on a cycle has only larger partners, so the pair
        # named is the one a walk over the up-rows for i < j finds first
        maximal = 0
        for i in range(n):
            cycle = up[i] & down[i] & ~(1 << i)
            if cycle:
                j = next(_bits(cycle))
                raise OrderConstructionError(f"cycle between {pts[i]!r} and {pts[j]!r}")
            if up[i] == 1 << i:
                maximal |= 1 << i
        self.points = tuple(pts)
        self.up = tuple(up)
        self.down = tuple(down)
        self.name = name
        self._index = index
        self._maximal = maximal
        self._algebra = None
        # finite posets always have a maximal point above every point
        assert all(up[i] & maximal for i in range(n))

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
        # copies and pickles rebuild from the rows, without the weak algebra link
        return type(self)._from_rows, (self.points, self.up, self.name)

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

    def covers_mask(self, i: int) -> int:
        """Immediate successors of point i: minimal elements of its strict up-set."""
        strict = self.strict_up(i)
        out = 0
        for j in _bits(strict):
            if strict & self.down[j] == 1 << j:
                out |= 1 << j
        return out

    def up_mask_of(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.up[i]
        return out

    def down_mask_of(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= self.down[i]
        return out

    def is_upset(self, mask: int) -> bool:
        return self.up_mask_of(mask) == mask

    def upsets(self) -> list[int]:
        """All upward-closed subsets, as masks, in canonical order: by size, and
        at one size the set holding the least point where two differ first."""
        # decide points in index order, "in" first (both are always feasible)
        out, stack, full = [], [(0, 0)], self.full_mask
        while stack:
            inside, outside = stack.pop()
            free = full & ~(inside | outside)
            if not free:
                out.append(inside)
                continue
            i = (free & -free).bit_length() - 1
            stack.append((inside, outside | self.down[i]))
            stack.append((inside | self.up[i], outside))
        out.sort(key=int.bit_count)
        return out

    def components(self) -> list[int]:
        """Connected components of the comparability graph, as masks."""
        n = len(self.points)
        seen = 0
        comps = []
        for start in range(n):
            if seen >> start & 1:
                continue
            comp = 0
            stack = [start]
            while stack:
                i = stack.pop()
                if comp >> i & 1:
                    continue
                comp |= 1 << i
                for j in _bits((self.up[i] | self.down[i]) & ~comp):
                    stack.append(j)
            seen |= comp
            comps.append(comp)
        return comps

    def induced(self, mask: int) -> "FinitePoset":
        """Subposet on the points of ``mask``, keeping label order."""
        keep = list(_bits(mask))
        bit = [0] * len(self.points)
        for r, i in enumerate(keep):
            bit[i] = 1 << r
        rows = _renumbered([self.up[i] & mask for i in keep], bit)
        return FinitePoset._from_rows([self.points[i] for i in keep], rows)

    # -- serialization --------------------------------------------------

    def cover_pairs(self) -> list[tuple[str, str]]:
        out = []
        for i in range(len(self.points)):
            for j in _bits(self.covers_mask(i)):
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
        """The poset an already decoded ``from_json`` object describes."""
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
        return cls(points, [tuple(p) for p in leq], name=name or None)

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


@dataclass(frozen=True)
class PointSet:
    """A subset of a specific poset's points, stored as a mask."""

    poset: FinitePoset
    mask: int

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(self.poset.points[i] for i in _bits(self.mask))

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.poset.index(label) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


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
        for j in _bits(mask):
            row |= bit[j]
        rows.append(row)
    return rows


def _owned(P: FinitePoset, S: "PointSet | int") -> int:
    if isinstance(S, int):
        if S >> len(P.points):
            raise UnknownPointError(f"mask {S:#x} has bits beyond the poset")
        return S
    if S.poset != P:
        raise ParentMismatchError("point set belongs to a different poset")
    return S.mask


def _like(S: "PointSet | int", P: FinitePoset, mask: int) -> "PointSet | int":
    return mask if isinstance(S, int) else PointSet(P, mask)


def upset_closure(P: FinitePoset, S: "PointSet | int") -> "PointSet | int":
    """Least upward-closed superset of S; accepts and returns masks too."""
    return _like(S, P, P.up_mask_of(_owned(P, S)))


def downset_closure(P: FinitePoset, S: "PointSet | int") -> "PointSet | int":
    """Least downward-closed superset of S; accepts and returns masks too."""
    return _like(S, P, P.down_mask_of(_owned(P, S)))


def maximal_of(P: FinitePoset, S: "PointSet | int") -> "PointSet | int":
    """Elements of S with nothing of S strictly above them."""
    mask = _owned(P, S)
    out = 0
    for i in _bits(mask):
        if P.up[i] & mask == 1 << i:
            out |= 1 << i
    return _like(S, P, out)


def immediate_successors(P: FinitePoset, x: str) -> PointSet:
    """The covers of x; empty iff x is maximal."""
    return PointSet(P, P.covers_mask(P.index(x)))


def _top_down(P: FinitePoset) -> list[int]:
    """Points by up-set size: each comes after every point above it."""
    return sorted(range(len(P.points)), key=lambda i: (P.up[i].bit_count(), i))


def point_depths(P: FinitePoset) -> dict[str, int]:
    """Depth of each point: 0 for maximal points, else 1 + max over covers."""
    n = len(P.points)
    depth = [0] * n
    for i in _top_down(P):
        strict = P.strict_up(i)
        if strict:
            depth[i] = 1 + max(depth[j] for j in _bits(strict))
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
