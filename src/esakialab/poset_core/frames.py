"""Constructors for the named frame families used throughout the package.

Each builds its cover rows, bit j of row i set when point j covers point i,
and hands them to the poset core to close.
"""
from __future__ import annotations

from itertools import combinations

from ..budget import charge
from .poset import FinitePoset


def _charge_closure(layer: str, size: int) -> None:
    """Refuse a frame of ``size`` points whose closure, |P|^2 row steps, is
    past the budget, before any of its rows is built."""
    charge(layer, f"|P|^2 = {size}^2", size * size, "row steps")


def make_medvedev(n: int) -> FinitePoset:
    """Nonempty subsets of an n-element set under reverse inclusion.

    Maximal points are the singletons; the full set is the root. Valid for
    1 <= n <= 5 (the poset has 2^n - 1 points).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"medvedev frame needs 1 <= n <= 5, got {n}")
    subsets = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    masks = [sum(1 << e for e in s) for s in subsets]
    at = {m: i for i, m in enumerate(masks)}
    # a set is covered by each of its subsets one element smaller
    rows = [0] * len(masks)
    for i, m in enumerate(masks):
        if m & m - 1:
            for e in subsets[i]:
                rows[i] |= 1 << at[m ^ 1 << e]
    points = ["{" + ",".join(map(str, s)) + "}" for s in subsets]
    return FinitePoset._from_rows(points, rows, name=f"medvedev{n}")


def make_delta0(n: int) -> FinitePoset:
    """Tower of 3-point fans: a root under n+1 layers of {a_i, b_i, c_i}.

    Indices decrease upward (layer 0 is maximal). Layer i is covered by
    layer i-1 alone, each of its points by two of them, cyclically: a_i
    under a_{i-1} and b_{i-1}, b_i under a_{i-1} and c_{i-1}, c_i under
    b_{i-1} and c_{i-1}. So a layer-i point lies below all three points
    of every layer j <= i-2, and the root below every point.
    """
    if n < 0:
        raise ValueError("layer count must be nonnegative")
    _charge_closure("make_delta0", 3 * (n + 1) + 1)
    points = ["r"] + [f"{x}{i}" for i in range(n + 1) for x in "abc"]
    # layer i holds points 3i+1..3i+3, and the root is covered by layer n
    rows = [0b111 << 3 * n + 1, 0, 0, 0]
    for i in range(1, n + 1):
        rows += [0b011 << 3 * i - 2, 0b101 << 3 * i - 2, 0b110 << 3 * i - 2]
    return FinitePoset._from_rows(points, rows, name=f"F{n}")


def make_delta1(n: int) -> FinitePoset:
    """Depth-3 family: a root, a middle row a_0..a_n, a maximal row b_0..b_n.

    Each a_i lies below every b_j except exactly one: a_0 misses b_n, a_n
    misses b_0, and a_i misses b_i for 0 < i < n. Needs n >= 3.
    """
    if n < 3:
        raise ValueError(f"family is defined for n >= 3, got {n}")
    _charge_closure("make_delta1", 2 * (n + 1) + 1)
    points = ["r"] + [f"a{i}" for i in range(n + 1)] + [f"b{j}" for j in range(n + 1)]
    # a_i is point 1+i and b_j is point n+2+j; the root is covered by every a_i
    all_a = (1 << n + 1) - 1 << 1
    all_b = all_a << n + 1
    misses = [n] + list(range(1, n)) + [0]
    rows = [all_a] + [all_b & ~(1 << n + 2 + j) for j in misses] + [0] * (n + 1)
    return FinitePoset._from_rows(points, rows, name=f"G{n}")


def make_ladder(kind: str, levels: int) -> FinitePoset:
    """Truncated ladder frames over two rails of levels rows.

    R0 is the plain two-rail ladder; R1 adds one extra maximal point c0
    over the second row (when at least two rows exist); R2 adds a fresh
    maximal point over every non-maximal rail point (c_i over a_{i+1},
    d_i over b_{i+1}).
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    # the points each kind adds to the two rails
    extra = {"R0": 0, "R1": int(levels >= 2), "R2": 2 * (levels - 1)}
    if kind not in extra:
        raise ValueError(f"unknown ladder kind {kind!r}")
    _charge_closure("make_ladder", 2 * levels + extra[kind])
    rails = 2 * levels
    points = [f"{x}{i}" for i in range(levels) for x in "ab"]
    # a_i is point 2i and b_i point 2i+1, row 0 on top. Each rail point is
    # covered by its rail's point one row up and, from the third row on,
    # by the opposite rail's point two rows up, so the two rails resolve
    # in lockstep under the bounded quotients.
    rows = [0] * rails
    for x in range(2, rails):
        rows[x] = 1 << x - 2 | (1 << (x ^ 1) - 4 if x >= 4 else 0)
    if kind == "R1" and levels >= 2:
        points.append("c0")
        rows[2] |= 1 << rails
        rows[3] |= 1 << rails
    elif kind == "R2":
        points += [f"{x}{i}" for i in range(levels - 1) for x in "cd"]
        for x in range(2, rails):
            rows[x] |= 1 << x + rails - 2
    rows += [0] * extra[kind]
    return FinitePoset._from_rows(points, rows, name=f"{kind}@{levels}")
