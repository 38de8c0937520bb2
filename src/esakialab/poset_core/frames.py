"""Constructors for the named frame families used throughout the package."""
from __future__ import annotations

from itertools import combinations

from ..budget import charge
from .poset import FinitePoset


def _charge_closure(layer: str, size: int) -> None:
    """Refuse a frame of ``size`` points whose closure, |P|^2 row steps, is
    past the budget, before any of its pairs is listed."""
    charge(layer, f"|P|^2 = {size}^2", size * size, "row steps")


def make_medvedev(n: int) -> FinitePoset:
    """Nonempty subsets of an n-element set under reverse inclusion.

    Maximal points are the singletons; the full set is the root. Valid for
    1 <= n <= 5 (the poset has 2^n - 1 points).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"medvedev frame needs 1 <= n <= 5, got {n}")
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(combinations(range(n), size))
    label = {s: "{" + ",".join(str(e) for e in s) + "}" for s in subsets}
    pairs = []
    for s in subsets:
        if len(s) >= 2:
            for drop in s:
                t = tuple(e for e in s if e != drop)
                pairs.append((label[s], label[t]))
    return FinitePoset([label[s] for s in subsets], pairs, name=f"medvedev{n}")


def make_delta0(n: int) -> FinitePoset:
    """Tower of 3-point fans: a root under n+1 layers of {a_i, b_i, c_i}.

    Indices decrease upward (layer 0 is maximal). For j < i the layer-i
    points each sit below two layer-j points, cyclically: a_i under a_j and
    b_j, b_i under a_j and c_j, c_i under b_j and c_j.
    """
    if n < 0:
        raise ValueError("layer count must be nonnegative")
    _charge_closure("make_delta0", 3 * (n + 1) + 1)
    points = ["r"]
    for i in range(n + 1):
        points += [f"a{i}", f"b{i}", f"c{i}"]
    pairs = []
    for i in range(n + 1):
        for name in ("a", "b", "c"):
            pairs.append(("r", f"{name}{i}"))
        for j in range(i):
            pairs += [
                (f"a{i}", f"a{j}"),
                (f"a{i}", f"b{j}"),
                (f"b{i}", f"a{j}"),
                (f"b{i}", f"c{j}"),
                (f"c{i}", f"b{j}"),
                (f"c{i}", f"c{j}"),
            ]
    return FinitePoset(points, pairs, name=f"F{n}")


def make_delta1(n: int) -> FinitePoset:
    """Depth-3 family: a root, a middle row a_0..a_n, a maximal row b_0..b_n.

    Each a_i lies below every b_j except exactly one: a_0 misses b_n, a_n
    misses b_0, and a_i misses b_i for 0 < i < n. Needs n >= 3.
    """
    if n < 3:
        raise ValueError(f"family is defined for n >= 3, got {n}")
    _charge_closure("make_delta1", 2 * (n + 1) + 1)
    points = ["r"] + [f"a{i}" for i in range(n + 1)] + [f"b{j}" for j in range(n + 1)]
    pairs = []
    for i in range(n + 1):
        pairs += [("r", f"a{i}"), ("r", f"b{i}")]
    for j in range(n):
        pairs.append(("a0", f"b{j}"))
    for j in range(1, n + 1):
        pairs.append((f"a{n}", f"b{j}"))
    for i in range(1, n):
        for j in range(n + 1):
            if j != i:
                pairs.append((f"a{i}", f"b{j}"))
    return FinitePoset(points, pairs, name=f"G{n}")


# Cover tables for the two-rail ladders, one row pair (a_i, b_i) per level,
# row 0 on top. Crosses: each rail point covers into the opposite rail two
# rows up, so the two rails resolve in lockstep under the bounded quotients.
def _ladder_covers(levels: int) -> list[tuple[str, str]]:
    pairs = []
    for i in range(levels - 1):
        pairs += [(f"a{i + 1}", f"a{i}"), (f"b{i + 1}", f"b{i}")]
    for i in range(2, levels):
        pairs += [(f"a{i}", f"b{i - 2}"), (f"b{i}", f"a{i - 2}")]
    return pairs


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
    points = []
    for i in range(levels):
        points += [f"a{i}", f"b{i}"]
    pairs = _ladder_covers(levels)
    if kind == "R1" and levels >= 2:
        points.append("c0")
        pairs += [("a1", "c0"), ("b1", "c0")]
    elif kind == "R2":
        for i in range(levels - 1):
            points += [f"c{i}", f"d{i}"]
            pairs += [(f"a{i + 1}", f"c{i}"), (f"b{i + 1}", f"d{i}")]
    return FinitePoset(points, pairs, name=f"{kind}@{levels}")
