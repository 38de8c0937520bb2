"""Inputs the benchmark generates itself, from a seed, without the library.

Posets are tuples of up-masks: bit j of ``up[i]`` is set iff point i lies
below or at point j. Formulas are random trees rendered as fully
parenthesised text, which the library then parses. Nothing here imports
esakialab, so a change to the library cannot change what it is fed.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations, product

# unlabelled posets on 1..7 points (OEIS A000112)
CLASS_COUNTS = (1, 2, 5, 16, 63, 318, 2045)


# -- posets ------------------------------------------------------------------


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def down_masks(up: tuple[int, ...]) -> list[int]:
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in bits(row):
            down[j] |= 1 << i
    return down


def _cells(up: tuple[int, ...]) -> list[list[int]]:
    """Points grouped by an isomorphism-invariant colour, refined to a fixpoint."""
    n = len(up)
    down = down_masks(up)
    colour = [(up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    while True:
        sig = [
            (
                colour[i],
                tuple(sorted(colour[j] for j in bits(up[i]))),
                tuple(sorted(colour[j] for j in bits(down[i]))),
            )
            for i in range(n)
        ]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        done = len(rank) == len(set(colour))
        colour = refined
        if done:
            break
    cells: dict[int, list[int]] = {}
    for i, c in enumerate(colour):
        cells.setdefault(c, []).append(i)
    return [cells[c] for c in sorted(cells)]


def canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """The least relabelled up-mask tuple over colour-respecting relabellings."""
    n = len(up)
    best = None
    for perms in product(*(permutations(c) for c in _cells(up))):
        pos = [0] * n
        slot = 0
        for cell in perms:
            for i in cell:
                pos[i] = slot
                slot += 1
        key = [0] * n
        for i in range(n):
            row = 0
            for j in bits(up[i]):
                row |= 1 << pos[j]
            key[pos[i]] = row
        key = tuple(key)
        if best is None or key < best:
            best = key
    return best


def poset_classes(max_size: int) -> list[list[tuple[int, ...]]]:
    """One canonical up-mask tuple per isomorphism class, by size 1..max_size.

    Each class of size n+1 arises from one of size n by adding a maximal
    point above a down-set, so extending every class over every down-set
    and keeping one tuple per canonical form reaches every class.
    """
    levels = [[(1,)]]
    while len(levels) < max_size:
        seen = set()
        for up in levels[-1]:
            n = len(up)
            down = down_masks(up)
            top = 1 << n
            for ideal in range(1 << n):
                if any(down[i] & ~ideal for i in bits(ideal)):
                    continue
                grown = tuple(row | top if ideal >> i & 1 else row for i, row in enumerate(up))
                seen.add(canonical(grown + (top,)))
        levels.append(sorted(seen))
    return levels


def maximal_mask(up: tuple[int, ...]) -> int:
    return sum(1 << i for i, row in enumerate(up) if row == 1 << i)


def cover_pairs(up: tuple[int, ...]) -> list[tuple[int, int]]:
    down = down_masks(up)
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        for j in bits(strict):
            if strict & down[j] == 1 << j:
                out.append((i, j))
    return out


def upset_count(up: tuple[int, ...]) -> int:
    n = len(up)
    return sum(
        1 for mask in range(1 << n) if all(up[i] & ~mask == 0 for i in bits(mask))
    )


def is_regular(up: tuple[int, ...]) -> bool:
    """Structural regularity: every non-maximal point has at least two
    covers, and no two non-maximal points share their cover set."""
    top = maximal_mask(up)
    covers: dict[int, int] = {}
    for i, j in cover_pairs(up):
        covers[i] = covers.get(i, 0) | 1 << j
    sets = [covers.get(i, 0) for i in range(len(up)) if not top >> i & 1]
    return all(c.bit_count() >= 2 for c in sets) and len(set(sets)) == len(sets)


def is_strongly_regular(up: tuple[int, ...]) -> bool:
    top = maximal_mask(up)
    return len({row & top for row in up}) == len(up)


def is_rooted(up: tuple[int, ...]) -> bool:
    full = (1 << len(up)) - 1
    return full in up


def is_surjective_p_morphism(src: tuple[int, ...], tgt: tuple[int, ...], f) -> bool:
    """Onto, and each up-set maps onto the up-set of its image point: the
    inclusion one way is monotonicity, the other the back condition."""
    def image(mask):
        out = 0
        for i in bits(mask):
            out |= 1 << f[i]
        return out

    return image((1 << len(src)) - 1) == (1 << len(tgt)) - 1 and all(
        image(row) == tgt[f[i]] for i, row in enumerate(src)
    )


def fan_divides(k: int, up: tuple[int, ...]) -> bool:
    """Whether an upset of the poset maps onto a root under k maximal points.

    True iff some point x has its maximal points split into k nonempty
    groups such that every point above x sees one group or all of them:
    those points go to the root, the rest to their group's point. The
    converse holds because a p-morphism sends maximal points to maximal
    points and a point onto the root sees preimages of all k of them.
    """
    top = maximal_mask(up)
    for x in range(len(up)):
        tops = list(bits(up[x] & top))
        if len(tops) < k:
            continue
        for labels in product(range(k), repeat=len(tops)):
            if len(set(labels)) != k or labels[0] != 0:
                continue
            group = [0] * k
            for t, g in zip(tops, labels):
                group[g] |= 1 << t
            seen_by = [
                sum(1 for g in group if up[y] & g) for y in bits(up[x])
            ]
            if all(s == 1 or s == k for s in seen_by):
                return True
    return False


# -- named frame families ------------------------------------------------------
#
# Labels and point order follow the paper's families as the library names
# them, so FinitePoset equality checks each family against its constructor.


def medvedev(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nonempty subsets of {0..n-1} under reverse inclusion."""
    subsets = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    label = {s: "{" + ",".join(map(str, s)) + "}" for s in subsets}
    pairs = [
        (label[s], label[tuple(e for e in s if e != d)])
        for s in subsets
        if len(s) >= 2
        for d in s
    ]
    return [label[s] for s in subsets], pairs


def fan_tower(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """F_n: a root under n+1 layers of three points, each point of a layer
    below two points of every higher layer, cyclically."""
    points = ["r"] + [f"{c}{i}" for i in range(n + 1) for c in "abc"]
    pairs = []
    for i in range(n + 1):
        pairs += [("r", f"{c}{i}") for c in "abc"]
        for j in range(i):
            for low, highs in (("a", "ab"), ("b", "ac"), ("c", "bc")):
                pairs += [(f"{low}{i}", f"{h}{j}") for h in highs]
    return points, pairs


def transposition_tower(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """G_n: a root, a middle row a_0..a_n and a top row b_0..b_n; each a_i
    misses exactly one b_j (a_0 misses b_n, a_n misses b_0, else b_i)."""
    points = ["r"] + [f"a{i}" for i in range(n + 1)] + [f"b{j}" for j in range(n + 1)]
    miss = {0: n, n: 0}
    pairs = [("r", f"{row}{i}") for i in range(n + 1) for row in "ab"]
    for i in range(n + 1):
        pairs += [(f"a{i}", f"b{j}") for j in range(n + 1) if j != miss.get(i, i)]
    return points, pairs


def ladder(kind: str, levels: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Two rails a_i, b_i (row 0 on top) crossing two rows up; R1 adds c0
    over the second row, R2 a fresh maximal point over every lower rail point."""
    points = [f"{r}{i}" for i in range(levels) for r in "ab"]
    pairs = []
    for i in range(levels - 1):
        pairs += [(f"a{i + 1}", f"a{i}"), (f"b{i + 1}", f"b{i}")]
    for i in range(2, levels):
        pairs += [(f"a{i}", f"b{i - 2}"), (f"b{i}", f"a{i - 2}")]
    if kind == "R1":
        points.append("c0")
        pairs += [("a1", "c0"), ("b1", "c0")]
    elif kind == "R2":
        for i in range(levels - 1):
            points += [f"c{i}", f"d{i}"]
            pairs += [(f"a{i + 1}", f"c{i}"), (f"b{i + 1}", f"d{i}")]
    return points, pairs


# -- formulas ------------------------------------------------------------------

BINARY = ("&", "|", "->")
TENSOR = "(+)"
LEAF_CONSTANTS = ("bot", "top")


def formula_counts(max_size: int, leaves: int, ops: int) -> dict[int, int]:
    """How many formulas there are of each odd size up to ``max_size``."""
    counts = {1: leaves}
    for size in range(3, max_size + 1, 2):
        counts[size] = ops * sum(
            counts[left] * counts[size - 1 - left] for left in range(1, size - 1, 2)
        )
    return counts


def uniform_formula(rnd: random.Random, size: int, atom_names, ops) -> tuple:
    """A formula drawn uniformly from all formulas with exactly ``size``
    nodes (odd) over the constants and ``atom_names``: one draw from the
    exhaustive corpus of that size."""
    leaves = LEAF_CONSTANTS + tuple(atom_names)
    counts = formula_counts(size, len(leaves), len(ops))

    def draw(n: int):
        if n == 1:
            return rnd.choice(leaves)
        splits = list(range(1, n - 1, 2))
        left = rnd.choices(splits, [counts[s] * counts[n - 1 - s] for s in splits])[0]
        return (rnd.choice(ops), draw(left), draw(n - 1 - left))

    return draw(size)


def budget_formula(rnd: random.Random, max_size: int, atom_names, ops) -> tuple:
    """A formula of at most ``max_size`` nodes grown top-down: a leaf when the
    budget is under 3 or with chance 1/4, else a random connective over a
    random odd split of the budget. Leaves are uniform over the constants
    and atoms. This is the shape of a sampled (not exhaustive) corpus."""
    leaves = LEAF_CONSTANTS + tuple(atom_names)
    if max_size < 3 or rnd.random() < 0.25:
        return rnd.choice(leaves)
    op = rnd.choice(ops)
    left = rnd.randrange(1, max_size - 1, 2)
    return (
        op,
        budget_formula(rnd, left, atom_names, ops),
        budget_formula(rnd, max_size - 1 - left, atom_names, ops),
    )


def render(tree) -> str:
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    return f"({render(left)} {op} {render(right)})"


def tree_atoms(tree) -> set[str]:
    if isinstance(tree, str):
        return set() if tree in LEAF_CONSTANTS else {tree}
    return tree_atoms(tree[1]) | tree_atoms(tree[2])

