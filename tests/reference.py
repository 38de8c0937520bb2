"""Literal reference routes, kept to cross-check the fast ones.

Team support enumerates subteams as the definitions read: an implication
checks every subteam of the team, a tensor every way of writing the team
as a union of two subteams. Algebra values recurse through the algebra's
own operations, and validity sweeps every valuation through them.
Join-irreducibles are found by sweeping primality over every pair of
elements. The tensor joins the core joins of all regular pairs below its
arguments. Surjective p-morphisms are found by sweeping every point map
and validating each; the backtracking search itself also runs as a
recursive generator, one call per node. Divisibility runs the search
from every upset of the target, each on its induced subposet. The
brute-force regularity oracle (``is_regular_bruteforce_all_kernels``)
collapses along every set partition, pruned only by the count of maximal
blocks. The rank-versus-bisimulation separation tests every element of
rank at most n, and the generated pullback compares whole member sets. Upsets are enumerated top-down, each point doubling the list
with the masks it may join, then sorted by size and member tuple.
A cycle is the first pair i < j, walking i upward and j along i's
up-row, that reach each other under a closure repeated until it is
stable. Subalgebras are closed pairwise: each element found is combined,
in both argument orders, with itself and every element found before it,
and the implication ranks re-run the whole meet/join closure and the
full implication sweep at every level. The p-morphism check walks every
monotone pair, then builds each point's image again for the back
condition. The lexer reads a character at a time, trying each symbol in
turn, and the parser is recursive precedence climbing, one call per
nesting level. The normal form recurses once per subformula occurrence.
Automorphisms are every permutation of the points that preserves the
order both ways. The width matches points by Kuhn's augmenting paths,
one recursive call per step of a path. All are slow and meant for small
inputs only.
"""
from __future__ import annotations

import re
from functools import reduce
from itertools import permutations, product
from operator import and_, or_

from esakialab.logic import (
    _GRAMMAR,
    And,
    Atom,
    Bot,
    FormulaSyntaxError,
    Implies,
    Neg,
    Or,
    Tensor,
    Top,
    atoms,
)
from esakialab.poset_core import (
    OrderConstructionError,
    PMorphism,
    iter_surjective_p_morphisms,
    validate_p_morphism,
)
from esakialab.poset_core.poset import _bits, collapse


def _subteams(team: int):
    s = team
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & team


def _supports(f, team: int, atom_worlds: dict[str, int], memo: dict) -> bool:
    key = (f, team)
    if key in memo:
        return memo[key]
    if isinstance(f, Atom):
        value = team & ~atom_worlds[f.name] == 0
    elif isinstance(f, Bot):
        value = team == 0
    elif isinstance(f, Top):
        value = True
    elif isinstance(f, And):
        value = _supports(f.left, team, atom_worlds, memo) and _supports(
            f.right, team, atom_worlds, memo
        )
    elif isinstance(f, Or):
        value = _supports(f.left, team, atom_worlds, memo) or _supports(
            f.right, team, atom_worlds, memo
        )
    elif isinstance(f, Implies):
        value = all(
            not _supports(f.left, s, atom_worlds, memo) or _supports(f.right, s, atom_worlds, memo)
            for s in _subteams(team)
        )
    else:
        assert isinstance(f, Tensor)
        value = any(
            _supports(f.left, s, atom_worlds, memo)
            and _supports(f.right, (team & ~s) | w, atom_worlds, memo)
            for s in _subteams(team)
            for w in _subteams(s)
        )
    memo[key] = value
    return value


def _atom_worlds(atom_names) -> dict[str, int]:
    worlds = 1 << len(atom_names)
    return {
        name: sum(1 << w for w in range(worlds) if w >> i & 1)
        for i, name in enumerate(atom_names)
    }


def team_eval(atom_names, rows, f) -> bool:
    """Support of f by the team of the given assignments over atom_names."""
    return _supports(f, sum(1 << r for r in set(rows)), _atom_worlds(atom_names), {})


def team_valid(f, atom_names, k: int) -> bool:
    """Support of f by every team over 2^k worlds; atom_names fill the first slots."""
    slots = list(atom_names) + [f"_pad{i}" for i in range(k - len(atom_names))]
    worlds, memo = _atom_worlds(slots), {}
    return all(_supports(f, team, worlds, memo) for team in range(1 << (1 << k)))


def eval_algebra(H, mu, f) -> int:
    """Value of f in H under mu, through H's meet, join, imp and the regular-pair tensor."""
    if isinstance(f, Atom):
        return mu[f.name]
    if isinstance(f, Bot):
        return H.bot
    if isinstance(f, Top):
        return H.top
    ops = {And: H.meet, Or: H.join, Implies: H.imp, Tensor: lambda u, v: tensor(H, u, v)}
    return ops[type(f)](eval_algebra(H, mu, f.left), eval_algebra(H, mu, f.right))


def is_valid(H, f, domain) -> bool:
    """f evaluates to top under every valuation of its atoms into domain."""
    names = atoms(f)
    return all(
        eval_algebra(H, dict(zip(names, values)), f) == H.top
        for values in product(domain, repeat=len(names))
    )


def tensor(H, u: int, v: int) -> int:
    """u (+) v in H: the join of a +. b over regular a <= u and b <= v."""
    got = 0
    for a in H.regulars:
        if a & ~u:
            continue
        for b in H.regulars:
            if b & ~v:
                continue
            got |= H.core_join(a, b)
    return got


def join_irreducibles(H) -> list[int]:
    """Nonzero join-prime elements of H in canonical order: a <= x | y forces a <= x or a <= y."""
    gens = []
    for a in H.elements:
        if a == H.bot:
            continue
        prime = True
        for x in H.elements:
            if not prime:
                break
            for y in H.elements:
                if H.leq(a, x | y) and not (H.leq(a, x) or H.leq(a, y)):
                    prime = False
                    break
        if prime:
            gens.append(a)
    return gens


def surjective_p_morphisms(P, Q) -> list:
    """Every surjective p-morphism P onto Q, sorted by mapping: a sweep over all maps."""
    found = []
    for mapping in product(range(len(Q)), repeat=len(P)):
        f = PMorphism(P, Q, mapping)
        if f.is_surjective and validate_p_morphism(f):
            found.append(f)
    return found


def extend(P, Q, order, assign, pos, image):
    """The p-morphism search as a recursive generator, one call per node.

    ``morphisms._extend`` with the same arguments yields the same
    assignments in the same order. It recurses through this module's
    attribute, so a wrapper set there counts every node."""
    n, m = len(order), len(Q.points)
    if pos == n:
        if image == Q.full_mask:
            yield assign
        return
    i = order[pos]
    above = 0
    for j in _bits(P.strict_up(i)):
        above |= 1 << assign[j]
    for q in range(m):
        if Q.up[q] != above | 1 << q:
            continue
        new_image = image | 1 << q
        if m - new_image.bit_count() > n - pos - 1:
            continue
        assign[i] = q
        yield from extend(P, Q, order, assign, pos + 1, new_image)


def is_leq_all_upsets(A, B) -> bool:
    """Some upset of B, of all of them, has a surjective p-morphism onto A."""
    return any(
        next(iter_surjective_p_morphisms(B.induced(u), A), None) is not None
        for u in upsets(B)
    )


def _set_partitions(cls: list[int], i: int, top: int):
    """Every restricted growth string extending ``cls[:i]``, whose largest
    class is ``top``: cls[j] <= 1 + max(cls[:j]). Each string is the block
    map of one set partition, with classes 0..k-1 numbered by least member."""
    if i == len(cls):
        yield list(cls)
        return
    for c in range(top + 2):
        cls[i] = c
        yield from _set_partitions(cls, i + 1, max(top, c))


def is_regular_bruteforce_all_kernels(P) -> bool:
    """Regular iff no proper collapse along a set partition, of all of them,
    is a p-morphism injective on maximals with a bijective maximal image."""
    n = len(P)
    if not n:
        return True
    maximal = [i for i in range(n) if P.maximal_mask >> i & 1]
    for cls in _set_partitions([0] * n, 1, 0):
        k = max(cls) + 1
        if k == n:
            continue
        # two maximal points in one block can never stay injective
        source_max_blocks = {cls[i] for i in maximal}
        if len(source_max_blocks) != len(maximal):
            continue
        try:
            Q = collapse(P, cls, [f"q{c}" for c in range(k)])
        except OrderConstructionError:
            continue
        f = PMorphism(P, Q, tuple(cls))
        if not validate_p_morphism(f):
            continue
        if source_max_blocks != {c for c in range(k) if Q.maximal_mask >> c & 1}:
            continue
        return False
    return True


def close_under(H, seeds, ops) -> set[int]:
    """The least set of elements of H holding seeds and closed under ops.

    Masks only: each element found is combined, in both argument orders,
    with itself and every element found before it. The loop stops once
    all of H is reached.
    """
    known = set(seeds)
    order = list(known)
    full = len(H.elements)
    # order grows while the loop reads it
    for i, u in enumerate(order):
        if len(known) == full:
            break
        for v in order[: i + 1]:
            for fn in ops:
                for w in (fn(u, v), fn(v, u)):
                    if w not in known:
                        known.add(w)
                        order.append(w)
    return known


def generated_subalgebra(H, seeds) -> set[int]:
    """seeds plus {0, 1} closed pairwise under meet, join and imp."""
    return close_under(H, {*seeds, H.bot, H.top}, (and_, or_, H.imp))


def rank_levels(H, seeds) -> dict[int, int]:
    """Level 0 is the meet/join closure of seeds with the bounds; each next
    level adds every implication of the last and re-closes. The least level
    reaching an element is its rank."""
    meet_join = (and_, or_)
    current = close_under(H, {*seeds, H.bot, H.top}, meet_join)
    ranks = {u: 0 for u in current}
    level = 0
    while True:
        grown = set(current)
        for u in current:
            for v in current:
                grown.add(H.imp(u, v))
        grown = close_under(H, grown, meet_join)
        if grown == current:
            return ranks
        level += 1
        for u in grown - current:
            ranks[u] = level
        current = grown


def separation_failure(P, ranks, n, part) -> tuple[str, str] | None:
    """The first pair of points, in index order, on which the partition
    ``part`` and agreement on every element of rank <= n (all of ``ranks``
    when n is None) disagree, testing element by element."""
    tests = [u for u, k in ranks.items() if n is None or k <= n]
    idx = part.block_index()
    for a in range(len(P)):
        for b in range(a + 1, len(P)):
            agree = all((u >> a & 1) == (u >> b & 1) for u in tests)
            if agree != (idx[a] == idx[b]):
                return P.points[a], P.points[b]
    return None


def generated_pullback_equal(f, source_members, target_members) -> bool:
    """Whether f^-1 carries the target's members onto the source's, as sets."""
    return {f.preimage_mask(v) for v in target_members} == set(source_members)


def upsets(P) -> list[int]:
    """Every upset of P: by size, then by the tuple of member indices."""
    out = [0]
    for i in sorted(range(len(P)), key=lambda i: (P.up[i].bit_count(), i)):
        strict, bit = P.up[i] & ~(1 << i), 1 << i
        nxt = []
        for mask in out:
            nxt.append(mask)
            if strict & ~mask == 0:
                nxt.append(mask | bit)
        out = nxt
    return sorted(out, key=_mask_key)


def _mask_key(mask: int) -> tuple[int, tuple[int, ...]]:
    bits = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return (len(bits), bits)


def first_cycle(n: int, pairs) -> tuple[int, int] | None:
    """The first (i, j), i < j, with i <= j <= i once the index pairs are closed."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = up[i]
            for j in range(n):
                if row >> j & 1:
                    row |= up[j]
            if row != up[i]:
                up[i], changed = row, True
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                return (i, j)
    return None


def p_morphism_violation(f) -> tuple[str, str, str] | None:
    """The first violated condition as (kind, point, point): every monotone
    pair in point order, then the back condition point by point."""
    src, tgt, m = f.source, f.target, f.mapping
    if len(m) != len(src.points) or any(not 0 <= q < len(tgt.points) for q in m):
        return ("total", "", "")
    for i in range(len(src.points)):
        for j in _bits(src.strict_up(i)):
            if not tgt.up[m[i]] >> m[j] & 1:
                return ("monotone", src.points[i], src.points[j])
    for i in range(len(src.points)):
        missing = tgt.up[m[i]] & ~f.image_mask(src.up[i])
        if missing:
            return ("back", src.points[i], tgt.points[next(_bits(missing))])
    return None


def automorphisms(P) -> list[tuple[int, ...]]:
    """Every order automorphism of P other than the identity, in
    lexicographic order of the point map."""
    n = len(P.points)
    return [
        g for g in permutations(range(n))
        if g != tuple(range(n))
        and all(P.up[i] >> j & 1 == P.up[g[i]] >> g[j] & 1 for i in range(n) for j in range(n))
    ]


def width(P) -> int:
    """Dilworth: the size of a largest antichain is n less a largest
    matching of the pairs i < j."""
    n = len(P.points)
    succ = [list(_bits(P.strict_up(i))) for i in range(n)]
    match_to = [-1] * n
    return n - sum(_augment(i, succ, match_to, [False] * n) for i in range(n))


def _augment(i: int, succ, match_to: list[int], seen: list[bool]) -> bool:
    for j in succ[i]:
        if not seen[j]:
            seen[j] = True
            if match_to[j] < 0 or _augment(match_to[j], succ, match_to, seen):
                match_to[j] = i
                return True
    return False


_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_SYMBOLS = ("(+)", "<->", "->", "~", "&", "|", "(", ")")


def lex(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset), one character at a time: skip a
    space, else try each symbol in turn, else read an atom."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:  # "(+)" must be tried before "("
            if text.startswith(sym, i):
                out.append(("sym", sym, i))
                i += len(sym)
                break
        else:
            m = _ATOM_RE.match(text, i)
            if not m:
                raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
            word = m.group()
            out.append(("const" if word in ("bot", "top") else "atom", word, i))
            i = m.end()
    out.append(("end", "", len(text)))
    return out


def dnf(g) -> list:
    """Disjunction-free disjuncts of g, one recursive call per subformula
    occurrence."""
    if isinstance(g, (Atom, Bot, Top)):
        return [g]
    if isinstance(g, Or):
        return dnf(g.left) + dnf(g.right)
    if isinstance(g, And):
        return [And(a, b) for a in dnf(g.left) for b in dnf(g.right)]
    ants, cons = dnf(g.left), dnf(g.right)
    return [
        reduce(And, [Implies(a, cons[c]) for a, c in zip(ants, choice)])
        for choice in product(range(len(cons)), repeat=len(ants))
    ]


class _Parser:
    """Precedence climbing: one call per "~", "(" and right-hand operand."""

    def __init__(self, text: str):
        self.tokens = lex(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def binary(self, floor: int):
        f = self.unary()
        while True:
            prec, node, right = _GRAMMAR.get(self.peek()[1], (-1, None, False))
            if prec < floor or node is Neg:
                return f
            self.take()
            f = node(f, self.binary(prec if right else prec + 1))

    def unary(self):
        if self.peek()[:2] == ("sym", "~"):
            self.take()
            return Neg(self.unary())
        kind, val, at = self.take()
        if kind == "atom":
            return Atom(val)
        if kind == "const":
            return Bot() if val == "bot" else Top()
        if (kind, val) == ("sym", "("):
            f = self.binary(0)
            kind, val, at = self.take()
            if (kind, val) != ("sym", ")"):
                raise FormulaSyntaxError("expected ')'", at)
            return f
        raise FormulaSyntaxError(f"unexpected {val or 'end of input'!r}", at)


def parse(text: str):
    """The formula text denotes; shallow formulas only, as it recurses."""
    parser = _Parser(text)
    f = parser.binary(0)
    kind, val, at = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected {val!r}", at)
    return f
