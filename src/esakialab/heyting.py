"""Finite Heyting algebras presented as upset algebras of finite posets.

Elements are upset bitmasks of a base poset; all equality is bitmask
equality. Both duality directions, the regular-element Boolean core,
subalgebra generation, and the tensor operation live here.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .budget import charge, sweep_limit
from .logic import is_dna_valid, is_valid, ml_proxy_formulas
from .poset_core import FinitePoset, is_leq, list_automorphisms  # is_leq: re-exported
from .poset_core.morphisms import Symmetry

# imp reads downsets a byte of the mask at a time
_TABLE_BITS = 8
_TABLE_MASK = (1 << _TABLE_BITS) - 1
# byte b with its 8 bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class TensorUndefinedError(RuntimeError):
    """Tensor was requested on an algebra outside its precondition."""


class UpsetView:
    """The upset algebra of the subposet on an upset ``top`` of a base poset,
    read from the base's own masks and downset tables.

    u -> u & top is a surjective Heyting homomorphism from the base's algebra
    onto this one, so its elements are the base's upsets inside top, meet and
    join are & and |, and u -> v is top minus the downset of u minus v, read
    from the base's tables: the downset of a set inside top, taken inside
    top, is its downset in the base cut to top.

    ``regulars`` is the Boolean core, listed on first read: neg V depends
    only on the maximal points in V, so the regulars are neg m for the sets
    m of maximal points inside top, the finite case of
    neg neg V = {y | M(y) inside V}. They are kept in the canonical order
    of the subposet's algebra, which keeps the points in index order: by
    size, then the set holding the least point where two differ first.

    A view has no tensor and no ``domain_symmetry``: both would have to be
    read from the upset itself, and the base's automorphisms are not the
    upset's. ``FiniteHeytingAlgebra`` is the view on the whole base.
    """

    __slots__ = ("base", "top", "_down_tables", "_regulars")
    bot = 0

    def __init__(self, base: FinitePoset, top: int, tables: tuple[list[int], ...]):
        self.base = base
        self.top = top
        self._down_tables = tables
        self._regulars: tuple[int, ...] | None = None

    def leq(self, u: int, v: int) -> bool:
        return u & ~v == 0

    def meet(self, u: int, v: int) -> int:
        return u & v

    def join(self, u: int, v: int) -> int:
        return u | v

    def imp(self, u: int, v: int) -> int:
        # reads u & ~v alone, so imp(u, v) == imp(u & ~v, 0) for any masks
        d = u & ~v
        down = 0
        for table in self._down_tables:
            down |= table[d & _TABLE_MASK]
            d >>= _TABLE_BITS
        return self.top & ~down

    def neg(self, u: int) -> int:
        return self.imp(u, 0)

    def core_join(self, u: int, v: int) -> int:
        return self.neg(self.meet(self.neg(u), self.neg(v)))

    @property
    def regulars(self) -> tuple[int, ...]:
        if self._regulars is None:
            top, width = self.top, (self.top.bit_length() + 7) // 8
            # top ^ u with each byte's bits reversed: at one size, the set
            # holding the lowest point where two differ sorts first
            self._regulars = tuple(sorted(
                map(self.neg, _submasks(top & self.base.maximal_mask)),
                key=lambda u: (u.bit_count(), (top ^ u).to_bytes(width, "little").translate(_REVERSED_BITS)),
            ))
        return self._regulars

    def tensor_op(self, u: int, v: int) -> int:
        raise TensorUndefinedError("an upset view has no tensor: build the upset's own algebra")


class FiniteHeytingAlgebra(UpsetView):
    """The algebra of all upsets of a finite poset: the view on the whole
    base, with its elements listed in the canonical order of
    ``FinitePoset.upsets()``.
    """

    __slots__ = ("elements", "_index", "_components", "_regular_closure", "_tensor_ok", "_splits",
                 "_symmetries", "__weakref__")

    def __init__(self, base: FinitePoset):
        super().__init__(base, base.full_mask, _byte_tables(base.down))
        self.elements: tuple[int, ...] = tuple(base.upsets())
        self._index = {u: i for i, u in enumerate(self.elements)}
        self._components: tuple[FiniteHeytingAlgebra, ...] | None = None
        self._regular_closure: tuple[tuple[int, ...], ...] | None = None
        self._tensor_ok: bool | None = None
        self._splits: tuple | None = None
        self._symmetries: dict[bool, tuple] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteHeytingAlgebra(base={self.base.name or self.base.points}, size={len(self.elements)})"

    def index(self, u: int) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"mask {u:#x} is not an upset of the base poset") from None

    @property
    def regular_closure(self) -> tuple[tuple[int, ...], ...]:
        """``close_under(self, self.regulars)``, computed once per algebra:
        the least elements holding each point, level by level. Like
        ``tensor_defined``, only the first read runs the closure and pays
        its ESAKIA_MAX_SWEEP charge; a read the budget refuses caches
        nothing."""
        if self._regular_closure is None:
            self._regular_closure = close_under(self, self.regulars)
        return self._regular_closure

    def element_label(self, u: int) -> str:
        names = [self.base.points[i] for i in range(len(self.base)) if u >> i & 1]
        return "{" + ",".join(names) + "}"

    def component_algebras(self) -> list["FiniteHeytingAlgebra"]:
        if self._components is None:
            comps = self.base.components()
            # a connected base keeps no factors: holding self would be a cycle
            self._components = () if len(comps) < 2 else tuple(
                FiniteHeytingAlgebra(self.base.induced(c)) for c in comps)
        return list(self._components) or [self]

    def domain_symmetry(self, regular: bool, budget: int) -> Symmetry | None:
        """How the base's automorphisms permute ``regulars`` (regular) or
        ``elements``, as ``logic.refutes`` reads it; None if they all act
        as the identity there.

        At most ``budget`` search nodes list the automorphisms, and at most
        budget // |domain| of them are kept, so that the tables cost about
        as much as the listing. Cached per domain; a larger budget lists
        again only if the cached listing was cut short."""
        cached = self._symmetries.get(regular)
        if cached is not None and (cached[1] or cached[0] >= budget):
            return cached[2]
        domain = self.regulars if regular else self.elements
        maps, _, finished = list_automorphisms(self.base, budget)
        kept = maps[: budget // len(domain)]
        place = {u: i for i, u in enumerate(domain)}
        perms = dict.fromkeys(
            tuple(place[_through(tables, v)] for v in domain)
            for tables in (_byte_tables([1 << q for q in m]) for m in kept)
        )
        perms.pop(tuple(range(len(domain))), None)
        symmetry = Symmetry(domain, list(perms)) if perms else None
        self._symmetries[regular] = (budget, finished and len(kept) == len(maps), symmetry)
        return symmetry

    # -- tensor --

    def tensor_defined(self) -> bool:
        if self._tensor_ok is None:
            self._tensor_ok = is_regularly_generated(self) and all(
                is_dna_valid(self, f) for f in ml_proxy_formulas()
            )
        return self._tensor_ok

    def tensor_op(self, u: int, v: int) -> int:
        if not self.tensor_defined():
            raise TensorUndefinedError(
                "tensor needs a regularly generated algebra validating the proxy suite"
            )
        if self._splits is None:
            self._splits = _split_table(self.base)
        return _split_tensor(self._splits, u, v)

    def to_json(self) -> str:
        sets = sorted(
            (sorted(self.base.points[i] for i in range(len(self.base)) if u >> i & 1)
             for u in self.elements),
            key=lambda names: (len(names), names),
        )
        return json.dumps(
            {"base": json.loads(self.base.to_json()), "elements": sets},
            indent=2,
            sort_keys=True,
        )


def _byte_tables(rows: Sequence[int]) -> tuple[list[int], ...]:
    """Table k maps bits 8k..8k+7 of a mask to the join of those points' rows."""
    tables = []
    for lo in range(0, len(rows), _TABLE_BITS):
        table = [0]
        # entry b | 1 << j is entry b joined with the row of point lo + j
        for row in rows[lo : lo + _TABLE_BITS]:
            table += [t | row for t in table]
        tables.append(table)
    return tuple(tables)


def _through(tables: tuple[list[int], ...], mask: int) -> int:
    """The join of the rows of the points of mask, a byte at a time."""
    out = 0
    for table in tables:
        out |= table[mask & _TABLE_MASK]
        mask >>= _TABLE_BITS
    return out


def principal_upset_views(P: FinitePoset, force: bool = False) -> Iterator[UpsetView]:
    """An ``UpsetView`` of each distinct principal upset of P, in point order,
    all reading one set of P's downset tables.

    A root below k maximal points has 2^k regulars, which its view lists
    through P's tables on their first read: |P| x 2^k steps, charged before
    the view is yielded unless force is set.
    """
    n, limit = len(P), math.inf if force else sweep_limit()
    tables = _byte_tables(P.down)
    for top in dict.fromkeys(P.up):
        k = (top & P.maximal_mask).bit_count()
        if n << k > limit:
            charge("principal_upset_views", f"|P| x a root's hulls = {n} x 2^{k}", n << k, "steps")
        yield UpsetView(P, top, tables)


def dual_algebra(P: FinitePoset) -> FiniteHeytingAlgebra:
    """The upset algebra of P: one algebra per poset while anyone holds it.

    P keeps only a weak link to the algebra built last, so a second call
    while the first result is alive returns that same object, with the
    tables, regulars and regular closure it has computed. Once its last
    holder lets go the algebra is freed at once (the algebra holds P, P
    holds only the weak link), and the next call builds a fresh one.
    """
    H = P._algebra() if P._algebra is not None else None
    if H is None:
        H = FiniteHeytingAlgebra(P)
        P._algebra = weakref.ref(H)
    return H


# -- duality, algebra to poset ------------------------------------------------


def _least_holding(n: int, sets: Iterable[int], top: int) -> list[int]:
    """For each point x < n, the meet of top and every set holding x.

    In a lattice of sets closed under meet and join and holding top, that
    is the least member holding x, and the members are exactly the joins
    of these least members (Birkhoff's representation)."""
    least = [top] * n
    for s in sets:
        rest = s
        while rest:
            bit = rest & -rest
            least[bit.bit_length() - 1] &= s
            rest ^= bit
    return least


def _join_irreducibles(H: FiniteHeytingAlgebra) -> list[int]:
    # In a finite lattice of sets the join-irreducibles are the least
    # members holding each point; in a distributive one join-irreducible
    # equals join-prime, which is what dual_poset needs. Only the elements
    # are read, as sets, not the base's principal upsets, so the round trip
    # through dual_poset stays an independent check of duality.
    return sorted(set(_least_holding(len(H.base), H.elements, H.top)), key=H.index)


def dual_poset(H: FiniteHeytingAlgebra) -> FinitePoset:
    """Prime filters of H ordered by inclusion.

    Finite case: prime filters are exactly the principal filters of
    join-irreducible elements. Point f{i} stands for the filter generated
    by the element with canonical index i; the filter of a gets smaller as
    a gets larger, so f_a <= f_b iff b <= a.
    """
    return _prime_filter_poset(H, _join_irreducibles(H))


def _prime_filter_poset(H: FiniteHeytingAlgebra, gens: list[int]) -> FinitePoset:
    """dual_poset(H) over the join-irreducibles ``gens`` of H: f_i <= f_j iff
    gens[j] <= gens[i], a partial order since the gens are distinct sets."""
    up, down = [0] * len(gens), [0] * len(gens)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if b & ~a == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    name = f"pf({H.base.name})" if H.base.name else None
    return FinitePoset._from_closed([f"f{H.index(a)}" for a in gens], up, down, name)


def _filters_containing(gens: list[int], u: int) -> int:
    """The prime filters containing u over dual_poset's points: bit j iff gens[j] <= u."""
    mask = 0
    for j, a in enumerate(gens):
        if a & ~u == 0:
            mask |= 1 << j
    return mask


def duality_unit(P: FinitePoset):
    """The canonical order-iso from P onto dual_poset(dual_algebra(P)).

    Sends x to the filter generated by the principal upset of x. Returns
    (dual poset, mapping of labels).
    """
    H = dual_algebra(P)
    Q = dual_poset(H)
    mapping = {P.points[i]: f"f{H.index(P.up[i])}" for i in range(len(P))}
    return Q, mapping


def duality_counit(H: FiniteHeytingAlgebra):
    """The Stone map from H onto the upset algebra of its prime-filter poset.

    Sends u to the set of prime filters containing u. Returns
    (dual algebra of the dual poset, mapping of masks).
    """
    gens = _join_irreducibles(H)
    Q = _prime_filter_poset(H, gens)
    return dual_algebra(Q), {u: _filters_containing(gens, u) for u in H.elements}


def is_heyting_iso(
    H: FiniteHeytingAlgebra, K: FiniteHeytingAlgebra, f: Mapping[int, int]
) -> bool:
    """Check that f is a bijective homomorphism for 0, 1, meet, join, imp."""
    if len(H.elements) != len(K.elements):
        return False
    if sorted(f[u] for u in H.elements) != sorted(K.elements):
        return False
    if f[H.bot] != K.bot or f[H.top] != K.top:
        return False
    for u in H.elements:
        for v in H.elements:
            if f[H.meet(u, v)] != K.meet(f[u], f[v]):
                return False
            if f[H.join(u, v)] != K.join(f[u], f[v]):
                return False
            if f[H.imp(u, v)] != K.imp(f[u], f[v]):
                return False
    return True


# -- regular elements ---------------------------------------------------------


def regular_upsets(P: FinitePoset) -> list[int]:
    """Upsets U with Int(Cl(U)) = U, computed topologically.

    Cl is the downset closure, Int the largest upset inside a set. This
    route never consults the algebra's negation tables.
    """
    full = P.full_mask
    out = []
    for u in P.upsets():
        cl = P.down_mask_of(u)
        interior = full & ~P.down_mask_of(full & ~cl)
        if interior == u:
            out.append(u)
    return out


@dataclass(frozen=True)
class CoreTraceReport:
    """Outcome of checking V |-> V intersect M(P) on the regular upsets."""

    ok: bool
    trace_map: dict[int, int]
    inverse_map: dict[int, int]
    counterexample: tuple | None


def boolean_core_iso_maximal(P: FinitePoset) -> CoreTraceReport:
    """Check the trace map is a Boolean iso onto the full powerset of M(P).

    The inverse sends A to {x | M(x) subseteq A}. Failure returns the first
    offending pair instead of raising.
    """
    H = dual_algebra(P)
    maximal = P.maximal_mask
    regs = H.regulars
    trace = {u: u & maximal for u in regs}

    traces = sorted(trace.values())
    subsets = sorted(_submasks(maximal))
    if traces != subsets:
        return CoreTraceReport(False, trace, {}, ("trace-image", traces, subsets))

    inverse = {a: P.m_hull(a) for a in subsets}

    for u in regs:
        if inverse[trace[u]] != u:
            return CoreTraceReport(False, trace, inverse, ("round-trip", u))
    for u in regs:
        if trace[H.neg(u)] != maximal & ~trace[u]:
            return CoreTraceReport(False, trace, inverse, ("negation", u))
        for v in regs:
            if trace[H.core_join(u, v)] != trace[u] | trace[v]:
                return CoreTraceReport(False, trace, inverse, ("join", u, v))
            if trace[H.meet(u, v)] != trace[u] & trace[v]:
                return CoreTraceReport(False, trace, inverse, ("meet", u, v))
    return CoreTraceReport(True, trace, inverse, None)


def _submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


# -- subalgebra generation ----------------------------------------------------

def close_under(H: FiniteHeytingAlgebra, seeds: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The meet/join/imp closure of seeds plus {0, 1}, staged by level.

    Level 0 is the meet/join closure of the seeds and bounds; level k+1
    adds the implications of level k's set and closes again under meet
    and join. Entry k of the result is g_k, level k's least element
    holding each point x; the level is the set of joins of its g's
    (Birkhoff's representation), and the last entry is the closure's.

    _least_holding reads g off any generators of a level. With h(x) the
    join of the g's missing x, every element is a meet of h's, and
    (join of g's) -> (meet of h's) is the meet of the g -> h; so the g's
    and the at most |P|^2 g -> h generate the next level. The loop stops
    when g repeats or is the principal upsets, which join to every upset.
    Each step's work joins a running total before it runs, charged once past
    sweep_limit(): generators x |P| for the g's, distinct g's x distinct h's
    for the implications. Seeds holding every principal upset cost nothing.
    """
    up = H.base.up
    gens = {*seeds, H.bot, H.top}
    if gens.issuperset(up):
        return (up,)
    n, cap, work = len(up), sweep_limit(), 0
    levels: list[tuple[int, ...]] = []
    while True:
        work += len(gens) * n
        if work > cap:
            charge("close_under", f"total to level {len(levels)}'s least elements", work, "steps")
        g = tuple(_least_holding(n, gens, H.top))
        if levels and g == levels[-1]:
            return tuple(levels)
        levels.append(g)
        if g == up:
            return tuple(levels)
        gs = set(g)
        hs = {reduce(or_, [a for a in gs if not a >> x & 1], 0) for x in range(n)}
        work += len(gs) * len(hs)
        if work > cap:
            charge("close_under", f"total to level {len(levels) - 1}'s implications", work, "steps")
        gens = gs | {H.imp(a, h) for a in gs for h in hs}


def _level_members(H: FiniteHeytingAlgebra, g: tuple[int, ...], caller: str) -> Iterable[int]:
    """The level with least elements g: H when g is the principal upsets, else
    the joins of the distinct g's, charged |H| x distinct g's beforehand."""
    if g == H.base.up:
        return H.elements
    gs = set(g)
    charge(caller, f"|H| x least elements = {len(H)} x {len(gs)}", len(H) * len(gs), "steps")
    joins = {0}
    for a in gs:
        joins |= {u | a for u in joins}
    return joins


def generated_subalgebra(H: FiniteHeytingAlgebra, seeds: Iterable[int]) -> tuple[int, ...]:
    """Close seeds plus {0, 1} under meet, join and imp, in canonical order."""
    members = _level_members(H, close_under(H, seeds)[-1], "generated_subalgebra")
    return tuple(sorted(members, key=H.index))


def is_regularly_generated(H: FiniteHeytingAlgebra) -> bool:
    return H.regular_closure[-1] == H.base.up


# -- tensor, pointwise ---------------------------------------------------------


def _split_table(P: FinitePoset) -> tuple:
    """Per distinct M(x): the points with it, and (m_hull(A), m_hull(M(x) - A))
    for every A inside M(x).

    Splits of M(x) itself suffice: a set whose hull lies in an upset keeps
    that property on its subsets, so A and B may be disjoint within M(x).
    """
    points: dict[int, int] = {}
    for i in range(len(P)):
        points[P.m_mask(i)] = points.get(P.m_mask(i), 0) | 1 << i
    table = []
    for m, pts in points.items():
        hull = {a: P.m_hull(a) for a in _submasks(m)}
        table.append((pts, tuple((hull[a], hull[m & ~a]) for a in hull)))
    return tuple(table)


def _split_tensor(splits: tuple, u: int, v: int) -> int:
    nu, nv, out = ~u, ~v, 0
    for pts, pairs in splits:
        for a, b in pairs:
            if not (a & nu or b & nv):
                out |= pts
                break
    return out


def tensor_pointwise(P: FinitePoset, u: int, v: int) -> int:
    """The tensor read off P: x lands in it iff M(x) splits into A and B
    whose regular hulls sit inside u and v. No algebra tables are consulted.
    """
    return _split_tensor(_split_table(P), u, v)


@dataclass
class TensorAxiomReport:
    proxy_valid: dict[str, bool] = field(default_factory=dict)
    core_join_violations: list = field(default_factory=list)
    distributivity_violations: list = field(default_factory=list)
    printed_implication_violations: list = field(default_factory=list)
    repaired_implication_violations: list = field(default_factory=list)

    @property
    def printed_form_holds(self) -> bool:
        return not self.printed_implication_violations

    @property
    def repaired_form_holds(self) -> bool:
        return not self.repaired_implication_violations

    @property
    def ok_except_printed_form(self) -> bool:
        return (
            all(self.proxy_valid.values())
            and not self.core_join_violations
            and not self.distributivity_violations
            and self.repaired_form_holds
        )


def check_inqb_tensor_axioms(P: FinitePoset) -> TensorAxiomReport:
    """Sweep the tensor-algebra axioms over the upset algebra of P.

    The implication axiom is evaluated both as the printed equation
    (x->z) -> (y->k) = (x(+)y) -> (z(+)k) and as the conjunctive reading
    (x->z) & (y->k) <= (x(+)y) -> (z(+)k); both verdicts are reported.
    """
    H = dual_algebra(P)
    charge("check_inqb_tensor_axioms", f"|H|^4 = {len(H)}^4", len(H) ** 4, "axiom checks")
    if not H.tensor_defined():
        raise TensorUndefinedError(
            "axiom sweep needs a regularly generated algebra validating the proxy suite"
        )
    report = TensorAxiomReport()
    for name, f in zip(("KP", "ND_2", "ND_3"), ml_proxy_formulas()):
        report.proxy_valid[name] = is_valid(H, f, force=True)

    core = H.regulars
    for u in core:
        for v in core:
            if H.tensor_op(u, v) != H.core_join(u, v):
                report.core_join_violations.append((u, v))

    els = H.elements
    for x in els:
        for y in els:
            for z in els:
                lhs = H.tensor_op(x, y | z)
                rhs = H.join(H.tensor_op(x, y), H.tensor_op(x, z))
                if lhs != rhs:
                    report.distributivity_violations.append((x, y, z))

    for x in els:
        for z in els:
            for y in els:
                for k in els:
                    lhs = H.imp(H.imp(x, z), H.imp(y, k))
                    rhs = H.imp(H.tensor_op(x, y), H.tensor_op(z, k))
                    if lhs != rhs:
                        report.printed_implication_violations.append(
                            ((x, z, y, k), (lhs, rhs))
                        )
                    conj = H.meet(H.imp(x, z), H.imp(y, k))
                    if not H.leq(conj, rhs):
                        report.repaired_implication_violations.append(
                            ((x, z, y, k), (conj, rhs))
                        )
    return report
