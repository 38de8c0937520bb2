"""P-morphisms between finite posets: validation, search, reductions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .poset import FinitePoset, UnknownPointError, _bits, _top_down, collapse


class ReductionError(ValueError):
    """The side condition of a point reduction does not hold."""


@dataclass(frozen=True)
class PMorphism:
    """A total point map between two posets.

    ``mapping[i]`` is the target index of the i-th source point. Validity
    (monotone plus back condition) is checked by :func:`validate_p_morphism`,
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
        out = 0
        for i in _bits(source_mask):
            out |= 1 << self.mapping[i]
        return out

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
    """First violated condition as (kind, point, point), or None if valid."""
    src, tgt, m = f.source, f.target, f.mapping
    if len(m) != len(src.points) or any(not 0 <= q < len(tgt.points) for q in m):
        return ("total", "", "")
    for i in range(len(src.points)):
        for j in _bits(src.strict_up(i)):
            if not tgt.up[m[i]] >> m[j] & 1:
                return ("monotone", src.points[i], src.points[j])
    for i in range(len(src.points)):
        image_up = f.image_mask(src.up[i])
        missing = tgt.up[m[i]] & ~image_up
        if missing:
            q = next(_bits(missing))
            return ("back", src.points[i], tgt.points[q])
    return None


def validate_p_morphism(f: PMorphism) -> bool:
    """True iff f is monotone and satisfies the back condition."""
    return p_morphism_violation(f) is None


def iter_surjective_p_morphisms(P: FinitePoset, Q: FinitePoset) -> Iterator[PMorphism]:
    """Backtracking search for surjective p-morphisms P onto Q."""
    n, m = len(P.points), len(Q.points)
    if n < m or m == 0:
        return
    for assign in _extend(P, Q, _top_down(P), [-1] * n, 0, 0):
        yield PMorphism(P, Q, tuple(assign))


def is_leq(Apos: FinitePoset, Bpos: FinitePoset) -> bool:
    """True iff some upset of Bpos admits a surjective p-morphism onto Apos.
    An upset holds every point above its own, so it is searched on Bpos's rows."""
    m = len(Apos.points)
    if m == 0:
        return False
    order, assign = _top_down(Bpos), [-1] * len(Bpos.points)
    for u in Bpos.upsets():
        if u.bit_count() < m:
            continue
        for _ in _extend(Bpos, Apos, [i for i in order if u >> i & 1], assign, 0, 0):
            return True
    return False


def _extend(
    P: FinitePoset, Q: FinitePoset, order: list[int], assign: list[int], pos: int, image: int
) -> Iterator[list[int]]:
    """Yield ``assign`` once per surjective p-morphism onto Q from the upset
    ``order`` of P, which lists it top-down: the points above x have their
    images when x is reached. An image q is kept for x iff f(up(x)) = up(q):
    monotonicity at x is the inclusion into up(q), and the back condition
    the reverse one. A plain function: a closure that calls itself would
    leave a reference cycle for the collector on every search."""
    n, m = len(order), len(Q.points)
    if pos == n:
        if image == Q.full_mask:
            yield assign
        return
    i = order[pos]
    # everything strictly above i is already assigned
    above = 0
    for j in _bits(P.strict_up(i)):
        above |= 1 << assign[j]
    for q in range(m):
        if Q.up[q] != above | 1 << q:
            continue  # f(up(i)) = up(f(i)) fails, and no later choice can mend it
        new_image = image | 1 << q
        if m - new_image.bit_count() > n - pos - 1:
            continue  # not enough points left to reach surjectivity
        assign[i] = q
        yield from _extend(P, Q, order, assign, pos + 1, new_image)


def enumerate_surjective_p_morphisms(P: FinitePoset, Q: FinitePoset) -> list[PMorphism]:
    """All surjective p-morphisms P onto Q, sorted by their mapping tuple."""
    return sorted(iter_surjective_p_morphisms(P, Q), key=lambda f: f.mapping)


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
    if not validate_p_morphism(h):
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
    points, up, mapping = list(P.points), list(P.up), list(range(len(P.points)))
    for i, p in enumerate(P.points):
        if P.up[i] != 1 << i:
            star = p + "*"
            while star in existing:
                star += "*"
            existing.add(star)
            up[i] |= 1 << len(points)  # the star; closing puts it over all below i
            points.append(star)
            up.append(0)
            mapping.append(next(_bits(P.m_mask(i))))
    result = FinitePoset._from_rows(points, up, f"{P.name}*" if P.name else None)
    retraction = PMorphism(result, P, tuple(mapping))
    if not validate_p_morphism(retraction):
        raise RuntimeError("star retraction failed validation; this is a bug")
    return result, retraction
