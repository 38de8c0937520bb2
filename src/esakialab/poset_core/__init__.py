"""Poset combinatorics, p-morphisms, reductions, and frame constructors."""

from .poset import (
    FinitePoset,
    OrderConstructionError,
    ParentMismatchError,
    UnknownPointError,
    depth_width,
    maximal_of,
    point_depths,
)
from .morphisms import (
    PMorphism,
    ReductionError,
    apply_reduction,
    enumerate_reductions,
    is_leq,
    iter_surjective_p_morphisms,
    list_automorphisms,
    p_morphism_violation,
    strong_regularization,
)
from .frames import make_delta0, make_delta1, make_ladder, make_medvedev

__all__ = [
    "FinitePoset",
    "PMorphism",
    "OrderConstructionError",
    "ParentMismatchError",
    "UnknownPointError",
    "ReductionError",
    "maximal_of",
    "point_depths",
    "depth_width",
    "p_morphism_violation",
    "iter_surjective_p_morphisms",
    "is_leq",
    "list_automorphisms",
    "apply_reduction",
    "enumerate_reductions",
    "strong_regularization",
    "make_medvedev",
    "make_delta0",
    "make_delta1",
    "make_ladder",
]
