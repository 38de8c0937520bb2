"""Poset combinatorics, p-morphisms, reductions, and frame constructors."""

from .poset import (
    FinitePoset,
    OrderConstructionError,
    ParentMismatchError,
    UnknownPointError,
    depth_width,
    downset_closure,
    maximal_of,
    point_depths,
    upset_closure,
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
    validate_p_morphism,
)
from .frames import make_delta0, make_delta1, make_ladder, make_medvedev

__all__ = [
    "FinitePoset",
    "PMorphism",
    "OrderConstructionError",
    "ParentMismatchError",
    "UnknownPointError",
    "ReductionError",
    "upset_closure",
    "downset_closure",
    "maximal_of",
    "point_depths",
    "depth_width",
    "validate_p_morphism",
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
