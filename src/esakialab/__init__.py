"""Finite Esakia duality workbench.

Finite posets stand in for Esakia spaces: their upset lattices are exactly
the finite Heyting algebras, surjective p-morphisms match subalgebra
inclusions, and the regular elements of each algebra form a Boolean core.
The package builds both sides of that bridge and the logic layers on top:
bounded-bisimulation quotients, regularity oracles, implication rank,
characteristic refutation formulas, and algebraic, Kripke, negative and
team semantics with the tensor connective.
"""

from .budget import SweepGuardError, sweep_limit
from .poset_core import (
    FinitePoset,
    OrderConstructionError,
    ParentMismatchError,
    PMorphism,
    ReductionError,
    UnknownPointError,
    apply_reduction,
    depth_width,
    enumerate_reductions,
    iter_surjective_p_morphisms,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    maximal_of,
    point_depths,
    p_morphism_violation,
    strong_regularization,
)
from .heyting import (
    CoreTraceReport,
    FiniteHeytingAlgebra,
    TensorAxiomReport,
    TensorUndefinedError,
    boolean_core_iso_maximal,
    check_inqb_tensor_axioms,
    dual_algebra,
    dual_poset,
    duality_counit,
    duality_unit,
    generated_subalgebra,
    is_heyting_iso,
    is_leq,
    is_regularly_generated,
    regular_upsets,
    tensor_pointwise,
)
from .logic import (
    And,
    Atom,
    Bot,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Neg,
    Or,
    Team,
    Tensor,
    Top,
    UnboundAtomError,
    atoms,
    axiom_instances,
    big_and,
    big_or,
    dnf_inquisitive,
    enumerate_formulas,
    eval_algebra,
    format_formula,
    formula_size,
    has_tensor,
    is_dna_valid,
    is_standard,
    is_valid,
    parse,
    sample_formulas,
    team_eval,
    team_valid,
)
from .regularity import (
    MorphismRegularityReport,
    Partition,
    RankTable,
    SeparationCheck,
    is_regular_bruteforce_morphism,
    is_regular_structural,
    is_stable_under_sim_infty,
    is_strongly_regular,
    morphism_regularity_report,
    quotient,
    quotient_map,
    rank_table,
    separation_equivalence_check,
    sim_infty,
    sim_n,
    sim_stabilization_index,
)
from .jankov import (
    AntichainReport,
    JankovBundle,
    antichain_verify,
    jankov_dna_formula,
    jankov_refutation_check,
    separating_formula,
)

__version__ = "0.1.0"
