import dataclasses

import esakialab
from esakialab import heyting, logic, poset_core, regularity
from esakialab.poset_core import FinitePoset, morphisms, poset
from esakialab.regularity import MorphismRegularityReport

# each name that README's "Removed names" table maps to its replacement, by the
# module it was last reachable from
REMOVED = {
    esakialab: (
        "PointSet", "regular_elements", "BooleanCore", "NegativeValuation",
        "immediate_successors", "enumerate_surjective_p_morphisms",
        "upset_closure", "downset_closure", "validate_p_morphism",
    ),
    poset_core: (
        "PointSet", "immediate_successors", "enumerate_surjective_p_morphisms",
        "upset_closure", "downset_closure", "validate_p_morphism",
    ),
    poset: ("PointSet", "immediate_successors", "upset_closure", "downset_closure"),
    morphisms: ("enumerate_surjective_p_morphisms", "validate_p_morphism"),
    heyting: ("regular_elements", "BooleanCore", "SweepGuardError"),
    logic: ("NegativeValuation", "sweep_limit"),
    regularity: ("validate_p_morphism",),
    FinitePoset: ("covers_mask",),
}

DROPPED_FIELDS = (
    "max_injective", "regular_pullback_iso", "sim_distinctness_forward", "generated_pullback_equal",
)


def test_removed_names_stay_removed():
    left = {owner: [name for name in REMOVED[owner] if hasattr(owner, name)] for owner in REMOVED}
    assert left == dict.fromkeys(REMOVED, [])
    fields = {f.name for f in dataclasses.fields(MorphismRegularityReport)}
    assert fields.isdisjoint(DROPPED_FIELDS)
