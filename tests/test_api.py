import ast
import dataclasses
from pathlib import Path

import esakialab
from esakialab import heyting, logic, poset_core, regularity
from esakialab.poset_core import FinitePoset, frames, morphisms, poset
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
    logic: ("NegativeValuation", "sweep_limit", "Symmetry"),
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


def test_poset_core_imports_no_upper_layer():
    # the poset layer sits below the formula, algebra and CLI layers
    upper = {"logic", "heyting", "regularity", "jankov", "cli"}
    found = []
    for module in (poset_core, poset, morphisms, frames):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [part for alias in node.names for part in alias.name.split(".")]
            else:
                continue
            if upper.intersection(parts):
                found.append((module.__name__, node.lineno))
    assert found == []
