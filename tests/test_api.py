import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import esakialab
from esakialab import heyting, jankov, logic, poset_core, regularity
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
    logic: ("NegativeValuation", "sweep_limit", "Symmetry", "stage_nodes"),
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


def test_the_refutation_plan_format_stays_in_logic():
    # jankov hands its equations to logic.stage_plan as connectives: it
    # spells no opcode and stages no node itself
    imported = {
        alias.name
        for node in ast.walk(ast.parse(Path(jankov.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "logic"
        for alias in node.names
    }
    assert [name for name in imported if name.startswith(("OP_", "stage_", "sweep_"))] == ["stage_plan"]


def _annotated_objects():
    # every function, class and method defined in the package's modules,
    # properties and class- and static methods read through to their functions
    for info in pkgutil.walk_packages(esakialab.__path__, "esakialab."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if inspect.isfunction(member):
                        yield member


def test_every_annotation_resolves():
    unresolved = []
    checked = 0
    for obj in _annotated_objects():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append((obj.__qualname__, str(exc)))
        checked += 1
    assert unresolved == []
    assert checked > 300
