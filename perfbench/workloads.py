"""The four workloads. Each is a closed loop with one client.

A workload builds in ``setup`` everything it reuses, including its op
list, drawn from the seed. ``call`` makes one op's library calls and
nothing else, and is the only part that is timed. ``check`` then judges
the result by a route that does not run through the same library code,
records the op's work counts, and returns its verdict. A round runs the
op list once; rounds repeat the same list.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


class Wrong(Exception):
    """The library answered, but the answer is not the expected one."""


def _labels(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def _build(lib, tr, up: tuple[int, ...]):
    pts = _labels(len(up))
    pairs = [(pts[i], pts[j]) for i, j in inputs.cover_pairs(up)]
    return tr.call("poset_core.build", lib.FinitePoset, pts, pairs)


def _build_frame(lib, tr, name: str, spec):
    points, pairs = spec
    return tr.call("poset_core.build", lib.FinitePoset, points, pairs, name=name)


NAMED_FRAMES = {
    "M2": lambda: inputs.medvedev(2),
    "M3": lambda: inputs.medvedev(3),
    "M4": lambda: inputs.medvedev(4),
    "F1": lambda: inputs.fan_tower(1),
    "F2": lambda: inputs.fan_tower(2),
    "F3": lambda: inputs.fan_tower(3),
    "G3": lambda: inputs.transposition_tower(3),
    "G4": lambda: inputs.transposition_tower(4),
    "G5": lambda: inputs.transposition_tower(5),
    "R1@8": lambda: inputs.ladder("R1", 8),
    "R2@3": lambda: inputs.ladder("R2", 3),
    "R2@4": lambda: inputs.ladder("R2", 4),
}


def _library_frame(lib, name: str):
    pc = lib.poset_core
    n = int(name[-1])
    if name.startswith("M"):
        return pc.make_medvedev(n)
    if name.startswith("F"):
        return pc.make_delta0(n)
    if name.startswith("G"):
        return pc.make_delta1(n)
    return pc.make_ladder(name[:2], n)


class Workload:
    name = ""
    # (module, attribute, span name) wrapped with spans in traced rounds
    rebind: tuple[tuple[str, str, str], ...] = ()

    def __init__(self):
        self.problems: list[str] = []  # run-level checks that failed

    def known_failure(self, op, exc: Exception) -> bool:
        """True for an exception that a known defect of the library raises.
        It counts as a failed op; any other exception makes the run wrong."""
        return False

    def end_round(self, verdicts: list) -> None:
        pass

    def close(self) -> None:
        pass


# -- corpus-sweep ---------------------------------------------------------------


class CorpusSweep(Workload):
    """Every poset class with at most 7 points, in a seeded order."""

    name = "corpus-sweep"
    REGULAR_CLASSES = 119  # frozen count for the full <=7-point corpus

    def setup(self, lib, seed: int, tr) -> None:
        self.lib = lib
        levels = inputs.poset_classes(7)
        counts = tuple(len(level) for level in levels)
        if counts != inputs.CLASS_COUNTS:
            self.problems.append(f"class counts {counts}, expected {inputs.CLASS_COUNTS}")
        self.classes = [up for level in levels for up in level]
        self.posets = [_build(lib, tr, up) for up in self.classes]
        self.ops = list(range(len(self.classes)))
        random.Random(seed).shuffle(self.ops)
        self._expected: dict[int, tuple] = {}

    def kind(self, op) -> str:
        return "poset"

    def call(self, op, tr):
        P = self.posets[op]
        h, r = self.lib.heyting, self.lib.regularity
        H = tr.call("heyting.dual_algebra", h.dual_algebra, P)
        regs = tr.call("heyting.regulars", getattr, H, "regulars")
        generated = tr.call("heyting.is_regularly_generated", h.is_regularly_generated, H)
        Q = tr.call("heyting.dual_poset", h.dual_poset, H)
        structural = tr.call("regularity.is_regular_structural", r.is_regular_structural, P)
        stable = tr.call("regularity.sim_infty", r.is_stable_under_sim_infty, P)
        ranks = tr.call("regularity.rank_table", r.rank_table, P)
        star = tr.call(
            "poset_core.strong_regularization",
            self.lib.poset_core.strong_regularization,
            P,
        )
        brute = None
        if len(P) <= 6:
            brute = tr.call("regularity.bruteforce", r.is_regular_bruteforce_morphism, P)
        return H, regs, generated, Q, structural, stable, ranks, star, brute

    def check(self, op, result, tr):
        H, regs, generated, Q, structural, stable, ranks, (star, retraction), brute = result
        up = self.classes[op]
        n = len(up)
        if op not in self._expected:
            self._expected[op] = (
                inputs.upset_count(up),
                inputs.maximal_mask(up).bit_count(),
                inputs.is_regular(up),
            )
        upsets, tops, regular = self._expected[op]
        verdicts = {structural, stable, generated} | ({brute} if brute is not None else set())
        if verdicts != {regular}:
            raise Wrong(f"oracles {structural, stable, generated, brute}, expected {regular}")
        if len(H.elements) != upsets:
            raise Wrong(f"{len(H.elements)} upsets, expected {upsets}")
        if len(regs) != 1 << tops:
            raise Wrong(f"{len(regs)} regular elements, expected 2^{tops}")
        if (len(ranks.ranks) == upsets) != generated:
            raise Wrong("rank table domain disagrees with regular generation")
        if inputs.canonical(tuple(Q.up)) != up:
            raise Wrong("dual poset of the algebra is not isomorphic to the poset")
        star_up = tuple(star.up)
        if (
            len(star_up) != 2 * n - tops
            or not inputs.is_strongly_regular(star_up)
            or tuple(retraction.mapping[:n]) != tuple(range(n))
            or not inputs.is_surjective_p_morphism(star_up, up, retraction.mapping)
        ):
            raise Wrong("strong regularization or its retraction is wrong")
        if tr.enabled:
            tr.count("heyting.elements", upsets)
            tr.count("heyting.regulars", len(regs))
            tr.count("poset_core.points", n)
            tr.count(
                "regularity.sim_levels",
                self.lib.regularity.sim_stabilization_index(self.posets[op]) + 1,
            )
        return (regular, upsets, len(Q), ranks.max_rank)

    def end_round(self, verdicts) -> None:
        regular = sum(1 for v in verdicts if v is not None and v[0])
        if regular != self.REGULAR_CLASSES:
            self.problems.append(f"{regular} regular classes, expected {self.REGULAR_CLASSES}")


# -- formula-sweep ----------------------------------------------------------------

# One round is 1/SUITE_FRACTION of the formulas that acceptance criteria 9
# and 10 run, pool by pool: the exhaustive 1-atom corpus to size 9 (drawn
# size by size in the corpus's own proportions: 1, 10, 219 and 5511 of the
# 27, 486, 10935 and 275562 formulas of size 3, 5, 7 and 9), a sample of
# 500 2-atom formulas to size 11, and samples of 100 tensor formulas to
# size 9 over one and over two atoms. Tensor formulas get the team/algebra
# bridge only, as in criterion 9; the others also get the normal form of
# criterion 10.
SUITE_FRACTION = 50
# (pool, atoms, tensor, exhaustive up to this size, or sampled: (budget, count))
FORMULA_POOLS = (
    ("1-atom", ("p",), False, 9, None),
    ("2-atom", ("p", "q"), False, None, (11, 500)),
    ("tensor-1", ("p",), True, None, (9, 100)),
    ("tensor-2", ("p", "q"), True, None, (9, 100)),
)


def formula_draws(rnd, pool):
    """The formula trees of one pool for one round, distinct, in draw order."""
    _, atom_names, tensor, exhaustive, sampled = pool
    ops = inputs.BINARY + (inputs.TENSOR,) if tensor else inputs.BINARY
    seen: dict[str, tuple] = {}

    def take(count, draw):
        target = len(seen) + count
        while len(seen) < target:
            tree = draw()
            seen.setdefault(inputs.render(tree), tree)

    if exhaustive:
        counts = inputs.formula_counts(exhaustive, 2 + len(atom_names), len(ops))
        for size, total in counts.items():
            take(round(total / SUITE_FRACTION),
                 lambda: inputs.uniform_formula(rnd, size, atom_names, ops))
    else:
        budget, total = sampled
        take(round(total / SUITE_FRACTION),
             lambda: inputs.budget_formula(rnd, budget, atom_names, ops))
    return list(seen.values())


def _biconditional(logic, f, disjuncts, k):
    return logic.team_valid(logic.Iff(f, logic.big_or(disjuncts)), k)


def _disjunction_free(logic, f) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, logic.Or):
            return False
        if isinstance(g, (logic.And, logic.Implies, logic.Tensor)):
            stack += [g.left, g.right]
    return True


class FormulaSweep(Workload):
    """Seeded formulas; team validity against validity under negative
    valuations on the Medvedev frames M2 (one atom) and M4 (two atoms)."""

    name = "formula-sweep"
    rebind = (("heyting", "is_regularly_generated", "heyting.is_regularly_generated"),)

    def setup(self, lib, seed: int, tr) -> None:
        self.lib = lib
        logic = lib.logic
        self.algebras = {}
        for k, n in ((1, 2), (2, 4)):
            P = _build_frame(lib, tr, f"M{n}", inputs.medvedev(n))
            H = tr.call("heyting.dual_algebra", lib.heyting.dual_algebra, P)
            if not tr.call("heyting.tensor_defined", H.tensor_defined):
                self.problems.append(f"tensor undefined on M{n}")
            self.algebras[k] = H
        rnd = random.Random(seed)
        self.ops = []
        for pool in FORMULA_POOLS:
            name, atom_names, tensor, _, _ = pool
            for tree in formula_draws(rnd, pool):
                f = tr.call("logic.parse", logic.parse, inputs.render(tree))
                atom_count = len(inputs.tree_atoms(tree))
                self.ops.append((name, len(atom_names), atom_count, tensor, f))
        rnd.shuffle(self.ops)

    def kind(self, op) -> str:
        return op[0]

    def call(self, op, tr):
        _, k, atom_count, tensor, f = op
        logic = self.lib.logic
        disjuncts = both = None
        team = tr.call("logic.team_valid", logic.team_valid, f, k)
        dna = tr.call("logic.is_dna_valid", logic.is_dna_valid, self.algebras[k], f)
        if not tensor:
            disjuncts = tr.call("logic.dnf_inquisitive", logic.dnf_inquisitive, f)
            both = tr.call(
                "logic.dnf_biconditional", _biconditional, logic, f, disjuncts, atom_count
            )
        return team, dna, disjuncts, both

    def check(self, op, result, tr):
        _, k, atom_count, tensor, f = op
        team, dna, disjuncts, both = result
        if team != dna:
            raise Wrong(f"team validity {team} but negative-valuation validity {dna}")
        if not tensor:
            if not all(_disjunction_free(self.lib.logic, g) for g in disjuncts):
                raise Wrong("normal form has a disjunct with a disjunction")
            if both is not True:
                raise Wrong("normal-form biconditional is not team-valid")
        if tr.enabled:
            tr.count("logic.formula_nodes", self.lib.logic.formula_size(f))
            tr.count("logic.team_sweep_bound", 1 << (1 << k))
            regulars = len(self.algebras[k].regulars)
            tr.count("logic.dna_valuation_bound", regulars ** atom_count)
            if not tensor:
                tr.count("logic.team_sweep_bound", 1 << (1 << atom_count))
                tr.count("logic.dnf_disjuncts", len(disjuncts))
        return (team, None if tensor else len(disjuncts))


# -- divisibility -----------------------------------------------------------------

# Each source A meets this share of the targets of every size, drawn by the
# seed, so that seeds differ in inputs but not in the mix of sizes.
JANKOV_SHARE = 0.5

# The divisibility order on named frames, where a reason fixes the answer:
# - a frame divides itself;
# - Medvedev chain: the up-set of an m-subset in M_n is M_m, so M_m <= M_n
#   for m <= n; F1 is M3 (its middle row is the three 2-subsets of its
#   three maximal points), so it sits in the chain at rank 3;
# - F1-F3 and G3-G5 are antichains (the paper's two towers);
# - size bound: a frame with more points divides no smaller frame.
# Pairs no reason decides are left out.
CHAIN_RANK = {"M2": 2, "M3": 3, "F1": 3, "M4": 4}
TOWERS = (("F1", "F2", "F3"), ("G3", "G4", "G5"))
DIVISIBILITY_FRAMES = ("M2", "M3", "M4", "F1", "F2", "F3", "G3", "G4", "G5")


def expected_leq(sizes: dict[str, int]) -> dict[tuple[str, str], bool]:
    table = {}
    for x in DIVISIBILITY_FRAMES:
        for y in DIVISIBILITY_FRAMES:
            if x == y:
                table[x, y] = True
            elif x in CHAIN_RANK and y in CHAIN_RANK:
                table[x, y] = CHAIN_RANK[x] <= CHAIN_RANK[y]
            elif any(x in t and y in t for t in TOWERS) or sizes[x] > sizes[y]:
                table[x, y] = False
    return table


class Divisibility(Workload):
    """Jankov refutation sweeps and the divisibility search."""

    name = "divisibility"
    rebind = (
        ("jankov", "is_leq", "heyting.is_leq"),
        ("jankov", "dual_algebra", "heyting.dual_algebra"),
        ("jankov", "dual_poset", "heyting.dual_poset"),
    )

    def setup(self, lib, seed: int, tr) -> None:
        self.lib = lib
        levels = inputs.poset_classes(6)
        fans = [
            up for level in levels[:4] for up in level
            if inputs.is_rooted(up) and inputs.is_regular(up)
        ]
        if len(fans) != 3:
            self.problems.append(f"{len(fans)} rooted regular classes <= 4 points, expected 3")
        self.bundles = []
        for up in fans:
            H = tr.call("heyting.dual_algebra", lib.heyting.dual_algebra, _build(lib, tr, up))
            bundle = tr.call(
                "jankov.jankov_dna_formula", lib.jankov.jankov_dna_formula, H, force=True
            )
            self.bundles.append((inputs.maximal_mask(up).bit_count(), bundle))
        self.frames = {
            name: _build_frame(lib, tr, name, NAMED_FRAMES[name]())
            for name in DIVISIBILITY_FRAMES
        }
        self.table = expected_leq({name: len(P) for name, P in self.frames.items()})
        rnd = random.Random(seed)
        self.ops = [
            ("jankov", a, up, _build(lib, tr, up))
            for a in range(len(self.bundles))
            for level in levels
            for up in rnd.sample(level, round(len(level) * JANKOV_SHARE))
        ]
        self.ops += [("leq", x, y) for x, y in self.table]
        self.ops += [("antichain",) + t for t in TOWERS + (("M2", "M3", "M4"),)]
        rnd.shuffle(self.ops)

    def kind(self, op) -> str:
        return op[0]

    def call(self, op, tr):
        jankov, heyting = self.lib.jankov, self.lib.heyting
        if op[0] == "jankov":
            _, a, _, B = op
            return tr.call(
                "jankov.refutation_check", jankov.jankov_refutation_check, B, self.bundles[a][1]
            )
        if op[0] == "leq":
            return tr.call("heyting.is_leq", heyting.is_leq, self.frames[op[1]], self.frames[op[2]])
        family = [self.frames[name] for name in op[1:]]
        return tr.call("jankov.antichain_verify", jankov.antichain_verify, family)

    def check(self, op, result, tr):
        if op[0] == "jankov":
            _, a, up, _ = op
            want = inputs.fan_divides(self.bundles[a][0], up)
            if result != want:
                raise Wrong(f"refuted={result}, expected {want}")
            if tr.enabled:
                tr.count("jankov.refuted", int(result))
            return result
        if op[0] == "leq":
            if result != self.table[op[1], op[2]]:
                raise Wrong(f"leq={result}, expected {self.table[op[1], op[2]]}")
            return result
        names = op[1:]
        pairs = tuple(
            (i, j) for i, x in enumerate(names) for j, y in enumerate(names)
            if i != j and self.table[x, y]
        )
        ups = [tuple(self.frames[name].up) for name in names]
        if (
            result.comparable_pairs != pairs
            or result.regular_flags != tuple(inputs.is_regular(u) for u in ups)
            or result.strongly_regular_flags != tuple(inputs.is_strongly_regular(u) for u in ups)
        ):
            raise Wrong(f"antichain report {result.comparable_pairs} for {names}")
        return result.is_antichain


# -- frame-families ---------------------------------------------------------------

# per frame: (label, argv with {P} for the frame's file, expected exit code)
PER_FRAME = (
    ("dual", ["dual", "{P}"], 0),
    ("check-regular", ["check-regular", "{P}"], 0),
    ("quotient", ["quotient", "{P}", "--n", "inf"], 0),
    ("validate-dna", ["validate", "{P}", "--formula", "~~p -> p", "--dna"], 0),
    ("validate-algebraic", ["validate", "{P}", "--formula", "~p | ~~p"], 1),
    ("validate-team", ["validate", "{P}", "--formula", "p | ~p", "--team", "1"], 1),
    ("dot", ["dot", "{P}"], 0),
)
# Mid-cost ops (30-60 ms) are left out here, so that the tail percentile
# falls among the check-regular and dual ops on M3, F1 and G4 and not on
# a boundary between op kinds; divisibility runs those searches.
OTHER_OPS = (
    ("leq M2 G5", ["leq", "{M2}", "{G5}"], 0),
    ("leq M3 M4", ["leq", "{M3}", "{M4}"], 0),
    ("leq F1 M3", ["leq", "{F1}", "{M3}"], 0),
    ("leq F2 F3", ["leq", "{F2}", "{F3}"], 0),
    ("leq M4 M2", ["leq", "{M4}", "{M2}"], 0),
    ("leq M2 F1", ["leq", "{M2}", "{F1}"], 0),
    ("antichain G3 G4 G5", ["antichain", "{G3}", "{G4}", "{G5}"], 0),
    ("antichain M2 M3 M4", ["antichain", "{M2}", "{M3}", "{M4}"], 1),
    ("jankov M2", ["jankov", "{M2}"], 0),
)
# bad input: exit 2, nothing on stdout, one "error:" line on stderr
KNOWN_FAILURE = "team atoms"
BAD_INPUT_OPS = (
    ("missing file", ["dual", "{missing}"], 2),
    ("not json", ["leq", "{garbage}", "{M2}"], 2),
    ("formula syntax", ["validate", "{M2}", "--formula", "p &"], 2),
    ("negative bound", ["quotient", "{M2}", "--n", "-1"], 2),
    ("one poset antichain", ["antichain", "{M2}"], 2),
    ("team guard", ["validate", "{M2}", "--formula", "p", "--team", "3"], 2),
    # raises ValueError from team_valid instead of exiting 2
    (KNOWN_FAILURE, ["validate", "{M2}", "--formula", "p & q -> r", "--team", "2"], 2),
)
CLI_LIBRARY_NAMES = (
    ("dual_algebra", "heyting.dual_algebra"),
    ("is_regularly_generated", "heyting.is_regularly_generated"),
    ("is_leq", "heyting.is_leq"),
    ("is_regular_structural", "regularity.is_regular_structural"),
    ("is_stable_under_sim_infty", "regularity.sim_infty"),
    ("sim_infty", "regularity.sim_infty"),
    ("is_regular_bruteforce_morphism", "regularity.bruteforce"),
    ("quotient", "regularity.quotient"),
    ("parse", "logic.parse"),
    ("is_dna_valid", "logic.is_dna_valid"),
    ("is_valid", "logic.is_valid"),
    ("team_valid", "logic.team_valid"),
    ("antichain_verify", "jankov.antichain_verify"),
    ("jankov_dna_formula", "jankov.jankov_dna_formula"),
)


def _frame_json(name: str, spec) -> str:
    points, pairs = spec
    return json.dumps({"leq": [list(p) for p in pairs], "name": name, "points": points})


class FrameFamilies(Workload):
    """The command line, in process, on the named frame families."""

    name = "frame-families"
    rebind = tuple(("cli", attr, span) for attr, span in CLI_LIBRARY_NAMES) + (
        ("jankov", "is_leq", "heyting.is_leq"),
    )

    def setup(self, lib, seed: int, tr) -> None:
        self.lib = lib
        work = HERE.parent / ".perfbench"
        work.mkdir(exist_ok=True)
        self.dir = work / f"frames-{os.getpid()}"
        self.dir.mkdir(exist_ok=True)
        paths = {"missing": str(self.dir / "missing.json"), "garbage": str(self.dir / "garbage.json")}
        Path(paths["garbage"]).write_text("not json\n", encoding="utf-8")
        for name, make in NAMED_FRAMES.items():
            spec = make()
            if _build_frame(lib, tr, name, spec) != _library_frame(lib, name):
                self.problems.append(f"frame {name} differs from the library's constructor")
            paths[name] = str(self.dir / f"{name}.json")
            Path(paths[name]).write_text(_frame_json(name, spec), encoding="utf-8")
        with open(HERE / "cli_expected.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)
        catalogue = [
            (f"{label} {name}", [a.replace("{P}", "{" + name + "}") for a in argv], code)
            for name in NAMED_FRAMES
            for label, argv, code in PER_FRAME
        ]
        catalogue += OTHER_OPS + BAD_INPUT_OPS
        self.ops = [
            (label, [paths[a[1:-1]] if a.startswith("{") else a for a in argv], code)
            for label, argv, code in catalogue
        ]
        random.Random(seed).shuffle(self.ops)

    def kind(self, op) -> str:
        return op[1][0]

    def known_failure(self, op, exc: Exception) -> bool:
        return op[0] == KNOWN_FAILURE and type(exc) is ValueError

    def call(self, op, tr):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tr.call("cli." + op[1][0], self.lib.cli.run, op[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result, tr):
        label, _, want = op
        code, out, err = result
        if code != want:
            raise Wrong(f"exit {code}, expected {want}")
        if want == 2:
            if out or not err.startswith("error: ") or err.count("\n") != 1:
                raise Wrong("bad input did not give one error line")
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if err or digest != self.digests.get(label):
                raise Wrong(f"{label}: stdout sha256 {digest}, recorded {self.digests.get(label)}")
        if tr.enabled:
            tr.count("cli.stdout_bytes", len(out.encode()))
        return (code, len(out))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusSweep, FormulaSweep, Divisibility, FrameFamilies)}
