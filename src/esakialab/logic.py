"""Propositional formulas and their algebra, negative-valuation and team semantics.

The grammar is ASCII: atoms match [a-z][a-zA-Z0-9_]*, constants are ``bot``
and ``top``, the connectives are ``~ & (+) | -> <->`` with precedence
``~ > & > (+) > | > -> > <->``; ``->`` associates right, the rest left.
``~p`` and ``<->`` are parse-time sugar (implication to bot, conjunction of
two implications).
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .budget import SweepGuardError, charge


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundAtomError(KeyError):
    """A formula atom has no value under the given valuation."""


# -- abstract syntax -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Tensor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Atom | Bot | Top | And | Or | Tensor | Implies
_BINARY = (And, Or, Tensor, Implies)
_LEAVES = frozenset((Atom, Bot, Top))


def Neg(f: Formula) -> Implies:
    return Implies(f, Bot())


def Iff(a: Formula, b: Formula) -> And:
    return And(Implies(a, b), Implies(b, a))


def _walk(f: Formula) -> Iterator[Formula]:
    """Every node of the tree of f, once per occurrence."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, _BINARY):
            stack += [g.left, g.right]


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names occurring in f, sorted."""
    return tuple(sorted({g.name for g in _walk(f) if isinstance(g, Atom)}))


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in _walk(f))


def has_tensor(f: Formula) -> bool:
    return any(isinstance(g, Tensor) for g in _walk(f))


def is_standard(f: Formula) -> bool:
    """True iff f contains no disjunction node."""
    return not any(isinstance(g, Or) for g in _walk(f))


def _balanced(parts: Sequence[Formula], node) -> Formula:
    # balanced fold keeps the tree's depth logarithmic in len(parts)
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_balanced(parts[:mid], node), _balanced(parts[mid:], node))


def big_and(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return Top()
    return _balanced(list(parts), And)


def big_or(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return Bot()
    return _balanced(list(parts), Or)


# -- parser and formatter -------------------------------------------------

_SYMBOLS = ("(+)", "<->", "->", "~", "&", "|", "(", ")")  # "(+)" before "("
# one alternative per token kind, tried in this order at each position;
# "bad" takes the one character nothing else matches
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<sym>{})|(?P<atom>[a-z][a-zA-Z0-9_]*)|(?P<bad>.)".format(
        "|".join(map(re.escape, _SYMBOLS))
    ),
    re.DOTALL,
)

# symbol -> (precedence, node, right-associative); "~" is the one prefix symbol
_GRAMMAR = {
    "<->": (1, Iff, False),
    "->": (2, Implies, True),
    "|": (3, Or, False),
    "(+)": (4, Tensor, False),
    "&": (5, And, False),
    "~": (6, Neg, True),
}
_INFIX = {sym: rule for sym, rule in _GRAMMAR.items() if rule[1] is not Neg}
_NOT_INFIX = (-1, None, False)
_OPEN = (-1, None, True)  # "(" while pending: under every floor, one nesting level


def _lex(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        word, at = m.group(), m.start()
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {word!r}", at)
        if kind == "atom" and word in ("bot", "top"):
            kind = "const"
        out.append((kind, word, at))
    out.append(("end", "", len(text)))
    return out


# The deepest nesting parse accepts, counting each "~", "(" and right-hand
# "->" operand still open; it sits under the interpreter's default limit of
# 1000 frames. parse keeps explicit stacks instead of recursing, so the
# limit is the same at any caller depth. The library walks formulas
# iteratively; their dataclass equality, hash and repr still recurse and
# give out at a few hundred levels.
MAX_NESTING = 900


def parse(text: str) -> Formula:
    """Operator-precedence parse over the grammar table, with explicit stacks.

    ``pending`` holds the grammar rules of the symbols not yet applied:
    "~", binary symbols, and ``_OPEN`` for "(". A binary symbol first
    applies the pending rules that bind at least as tightly (strictly more
    tightly when it associates right); ")" and the end apply all of them
    down to the nearest "(".
    """
    operands: list[Formula] = []
    pending: list[tuple] = []
    depth = 0
    want_operand = True
    for kind, val, at in _lex(text):
        if want_operand:
            if kind == "atom":
                operands.append(Atom(val))
            elif kind == "const":
                operands.append(Bot() if val == "bot" else Top())
            elif kind == "sym" and val in ("~", "("):
                depth += 1
                if depth > MAX_NESTING:
                    raise FormulaSyntaxError("formula nested too deeply", at)
                pending.append(_GRAMMAR["~"] if val == "~" else _OPEN)
                continue
            else:
                raise FormulaSyntaxError(f"unexpected {val or 'end of input'!r}", at)
            want_operand = False
            continue
        rule = _INFIX.get(val, _NOT_INFIX)
        prec, _, right = rule
        floor = prec + right if prec > 0 else 0
        while pending and pending[-1][0] >= floor:
            _, node, nests = pending.pop()
            depth -= nests
            if node is Neg:
                operands[-1] = Neg(operands[-1])
            else:
                b = operands.pop()
                operands[-1] = node(operands[-1], b)
        if prec > 0:
            depth += right
            if depth > MAX_NESTING:
                raise FormulaSyntaxError("formula nested too deeply", at)
            pending.append(rule)
            want_operand = True
        elif (kind, val) == ("sym", ")"):
            if not pending:
                raise FormulaSyntaxError("unexpected ')'", at)
            pending.pop()
            depth -= 1
        elif pending:
            raise FormulaSyntaxError("expected ')'", at)
        elif kind != "end":
            raise FormulaSyntaxError(f"unexpected {val!r}", at)
    return operands[0]


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; negation sugar is re-applied.

    Each distinct subformula is rendered once, in the compiled node order.
    """
    prog = compile_formulas([f])
    shown: list[tuple[str, float]] = []  # per node: text, precedence
    for op, a, b in prog.nodes:
        if op == OP_ATOM:
            text, prec = prog.names[a], math.inf
        elif op < OP_AND:
            text, prec = "bot" if op == OP_BOT else "top", math.inf
        elif op == OP_IMP and prog.nodes[b][0] == OP_BOT:
            prec = _GRAMMAR["~"][0]
            text = "~" + _wrap(shown[a], prec)
        else:
            sym = _SYMBOL[op]
            prec, _, right = _GRAMMAR[sym]
            text = f"{_wrap(shown[a], prec + right)} {sym} {_wrap(shown[b], prec + (not right))}"
        shown.append((text, prec))
    return shown[prog.roots[0]][0]


def _wrap(shown: tuple[str, float], need: int) -> str:
    text, prec = shown
    return f"({text})" if prec < need else text


# -- compiled formulas -------------------------------------------------------

# Node opcodes; the binary ones come last. A node is (op, left, right): an atom's
# left is its name's index in Program.names, a binary node's are operand nodes.
_OPS = dict(zip((Atom, Bot, Top, And, Or, Implies, Tensor), range(7)))
OP_ATOM, OP_BOT, OP_TOP, OP_AND, OP_OR, OP_IMP, OP_TENSOR = _OPS.values()
_SYMBOL = {_OPS[node]: sym for sym, (_, node, _) in _GRAMMAR.items() if node in _OPS}


class Program(NamedTuple):
    """Formulas compiled into one hash-consed node table in post-order."""

    nodes: list[tuple[int, int, int]]
    names: list[str]
    roots: list[int]


def compile_formulas(formulas: Iterable[Formula]) -> Program:
    """Compile formulas into one table; equal subformulas share one node.

    The walk is iterative and memoizes by object identity, and hash-consing
    keys on int triples, so no formula is ever hashed or compared.
    """
    nodes: list[tuple[int, int, int]] = []
    names: dict[str, int] = {}
    index: dict[tuple[int, int, int], int] = {}
    done: dict[int, int] = {}  # id(subformula) -> node
    roots = []
    for f in formulas:
        stack = [f]
        while stack:
            g = stack[-1]
            op = _OPS[type(g)]
            if op >= OP_AND:
                key = (op, done.get(id(g.left), -1), done.get(id(g.right), -1))
                if key[1] < 0 or key[2] < 0:
                    stack += [g.right, g.left]
                    continue
            else:
                key = (op, names.setdefault(g.name, len(names)) if op == OP_ATOM else 0, 0)
            stack.pop()
            node = index.setdefault(key, len(nodes))
            if node == len(nodes):
                nodes.append(key)
            done[id(g)] = node
        roots.append(done[id(f)])
    return Program(nodes, list(names), roots)


# -- algebra semantics -----------------------------------------------------


def sweep_nodes(H, steps, values: list[int]) -> None:
    """Evaluate steps, non-atom nodes as (node, op, left, right), into values;
    elements are upset masks, so meet is & and join is |."""
    imp, tensor = H.imp, H.tensor_op
    for i, op, a, b in steps:
        if op == OP_AND:
            values[i] = values[a] & values[b]
        elif op == OP_OR:
            values[i] = values[a] | values[b]
        elif op == OP_IMP:
            values[i] = imp(values[a], values[b])
        elif op == OP_TENSOR:
            values[i] = tensor(values[a], values[b])
        else:
            values[i] = H.bot if op == OP_BOT else H.top


def stage_nodes(prog: Program, order: Sequence[str]):
    """Stage prog's nodes by an atom order: a node is at level d when the
    first d atoms of order fix its value, so atom-free nodes are at level 0.

    Returns the node of each atom of order, the non-atom nodes of each level
    as (node, op, left, right), and the level of every node. Valuing atom d
    takes a sweep from level d to level d + 1.
    """
    rank = {name: d for d, name in enumerate(order)}
    atom_node = [0] * len(order)
    steps: list[list[tuple[int, int, int, int]]] = [[] for _ in range(len(order) + 1)]
    level: list[int] = []
    for i, (op, a, b) in enumerate(prog.nodes):
        if op == OP_ATOM:
            atom_node[rank[prog.names[a]]] = i
            level.append(rank[prog.names[a]] + 1)
            continue
        level.append(max(level[a], level[b]) if op >= OP_AND else 0)
        steps[level[i]].append((i, op, a, b))
    return atom_node, steps, level


def eval_algebra(H, mu, f: Formula) -> int:
    """Interpret f in H under the valuation mu (atom name to element)."""
    prog = compile_formulas([f])
    atom_node, steps, _ = stage_nodes(prog, prog.names)
    values = [0] * len(prog.nodes)
    try:
        for name, i in zip(prog.names, atom_node):
            values[i] = mu[name]
    except KeyError as exc:
        raise UnboundAtomError(exc.args[0]) from None
    for stage in steps:
        sweep_nodes(H, stage, values)
    return values[prog.roots[0]]


def refutes(H, domain: Sequence[int], plan, budget: list, symmetry: Symmetry | None = None) -> bool:
    """True iff some valuation of plan's atoms over domain makes each of its
    equations hold and keeps its target below top.

    plan is (size, atom_node, steps, equations, target): the node count and
    the staging of stage_nodes; None or, per level, the equations
    (op, a, b, c) with op in OP_AND, OP_OR, OP_IMP that must read
    op(a, b) = c once the level is swept (level 0, fixed by no atom, holds
    none); and the target's (level, node). A branch dies at its first
    failed check.
    Each value tried costs one unit of budget[0]; once it is spent the
    whole search stops and answers False with budget[0] at exactly -1, so
    a caller that finds budget[0] < 0 knows it reached no verdict.

    symmetry, a ``poset_core.morphisms.Symmetry``, lists automorphisms of H
    as permutations of domain; the search then tries one valuation per
    orbit. An automorphism commutes with every connective and fixes top,
    so it maps a valuation that meets the equations and refutes the target
    to another one.
    """
    size, atom_node, steps, _, (at, target) = plan
    values = [0] * size
    sweep_nodes(H, steps[0], values)
    if at == 0 and values[target] == H.top:
        return False
    stab = symmetry.every if symmetry else 0
    return not atom_node or _refutes_from(H, domain, plan, values, budget, 0, symmetry, stab)


def _refutes_from(
    H, domain, plan, values: list[int], budget: list, level: int, symmetry, stab: int
) -> bool:
    # The atoms below level are valued and their levels passed. Each value of
    # atom level completes level + 1, which is swept and checked in this loop,
    # so a leaf costs no call; above level 0 every node is binary. A plain
    # function: a closure that calls itself leaves a reference cycle.
    # stab has a bit for each permutation of symmetry that fixes the values
    # so far; 0 leaves the whole domain. A value that one of them sends
    # earlier is skipped: applied to the whole valuation, that permutation
    # gives one that comes earlier in the search order and has the same
    # verdict. So every skip steps back in the order, the earliest valuation
    # of each orbit is still tried, and so is the plain sweep's first
    # refuting valuation; this holds for any set of automorphisms.
    _, atom_node, steps, equations, (at, target) = plan
    atom, child = atom_node[level], level + 1
    stage, eqs = steps[child], equations[child] if equations else ()
    aim = target if at == child else -1
    last, top, imp, tensor = child == len(atom_node), H.top, H.imp, H.tensor_op
    tried = [v for v in domain if not stab & symmetry.lowers[v]] if stab else domain
    for value in tried:
        budget[0] -= 1
        if budget[0] < 0:
            return False
        values[atom] = value
        for i, op, a, b in stage:
            if op == OP_IMP:
                values[i] = imp(values[a], values[b])
            elif op == OP_AND:
                values[i] = values[a] & values[b]
            elif op == OP_OR:
                values[i] = values[a] | values[b]
            else:
                values[i] = tensor(values[a], values[b])
        if aim >= 0 and values[aim] == top:
            continue
        for op, a, b, c in eqs:
            x, y = values[a], values[b]
            if (x & y if op == OP_AND else x | y if op == OP_OR else imp(x, y)) != values[c]:
                break
        else:
            if last or _refutes_from(H, domain, plan, values, budget, child, symmetry,
                                     stab and stab & symmetry.fixes[value]):
                return True
            if budget[0] < 0:
                return False  # the level below spent the budget: stop, charging nothing more
    return False


def _validity_plan(prog: Program) -> tuple:
    """refutes' plan for prog's first formula: every atom in sorted order, no
    equations, and the root as the target on the last level."""
    atom_node, steps, _ = stage_nodes(prog, prog.names)
    return len(prog.nodes), atom_node, steps, None, (len(atom_node), prog.roots[0])


def _valid_over(H, prog: Program, regular: bool, force: bool, caller: str) -> bool:
    # The sweep over the regulars or all elements of H. Every automorphism
    # of H's base poset acts on both and commutes with every connective, the
    # tensor included, so the sweep tries one valuation per orbit as far as
    # H.domain_symmetry lists them. Its listing budget is 1/|domain| of the
    # sweep, so a one-atom sweep lists nothing.
    domain = H.regulars if regular else H.elements
    count = len(domain) ** len(prog.names)
    if not force:
        charge(caller, f"{len(domain)}^{len(prog.names)}", count, "valuations")
    symmetry = None
    if len(prog.names) > 1:
        symmetry = H.domain_symmetry(regular, count // len(domain))
    return not refutes(H, domain, _validity_plan(prog), [math.inf], symmetry)


def is_valid(H, f: Formula, force: bool = False) -> bool:
    """True iff f evaluates to 1 under every valuation into H."""
    return _valid_over(H, compile_formulas([f]), False, force, "is_valid")


def is_dna_valid(H, f: Formula, force: bool = False) -> bool:
    """True iff f evaluates to 1 under every negative (regular-valued) valuation.

    Validity is checked on each of H's component algebras; a product algebra
    validates a formula iff every factor does.
    """
    prog = compile_formulas([f])
    parts = H.component_algebras()
    return all(_valid_over(K, prog, True, force, "is_dna_valid") for K in parts)


# -- team semantics ---------------------------------------------------------

MAX_TEAM_WORLDS = 16  # a support set over m worlds is an int of 2^m bits


@dataclass(frozen=True)
class Team:
    """A set of propositional assignments over a declared atom tuple.

    Each assignment is an int whose bit i gives the value of atoms[i].
    """

    atoms: tuple[str, ...]
    assignments: frozenset[int]

    @classmethod
    def of(cls, atom_names: Iterable[str], rows: Iterable[int]) -> "Team":
        return cls(tuple(atom_names), frozenset(rows))


@cache  # m <= MAX_TEAM_WORLDS
def _without(m: int) -> tuple[int, ...]:
    """For each of m worlds w, the set of subteams missing w."""
    full = (1 << (1 << m)) - 1
    return tuple(full // ((1 << (2 << w)) - 1) * ((1 << (1 << w)) - 1) for w in range(m))


def _support(prog: Program, worlds: Sequence[int], slots: Sequence[int]) -> int:
    """The set of subteams supporting the root: bit s for the subteam s, which
    holds worlds[w] iff bit w of s is set. Atom a is bit slots[a] of a world.
    """
    m = len(worlds)
    full, without = (1 << (1 << m)) - 1, _without(m)
    sets: list[int] = []
    for op, a, b in prog.nodes:
        if op == OP_AND:
            v = sets[a] & sets[b]
        elif op == OP_OR:
            v = sets[a] | sets[b]
        elif op == OP_IMP:  # fails on every superset of a subteam in A and not in B
            v = sets[a] & ~sets[b]
            for w in range(m):
                v |= (v & without[w]) << (1 << w)
            v ^= full
        elif op == OP_TENSOR:  # the unions of a subteam in A and one in B
            v, left = 0, sets[a]
            while left:
                t = left.bit_length() - 1
                left ^= 1 << t
                image = sets[b]
                for w in range(m):
                    if t >> w & 1:
                        low = image & without[w]
                        image = image ^ low | low << (1 << w)
                v |= image
        elif op == OP_ATOM:
            v = full
            for w, row in enumerate(worlds):
                if not row >> slots[a] & 1:
                    v &= without[w]
        else:
            v = 1 if op == OP_BOT else full
        sets.append(v)
    return sets[prog.roots[0]]


def team_eval(t: Team, f: Formula) -> bool:
    """True iff the team supports f."""
    rows = sorted(t.assignments)
    for row in rows:
        if not 0 <= row < 1 << len(t.atoms):
            raise ValueError(f"assignment {row} out of range for {len(t.atoms)} atoms")
    if len(rows) > MAX_TEAM_WORLDS:
        raise SweepGuardError(f"team_eval: {len(rows)} assignments give 2^{len(rows)} "
                              f"subteams, more than the limit of 2^{MAX_TEAM_WORLDS}")
    prog = compile_formulas([f])
    slot = {name: i for i, name in enumerate(t.atoms)}
    try:
        slots = [slot[name] for name in prog.names]
    except KeyError as exc:
        raise UnboundAtomError(exc.args[0]) from None
    full_team = (1 << len(rows)) - 1
    return bool(_support(prog, rows, slots) >> full_team & 1)


def team_valid(f: Formula, k: int, force: bool = False) -> bool:
    """True iff every team over the 2^k assignments supports f."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    prog = compile_formulas([f])
    if len(prog.names) > k:
        raise ValueError(f"formula has {len(prog.names)} atoms, more than k={k}")
    if k > 2 and not force:
        raise SweepGuardError(
            f"team_valid: k={k} gives 2^(2^{k}) teams, more than the 2^(2^2) "
            "swept without force; pass force=True"
        )
    if k >= MAX_TEAM_WORLDS.bit_length():  # 2^k worlds
        raise SweepGuardError(f"team_valid: k={k} gives 2^(2^{k}) teams, "
                              f"more than the limit of 2^{MAX_TEAM_WORLDS}")
    return _support(prog, range(1 << k), range(k)) == (1 << (1 << (1 << k))) - 1


# -- inquisitive disjunctive normal form ------------------------------------


def dnf_inquisitive(f: Formula) -> list[Formula]:
    """Disjunction-free disjuncts whose join is support-equivalent to f.

    Bottom-up over the subformulas: a disjunction joins its operands'
    lists, a conjunction pairs them, and an implication expands over all
    choice functions from antecedent disjuncts to consequent disjuncts.
    Tensor is not supported: meeting one raises ValueError.
    """
    # Post-order over an explicit stack, so nesting costs no interpreter
    # frames. None on the stack marks the node atop ``waiting`` as ready:
    # its operands' disjunct lists are the last two in ``done``. Leaf
    # operands and one-by-one products skip the general expansions, which
    # build the same disjuncts.
    done: list[list[Formula]] = []
    waiting: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g is None:
            g = waiting.pop()
            cons = done.pop()
            ants = done.pop()
        elif type(g) in _LEAVES:
            done.append([g])
            continue
        elif type(g) is Tensor:
            raise ValueError("normal form is defined for tensor-free formulas")
        elif type(g.left) in _LEAVES and type(g.right) in _LEAVES:
            ants, cons = [g.left], [g.right]
        else:
            waiting.append(g)
            stack += (None, g.right, g.left)
            continue
        kind = type(g)
        if kind is Or:
            out = ants + cons
        elif len(ants) == 1 and len(cons) == 1:
            out = [kind(ants[0], cons[0])]
        elif kind is And:
            out = [And(a, b) for a in ants for b in cons]
        elif len(cons) == 1:
            out = [reduce(And, [Implies(a, cons[0]) for a in ants])]
        else:
            out = [
                reduce(And, [Implies(a, cons[c]) for a, c in zip(ants, choice)])
                for choice in product(range(len(cons)), repeat=len(ants))
            ]
        done.append(out)
    return done[0]


# -- named axiom instances ---------------------------------------------------


def axiom_instances(name: str, **params) -> Formula:
    """Named axiom schemata: "KP", "ND" (with k >= 2), "dep" (premises, target)."""
    if name == "KP":
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        return Implies(
            Implies(Neg(p), Or(q, r)),
            Or(Implies(Neg(p), q), Implies(Neg(p), r)),
        )
    if name == "ND" or re.fullmatch(r"ND_\d+", name):
        k = int(name.split("_")[1]) if "_" in name else params.get("k", 0)
        if k < 2:
            raise ValueError("ND needs k >= 2")
        p = Atom("p")
        negs = [Neg(Atom(f"q{i}")) for i in range(1, k + 1)]
        out = big_or([Implies(Neg(p), g) for g in negs])
        return Implies(Implies(Neg(p), big_or(negs)), out)
    if name == "dep":
        premises = [Atom(a) for a in params.get("premises", ())]
        target = Atom(params["target"])
        if not premises:
            raise ValueError("dep needs at least one premise atom")
        ant = big_and([Or(a, Neg(a)) for a in premises])
        return Implies(ant, Or(target, Neg(target)))
    raise ValueError(f"unknown axiom name {name!r}")


def ml_proxy_formulas() -> tuple[Formula, ...]:
    """The fixed finite stand-in suite for the Medvedev-style laws."""
    return (axiom_instances("KP"), axiom_instances("ND", k=2), axiom_instances("ND", k=3))


# -- formula corpora ---------------------------------------------------------


def enumerate_formulas(
    atom_names: Sequence[str], max_size: int, with_tensor: bool = False
) -> list[Formula]:
    """All formulas up to the given AST size, size-major, deterministic order."""
    ops = [And, Or, Implies] + ([Tensor] if with_tensor else [])
    by_size: dict[int, list[Formula]] = {
        1: [Bot(), Top()] + [Atom(a) for a in atom_names]
    }
    for size in range(3, max_size + 1, 2):
        bucket: list[Formula] = []
        for op in ops:
            for left_size in range(1, size - 1, 2):
                rights = by_size.get(size - 1 - left_size, ())
                for left in by_size[left_size]:
                    for right in rights:
                        bucket.append(op(left, right))
        by_size[size] = bucket
    return [f for size in sorted(by_size) if size <= max_size for f in by_size[size]]


def sample_formulas(
    atom_names: Sequence[str],
    max_size: int,
    count: int,
    seed: int = 0,
    with_tensor: bool = False,
) -> list[Formula]:
    """Deterministic pseudorandom sample of distinct formulas.

    Raises ValueError when fewer than ``count`` distinct formulas fit in
    ``max_size``, where drawing would never stop.
    """
    rnd = random.Random(seed)
    ops = [And, Or, Implies] + ([Tensor] if with_tensor else [])
    leaves: list[Formula] = [Bot(), Top()] + [Atom(a) for a in atom_names]
    total = _formula_count(len(set(leaves)), len(ops), max_size)
    if count > total:
        raise ValueError(
            f"only {total} distinct formulas have size <= {max_size}, asked for {count}"
        )

    seen: set[Formula] = set()
    out: list[Formula] = []
    while len(out) < count:
        f = _random_formula(rnd, ops, leaves, max_size)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _formula_count(n_leaves: int, n_ops: int, max_size: int) -> int:
    """How many distinct formulas have size at most max_size, by the
    recurrence of enumerate_formulas on counts: none below size 1."""
    by_size = {1: n_leaves} if max_size >= 1 else {}
    for size in range(3, max_size + 1, 2):
        by_size[size] = n_ops * sum(
            by_size[left] * by_size[size - 1 - left] for left in range(1, size - 1, 2)
        )
    return sum(by_size.values())


def _random_formula(rnd: random.Random, ops, leaves, budget: int) -> Formula:
    # a plain function: a closure that calls itself leaves a reference cycle
    if budget < 3 or rnd.random() < 0.25:
        return rnd.choice(leaves)
    op = rnd.choice(ops)
    left_size = rnd.randrange(1, budget - 1, 2)
    left = _random_formula(rnd, ops, leaves, left_size)
    return op(left, _random_formula(rnd, ops, leaves, budget - 1 - left_size))
