"""Batch command-line front end.

Every subcommand is pure: the same inputs produce byte-identical stdout,
written once at the end of the run. Exit codes: 0 on success, 1 when a
checked property fails (an invalid formula, an oracle disagreement, a
broken antichain), 2 on usage errors, on a sweep past the guard, on
a tensor formula over an algebra where the tensor is undefined and on
an output that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .budget import SweepGuardError
from .heyting import TensorUndefinedError, dual_algebra, is_leq, is_regularly_generated
from .jankov import antichain_verify, jankov_dna_formula
from .logic import FormulaSyntaxError, format_formula, is_dna_valid, is_valid, parse, team_valid
from .poset_core import (
    FinitePoset,
    OrderConstructionError,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
    strong_regularization,
)
from .regularity import (
    BRUTEFORCE_LIMIT,
    is_regular_bruteforce_morphism,
    is_regular_structural,
    is_stable_under_sim_infty,
    quotient,
    sim_infty,
    sim_n,
)


class UsageError(Exception):
    pass


class PropertyFailure(Exception):
    pass


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _load_poset(path: str) -> FinitePoset:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError(f"{path} nests too deeply to decode") from None
    if isinstance(obj, dict) and "base" in obj and "elements" in obj:
        obj = obj["base"]
    try:
        return FinitePoset._from_obj(obj)
    except ValueError as exc:
        raise UsageError(f"{path} does not describe a poset: {exc}") from exc


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_gen(args) -> tuple[int, str]:
    if args.family == "starify":
        star, _ = strong_regularization(_load_poset(args.arg))
        return 0, star.to_json()
    try:
        n = int(args.arg)
    except ValueError:
        raise UsageError(f"{args.family} needs an integer size, got {args.arg!r}") from None
    try:
        if args.family == "medvedev":
            P = make_medvedev(n)
        elif args.family == "delta0":
            P = make_delta0(n)
        elif args.family == "delta1":
            P = make_delta1(n)
        else:
            P = make_ladder(args.kind, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0, P.to_json()


def _cmd_dual(args) -> tuple[int, str]:
    H = dual_algebra(_load_poset(args.poset))
    generated = is_regularly_generated(H)
    payload = {
        "size": len(H),
        "regulars": len(H.regulars),
        "regularly_generated": generated,
    }
    if args.json:
        return 0, _dumps(payload)
    lines = [
        f"size: {payload['size']}",
        f"regulars: {payload['regulars']}",
        f"regularly generated: {_yn(generated)}",
    ]
    return 0, "\n".join(lines)


def _cmd_check_regular(args) -> tuple[int, str]:
    P = _load_poset(args.poset)
    structural = is_regular_structural(P)
    siminf = is_stable_under_sim_infty(P)
    algebraic = is_regularly_generated(dual_algebra(P))
    verdicts = [structural, siminf, algebraic]
    parts = [
        f"structural={_yn(structural)}",
        f"sim-infty={_yn(siminf)}",
        f"algebraic={_yn(algebraic)}",
    ]
    morphism: bool | None = None
    if len(P) <= BRUTEFORCE_LIMIT:
        morphism = is_regular_bruteforce_morphism(P)
        verdicts.append(morphism)
        parts.append(f"morphism={_yn(morphism)}")
    agree = len(set(verdicts)) == 1
    if args.json:
        payload = {
            "agree": agree,
            "algebraic": algebraic,
            "morphism": morphism,
            "regular": agree and structural,
            "sim_infty": siminf,
            "structural": structural,
        }
        return (0 if agree else 1), _dumps(payload)
    detail = "(" + ", ".join(parts) + ")"
    if not agree:
        return 1, f"regular: oracle disagreement {detail}"
    return 0, f"regular: {_yn(structural)} {detail}"


def _cmd_quotient(args) -> tuple[int, str]:
    P = _load_poset(args.poset)
    if args.n == "inf":
        part = sim_infty(P)
    else:
        try:
            k = int(args.n)
        except ValueError:
            raise UsageError(f"--n takes an integer or 'inf', got {args.n!r}") from None
        if k < 0:
            raise UsageError("--n must be nonnegative")
        part = sim_n(P, k)
    try:
        return 0, quotient(P, part).to_json()
    except OrderConstructionError as exc:  # a block's label is also a point's
        raise UsageError(f"cannot label the quotient: {exc}") from exc


def _cmd_validate(args) -> tuple[int, str]:
    # team validity never reads the poset, but a bad file is still an error
    P = _load_poset(args.source)
    try:
        f = parse(args.formula)
    except FormulaSyntaxError as exc:
        raise UsageError(f"bad formula: {exc}") from exc
    if args.team is not None:
        mode = f"team k={args.team}"
        try:
            ok = team_valid(f, args.team, force=args.force)
        except ValueError as exc:  # more atoms than k
            raise UsageError(str(exc)) from exc
    elif args.dna:
        mode = "dna"
        ok = is_dna_valid(dual_algebra(P), f, force=args.force)
    else:
        mode = "algebraic"
        ok = is_valid(dual_algebra(P), f, force=args.force)
    if args.json:
        return (0 if ok else 1), _dumps({"mode": mode, "valid": ok})
    return (0 if ok else 1), f"{mode}: {'valid' if ok else 'invalid'}"


def _cmd_jankov(args) -> tuple[int, str]:
    H = dual_algebra(_load_poset(args.poset))
    try:
        bundle = jankov_dna_formula(H, force=args.force)
    except ValueError as exc:
        raise PropertyFailure(str(exc)) from exc
    if args.json:
        return 0, bundle.to_json()
    atom_line = " ".join(
        f"{bundle.atom_names[u]}={H.element_label(u)}" for u in sorted(bundle.atom_names)
    )
    lines = [
        f"atoms: {atom_line}",
        f"second greatest: {H.element_label(bundle.second_greatest)}",
        f"chi: {format_formula(bundle.chi)}",
    ]
    return 0, "\n".join(lines)


def _cmd_leq(args) -> tuple[int, str]:
    A = _load_poset(args.a)
    B = _load_poset(args.b)
    ok = is_leq(A, B)
    if args.json:
        return 0, _dumps({"leq": ok})
    return 0, f"leq: {_yn(ok)}"


def _cmd_antichain(args) -> tuple[int, str]:
    posets = [_load_poset(p) for p in args.posets]
    if len(posets) < 2:
        raise UsageError("antichain needs at least two poset files")
    report = antichain_verify(posets)
    names = [P.name or f"#{i}" for i, P in enumerate(posets)]
    code = 0 if report.is_antichain else 1
    if args.json:
        payload = {
            "antichain": report.is_antichain,
            "comparable_pairs": [list(p) for p in report.comparable_pairs],
            "posets": names,
            "regular": list(report.regular_flags),
            "strongly_regular": list(report.strongly_regular_flags),
        }
        return code, _dumps(payload)
    lines = []
    for i, name in enumerate(names):
        lines.append(
            f"{name}: regular={_yn(report.regular_flags[i])}"
            f" strongly-regular={_yn(report.strongly_regular_flags[i])}"
        )
    if report.comparable_pairs:
        pairs = " ".join(f"({names[i]},{names[j]})" for i, j in report.comparable_pairs)
        lines.append(f"comparable pairs: {pairs}")
    else:
        lines.append("comparable pairs: none")
    lines.append(f"antichain: {_yn(report.is_antichain)}")
    return code, "\n".join(lines)


def _cmd_dot(args) -> tuple[int, str]:
    P = _load_poset(args.poset)
    text = P.to_dot()
    if args.json:
        return 0, _dumps({"dot": text})
    return 0, text.rstrip("\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run``. Parsing
    leaves it unchanged: each call fills a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="esakialab",
        description="finite poset and Heyting algebra workbench",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def with_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = with_json(sub.add_parser("gen", help="emit a named frame family member as poset JSON"))
    p.add_argument("family", choices=["medvedev", "delta0", "delta1", "ladder", "starify"])
    p.add_argument("arg", help="size parameter, or a poset file for starify")
    p.add_argument("--kind", choices=["R0", "R1", "R2"], default="R0", help="ladder variant")
    p.set_defaults(fn=_cmd_gen)

    p = with_json(sub.add_parser("dual", help="summarize the upset algebra of a poset"))
    p.add_argument("poset")
    p.set_defaults(fn=_cmd_dual)

    p = with_json(sub.add_parser("check-regular", help="run all regularity oracles"))
    p.add_argument("poset")
    p.set_defaults(fn=_cmd_check_regular)

    p = with_json(sub.add_parser("quotient", help="bounded-bisimulation quotient"))
    p.add_argument("poset")
    p.add_argument("--n", required=True, help="bound, an integer or 'inf'")
    p.set_defaults(fn=_cmd_quotient)

    p = with_json(sub.add_parser("validate", help="check a formula on a poset or algebra file"))
    p.add_argument("source", help="poset or algebra JSON file")
    p.add_argument("--formula", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dna", action="store_true", help="restrict valuations to regular elements")
    mode.add_argument("--team", type=int, metavar="K", help="team validity over K atoms")
    p.add_argument("--force", action="store_true", help="ignore the sweep-size guard")
    p.set_defaults(fn=_cmd_validate)

    p = with_json(sub.add_parser("jankov", help="characteristic refutation formula of a poset"))
    p.add_argument("poset")
    p.add_argument("--force", action="store_true", help="ignore the atom-count guard")
    p.set_defaults(fn=_cmd_jankov)

    p = with_json(sub.add_parser("leq", help="divisibility order between two posets"))
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_leq)

    p = with_json(sub.add_parser("antichain", help="pairwise incomparability report"))
    p.add_argument("posets", nargs="+", help="poset JSON files")
    p.set_defaults(fn=_cmd_antichain)

    p = with_json(sub.add_parser("dot", help="render a poset as a DOT digraph"))
    p.add_argument("poset")
    p.set_defaults(fn=_cmd_dot)

    return top


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = args.fn(args)
    except (UsageError, SweepGuardError, TensorUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full disk: the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
