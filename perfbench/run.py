"""esakialab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory. Set-up
(imports, input generation, the algebras and bundles reused by every op)
is repeated SETUPS times and ``setup_s`` is the median. Then the op list
runs in rounds, each a full pass, until the next round would pass
``--seconds`` (at least MIN_ROUNDS). An op's time is the median of its
rounds, and every time is taken at the reference speed (see ``probe``).
``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics instead, per round, plus one set-up's
share; the spans are written to ``.perfbench/``. The last stdout line is
one JSON object: correct, attempted, failed, metrics (with ``all``, the
workloads' results joined).
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import NullTracer, Tracer, rebound
from workloads import WORKLOADS, Wrong

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3
MIN_ROUNDS = 3
# The host's speed swings by up to 1.8x from one 5-second window to the
# next, so every time is scaled to a fixed speed: the one at which the
# probe below takes PROBE_REFERENCE_S. An op's time is divided by the mean
# probe time of the ops within PROBE_WINDOW of it (each op is preceded by
# one probe) and multiplied by PROBE_REFERENCE_S; a set-up's time likewise,
# by SETUP_PROBES probes before and after it. 32 us is the probe's fastest
# time on the 2-vCPU Intel Xeon VM the benchmark was written on, so the
# scaled figures read as that machine's uncontended times.
PROBE_REFERENCE_S = 32e-6
PROBE_WINDOW = 5
SETUP_PROBES = 200
TAIL_LADDER = (50, 90, 95, 99, 99.9, 99.99)
MODULES = ("poset_core", "heyting", "regularity", "logic", "jankov", "cli")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# busy seconds (.s) or work counts (.n), per round plus one set-up's share
PER_LAYER = (
    "heyting.dual_algebra.s",
    "heyting.regulars.s",
    "heyting.is_regularly_generated.s",
    "heyting.dual_poset.s",
    "heyting.tensor_defined.s",
    "heyting.is_leq.s",
    "heyting.elements.n",
    "heyting.regulars.n",
    "heyting.is_leq.n",
    "regularity.is_regular_structural.s",
    "regularity.sim_infty.s",
    "regularity.rank_table.s",
    "regularity.bruteforce.s",
    "regularity.quotient.s",
    "regularity.sim_levels.n",
    "poset_core.build.s",
    "poset_core.strong_regularization.s",
    "poset_core.points.n",
    "logic.parse.s",
    "logic.team_valid.s",
    "logic.is_dna_valid.s",
    "logic.is_valid.s",
    "logic.dnf_inquisitive.s",
    "logic.dnf_biconditional.s",
    "logic.formula_nodes.n",
    "logic.team_sweep_bound.n",
    "logic.dna_valuation_bound.n",
    "logic.dnf_disjuncts.n",
    "jankov.refutation_check.s",
    "jankov.antichain_verify.s",
    "jankov.jankov_dna_formula.s",
    "jankov.refuted.n",
    "cli.dual.s",
    "cli.check-regular.s",
    "cli.quotient.s",
    "cli.validate.s",
    "cli.leq.s",
    "cli.antichain.s",
    "cli.jankov.s",
    "cli.dot.s",
    "cli.self.s",
    "cli.stdout_bytes.n",
)
TRACE_OVERHEAD = (
    ("bench.ops_per_s_untraced", "1/s"),
    ("bench.ops_per_s_traced", "1/s"),
    ("bench.trace_overhead", "ratio"),
)


_PROBE_DATA = tuple(range(256)) * 2
_PROBE_TABLE = dict.fromkeys(range(64), 0)


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work that runs no
    library code and allocates nothing, so it never sets off the collector."""
    table = _PROBE_TABLE
    start = perf_counter()
    for x in _PROBE_DATA:
        table[x & 63] = table[x & 31] ^ x
    return perf_counter() - start


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """``times[i]`` scaled by the probes of the ops within PROBE_WINDOW of op i."""
    prefix = [0.0]
    for p in probes:
        prefix.append(prefix[-1] + p)
    out = []
    for i, t in enumerate(times):
        lo, hi = max(0, i - PROBE_WINDOW), min(len(probes), i + PROBE_WINDOW + 1)
        out.append(t * PROBE_REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def import_library() -> SimpleNamespace:
    """Import esakialab afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "esakialab" or m.startswith("esakialab.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"esakialab.{m}") for m in MODULES}
    )
    lib.FinitePoset = lib.poset_core.FinitePoset
    return lib


def nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    return max(p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10 or p == 50)


def per_op(rounds: list[dict], key: str = "scaled") -> tuple[list[float], float]:
    """Per op, the median over ``rounds`` of its time (``inf`` if it failed
    in any of them), and the ops that passed per second of those times."""
    times = [statistics.median(t) for t in zip(*(r[key] for r in rounds))]
    passed = [all(p) for p in zip(*(r["passed"] for r in rounds))]
    latencies = [t if p else math.inf for t, p in zip(times, passed)]
    return latencies, sum(passed) / sum(times)


def run_round(workload, tr, failures: list) -> dict:
    probes, times, passed, verdicts = [], [], [], []
    wrong, unexpected = 0, 0
    for i, op in enumerate(workload.ops):
        tr.op = i
        probes.append(probe())
        start = perf_counter()
        try:
            result = tr.call("op." + workload.kind(op), workload.call, op, tr)
        except Exception as exc:  # a failed op is counted, never fatal
            times.append(perf_counter() - start)
            passed.append(False)
            verdicts.append(None)
            failures.append(f"{workload.kind(op)} op {i}: {type(exc).__name__}: {exc}")
            unexpected += not workload.known_failure(op, exc)
            continue
        times.append(perf_counter() - start)
        try:
            verdicts.append(workload.check(op, result, tr))
        except Wrong as exc:
            passed.append(False)
            verdicts.append(None)
            wrong += 1
            failures.append(f"{workload.kind(op)} op {i}: wrong: {exc}")
            continue
        passed.append(True)
    workload.end_round(verdicts)
    return {
        "ops": len(times),
        "ok": sum(passed),
        "wrong": wrong,
        "unexpected": unexpected,
        "times": times,
        "scaled": at_reference_speed(times, probes),
        "probe_s": statistics.fmean(probes) if probes else math.nan,
        "passed": passed,
        "verdicts": repr(verdicts),
    }


def is_correct(workload, rounds: list[dict]) -> bool:
    """No run-level problem, no wrong answer, no exception other than a
    workload's known failure, and the same verdicts in every round."""
    return (
        not workload.problems
        and not any(r["wrong"] or r["unexpected"] for r in rounds)
        and len({r["verdicts"] for r in rounds}) == 1
    )


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = []
    setup_tracer = Tracer() if trace else NullTracer()
    for rep in range(SETUPS):
        workload = WORKLOADS[name]()
        tr = setup_tracer if rep == SETUPS - 1 else NullTracer()
        before = statistics.fmean(probe() for _ in range(SETUP_PROBES))
        start = perf_counter()
        try:
            lib = import_library()
            with rebound(tr, lib, workload.rebind):
                workload.setup(lib, seed, tr)
        finally:
            took = perf_counter() - start
            after = statistics.fmean(probe() for _ in range(SETUP_PROBES))
            setup_times.append(took * PROBE_REFERENCE_S * 2 / (before + after))
            if rep < SETUPS - 1:
                workload.close()

    round_tracer = Tracer() if trace else NullTracer()
    rounds, failures = [], []
    start = perf_counter()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            tr = round_tracer if traced else NullTracer()
            began = perf_counter()
            with rebound(tr, lib, workload.rebind):
                result = run_round(workload, tr, failures)
            result["traced"] = traced
            rounds.append(result)
            wall = perf_counter() - began
            done = len(rounds) >= MIN_ROUNDS + trace
            if done and perf_counter() - start + wall > seconds:
                break
    finally:
        workload.close()

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["ops"] - r["ok"] for r in rounds)
    correct = is_correct(workload, rounds)
    plain = [r for r in rounds if not r["traced"]]
    ops = rounds[0]["ops"]
    tail_p = tail_percentile(ops)
    latencies, ops_per_s = per_op(plain)
    samples = sorted(latencies)
    wall_samples, wall_ops_per_s = per_op(plain, "times")
    wall_samples.sort()
    out = {
        "name": name,
        "seed": seed,
        "rounds": len(rounds),
        "ops_per_round": ops,
        "tail_percentile": tail_p,
        "tail_beyond": ops - math.ceil(tail_p / 100 * ops),
        "problems": workload.problems,
        "failures": failures,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "wall": {
            "ops_per_s": wall_ops_per_s,
            "latency_p50_ms": nearest_rank(wall_samples, 50) * 1e3,
            "latency_tail_ms": nearest_rank(wall_samples, tail_p) * 1e3,
        },
        "probe_s": statistics.fmean(r["probe_s"] for r in plain),
    }
    if not trace:
        out["metrics"] = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": nearest_rank(samples, 50) * 1e3,
            "latency_tail_ms": nearest_rank(samples, tail_p) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["units"] = dict(END_TO_END)
        return out

    traced_rounds = [r for r in rounds if r["traced"]]
    untraced, traced = ops_per_s, per_op(traced_rounds)[1]
    metrics, units = {}, {}
    per_setup, per_round = setup_tracer.totals(), round_tracer.totals()
    counts = (setup_tracer.counts, round_tracer.counts)
    n = len(traced_rounds)
    for metric in PER_LAYER:
        layer, kind = metric.rsplit(".", 1)
        if layer == "cli.self":
            value = sum(t["self_s"] for k, t in per_round.items() if k.startswith("cli.")) / n
        elif kind == "s":
            value = per_setup.get(layer, {}).get("busy_s", 0.0)
            value += per_round.get(layer, {}).get("busy_s", 0.0) / n
        elif layer in counts[0] or layer in counts[1]:
            value = counts[0].get(layer, 0) + counts[1].get(layer, 0) / n
        else:
            value = per_setup.get(layer, {}).get("n", 0) + per_round.get(layer, {}).get("n", 0) / n
        metrics[metric] = value
        units[metric] = "s" if kind == "s" else "count"
    metrics["bench.ops_per_s_untraced"] = untraced
    metrics["bench.ops_per_s_traced"] = traced
    metrics["bench.trace_overhead"] = untraced / traced
    units.update(TRACE_OVERHEAD)
    out["metrics"], out["units"] = metrics, units

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with open(work / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "traced_rounds": n,
                "setup": setup_tracer.dump(),
                "rounds": round_tracer.dump(),
            },
            fh,
        )
    return out


def report(out: dict) -> None:
    print(
        f"{out['name']} seed {out['seed']}: {out['rounds']} rounds of "
        f"{out['ops_per_round']} ops, correct={out['correct']}"
    )
    for metric, value in out["metrics"].items():
        line = f"  {metric:40s} {value:14.6g} {out['units'][metric]}"
        if metric == "latency_tail_ms":
            line += (
                f"  (p{out['tail_percentile']:g}: {out['tail_beyond']} of "
                f"{out['ops_per_round']} ops beyond it)"
            )
        print(line)
    wall = ", ".join(f"{k} {v:.6g}" for k, v in out["wall"].items())
    print(
        f"  wall clock, unscaled: {wall}; mean probe {out['probe_s'] * 1e6:.1f} us, "
        f"{out['probe_s'] / PROBE_REFERENCE_S:.3f}x the reference"
    )
    if "ops_per_s" in out["metrics"]:
        frac = out["failed"] / out["attempted"]
        print(f"  {'fail_frac':40s} {frac:14.6g} ratio  ({out['failed']} of {out['attempted']})")
    for problem in out["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    for failure in sorted(set(out["failures"]))[:10]:
        print(f"  failed: {failure}", file=sys.stderr)


def run_all(args) -> int:
    """Run every workload in its own process. Each one's report and its
    result line, labelled with the workload, are passed on; the last line
    joins them, with each metric named ``<workload>.<metric>``."""
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        *lines, last = done.stdout.splitlines()
        result = json.loads(last)
        print("\n".join(lines))
        print(json.dumps({"workload": name, **result}))
        joined["correct"] &= result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        joined["metrics"].update(
            (f"{name}.{metric}", value) for metric, value in result["metrics"].items()
        )
    print(json.dumps(joined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "esakialab" / "__init__.py").is_file():
        print(f"error: no esakialab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # every sweep the benchmark makes stays 10x under the default budget
    os.environ.pop("ESAKIA_MAX_SWEEP", None)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(out)
    metrics = {
        k: {"value": v if math.isfinite(v) else None, "unit": out["units"][k]}
        for k, v in out["metrics"].items()
    }
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
