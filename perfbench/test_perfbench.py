"""The benchmark's own tests: determinism, seeds, tracing, and the contract.

Run with ``python3 -m pytest -q perfbench``. Rounds here are cut to the
first OPS ops of each workload to keep the tests short.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, rebound  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = 120
KNOWN_FAILURE = "ValueError: formula has 3 atoms, more than k=2"


def one_round(name: str, seed: int, traced: bool):
    workload = WORKLOADS[name]()
    lib = run.import_library()
    tr = Tracer() if traced else NullTracer()
    try:
        with rebound(tr, lib, workload.rebind):
            workload.setup(lib, seed, tr)
        assert workload.problems == []
        workload.ops = workload.ops[:OPS]
        failures: list[str] = []
        with rebound(tr, lib, workload.rebind):
            result = run.run_round(workload, tr, failures)
    finally:
        workload.close()
    assert result["wrong"] == 0
    assert all(f.endswith(KNOWN_FAILURE) for f in failures), failures
    return workload, result, tr


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_work_and_verdicts_and_tracing_changes_neither(name):
    first, a, traced_a = one_round(name, 11, traced=True)
    _, b, traced_b = one_round(name, 11, traced=True)
    _, c, _ = one_round(name, 11, traced=False)
    assert traced_a.counts == traced_b.counts
    assert {k: v["n"] for k, v in traced_a.totals().items()} == {
        k: v["n"] for k, v in traced_b.totals().items()
    }
    assert a["verdicts"] == b["verdicts"] == c["verdicts"]

    other, d, _ = one_round(name, 12, traced=False)
    assert repr(other.ops) != repr(first.ops)
    assert d["verdicts"] != a["verdicts"]


def test_an_op_that_raises_makes_the_run_wrong():
    """A refutation check that raises (as its built-in is_leq cross-check
    does on a disagreement) is not a tolerated failure."""
    workload = WORKLOADS["divisibility"]()
    lib = run.import_library()
    workload.setup(lib, 5, NullTracer())
    workload.ops = [op for op in workload.ops if op[0] == "jankov"][:20]

    def disagree(*args, **kwargs):
        raise RuntimeError("jankov_refutation_check and is_leq disagree")

    lib.jankov.jankov_refutation_check = disagree
    result = run.run_round(workload, NullTracer(), [])
    assert result["ok"] == 0 and result["unexpected"] == 20
    assert not run.is_correct(workload, [result])


def test_only_the_known_cli_failure_is_tolerated():
    workload = WORKLOADS["frame-families"]()
    lib = run.import_library()
    try:
        workload.setup(lib, 5, NullTracer())
        workload.ops = [op for op in workload.ops if op[0].endswith(" M2") or op[2] == 2]
        failures: list[str] = []
        result = run.run_round(workload, NullTracer(), failures)
        assert len(failures) == 1 and failures[0].endswith(KNOWN_FAILURE)
        assert result["unexpected"] == 0 and run.is_correct(workload, [result])

        def broken(argv):
            raise ValueError("broken")

        lib.cli.run = broken
        result = run.run_round(workload, NullTracer(), [])
        assert result["unexpected"] == len(workload.ops) - 1
        assert not run.is_correct(workload, [result])
    finally:
        workload.close()


def test_formula_pools_follow_the_acceptance_suite():
    """Per round, 1/50 of the 1-atom corpus to size 9, size by size, and of
    the 500 2-atom and 2 x 100 tensor samples of criteria 9 and 10."""
    assert inputs.formula_counts(9, 3, 3) == {1: 3, 3: 27, 5: 486, 7: 10935, 9: 275562}
    rnd = random.Random(4)
    sizes = {}
    for pool in workloads.FORMULA_POOLS:
        trees = workloads.formula_draws(rnd, pool)
        sizes[pool[0]] = sorted(inputs.render(t).count("(") * 2 + 1 for t in trees)
    one = sizes["1-atom"]
    assert [one.count(n) for n in (1, 3, 5, 7, 9)] == [0, 1, 10, 219, 5511]
    assert len(sizes["2-atom"]) == 10 and max(sizes["2-atom"]) <= 11
    assert len(sizes["tensor-1"]) == len(sizes["tensor-2"]) == 2


def test_generator_counts_and_independent_checks():
    levels = inputs.poset_classes(7)
    assert tuple(len(level) for level in levels) == inputs.CLASS_COUNTS
    assert sum(inputs.is_regular(up) for level in levels for up in level) == 119
    # the fork divides every poset in which some point sees two maximal points
    assert inputs.fan_divides(2, (7, 2, 4)) and not inputs.fan_divides(2, (3, 2))
    # the three-leaf fan does not divide M3: the pairs see two leaves each
    up = tuple(run.import_library().FinitePoset(*inputs.medvedev(3)).up)
    assert inputs.fan_divides(2, up) and not inputs.fan_divides(3, up)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2450) == 99
    assert run.tail_percentile(559) == 95
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(5) == 50


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "divisibility",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_short_run_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "divisibility",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(run.PER_LAYER) + [n for n, _ in run.TRACE_OVERHEAD]


def test_times_are_scaled_by_the_probes_near_them():
    ref = run.PROBE_REFERENCE_S
    assert run.at_reference_speed([1.0, 2.0], [ref, ref]) == pytest.approx([1.0, 2.0])
    # a host running at half speed doubles the probe times and the op times
    assert run.at_reference_speed([2.0, 4.0], [2 * ref, 2 * ref]) == pytest.approx([1.0, 2.0])
    # only the probes within the window of an op count for it
    far = run.PROBE_WINDOW + 1
    scaled = run.at_reference_speed([1.0] * (far + 1), [ref] * far + [4 * ref])
    assert scaled[0] == pytest.approx(1.0) and scaled[-1] < 0.9
