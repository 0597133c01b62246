"""Tests of the benchmark itself: the output check against the brute-force
oracle, the span bookkeeping, repeatable counts and outcomes, the speed
scaling and the result line.

    python3 -m pytest -q perfbench
"""

import importlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import workloads

workloads.import_reldelcech()

import instance  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from reldelcech import cli  # noqa: E402
from reldelcech.geometry import PointCloud  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SMALL_GRIDS = ((3, 4), (2, 6), (3, 3), (4, 3))


def grid(shape) -> PointCloud:
    return PointCloud([[float(c) for c in p] for p in itertools.product(*(range(k) for k in shape))])


def small_grid_cases():
    """60 pairs: four small integer grids, 15 random nonempty proper subsets each."""
    for g, shape in enumerate(SMALL_GRIDS):
        x = grid(shape)
        for j in range(15):
            rng = np.random.default_rng([g, j])
            size = int(rng.integers(1, len(x)))
            yield x, set(rng.choice(len(x), size=size, replace=False).tolist())


def test_check_flags_roadmap_repro():
    x, a = grid((3, 4)), {0, 4, 5, 6}
    pipe, bc = instance.solve(x, a)
    infinite = [(k, b) for k in bc.dims() for b, d in bc.bars(k) if math.isinf(d)]
    assert [k for k, _ in infinite] == [2]
    assert instance.output_problems(bc, pipe.complex, a) == [
        "infinite bars in H2",
        "relative Euler characteristic 1",
    ]


def test_check_agrees_with_oracle_on_small_grids():
    mismatched, flagged = [], []
    for case, (x, a) in enumerate(small_grid_cases()):
        diff, _, _ = cli.check_pair(x, a)
        pipe, bc = instance.solve(x, a)
        if not diff.matched:
            mismatched.append(case)
        if instance.output_problems(bc, pipe.complex, a):
            flagged.append(case)
    print(f"{len(mismatched)} of 60 small-grid cases mismatch the oracle: {mismatched}")
    assert flagged == mismatched


def test_self_time_subtracts_direct_children():
    parent = np.array([-1, 0, 0, 1])
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    assert spans.self_times(parent, duration).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_tracer_wraps_targets_and_restores_them():
    def current():
        return [getattr(importlib.import_module(m), name) for m, name, _ in spans.TARGETS]

    before = current()
    rng = np.random.default_rng(7)
    x = PointCloud(rng.random((30, 2)).tolist())
    a = set(range(8))
    tracer = spans.Tracer()
    tracer.current_instance = 0
    with tracer.installed():
        assert all(w is not f for w, f in zip(current(), before))
        with tracer.span("instance"):
            pipe, _ = instance.solve(x, a, tracer.span)
    assert all(w is f for w, f in zip(current(), before))
    m = spans.layer_metrics(tracer, {0: 3})[0]
    # choose_s triangulates X1 and X2, build_pipeline Z and X1.
    assert m["delaunay.calls"] == 4
    assert 0 < m["delaunay.z.s"] < m["delaunay.s"]
    assert m["meb.calls"] > 0 and m["predicates.filter.calls"] > 0
    assert m["reduce.pairs"] > 0 and m["boundary_matrix.nnz"] > 0


def _bench(*args, cwd=None):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RELDEL_SEED")}
    return subprocess.run(
        [sys.executable, RUN if cwd is None else "perfbench/run.py", *args],
        cwd=cwd or workloads.ROOT, env=env, capture_output=True, text=True, timeout=170,
    )


def test_result_line_lists_every_end_to_end_metric():
    out = _bench("--workload", "grid", "--seed", "90", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2 and 0 <= result["failed"] <= result["attempted"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "RELDEL_SEED unset" in out.stdout


def test_counts_repeat_exactly_across_runs_of_one_seed():
    counts = ("delaunay.calls", "meb.calls", "complex.cells", "complex.cells_sub",
              "boundary_matrix.nnz", "reduce.pairs", "predicates.filter.calls",
              "predicates.filter.certified_frac", "predicates.exact.calls", "predicates.sos.calls")
    trace = os.path.join(workloads.WORK, "trace-grid-seed91.json")
    seen, outcomes = [], []
    for _ in range(2):
        out = _bench("--workload", "grid", "--seed", "91", "--seconds", "1", "--trace", "1")
        assert out.returncode == 0, out.stderr
        with open(trace) as fh:
            per_instance = json.load(fh)["per_instance"]
        seen.append({k: {c: row[c] for c in counts} for k, row in per_instance.items()})
        result = json.loads(out.stdout.splitlines()[-1])
        outcomes.append((result["attempted"], result["failed"]))
    assert seen[0] == seen[1]
    assert outcomes[0] == outcomes[1]


def test_run_length_does_not_depend_on_the_clock():
    grid = workloads.WORKLOADS["grid"]
    assert grid.rounds(30, trace=False) == 8 and grid.rounds(30, trace=True) == 3
    assert grid.rounds(0.5, trace=True) == 1


def test_reference_speed_scales_by_the_probes():
    gauge = speed.Gauge()
    gauge.probes = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert gauge.factor() == 0.5
    gauge.probes = []
    gauge.probe()
    assert len(gauge.probes) == speed.PROBE_REPEATS and gauge.factor() > 0


def test_fails_without_program_sources():
    bare = os.path.join(workloads.WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        os.path.join(workloads.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
