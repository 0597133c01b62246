"""Benchmark of the relative Delaunay-Cech pipeline on one workload.

    python3 perfbench/run.py --workload uniform2d --seed 1 --seconds 30 --trace 0

Set-up (import `reldelcech`, generate and write the instance files) is timed
in fresh processes; this process then runs a fixed number of instances,
one at a time on one thread, sized to take about `--seconds` (see
`workloads.Workload.rounds`), and checks every output.  Times are
rescaled to a reference host speed (see `speed.py`).  With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` each
instance runs once untraced and once traced, and the per-layer metrics are
reported.  The last line of standard output is one JSON object; the lines
before it are a readable summary.
See perfbench/README.md for the metrics and workloads.
"""

import os

# One thread: pin BLAS pools before numpy loads, here and in set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

workloads.import_reldelcech()

import instance  # noqa: E402 - both need the checkout's src on the path
import spans  # noqa: E402
import speed  # noqa: E402
from reldelcech import relative_lift  # noqa: E402

SETUP_REPEATS = 9
SEED_ENV = "RELDEL_SEED"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_times(workload: str, seed: int, repeats: int, gauge: speed.Gauge) -> list[float]:
    """Wall set-up time of `repeats` fresh processes, probing the host
    after each; each process writes the same files."""
    cmd = [sys.executable, os.path.abspath(workloads.__file__), workload, str(seed)]
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
        gauge.probe()
    return times


class Attempt:
    """Wall time, size, outcome and check result of one instance run.

    `pipe` is available right after the run; `measure` drops it so that no
    pipeline outlives its instance and peak memory does not grow with the
    number of instances.
    """

    def __init__(self, paths, tracer=None):
        self.points = self.dim = 0
        self.pipe = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                x, a, pipe, bc = instance.run(*paths)
            else:
                with tracer.span("instance"):
                    x, a, pipe, bc = instance.run(*paths, tracer)
        except Exception as exc:  # a raising instance is a failed operation
            self.wall = time.perf_counter() - t0
            traceback.print_exc()
            self.outcome = f"raised {exc!r}"
            self.problems = [self.outcome]
            return
        self.wall = time.perf_counter() - t0
        self.points, self.dim, self.pipe = len(x), x.dimension, pipe
        self.outcome = repr(bc)
        self.problems = instance.output_problems(bc, pipe.complex, a)


def measure(workload: str, seed: int, seconds: float, trace: bool, gauge: speed.Gauge) -> dict:
    wl = workloads.WORKLOADS[workload]
    directory = workloads.instance_dir(workload, seed)
    tracer = spans.Tracer() if trace else None
    plain, traced = [], []  # (instance number, Attempt)
    seen: dict[int, str] = {}  # pool index -> first outcome
    deterministic = True
    structure: dict[int, dict] = {}  # traced instance -> complex counts, certificate
    k = 0
    t_start = time.perf_counter()
    for _ in range(wl.rounds(seconds, trace)):
        for _ in wl.shapes:
            i = k % wl.pool
            paths = workloads.instance_paths(directory, i)
            # Which pass goes first alternates by round, so that neither side
            # always gets the warm second pass.
            first_traced = (k // len(wl.shapes)) % 2 == 1
            passes = (first_traced, not first_traced) if trace else (False,)
            for with_trace in passes:
                if with_trace:
                    tracer.current_instance = k
                    with tracer.installed():
                        att = Attempt(paths, tracer)
                    if att.pipe is not None:
                        with tracer.span("verify_embedding"):
                            report = relative_lift.verify_embedding(att.pipe.cfg, att.pipe.triangulation)
                        cells = att.pipe.complex.cells
                        structure[k] = {
                            "complex.cells": len(cells),
                            "complex.cells_sub": sum(1 for c in cells if c.in_subcomplex),
                            "complex.cells_per_point": len(cells) / att.points,
                            "verify_embedding.ok_frac": float(report.ok),
                        }
                    traced.append((k, att))
                else:
                    att = Attempt(paths)
                    plain.append((k, att))
                att.pipe = None
                gauge.probe()
                if seen.setdefault(i, att.outcome) != att.outcome:
                    deterministic = False
            k += 1
    return {
        "plain": plain,
        "traced": traced,
        "tracer": tracer,
        "structure": structure,
        "deterministic": deterministic,
        "elapsed": time.perf_counter() - t_start,
    }


def round_median(attempts: list, shapes: int) -> float:
    """Median over rounds of the mean instance time (at reference speed) in
    a round (one instance per shape), so that a mixed workload like `grid`
    does not report whichever shape happens to sit in the middle."""
    times = [att.time for _, att in attempts]
    return statistics.median(statistics.fmean(times[r : r + shapes]) for r in range(0, len(times), shapes))


def end_to_end(m: dict, setup: list[float], shapes: int, factor: float) -> dict[str, float]:
    times = [att.time for _, att in m["plain"]]
    return {
        "barcode_s": round_median(m["plain"], shapes),
        "points_per_s": sum(att.points for _, att in m["plain"]) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup) * factor,
    }


def per_layer(m: dict, shapes: int, trace_path: str, meta: dict) -> dict[str, float]:
    """Mean per traced instance of each layer metric, and the overhead of
    tracing: traced over untraced `barcode_s`, minus one."""
    dims = {k: att.dim + 1 for k, att in m["traced"] if k in m["structure"]}
    if not dims:
        raise RuntimeError("no traced instance completed")
    by_instance = spans.layer_metrics(m["tracer"], dims)
    for k, row in by_instance.items():
        row.update(m["structure"][k])
    rows = list(by_instance.values())
    out = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_frac"] = round_median(m["traced"], shapes) / round_median(m["plain"], shapes) - 1
    m["tracer"].save(trace_path + ".npz")
    with open(trace_path + ".json", "w") as fh:
        json.dump({**meta, "per_instance": {str(k): v for k, v in by_instance.items()}, "mean": out}, fh, indent=1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}

    gauge = speed.Gauge()
    gauge.probe()
    setup = setup_times(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS, gauge)
    os.makedirs(workloads.WORK, exist_ok=True)
    trace_path = os.path.join(workloads.WORK, f"trace-{args.workload}-seed{args.seed}")
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), gauge)
        factor = gauge.factor()  # one host speed for the whole run
        for _, att in m["plain"] + m["traced"]:
            att.time = att.wall * factor
        meta = {**vars(args), "reldel_seed_set": SEED_ENV in os.environ}
        shapes = len(workloads.WORKLOADS[args.workload].shapes)
        values = per_layer(m, shapes, trace_path, meta) if args.trace else end_to_end(m, setup, shapes, factor)
    finally:
        shutil.rmtree(workloads.instance_dir(args.workload, args.seed), ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    runs = [(k, att, "") for k, att in m["plain"]] + [(k, att, ", traced") for k, att in m["traced"]]
    failed = [(k, att, how) for k, att, how in runs if att.problems]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(m['plain'])} untraced + {len(m['traced'])} traced instance runs "
        f"in {m['elapsed']:.1f} s; {SEED_ENV} {'set' if meta['reldel_seed_set'] else 'unset'}"
    )
    print("  instance wall s (* traced): " + " ".join(f"{att.wall:.3f}{how and '*'}" for _, att, how in runs))
    print(f"  reference speed / host speed: {factor:.4f}")
    for k, att, how in failed:
        print(f"  failed: instance {k}{how}: {'; '.join(att.problems)}")
    for name in units:
        print(f"  {name:34s} {values[name]:.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {len(failed) / len(runs):.6g} ({len(failed)} of {len(runs)})")
    if not m["deterministic"]:
        print("  NOT DETERMINISTIC: one input gave two different outcomes")
    print(json.dumps({
        "correct": m["deterministic"],
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
