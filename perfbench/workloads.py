"""Benchmark workloads: deterministic instance generation and set-up.

Every instance is a point file plus a subset-index file, written the way a
user would hand them to `reldelcech compute`.  The data seed comes from the
benchmark's `--seed`; the program sees only the files.  `RELDEL_SEED`, which
drives the incremental hull's insertion order, is never set here.

Run as a script, this module performs one timed set-up in a fresh process:
import `reldelcech`, generate the instance pool and write it.  It prints the
set-up time in seconds as its only output line.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


# Time of one untraced round on the 2-vCPU shared VM the benchmark was sized
# on (one n=250 2D or n=80 3D instance, or a 12x12 and a 4x4x4 grid); it
# fixes how many rounds a run makes.  A traced round runs each instance
# twice (the traced pass slower) and then `verify_embedding`: about
# TRACE_COST untraced rounds' worth of time.
ROUND_S = 3.5
TRACE_COST = 2.5


@dataclass(frozen=True)
class Workload:
    """`shapes` is one round: one instance of each shape.  `pool` instances
    are written at set-up and reused in order when a run needs more."""

    shapes: tuple[tuple, ...]
    subset_frac: float
    pool: int

    def rounds(self, seconds: float, trace: bool) -> int:
        """Rounds in a run of about `seconds`.

        The count depends only on the arguments, never on a clock, so that
        two runs of one seed run the same inputs and fail the same ones
        however fast the machine happens to be; a faster or slower program
        makes the run shorter or longer, not different.
        """
        per_round = ROUND_S * (TRACE_COST if trace else 1.0)
        return max(1, int(seconds / per_round))


WORKLOADS = {
    "uniform2d": Workload(
        shapes=(("uniform-box", 250, 2),),
        subset_frac=0.25,
        pool=16,
    ),
    "uniform3d": Workload(
        shapes=(("uniform-box", 80, 3),),
        subset_frac=0.25,
        pool=16,
    ),
    "grid": Workload(
        shapes=(("grid", (12, 12)), ("grid", (4, 4, 4))),
        subset_frac=0.5,
        pool=32,
    ),
}


def import_reldelcech():
    """Import the package from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "reldelcech", "__init__.py")):
        raise SystemExit(f"perfbench: no reldelcech sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import reldelcech

    if not os.path.abspath(reldelcech.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported reldelcech from {reldelcech.__file__}")
    return reldelcech


def instance_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK, f"{workload}-seed{seed}")


def instance_paths(directory: str, i: int) -> tuple[str, str]:
    stem = os.path.join(directory, f"instance-{i:03d}")
    return stem + ".points.csv", stem + ".subset.txt"


def make_instance(workload: str, seed: int, i: int):
    """Points (list of float rows) and sorted subset indices of instance i."""
    # Imported here, not at the top, so that the timed set-up includes them.
    import numpy as np

    from reldelcech.cli import generate_cloud

    wl = WORKLOADS[workload]
    shape = wl.shapes[i % len(wl.shapes)]
    rng = np.random.default_rng([seed, i])
    if shape[0] == "grid":
        points = [[float(c) for c in p] for p in itertools.product(*(range(k) for k in shape[1]))]
    else:
        kind, n, d = shape
        points = [list(p.coords) for p in generate_cloud(kind, n, d, rng)]
    n = len(points)
    k = int(round(wl.subset_frac * n))
    subset = sorted(rng.choice(n, size=k, replace=False).tolist())
    return points, subset


def write_pool(workload: str, seed: int) -> str:
    directory = instance_dir(workload, seed)
    os.makedirs(directory, exist_ok=True)
    for i in range(WORKLOADS[workload].pool):
        points, subset = make_instance(workload, seed, i)
        pts_path, sub_path = instance_paths(directory, i)
        with open(pts_path, "w") as fh:
            fh.writelines(",".join(repr(c) for c in p) + "\n" for p in points)
        with open(sub_path, "w") as fh:
            fh.writelines(f"{j}\n" for j in subset)
    return directory


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import_reldelcech()
    workload, seed = argv[0], int(argv[1])
    write_pool(workload, seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
