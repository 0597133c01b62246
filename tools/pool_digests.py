"""Digests of the pipeline's outputs, to show that a change keeps them.

For every benchmark pool instance of seeds 1 and 2 (`perfbench/workloads.py`,
imported and never written), relative and with A empty, and for the clouds
of `reldelcech bench --sizes 10000 --dim 2` and `--sizes 2000 --dim 3`,
with A a quarter of the points and with A empty, this prints one line: the
instance's name and the sha256 of `dumps(complex) + repr(barcode)`, the
barcode as `compute` takes it.  Two checkouts keep the outputs iff their
lines are equal.

    python tools/pool_digests.py > digests.txt

It takes about 15 s on a 2-vCPU VM and writes no file.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
BENCH = ((10000, 2), (2000, 3))  # the sizes `bench` is recorded at


def _workloads():
    """perfbench/workloads.py as a module, with no bytecode cached beside it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    workloads.import_reldelcech()
    return workloads


def _digest(points, subset) -> str:
    from reldelcech.cli import split_pair
    from reldelcech.filtered_complex import dumps
    from reldelcech.geometry import PointCloud
    from reldelcech.persistence import barcode
    from reldelcech.relative_lift import build_pipeline

    x = PointCloud(points)
    x1, x2 = split_pair(x, set(subset))
    fc = build_pipeline(x1, x2).complex
    b = barcode(fc, relative=True, max_dim=x.dimension)
    return hashlib.sha256((dumps(fc) + repr(b)).encode()).hexdigest()


def main() -> int:
    wl = _workloads()
    import numpy as np

    from reldelcech.cli import _GEN_SEED, generate_cloud

    for name, workload in wl.WORKLOADS.items():
        for seed in SEEDS:
            for i in range(workload.pool):
                points, subset = wl.make_instance(name, seed, i)
                print(f"{name} seed {seed} instance {i} relative {_digest(points, subset)}", flush=True)
                print(f"{name} seed {seed} instance {i} A-empty {_digest(points, [])}", flush=True)
    for n, d in BENCH:
        rng = np.random.default_rng(_GEN_SEED)
        points = generate_cloud("uniform-box", n, d, rng).coords
        subset = rng.choice(n, size=int(round(0.25 * n)), replace=False).tolist()
        print(f"bench n={n} d={d} relative {_digest(points, subset)}", flush=True)
        print(f"bench n={n} d={d} A-empty {_digest(points, [])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
