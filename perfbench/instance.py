"""One benchmark instance, driven through the public API the way
`reldelcech compute` drives it, and the check on its output.

Import this module only after `workloads.import_reldelcech()` has put the
checkout's `src` on the path.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

from reldelcech import cli, persistence, relative_lift


def _no_span(name: str):
    return nullcontext()


def run(points_path: str, subset_path: str, tracer=None):
    """Parse the instance files, then `solve`; returns (x, a, pipeline, barcode).

    With a tracer, the benchmark's own layer boundaries are recorded as
    spans as well.
    """
    span = tracer.span if tracer is not None else _no_span
    with span("parse"):
        x = cli.read_points(points_path)
        a = cli.read_subset(subset_path, len(x))
    return (x, a) + solve(x, a, span)


def solve(x, a: set[int], span=_no_span):
    """Split, lift and triangulate, filter, reduce: (pipeline, barcode)."""
    x1, x2 = cli.split_pair(x, a)
    with span("build_pipeline"):
        pipe = relative_lift.build_pipeline(x1, x2)
    with span("barcode"):
        bc = persistence.barcode(pipe.complex, relative=True, max_dim=x.dimension)
    return pipe, bc


def output_problems(bc: persistence.Barcode, fc, a: set[int]) -> list[str]:
    """Reasons the relative barcode of (X, A) with nonempty A is wrong.

    At the end of the filtration K = del(Z) triangulates the convex hull of
    the lifted set Z, and L, the lifted del(A), the hull of A; both are
    contractible, so H(K, L) = 0.
    Hence no bar may be infinite, and the cells outside L must have Euler
    characteristic chi(K) - chi(L) = 0.  The Euler test also covers
    dimension d+1, which the barcode (up to dimension d) does not show.
    """
    if not a:
        raise ValueError("the output check needs a nonempty subset A")
    problems = []
    infinite = [k for k in bc.dims() for _, death in bc.bars(k) if math.isinf(death)]
    if infinite:
        problems.append("infinite bars in " + ", ".join(f"H{k}" for k in infinite))
    chi = sum(-1 if c.simplex.dim % 2 else 1 for c in fc.cells if not c.in_subcomplex)
    if chi:
        problems.append(f"relative Euler characteristic {chi}")
    return problems
