"""Command-line interface: compute barcodes, cross-check against the
brute-force oracle, and benchmark complex sizes.

Exit codes: 0 success, 1 internal failure, 2 input error, 3 barcode
mismatch (check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback

import numpy as np

from .cech_oracle import ORACLE_CAP, compare_barcodes, relative_cech
from .filtered_complex import dumps
from .geometry import InputError, PointCloud, subset_indices, unique_rows
from .persistence import Barcode, barcode, boundary_matrix, reduce_matrix
from .relative_lift import build_pipeline

_GEN_SEED = 20240801


def read_points(path: str) -> PointCloud:
    """CSV point cloud: one point per line, comma or whitespace separated;
    a non-numeric first line is treated as a header."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InputError(f"{path}: {e}") from e
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t for t in line.replace(",", " ").split() if t]
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            if not rows and lineno == next(
                i for i, r in enumerate(lines, start=1) if r.strip()
            ):
                continue  # header
            raise InputError(f"{path}:{lineno}: cannot parse point '{line}'")
        if not all(math.isfinite(v) for v in row):
            raise InputError(f"{path}:{lineno}: non-finite coordinate")
        rows.append((lineno, row))
    if not rows:
        raise InputError(f"{path}: no points found")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise InputError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
    try:
        return PointCloud([row for _, row in rows])
    except InputError as e:
        raise InputError(f"{path}: {e}") from e


def read_subset(path: str, n: int) -> set[int]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InputError(f"{path}: {e}") from e
    out: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        for tok in line.replace(",", " ").split():
            try:
                i = int(tok)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad index '{tok}'")
            if not 0 <= i < n:
                raise InputError(f"{path}:{lineno}: index {i} out of range 0..{n - 1}")
            out.add(i)
    return out


def split_pair(x: PointCloud, a_indices: set[int]) -> tuple[PointCloud, PointCloud]:
    """(X1, X2): the points of x with an index in a_indices, and the rest,
    each in the order of x.  InputError for an index that is no integer
    or lies outside 0..n-1 (`subset_indices`)."""
    in_a = np.zeros(len(x), dtype=bool)
    in_a[subset_indices(a_indices, len(x))] = True
    return PointCloud(x.coords[in_a], dimension=x.dimension), PointCloud(x.coords[~in_a], dimension=x.dimension)


def check_pair(
    x: PointCloud,
    a_indices: set[int],
    tol: float = 1e-9,
    max_dim: int | None = None,
    oracle_cap: int = ORACLE_CAP,
):
    """Pipeline vs oracle; returns (diff, pipeline barcode, oracle barcode)."""
    if max_dim is None:
        max_dim = x.dimension
    b1 = barcode(build_pipeline(*split_pair(x, a_indices)).complex, relative=True, max_dim=max_dim)
    oc = relative_cech(x, a_indices, max_simplex_dim=max_dim + 1, cap=oracle_cap)
    b2 = barcode(oc, relative=True, max_dim=max_dim)
    return compare_barcodes(b1, b2, tol), b1, b2


# -- persistence diagram rendering ------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def render_svg(b: Barcode) -> str:
    """Minimal deterministic persistence diagram: births on x, deaths on y,
    infinite bars on a rail above the diagonal."""
    size, margin = 400, 45
    finite = [d for k in b.dims() for _, d in b.bars(k) if not math.isinf(d)]
    births = [bb for k in b.dims() for bb, _ in b.bars(k)]
    top = 1.05 * max(finite) if finite else (1.05 * max(births) if births and max(births) > 0 else 1.0)

    def sx(v):
        return margin + (v / top) * (size - 2 * margin)

    def sy(v):
        return size - margin - (v / top) * (size - 2 * margin)

    rail = sy(top) - 12
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(top):.2f}" y2="{sy(top):.2f}" '
        'stroke="#888" stroke-dasharray="4 3"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(top):.2f}" y2="{sy(0):.2f}" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(0):.2f}" y2="{sy(top):.2f}" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{rail:.2f}" x2="{sx(top):.2f}" y2="{rail:.2f}" '
        'stroke="#aaa" stroke-dasharray="2 3"/>',
        f'<text x="{sx(top) - 4:.2f}" y="{sy(0) + 16:.2f}" font-size="11" text-anchor="end">birth</text>',
        f'<text x="{sx(0) - 6:.2f}" y="{sy(top) - 4:.2f}" font-size="11">death</text>',
        f'<text x="{sx(0):.2f}" y="{rail - 4:.2f}" font-size="10" fill="#666">inf</text>',
    ]
    for k in b.dims():
        color = _PALETTE[k % len(_PALETTE)]
        for birth, death in b.bars(k):
            y = rail if math.isinf(death) else sy(death)
            out.append(
                f'<circle cx="{sx(birth):.2f}" cy="{y:.2f}" r="3.5" fill="{color}" '
                f'fill-opacity="0.75"><title>H{k} [{birth:g}, '
                f'{"inf" if math.isinf(death) else f"{death:g}"})</title></circle>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- generators --------------------------------------------------------------------


def generate_cloud(kind: str, n: int, d: int, rng: np.random.Generator) -> PointCloud:
    """n distinct points drawn from the generator `kind`, sorted
    lexicographically; a draw that repeats a point is topped up from the
    same generator."""
    if n < 1:
        raise InputError("need at least one point")
    if d < 1:
        raise InputError(f"--dim must be at least 1, got {d}")
    if kind == "uniform-box":

        def draw(m):
            return rng.random((m, d))

    elif kind == "annulus":
        if d != 2:
            raise InputError("annulus generator requires d=2")

        def draw(m):
            r = np.sqrt(rng.uniform(1.0, 1.5**2, m))
            theta = rng.uniform(0.0, 2 * math.pi, m)
            return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    elif kind == "sphere":
        if d == 1 and n > 2:
            raise InputError(f"the sphere generator in d=1 has only 2 points, asked for {n}")

        def draw(m):
            g = rng.normal(size=(m, d))
            return g / np.linalg.norm(g, axis=1, keepdims=True)

    else:
        raise InputError(f"unknown generator '{kind}'")
    pts, _ = unique_rows(draw(n))
    while len(pts) < n:  # a repeat is ~impossible with float64, except on the 0-sphere
        pts, _ = unique_rows(np.vstack([pts, draw(n - len(pts))]))
    return PointCloud(pts[:n])


# -- subcommands -------------------------------------------------------------------


def _write(path: str, text: str):
    """Write `text` to the file `path`; InputError when it cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"{path}: {e}") from e


def cmd_compute(args) -> int:
    x = read_points(args.points)
    a = read_subset(args.subset_indices, len(x)) if args.subset_indices else set()
    relative = args.subset_indices is not None
    max_dim = args.max_dim if args.max_dim is not None else x.dimension
    x1, x2 = split_pair(x, a)
    fc = build_pipeline(x1, x2).complex
    b = barcode(fc, relative=True, max_dim=max_dim)
    # The side files first: a path that cannot be written exits 2 with
    # nothing on standard output.
    if args.dump_complex:
        _write(args.dump_complex, dumps(fc))
    if args.svg:
        _write(args.svg, render_svg(b))
    payload = json.dumps(b.to_json_dict(relative), indent=2)
    if args.out:
        _write(args.out, payload + "\n")
    else:
        print(payload)
    return 0


def cmd_check(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise InputError(f"--tol must be finite and >= 0, got {args.tol}")
    x = read_points(args.points)
    a = read_subset(args.subset_indices, len(x)) if args.subset_indices else set()
    diff, b1, b2 = check_pair(x, a, tol=args.tol, max_dim=args.max_dim, oracle_cap=args.oracle_cap)
    if args.json:
        report = diff.to_dict()
        report["pipeline"] = b1.to_json_dict(True)
        report["oracle"] = b2.to_json_dict(True)
        print(json.dumps(report, indent=2))
    else:
        print(diff.text())
    return 0 if diff.matched else 3


def cmd_bench(args) -> int:
    """CSV of complex sizes and timings over generated clouds.

    The clouds and subsets are drawn from the fixed seed _GEN_SEED, so
    equal arguments give equal rows apart from the wall times.
    `wall_ms_pipeline` times build_pipeline (del(X1) and del(X2), the
    lift, del(Z) wrapped from them, and every enclosing ball),
    `wall_ms_reduction` the boundary matrix and its reduction.
    """
    if not 0 <= args.subset_fraction <= 1:
        raise InputError(f"--subset-fraction must be in [0, 1], got {args.subset_fraction}")
    sizes = []
    for chunk in args.sizes:
        for tok in filter(None, chunk.split(",")):
            try:
                sizes.append(int(tok))
            except ValueError:
                raise InputError(f"--sizes: bad size '{tok}'") from None
    if not sizes:
        raise InputError("no sizes given")
    rows = ["n_total,d,cells_total,cells_subcomplex,wall_ms_pipeline,wall_ms_reduction"]
    ns, cs = [], []
    for n in sizes:
        rng = np.random.default_rng(_GEN_SEED)
        cloud = generate_cloud(args.generator, n, args.dim, rng)
        n_sub = int(round(args.subset_fraction * n))
        a = set(rng.choice(n, size=n_sub, replace=False).tolist()) if n_sub else set()
        x1, x2 = split_pair(cloud, a)
        t0 = time.perf_counter()
        pipe = build_pipeline(x1, x2)
        t1 = time.perf_counter()
        m = boundary_matrix(pipe.complex, relative=True)
        reduce_matrix(m)
        t2 = time.perf_counter()
        total = len(pipe.complex)
        sub = int(pipe.complex.sub.sum())
        rows.append(
            f"{n},{args.dim},{total},{sub},{(t1 - t0) * 1e3:.1f},{(t2 - t1) * 1e3:.1f}"
        )
        ns.append(n)
        cs.append(total)
    csv = "\n".join(rows) + "\n"
    if args.out:
        _write(args.out, csv)
    else:
        sys.stdout.write(csv)
    if len(set(ns)) >= 2:  # a line through one size is undetermined
        slope = float(np.polyfit(np.log(ns), np.log(cs), 1)[0])
        print(f"# fitted growth exponent of cells_total vs n: {slope:.3f}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reldelcech",
        description="Relative persistent homology of point-cloud pairs via lifted Delaunay complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("points", help="CSV file, one point per line")
        sp.add_argument("--subset-indices", help="file of 0-based indices of the subset A")
        sp.add_argument("--max-dim", type=int, default=None, help="default: ambient dimension")

    c = sub.add_parser("compute", help="barcode of the (relative) filtration")
    common(c)
    c.add_argument("--out", help="write barcode JSON here instead of stdout")
    c.add_argument("--svg", help="write a persistence diagram SVG")
    c.add_argument("--dump-complex", help="write the filtered complex (text format)")
    c.set_defaults(func=cmd_compute)

    k = sub.add_parser("check", help="compare pipeline barcode against the brute-force oracle")
    common(k)
    k.add_argument("--tol", type=float, default=1e-9)
    k.add_argument("--oracle-cap", type=int, default=ORACLE_CAP)
    k.add_argument("--json", action="store_true", help="emit the diff report as JSON")
    k.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="cell counts and timings over generated clouds")
    b.add_argument("--generator", choices=["uniform-box", "annulus", "sphere"], default="uniform-box")
    b.add_argument("--sizes", nargs="+", required=True, help="point counts, e.g. --sizes 100,200,500")
    b.add_argument("--dim", type=int, default=2)
    b.add_argument("--subset-fraction", type=float, default=0.25)
    b.add_argument("--out", help="write the CSV here instead of stdout")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 1


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
