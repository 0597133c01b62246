"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from _faults import inject_fault
from _oracles import betti_at, brute_meb_radius, insphere_signs, minor_expansion_det
from reldelcech import relative_lift
from reldelcech.cech_oracle import compare_barcodes, relative_cech
from reldelcech.cli import check_pair, generate_cloud, main, split_pair
from reldelcech.delaunay import delaunay
from reldelcech.filtered_complex import dumps
from reldelcech.geometry import PointCloud, in_sphere, orientation, smallest_enclosing_ball
from reldelcech.persistence import barcode
from reldelcech.relative_lift import build_pipeline, verify_embedding

TOL = 1e-9


def _random_pair(rng, d, n_lo=2, n_hi=12, subset="uniform"):
    n = int(rng.integers(n_lo, n_hi + 1))
    pts = np.unique(rng.random((n, d)), axis=0)
    x = PointCloud(pts.tolist())
    n = len(x)
    if subset == "empty":
        a = set()
    elif subset == "full":
        a = set(range(n))
    else:
        a = {i for i in range(n) if rng.random() < 0.5}
    return x, a


def test_criterion_1_oracle_equivalence(tmp_path, monkeypatch):
    """Relative Delaunay-Cech barcodes equal brute-force relative Cech
    barcodes on 300 random instances, endpoint tolerance 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(0xC1)
    count = 0
    for trial in range(300):
        d = [1, 2, 3][trial % 3]
        subset = {7: "empty", 3: "full"}.get(trial % 10, "uniform")
        x, a = _random_pair(rng, d, subset=subset)
        diff, b1, b2 = check_pair(x, a, tol=TOL)
        assert diff.matched, f"d={d} A={sorted(a)}\n{diff.text()}"
        count += 1
    # the same comparison through the CLI surface
    pts = tmp_path / "pts.csv"
    sub = tmp_path / "a.txt"
    rng2 = np.random.default_rng(0xC1A)
    coords = np.unique(rng2.random((10, 2)), axis=0)
    pts.write_text("\n".join(f"{float(p[0])!r},{float(p[1])!r}" for p in coords) + "\n")
    sub.write_text("0\n3\n4\n")
    assert main(["check", str(pts), "--subset-indices", str(sub)]) == 0
    assert main(["check", str(pts)]) == 0
    inject_fault(monkeypatch)
    assert main(["check", str(pts), "--subset-indices", str(sub)]) == 3
    print(f"\nACCEPTANCE 1 pipeline-vs-oracle equivalence: PASS "
          f"({count} instances, {time.time() - t0:.1f}s)")


def test_criterion_2_s_invariance(monkeypatch):
    """Lift heights s, 2s and 4s give bit-identical complexes and barcodes
    on 50 instances."""
    t0 = time.time()
    rng = np.random.default_rng(0xC2)
    real = relative_lift.choose_s
    for trial in range(50):
        d = [1, 2, 3][trial % 3]
        x, a = _random_pair(rng, d, n_hi=10)
        x1, x2 = split_pair(x, a)
        outputs = []
        for c in (1, 2, 4):
            monkeypatch.setattr(relative_lift, "choose_s", lambda y1, y2, c=c: c * real(y1, y2))
            fc = build_pipeline(x1, x2).complex
            outputs.append((dumps(fc), barcode(fc, relative=True, max_dim=d)))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0], f"trial {trial}: s, 2s, 4s differ"
    print(f"\nACCEPTANCE 2 s-invariance: PASS (50 instances, {time.time() - t0:.1f}s)")


def test_criterion_3_embedding_certification():
    """verify_embedding passes its three checks on 100 random instances."""
    t0 = time.time()
    rng = np.random.default_rng(0xC3)
    for trial in range(100):
        d = [1, 2, 3][trial % 3]
        n1 = int(rng.integers(0, 7))
        n2 = int(rng.integers(1, 7))
        x1 = PointCloud(
            np.unique(rng.random((n1, d)), axis=0).tolist() if n1 else [], dimension=d
        )
        x2 = PointCloud(np.unique(rng.random((n2, d)), axis=0).tolist())
        pipe = build_pipeline(x1, x2)
        rep = verify_embedding(pipe.cfg, pipe.triangulation)
        assert rep.ok, f"trial {trial} d={d}:\n{rep.text()}"
    print(f"\nACCEPTANCE 3 embedding certification: PASS (100 instances, {time.time() - t0:.1f}s)")


def test_criterion_4_geometry_kernel():
    """MEB vs subset brute force on 1e4 sets; predicate signs vs exact
    rational evaluation on 1e5 cases including near-degenerate ones."""
    t0 = time.time()
    rng = random.Random(0xC4)
    for _ in range(10_000):
        d = rng.randint(1, 4)
        k = rng.randint(1, 8)
        pts = list({tuple(rng.uniform(-1, 1) for _ in range(d)) for _ in range(k)})
        _, got = smallest_enclosing_ball(pts)
        want = brute_meb_radius(pts, d)
        assert abs(got - want) <= 1e-9 * (1.0 + want), (pts, got, want)
    n_meb = 10_000

    def scaled(pts):
        """The points times D, the largest denominator of their coordinates
        (a power of two), as Python ints.  Scaling the coordinate columns
        by D and the lift column by D^2 multiplies each determinant by a
        positive constant, so its sign is the rational one."""
        ratios = [[c.as_integer_ratio() for c in p] for p in pts]
        den = max(d for p in ratios for _, d in p)
        return [[n * (den // d) for n, d in p] for p in ratios]

    def oracle_orientation(pts):
        m = len(pts[0])
        h = minor_expansion_det([p + [1] for p in scaled(pts)])
        s = (h > 0) - (h < 0)
        return -s if m % 2 else s

    def oracle_in_sphere(pts, q):
        m = len(q)
        rows = [p + [sum(c * c for c in p), 1] for p in scaled(list(pts) + [q])]
        ell = minor_expansion_det(rows)
        s = (ell > 0) - (ell < 0)
        return s * oracle_orientation(pts) * (1 if m % 2 == 0 else -1)

    def nudge(x, k):
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        return x

    checked = 0
    for case in range(60_000):
        mode = case % 3
        if mode == 0:  # random floats
            m = rng.randint(1, 4)
            pts = [tuple(rng.uniform(-2, 2) for _ in range(m)) for _ in range(m + 1)]
        elif mode == 1:  # integer coordinates up to 2^20
            m = rng.randint(1, 3)
            pts = [
                tuple(float(rng.randint(-(2**20), 2**20)) for _ in range(m))
                for _ in range(m + 1)
            ]
        else:  # nearly affinely dependent: convex combination nudged by ulps
            m = rng.randint(2, 3)
            base = [tuple(rng.uniform(-2, 2) for _ in range(m)) for _ in range(m)]
            lam = rng.random()
            mix = tuple(lam * a + (1 - lam) * b for a, b in zip(base[0], base[1]))
            mix = tuple(nudge(x, rng.randint(-2, 2)) for x in mix)
            pts = base + [mix]
        assert orientation(pts) == oracle_orientation(pts)
        checked += 1
    for case in range(40_500):
        mode = case % 2
        m = rng.randint(1, 3)
        if mode == 0:
            pts = [tuple(rng.uniform(-2, 2) for _ in range(m)) for _ in range(m + 1)]
            q = tuple(rng.uniform(-2, 2) for _ in range(m))
        else:  # query close to the circumsphere of an integer simplex
            pts = [
                tuple(float(rng.randint(-64, 64)) for _ in range(m))
                for _ in range(m + 1)
            ]
            q = tuple(nudge(float(rng.randint(-64, 64)), rng.randint(-2, 2)) for _ in range(m))
        if oracle_orientation(pts) == 0:
            continue
        assert in_sphere(pts, q) == oracle_in_sphere(pts, q)
        checked += 1
    assert checked >= 100_000
    print(f"\nACCEPTANCE 4 geometry kernel: PASS ({n_meb} MEB sets, "
          f"{checked} predicate cases, {time.time() - t0:.1f}s)")


def test_criterion_5_delaunay_empty_circumsphere():
    """Brute-force empty-circumsphere check on 200 random clouds."""
    t0 = time.time()
    rng = np.random.default_rng(0xC5)
    for trial in range(200):
        m = [1, 2, 2, 3, 3, 4][trial % 6]
        n_hi = {1: 50, 2: 50, 3: 40, 4: 25}[m]
        n = int(rng.integers(m + 2, n_hi + 1))
        pts = np.unique(rng.random((n, m)), axis=0)
        cloud = PointCloud(pts.tolist())
        t = delaunay(cloud)
        for top, queries, signs in insphere_signs(cloud, t.tops):
            assert len(signs) == len(queries)
            assert all(s <= 0 for s in signs)
    print(f"\nACCEPTANCE 5 delaunay empty circumsphere: PASS (200 clouds, {time.time() - t0:.1f}s)")


def test_criterion_6_known_topology():
    """(a) annulus has one dominant H1 bar; (b) and (c) exact barcodes."""
    t0 = time.time()
    # (a) 40 points on an annulus, absolute persistence
    rng = np.random.default_rng(0xC6)
    r = np.sqrt(rng.uniform(1.0, 1.2**2, 40))
    theta = rng.uniform(0, 2 * math.pi, 40)
    ring = PointCloud(np.column_stack([r * np.cos(theta), r * np.sin(theta)]).tolist())
    fc = build_pipeline(PointCloud([], dimension=2), ring).complex
    b = barcode(fc, relative=True, max_dim=2)
    h1 = sorted((d - bb for bb, d in b.bars(1) if not math.isinf(d)), reverse=True)
    assert h1, "no H1 bars at all"
    if len(h1) > 1:
        assert h1[0] >= 3 * h1[1], f"dominant {h1[0]} vs next {h1[1]}"
    # (b) X = {0,1,2} in R^1 relative to {0,2}
    x1 = PointCloud([(0.0,), (2.0,)])
    x2 = PointCloud([(1.0,)])
    b = barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=1)
    assert b.bars(0) == [(0.0, 0.5)]
    assert b.bars(1) == [(0.5, 1.0)]
    # (c) X = {(0,0),(2,0)} relative to the first point
    b = barcode(
        build_pipeline(PointCloud([(0.0, 0.0)]), PointCloud([(2.0, 0.0)])).complex,
        relative=True,
        max_dim=2,
    )
    assert b.bars(0) == [(0.0, 1.0)]
    assert b.bars(1) == [] and b.bars(2) == []
    print(f"\nACCEPTANCE 6 known topology: PASS ({time.time() - t0:.1f}s)")


def test_criterion_7_size_scaling_report(tmp_path, capsys):
    """bench on uniform-box d=2 up to n=2000: completes, monotone counts,
    fitted growth exponent reported.  No hard threshold on the exponent."""
    t0 = time.time()
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--sizes", "100,200,500,1000,2000", "--dim", "2", "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fitted growth exponent" in printed
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("n_total")
    cells = [int(r.split(",")[2]) for r in rows[1:]]
    ns = [int(r.split(",")[0]) for r in rows[1:]]
    assert ns == [100, 200, 500, 1000, 2000]
    assert cells == sorted(cells), "cell counts not monotone"
    elapsed = time.time() - t0
    exponent = printed.strip().rsplit(" ", 1)[-1]
    print(f"\nACCEPTANCE 7 size/scaling report: PASS "
          f"(exponent {exponent}, {elapsed:.1f}s)")


def test_criterion_8_persistence_self_consistency():
    """Shuffle invariance, Euler consistency and the rank oracle on 100
    random filtered complexes with at most 200 cells."""
    t0 = time.time()
    rng = np.random.default_rng(0xC8)
    pyrng = random.Random(0xC8)
    for trial in range(100):
        d = [1, 2, 2, 3][trial % 4]
        n = int(rng.integers(2, 9))
        pts = np.unique(rng.random((n, d)), axis=0)
        x = PointCloud(pts.tolist())
        n = len(x)
        a = {i for i in range(n) if rng.random() < 0.4}
        c = relative_cech(x, a, min(d + 1, 3))
        assert len(c) <= 200
        relative = bool(rng.integers(0, 2))
        max_dim = 2
        b = barcode(c, relative=relative, max_dim=max_dim)
        values = sorted({cell.value for cell in c.cells})
        top = values[-1] if values else 1.0
        ts = [float(v) for v in rng.uniform(0, top * 1.05, size=44)] + values[-6:]
        # rank oracle at 50 scales
        for t in ts:
            expected = betti_at(c, relative, t, max_dim)
            for k in range(max_dim + 1):
                assert b.betti(k, t) == expected[k], (trial, k, t)
        # Euler consistency (absolute mode)
        b_abs = barcode(c, relative=False, max_dim=3)
        for t in ts[:10]:
            chi = sum((-1) ** k * b_abs.betti(k, t) for k in range(4))
            assert chi == c.euler_characteristic(t)
        # shuffle invariance within equal-value blocks
        order = c.canonical_order()
        blocks: dict = {}
        for i in order:
            cell = c.cells[i]
            key = (not cell.in_subcomplex, cell.value, cell.simplex.dim)
            blocks.setdefault(key, []).append(i)
        shuffled = []
        for key in sorted(blocks):
            blk = blocks[key]
            pyrng.shuffle(blk)
            shuffled.extend(blk)
        assert barcode(c, relative=relative, max_dim=max_dim, order=shuffled) == b
    print(f"\nACCEPTANCE 8 persistence self-consistency: PASS (100 complexes, {time.time() - t0:.1f}s)")
