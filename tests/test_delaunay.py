import functools
import importlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from _faults import certify_nothing
from _oracles import Orientation, exact_range_reference, insphere_signs

from reldelcech.cli import generate_cloud
from reldelcech.delaunay import Triangulation, delaunay, face_tables
from reldelcech.filtered_complex import Simplex
from reldelcech.geometry import InputError, PointCloud
from reldelcech.predicates import det_sign_exact, sos_sign
from reldelcech.relative_lift import build_pipeline, lift


def random_cloud(rng, n, d, low=0.0, high=1.0):
    pts = np.unique(low + (high - low) * rng.random((n, d)), axis=0)
    return PointCloud(pts.tolist())


def rows(a) -> list[tuple[int, ...]]:
    """The rows of an int array as vertex tuples."""
    return list(map(tuple, a.tolist()))


def sides(space, verts, queries) -> list[int]:
    """The perturbed orientation sign of (verts..., q) for each query q:
    one `_perturbed_signs` call with the one facet `verts`, sorted."""
    mod = importlib.import_module("reldelcech.delaunay")
    queries = np.array(queries, dtype=np.int64)
    return mod._perturbed_signs(space, np.array([verts]), np.zeros(len(queries), dtype=np.int64), queries).tolist()


def int_space(rows):
    """The `_HullSpace` of integer rows taken as they are, the last column
    as the lift: the float rows equal them, and the exact-range flag is
    `_exact_range`'s for rows that need no shift."""
    mod = importlib.import_module("reldelcech.delaunay")
    ints = [(*r, 1) for r in rows]
    return mod._HullSpace(np.array(rows, dtype=float), ints, np.full(len(rows), mod._exact_range(ints, 0)))


class TestSimplex:
    def test_ordering_enforced(self):
        with pytest.raises(InputError):
            Simplex((2, 1))
        with pytest.raises(InputError):
            Simplex((1, 1))
        with pytest.raises(InputError):
            Simplex(())

    def test_boundary_and_faces(self):
        s = Simplex((0, 2, 5))
        assert [f.vertices for f in s.boundary()] == [(0, 2), (0, 5), (2, 5)]
        assert s.dim == 2
        assert Simplex((3,)).boundary() == []

    def test_boundary_equals_validated_faces(self):
        # boundary() wraps its faces unchecked; they must be the simplices
        # that validation builds, in lexicographic order.
        rng = np.random.default_rng(75)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            s = Simplex(sorted(rng.choice(40, size=k, replace=False).tolist()))
            got = s.boundary()
            vs = s.vertices
            want = sorted(Simplex(vs[:i] + vs[i + 1 :]) for i in range(k)) if k > 1 else []
            assert got == want
            assert [hash(f) for f in got] == [hash(f) for f in want]


class TestSmallClouds:
    def test_single_point(self):
        t = delaunay(PointCloud([(1.0, 2.0)]))
        assert rows(t.tops) == [(0,)]
        assert t.top_dim == 0

    def test_two_points(self):
        t = delaunay(PointCloud([(0.0,), (1.0,)]))
        assert rows(t.tops) == [(0, 1)]

    def test_triangle(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1)]))
        assert rows(t.tops) == [(0, 1, 2)]
        assert len(t.tables[1].simplices) == 3
        assert len(t.tables[0].simplices) == 3

    def test_unit_square_cocircular(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert len(t.tops) == 2
        assert len(t.tables[1].simplices) == 5
        assert len(t.tables[0].simplices) == 4
        # the shared edge is one of the two diagonals
        edges = set(rows(t.tables[1].simplices))
        assert ((0, 3) in edges) != ((1, 2) in edges)

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError):
            delaunay(PointCloud([], dimension=2))

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            delaunay(PointCloud([tuple(float(i == j) for j in range(6)) for i in range(7)]))


class TestDegenerate:
    def test_collinear_in_plane(self):
        t = delaunay(PointCloud([(0, 0), (1, 1), (2, 2), (3, 3)]))
        assert t.top_dim == 1
        assert rows(t.tops) == [(0, 1), (1, 2), (2, 3)]

    def test_collinear_unordered_input(self):
        t = delaunay(PointCloud([(2, 2), (0, 0), (3, 3), (1, 1)]))
        # path along the line in coordinate order: 1-3-0-2
        assert set(rows(t.tops)) == {(1, 3), (0, 3), (0, 2)}

    def test_coplanar_in_3d(self):
        pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.2, 1.0)]
        t = delaunay(PointCloud(pts))
        assert t.top_dim == 2 and t.tops.shape[1] == 3
        assert set(t.tops.ravel().tolist()) == set(range(5))

    def test_cube_cospherical(self):
        pts = [(float(i), float(j), float(k)) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        t = delaunay(PointCloud(pts))
        assert t.top_dim == 3
        assert len(t.tops) in (5, 6)  # any triangulation of the cube
        _assert_empty_circumspheres(t)

    def test_grid_many_cocircularities(self):
        pts = [(float(i), float(j)) for i in range(4) for j in range(4)]
        t = delaunay(PointCloud(pts))
        assert len(t.tops) == 18  # 9 unit squares, 2 triangles each
        _assert_empty_circumspheres(t)

    @pytest.mark.parametrize("name", ["grid3x4", "ring"])
    def test_ties_do_not_depend_on_coordinates(self, name):
        # Ties are broken by the lift heights first, so a cocircular cloud
        # has the same tops when translated, or copied into a coordinate
        # plane of R^3 (pivot columns of a flat cloud), either way round.
        pts = _RING if name == "ring" else [(float(i), float(j)) for i in range(3) for j in range(4)]
        want = delaunay(PointCloud(pts)).tops
        copies = [[(x + dx, y + dy) for x, y in pts] for dx, dy in ((3.0, -7.5), (-1.25, 2.0))]
        for axes in ((0, 1), (0, 2), (1, 2), (2, 0)):
            for shift in ((0.0, 0.0, 0.0), (0.5, -2.25, 3.0)):
                copy = []
                for p in pts:
                    q = list(shift)
                    q[axes[0]] += p[0]
                    q[axes[1]] += p[1]
                    copy.append(tuple(q))
                copies.append(copy)
        for copy in copies:
            assert np.array_equal(delaunay(PointCloud(copy)).tops, want), copy[:2]


def _assert_empty_circumspheres(t):
    for top, queries, signs in insphere_signs(t.cloud, t.tops):
        assert len(signs) == len(queries)
        for q, s in zip(queries, signs):
            assert s <= 0, (top, q)


class TestRandomClouds:
    def test_empty_circumsphere_twenty_points_seed42(self):
        rng = np.random.default_rng(42)
        cloud = random_cloud(rng, 20, 2)
        t = delaunay(cloud)
        _assert_empty_circumspheres(t)

    @pytest.mark.parametrize("d,n", [(1, 30), (2, 25), (3, 18), (4, 12)])
    def test_empty_circumsphere_random(self, d, n):
        rng = np.random.default_rng(100 + d)
        t = delaunay(random_cloud(rng, n, d))
        _assert_empty_circumspheres(t)

    def test_hull_coverage(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 18, 2)
        t = delaunay(cloud)
        arr = cloud.coords
        # random convex combinations of the cloud lie in some top triangle
        for _ in range(1000):
            w = rng.dirichlet(np.ones(len(cloud)))
            q = w @ arr
            found = False
            for top in t.tops:
                tri = arr[top]
                a = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
                try:
                    uv = np.linalg.solve(a, q - tri[0])
                except np.linalg.LinAlgError:
                    continue
                if uv.min() >= -1e-9 and uv.sum() <= 1 + 1e-9:
                    found = True
                    break
            assert found, q

    def test_euler_characteristic_convex_2d(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            t = delaunay(random_cloud(rng, 12 + trial, 2))
            v, e, f = (len(table.simplices) for table in t.tables)
            assert v - e + f == 1

    def test_determinism_and_seed_independence(self, monkeypatch):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 30, 2)
        t1 = delaunay(cloud)
        t2 = delaunay(cloud)
        assert np.array_equal(t1.tops, t2.tops)
        monkeypatch.setattr(importlib.import_module("reldelcech.delaunay"), "_HULL_SEED", 12345)
        t3 = delaunay(cloud)
        # insertion order changes, the triangulation must not
        assert np.array_equal(t3.tops, t1.tops)


class TestFaces:
    def test_faces_of_triangle(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1)]))
        assert rows(t.tables[1].simplices) == [(0, 1), (0, 2), (1, 2)]
        assert rows(t.tables[0].simplices) == [(0,), (1,), (2,)]

    def test_faces_square(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert len(t.tables[1].simplices) == 5

    def test_duplicated_top_raises(self):
        # `face_tables` would drop the repeated row without a word.
        t = delaunay(random_cloud(np.random.default_rng(18), 10, 2))
        with pytest.raises(AssertionError, match=r"top \(\d+, \d+, \d+\) is given twice"):
            Triangulation(t.cloud, np.vstack([t.tops, t.tops[:1]]))

    @pytest.mark.parametrize("low", [1 << 16, (1 << 62) - 64])
    def test_face_tables_on_large_vertex_indices(self, low):
        # 5-vertex tops on indices >= 2^16: a mixed-radix key of the rows
        # would need N^5 >= 2^80.  Every table must still be the sorted
        # distinct faces, and every facet row the face without vertex i.
        rng = np.random.default_rng(92)
        verts = low + np.sort(rng.choice(60, size=9, replace=False))
        tops = np.array([np.sort(rng.choice(verts, size=5, replace=False)) for _ in range(25)])
        tables = face_tables(tops[::-1])
        assert len(tables) == 5
        for k, (rows, facets) in enumerate(tables):
            want = sorted({f for t in tops.tolist() for f in itertools.combinations(t, k + 1)})
            assert [tuple(r) for r in rows.tolist()] == want
            assert rows.dtype == facets.dtype == np.int64
            assert facets.shape == (len(want), k + 1 if k else 0)
            for r, vs in enumerate(want):
                for i in range(k + 1 if k else 0):
                    assert tuple(tables[k - 1].simplices[facets[r, i]].tolist()) == vs[:i] + vs[i + 1 :]

    def test_downward_closure_unique(self):
        rng = np.random.default_rng(17)
        t = delaunay(random_cloud(rng, 14, 3))
        faces = [rows(table.simplices) for table in t.tables]
        for d, simps in enumerate(faces):
            assert len(simps) == len(set(simps))
            assert {len(s) for s in simps} == {d + 1}
        # closure: every boundary face of every simplex is present
        for lower, simps in zip(faces, faces[1:]):
            for s in simps:
                for i in range(len(s)):
                    assert s[:i] + s[i + 1 :] in set(lower)


# -- exact integer coordinates of the lifted hull ----------------------------


def rational_hull_rows(pts):
    """Reference lifted rows over Fractions: the cloud's pivot columns (of
    a row echelon form of the differences p_i - p_0), in column order, and
    |x|^2; homogeneous 1 last.  All columns are pivots of a full-rank
    cloud."""
    q = [[Fraction(x) for x in p] for p in pts]
    m = len(q[0])
    echelon = []
    for p in q[1:]:
        w = [a - b for a, b in zip(p, q[0])]
        for col, e in echelon:
            f = w[col] / e[col]
            w = [a - f * b for a, b in zip(w, e)]
        pivot = next((c for c in range(m) if w[c]), None)
        if pivot is not None:
            echelon.append((pivot, w))
    cols = sorted(col for col, _ in echelon)
    return [[p[c] for c in cols] + [sum(x * x for x in p), Fraction(1)] for p in q]


def hull_test_clouds():
    rng = np.random.default_rng(71)
    out = []
    for m in (1, 2, 3):  # full-rank, random scales
        for e in (-140, -20, 0, 30, 60):
            out.append((rng.random((9, m)) * 2.0**e).tolist())
    out.append([[float(i), float(j)] for i in range(4) for j in range(3)])  # integer grid
    out.append([[float(i), float(j), float(k)] for i in range(3) for j in range(2) for k in range(2)])
    for e in (-60, 0, 40):  # collinear in R^2 and R^3, coplanar in R^3
        s = 2.0**e
        base, d1, d2 = rng.random(3) * s, rng.integers(-3, 4, 3) * s / 8, rng.integers(-3, 4, 3) * s / 8
        t = rng.permutation(np.arange(-5, 6))[:7]
        out.append([(base[:2] + k * d1[:2]).tolist() for k in t])
        out.append([(base + k * d1).tolist() for k in t])
        ab = [(a, b) for a in range(-2, 3) for b in range(-2, 3)][:9]
        out.append([(base + a * d1 + b * d2).tolist() for a, b in ab])
    # mixed magnitudes: 1e-120 and 1e60 columns, and both within one column
    out.append(np.column_stack([rng.random(8) * 1e-120, rng.random(8) * 1e60]).tolist())
    out.append([[1e-120 * i + 1e60 * j] for i, j in itertools.product(range(1, 4), range(3))])
    out.append([[1e-120 * i, 1e60 * i] for i in range(1, 6)])  # collinear
    return [list({tuple(p): None for p in c}) for c in out]


_SIDES_RNG = np.random.default_rng(73)
# A 4x4 grid translated to 1e5 with spacing 2^-10: cocircular subsets, and
# lifts (~2e10) that the float rows round.
_FAR_GRID = [[1e5 + (i + 0.5) / 1024, 1e5 + (j + 0.25) / 1024] for i in range(4) for j in range(4)]
# Clouds for `sides`: random full-rank ones, integer grids (exact
# cospherical ties), mixed magnitudes, by column and by point, and clouds
# far from the origin, whose float lifts round by more than their edges:
# a full-precision ring of radius 2^30 about the origin and _FAR_GRID.
SIDES_CLOUDS = {
    "uniform2d": _SIDES_RNG.random((15, 2)).tolist(),
    "uniform3d": _SIDES_RNG.random((15, 3)).tolist(),
    "grid2d": [[float(i), float(j)] for i in range(4) for j in range(4)],
    "grid3d": [[float(i), float(j), float(k)] for i in range(3) for j in range(3) for k in range(2)],
    "mixed_columns": np.column_stack([_SIDES_RNG.random(15) * 1e-120, _SIDES_RNG.random(15) * 1e60]).tolist(),
    "mixed_points": (_SIDES_RNG.random((15, 2)) * _SIDES_RNG.choice([1e-120, 1e60], (15, 1))).tolist(),
    "far_ring": [[2.0**30 * math.cos(t), 2.0**30 * math.sin(t)] for t in _SIDES_RNG.random(15) * 2 * math.pi],
    "far_grid": _FAR_GRID,
}

_RING = [(5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0)]
_RING += [(a * x, b * y) for x, y in ((3.0, 4.0), (4.0, 3.0)) for a in (-1, 1) for b in (-1, 1)]
_SLAB_RNG = np.random.default_rng(76)
_T = _SLAB_RNG.random(11)
# Pairs (X1, X2) for the same-slab ties of `sides`: general position; X1
# cospherical, where the tie minor is 0 (and the centred ring, whose lift
# column is constant too), also far from the origin; and a collinear X,
# whose Z is flat.
SLAB_PAIRS = {
    "uniform2d": (_SLAB_RNG.random((9, 2)).tolist(), _SLAB_RNG.random((7, 2)).tolist()),
    "uniform3d": (_SLAB_RNG.random((9, 3)).tolist(), _SLAB_RNG.random((7, 3)).tolist()),
    "ring": (_RING, (_SLAB_RNG.random((6, 2)) * 12 - 6).tolist()),
    "ring_shifted": ([(x + 2.0, y + 1.0) for x, y in _RING], (_SLAB_RNG.random((6, 2)) * 12 - 6).tolist()),
    "grid4x4": ([[float(i), float(j)] for i in range(4) for j in range(4)], (_SLAB_RNG.random((6, 2)) * 3).tolist()),
    "grid_far": (_FAR_GRID, (1e5 + _SLAB_RNG.random((6, 2)) / 256).tolist()),
    "collinear": ([(t, 2 * t) for t in _T[:6]], [(t, 2 * t) for t in _T[6:]]),
}


class TestHullSpace:
    @pytest.mark.parametrize("pts", hull_test_clouds())
    def test_rows_match_rational_reference(self, pts):
        ref = rational_hull_rows(pts)
        rank, space = importlib.import_module("reldelcech.delaunay")._hull_space(PointCloud(pts))
        assert rank == len(ref[0]) - 2
        # Float rows: the correctly rounded rationals, bit for bit.
        want = [tuple(float(x).hex() for x in row[:-1]) for row in ref]
        assert [tuple(x.hex() for x in row) for row in space.rows.tolist()] == want
        # Integer rows: each column a positive multiple of the reference.
        for c in range(rank + 2):
            col = [row[c] for row in ref]
            got = [row[c] for row in space.int_rows]
            nonzero = [i for i, x in enumerate(col) if x]
            assert all(got[i] == 0 for i, x in enumerate(col) if not x)
            if nonzero:
                lam = Fraction(got[nonzero[0]]) / col[nonzero[0]]
                assert lam > 0
                assert all(got[i] == lam * col[i] for i in nonzero)

    def test_one_float_filter_per_test(self, monkeypatch):
        # Each visibility test of the hull is one entry of one kernel call
        # over the full rows (`_orient_batch`, via `_perturbed_signs`), and
        # the first simplex takes its orientation from the first
        # `_perturbed_signs` call, itself one entry; every other inside sign
        # follows by parity (`_Hull`).  The entries that the kernel cannot
        # certify, here the same-slab ties of a lifted pair (random floats
        # are outside the exact range), take one tie minor each, all of one
        # round in one `_minors` call.  The vertical tests of the final
        # facets run in one more batch, and only what it cannot certify
        # goes to `infdown_sign`, once each; that runs filtered_det_sign,
        # except on the structural zeros: a facet with a constant
        # coordinate column below the lift column is vertical without a
        # determinant.
        mod = importlib.import_module("reldelcech.delaunay")
        batches, minors, perturbed, vertical, filters = [], [], [], [], []
        real_batch, real_minors, real_perturbed = mod._orient_batch, mod._minors, mod._perturbed_signs
        real_vertical, real_filter = mod._HullSpace.infdown_sign, mod.filtered_det_sign

        def batch(rows, size, simplices, which, queries):
            signs, values = real_batch(rows, size, simplices, which, queries)
            batches.append((rows.shape[1], simplices[which].tolist(), queries.tolist(), signs.tolist()))
            return signs, values

        def minor(space, pts, drop):
            minors.append((len(batches), pts.tolist(), drop.tolist()))
            return real_minors(space, pts, drop)

        monkeypatch.setattr(mod, "_orient_batch", batch)
        monkeypatch.setattr(mod, "_minors", minor)
        monkeypatch.setattr(mod, "_perturbed_signs", lambda sp, vs, w, qs: perturbed.append((vs[w].tolist(), qs.tolist())) or real_perturbed(sp, vs, w, qs))
        monkeypatch.setattr(mod._HullSpace, "infdown_sign", lambda sp, verts: vertical.append(verts) or real_vertical(sp, verts))
        monkeypatch.setattr(mod, "filtered_det_sign", lambda rows: filters.append(rows) or real_filter(rows))
        x = np.random.default_rng(72).random((40, 2)).tolist()
        z = lift(PointCloud(x[:10]), PointCloud(x[10:]), 1.0).z
        delaunay(z)
        p = 4  # the hull of a lifted planar pair lives in R^4
        assert perturbed[0] == ([[0, 1, 2, 3]], [4])
        *hull, down = batches
        assert down[0] == p - 1
        at_minors = {at for at, *_ in minors}
        assert [k for k, *_ in hull] == [p - 1 if i in at_minors else p for i in range(len(hull))]
        full = [b for b in hull if b[0] == p]
        assert full[0][1:3] == ([[0, 1, 2, 3]], [4]) and len(perturbed) == len(full)
        tests = [(tuple(f), q, s) for _, fs, qs, ss in full for f, q, s in zip(fs, qs, ss)]
        assert len({(f, q) for f, q, _ in tests}) == len(tests)
        # Each `_minors` call follows the full call whose entries it
        # resolves: one tie minor per uncertified entry, every one a tie.
        assert minors and len(minors) == len(hull) - len(full)
        for at, pts, drop in minors:
            _, fs, qs, ss = batches[at - 1]
            unsure = [(f, q) for f, q, s in zip(fs, qs, ss) if s == 0]
            assert len(pts) == len(unsure) and set(drop) == {2}  # the height column
            for f, q in unsure:
                assert len({v < 10 for v in f + [q]}) == 1  # inside one slab
        _, fs, qs, ss = down
        assert vertical == [(*f, q) for f, q, s in zip(fs, qs, ss) if s == 0]
        _, space = mod._hull_space(z)
        zeros = [v for v in vertical if any(len({space.int_rows[u][c] for u in v}) == 1 for c in range(p - 1))]
        assert zeros and len(filters) == len(vertical) - len(zeros)

    def test_hull_rounds_are_few(self, monkeypatch):
        # The rounds are O(log n) deep with high probability: 54 kernel
        # calls for these 2000 points, the vertical batch included.
        mod = importlib.import_module("reldelcech.delaunay")
        calls = []
        real = mod._orient_batch
        monkeypatch.setattr(mod, "_orient_batch", lambda *args: calls.append(1) or real(*args))
        delaunay(PointCloud(np.random.default_rng(93).random((2000, 2)).tolist()))
        assert len(calls) <= 150

    def test_one_expansion_per_orientation(self, monkeypatch):
        # Every orientation test of a run is an entry of one kernel call,
        # which gets all cofactors of all its simplices from one
        # `batch_cofactors` expansion, not one evaluation per column or
        # per query; so does the float guess of all seeds of the wrap
        # (`_Wrap.seed`); the scalar reference `Orientation` gets its own
        # from one `cofactors` call, and the run path has none.
        mod = importlib.import_module("reldelcech.delaunay")
        oracles = importlib.import_module("_oracles")
        assert not hasattr(mod, "cofactors")
        counts = {"cofactors": 0, "batch_cofactors": 0, "kernel": 0, "seed": 0}
        real_cofactors, real_batch_cofactors, real_kernel = oracles.cofactors, mod.batch_cofactors, mod._orient_batch

        def counting(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(oracles, "cofactors", counting("cofactors", real_cofactors))
        monkeypatch.setattr(mod, "batch_cofactors", counting("batch_cofactors", real_batch_cofactors))
        monkeypatch.setattr(mod, "_orient_batch", counting("kernel", real_kernel))
        monkeypatch.setattr(mod._Wrap, "seed", counting("seed", mod._Wrap.seed))
        rng = np.random.default_rng(76)
        for n, d in [(40, 2), (24, 3)]:
            x = rng.random((n, d)).tolist()
            build_pipeline(PointCloud(x[: n // 4]), PointCloud(x[n // 4 :]))
        assert counts["kernel"] > 0 and counts["seed"] == 2
        assert counts["batch_cofactors"] == counts["kernel"] + counts["seed"] and counts["cofactors"] == 0
        for k in (2, 3, 4):
            Orientation([tuple(row) for row in rng.random((k, k)).tolist()], 1.0)
        assert counts["cofactors"] == 3

    @pytest.mark.parametrize("name", sorted(SIDES_CLOUDS))
    def test_sides_match_sos_sign(self, name, monkeypatch):
        # Each sign of `sides` is the homogeneous sos_sign of the integer
        # rows: whether a float filter certified it or not.  Tuples within
        # one slab have a constant height column, so their queries in that
        # slab are exact ties: the tie path's minor or sos_sign decides.
        mod = importlib.import_module("reldelcech.delaunay")
        pts = SIDES_CLOUDS[name]
        n1 = len(pts) // 3
        z = lift(PointCloud(pts[:n1]), PointCloud(pts[n1:]), 1.0).z
        decided, ties, total = set(), set(), 0

        def recording(rows, ranks):
            decided.add(tuple(ranks))
            return sos_sign(rows, ranks)

        monkeypatch.setattr(mod, "sos_sign", recording)
        for cloud in (PointCloud(pts), z):
            rank, space = mod._hull_space(cloud)
            p = space.P
            assert rank == cloud.dimension and p == rank + 1
            rng = np.random.default_rng(75)
            tuples = [tuple(sorted(rng.choice(len(cloud), p, replace=False).tolist())) for _ in range(25)]
            if cloud is z:
                for slab in (range(n1), range(n1, len(pts))):
                    tuples += [tuple(sorted(rng.choice(slab, p, replace=False).tolist())) for _ in range(10)]
            for verts in tuples:
                queries = [q for q in range(len(cloud)) if q not in verts]
                rows = [space.int_rows[v] for v in verts]
                want = [sos_sign(rows + [space.int_rows[q]], list(verts) + [q]) for q in queries]
                assert sides(space, verts, queries) == want, (verts, queries)
                total += len(queries)
                if cloud is z and len({v < n1 for v in verts}) == 1:
                    ties.update(verts + (q,) for q in queries if (q < n1) == (verts[0] < n1))
        assert ties
        if name.startswith("uniform"):
            # The tie path decided every tie.
            assert ties.isdisjoint(decided)
        else:
            # Cospherical grid ties (zero minors) reach sos_sign, and so do
            # the 1e60 clouds, whose lifts put the float error bound beyond
            # the float range, and the far clouds, whose rows' own rounding
            # is larger than their determinants.
            assert decided
        # The filters certified signs too, except for those clouds.
        if not name.startswith(("mixed", "far")):
            assert len(decided) < total

    @pytest.mark.parametrize("name", sorted(SLAB_PAIRS))
    def test_slab_ties_match_sos_sign(self, name, monkeypatch):
        # A facet inside one slab against a query of that slab: SoS replaces
        # the lowest-ranked row by the unit row of the height column, so the
        # sign is a lower-dimensional minor, with one parity when the facet
        # holds that row and another when the query does.  Where the minor
        # is 0 (cospherical X1), sos_sign decides.
        mod = importlib.import_module("reldelcech.delaunay")
        x1, x2 = SLAB_PAIRS[name]
        z = lift(PointCloud(x1), PointCloud(x2), 1.0).z
        rank, space = mod._hull_space(z)
        assert rank == (2 if name == "collinear" else z.dimension)
        calls = []
        monkeypatch.setattr(mod, "sos_sign", lambda rows, ranks: calls.append(1) or sos_sign(rows, ranks))
        rng = np.random.default_rng(77)
        below = above = 0
        for slab in (range(len(x1)), range(len(x1), len(z))):
            for _ in range(12):
                verts = tuple(sorted(rng.choice(slab, space.P, replace=False).tolist()))
                queries = [q for q in slab if q not in verts]
                rows = [space.int_rows[v] for v in verts]
                want = [sos_sign(rows + [space.int_rows[q]], list(verts) + [q]) for q in queries]
                assert sides(space, verts, queries) == want, (verts, queries)
                below += sum(q < verts[0] for q in queries)
                above += sum(q > verts[0] for q in queries)
        assert below > 0 and above > 0
        if name.startswith(("ring", "grid")):
            assert calls
        else:
            assert calls == []

    def test_random_pair_needs_no_sos_sign(self, monkeypatch):
        # The pair of `test_one_float_filter_per_test`: the filters decide
        # every test, same-slab ties included.
        mod = importlib.import_module("reldelcech.delaunay")
        calls = []
        monkeypatch.setattr(mod, "sos_sign", lambda rows, ranks: calls.append(1) or sos_sign(rows, ranks))
        x = np.random.default_rng(72).random((40, 2)).tolist()
        delaunay(lift(PointCloud(x[:10]), PointCloud(x[10:]), 1.0).z)
        assert calls == []

    def test_clouds_cover_every_rank(self):
        ranks = {len(rational_hull_rows(pts)[0]) - 2 for pts in hull_test_clouds()}
        dims = {len(pts[0]) - (len(rational_hull_rows(pts)[0]) - 2) for pts in hull_test_clouds()}
        assert ranks == {1, 2, 3} and dims == {0, 1, 2}


def _grid(*shape):
    return [[float(c) for c in p] for p in itertools.product(*(range(k) for k in shape))]


def _hull_clouds():
    """Clouds for the lifted hull's inside signs: random full-rank ones,
    lifted random pairs, and lifted grid pairs (cospherical ties): the 3x4
    repro with A = {0, 4, 5, 6}, and 12x12 and 4x4x4 grids with half of
    the points in A."""
    rng = np.random.default_rng(78)
    u2, u3 = rng.random((30, 2)).tolist(), rng.random((20, 3)).tolist()
    clouds = {"uniform2d": PointCloud(u2), "uniform3d": PointCloud(u3)}
    clouds["pair2d"] = lift(PointCloud(u2[:8]), PointCloud(u2[8:]), 1.0).z
    clouds["pair3d"] = lift(PointCloud(u3[:5]), PointCloud(u3[5:]), 1.0).z
    for name, pts, a in [
        ("repro", _grid(3, 4), {0, 4, 5, 6}),
        ("grid12x12", _grid(12, 12), set(rng.choice(144, 72, replace=False).tolist())),
        ("grid4x4x4", _grid(4, 4, 4), set(rng.choice(64, 32, replace=False).tolist())),
    ]:
        x1 = PointCloud([p for i, p in enumerate(pts) if i in a])
        x2 = PointCloud([p for i, p in enumerate(pts) if i not in a])
        clouds[name] = lift(x1, x2, 1.0).z
    return clouds


HULL_CLOUDS = _hull_clouds()


class TestHullOrientation:
    @pytest.mark.parametrize("name", sorted(HULL_CLOUDS))
    def test_inside_signs_match_sides(self, name, monkeypatch):
        # Only the first simplex's orientation is tested; every other
        # inside sign follows by row parity (`_Hull`).  Each final facet
        # must still have every hull vertex off it on its inside.
        mod = importlib.import_module("reldelcech.delaunay")
        hulls = []
        real = mod._Hull
        monkeypatch.setattr(mod, "_Hull", lambda space, order: hulls.append(real(space, order)) or hulls[-1])
        delaunay(HULL_CLOUDS[name])
        (hull,) = hulls
        on_hull = sorted(set(hull.facets.ravel().tolist()))
        for verts, inside in zip(rows(hull.facets), hull.inside_signs.tolist()):
            off = [v for v in on_hull if v not in verts]
            assert sides(hull.space, verts, off) == [inside] * len(off), verts

    def test_vertical_sign_matches_direction_row_determinant(self, monkeypatch):
        # infdown_sign is the projected facet's orientation: the exact sign
        # of the facet's rows with the direction row (-e_lift, 0) appended,
        # on random facets, flat single-slab facets (0) and facets far
        # from the origin, whether the filter or the exact path decides.
        mod = importlib.import_module("reldelcech.delaunay")
        exact = []
        monkeypatch.setattr(mod, "det_sign_exact", lambda rows: exact.append(1) or det_sign_exact(rows))
        rng = np.random.default_rng(80)
        signs = set()
        for x1, x2 in SLAB_PAIRS.values():
            z = lift(PointCloud(x1), PointCloud(x2), 1.0).z
            _, space = mod._hull_space(z)
            p = space.P
            direction = [0] * (p - 1) + [-1, 0]
            slabs = (range(len(z)), range(len(x1)), range(len(x1), len(z)))
            for slab in slabs:
                for _ in range(15):
                    verts = tuple(sorted(rng.choice(slab, p, replace=False).tolist()))
                    want = det_sign_exact([space.int_rows[v] for v in verts] + [direction])
                    assert space.infdown_sign(verts) == want, verts
                    signs.add(want)
        assert signs == {-1, 0, 1} and exact


def _oracle_clouds():
    """Small clouds for the brute-force hull: uniform in 2D and 3D, the
    3x4 grid (cocircular ties), a collinear cloud, and lifted pairs, one
    random and one on a grid, whose facets inside one slab make
    same-slab ties."""
    rng = np.random.default_rng(94)
    u2, u3 = rng.random((10, 2)).tolist(), rng.random((9, 3)).tolist()
    grid = _grid(3, 3)
    return {
        "uniform2d": PointCloud(u2),
        "uniform3d": PointCloud(u3),
        "grid3x4": PointCloud(_grid(3, 4)),
        "collinear": PointCloud([(0.5 + t, 1.0 - 2.0 * t) for t in (0.0, 3.0, 0.25, 1.5, -2.0, 0.75, 2.0)]),
        "pair": lift(PointCloud(u2[:4]), PointCloud(u2[4:]), 1.0).z,
        "grid pair": lift(PointCloud(grid[::2]), PointCloud(grid[1::2]), 1.0).z,
    }


ORACLE_CLOUDS = _oracle_clouds()


@functools.cache
def _perturbed_hull(name: str) -> dict[tuple[int, ...], int]:
    """The facets of the perturbed lifted hull of an oracle cloud, with
    their inside signs: the P-subsets that have every other point on one
    side by `sos_sign`, that side."""
    _, space = importlib.import_module("reldelcech.delaunay")._hull_space(ORACLE_CLOUDS[name])
    n, facets = len(space.int_rows), {}
    for verts in itertools.combinations(range(n), space.P):
        facet = [space.int_rows[v] for v in verts]
        signs = {sos_sign(facet + [space.int_rows[q]], [*verts, q]) for q in range(n) if q not in verts}
        if len(signs) == 1:
            facets[verts] = signs.pop()
    return facets


class TestHullOracle:
    """The rounds' final facets and inside signs are the perturbed hull's,
    found by brute force, whatever the insertion order."""

    @pytest.mark.parametrize("seed", [0x9E3779B9, 1, 12345])
    @pytest.mark.parametrize("name", sorted(ORACLE_CLOUDS))
    def test_final_facets_are_the_perturbed_hull(self, name, seed, monkeypatch):
        mod = importlib.import_module("reldelcech.delaunay")
        hulls = []
        real = mod._Hull
        monkeypatch.setattr(mod, "_Hull", lambda space, order: hulls.append(real(space, order)) or hulls[-1])
        monkeypatch.setattr(mod, "_HULL_SEED", seed)
        delaunay(ORACLE_CLOUDS[name])
        (hull,) = hulls
        got = dict(zip(rows(hull.facets), hull.inside_signs.tolist()))
        assert len(got) == len(hull.facets)
        assert got == _perturbed_hull(name)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 0, 1, 2, 3]])
    def test_point_inside_hull_raises(self, order):
        # Every lifted point is a vertex of its hull; a row inside the
        # hull of the others, inserted late or in the first simplex, is
        # a vertex of no final facet.
        mod = importlib.import_module("reldelcech.delaunay")
        pts = [(0, 4, 8), (28, 12, 20), (8, 36, 16), (20, 24, 44), (14, 19, 22)]
        space = int_space(pts)
        with pytest.raises(AssertionError, match="lifted point inside hull"):
            mod._Hull(space, order)


def _line(direction, offset, ts):
    return [tuple(o + t * d for o, d in zip(offset, direction)) for t in ts]


# Pairs whose affine hulls are parallel to no common flat of the other's
# dimension: neither cloud has rank rank(Z) - 1, so no top of either spans
# a slab of Z.
NONPARALLEL = {
    "crossing lines": (_line((1, 0), (0, 0), (-2.0, -0.5, 1.0, 2.5)), _line((1, 2), (0.5, 0), (-1.0, 0.25, 1.5))),
    "skew lines": (_line((1, 0, 0), (0, 0, 0), (-1.0, 0.5, 2.0)), _line((0, 1, 1), (0, 0, 1), (-1.5, 0.0, 0.75, 2.0))),
    "octahedron planes": ([(1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0), (0, -1.0, 0)], [(0, 0, 1.0), (0, 0, -1.0), (0, 1.0, 0)]),
    "grid planes": ([(float(i), float(j), 0.0) for i in range(3) for j in range(3)],
                    [(float(i), 0.0, float(k)) for i in range(3) for k in range(1, 3)]),
}
# Pairs where one cloud's affine hull is parallel to a flat of the other.
PARALLEL = {
    "point and line": ([(0.5, 2.0)], _line((1, 0), (0, 0), (-1.0, 0.0, 2.0))),
    "parallel lines": (_line((1, 1), (0, 0), (0.0, 1.0, 3.0)), _line((1, 1), (1, 0), (-1.0, 0.5, 2.0))),
    "line in a plane": (_line((1, 1, 0), (0, 0, 0.5), (0.0, 1.0, 2.5)), [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 3.0, 0.0), (1.0, 1.0, 0.0)]),
    "full rank": ([(0.1, 0.2), (0.9, 0.1), (0.4, 0.8)], [(0.5, -0.7), (1.6, 0.9), (-0.6, 1.1), (0.6, 0.35)]),
}

# Clouds beyond the Cech oracle's 14 points, for the wrap against the
# lifted hull of Z: random (one copy translated by 1e5, where the float
# filter certifies little), grids with cospherical ties (one at a
# non-dyadic scale), and nearly cocircular points.
LARGE = {
    "uniform d=2 n=2000": lambda rng: rng.random((2000, 2)),
    "uniform d=2 n=250 +1e5": lambda rng: rng.random((250, 2)) + 1e5,
    "uniform d=3 n=500": lambda rng: rng.random((500, 3)),
    "grid20x20": lambda rng: np.array(_grid(20, 20)),
    "grid20x20 x0.1": lambda rng: np.array(_grid(20, 20)) * 0.1,
    "grid6x6x6": lambda rng: np.array(_grid(6, 6, 6)),
    "circle n=100": lambda rng: generate_cloud("sphere", 100, 2, rng).coords,
}


class TestPairDelaunay:
    """`pair_delaunay` wraps del(Z) from del(X1) and del(X2) and keeps the
    lifted hull of Z only for non-parallel flat clouds."""

    @staticmethod
    def _run(x1, x2, monkeypatch):
        mod = importlib.import_module("reldelcech.delaunay")
        hulls = []
        monkeypatch.setattr(mod, "delaunay", lambda c: hulls.append(len(c)) or delaunay(c))
        z = lift(PointCloud(x1), PointCloud(x2), 1.0).z
        tri = mod.pair_delaunay(z, delaunay(PointCloud(x1)), delaunay(PointCloud(x2)))
        assert np.array_equal(tri.tops, delaunay(z).tops)
        return hulls, len(z)

    @pytest.mark.parametrize("name", sorted(NONPARALLEL))
    def test_nonparallel_flat_clouds_take_the_lifted_hull(self, name, monkeypatch):
        hulls, n = self._run(*NONPARALLEL[name], monkeypatch)
        assert hulls == [n]

    @pytest.mark.parametrize("name", sorted(PARALLEL))
    def test_parallel_clouds_are_wrapped(self, name, monkeypatch):
        for x1, x2 in (PARALLEL[name], PARALLEL[name][::-1]):
            hulls, _ = self._run(x1, x2, monkeypatch)
            assert hulls == []

    @pytest.mark.parametrize("name", list(LARGE))
    def test_wrap_matches_the_lifted_hull_at_scale(self, name, monkeypatch):
        # A quarter of the points in X1, half on the grids.
        rng = np.random.default_rng(97)
        pts = LARGE[name](rng)
        a = rng.choice(len(pts), len(pts) // (2 if name.startswith("grid") else 4), replace=False)
        hulls, _ = self._run(*_split(pts, a), monkeypatch)
        assert hulls == []

    def test_wrap_matches_the_lifted_hull_with_a_coplanar_x1(self, monkeypatch):
        # X1, a quarter of a uniform d=3 n=200 cloud, lies on the plane
        # z = 0.5 inside X2's box, so del(X1) is flat and the wrap starts
        # from X2's tops alone.  The plane is not put in X2: there the
        # lifted hull of Z, the reference, makes ~16x the scalar sos_sign
        # calls (n=100: 39,816 against 2,534, 11 s against 0.6 s).
        rng = np.random.default_rng(98)
        pts = rng.random((200, 3))
        a = rng.choice(200, 50, replace=False)
        pts[a, 2] = 0.5
        hulls, _ = self._run(*_split(pts, a), monkeypatch)
        assert hulls == []

    def test_empty_side_takes_the_other_triangulation(self):
        mod = importlib.import_module("reldelcech.delaunay")
        x = PointCloud(np.random.default_rng(81).random((9, 2)).tolist())
        empty = PointCloud([], dimension=2)
        for x1, x2 in ((x, empty), (empty, x)):
            z = lift(x1, x2, 1.0).z
            tri = mod.pair_delaunay(z, delaunay(x1) if len(x1) else None, delaunay(x2) if len(x2) else None)
            assert np.array_equal(tri.tops, delaunay(x).tops) and np.array_equal(tri.tops, delaunay(z).tops)
            assert tri.top_dim == 2

    @staticmethod
    def _seeding(x1, x2, monkeypatch) -> tuple[int, int]:
        """The exact rounds of the seeds' walk, each one `_resolve` of a
        kernel batch, and its refinement rounds, the moves it makes."""
        mod = importlib.import_module("reldelcech.delaunay")
        exact, moves = [], []
        real_seed, real_resolve = mod._Wrap.seed, mod._resolve

        def seed(self, *args):
            monkeypatch.setattr(mod, "_resolve", lambda *a: exact.append(1) or real_resolve(*a))
            out = real_seed(self, *args)
            monkeypatch.setattr(mod, "_resolve", real_resolve)
            moves.append(self.rounds)
            return out

        monkeypatch.setattr(mod._Wrap, "seed", seed)
        z = lift(x1, x2, 1.0).z
        tops = mod.pair_delaunay(z, delaunay(x1), delaunay(x2)).tops
        assert np.array_equal(tops, delaunay(z).tops)
        return len(exact), moves[0]

    @pytest.mark.parametrize("d", [2, 3])
    def test_seeds_take_one_exact_round_on_a_sorted_cloud(self, d, monkeypatch):
        # X2 is listed from its far end towards X1: a walk that began at
        # the first listed vertex would move about one vertex per round.
        # The float jump and walk guess every partner, and one exact
        # batch confirms them all; a wrong guess would take a refinement
        # round.
        rng = np.random.default_rng(86 + d)
        x1 = rng.random((6, d)) + np.eye(d)[0] * 10.0
        x2 = rng.random((60, d)) * np.r_[10.0, np.ones(d - 1)]
        x2 = x2[np.argsort(x2[:, 0])]
        assert self._seeding(PointCloud(x1.tolist()), PointCloud(x2.tolist()), monkeypatch) == (1, 0)

    def test_empty_side_checks_the_other_triangulation(self):
        mod = importlib.import_module("reldelcech.delaunay")
        empty = PointCloud([], dimension=2)
        for pts, tops, err in [
            # Both diagonals of a quadrilateral: each edge's two tops overlap.
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.1, 1.2)], itertools.combinations(range(4), 3), "lie on one side"),
            # Three collinear points make a flat top.
            ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)], [(0, 1, 2), (0, 1, 3), (1, 2, 3)], r"top \(0, 1, 2\) of del\(Z\) is vertical"),
            ([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 3.0)], [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "3 tops"),
        ]:
            x = PointCloud(pts)
            broken = mod.Triangulation(x, np.array(list(tops)))
            z = lift(x, empty, 1.0).z
            with pytest.raises(AssertionError, match=err):
                mod.pair_delaunay(z, broken, None)
            with pytest.raises(AssertionError, match=err):
                mod.pair_delaunay(lift(empty, x, 1.0).z, None, broken)


def _cloud_tops(n, d):
    """delaunay(X) of a uniform cloud, with the points it triangulates."""
    x = PointCloud(np.random.default_rng(99).random((n, d)))
    return delaunay(x).tops, x.coords


def _lifted_tops(n, d):
    """del(Z) of a uniform pair, a quarter of the points in X1, with Z."""
    rng = np.random.default_rng(99)
    x1, x2 = _split(rng.random((n, d)), rng.choice(n, n // 4, replace=False))
    pipe = build_pipeline(PointCloud(x1), PointCloud(x2))
    return pipe.triangulation.tops, pipe.cfg.z.coords


# General position only: on grids Qhull need not split a cospherical set
# the way Simulation of Simplicity does.
QHULL = {
    "del(X) uniform d=2 n=10000": lambda: _cloud_tops(10000, 2),
    "del(X) uniform d=3 n=2000": lambda: _cloud_tops(2000, 3),
    "del(Z) uniform d=2 n=2000": lambda: _lifted_tops(2000, 2),
    "del(Z) uniform d=3 n=500": lambda: _lifted_tops(500, 3),
}


@pytest.mark.parametrize("name", list(QHULL))
def test_tops_match_qhull(name):
    # Qhull (`scipy.spatial.Delaunay`) shares none of the predicates, the
    # hull rounds or the wrap.  scipy is a test dependency only.
    spatial = pytest.importorskip("scipy.spatial")
    tops, pts = QHULL[name]()
    ref = np.sort(spatial.Delaunay(pts).simplices, axis=1)
    assert np.array_equal(tops, ref[np.lexsort(ref.T[::-1])])


def _seed_pairs():
    """(X1, X2) pairs for the seeds' partner oracle: random pairs of
    d = 1..3, the 12x12, 4x4x4 and 3x4 grids, the radius-5 integer ring,
    flat clouds, 2^-20-scaled and 1e5-translated copies, and the sorted
    cloud of `test_seeds_take_one_exact_round_on_a_sorted_cloud`."""
    rng = np.random.default_rng(94)
    pairs = {}
    for d in (1, 2, 3):
        x = rng.random((30, d))
        pairs[f"random{d}d"] = (x[:10], x[10:])
    pairs["grid12x12"] = _split(_grid(12, 12), rng.choice(144, 72, replace=False))
    pairs["grid4x4x4"] = _split(_grid(4, 4, 4), rng.choice(64, 32, replace=False))
    pairs["grid3x4"] = _split(_grid(3, 4), [0, 4, 5, 6])
    pairs["ring"] = _split(_RING, [0, 2, 5, 7, 9])
    x1, x2 = PARALLEL["parallel lines"]
    pairs["parallel lines"] = (np.array(x1), np.array(x2))
    tilt = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])  # a plane of R^3
    pairs["grid2x6"] = _split(np.array(_grid(2, 6)) @ tilt, [0, 3, 7, 8])
    pairs["ring+centre"] = _split(np.array(_RING + [(0.0, 0.0)]) @ tilt, [1, 4, 6, 12])
    for name in ("random2d", "grid12x12", "ring"):
        x1, x2 = pairs[name]
        pairs[name + " scaled"] = (x1 * 2.0**-20, x2 * 2.0**-20)
        pairs[name + " translated"] = (x1 + 1e5, x2 + 1e5)
    d_rng = np.random.default_rng(88)
    x1 = d_rng.random((6, 2)) + np.eye(2)[0] * 10.0
    x2 = d_rng.random((60, 2)) * np.r_[10.0, 1.0]
    pairs["sorted"] = (x1, x2[np.argsort(x2[:, 0])])
    return pairs


def _split(pts, a):
    pts = np.array(pts, dtype=float)
    inside = np.zeros(len(pts), dtype=bool)
    inside[list(a)] = True
    return pts[inside], pts[~inside]


SEED_PAIRS = _seed_pairs()


class TestSeeds:
    """`_Wrap.seed` joins every top of a cloud that spans its slab of Z to
    its partner in the other cloud, by a batched walk over that cloud's
    triangulation."""

    @staticmethod
    def _seeded(x1, x2, monkeypatch):
        """Run `pair_delaunay` on the pair and return, per `seed` call, the
        wrap, its tops and the partners it found; and the `_orient_batch`
        entries of the calls."""
        mod = importlib.import_module("reldelcech.delaunay")
        calls, entries = [], []
        real_seed, real_kernel = mod._Wrap.seed, mod._orient_batch

        def seed(self, ridges, *args):
            monkeypatch.setattr(mod, "_orient_batch", lambda *a: entries.append(len(a[-1])) or real_kernel(*a))
            b, below = real_seed(self, ridges, *args)
            monkeypatch.setattr(mod, "_orient_batch", real_kernel)
            calls.append((self, ridges, b))
            return b, below

        monkeypatch.setattr(mod._Wrap, "seed", seed)
        x1, x2 = PointCloud(np.asarray(x1).tolist()), PointCloud(np.asarray(x2).tolist())
        z = lift(x1, x2, 1.0).z
        tops = mod.pair_delaunay(z, delaunay(x1), delaunay(x2)).tops
        assert np.array_equal(tops, delaunay(z).tops)
        return calls, sum(entries)

    @pytest.mark.parametrize("name", sorted(SEED_PAIRS))
    def test_partners_match_the_brute_force_wrap(self, name, monkeypatch):
        # The brute-force start: each seed a job of `step` with every
        # vertex of the other cloud as a candidate.
        calls, _ = self._seeded(*SEED_PAIRS[name], monkeypatch)
        assert calls
        for wrap, seeds, partners in calls:
            n1, n = wrap.n1, len(wrap.space.rows)
            for in_x1, (lo, hi) in ((True, (n1, n)), (False, (0, n1))):
                ridges = seeds[(seeds[:, 0] < n1) == in_x1]
                m = len(ridges)
                fars, _ = wrap.orient(ridges, np.arange(m), np.full(m, lo))
                which, queries = np.repeat(np.arange(m), hi - lo), np.tile(np.arange(lo, hi), m)
                want = wrap.step(ridges, fars, which, queries)
                assert np.all(want >= 0)
                assert partners[(seeds[:, 0] < n1) == in_x1].tolist() == want.tolist()

    def test_random_pair_wraps_in_few_levels(self, monkeypatch):
        # From a single start the wrap took one level per breadth-first
        # step away from it, ~32 on such a pair; from every pure top, a
        # top of one cloud joined to a vertex of the other, it takes a few.
        # The seeding stays local: a few kernel entries per seed, where a
        # guess against the whole other cloud would take ~n/2 of them.
        mod = importlib.import_module("reldelcech.delaunay")
        steps = []
        real_step = mod._Wrap.step
        monkeypatch.setattr(mod._Wrap, "step", lambda self, *args: steps.append(1) or real_step(self, *args))
        x = np.random.default_rng(95).random((250, 2))
        calls, entries = self._seeded(x[:62], x[62:], monkeypatch)
        seeds = sum(len(ridges) for _, ridges, _ in calls)
        assert seeds > 400
        assert len(steps) <= 6
        assert entries < 20 * seeds


class TestOrientBatch:
    """`_orient_batch` is the scalar `Orientation` over many simplices
    and queries, bit for bit, and the wrap's exact fallback is Bareiss's
    sign."""

    @staticmethod
    def _rows(rng, kind: str, n: int, k: int) -> np.ndarray:
        if kind == "grid":  # zero determinants and repeated rows
            return rng.integers(-2, 3, (n, k)).astype(float)
        if kind == "overflow":  # finite values, but C * scale^k > 1.8e308
            return 10.0 ** (320 / k) * (1.0 + rng.random((n, k)) * 2.0**-30)
        if kind == "inf":  # the values overflow as well
            return 1e300 * (rng.random((n, k)) - 0.5)
        scale = {"random": 1.0, "tiny": 2.0**-40, "large": 2.0**40}[kind]
        return scale * (rng.random((n, k)) - 0.5)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_the_scalar_filter(self, k):
        mod = importlib.import_module("reldelcech.delaunay")
        rng = np.random.default_rng(90 + k)
        n, m = 12, 40
        for kind in ("random", "grid", "tiny", "large", "overflow", "inf"):
            rows = self._rows(rng, kind, n, k)
            size = np.abs(rows).max(axis=1)
            simplices = np.array([rng.choice(n, k, replace=False) for _ in range(m)])
            which, queries = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                signs, values = mod._orient_batch(rows, size, simplices, which, queries)
            want_signs, want_values = [], []
            for w, q in zip(which.tolist(), queries.tolist()):
                o = Orientation([tuple(rows[v].tolist()) for v in simplices[w]], float(size[simplices[w]].max()))
                want_signs.append(o.sign(tuple(rows[q].tolist()), float(size[q])))
                want_values.append(o.value(tuple(rows[q].tolist())).hex())
            assert signs.tolist() == want_signs, kind
            assert [v.hex() for v in values.tolist()] == want_values, kind
            # The queries include each simplex's own vertices, which no
            # filter certifies; at 2^-40 the scale's floor of 1 certifies
            # nothing either.
            certified = np.count_nonzero(signs)
            if kind in ("overflow", "inf"):
                assert certified == 0, kind
                assert kind == "inf" or np.isfinite(values).all()
            elif kind != "tiny":
                assert 0 < certified < len(signs), kind

    def test_exact_fallback_matches_bareiss_on_grid_ridges(self, monkeypatch):
        # Every far-side test of the wrap, the filter switched off: on
        # grids, where many vertices lie on a ridge's hyperplane, against
        # every vertex of Z.  In the exact range the kernel's value gives
        # the sign, with no `exact_cofactors` call; outside it (the range
        # switched off) the integer cofactors of each ridge do.
        mod = importlib.import_module("reldelcech.delaunay")
        monkeypatch.setattr(mod, "_orient_batch", certify_nothing(mod._orient_batch))
        cofactor_calls = []
        real_cofactors = mod.exact_cofactors
        monkeypatch.setattr(mod, "exact_cofactors", lambda block: cofactor_calls.append(1) or real_cofactors(block))
        signs_seen = set()
        for shape, a in (((4, 4), range(0, 16, 3)), ((3, 3, 3), range(0, 27, 4))):
            pts = [tuple(float(c) for c in p) for p in np.ndindex(*shape)]
            x1, x2 = [pts[i] for i in a], [p for i, p in enumerate(pts) if i not in a]
            z = lift(PointCloud(x1), PointCloud(x2), 1.0).z
            tri = mod.pair_delaunay(z, delaunay(PointCloud(x1)), delaunay(PointCloud(x2)))
            _, space = mod._hull_space(z)
            assert space.exact.all()
            ridges = tri.tables[-2].simplices
            which, queries = np.repeat(np.arange(len(ridges)), len(z)), np.tile(np.arange(len(z)), len(ridges))
            pints = space.pints
            rows = ridges.tolist()
            want = [det_sign_exact([pints[v] for v in rows[w]] + [pints[q]]) for w, q in zip(which.tolist(), queries.tolist())]
            for exact in (True, False):
                monkeypatch.setattr(space, "exact", np.full(len(z), exact))
                cofactor_calls.clear()
                signs, _ = mod._Wrap(space, len(x1)).orient(ridges, which, queries)
                assert signs.tolist() == want
                assert len(cofactor_calls) == (0 if exact else len(ridges))
            signs_seen |= set(want)
        assert signs_seen == {-1, 0, 1}

    def test_refinement_rounds_are_few_on_a_random_pair(self, monkeypatch):
        # The guesses are confirmed by the batch for nearly every seed
        # and every wrapped ridge: at most one refinement round in a
        # level, and rounds for at most 5% of the tops in all, the seeds'
        # walk included.
        mod = importlib.import_module("reldelcech.delaunay")
        rounds, wraps = [], []
        real_step, real_run = mod._Wrap.step, mod._Wrap.run

        def step(self, *args):
            before = self.rounds
            out = real_step(self, *args)
            rounds.append(self.rounds - before)
            return out

        monkeypatch.setattr(mod._Wrap, "step", step)
        monkeypatch.setattr(mod._Wrap, "run", lambda self, *args: wraps.append(self) or real_run(self, *args))
        x = np.random.default_rng(91).random((80, 3)).tolist()
        tops = build_pipeline(PointCloud(x[:20]), PointCloud(x[20:])).triangulation.tops
        assert len(tops) > 300 and len(rounds) >= 2
        assert max(rounds) <= 1
        assert wraps[0].rounds <= 0.05 * len(tops)


def _exact_range_bound(space) -> int:
    """P! times the product of the float rows' column ranges (at least 1)."""
    lo, hi = space.rows.min(axis=0).tolist(), space.rows.max(axis=0).tolist()
    return math.factorial(space.P) * math.prod(max(1, int(b) - int(a)) for a, b in zip(lo, hi))


class TestExactRange:
    """In the exact range the kernel's value is the determinant itself;
    outside it the range is off."""

    @staticmethod
    def _rows(rng, ranges, n=12):
        """n integer rows whose column c spans exactly ranges[c], from a
        random offset; half of the entries at an end of their range."""
        cols = []
        for r in ranges:
            lo = int(rng.integers(-r, 1))
            col = rng.integers(lo, lo + r + 1, n)
            ends = rng.random(n) < 0.5
            col[ends] = np.where(rng.random(n) < 0.5, lo, lo + r)[ends]
            col[:2] = lo, lo + r
            cols.append(col.tolist())
        return [tuple(row) for row in zip(*cols)]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_values_are_exact_at_the_bound(self, k):
        mod = importlib.import_module("reldelcech.delaunay")
        from reldelcech.predicates import det_exact_int

        rng = np.random.default_rng(95 + k)
        limit = 1 << 53
        base = (limit / math.factorial(k)) ** (1 / k)
        ranges = [int(base * f) for f in rng.uniform(0.5, 1.0, k - 1)]
        last = (limit - 1) // (math.factorial(k) * math.prod(ranges))
        for top in (last, last - 1):  # at the bound, and just inside it
            rows = self._rows(rng, ranges + [top])
            space = int_space(rows)
            assert space.exact.all() and _exact_range_bound(space) < limit
            m, n = 30, len(rows)
            simplices = np.array([rng.choice(n, k, replace=False) for _ in range(m)])
            which, queries = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
            _, values = mod._orient_batch(space.rows, space.sizes, simplices, which, queries)
            want = [det_exact_int([(*rows[v], 1) for v in simplices[w]] + [(*rows[q], 1)]) for w, q in zip(which.tolist(), queries.tolist())]
            assert values.tolist() == want
            assert any(abs(v) > 2**40 for v in want)
        # One column step past the bound.
        space = int_space(self._rows(rng, ranges + [last + 1]))
        assert _exact_range_bound(space) >= limit and not space.exact.any()

    def test_range_is_off_for_rounded_or_fractional_rows(self):
        mod = importlib.import_module("reldelcech.delaunay")
        grid = _grid(3, 3)
        _, space = mod._hull_space(PointCloud(grid))
        assert space.exact.all()
        _, space = mod._hull_space(PointCloud([[x * 2.0**-20 for x in p] for p in grid]))
        assert not space.exact.any()  # not integer-valued
        # Translated by 2^40, the rows are integers and the ranges small,
        # but the float lifts (~2^81) are rounded.
        _, space = mod._hull_space(PointCloud([[x + 2.0**40 for x in p] for p in grid]))
        assert _exact_range_bound(space) < 1 << 53 and not space.exact.any()

    def test_workload_clouds(self):
        # Integer grids and their lifted pairs are in range; random
        # floats are not.
        mod = importlib.import_module("reldelcech.delaunay")
        for name in ("grid12x12", "grid4x4x4", "repro"):
            _, space = mod._hull_space(HULL_CLOUDS[name])
            assert space.exact.all(), name
        for name in ("uniform2d", "uniform3d", "pair2d", "pair3d"):
            _, space = mod._hull_space(HULL_CLOUDS[name])
            assert not space.exact.any(), name

    def test_flag_matches_the_entrywise_reference(self):
        # The flag, read from the shifts and the integer rows, is the
        # reference's entry-by-entry comparison of the float and integer
        # rows: on the hull clouds, on both clouds and the lifted Z of
        # every seed and joint pair, on the tilted 2x6 integer grid in R^3
        # (flat, in range) and on a grid of spacing 1/2 (out of it).
        mod = importlib.import_module("reldelcech.delaunay")
        tilt = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
        clouds = dict(HULL_CLOUDS)
        clouds["grid2x6 tilted"] = PointCloud((np.array(_grid(2, 6)) @ tilt).tolist())
        clouds["half grid"] = PointCloud((np.array(_grid(4, 4)) / 2).tolist())
        for name, (x1, x2) in [*SEED_PAIRS.items(), *JOINT_PAIRS.items()]:
            x1, x2 = PointCloud(np.asarray(x1).tolist()), PointCloud(np.asarray(x2).tolist())
            clouds[name + " X1"], clouds[name + " X2"], clouds[name + " Z"] = x1, x2, lift(x1, x2, 1.0).z
        flags = {}
        for name, cloud in clouds.items():
            _, space = mod._hull_space(cloud)
            assert space.exact.all() or not space.exact.any(), name
            flags[name] = bool(space.exact[0])
            assert flags[name] == exact_range_reference(space.rows, space.int_rows), name
        assert flags["grid2x6 tilted"] and not flags["half grid"]
        # Scaled by 2^-20 nothing is in range; an integer grid translated
        # by 1e5 still is.
        assert not any(flags[f"{name} scaled {part}"] for name in ("random2d", "grid12x12", "ring") for part in ("X1", "X2", "Z"))
        assert flags["grid12x12 translated Z"] and not flags["random2d translated Z"]


def _circle():
    """The 12 integer points of the circle x^2 + y^2 = 25: every lifted
    row has the same lift."""
    pts = {(5.0 * a, 0.0) for a in (-1, 1)} | {(0.0, 5.0 * a) for a in (-1, 1)}
    pts |= {(a * x, b * y) for x, y in ((3.0, 4.0), (4.0, 3.0)) for a in (-1, 1) for b in (-1, 1)}
    return sorted(pts)


# Pairs (X, A) on which `_perturbed_signs` leaves the kernel for the tie
# minors, the lift terms and `sos_sign`: grids, the triangular "diagonal"
# grid, the integer circle (a constant lift column), and a cloud with five
# points on a diagonal line, where every lift term of a determinant of
# four of them is 0.
PERTURBED_PAIRS = {
    "grid12x12": (_grid(12, 12), set(np.random.default_rng(3).choice(144, 72, replace=False).tolist())),
    "grid4x4x4": (_grid(4, 4, 4), set(np.random.default_rng(4).choice(64, 32, replace=False).tolist())),
    "repro": (_grid(3, 4), {0, 4, 5, 6}),
    "diagonal": ([[float(i), float(j)] for i in range(4) for j in range(i + 1)], {0, 2, 5}),
    "circle": (_circle(), {0, 3, 5, 6, 9}),
    "collinear": ([[float(i), float(i)] for i in range(6)] + [[0.0, 3.0], [4.0, 1.0], [1.0, 4.0], [5.0, 2.0]], {0, 6, 8}),
}


def _run_recording(x, a, monkeypatch):
    """Run the pipeline on the pair (X, A) and record, per call of
    `_perturbed_signs`, its space, entries and result; and count the
    scalar `sos_sign` calls."""
    mod = importlib.import_module("reldelcech.delaunay")
    calls, scalar = [], []
    real = mod._perturbed_signs

    def recording(space, verts, which, queries):
        out = real(space, verts, which, queries)
        calls.append((space, verts, which, queries, out.copy()))
        return out

    monkeypatch.setattr(mod, "_perturbed_signs", recording)
    monkeypatch.setattr(mod, "sos_sign", lambda rows, ranks: scalar.append(1) or sos_sign(rows, ranks))
    build_pipeline(PointCloud([p for i, p in enumerate(x) if i in a]), PointCloud([p for i, p in enumerate(x) if i not in a]))
    return calls, len(scalar)


class TestPerturbedSigns:
    """`_perturbed_signs` is `sos_sign` on every entry the kernel does not
    certify, in the hulls of X1 and X2 and in the wrap of Z."""

    @pytest.mark.parametrize("name", sorted(PERTURBED_PAIRS))
    def test_uncertified_entries_match_sos_sign(self, name, monkeypatch):
        mod = importlib.import_module("reldelcech.delaunay")
        x, a = PERTURBED_PAIRS[name]
        calls, scalar = _run_recording(x, a, monkeypatch)
        d = len(x[0])
        checked = {d + 1: 0, d + 2: 0}  # hull rows and Z's rows
        for space, verts, which, queries, out in calls:
            signs, _ = mod._orient_batch(space.rows, space.sizes, verts, which, queries)
            assert np.all(out[signs != 0] == signs[signs != 0])
            for i in np.flatnonzero(signs == 0).tolist():
                vs, q = verts[which[i]].tolist(), int(queries[i])
                want = sos_sign([space.int_rows[v] for v in vs] + [space.int_rows[q]], vs + [q])
                assert out[i] == want, (name, vs, q)
                checked[space.P] += 1
        assert checked[d + 1], checked
        if name == "collinear":
            assert scalar  # step (c): every lift term is 0
        else:
            assert checked[d + 2], checked

    @pytest.mark.parametrize("shape", [(20, 20), (6, 7), (5, 5, 3), (6, 6, 6)], ids=lambda s: "x".join(map(str, s)))
    def test_lift_terms_match_sos_sign_on_grids(self, shape, monkeypatch):
        # In the exact range an exact zero that is no same-slab tie takes
        # its lift terms from one cofactor pass (`_lift_terms`), and
        # `_minors` serves only the ties.  Every zero sign that `_resolve`
        # fills in, in the hulls and in the wrap, must be `sos_sign` of
        # its rows: on integer grids (in range) as they are, translated
        # by -7 and reflected by x -7, and at x 0.5 + 3 (out of range).
        mod = importlib.import_module("reldelcech.delaunay")
        real_resolve, real_lift = mod._resolve, mod._lift_terms
        checked, lifted = [], []

        def resolve(space, verts, which, queries, signs, values):
            zero = np.flatnonzero(signs == 0)
            out = real_resolve(space, verts, which, queries, signs, values)
            for i in zero.tolist():
                vs, q = verts[which[i]].tolist(), int(queries[i])
                assert out[i] == sos_sign([space.int_rows[v] for v in vs] + [space.int_rows[q]], vs + [q]), (vs, q)
            checked.append(len(zero))
            return out

        monkeypatch.setattr(mod, "_resolve", resolve)
        monkeypatch.setattr(mod, "_lift_terms", lambda space, rows, rank: lifted.append(len(rows)) or real_lift(space, rows, rank))
        grid = np.array(_grid(*shape))
        a = np.random.default_rng(5).choice(len(grid), len(grid) // 2, replace=False).tolist()
        for scale, shift in ((1.0, 0.0), (1.0, -7.0), (-7.0, 0.0), (0.5, 3.0)):
            checked.clear(), lifted.clear()
            x = PointCloud(grid * scale + shift)
            build_pipeline(PointCloud(x.coords[a]), PointCloud(np.delete(x.coords, a, axis=0)))
            assert sum(checked) > 0
            assert (sum(lifted) > 0) == (scale != 0.5), (scale, shift, sum(lifted))

    def test_scalar_remainder_is_small_on_the_grid_pair(self, monkeypatch):
        # On the 12x12 grid pair no ridge takes the integer cofactors, and
        # the scalar `sos_sign` decides at most 10% of the entries that
        # the kernel does not certify.
        mod = importlib.import_module("reldelcech.delaunay")
        cofactor_calls = []
        real_cofactors = mod.exact_cofactors
        monkeypatch.setattr(mod, "exact_cofactors", lambda block: cofactor_calls.append(1) or real_cofactors(block))
        calls, scalar = _run_recording(*PERTURBED_PAIRS["grid12x12"], monkeypatch)
        uncertified = 0
        for space, verts, which, queries, _ in calls:
            signs, _ = mod._orient_batch(space.rows, space.sizes, verts, which, queries)
            uncertified += int(np.count_nonzero(signs == 0))
        assert cofactor_calls == []
        assert uncertified > 100 and scalar <= 0.1 * uncertified


def _joint_pairs():
    """(X1, X2) pairs for the joint hull: random pairs of d = 1..3, halves
    of the 12x12 and 4x4x4 grids, a collinear X1 beside a full 2D X2 (two
    values of P), a cloud of rank + 1 points beside a full one, 2^-20-scaled
    and 1e5-translated copies, and an integer grid (in the exact range)
    beside random floats (out of it)."""
    rng = np.random.default_rng(96)
    pairs = {}
    for d in (1, 2, 3):
        x = rng.random((40, d))
        pairs[f"random{d}d"] = (x[:10], x[10:])
    pairs["grid12x12"] = _split(_grid(12, 12), rng.choice(144, 72, replace=False))
    pairs["grid4x4x4"] = _split(_grid(4, 4, 4), rng.choice(64, 32, replace=False))
    pairs["collinear+full"] = (np.array(_line((1, 2), (0.5, 0), (-1.0, 0.25, 1.5, 3.0, -2.5))), rng.random((25, 2)))
    pairs["simplex+full"] = (np.array([(0.1, 0.2), (0.9, 0.1), (0.4, 0.8)]), rng.random((25, 2)))
    for name in ("random2d", "grid12x12"):
        x1, x2 = pairs[name]
        pairs[name + " scaled"] = (x1 * 2.0**-20, x2 * 2.0**-20)
        pairs[name + " translated"] = (x1 + 1e5, x2 + 1e5)
    pairs["grid+floats"] = (np.array(_grid(12, 12)), rng.random((60, 2)) * 11.0)
    return pairs


JOINT_PAIRS = _joint_pairs()


def _recording_hulls(mod, monkeypatch) -> list:
    """Every `_Hull` made while the patch holds."""
    hulls, real = [], mod._Hull
    monkeypatch.setattr(mod, "_Hull", lambda space, order: hulls.append(real(space, order)) or hulls[-1])
    return hulls


class TestJointHulls:
    """`delaunay(x1, x2)` builds both clouds' hulls in one set of rounds
    (`_HullSpace.joint`); each cloud's triangulation is the one it gets
    alone."""

    @pytest.mark.parametrize("seed", [0x9E3779B9, 1, 12345])
    @pytest.mark.parametrize("name", sorted(JOINT_PAIRS))
    def test_tops_are_each_clouds_own(self, name, seed, monkeypatch):
        mod = importlib.import_module("reldelcech.delaunay")
        monkeypatch.setattr(mod, "_HULL_SEED", seed)
        x1, x2 = (PointCloud(x) for x in JOINT_PAIRS[name])
        alone = [delaunay(x1).tops, delaunay(x2).tops]
        hulls = _recording_hulls(mod, monkeypatch)
        for clouds, want in (((x1, x2), alone), ((x2, x1), alone[::-1])):
            tris = delaunay(*clouds)
            assert all(t.cloud is c for t, c in zip(tris, clouds))
            for t, tops in zip(tris, want):
                assert np.array_equal(t.tops, tops), name
        # One hull for two clouds of one P, one each for two values of P,
        # none for a cloud of rank + 1 points.
        counts = {"collinear+full": 2, "simplex+full": 1}
        assert len(hulls) == 2 * counts.get(name, 1)

    @pytest.mark.parametrize("first", [0, 1])
    def test_each_cloud_keeps_its_exact_range(self, first, monkeypatch):
        # The grid is in the exact range and the random floats are not,
        # and their union would not be: beside them, the grid's hull makes
        # no more scalar `sos_sign` or `exact_cofactors` calls than alone.
        mod = importlib.import_module("reldelcech.delaunay")
        grid, floats = (PointCloud(x) for x in JOINT_PAIRS["grid+floats"])
        assert mod._hull_space(grid)[1].exact.all() and not mod._hull_space(floats)[1].exact.any()
        ranks, cofactor_calls = [], []
        real_cofactors = mod.exact_cofactors
        monkeypatch.setattr(mod, "sos_sign", lambda rows, r: ranks.append(r) or sos_sign(rows, r))
        monkeypatch.setattr(mod, "exact_cofactors", lambda block: cofactor_calls.append(1) or real_cofactors(block))
        delaunay(grid)
        alone = len(ranks)
        ranks.clear()
        clouds = (grid, floats) if first == 0 else (floats, grid)
        delaunay(*clouds)
        lo = 0 if first == 0 else len(floats)
        assert sum(lo <= r[0] < lo + len(grid) for r in ranks) <= alone
        assert cofactor_calls == []

    @pytest.mark.parametrize("name", ["uniform2d", "grid12x12"])
    def test_rounds_are_the_deeper_hulls(self, name, monkeypatch):
        # The joint hull takes as many rounds as the deeper of the two,
        # not their sum, and its visibility tests stay one kernel call per
        # round: the full-width calls are the orientations of both first
        # simplices in one batch, their one first `_add`, and one `_add`
        # per round.
        mod = importlib.import_module("reldelcech.delaunay")
        if name == "uniform2d":
            x = np.random.default_rng([1, 0]).random((250, 2))
            x1, x2 = _split(x, np.random.default_rng(97).choice(250, 62, replace=False))
        else:
            x1, x2 = JOINT_PAIRS["grid12x12"]
        x1, x2 = PointCloud(x1), PointCloud(x2)
        hulls = _recording_hulls(mod, monkeypatch)
        delaunay(x1)
        delaunay(x2)
        r1, r2 = (h.rounds for h in hulls)
        calls, real = [], mod._orient_batch
        monkeypatch.setattr(mod, "_orient_batch", lambda rows, *a: calls.append(rows.shape[1]) or real(rows, *a))
        delaunay(x1, x2)
        joint = hulls[-1]
        assert joint.rounds == max(r1, r2) and joint.rounds < r1 + r2
        assert calls.count(joint.space.P) <= 1 + 1 + joint.rounds
