import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from reldelcech.delaunay import Simplex, delaunay
from reldelcech.geometry import InputError, PointCloud
from reldelcech.predicates import det_sign_exact, sos_sign
from reldelcech.relative_lift import build_pipeline, lift


def random_cloud(rng, n, d, low=0.0, high=1.0):
    pts = np.unique(low + (high - low) * rng.random((n, d)), axis=0)
    return PointCloud(pts.tolist())


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
        assert [s.vertices for s in t.top_simplices] == [(0,)]
        assert t.top_dim == 0

    def test_two_points(self):
        t = delaunay(PointCloud([(0.0,), (1.0,)]))
        assert [s.vertices for s in t.top_simplices] == [(0, 1)]

    def test_triangle(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1)]))
        assert [s.vertices for s in t.top_simplices] == [(0, 1, 2)]
        assert len(t.simplices_by_dim[1]) == 3
        assert len(t.simplices_by_dim[0]) == 3

    def test_unit_square_cocircular(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert len(t.top_simplices) == 2
        assert len(t.simplices_by_dim[1]) == 5
        assert len(t.simplices_by_dim[0]) == 4
        # the shared edge is one of the two diagonals
        edges = {e.vertices for e in t.simplices_by_dim[1]}
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
        assert [s.vertices for s in t.top_simplices] == [(0, 1), (1, 2), (2, 3)]

    def test_collinear_unordered_input(self):
        t = delaunay(PointCloud([(2, 2), (0, 0), (3, 3), (1, 1)]))
        # path along the line in coordinate order: 1-3-0-2
        assert {s.vertices for s in t.top_simplices} == {(1, 3), (0, 3), (0, 2)}

    def test_coplanar_in_3d(self):
        pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.2, 1.0)]
        t = delaunay(PointCloud(pts))
        assert t.top_dim == 2
        union = set()
        for s in t.top_simplices:
            assert s.dim == 2
            union |= set(s.vertices)
        assert union == set(range(5))

    def test_cube_cospherical(self):
        pts = [(float(i), float(j), float(k)) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        t = delaunay(PointCloud(pts))
        assert t.top_dim == 3
        assert sum(1 for s in t.top_simplices) in (5, 6)  # any triangulation of the cube
        _assert_empty_circumspheres(t)

    def test_grid_many_cocircularities(self):
        pts = [(float(i), float(j)) for i in range(4) for j in range(4)]
        t = delaunay(PointCloud(pts))
        assert len(t.top_simplices) == 18  # 9 unit squares, 2 triangles each
        _assert_empty_circumspheres(t)

    @pytest.mark.parametrize("name", ["grid3x4", "ring"])
    def test_ties_do_not_depend_on_coordinates(self, name):
        # Ties are broken by the lift heights first, so a cocircular cloud
        # has the same tops when translated, or copied into a coordinate
        # plane of R^3 (pivot columns of a flat cloud), either way round.
        pts = _RING if name == "ring" else [(float(i), float(j)) for i in range(3) for j in range(4)]
        want = delaunay(PointCloud(pts)).top_simplices
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
            assert delaunay(PointCloud(copy)).top_simplices == want, copy[:2]


def _assert_empty_circumspheres(t):
    n = len(t.cloud)
    for top in t.top_simplices:
        queries = [q for q in range(n) if q not in top.vertices]
        signs = t.insphere_sign(top, queries)
        assert len(signs) == len(queries)
        for q, s in zip(queries, signs):
            assert s <= 0, (top.vertices, q)


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
        arr = cloud.array()
        # random convex combinations of the cloud lie in some top triangle
        for _ in range(1000):
            w = rng.dirichlet(np.ones(len(cloud)))
            q = w @ arr
            found = False
            for top in t.top_simplices:
                tri = arr[list(top.vertices)]
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
            v = len(t.simplices_by_dim[0])
            e = len(t.simplices_by_dim[1])
            f = len(t.simplices_by_dim[2])
            assert v - e + f == 1

    def test_determinism_and_seed_independence(self, monkeypatch):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 30, 2)
        t1 = delaunay(cloud)
        t2 = delaunay(cloud)
        assert t1.top_simplices == t2.top_simplices
        monkeypatch.setattr(importlib.import_module("reldelcech.delaunay"), "_HULL_SEED", 12345)
        t3 = delaunay(cloud)
        # insertion order changes, the triangulation must not
        assert t3.top_simplices == t1.top_simplices


class TestFaces:
    def test_faces_of_triangle(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1)]))
        assert [s.vertices for s in t.faces(1)] == [(0, 1), (0, 2), (1, 2)]
        assert [s.vertices for s in t.faces(0)] == [(0,), (1,), (2,)]

    def test_faces_square(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert len(t.faces(1)) == 5

    def test_out_of_range(self):
        t = delaunay(PointCloud([(0, 0), (1, 0), (0, 1)]))
        with pytest.raises(InputError):
            t.faces(3)
        with pytest.raises(InputError):
            t.faces(-1)

    def test_downward_closure_unique(self):
        rng = np.random.default_rng(17)
        t = delaunay(random_cloud(rng, 14, 3))
        for d, simps in t.simplices_by_dim.items():
            assert len(simps) == len(set(simps))
            for s in simps:
                assert s.dim == d
        # closure: every boundary face of every simplex is present
        all_set = {s for ss in t.simplices_by_dim.values() for s in ss}
        for s in all_set:
            for f in s.boundary():
                assert f in all_set


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
        assert [tuple(x.hex() for x in row) for row in space.frows] == want
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
        # Each new facet gets its conflicts from one `sides` call, and the
        # first simplex its orientation from one more; every other inside
        # sign follows by parity (`_Hull`).  `sides` filters each test once
        # (through the facet's cofactors, or a same-slab tie's minor) and
        # goes to sos_sign directly; only the vertical tests (infdown_sign)
        # run filtered_det_sign, once each, except the structural zeros: a
        # facet with a constant coordinate column below the lift column
        # is vertical without a determinant.
        mod = importlib.import_module("reldelcech.delaunay")
        counts = {"filter": 0, "facet": 0, "vertical": 0, "sides": 0, "zeros": 0}

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        real_vertical = mod._HullSpace.infdown_sign

        def vertical(space, verts):
            facet = [space.int_rows[v] for v in verts]
            s = real_vertical(space, verts)
            if any(len({row[c] for row in facet}) == 1 for c in range(space.P - 1)):
                counts["zeros"] += 1
                assert s == 0
            return s

        monkeypatch.setattr(mod, "filtered_det_sign", counting("filter", mod.filtered_det_sign))
        monkeypatch.setattr(mod._Hull, "_add_facet", counting("facet", mod._Hull._add_facet))
        monkeypatch.setattr(mod._HullSpace, "infdown_sign", counting("vertical", vertical))
        monkeypatch.setattr(mod._HullSpace, "sides", counting("sides", mod._HullSpace.sides))
        x = np.random.default_rng(72).random((40, 2)).tolist()
        delaunay(lift(PointCloud(x[:10]), PointCloud(x[10:]), 1.0).z)
        assert counts["facet"] > 0 and counts["vertical"] > counts["zeros"] > 0
        assert counts["sides"] == counts["facet"] + 1
        assert counts["filter"] == counts["vertical"] - counts["zeros"]

    def test_one_expansion_per_orientation(self, monkeypatch):
        # Each facet orientation gets all of its cofactors from one
        # `cofactors` call, not one evaluation per column.
        mod = importlib.import_module("reldelcech.delaunay")
        counts = {"cofactors": 0, "orientation": 0}
        real_cofactors, real_init = mod.cofactors, mod._Orientation.__init__

        def cofactors(block):
            counts["cofactors"] += 1
            return real_cofactors(block)

        def init(self, *args):
            counts["orientation"] += 1
            real_init(self, *args)

        monkeypatch.setattr(mod, "cofactors", cofactors)
        monkeypatch.setattr(mod._Orientation, "__init__", init)
        rng = np.random.default_rng(76)
        for n, d in [(40, 2), (24, 3)]:
            x = rng.random((n, d)).tolist()
            build_pipeline(PointCloud(x[: n // 4]), PointCloud(x[n // 4 :]))
        assert counts["orientation"] > 0
        assert counts["cofactors"] == counts["orientation"]

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
                assert space.sides(verts, queries) == want, (verts, queries)
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
                assert space.sides(verts, queries) == want, (verts, queries)
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
        on_hull = sorted({v for f in hull.facets.values() for v in f.verts})
        for f in hull.facets.values():
            off = [v for v in on_hull if v not in f.verts]
            assert hull.space.sides(f.verts, off) == [f.inside_sign] * len(off), f.verts

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
