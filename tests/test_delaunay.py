import itertools
import math
import os

import numpy as np
import pytest

from reldelcech.delaunay import Simplex, delaunay
from reldelcech.geometry import InputError, PointCloud


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
        assert len(s.faces()) == 7
        assert Simplex((3,)).boundary() == []


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


def _assert_empty_circumspheres(t):
    n = len(t.cloud)
    for top in t.top_simplices:
        for q in range(n):
            if q in top.vertices:
                continue
            assert t.insphere_sign(top, q) <= 0, (top.vertices, q)


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

    def test_determinism_and_seed_independence(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 30, 2)
        t1 = delaunay(cloud)
        t2 = delaunay(cloud)
        assert t1.top_simplices == t2.top_simplices
        old = os.environ.get("RELDEL_SEED")
        try:
            os.environ["RELDEL_SEED"] = "12345"
            t3 = delaunay(cloud)
        finally:
            if old is None:
                os.environ.pop("RELDEL_SEED", None)
            else:
                os.environ["RELDEL_SEED"] = old
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
