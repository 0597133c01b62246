import json
import math

import numpy as np
import pytest

from reldelcech import cli, relative_lift
from reldelcech.cech_oracle import compare_barcodes, relative_cech
from reldelcech.delaunay import Triangulation, delaunay
from reldelcech.filtered_complex import dumps
from reldelcech.geometry import InputError, PointCloud, smallest_enclosing_ball
from reldelcech.persistence import barcode
from reldelcech.relative_lift import (
    build_pipeline,
    choose_s,
    lift,
    relative_delcech,
    verify_embedding,
)


def cloud(pts, d=None):
    return PointCloud(pts, dimension=d)


EMPTY2 = PointCloud([], dimension=2)


class TestChooseS:
    def test_largest_axis_extent(self):
        assert choose_s(cloud([(0.0, 0.0), (2.0, 0.0)]), cloud([(5.0, -1.0)])) == 5.0
        assert choose_s(cloud([(0.0, 0.0)]), cloud([(1.0, 3.0)])) == 3.0
        assert choose_s(cloud([(0.0, 1.0), (0.5, 4.0)]), EMPTY2) == 3.0
        assert choose_s(EMPTY2, cloud([(-2.0, 1.0), (0.5, 1.5)])) == 2.5
        assert choose_s(PointCloud([(0.25,)]), PointCloud([(-1.0,), (0.5,)])) == 1.5

    def test_floor_for_singletons(self):
        assert choose_s(cloud([(1.0, 1.0)]), EMPTY2) == 1.0
        assert choose_s(EMPTY2, cloud([(-3.0, 7.0)])) == 1.0
        # coincident points of the two clouds have no extent either
        assert choose_s(cloud([(1.0, 1.0)]), cloud([(1.0, 1.0)])) == 1.0

    def test_equilateral(self):
        t = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        assert choose_s(cloud(t), EMPTY2) == 1.0
        assert choose_s(cloud(t[:1]), cloud(t[1:])) == 1.0

    def test_scales_with_the_cloud(self):
        rng = np.random.default_rng(31)
        x1, x2 = rng.random((4, 3)), rng.random((6, 3)) - 0.5
        base = choose_s(PointCloud(x1.tolist()), PointCloud(x2.tolist()))
        for c in (1e-12, 0.75, 3.0, 1e40):
            s = choose_s(PointCloud((c * x1).tolist()), PointCloud((c * x2).tolist()))
            assert math.isclose(s, c * base, rel_tol=1e-15)


class TestLift:
    def test_basic(self):
        x1, x2 = cloud([(0.0, 0.0)]), cloud([(3.0, 0.0)])
        cfg = lift(x1, x2, s=2.0)
        assert [p.coords for p in cfg.z] == [(0.0, 0.0, 2.0), (3.0, 0.0, -2.0)]
        # X1 comes first: z[i] is x1[i] for i < len(x1), else x2[i - len(x1)].
        assert len(cfg.x1) == 1
        assert cfg.z[0].coords[:-1] == x1[0].coords and cfg.z[0].coords[-1] > 0
        assert cfg.z[1].coords[:-1] == x2[0].coords and cfg.z[1].coords[-1] < 0

    def test_shared_base_point_is_fine(self):
        cfg = lift(cloud([(1.0, 1.0)]), cloud([(1.0, 1.0)]), s=1.0)
        assert [p.coords for p in cfg.z] == [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0)]

    def test_x2_empty(self):
        cfg = lift(cloud([(0.0, 1.0), (2.0, 0.0)]), EMPTY2, s=1.5)
        assert len(cfg.x1) == len(cfg.z)
        assert [p.coords[-1] for p in cfg.z] == [1.5, 1.5]

    def test_nonpositive_s_rejected(self):
        with pytest.raises(InputError):
            lift(cloud([(0.0, 0.0)]), EMPTY2, s=0.0)


class TestRelativeDelcech:
    def test_two_point_example(self):
        fc = relative_delcech(cloud([(0.0, 0.0)]), cloud([(3.0, 0.0)]))
        by_simplex = {c.simplex.vertices: c for c in fc.cells}
        assert set(by_simplex) == {(0,), (1,), (0, 1)}
        assert by_simplex[(0,)].in_subcomplex
        assert not by_simplex[(1,)].in_subcomplex
        assert by_simplex[(1,)].value == 0.0
        assert not by_simplex[(0, 1)].in_subcomplex
        assert abs(by_simplex[(0, 1)].value - 1.5) < 1e-12

    def test_empty_x1_gives_plain_delaunay_cech(self):
        pts = [(0.1, 0.2), (0.9, 0.1), (0.4, 0.8), (0.6, 0.4)]
        fc = relative_delcech(EMPTY2, cloud(pts))
        assert not any(c.in_subcomplex for c in fc.cells)
        # same simplices and values as the unlifted Delaunay-Cech filtration
        from reldelcech.geometry import smallest_enclosing_ball

        tri = delaunay(cloud(pts))
        expected = {}
        for s in tri.simplices():
            expected[s.vertices] = smallest_enclosing_ball(
                [pts[v] for v in s.vertices]
            ).radius
        got = {c.simplex.vertices: c.value for c in fc.cells}
        assert set(got) == set(expected)
        for k in expected:
            assert abs(got[k] - expected[k]) < 1e-12

    def test_line_example_subcomplex_edge(self):
        # X1 = {0, 2}, X2 = {1} on the line: the lifted X1 edge must be a
        # marked subcomplex cell, matching del(X1) computed in dimension 1
        x1 = PointCloud([(0.0,), (2.0,)])
        x2 = PointCloud([(1.0,)])
        pipe = build_pipeline(x1, x2)
        by_simplex = {c.simplex.vertices: c for c in pipe.complex.cells}
        assert by_simplex[(0, 1)].in_subcomplex
        assert by_simplex[(0,)].in_subcomplex
        assert by_simplex[(1,)].in_subcomplex
        assert not by_simplex[(2,)].in_subcomplex
        del_x1 = delaunay(x1)
        lifted = {s.vertices for s in del_x1.simplices()}
        marked = {v for v, c in by_simplex.items() if c.in_subcomplex}
        assert lifted == marked

    def test_all_subcomplex_when_x2_empty(self):
        fc = relative_delcech(cloud([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)]), EMPTY2)
        assert all(c.in_subcomplex for c in fc.cells)

    def test_dimension_cap(self):
        c4 = PointCloud([(0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(InputError):
            relative_delcech(c4, PointCloud([], dimension=4))

    def test_both_empty_rejected(self):
        with pytest.raises(InputError):
            relative_delcech(EMPTY2, EMPTY2)

    def test_shared_points_projected_meb_deduplicates(self):
        # a z-edge over one shared base point projects to a single point
        fc = relative_delcech(cloud([(1.0, 1.0)]), cloud([(1.0, 1.0)]))
        by_simplex = {c.simplex.vertices: c for c in fc.cells}
        assert by_simplex[(0, 1)].value == 0.0


X1_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.2, 0.8)]
X2_AROUND = [(0.5, -0.7), (1.6, 0.9), (-0.6, 1.1), (0.6, 0.35)]
# The 12 integer points on the circle of radius 5: exactly cocircular.
RING = [(5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0)]
RING += [(a * x, b * y) for x, y in ((3.0, 4.0), (4.0, 3.0)) for a in (-1, 1) for b in (-1, 1)]


def count_delaunay_calls(monkeypatch) -> list[int]:
    """Dimension of the cloud of every delaunay call build_pipeline makes."""
    calls = []
    real = relative_lift.delaunay

    def counting(c):
        calls.append(c.dimension)
        return real(c)

    monkeypatch.setattr(relative_lift, "delaunay", counting)
    return calls


def drop_lifted_x1_edge(monkeypatch, n1: int, d: int):
    """Make del(Z) lose one lifted del(X1) edge, with every top on it."""
    real = relative_lift.delaunay

    def broken(c):
        t = real(c)
        if c.dimension != d + 1:
            return t
        edge = next(e.vertices for e in t.faces(1) if e.vertices[-1] < n1)
        tops = [top for top in t.top_simplices if not set(edge) <= set(top.vertices)]
        return Triangulation(c, tops, t.top_dim, t._space)

    monkeypatch.setattr(relative_lift, "delaunay", broken)


def drop_x1_top(monkeypatch, d: int):
    """Make del(X1) lose one top; its lifted copy stays inside del(Z)."""
    real = relative_lift.delaunay

    def broken(c):
        t = real(c)
        if c.dimension != d:
            return t
        return Triangulation(c, list(t.top_simplices[1:]), t.top_dim, t._space)

    monkeypatch.setattr(relative_lift, "delaunay", broken)


class TestSharedTriangulations:
    def test_two_calls_x1_and_z(self, monkeypatch):
        calls = count_delaunay_calls(monkeypatch)
        build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))
        assert calls == [2, 3]  # X1, Z

    def test_empty_x1_is_not_triangulated(self, monkeypatch):
        calls = count_delaunay_calls(monkeypatch)
        build_pipeline(EMPTY2, cloud(X2_AROUND))
        assert calls == [3]  # Z

    def test_empty_x2_triangulates_x1_and_z(self, monkeypatch):
        # Z is X1 at height +s, so del(Z) is the lifted del(X1): the check
        # passes and every cell is in the subcomplex.
        calls = count_delaunay_calls(monkeypatch)
        pipe = build_pipeline(cloud(X2_AROUND), EMPTY2)
        assert calls == [2, 3]  # X1, Z
        assert all(c.in_subcomplex for c in pipe.complex.cells)

    def test_cocircular_ring_with_a_all_exits_0(self, tmp_path, capsys):
        # A second triangulation of the flat Z broke the ring's cocircular
        # ties unlike del(X1) and failed the del(X1) check.
        pts = tmp_path / "ring.csv"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in RING))
        sub = tmp_path / "a.txt"
        sub.write_text("".join(f"{i}\n" for i in range(len(RING))))
        assert cli.main(["compute", str(pts), "--subset-indices", str(sub)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [d["bars"] for d in out["dims"]] == [[], [], []]

    def test_missing_x1_simplex_raises(self, monkeypatch):
        drop_lifted_x1_edge(monkeypatch, n1=3, d=2)
        with pytest.raises(AssertionError, match=r"lifted del\(X1\) simplex \(\d+, \d+\) missing"):
            build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))

    def test_missing_x1_simplex_exits_1(self, monkeypatch, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in X1_TRIANGLE + X2_AROUND))
        sub = tmp_path / "a.txt"
        sub.write_text("0\n1\n2\n")
        assert cli.main(["compute", str(pts), "--subset-indices", str(sub)]) == 0
        capsys.readouterr()
        drop_lifted_x1_edge(monkeypatch, n1=3, d=2)
        assert cli.main(["compute", str(pts), "--subset-indices", str(sub)]) == 1
        assert "AssertionError" in capsys.readouterr().err

    def test_extra_all_plus_simplex_raises_and_exits_1(self, monkeypatch, tmp_path, capsys):
        # The all-plus cells of del(Z) must equal the lifted del(X1), not
        # only contain it: a del(X1) that lost a top is caught too.
        drop_x1_top(monkeypatch, d=2)
        with pytest.raises(AssertionError, match=r"all-plus simplex \(\d+(, \d+)+\) of del\(Z\) is not in del\(X1\)"):
            build_pipeline(cloud(X2_AROUND), cloud(X1_TRIANGLE))
        pts = tmp_path / "pts.csv"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in X2_AROUND + X1_TRIANGLE))
        sub = tmp_path / "a.txt"
        sub.write_text("0\n1\n2\n3\n")
        assert cli.main(["compute", str(pts), "--subset-indices", str(sub)]) == 1
        assert "all-plus simplex" in capsys.readouterr().err


def s_invariance_clouds():
    """Named clouds in general and in degenerate position: integer grids,
    collinear and coplanar sets (a flat Z once both slabs are non-empty)
    and an exactly cocircular ring."""
    rng = np.random.default_rng(51)
    out = [(f"random d={d}", rng.random((7, d)).tolist()) for d in (1, 2, 3)]
    out.append(("grid 3x4", [[float(i), float(j)] for i in range(3) for j in range(4)]))
    out.append(("grid 2x2x3", [[float(i), float(j), float(k)] for i in range(2) for j in range(2) for k in range(3)]))
    out.append(("collinear 2d", [[t, 2.0 * t + 1.0] for t in (0.0, 0.5, 1.25, 2.0, 3.0, 3.5)]))
    out.append(("collinear 3d", [[t, -t, 0.5 * t] for t in (0.0, 1.0, 1.5, 2.5, 4.0)]))
    uv = rng.random((7, 2))
    out.append(("coplanar", [[u, v, u + 2.0 * v] for u, v in uv.tolist()]))
    out.append(("coplanar grid", [[float(i), float(j), 0.0] for i in range(3) for j in range(3)]))
    out.append(("ring", RING))
    return out


def complex_or_failure(x1, x2) -> str:
    """The dumped complex, or the failed del(X1) check, which must not
    depend on s either."""
    try:
        return dumps(build_pipeline(x1, x2).complex)
    except AssertionError as e:
        return repr(e)


class TestSInvariance:
    def test_scaled_s_gives_identical_complex(self, monkeypatch):
        rng = np.random.default_rng(52)
        real = relative_lift.choose_s
        clouds = s_invariance_clouds()
        built = 0
        for name, pts in clouds:
            x = PointCloud(pts)
            n = len(x)
            for a in ({i for i in range(n) if rng.random() < 0.5}, set(), set(range(n))):
                x1, x2 = cli.split_pair(x, a)
                base = complex_or_failure(x1, x2)
                built += not base.startswith("AssertionError")
                for c in (1e-3, 0.75, 1e3):
                    monkeypatch.setattr(relative_lift, "choose_s", lambda y1, y2, c=c: c * real(y1, y2))
                    assert complex_or_failure(x1, x2) == base, (name, sorted(a), c)
                monkeypatch.setattr(relative_lift, "choose_s", real)
        assert built == 3 * len(clouds)
        # build_pipeline lifts to the height choose_s returns.
        x1, x2 = cloud(X1_TRIANGLE), cloud(X2_AROUND)
        monkeypatch.setattr(relative_lift, "choose_s", lambda y1, y2: 1e3 * real(y1, y2))
        assert build_pipeline(x1, x2).cfg.s == 1e3 * real(x1, x2)

    def test_vertex_order_invariance_of_barcode(self):
        rng = np.random.default_rng(53)
        d = 2
        pts1 = np.unique(rng.random((4, d)), axis=0)
        pts2 = np.unique(rng.random((5, d)), axis=0)
        x1 = PointCloud(pts1.tolist())
        x2 = PointCloud(pts2.tolist())
        base = barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=d)
        for _ in range(3):
            perm1 = rng.permutation(len(pts1))
            perm2 = rng.permutation(len(pts2))
            y1 = PointCloud(pts1[perm1].tolist())
            y2 = PointCloud(pts2[perm2].tolist())
            alt = barcode(build_pipeline(y1, y2).complex, relative=True, max_dim=d)
            assert compare_barcodes(base, alt, tol=1e-9).matched


def filtration_clouds():
    """Named clouds for the face rule of the filtration: general position
    in d = 1..3, integer grids (cospherical supports), an exactly
    cocircular ring, a collinear set, and clouds far from unit scale."""
    rng = np.random.default_rng(81)
    out = [(f"random d={d}", rng.random((n, d)).tolist()) for d, n in ((1, 9), (2, 14), (3, 12))]
    for shape in ((4, 4), (6, 5), (3, 3, 2), (4, 4, 4)):
        out.append((f"grid {shape}", [[float(c) for c in p] for p in np.ndindex(*shape)]))
    out.append(("ring", RING))
    out.append(("collinear", [[t, 0.5 * t - 1.0] for t in rng.random(8).tolist()]))
    out.append(("scaled 1e-8", (1e-8 * rng.random((12, 2))).tolist()))
    out.append(("translated 1e5", (1e5 + rng.random((12, 2))).tolist()))
    out.append(("far grid", [[1e5 + i * 2.0**-10, 1e5 + j * 2.0**-10] for i in range(4) for j in range(4)]))
    return out


class TestFiltration:
    def test_values_match_welzl_per_cell(self):
        # Every non-subcomplex cell's value is Welzl's radius of its
        # projected vertices, raised to its faces' values: the face rule
        # changes how the ball is found, never the value.
        rng = np.random.default_rng(82)
        checked = 0
        for name, pts in filtration_clouds():
            x = PointCloud(pts)
            for _ in range(6):
                a = set(rng.choice(len(x), size=int(rng.integers(1, len(x))), replace=False).tolist())
                x1, x2 = cli.split_pair(x, a)
                pipe = build_pipeline(x1, x2)
                values = {c.simplex.vertices: c.value for c in pipe.complex.cells}
                for c in pipe.complex.cells:
                    if c.in_subcomplex:
                        continue
                    vs = c.simplex.vertices
                    want = smallest_enclosing_ball([pipe.cfg.z[v].coords[:-1] for v in vs]).radius
                    if len(vs) > 1:
                        want = max(want, max(values[vs[:i] + vs[i + 1 :]] for i in range(len(vs))))
                    assert c.value == want, (name, sorted(a), vs)
                    checked += 1
        assert checked > 10000

    @pytest.mark.parametrize("d, n", [(2, 60), (3, 30)])
    def test_face_balls_replace_most_welzl_calls(self, d, n, monkeypatch):
        # In general position every ball comes from a facet or from the
        # cell's own circumball, which some cells need: Welzl never runs.
        calls, own = [], []
        real = relative_lift.smallest_enclosing_ball
        monkeypatch.setattr(relative_lift, "smallest_enclosing_ball", lambda pts: calls.append(1) or real(pts))
        real_weights = relative_lift.circumball_weights

        def counting_weights(pts):
            out = real_weights(pts)
            if out[2] is not None and min(out[2]) > relative_lift._INTERIOR:
                own.append(1)
            return out

        monkeypatch.setattr(relative_lift, "circumball_weights", counting_weights)
        x = PointCloud(np.random.default_rng(83).random((n, d)).tolist())
        build_pipeline(*cli.split_pair(x, set(range(0, n, 4))))
        assert len(calls) == 0
        assert len(own) > 0

    def test_center_near_a_face_falls_back_to_welzl(self, monkeypatch):
        # An acute triangle that is nearly right-angled at its top vertex:
        # no edge ball holds the opposite vertex, and the circumcenter's
        # weight on the top vertex (about 1e-7) is below the interior
        # margin, so Welzl decides, and every value is Welzl's.
        calls = []
        real = relative_lift.smallest_enclosing_ball
        monkeypatch.setattr(relative_lift, "smallest_enclosing_ball", lambda pts: calls.append(1) or real(pts))
        pipe = build_pipeline(cloud([(-1.0, 0.0)]), cloud([(1.0, 0.0), (0.0, 1.0 + 1e-7)]))
        assert len(calls) == 1
        values = {c.simplex.vertices: c.value for c in pipe.complex.cells}
        assert len(values) == 7
        for c in pipe.complex.cells:
            if c.in_subcomplex:
                continue
            vs = c.simplex.vertices
            want = real([pipe.cfg.z[v].coords[:-1] for v in vs]).radius
            if len(vs) > 1:
                want = max(want, max(values[vs[:i] + vs[i + 1 :]] for i in range(len(vs))))
            assert c.value == want, vs


class TestVerifyEmbedding:
    def test_random_instances_pass(self):
        rng = np.random.default_rng(57)
        for trial in range(9):
            d = [1, 2, 3][trial % 3]
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            x1 = PointCloud(np.unique(rng.random((n1, d)), axis=0).tolist())
            x2 = PointCloud(np.unique(rng.random((n2, d)), axis=0).tolist())
            pipe = build_pipeline(x1, x2)
            rep = verify_embedding(pipe.cfg, pipe.triangulation)
            assert rep.ok, rep.text()

    def test_x2_empty_trivially_passes(self):
        x1 = cloud([(0.0, 0.0), (1.0, 0.0), (0.2, 0.8)])
        pipe = build_pipeline(x1, EMPTY2)
        rep = verify_embedding(pipe.cfg, pipe.triangulation)
        assert rep.ok
        assert rep.x2_embedded and rep.plus_matches

    def test_report_text_mentions_failures(self):
        from reldelcech.relative_lift import EmbeddingReport

        rep = EmbeddingReport(
            x1_embedded=False,
            x2_embedded=True,
            plus_matches=True,
            missing_x1=[(0, 1)],
            missing_x2=[],
            plus_mismatch=[],
        )
        assert not rep.ok
        text = rep.text()
        assert "FAIL" in text and "(0, 1)" in text

    def test_degenerate_shared_square_is_flagged_or_consistent(self):
        # Fully shared cocircular squares: the heights-first tie breaks of
        # del(Z) restrict to those of del(X1) and del(X2).
        sq = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        pipe = build_pipeline(cloud(sq), cloud(sq))
        rep = verify_embedding(pipe.cfg, pipe.triangulation)
        assert rep.ok, rep.text()


OCTAHEDRON = [tuple(float(s * (i == c)) for i in range(3)) for c in range(3) for s in (1, -1)]
# Isometries (up to a scale of 3 and 7) of R^2 onto tilted planes of R^3,
# with integer images, so that cospherical subsets stay exactly so.
PLANES = {
    "xy": ((1, 0, 0), (0, 1, 0)),
    "xz": ((1, 0, 0), (0, 0, 1)),
    "tilt3": ((1, 2, 2), (2, 1, -2)),
    "tilt7": ((2, 3, 6), (3, -6, 2)),
}


def grid(*shape):
    return [tuple(float(c) for c in p) for p in np.ndindex(*shape)]


def random_subsets(n: int, k: int, seed: int) -> list[set[int]]:
    rng = np.random.default_rng(seed)
    return [set(np.flatnonzero(rng.random(n) < 0.5).tolist()) for _ in range(k)]


def assert_pair_matches_oracle(x: PointCloud, a: set[int]):
    """build_pipeline runs (its subcomplex check included), del(Z) has
    Euler characteristic 1 (it triangulates a convex polytope), all three
    embedding checks pass, and the barcode is the brute-force oracle's."""
    pipe = build_pipeline(*cli.split_pair(x, a))
    tri = pipe.triangulation
    assert sum((-1) ** s.dim for s in tri.simplices()) == 1, sorted(a)
    rep = verify_embedding(pipe.cfg, tri)
    assert rep.ok, (sorted(a), rep.text())
    d = x.dimension
    got = barcode(pipe.complex, relative=True, max_dim=d)
    want = barcode(relative_cech(x, a, max_simplex_dim=d + 1), relative=True, max_dim=d)
    diff = compare_barcodes(got, want, tol=1e-9)
    assert diff.matched, (sorted(a), diff.text())


# Small degenerate clouds: integer grids, and the radius-5 integer ring and
# the octahedron with their centres; (cloud, random subsets A, seed).
DEGENERATE = {
    **{f"grid{'x'.join(map(str, s))}": (grid(*s), 15, 100 + i)
       for i, s in enumerate([(3, 4), (2, 6), (3, 3), (4, 3), (2, 2, 2), (2, 2, 3)])},
    "ring+centre": (RING + [(0.0, 0.0)], 8, 213),
    "octahedron+centre": (OCTAHEDRON + [(0.0, 0.0, 0.0)], 8, 207),
}
FLAT = {"grid3x3": grid(3, 3), "grid3x4": grid(3, 4), "grid2x6": grid(2, 6), "ring": RING, "ring+centre": RING + [(0.0, 0.0)]}


class TestDegenerateCorpus:
    """Exact ties beyond general position.  Breaking them by the moment
    curve alone needed flat mixed-slab cells in del(Z), which the vertical
    test drops: a crack (a spurious infinite bar) or a missing del(X1)
    simplex.  Breaking them by the lift heights first makes del(Z) restrict
    to del(X1) and del(X2) (Cayley trick)."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_matches_oracle(self, name):
        pts, k, seed = DEGENERATE[name]
        for a in random_subsets(len(pts), k, seed):
            assert_pair_matches_oracle(PointCloud(pts), a)

    @pytest.mark.parametrize("name", sorted(FLAT))
    def test_flat_embeddings_match_oracle(self, name):
        # The cloud in four planes of R^3: Z is flat, its coordinates are
        # pivot columns, and the tilted planes have no axis-parallel ones.
        pts = FLAT[name]
        for k, (u, v) in enumerate(PLANES.values()):
            x = PointCloud([tuple(p * a + q * b for a, b in zip(u, v)) for p, q in pts])
            for a in random_subsets(len(pts), 3, 300 + 4 * sorted(FLAT).index(name) + k):
                assert_pair_matches_oracle(x, a)

    def test_ring_over_unit_square(self):
        # Once exited 1 with "lifted del(X1) simplex (4, 6) missing".  16
        # points: beyond the oracle's cap, so the structural checks only.
        sq = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        pipe = build_pipeline(cloud(RING), cloud(sq))
        assert sum((-1) ** s.dim for s in pipe.triangulation.simplices()) == 1
        rep = verify_embedding(pipe.cfg, pipe.triangulation)
        assert rep.ok, rep.text()


class TestPipelineBarcodes:
    def test_relative_pair_single_a(self):
        x1 = cloud([(0.0, 0.0)])
        x2 = cloud([(2.0, 0.0)])
        fc = relative_delcech(x1, x2)
        b = barcode(fc, relative=True, max_dim=2)
        assert b.bars(0) == [(0.0, 1.0)]
        assert not any(math.isinf(d) for _, d in b.bars(0))

    def test_line_triple_relative(self):
        x1 = PointCloud([(0.0,), (2.0,)])
        x2 = PointCloud([(1.0,)])
        b = barcode(relative_delcech(x1, x2), relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, 0.5)]
        assert b.bars(1) == [(0.5, 1.0)]

    def test_monotone_complex_always_builds(self):
        rng = np.random.default_rng(61)
        for trial in range(10):
            d = [1, 2, 3][trial % 3]
            n1, n2 = int(rng.integers(0, 5)), int(rng.integers(1, 6))
            x1 = PointCloud(
                np.unique(rng.random((n1, d)), axis=0).tolist() if n1 else [],
                dimension=d,
            )
            x2 = PointCloud(np.unique(rng.random((n2, d)), axis=0).tolist())
            relative_delcech(x1, x2)  # build() validates every invariant


class TestScaleEquivariance:
    """Scaling the cloud by c scales every bar by c: no absolute tolerance
    may hide small features or merge close points."""

    @staticmethod
    def _barcode(x, a):
        x1, x2 = cli.split_pair(PointCloud(x.tolist()), a)
        return barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=2)

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e40])
    def test_scaled_barcode(self, c):
        x = np.random.default_rng(1).random((9, 2))
        a = {0, 3, 4}
        base = self._barcode(x, a)
        scaled = self._barcode(x * c, a)
        assert [len(base.bars(k)) for k in base.dims()] == [6, 5, 0]
        for k in base.dims():
            assert len(scaled.bars(k)) == len(base.bars(k)), (k, scaled, base)
            for got, want in zip(scaled.bars(k), base.bars(k)):
                assert all(math.isclose(g, c * w, rel_tol=1e-9) for g, w in zip(got, want))
