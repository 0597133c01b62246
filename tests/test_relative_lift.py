import importlib
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from _faults import certify_nothing
from _oracles import qhull_relative_barcode, welzl_values

from reldelcech import cli, relative_lift
from reldelcech.cech_oracle import compare_barcodes, relative_cech
from reldelcech.delaunay import Triangulation, delaunay
from reldelcech.filtered_complex import Simplex, dumps
from reldelcech.geometry import InputError, PointCloud, circumball_weights, smallest_enclosing_ball
from reldelcech.persistence import Barcode, barcode
from reldelcech.relative_lift import (
    build_pipeline,
    choose_s,
    lift,
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
        assert np.array_equal(cfg.z.coords[0, :-1], x1.coords[0]) and cfg.z.coords[0, -1] > 0
        assert np.array_equal(cfg.z.coords[1, :-1], x2.coords[0]) and cfg.z.coords[1, -1] < 0

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

    def test_pair_dimensions_are_checked(self):
        # An empty cloud has a dimension too: it must match the other's,
        # which is then at most 3.
        pairs = [
            (PointCloud([], dimension=3), cloud([(0.0, 0.0)])),
            (cloud([(0.0, 0.0)]), PointCloud([], dimension=1)),
            (cloud([(0.0, 0.0), (1.0, 0.0)]), cloud([(0.5, 0.5, 0.5)])),
        ]
        for x1, x2 in pairs:
            with pytest.raises(InputError, match="share a dimension"):
                lift(x1, x2, s=1.0)
            with pytest.raises(InputError, match="share a dimension"):
                build_pipeline(x1, x2)
        with pytest.raises(InputError, match="at most 3"):
            build_pipeline(PointCloud([], dimension=4), PointCloud([(0.0, 0.0, 0.0, 1.0)]))
        with pytest.raises(InputError, match="at most 3"):
            build_pipeline(PointCloud([(0.0, 0.0, 0.0, 1.0)]), PointCloud([], dimension=4))


class TestRelativeDelcech:
    def test_two_point_example(self):
        fc = build_pipeline(cloud([(0.0, 0.0)]), cloud([(3.0, 0.0)])).complex
        by_simplex = {c.simplex.vertices: c for c in fc.cells}
        assert set(by_simplex) == {(0,), (1,), (0, 1)}
        assert by_simplex[(0,)].in_subcomplex
        assert not by_simplex[(1,)].in_subcomplex
        assert by_simplex[(1,)].value == 0.0
        assert not by_simplex[(0, 1)].in_subcomplex
        assert abs(by_simplex[(0, 1)].value - 1.5) < 1e-12

    def test_empty_x1_gives_plain_delaunay_cech(self):
        pts = [(0.1, 0.2), (0.9, 0.1), (0.4, 0.8), (0.6, 0.4)]
        fc = build_pipeline(EMPTY2, cloud(pts)).complex
        assert not any(c.in_subcomplex for c in fc.cells)
        # same simplices and values as the unlifted Delaunay-Cech filtration
        from reldelcech.geometry import smallest_enclosing_ball

        tri = delaunay(cloud(pts))
        expected = {}
        for table in tri.tables:
            for vs in map(tuple, table.simplices.tolist()):
                _, expected[vs] = smallest_enclosing_ball([pts[v] for v in vs])
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
        lifted = {tuple(vs) for table in del_x1.tables for vs in table.simplices.tolist()}
        marked = {v for v, c in by_simplex.items() if c.in_subcomplex}
        assert lifted == marked

    def test_all_subcomplex_when_x2_empty(self):
        fc = build_pipeline(cloud([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)]), EMPTY2).complex
        assert all(c.in_subcomplex for c in fc.cells)

    def test_dimension_cap(self):
        c4 = PointCloud([(0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(InputError):
            build_pipeline(c4, PointCloud([], dimension=4)).complex

    def test_both_empty_rejected(self):
        with pytest.raises(InputError):
            build_pipeline(EMPTY2, EMPTY2).complex

    def test_shared_points_projected_meb_deduplicates(self):
        # a z-edge over one shared base point projects to a single point
        fc = build_pipeline(cloud([(1.0, 1.0)]), cloud([(1.0, 1.0)])).complex
        by_simplex = {c.simplex.vertices: c for c in fc.cells}
        assert by_simplex[(0, 1)].value == 0.0


X1_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.2, 0.8)]
X2_AROUND = [(0.5, -0.7), (1.6, 0.9), (-0.6, 1.1), (0.6, 0.35)]
# The 12 integer points on the circle of radius 5: exactly cocircular.
RING = [(5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0)]
RING += [(a * x, b * y) for x, y in ((3.0, 4.0), (4.0, 3.0)) for a in (-1, 1) for b in (-1, 1)]


def count_delaunay_calls(monkeypatch) -> list[tuple[int, ...]]:
    """For every delaunay call build_pipeline makes, the dimensions of the
    clouds it triangulates."""
    calls = []
    real = relative_lift.delaunay

    def counting(*clouds):
        calls.append(tuple(c.dimension for c in clouds))
        return real(*clouds)

    monkeypatch.setattr(relative_lift, "delaunay", counting)
    return calls


def drop_lifted_edge(monkeypatch, lo: int, hi: int):
    """Make del(Z) lose one edge with both vertices in range(lo, hi), a
    lifted del(X1) or del(X2) edge, with every top on it."""
    real = relative_lift.pair_delaunay

    def broken(z, tri1, tri2):
        t = real(z, tri1, tri2)
        edge = next(e for e in t.tables[1].simplices.tolist() if lo <= e[0] and e[-1] < hi)
        tops = [top for top in t.tops.tolist() if not set(edge) <= set(top)]
        return Triangulation(z, np.array(tops))

    monkeypatch.setattr(relative_lift, "pair_delaunay", broken)


def drop_top(monkeypatch, call: int, k: int = 0):
    """Make every delaunay call of build_pipeline and verify_embedding lose
    top k of its call-th triangulation: on a pair of non-empty clouds,
    which one call triangulates, 0 is del(X1) and 1 del(X2); with a side
    empty, the one triangulation is 0."""
    real = relative_lift.delaunay

    def broken(*clouds):
        tris = real(*clouds)
        tris = list(tris) if len(clouds) > 1 else [tris]
        if call < len(tris):
            t = tris[call]
            tris[call] = Triangulation(t.cloud, np.delete(t.tops, k, axis=0))
        return tuple(tris) if len(clouds) > 1 else tris[0]

    monkeypatch.setattr(relative_lift, "delaunay", broken)


def drop_x1_top(monkeypatch, k: int = 0):
    drop_top(monkeypatch, 0, k)


def drop_x2_top(monkeypatch, k: int = 0):
    drop_top(monkeypatch, 1, k)


def check_with_true_triangulations(monkeypatch):
    """Build del(Z) from unbroken del(X1) and del(X2), so that only the
    subcomplex checks see a stub's triangulations."""
    real = relative_lift.pair_delaunay

    def rebuilt(z, tri1, tri2):
        return real(z, *(t and delaunay(t.cloud) for t in (tri1, tri2)))

    monkeypatch.setattr(relative_lift, "pair_delaunay", rebuilt)


def write_pair(tmp_path, x1, x2) -> list[str]:
    """`compute` arguments for the pair (x1 + x2, indices of x1)."""
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in list(x1) + list(x2)))
    sub = tmp_path / "a.txt"
    sub.write_text("".join(f"{i}\n" for i in range(len(x1))))
    return ["compute", str(pts), "--subset-indices", str(sub)]


# A pair whose dropped tops break del(Z) in each of its ways: a third top
# on a ridge, a vertex in no top, a hole whose boundary ridge has vertices
# beyond it, or a slab that is not the broken triangulation.
_RNG = np.random.default_rng(71)
X1_EIGHT, X2_EIGHT = _RNG.random((8, 2)).tolist(), _RNG.random((8, 2)).tolist()
BROKEN_WRAP = r"has \d+ tops|is in no top|lies beyond the boundary ridge|has no top"


class TestSharedTriangulations:
    def test_one_call_for_x1_and_x2(self, monkeypatch):
        calls = count_delaunay_calls(monkeypatch)
        build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))
        assert calls == [(2, 2)]  # X1 and X2 at once; del(Z) is wrapped from them

    def test_empty_x1_is_not_triangulated(self, monkeypatch):
        calls = count_delaunay_calls(monkeypatch)
        build_pipeline(EMPTY2, cloud(X2_AROUND))
        assert calls == [(2,)]  # X2

    def test_empty_x2_triangulates_x1_once(self, monkeypatch):
        # Z is X1 at height +s, so del(Z) is the lifted del(X1): the check
        # passes and every cell is in the subcomplex.
        calls = count_delaunay_calls(monkeypatch)
        pipe = build_pipeline(cloud(X2_AROUND), EMPTY2)
        assert calls == [(2,)]  # X1
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
        drop_lifted_edge(monkeypatch, 0, 3)
        with pytest.raises(AssertionError, match=r"lifted del\(X1\) simplex \(\d+, \d+\) missing"):
            build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))

    def test_missing_x2_simplex_raises(self, monkeypatch):
        drop_lifted_edge(monkeypatch, 3, 7)
        with pytest.raises(AssertionError, match=r"lifted del\(X2\) simplex \(\d+, \d+\) missing"):
            build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))

    def test_missing_x1_simplex_exits_1(self, monkeypatch, tmp_path, capsys):
        args = write_pair(tmp_path, X1_TRIANGLE, X2_AROUND)
        assert cli.main(args) == 0
        capsys.readouterr()
        drop_lifted_edge(monkeypatch, 0, 3)
        assert cli.main(args) == 1
        assert "AssertionError" in capsys.readouterr().err

    def test_extra_all_plus_simplex_raises_and_exits_1(self, monkeypatch, tmp_path, capsys):
        # The all-plus cells of del(Z) must equal the lifted del(X1), not
        # only contain it: a del(X1) that lost a top is caught too.
        drop_x1_top(monkeypatch)
        check_with_true_triangulations(monkeypatch)
        with pytest.raises(AssertionError, match=r"all-plus simplex \(\d+(, \d+)+\) of del\(Z\) is not in del\(X1\)"):
            build_pipeline(cloud(X2_AROUND), cloud(X1_TRIANGLE))
        assert cli.main(write_pair(tmp_path, X2_AROUND, X1_TRIANGLE)) == 1
        assert "all-plus simplex" in capsys.readouterr().err

    def test_extra_all_minus_simplex_raises(self, monkeypatch):
        drop_x2_top(monkeypatch)
        check_with_true_triangulations(monkeypatch)
        with pytest.raises(AssertionError, match=r"all-minus simplex \(\d+(, \d+)+\) of del\(Z\) is not in del\(X2\)"):
            build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_broken_triangulation_with_a_side_empty_raises(self, empty_side, monkeypatch):
        # del(Z) is then the one triangulation itself, which nothing else
        # cross-checks: a lost top leaves a hole or an uncovered vertex.
        x = cloud(X1_EIGHT)
        pair = (EMPTY2, x) if empty_side == 0 else (x, EMPTY2)
        for k in range(len(delaunay(x).tops)):
            with monkeypatch.context() as m:
                drop_top(m, 0, k)  # the only triangulation of the run
                with pytest.raises(AssertionError, match=r"lies beyond the boundary ridge|is in no top"):
                    build_pipeline(*pair)

    @pytest.mark.parametrize("drop", [drop_x1_top, drop_x2_top])
    def test_wrap_from_a_broken_triangulation_raises_and_exits_1(self, drop, monkeypatch, tmp_path, capsys):
        # del(Z) is wrapped from the broken triangulation itself.  A lost
        # top leaves a third top on a ridge, a vertex in no top or a hole,
        # which the check of del(Z) reports; or the wrap, whose candidates
        # come from the edges, rebuilds the true del(Z), and the slab check
        # names the lost top.  Each way must occur: all four for del(X1),
        # the slab check and a third top for del(X2).
        x1, x2 = cloud(X1_EIGHT), cloud(X2_EIGHT)
        if drop is drop_x1_top:
            tops, lo, slab, want = delaunay(x1).tops, 0, "all-plus simplex {} of del(Z) is not in del(X1)", {"slab", "beyond", "third", "uncovered"}
        else:
            tops, lo, slab, want = delaunay(x2).tops, len(x1), "all-minus simplex {} of del(Z) is not in del(X2)", {"slab", "third"}
        seen = set()
        for k, top in enumerate(tops.tolist()):
            with monkeypatch.context() as m:
                drop(m, k)
                with pytest.raises(AssertionError, match=rf"{BROKEN_WRAP}|is not in del\(X[12]\)") as err:
                    build_pipeline(x1, x2)
            if "is not in" in str(err.value):
                assert str(err.value) == slab.format(tuple(v + lo for v in top))
                seen.add("slab")
            else:
                seen.add(next(mode for key, mode in (("tops", "third"), ("no top", "uncovered"), ("beyond", "beyond")) if key in str(err.value)))
        assert seen == want
        drop(monkeypatch)
        assert cli.main(write_pair(tmp_path, X1_EIGHT, X2_EIGHT)) == 1
        assert "AssertionError" in capsys.readouterr().err


# Two crossing lines: neither cloud spans a slab of Z, so del(Z) is the
# lifted hull of Z (`delaunay.pair_delaunay`).
X1_LINE = [(t, 0.0) for t in (-2.0, -0.5, 1.0, 2.5)]
X2_LINE = [(0.5 + t, 2.0 * t) for t in (-1.0, 0.25, 1.5)]


def drop_hull_top(monkeypatch, k: int):
    """Make the lifted hull that `pair_delaunay` falls back on lose top k."""
    mod = importlib.import_module("reldelcech.delaunay")

    def broken(c):
        t = delaunay(c)
        return Triangulation(c, np.delete(t.tops, k, axis=0))

    monkeypatch.setattr(mod, "delaunay", broken)


class TestNonparallelFallback:
    def test_broken_hull_raises_and_exits_1(self, monkeypatch, tmp_path, capsys):
        # The hull's tops get the wrap's checks: each lost top leaves a
        # vertex beyond a boundary ridge, or a vertex in no top.
        for x1, x2 in ((cloud(X1_LINE), cloud(X2_LINE)), (cloud(X2_LINE), cloud(X1_LINE))):
            tops = delaunay(lift(x1, x2, 1.0).z).tops
            assert len(tops) == 6
            for k in range(len(tops)):
                with monkeypatch.context() as m:
                    drop_hull_top(m, k)
                    with pytest.raises(AssertionError, match=r"lies beyond the boundary ridge|is in no top"):
                        build_pipeline(x1, x2)
        drop_hull_top(monkeypatch, 0)
        assert cli.main(write_pair(tmp_path, X1_LINE, X2_LINE)) == 1
        assert "AssertionError" in capsys.readouterr().err

    def test_whole_hull_passes(self):
        for x1, x2 in ((X1_LINE, X2_LINE), (X2_LINE, X1_LINE)):
            pipe = build_pipeline(cloud(x1), cloud(x2))
            assert np.array_equal(pipe.triangulation.tops, delaunay(pipe.cfg.z).tops)


class TestRunPathBuildsNoSimplex:
    def test_pipeline_and_barcode(self, monkeypatch):
        # From the clouds to the barcode every complex is face tables:
        # random pairs in 2D and 3D, an empty side, and the crossing lines
        # that del(Z) falls back on the lifted hull for.
        def refuse(*args):
            raise AssertionError("a Simplex was built")

        monkeypatch.setattr(Simplex, "__init__", refuse)
        monkeypatch.setattr(Simplex, "_of", classmethod(refuse))
        rng = np.random.default_rng(87)
        pairs = [(rng.random((8, d)).tolist(), rng.random((20, d)).tolist()) for d in (2, 3)]
        pairs += [([], X2_AROUND), (X1_TRIANGLE, []), (X1_LINE, X2_LINE)]
        for x1, x2 in pairs:
            d = len((x1 or x2)[0])
            pipe = build_pipeline(PointCloud(x1, dimension=d), PointCloud(x2, dimension=d))
            barcode(pipe.complex, relative=True, max_dim=d)


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
                    _, want = smallest_enclosing_ball(pipe.cfg.z.coords[list(vs), :-1].tolist())
                    if len(vs) > 1:
                        want = max(want, max(values[vs[:i] + vs[i + 1 :]] for i in range(len(vs))))
                    assert c.value == want, (name, sorted(a), vs)
                    checked += 1
        assert checked > 10000

    def test_values_match_welzl_at_workload_sizes(self):
        # Welzl on every cell (`_oracles.welzl_values`) against the face
        # rule and the batched circumballs, bit for bit, on the benchmark's
        # shapes: uniform d=2 n=250 and d=3 n=80 with a quarter of the
        # points in A, the 12x12 and 4x4x4 grids with half.
        cells = 0
        for i, (shape, frac) in enumerate([((250, 2), 0.25), ((80, 3), 0.25), ((12, 12), 0.5), ((4, 4, 4), 0.5)] * 2):
            rng = np.random.default_rng([1, i])
            if frac == 0.25:
                x = cli.generate_cloud("uniform-box", *shape, rng)
            else:
                x = PointCloud([[float(c) for c in p] for p in itertools.product(*map(range, shape))])
            a = rng.choice(len(x), size=round(frac * len(x)), replace=False).tolist()
            pipe = build_pipeline(*cli.split_pair(x, a))
            want = welzl_values(pipe.complex, pipe.cfg.z.coords[:, :-1])
            assert want.tobytes() == pipe.complex.value.tobytes(), (shape, i)
            cells += len(want)
        assert cells > 25000

    @pytest.mark.parametrize("d, n", [(2, 60), (3, 30)])
    def test_face_balls_replace_most_welzl_calls(self, d, n, monkeypatch):
        # In general position every ball comes from a facet or from the
        # cell's own circumball, which some cells need: Welzl never runs.
        calls, own = [], []
        real = relative_lift.smallest_enclosing_ball
        monkeypatch.setattr(relative_lift, "smallest_enclosing_ball", lambda pts: calls.append(1) or real(pts))
        real_balls = relative_lift._circumballs

        def counting_balls(pts):
            out = real_balls(pts)
            if pts.shape[1] > 2:  # the own circumballs of cells above edges
                own.append(int(out[2].sum()))
            return out

        monkeypatch.setattr(relative_lift, "_circumballs", counting_balls)
        x = PointCloud(np.random.default_rng(83).random((n, d)).tolist())
        build_pipeline(*cli.split_pair(x, set(range(0, n, 4))))
        assert len(calls) == 0
        assert sum(own) > 0

    def test_batched_circumballs_match_the_scalar_solve(self):
        # `_circumballs` must be `circumball_weights` of each sorted block
        # to the bit: random, integer (right angles, collinear, repeated
        # points) and far-from-unit blocks of every size in d = 1..3.
        rng = np.random.default_rng(85)
        checked = 0
        for d in (1, 2, 3):
            for m in range(2, d + 2):
                for pts in (rng.random((200, m, d)), rng.integers(0, 3, (200, m, d)).astype(float),
                            1e5 + rng.random((50, m, d)), 2.0**-40 * rng.random((50, m, d)),
                            2.0**-560 * rng.random((50, m, d)), 2.0**500 * rng.random((50, m, d))):
                    centers, radii, interior = relative_lift._circumballs(pts)
                    for block, c, r, ok in zip(pts.tolist(), centers.tolist(), radii.tolist(), interior.tolist()):
                        want_c, want_r, weights = circumball_weights(sorted(map(tuple, block)))
                        assert ok == (weights is not None and min(weights) > relative_lift._INTERIOR)
                        if weights is not None or m == 2:
                            assert (tuple(c), r) == (want_c, want_r), block
                            checked += 1
        assert checked > 2000

    def test_distances_equal_math_dist_bit_for_bit(self):
        # `_distances` is `math.dist` in numpy operations, so that every
        # radius stays Welzl's to the bit.  On ~1.3M rows of d = 1..3:
        # uniform rows and copies scaled by 2^-20 and translated by 1e5,
        # thirds against tenths, entries from 1e-30 to 1e30, zero rows,
        # rows whose largest entry is subnormal (left to math.dist) or
        # just above 2^-1024 (with subnormal entries), and one center
        # against several points (the broadcast of `_circumballs`).  A
        # Python whose math.dist rounds otherwise fails here.
        rng = np.random.default_rng(30)
        n = 60_000
        rows = 0
        for d in (1, 2, 3):
            a, b = rng.random((n, d)), rng.random((n, d))
            kinds = {
                "uniform": (a, b),
                "2^-20": (a * 2.0**-20, b * 2.0**-20),
                "1e5": (a + 1e5, b + 1e5),
                "thirds-tenths": (rng.integers(-300, 300, (n, d)) / 3, rng.integers(-1000, 1000, (n, d)) / 10),
                "1e+-30": (a * 10.0 ** rng.uniform(-30, 30, (n, d)), b * 10.0 ** rng.uniform(-30, 30, (n, d))),
                "zero": (np.zeros((100, d)), np.zeros((100, d))),
                "subnormal": (rng.integers(0, 1 << 40, (2000, d)) * 5e-324, rng.integers(0, 1 << 40, (2000, d)) * 5e-324),
                "near 2^-1024": (rng.uniform(0, 2.0**-1021, (2000, d)), np.zeros((2000, d))),
                "broadcast": (a[: n // 4, None], rng.random((n // 4, 4, d))),
            }
            for name, (p, q) in kinds.items():
                got = relative_lift._distances(p, q)
                p, q = np.broadcast_arrays(p, q)
                want = np.array(list(map(math.dist, p.reshape(-1, d).tolist(), q.reshape(-1, d).tolist())))
                bad = np.flatnonzero(got.ravel().view(np.int64) != want.view(np.int64))
                assert len(bad) == 0, (d, name, len(bad), got.ravel()[bad[0]], want[bad[0]])
                rows += len(want)
        assert rows > 1_000_000

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
            _, want = real(pipe.cfg.z.coords[list(vs), :-1].tolist())
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
        assert rep.ok and rep.failure is None
        assert "pass" in rep.text()

    def test_report_text_mentions_failures(self, monkeypatch):
        # del(Z) against a del(X1) or a del(X2) that lost a top: its cells
        # are extra, in the all-minus slab too.
        pipe = build_pipeline(cloud(X1_EIGHT), cloud(X2_EIGHT))
        for drop, name, sign in ((drop_x1_top, "X1", "plus"), (drop_x2_top, "X2", "minus")):
            with monkeypatch.context() as m:
                drop(m)
                rep = verify_embedding(pipe.cfg, pipe.triangulation)
            assert re.fullmatch(rf"all-{sign} simplex \(\d+(, \d+)*\) of del\(Z\) is not in del\({name}\)", rep.failure)
            assert not rep.ok and "FAIL" in rep.text() and rep.failure in rep.text()
        # del(Z) without its top over the lifted del(X1) triangle.
        pipe = build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))
        tri = pipe.triangulation
        tops = np.array([t for t in tri.tops.tolist() if t[:3] != [0, 1, 2]])
        rep = verify_embedding(pipe.cfg, Triangulation(tri.cloud, tops))
        assert re.fullmatch(r"lifted del\(X1\) simplex \([012](, [012])+\) missing from del\(Z\)", rep.failure)

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


def euler_characteristic(tri: Triangulation) -> int:
    return sum((-1) ** k * len(table.simplices) for k, table in enumerate(tri.tables))


def assert_pair_matches_oracle(x: PointCloud, a: set[int]):
    """build_pipeline runs (its subcomplex check included), del(Z) has
    Euler characteristic 1 (it triangulates a convex polytope), all three
    embedding checks pass, and the barcode is the brute-force oracle's."""
    pipe = build_pipeline(*cli.split_pair(x, a))
    tri = pipe.triangulation
    assert euler_characteristic(tri) == 1, sorted(a)
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


def corpus_pairs() -> list[tuple[PointCloud, PointCloud]]:
    """The (X1, X2) pairs of the degenerate and the flat corpus."""
    pairs = []
    for pts, k, seed in DEGENERATE.values():
        pairs += [cli.split_pair(PointCloud(pts), a) for a in random_subsets(len(pts), k, seed)]
    for name, pts in FLAT.items():
        for k, (u, v) in enumerate(PLANES.values()):
            x = PointCloud([tuple(p * a + q * b for a, b in zip(u, v)) for p, q in pts])
            pairs += [cli.split_pair(x, a) for a in random_subsets(len(pts), 3, 300 + 4 * sorted(FLAT).index(name) + k)]
    return pairs


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
        assert euler_characteristic(pipe.triangulation) == 1
        rep = verify_embedding(pipe.cfg, pipe.triangulation)
        assert rep.ok, rep.text()


def crack_del_z(monkeypatch):
    """Make del(Z) carry a disjoint copy of the star of vertex 0, on new
    vertices: a second component, which passes every ridge check of the
    wrap but has Euler characteristic 2."""
    real = relative_lift.pair_delaunay

    def cracked(z, tri1, tri2):
        t = real(z, tri1, tri2)
        star = t.tops[(t.tops == 0).any(axis=1)]
        _, copy = np.unique(star, return_inverse=True)
        return Triangulation(z, np.concatenate([t.tops, len(z) + copy.reshape(star.shape)]))

    monkeypatch.setattr(relative_lift, "pair_delaunay", cracked)


class TestEulerCertificate:
    def test_crack_raises_and_exits_1(self, monkeypatch, tmp_path, capsys):
        crack_del_z(monkeypatch)
        with pytest.raises(AssertionError, match=r"del\(Z\) has Euler characteristic 2, not 1"):
            build_pipeline(cloud(X1_TRIANGLE), cloud(X2_AROUND))
        assert cli.main(write_pair(tmp_path, X1_TRIANGLE, X2_AROUND)) == 1
        assert "Euler characteristic 2" in capsys.readouterr().err

    def test_corpus_passes(self, monkeypatch):
        checked = []
        real = relative_lift._check_euler
        monkeypatch.setattr(relative_lift, "_check_euler", lambda tri: checked.append(euler_characteristic(tri)) or real(tri))
        pairs = corpus_pairs()
        for x1, x2 in pairs:
            build_pipeline(x1, x2)
        assert checked == [1] * len(pairs)


def assert_wrap_matches_lifted_hull(x1: PointCloud, x2: PointCloud):
    """del(Z) of build_pipeline, wrapped from del(X1) and del(X2), has the
    tops of the lifted hull of Z."""
    pipe = build_pipeline(x1, x2)
    assert np.array_equal(pipe.triangulation.tops, delaunay(pipe.cfg.z).tops)


def _small_side_pairs():
    """Pairs where one cloud has 0 to 3 points, random or collinear."""
    rng = np.random.default_rng(83)
    out = []
    for d in (2, 3):
        big = rng.random((9, d)).tolist()
        for small in [[], *(rng.random((k, d)).tolist() for k in (1, 2, 3))]:
            out += [(small, big), (big, small)]
        line = [[t * (c + 1) for c in range(d)] for t in (0.0, 0.5, 1.5)]
        out += [(line, big), (big[:2], line)]
    return out


class TestWrapMatchesLiftedHull:
    """The reference for `pair_delaunay`: the lifted hull of Z."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_corpus(self, name):
        pts, k, seed = DEGENERATE[name]
        for a in random_subsets(len(pts), k, seed):
            assert_wrap_matches_lifted_hull(*cli.split_pair(PointCloud(pts), a))

    @pytest.mark.parametrize("name", sorted(FLAT))
    def test_flat_corpus(self, name):
        pts = FLAT[name]
        for k, (u, v) in enumerate(PLANES.values()):
            x = PointCloud([tuple(p * a + q * b for a, b in zip(u, v)) for p, q in pts])
            for a in random_subsets(len(pts), 3, 300 + 4 * sorted(FLAT).index(name) + k):
                assert_wrap_matches_lifted_hull(*cli.split_pair(x, a))

    def test_nonparallel_flat_clouds(self):
        # Crossing lines in R^2, skew lines and two planes in R^3: no top of
        # either cloud spans a slab of Z (`pair_delaunay`).
        sq = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
        for x1, x2 in [
            ([(t, 0.0) for t in (-2.0, -0.5, 1.0, 2.5)], [(0.5 + t, 2 * t) for t in (-1.0, 0.25, 1.5)]),
            ([(t, 0.0, 0.0) for t in (-1.0, 0.5, 2.0)], [(0.0, t, 1.0 + t) for t in (-1.5, 0.0, 2.0)]),
            (sq, [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)]),
            (OCTAHEDRON[:4] + [(0.0, 0.0, 0.0)], OCTAHEDRON[2:]),
        ]:
            assert_wrap_matches_lifted_hull(cloud(x1), cloud(x2))

    def test_small_and_empty_sides(self):
        for x1, x2 in _small_side_pairs():
            d = len((x1 or x2)[0])
            assert_wrap_matches_lifted_hull(PointCloud(x1, dimension=d), PointCloud(x2, dimension=d))

    @pytest.mark.parametrize("d, n", [(2, 40), (3, 24)])
    def test_uniform_pairs(self, d, n):
        x = np.random.default_rng(84 + d).random((n, d)).tolist()
        assert_wrap_matches_lifted_hull(cloud(x[: n // 3]), cloud(x[n // 3 :]))

    def test_huge_coordinates(self):
        # Float orientations overflow here, and the exact path decides
        # them; the start's float circumcenter warns of nothing.
        x = np.random.default_rng(1).random((9, 2)) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_wrap_matches_lifted_hull(cloud(x[:3].tolist()), cloud(x[3:].tolist()))


class TestWrapFallbacks:
    def test_uncertified_kernel_keeps_tops_and_barcodes(self, monkeypatch):
        # With the batch filter certifying nothing, the integer cofactors
        # decide every far side and `wrap` every top: the same result.
        mod = importlib.import_module("reldelcech.delaunay")
        rng = np.random.default_rng(92)
        pairs = corpus_pairs()
        for d, n in ((2, 40), (3, 24)):
            x = rng.random((n, d)).tolist()
            pairs.append((cloud(x[: n // 3]), cloud(x[n // 3 :])))

        def run(x1, x2):
            pipe = build_pipeline(x1, x2)
            return pipe.triangulation.tops, repr(barcode(pipe.complex, relative=True, max_dim=pipe.cfg.z.dimension - 1))

        want = [run(x1, x2) for x1, x2 in pairs]
        monkeypatch.setattr(mod, "_orient_batch", certify_nothing(mod._orient_batch))
        for (x1, x2), (tops, bars) in zip(pairs, want):
            got_tops, got_bars = run(x1, x2)
            assert np.array_equal(got_tops, tops) and got_bars == bars


class TestPipelineBarcodes:
    def test_relative_pair_single_a(self):
        x1 = cloud([(0.0, 0.0)])
        x2 = cloud([(2.0, 0.0)])
        fc = build_pipeline(x1, x2).complex
        b = barcode(fc, relative=True, max_dim=2)
        assert b.bars(0) == [(0.0, 1.0)]
        assert not any(math.isinf(d) for _, d in b.bars(0))

    def test_line_triple_relative(self):
        x1 = PointCloud([(0.0,), (2.0,)])
        x2 = PointCloud([(1.0,)])
        b = barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, 0.5)]
        assert b.bars(1) == [(0.5, 1.0)]

    @pytest.mark.parametrize("d, n", [(2, 500), (3, 200)])
    def test_whole_barcode_matches_a_qhull_reference(self, d, n):
        # Far above the Cech oracle's cap: a reference that shares only
        # `smallest_enclosing_ball` with the pipeline, not the wrap, the
        # face tables, the balls taken from faces, the boundary matrix,
        # the apparent pairs or the clearing.
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(cli._GEN_SEED)
        x = cli.generate_cloud("uniform-box", n, d, rng)
        a = set(rng.choice(n, size=n // 4, replace=False).tolist())
        x1, x2 = cli.split_pair(x, a)
        got = barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=d)
        want = qhull_relative_barcode(x1.coords, x2.coords, d, spatial)
        assert sum(map(len, want.values())) > n
        assert {k: got.bars(k) for k in got.dims()} == want

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
            build_pipeline(x1, x2).complex  # build() validates every invariant


class TestScaleEquivariance:
    """Scaling the cloud by c scales every bar by c: no absolute tolerance
    may hide small features or merge close points."""

    @pytest.mark.parametrize(
        "x1, x2, death",
        [
            ([(0.0, 0.0)], [(1e-170, 0.0)], 5e-171),  # the edge's Gram underflows
            ([(5e153, 5e153)], [(-5e153, -5e153)], math.hypot(5e153, 5e153)),  # and overflows
        ],
    )
    def test_edge_ball_at_extreme_scales(self, x1, x2, death):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = barcode(build_pipeline(cloud(x1), cloud(x2)).complex, relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, death)]

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

    @pytest.mark.parametrize("d, n", [(2, 120), (3, 40)])
    def test_power_of_two_scales_are_exact(self, d, n, monkeypatch):
        # Scaling by a power of two is exact in floats, and the solve's
        # singular test is relative to the Gram's own scale: every bar
        # scales exactly, and no circumball falls back to least squares.
        # At 2^-560 the edges' Gram would underflow unless it is formed
        # from edges scaled to unit size.
        solves = []
        real = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or real(*a, **k))
        x = np.random.default_rng(84).random((n, d))
        a = set(range(0, n, 4))
        base = self._barcode(x, a)
        for e in (-30, -20, 10, -560):
            scaled = self._barcode(x * 2.0**e, a)
            assert repr(scaled) == repr(Barcode({k: [(2.0**e * b, 2.0**e * w) for b, w in base.bars(k)] for k in base.dims()}, 2)), e
        assert solves == []
