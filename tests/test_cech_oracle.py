import math

import numpy as np
import pytest

from reldelcech.cech_oracle import compare_barcodes, relative_cech
from reldelcech.geometry import InputError, PointCloud
from reldelcech.persistence import Barcode, barcode
from reldelcech.relative_lift import build_pipeline


class TestRelativeCech:
    def test_pair_absolute(self):
        x = PointCloud([(0.0, 0.0), (2.0, 0.0)])
        c = relative_cech(x, set(), 1)
        by_simplex = {cell.simplex.vertices: cell for cell in c.cells}
        assert set(by_simplex) == {(0,), (1,), (0, 1)}
        assert by_simplex[(0,)].value == 0.0
        assert abs(by_simplex[(0, 1)].value - 1.0) < 1e-12

    def test_pair_with_subset(self):
        x = PointCloud([(0.0, 0.0), (2.0, 0.0)])
        c = relative_cech(x, {0}, 1)
        by_simplex = {cell.simplex.vertices: cell for cell in c.cells}
        assert by_simplex[(0,)].in_subcomplex
        assert not by_simplex[(1,)].in_subcomplex
        assert not by_simplex[(0, 1)].in_subcomplex

    def test_binomial_cell_count(self):
        rng = np.random.default_rng(2)
        x = PointCloud(np.unique(rng.random((10, 2)), axis=0).tolist())
        c = relative_cech(x, set(), 3)
        assert len(c) == 10 + 45 + 120 + 210

    def test_cap(self):
        rng = np.random.default_rng(3)
        x = PointCloud(rng.random((15, 2)).tolist())
        with pytest.raises(InputError, match="cap"):
            relative_cech(x, set(), 2)
        relative_cech(x, set(), 2, cap=15)

    def test_bad_subset_index(self):
        x = PointCloud([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(InputError):
            relative_cech(x, {5}, 1)

    def test_top_dimension_vanishes_for_planar_clouds(self):
        # nerves of convex balls in R^2 have no H_k for k >= 2; with the
        # oracle truncated at 3-simplices, dimension 2 is the top reportable
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(3, 9))
            pts = np.unique(rng.random((n, 2)), axis=0)
            x = PointCloud(pts.tolist())
            c = relative_cech(x, set(), 3)
            b = barcode(c, relative=True, max_dim=2)
            assert b.bars(2) == []


class TestCompareBarcodes:
    def bc(self, **dims):
        intervals = {int(k[1:]): v for k, v in dims.items()}
        max_dim = max(intervals, default=0)
        return Barcode(intervals, max_dim)

    def test_identical(self):
        b = self.bc(h0=[(0.0, 1.0), (0.0, math.inf)], h1=[(0.5, 0.8)])
        diff = compare_barcodes(b, b, tol=1e-9)
        assert diff.matched
        assert "match" in diff.text()

    def test_within_tolerance(self):
        b1 = self.bc(h0=[(0.0, 1.0)])
        b2 = self.bc(h0=[(0.0, 1.0 + 5e-10)])
        assert compare_barcodes(b1, b2, tol=1e-9).matched

    def test_outside_tolerance(self):
        b1 = self.bc(h0=[(0.0, 1.0)])
        b2 = self.bc(h0=[(0.0, 1.0 + 5e-8)])
        assert not compare_barcodes(b1, b2, tol=1e-9).matched

    def test_extra_bar_reported(self):
        b1 = self.bc(h0=[(0.0, 1.0)], h1=[(0.2, 0.9)])
        b2 = self.bc(h0=[(0.0, 1.0)], h1=[])
        diff = compare_barcodes(b1, b2, tol=1e-9)
        assert not diff.matched
        assert diff.unmatched[1][0] == [(0.2, 0.9)]
        assert "H1" in diff.text()
        assert diff.to_dict()["unmatched"]["1"]["first"] == [[0.2, 0.9]]

    def test_infinite_must_match_infinite(self):
        b1 = self.bc(h0=[(0.0, math.inf)])
        b2 = self.bc(h0=[(0.0, 1e9)])
        assert not compare_barcodes(b1, b2, tol=1e-9).matched

    def test_near_diagonal_bars_are_free(self):
        b1 = self.bc(h0=[(0.5, 0.5 + 1e-12)])
        b2 = self.bc(h0=[])
        assert compare_barcodes(b1, b2, tol=1e-9).matched

    def test_long_bar_is_not_free(self):
        b1 = self.bc(h0=[(0.5, 0.9)])
        b2 = self.bc(h0=[])
        assert not compare_barcodes(b1, b2, tol=1e-9).matched

    def test_max_dim_mismatch(self):
        with pytest.raises(InputError):
            compare_barcodes(self.bc(h0=[]), self.bc(h1=[]), tol=1e-9)

    def test_many_bars(self):
        # 1200 disjoint H0 bars: the matching with diagonal slots walked the
        # chain of earlier slot assignments, one recursion level per step,
        # and raised RecursionError.
        tol = 1e-9
        bars = [(float(i), i + 0.5) for i in range(1200)]
        assert compare_barcodes(self.bc(h0=bars), self.bc(h0=list(bars)), tol=tol).matched
        moved = list(bars)
        moved[600] = (600.0, 600.5 + 3 * tol)
        diff = compare_barcodes(self.bc(h0=bars), self.bc(h0=moved), tol=tol)
        assert not diff.matched
        assert diff.unmatched == {0: ([(600.0, 600.5)], [(600.0, 600.5 + 3 * tol)])}

    def test_permutation_robust_matching(self):
        bars = [(0.1 * i, 0.1 * i + 0.5) for i in range(6)]
        b1 = self.bc(h1=list(bars))
        b2 = self.bc(h1=list(reversed(bars)))
        assert compare_barcodes(b1, b2, tol=1e-9).matched


class TestPipelineOracleEquivalence:
    @pytest.mark.parametrize("d", [1, 2])
    def test_pipeline_equals_oracle(self, d):
        rng = np.random.default_rng(80 + d)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            pts = np.unique(rng.random((n, d)), axis=0)
            x = PointCloud(pts.tolist())
            n = len(x)
            k = int(rng.integers(0, n + 1))
            a = set(rng.choice(n, size=k, replace=False).tolist()) if k else set()
            x1 = PointCloud([x.coords[i] for i in sorted(a)], dimension=d)
            x2 = PointCloud([x.coords[i] for i in range(n) if i not in a], dimension=d)
            b1 = barcode(build_pipeline(x1, x2).complex, relative=True, max_dim=d)
            b2 = barcode(relative_cech(x, a, d + 1), relative=True, max_dim=d)
            diff = compare_barcodes(b1, b2, tol=1e-9)
            assert diff.matched, diff.text()
