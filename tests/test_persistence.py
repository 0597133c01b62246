import itertools
import math
import random

import numpy as np
import pytest
from _oracles import standard_reduction

from reldelcech.cech_oracle import relative_cech
from reldelcech.cli import generate_cloud, split_pair
from reldelcech.filtered_complex import Cell, Simplex, build
from reldelcech.geometry import InputError, PointCloud
from reldelcech.relative_lift import build_pipeline
from reldelcech.persistence import barcode, boundary_matrix, reduce_matrix


def line_pair_complex():
    """X = {0, 1, 2} on a line, A = {0, 2}: the worked quotient example."""
    return build(
        [
            Cell(Simplex((0,)), 0, True),
            Cell(Simplex((2,)), 0, True),
            Cell(Simplex((0, 2)), 0, True),
            Cell(Simplex((1,)), 0, False),
            Cell(Simplex((0, 1)), 0.5, False),
            Cell(Simplex((1, 2)), 0.5, False),
            Cell(Simplex((0, 1, 2)), 1.0, False),
        ]
    )


class TestBoundaryMatrix:
    def test_quotient_drops_subcomplex_faces(self):
        m = boundary_matrix(line_pair_complex(), relative=True)
        simp = [m.complex.cells[i].simplex.vertices for i in m.selected]
        assert simp == [(1,), (0, 1), (1, 2), (0, 1, 2)]
        assert m.columns[0] == []
        assert m.columns[1] == [0]  # edge 01 -> vertex 1 only (0 is quotiented)
        assert m.columns[2] == [0]
        assert m.columns[3] == [1, 2]  # face 02 lies in the subcomplex

    def test_absolute_keeps_everything(self):
        m = boundary_matrix(line_pair_complex(), relative=False)
        assert len(m.columns) == 7

    def test_all_subcomplex_quotient_is_empty(self):
        c = build(
            [
                Cell(Simplex((0,)), 0, True),
                Cell(Simplex((1,)), 0, True),
                Cell(Simplex((2,)), 0, True),
                Cell(Simplex((0, 1)), 0, True),
                Cell(Simplex((0, 2)), 0, True),
                Cell(Simplex((1, 2)), 0, True),
                Cell(Simplex((0, 1, 2)), 0, True),
            ]
        )
        m = boundary_matrix(c, relative=True)
        assert len(m.columns) == 0

    def test_boundary_squared_is_zero(self):
        rng = np.random.default_rng(3)
        pts = np.unique(rng.random((7, 2)), axis=0)
        cloud = PointCloud(pts.tolist())
        a = {0, 2}
        c = relative_cech(cloud, a, 3)
        for relative in (True, False):
            m = boundary_matrix(c, relative)
            for j, col in enumerate(m.columns):
                acc: set[int] = set()
                for row in col:
                    acc ^= set(m.columns[row])
                assert not acc, f"d(d(cell {j})) != 0"

    def test_strict_upper_triangular(self):
        c = line_pair_complex()
        m = boundary_matrix(c, relative=False)
        for j, col in enumerate(m.columns):
            assert all(i < j for i in col)


class TestReduce:
    def test_empty(self):
        c = build([Cell(Simplex((0,)), 0, True)])
        red = reduce_matrix(boundary_matrix(c, relative=True))
        assert red.pairs == [] and red.unpaired == []

    def test_worked_example_pairing(self):
        m = boundary_matrix(line_pair_complex(), relative=True)
        red = reduce_matrix(m)
        cells = [m.complex.cells[i] for i in m.selected]
        named = {
            (cells[i].simplex.vertices, cells[j].simplex.vertices)
            for i, j in red.pairs
        }
        assert named == {((1,), (0, 1)), ((1, 2), (0, 1, 2))}
        assert red.unpaired == []

    def test_two_vertices_one_edge(self):
        c = build(
            [
                Cell(Simplex((0,)), 0, False),
                Cell(Simplex((1,)), 0, False),
                Cell(Simplex((0, 1)), 1, False),
            ]
        )
        red = reduce_matrix(boundary_matrix(c, relative=False))
        assert len(red.pairs) == 1
        assert len(red.unpaired) == 1

    def test_distinct_lows(self):
        rng = np.random.default_rng(5)
        pts = np.unique(rng.random((8, 2)), axis=0)
        c = relative_cech(PointCloud(pts.tolist()), {1}, 3)
        red = reduce_matrix(boundary_matrix(c, relative=True))
        lows = [col[-1] for col in red.columns if col]
        assert len(lows) == len(set(lows))

    def test_matrix_is_left_unchanged(self):
        # The reduced columns share lists with the matrix: an edit in place
        # would change the boundary matrix under its caller.
        rng = np.random.default_rng(6)
        c = relative_cech(PointCloud(rng.random((8, 2)).tolist()), {1, 4}, 3)
        for relative in (True, False):
            m = boundary_matrix(c, relative)
            before = [list(col) for col in m.columns]
            red = reduce_matrix(m)
            assert m.columns == before
            assert red.columns != before

    @pytest.mark.parametrize("case", ["uniform2d-250", "uniform3d-80", "grid12x12", "grid4x4x4"])
    def test_pairs_match_the_standard_reduction(self, case):
        # Clearing and the decreasing-dimension order must pair exactly as
        # the plain left-to-right reduction does, on pipeline complexes
        # whose equal values (grids, half of the points in A) make many ties.
        rng = np.random.default_rng(17)
        if case.startswith("uniform"):
            n, d = {"uniform2d-250": (250, 2), "uniform3d-80": (80, 3)}[case]
            x = generate_cloud("uniform-box", n, d, rng)
        else:
            shape = {"grid12x12": (12, 12), "grid4x4x4": (4, 4, 4)}[case]
            x = PointCloud([[float(c) for c in p] for p in itertools.product(*map(range, shape))])
        a = rng.choice(len(x), size=len(x) // (4 if case.startswith("uniform") else 2), replace=False).tolist()
        c = build_pipeline(*split_pair(x, a)).complex
        for relative in (True, False):
            m = boundary_matrix(c, relative)
            red = reduce_matrix(m)
            assert (red.pairs, red.unpaired) == standard_reduction(m), relative
            assert red.pairs


def apparent_pairs(m) -> list[tuple[int, int]]:
    """(sigma, tau) for each column tau whose lowest row sigma has tau as
    its first coface, read from the list columns."""
    first: dict[int, int] = {}
    for j, col in enumerate(m.columns):
        for i in col:
            first.setdefault(i, j)
    return [(col[-1], j) for j, col in enumerate(m.columns) if col and first[col[-1]] == j]


def pipeline_complex(case):
    """The complex of the `TestReduce::test_pairs_match_the_standard_reduction`
    case of that name: uniform d=2 n=250 and d=3 n=80 with a quarter of
    the points in A, and the 12x12 and 4x4x4 grids with half of them."""
    rng = np.random.default_rng(17)
    if case.startswith("uniform"):
        n, d = {"uniform2d-250": (250, 2), "uniform3d-80": (80, 3)}[case]
        x = generate_cloud("uniform-box", n, d, rng)
    else:
        shape = {"grid12x12": (12, 12), "grid4x4x4": (4, 4, 4)}[case]
        x = PointCloud([[float(c) for c in p] for p in itertools.product(*map(range, shape))])
    a = rng.choice(len(x), size=len(x) // (4 if case.startswith("uniform") else 2), replace=False).tolist()
    return build_pipeline(*split_pair(x, a)).complex


class TestApparentPairs:
    @pytest.mark.parametrize("case", ["uniform2d-250", "uniform3d-80", "grid12x12", "grid4x4x4", "cech"])
    def test_apparent_pairs_are_persistence_pairs(self, case):
        # Every apparent pair is a pair of the plain reduction, which knows
        # nothing of them; on the pipeline complexes they are most pairs,
        # so the reduction forms a small share of the columns.
        if case == "cech":
            rng = np.random.default_rng(8)
            c = relative_cech(PointCloud(rng.random((9, 2)).tolist()), {1, 5}, 3)
        else:
            c = pipeline_complex(case)
        for relative in (True, False):
            m = boundary_matrix(c, relative)
            pairs, _ = standard_reduction(m)
            apparent = apparent_pairs(m)
            assert apparent and set(apparent) <= set(pairs), relative
            if case != "cech":
                assert 2 * len(apparent) > len(pairs)
                assert len(reduce_matrix(m).reduced) < len(m.columns) / 2

    def test_reduction_adds_an_apparent_column(self):
        # Vertices a, b, c at 0 and edges ab, bc, ac at 1, 2, 3: (b, ab)
        # and (c, bc) are apparent, and ac, lowest row c, adds bc and then
        # ab, each read from the face array, and reduces to zero.
        c = build(
            [
                Cell(Simplex((0,)), 0, False),
                Cell(Simplex((1,)), 0, False),
                Cell(Simplex((2,)), 0, False),
                Cell(Simplex((0, 1)), 1, False),
                Cell(Simplex((1, 2)), 2, False),
                Cell(Simplex((0, 2)), 3, False),
            ]
        )
        m = boundary_matrix(c, relative=False)
        assert m.columns == [[], [], [], [0, 1], [1, 2], [0, 2]]
        assert apparent_pairs(m) == [(1, 3), (2, 4)]
        red = reduce_matrix(m)
        assert (red.pairs, red.unpaired) == standard_reduction(m) == ([(1, 3), (2, 4)], [0, 5])
        assert red.reduced[4] == [1, 2] and red.reduced[3] == [0, 1]  # read when ac added them
        assert red.columns == [[], [], [], [0, 1], [1, 2], []]
        b = barcode(c, relative=False, max_dim=1)
        assert b.bars(0) == [(0.0, 1.0), (0.0, 2.0), (0.0, math.inf)]
        assert b.bars(1) == [(3.0, math.inf)]


class TestBarcode:
    def test_pair_cloud_absolute(self):
        x = PointCloud([(0.0, 0.0), (2.0, 0.0)])
        c = relative_cech(x, set(), 1)
        b = barcode(c, relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, 1.0), (0.0, math.inf)]
        assert b.bars(1) == []

    def test_pair_cloud_relative(self):
        x = PointCloud([(0.0, 0.0), (2.0, 0.0)])
        c = relative_cech(x, {0}, 1)
        b = barcode(c, relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, 1.0)]
        assert b.bars(1) == []

    def test_line_pair_worked_example(self):
        b = barcode(line_pair_complex(), relative=True, max_dim=1)
        assert b.bars(0) == [(0.0, 0.5)]
        assert b.bars(1) == [(0.5, 1.0)]

    def test_diamond_h1(self):
        x = PointCloud([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        c = relative_cech(x, set(), 2)
        b = barcode(c, relative=True, max_dim=1)
        assert len(b.bars(1)) == 1
        (birth, death) = b.bars(1)[0]
        assert abs(birth - math.sqrt(2) / 2) < 1e-12
        assert abs(death - 1.0) < 1e-12

    def test_relative_with_a_equal_x_empty(self):
        x = PointCloud([(0.0,), (1.0,), (2.5,)])
        c = relative_cech(x, {0, 1, 2}, 2)
        b = barcode(c, relative=True, max_dim=1)
        assert sum(len(b.bars(k)) for k in b.dims()) == 0

    def test_infinite_h0_count_matches_union_find(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            pts = np.unique(rng.random((n, 2)), axis=0)
            cloud = PointCloud(pts.tolist())
            c = relative_cech(cloud, set(), 2)
            b = barcode(c, relative=True, max_dim=1)
            # union-find over all edges present at t = infinity
            parent = list(range(len(cloud)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for cell in c.cells:
                if cell.simplex.dim == 1:
                    a, bb = cell.simplex.vertices
                    parent[find(a)] = find(bb)
            comps = len({find(i) for i in range(len(cloud))})
            inf_bars = [x for x in b.bars(0) if math.isinf(x[1])]
            assert len(inf_bars) == comps == 1

    @pytest.mark.parametrize(
        "order",
        [[0, 1], [0, 0, 1, 2], [1, 0, 2, 2], [0, 1, 2, 2], [0, 1, 3], [-1, 0, 1]],
        ids=["short", "repeat", "repeat-shuffled", "repeat-edge", "out-of-range", "negative"],
    )
    def test_order_must_be_a_permutation(self, order):
        # None of these lists each cell once.  Reduced as given, each
        # describes some other complex: two or three infinite H0 bars, or
        # an infinite H1 bar.
        c = build(
            [
                Cell(Simplex((0,)), 0, False),
                Cell(Simplex((1,)), 0, False),
                Cell(Simplex((0, 1)), 1, False),
            ]
        )
        assert barcode(c, relative=False, max_dim=1, order=[1, 0, 2]) == barcode(c, relative=False, max_dim=1)
        with pytest.raises(InputError, match="exactly once"):
            barcode(c, relative=False, max_dim=1, order=order)

    def test_json_schema(self):
        b = barcode(line_pair_complex(), relative=True, max_dim=1)
        d = b.to_json_dict(relative=True)
        assert d == {
            "field": "GF(2)",
            "relative": True,
            "dims": [
                {"dim": 0, "bars": [[0.0, 0.5]]},
                {"dim": 1, "bars": [[0.5, 1.0]]},
            ],
        }
        x = PointCloud([(0.0, 0.0), (2.0, 0.0)])
        b = barcode(relative_cech(x, set(), 1), relative=True, max_dim=1)
        d = b.to_json_dict(relative=False)
        assert d["relative"] is False
        assert d["dims"][0]["bars"] == [[0.0, 1.0], [0.0, None]]


# -- self-consistency properties -------------------------------------------------


def random_filtered_complex(rng, max_points=8, d=2):
    n = int(rng.integers(2, max_points + 1))
    pts = np.unique(rng.random((n, d)), axis=0)
    cloud = PointCloud(pts.tolist())
    k = int(rng.integers(0, len(cloud) + 1))
    a = set(rng.choice(len(cloud), size=k, replace=False).tolist()) if k else set()
    return relative_cech(cloud, a, d + 1)


def gf2_rank(rows_cols: list[list[int]], nrows: int) -> int:
    """Dense GF(2) Gaussian elimination over numpy bool."""
    if not rows_cols:
        return 0
    m = np.zeros((nrows, len(rows_cols)), dtype=bool)
    for j, col in enumerate(rows_cols):
        for i in col:
            m[i, j] = True
    rank = 0
    for j in range(m.shape[1]):
        rows = np.nonzero(m[rank:, j])[0]
        if len(rows) == 0:
            continue
        p = rank + rows[0]
        m[[rank, p]] = m[[p, rank]]
        dup = np.nonzero(m[:, j])[0]
        for i in dup:
            if i != rank:
                m[i] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def betti_by_rank_oracle(c, relative, t, max_dim):
    """Independent Betti numbers at scale t from boundary-operator ranks."""
    order = c.canonical_order()
    selected = [
        i
        for i in order
        if not (relative and c.cells[i].in_subcomplex) and c.cells[i].value <= t
    ]
    pos = {c.cells[i].simplex: k for k, i in enumerate(selected)}
    dims = [c.cells[i].simplex.dim for i in selected]
    betti = {}
    for k in range(max_dim + 1):
        k_cells = sum(1 for d in dims if d == k)
        dk_cols = []
        dk1_cols = []
        for idx, i in enumerate(selected):
            cell = c.cells[i]
            if cell.simplex.dim not in (k, k + 1):
                continue
            col = [pos[f] for f in cell.simplex.boundary() if f in pos]
            if cell.simplex.dim == k:
                dk_cols.append(col)
            else:
                dk1_cols.append(col)
        rank_k = gf2_rank(dk_cols, len(selected))
        rank_k1 = gf2_rank(dk1_cols, len(selected))
        betti[k] = k_cells - rank_k - rank_k1
    return betti


class TestSelfConsistency:
    def test_betti_matches_rank_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            c = random_filtered_complex(rng)
            relative = bool(rng.integers(0, 2))
            b = barcode(c, relative=relative, max_dim=2)
            values = sorted({cell.value for cell in c.cells})
            ts = rng.uniform(0, max(values) + 0.1, size=6).tolist() + values[:4]
            for t in ts:
                expected = betti_by_rank_oracle(c, relative, t, 2)
                for k in range(3):
                    assert b.betti(k, t) == expected[k], (k, t)

    def test_euler_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c = random_filtered_complex(rng)
            b = barcode(c, relative=False, max_dim=3)
            for t in list(rng.uniform(0, 1.2, size=8)) + [math.inf]:
                chi = sum((-1) ** k * b.betti(k, t) for k in range(4))
                assert chi == c.euler_characteristic(t)

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(29)
        pyrng = random.Random(31)
        for _ in range(10):
            c = random_filtered_complex(rng)
            relative = bool(rng.integers(0, 2))
            base = barcode(c, relative=relative, max_dim=2)
            order = c.canonical_order()
            # permute within blocks of equal (subflag, value, dim): any such
            # order is a valid filtration order
            for _ in range(3):
                blocks = {}
                for i in order:
                    cell = c.cells[i]
                    key = (cell.in_subcomplex, cell.value, cell.simplex.dim)
                    blocks.setdefault(key, []).append(i)
                shuffled = []
                for key in sorted(
                    blocks, key=lambda k: (not k[0], k[1], k[2])
                ):
                    blk = blocks[key]
                    pyrng.shuffle(blk)
                    shuffled.extend(blk)
                alt = barcode(c, relative=relative, max_dim=2, order=shuffled)
                assert alt == base
