import itertools
import math
import random

import pytest

from reldelcech.filtered_complex import Cell, CellTable, Simplex, build, dumps, loads
from reldelcech.geometry import InputError


def cells_of(*triples):
    return [Cell(Simplex(v), val, sub) for v, val, sub in triples]


class TestBuild:
    def test_valid_edge_complex(self):
        c = build(cells_of(((0,), 0, False), ((1,), 0, False), ((0, 1), 1, False)))
        assert len(c) == 3
        assert c.tables[0].simplices.tolist() == [[0], [1]]

    def test_missing_face(self):
        with pytest.raises(InputError, match="missing face"):
            build(cells_of(((0,), 0, False), ((0, 1), 1, False)))

    def test_non_monotone(self):
        with pytest.raises(InputError, match="non-monotone"):
            build(cells_of(((0,), 2, False), ((1,), 0, False), ((0, 1), 1, False)))

    def test_duplicate_cell(self):
        with pytest.raises(InputError, match="duplicate"):
            build(cells_of(((0,), 0, False), ((0,), 0, False)))

    def test_subcomplex_not_closed(self):
        with pytest.raises(InputError, match="subcomplex"):
            build(cells_of(((0,), 0, False), ((1,), 0, True), ((0, 1), 0, True)))

    def test_subcomplex_cells_sit_at_zero(self):
        with pytest.raises(InputError):
            build(cells_of(((0,), 1, True)))

    def test_round_trip_cells(self):
        cells = cells_of(((0,), 0, True), ((1,), 0, False), ((0, 1), 0.5, False))
        c = build(cells)
        assert list(c.cells) == cells

    def test_negative_vertex_index(self):
        # Vertices index a point cloud; -1 used to build and reduce.
        with pytest.raises(InputError, match=r"negative vertex index in \(-1,\)"):
            loads("-1 0.0 0\n0 0.0 0\n-1 0 1.0 0\n")
        with pytest.raises(InputError, match=r"negative vertex index in \(-1,\)"):
            build(cells_of(((-1,), 0, False), ((0,), 0, False), ((-1, 0), 1, False)))

    def test_raw_tusize_accepted(self):
        c = build([((0,), 0.0, False), ([1], 0, 0), (Simplex((0, 1)), 2, False)])
        assert len(c) == 3


class TestCanonicalOrder:
    def test_vertices_before_edge(self):
        c = build(cells_of(((0,), 0, False), ((1,), 0, False), ((0, 1), 1, False)))
        order = c.canonical_order()
        assert [c.cells[i].simplex.vertices for i in order] == [(0,), (1,), (0, 1)]

    def test_subcomplex_first(self):
        c = build(
            cells_of(
                ((0,), 0, False),
                ((1,), 0, True),
                ((2,), 0, True),
                ((1, 2), 0, True),
            )
        )
        order = c.canonical_order()
        flags = [c.cells[i].in_subcomplex for i in order]
        assert flags == [True, True, True, False]

    def test_tie_broken_by_dimension(self):
        c = build(
            cells_of(((0,), 0, False), ((1,), 0, False), ((0, 1), 0, False), ((2,), 0, False))
        )
        order = c.canonical_order()
        dims = [c.cells[i].simplex.dim for i in order]
        assert dims == sorted(dims)

    def test_linear_extension_of_face_order(self):
        rng = random.Random(5)
        from reldelcech.cech_oracle import relative_cech
        from reldelcech.geometry import PointCloud

        for trial in range(10):
            pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
            cloud = PointCloud(list(set(pts)))
            a = set(rng.sample(range(len(cloud)), rng.randint(0, len(cloud))))
            c = relative_cech(cloud, a, 3)
            order = c.canonical_order()
            pos = {c.cells[i].simplex: k for k, i in enumerate(order)}
            for cell in c.cells:
                for f in cell.simplex.boundary():
                    assert pos[f] < pos[cell.simplex]


    def test_ties_match_python_tuple_sort(self):
        # Equal values across dimensions, -0.0 beside 0.0 and inf, given
        # in shuffled order: the order is Python's sort of the key tuples,
        # where -0.0 == 0.0 and vertex tuples break every tie.
        rng = random.Random(11)
        levels = [-0.0, 0.0, 0.0, 0.5, 0.5, 1.0, math.inf]
        value = {}
        for k in range(1, 5):
            for vs in itertools.combinations(range(6), k):
                sub = vs[-1] < 2
                faces = [value[vs[:i] + vs[i + 1 :]][0] for i in range(k)] if k > 1 else []
                v = rng.choice([-0.0, 0.0]) if sub else max(faces + [rng.choice(levels)])
                value[vs] = (v, sub)
        cells = [Cell(Simplex(vs), v, sub) for vs, (v, sub) in value.items()]
        rng.shuffle(cells)
        c = build(cells)

        def canonical(c):
            return [(c.cells[i].simplex, repr(c.cells[i].value), c.cells[i].in_subcomplex) for i in c.canonical_order()]

        key = lambda cell: (not cell.in_subcomplex, cell.value, cell.simplex.dim, cell.simplex.vertices)
        want = [(cell.simplex, repr(cell.value), cell.in_subcomplex) for cell in sorted(cells, key=key)]
        assert canonical(c) == want
        text = dumps(c)
        assert "-0.0" in text and "inf" in text
        again = loads(text)
        assert dumps(again) == text
        assert canonical(again) == want


class TestTables:
    """`build(tables=...)`, the form `build_pipeline` hands in, is checked
    like cells."""

    @staticmethod
    def tables():
        c = build(
            cells_of(
                ((0,), 0, True),
                ((1,), 0, True),
                ((2,), 0, False),
                ((0, 1), 0, True),
                ((0, 2), 0.5, False),
                ((1, 2), 0.75, False),
                ((0, 1, 2), 1.0, False),
            )
        )
        return [CellTable(*(a.copy() for a in t)) for t in c.tables]

    def test_tables_round_trip(self):
        c = build(tables=self.tables())
        assert [cell.simplex.vertices for cell in c.cells] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        assert c.canonical_order().tolist() == [0, 1, 3, 2, 4, 5, 6]
        assert len(c.tables[0].simplices) == 3 and c.euler_characteristic(0.6) == 1

    @pytest.mark.parametrize(
        "dim, field, row, value, error",
        [
            (2, "facets", (0, 1), 0, "missing face"),
            (1, "simplices", 2, (0, 2), "duplicate"),
            (1, "simplices", 1, (2, 0), "strictly increasing"),
            (0, "simplices", 0, -1, "negative vertex index"),
            (1, "simplices", 0, (-1, 1), "negative vertex index"),
            (1, "values", 1, math.nan, "NaN"),
            (1, "values", 2, -1.0, "negative"),
            (0, "values", 0, 0.25, "must have value 0"),
            (2, "values", 0, 0.6, "non-monotone"),
            (0, "sub", 0, False, "not closed"),
        ],
    )
    def test_tables_are_checked(self, dim, field, row, value, error):
        tables = self.tables()
        getattr(tables[dim], field)[row] = value
        with pytest.raises(InputError, match=error):
            build(tables=tables)


class TestEuler:
    def test_triangle(self):
        c = build(
            cells_of(
                ((0,), 0, False),
                ((1,), 0, False),
                ((2,), 0, False),
                ((0, 1), 0, False),
                ((0, 2), 0, False),
                ((1, 2), 0, False),
                ((0, 1, 2), 0, False),
            )
        )
        assert c.euler_characteristic(0) == 1

    def test_two_vertices(self):
        c = build(cells_of(((0,), 0, False), ((1,), 0, False)))
        assert c.euler_characteristic(0) == 2

    def test_circle(self):
        cells = [Cell(Simplex((i,)), 0, False) for i in range(4)]
        cells += [
            Cell(Simplex(e), 1, False) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]
        ]
        c = build(cells)
        assert c.euler_characteristic(1) == 0
        assert c.euler_characteristic(0.5) == 4  # only the vertices yet


class TestSerialization:
    def test_dumps_format(self):
        c = build(cells_of(((0,), 0, True), ((1,), 0, False), ((0, 1), 1.5, False)))
        text = dumps(c)
        lines = text.strip().splitlines()
        assert lines[0] == "0 0.0 1"
        assert lines[2] == "0 1 1.5 0"

    def test_round_trip(self):
        c = build(
            cells_of(
                ((0,), 0, True),
                ((1,), 0, False),
                ((2,), 0, False),
                ((0, 1), 0.25, False),
                ((1, 2), 0.5, False),
                ((0, 2), 0.75, False),
                ((0, 1, 2), 1.0, False),
            )
        )
        c2 = loads(dumps(c))
        assert list(c2.cells) == list(c.cells)
        assert c2.tables[0].simplices.tolist() == c.tables[0].simplices.tolist()

    def test_infinite_value_round_trip(self):
        c = build(cells_of(((0,), 0, False), ((1,), 0, False), ((0, 1), math.inf, False)))
        c2 = loads(dumps(c))
        assert math.isinf(c2.cells[2].value)

    def test_loads_errors(self):
        with pytest.raises(InputError, match="line 1"):
            loads("0 nope 1\n")
        with pytest.raises(InputError, match="flag"):
            loads("0 0.0 7\n")
