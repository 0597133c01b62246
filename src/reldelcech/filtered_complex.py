"""Filtered simplicial complex with an optional marked subcomplex.

Cells carry a filtration value and a flag saying whether they belong to the
distinguished subcomplex (subcomplex cells sit at value 0 and come first in
the reduction order).  Validation raises instead of repairing: producers are
expected to hand in downward-closed, monotone data.

The cells of each dimension k are held as one `CellTable`: the vertex rows,
sorted lexicographically, each row's facets as rows of dimension k - 1
(`delaunay.FaceTable`), and their values and subcomplex flags.  Every check
is an array operation over these tables.  The cells also keep the order
they were given in, which `cells`, `dumps` and the indices of
`canonical_order` refer to.

`Simplex` and `Cell` are per-cell views of these rows.  `loads`, the
oracle and hand-built complexes hand cells in as them, and `cells` builds
them on first use; the pipeline hands in tables and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .delaunay import face_tuples, find_rows
from .geometry import InputError


@dataclass(frozen=True, order=True)
class Simplex:
    """Sorted, duplicate-free tuple of vertex indices into a point cloud."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise InputError("empty simplex")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise InputError(f"simplex vertices must be strictly increasing: {vs}")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _of(cls, vs: tuple[int, ...]) -> "Simplex":
        """Wrap a tuple already known to be a valid simplex, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vs)
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def boundary(self) -> list["Simplex"]:
        """Codimension-1 faces, in lexicographic order (`face_tuples`)."""
        return [Simplex._of(f) for f in face_tuples(self.vertices)]

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


class Cell(NamedTuple):
    simplex: Simplex
    value: float
    in_subcomplex: bool


class CellTable(NamedTuple):
    """The k-cells of a complex: a `delaunay.FaceTable` (`simplices`,
    `facets`) with each row's filtration value and subcomplex flag."""

    simplices: np.ndarray
    facets: np.ndarray
    values: np.ndarray
    sub: np.ndarray


def _tables_of(cells) -> tuple[list[CellTable], list[np.ndarray]]:
    """One `CellTable` per dimension of the cells, given in any order, and
    each table row's position in that order.  A facet that is not among
    the cells gets row -1."""
    by_dim: dict[int, list] = {}
    for pos, (s, v, sub) in enumerate(cells):
        vs = s.vertices if isinstance(s, Simplex) else Simplex(s).vertices
        by_dim.setdefault(len(vs) - 1, []).append((pos, vs, float(v), bool(sub)))
    tables, index = [], []
    for k in range(max(by_dim, default=-1) + 1):
        pos, rows, values, sub = list(zip(*by_dim.get(k, []))) or ((), (), (), ())
        try:
            rows = np.array(rows, dtype=np.int64).reshape(len(pos), k + 1)
        except OverflowError:
            raise InputError(f"vertex index of a {k}-cell out of range") from None
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        if k == 0:
            facets = np.empty((len(rows), 0), dtype=np.int64)
        else:
            drops = [np.delete(rows, i, axis=1) for i in range(k + 1)]
            facets = np.stack([find_rows(tables[-1].simplices, d) for d in drops], axis=1)
        values = np.array(values, dtype=float)[order]
        tables.append(CellTable(rows, facets, values, np.array(sub, dtype=bool)[order]))
        index.append(np.array(pos, dtype=np.int64)[order])
    return tables, index


def _named(t: CellTable, bad: np.ndarray) -> tuple:
    """The vertex tuple of the first cell of `t` where `bad` (one flag per
    cell), or, for one flag per facet, (that facet's tuple, the cell's)."""
    if bad.ndim == 1:
        return tuple(t.simplices[np.flatnonzero(bad)[0]].tolist())
    r, i = np.argwhere(bad)[0]
    vs = tuple(t.simplices[r].tolist())
    return vs[:i] + vs[i + 1 :], vs


def _check(tables: list[CellTable]):
    """InputError unless the tables hold a filtered complex: in each
    dimension distinct rows of increasing vertices >= 0 in lexicographic order,
    every facet row the cell without that vertex (key equality), every
    value a number >= 0 and >= its facets' values, and the subcomplex
    closed under faces and at value 0.  The first offending cell of the
    lowest dimension is named."""
    for t in tables:
        rows = t.simplices
        rising = np.all(rows[:, 1:] > rows[:, :-1], axis=1)
        if not rising.all():
            raise InputError(f"simplex vertices must be strictly increasing: {_named(t, ~rising)}")
        if np.any(rows[:, 0] < 0):
            raise InputError(f"negative vertex index in {_named(t, rows[:, 0] < 0)}")
        differ = rows[1:] != rows[:-1]
        col = differ.argmax(axis=1)[:, None]
        if not np.take_along_axis(differ, col, 1).all():
            raise InputError(f"duplicate cell {_named(t, ~differ.any(axis=1))}")
        if np.any(np.take_along_axis(rows[1:], col, 1) < np.take_along_axis(rows[:-1], col, 1)):
            raise AssertionError("cell table rows are not in lexicographic order")
    for lower, t in zip(tables, tables[1:]):
        drops = np.stack([np.delete(t.simplices, i, axis=1) for i in range(t.simplices.shape[1])], axis=1)
        found = (t.facets >= 0) & (t.facets < len(lower.simplices))
        found[found] = np.all(lower.simplices[t.facets[found]] == drops[found], axis=1)
        if not found.all():
            raise InputError("missing face {} of {}".format(*_named(t, ~found)))
    for t in tables:
        if not np.all(t.values >= 0):
            raise InputError(f"negative or NaN filtration value on {_named(t, ~(t.values >= 0))}")
        if np.any(t.sub & (t.values != 0)):
            raise InputError(f"subcomplex cell {_named(t, t.sub & (t.values != 0))} must have value 0")
    for lower, t in zip(tables, tables[1:]):
        above = lower.values[t.facets] > t.values[:, None]
        if above.any():
            (f, vs), (r, i) = _named(t, above), np.argwhere(above)[0]
            raise InputError(
                f"non-monotone filtration: face {f}@{float(lower.values[t.facets[r, i]])} "
                f"above coface {vs}@{float(t.values[r])}"
            )
        open_ = t.sub[:, None] & ~lower.sub[t.facets]
        if open_.any():
            raise InputError("subcomplex not closed: face {} of {}".format(*_named(t, open_)))


class FilteredComplex:
    """Cells in dimension tables (`tables`, one `CellTable` per dimension
    from 0), checked on construction.

    `FilteredComplex(cells)` takes (simplex, value, in_subcomplex) triples
    in any order; `FilteredComplex(tables=...)` takes the tables, the cells
    then in dimension-major order.  Either way `index[k]` holds each row's
    position in that order, and the flat arrays `value`, `dim`, `sub` and
    `row` (a cell's row in its table) are indexed by it.
    """

    def __init__(self, cells=(), tables: list[CellTable] | None = None):
        if tables is None:
            tables, index = _tables_of(cells)
        else:
            sizes = [len(t.values) for t in tables]
            index = [np.arange(a, a + n) for a, n in zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes)]
        _check(tables)
        self.tables, self.index = tables, index
        n = sum(len(i) for i in index)
        self.value = np.empty(n)
        self.dim = np.empty(n, dtype=np.int64)
        self.sub = np.empty(n, dtype=bool)
        self.row = np.empty(n, dtype=np.int64)
        for k, (t, i) in enumerate(zip(tables, index)):
            self.value[i], self.dim[i], self.sub[i], self.row[i] = t.values, k, t.sub, np.arange(len(i))

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """The cells in their order, as `Cell` tuples (built on first use)."""
        out: list = [None] * len(self)
        for t, index in zip(self.tables, self.index):
            for i, vs, v, sub in zip(index.tolist(), t.simplices.tolist(), t.values.tolist(), t.sub.tolist()):
                out[i] = Cell(Simplex._of(tuple(vs)), v, sub)
        return tuple(out)

    def __len__(self):
        return len(self.value)

    def canonical_order(self) -> list[int]:
        """Indices sorted by (subcomplex first, value, dimension, vertices).

        Within a dimension a cell's table row is the rank of its vertex
        tuple, so this is one `np.lexsort`.  It is a linear extension of
        the face partial order, as required by the boundary-matrix
        reduction.
        """
        return np.lexsort((self.row, self.dim, self.value, ~self.sub)).tolist()

    def euler_characteristic(self, t: float) -> int:
        alive = self.value <= t
        return int(np.count_nonzero(alive & (self.dim % 2 == 0)) - np.count_nonzero(alive & (self.dim % 2 == 1)))


def build(cells=(), tables: list[CellTable] | None = None) -> FilteredComplex:
    """Validate and build, from cells or from tables (`FilteredComplex`);
    raises InputError on any invariant violation."""
    return FilteredComplex(cells, tables)


def dumps(c: FilteredComplex) -> str:
    """One cell per line: `v0 v1 ... vk <value> <0|1>`."""
    rows = [t.simplices.tolist() for t in c.tables]
    lines = [
        f"{' '.join(map(str, rows[k][r]))} {v!r} {int(sub)}"
        for k, r, v, sub in zip(c.dim.tolist(), c.row.tolist(), c.value.tolist(), c.sub.tolist())
    ]
    return "\n".join(lines) + "\n"


def loads(text: str) -> FilteredComplex:
    cells = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise InputError(f"line {lineno}: expected `v0 ... vk value flag`")
        try:
            verts = [int(v) for v in parts[:-2]]
            value = float(parts[-2])
            flag = int(parts[-1])
        except ValueError as e:
            raise InputError(f"line {lineno}: {e}") from e
        if flag not in (0, 1):
            raise InputError(f"line {lineno}: subcomplex flag must be 0 or 1")
        cells.append(Cell(Simplex(verts), value, bool(flag)))
    return build(cells)
