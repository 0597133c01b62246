"""Filtered simplicial complex with an optional marked subcomplex.

Cells carry a filtration value and a flag saying whether they belong to the
distinguished subcomplex (subcomplex cells sit at value 0 and come first in
the reduction order).  Validation raises instead of repairing: producers are
expected to hand in downward-closed, monotone data.

A complex is its face tables.  The cells of each dimension k are one
`CellTable`: the vertex rows, sorted lexicographically, each row's facets
as rows of dimension k - 1 (`delaunay.FaceTable`), and their values and
subcomplex flags.  Every check is an array operation over these tables.
The cells have one order, which needs no bookkeeping: by dimension, and
within a dimension by table row, that is, by vertex tuple.  `cells`,
`dumps` and the indices of `canonical_order` refer to it, whatever order
cells were handed in.

`Simplex` and `Cell` are output views of these rows.  `loads`, the
oracle and hand-built complexes hand cells in as them, and `cells` builds
them on first use; the pipeline hands in tables and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .delaunay import faces, find_rows
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
        """Codimension-1 faces, in lexicographic order: dropping a later
        vertex leaves a smaller tuple."""
        vs = self.vertices
        if len(vs) == 1:
            return []
        return [Simplex._of(vs[:i] + vs[i + 1 :]) for i in range(len(vs) - 1, -1, -1)]

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


def _tables_of(cells) -> list[CellTable]:
    """One `CellTable` per dimension of the cells, given in any order.  A
    facet that is not among the cells gets row -1."""
    by_dim: dict[int, list] = {}
    for s, v, sub in cells:
        vs = s.vertices if isinstance(s, Simplex) else Simplex(s).vertices
        by_dim.setdefault(len(vs) - 1, []).append((vs, float(v), bool(sub)))
    tables = []
    for k in range(max(by_dim, default=-1) + 1):
        rows, values, sub = list(zip(*by_dim.get(k, []))) or ((), (), ())
        try:
            rows = np.array(rows, dtype=np.int64).reshape(len(values), k + 1)
        except OverflowError:
            raise InputError(f"vertex index of a {k}-cell out of range") from None
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        if k == 0:
            facets = np.empty((len(rows), 0), dtype=np.int64)
        else:
            facets = find_rows(tables[-1].simplices, faces(rows).reshape(-1, k)).reshape(len(rows), k + 1)
        tables.append(CellTable(rows, facets, np.array(values, dtype=float)[order], np.array(sub, dtype=bool)[order]))
    return tables


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
        drops = faces(t.simplices)
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
    """The cells of a complex as its dimension tables (`tables`, one
    `CellTable` per dimension from 0), checked on construction.

    The cells are in table order: by dimension, then by table row.  The
    flat arrays `value`, `dim` and `sub` are the tables concatenated, and
    `offsets[k]` is the index of the first k-cell (`offsets[-1]` the
    number of cells).
    """

    def __init__(self, tables: list[CellTable]):
        _check(tables)
        self.tables = tables
        sizes = [len(t.values) for t in tables]
        self.offsets = np.cumsum([0, *sizes])
        self.value = np.concatenate([np.empty(0), *(t.values for t in tables)])
        self.dim = np.repeat(np.arange(len(tables)), sizes)
        self.sub = np.concatenate([np.empty(0, dtype=bool), *(t.sub for t in tables)])

    def _rows(self):
        """The vertex list of each cell, in order."""
        return (vs for t in self.tables for vs in t.simplices.tolist())

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """The cells in their order, as `Cell` tuples (built on first use)."""
        return tuple(Cell(Simplex._of(tuple(vs)), v, sub) for vs, v, sub in zip(self._rows(), self.value.tolist(), self.sub.tolist()))

    def __len__(self):
        return len(self.value)

    def canonical_order(self) -> np.ndarray:
        """Indices sorted by (subcomplex first, value, dimension, vertices),
        an int64 array.

        Within a dimension the cells are in the order of their vertex
        tuples, and `np.lexsort` is stable, so ties on the first three
        keys keep that order.  It is a linear extension of the face
        partial order, as required by the boundary-matrix reduction.
        """
        return np.lexsort((self.dim, self.value, ~self.sub))

    def euler_characteristic(self, t: float) -> int:
        alive = self.value <= t
        return int(np.count_nonzero(alive & (self.dim % 2 == 0)) - np.count_nonzero(alive & (self.dim % 2 == 1)))


def build(cells=(), tables: list[CellTable] | None = None) -> FilteredComplex:
    """Validate and build, from cells in any order (`_tables_of`) or from
    tables; raises InputError on any invariant violation."""
    return FilteredComplex(_tables_of(cells) if tables is None else tables)


def dumps(c: FilteredComplex) -> str:
    """One cell per line, in the complex's order: `v0 v1 ... vk <value> <0|1>`."""
    lines = [f"{' '.join(map(str, vs))} {v!r} {int(sub)}" for vs, v, sub in zip(c._rows(), c.value.tolist(), c.sub.tolist())]
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
