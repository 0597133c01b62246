"""Persistent homology over GF(2) by boundary-matrix reduction with clearing
and apparent pairs.

Relative persistence quotients out the marked subcomplex: its cells
contribute neither rows nor columns, which computes the homology of the
factor chain complex directly.  The boundary matrix is one int array with
a row per column of the matrix: the column's face ranks, sorted, after
-1s that pad every column to one width.  It is read from the complex's
facet tables (`filtered_complex.CellTable`) through one rank array: a
complex's k-cells are its cells from offsets[k] on, in table order, so
facet row r of a k-cell is cell offsets[k - 1] + r.  So a column's last
entry is its lowest row.

Most pairs need no reduction (Bauer, "Ripser: efficient computation of
Vietoris-Rips persistence barcodes", JACT 2021): (sigma, tau) is an
apparent pair when sigma is tau's lowest row and tau is sigma's first
coface.  No column before tau has sigma, so column tau is reduced as it
is and pairs sigma with tau.  On the Delaunay-Cech complexes of the
pipeline most of them are the zero-length pairs of the face-reuse rule
(Bauer & Edelsbrunner, "The Morse theory of Cech and Delaunay
complexes", TAMS 2017).  The reduction's one piece of state is the pivot
map, lowest row -> its column, seeded with the apparent pairs; the other
columns are reduced as sorted lists, and addition is symmetric
difference.  Dimensions are processed in decreasing order, so a row that
is already a key is a birth that dies there, and its column is cleared
without reduction.  Barcodes read the value and dimension arrays of the
complex at the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .filtered_complex import FilteredComplex
from .geometry import InputError


@dataclass
class BoundaryMatrix:
    """Quotient (or absolute) boundary operator in the reduction order.

    Column j is the cell `selected[j]` of `complex`; `faces[j]` holds the
    row indices of its codimension-1 faces that survive the quotient,
    sorted, after the -1s that pad it to the width of the widest column.
    So faces[j, -1] is column j's lowest row, -1 when the column is empty.
    """

    complex: FilteredComplex
    selected: np.ndarray
    faces: np.ndarray

    @cached_property
    def columns(self) -> list[list[int]]:
        """Each column as the sorted list of its rows (built on first use)."""
        return [col[col.count(-1) :] for col in self.faces.tolist()]


def _permutation(order, n: int) -> np.ndarray:
    """`order` as an int64 array, if it lists each of 0..n - 1 exactly once."""
    a = np.asarray(order)
    if a.shape == (n,) and (n == 0 or a.dtype.kind in "iu"):
        a = a.astype(np.int64, copy=False)
        if np.all((a >= 0) & (a < n)) and np.all(np.bincount(a, minlength=n) == 1):
            return a
    raise InputError(f"order must list each of the {n} cell indices exactly once")


def boundary_matrix(c: FilteredComplex, relative: bool, order: list[int] | None = None) -> BoundaryMatrix:
    """Boundary matrix over the canonical order (or an explicit valid order).

    relative=True drops subcomplex cells from rows and columns; with an empty
    subcomplex both modes coincide.  A k-cell's faces are its facet rows
    in the complex's tables (`CellTable.facets`) plus offsets[k - 1],
    mapped to columns by one rank array.  A face outside the selected
    cells is dropped: its rank is -1, so it sorts into the padding.  An
    `order` that is not a permutation of the cell indices raises
    InputError; one that puts a face after its cell raises AssertionError.
    """
    selected = c.canonical_order() if order is None else _permutation(order, len(c))
    if relative:
        selected = selected[~c.sub[selected]]
    rank = np.full(len(c), -1, dtype=np.int64)
    rank[selected] = np.arange(len(selected))
    width = max(1, len(c.tables))  # a k-cell has k + 1 facets
    out = np.full((len(selected), width), -1, dtype=np.int64)
    for k, t in enumerate(c.tables[1:], start=1):
        own = rank[c.offsets[k] : c.offsets[k + 1]]
        faces = rank[c.offsets[k - 1] + t.facets][own >= 0]
        own = own[own >= 0]
        if np.any(faces >= own[:, None]):
            raise AssertionError("order is not a linear extension of the face order")
        faces.sort(axis=1)
        out[own, width - k - 1 :] = faces
    return BoundaryMatrix(c, selected, out)


def _xor_merge(a: list[int], b: list[int]) -> list[int]:
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


@dataclass
class Reduction:
    """The persistence pairs of `matrix`: row births[i] dies with column
    deaths[i], births increasing, and the columns of `essential` are in
    no pair.  `reduced` holds the columns that the reduction formed or
    read as lists; `pairs`, `unpaired` and `columns` are list views."""

    births: np.ndarray
    deaths: np.ndarray
    essential: np.ndarray
    matrix: BoundaryMatrix = field(repr=False)
    reduced: dict[int, list[int]] = field(repr=False)

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.births.tolist(), self.deaths.tolist()))

    @cached_property
    def unpaired(self) -> list[int]:
        return self.essential.tolist()

    @cached_property
    def columns(self) -> list[list[int]]:
        """Every reduced column (built on first use): a birth's is empty,
        and a column the reduction never formed is its boundary column,
        reduced as it is."""
        born = np.zeros(len(self.matrix.faces), dtype=bool)
        born[self.births] = True
        out = [[] if b else col for col, b in zip(self.matrix.columns, born.tolist())]
        for j, col in self.reduced.items():
            out[j] = col
        return out


def reduce_matrix(m: BoundaryMatrix) -> Reduction:
    """Column reduction with clearing, seeded with the apparent pairs.

    The one piece of state is `pivot`, lowest row -> its column.  It
    starts as the apparent pairs: tau with lowest row sigma, where tau is
    the first column that has sigma (one `np.minimum.at` over the faces).
    The other columns are reduced by decreasing dimension, in increasing
    order within one.  A row that is some column's lowest is a birth
    that dies there, so its own column reduces to zero: the keys of
    `pivot` are exactly the columns that clearing skips.  A column added
    to another is its reduced list, or, for an apparent pair's column,
    its boundary read from `m.faces`.  The pairs are the items of
    `pivot`.  `m` is left as it is.
    """
    faces = m.faces
    n = len(faces)
    low = faces[:, -1]
    first = np.full(n, n, dtype=np.int64)
    owner, slot = np.nonzero(faces >= 0)
    np.minimum.at(first, faces[owner, slot], owner)
    tau = np.flatnonzero(low >= 0)
    tau = tau[first[low[tau]] == tau]
    apparent = np.zeros(n, dtype=bool)
    apparent[low[tau]] = apparent[tau] = True
    pivot = dict(zip(low[tau].tolist(), tau.tolist()))
    order = np.argsort(-m.complex.dim[m.selected], kind="stable")
    order = order[~apparent[order]]
    cols: dict[int, list[int]] = {}
    for j, col in zip(order.tolist(), faces[order].tolist()):
        if j in pivot:
            cols[j] = []
            continue
        col = col[col.count(-1) :]
        while col:
            k = pivot.get(col[-1])
            if k is None:
                break
            other = cols.get(k)
            if other is None:  # an apparent pair's column
                other = faces[k].tolist()
                other = cols[k] = other[other.count(-1) :]
            col = _xor_merge(col, other)
        cols[j] = col
        if col:
            pivot[col[-1]] = j
    births = np.fromiter(pivot, np.int64, len(pivot))
    deaths = np.fromiter(pivot.values(), np.int64, len(pivot))
    by = np.argsort(births)
    paired = np.zeros(n, dtype=bool)
    paired[births] = paired[deaths] = True
    return Reduction(births[by], deaths[by], np.flatnonzero(~paired), m, cols)


class Barcode:
    """Per-dimension multisets of (birth, death) intervals, death may be inf."""

    def __init__(self, intervals: dict[int, list[tuple[float, float]]], max_dim: int):
        self.max_dim = max_dim
        self._bars = {
            k: sorted(intervals.get(k, []), key=lambda b: (b[0], b[1]))
            for k in range(max_dim + 1)
        }

    def bars(self, dim: int) -> list[tuple[float, float]]:
        return list(self._bars.get(dim, []))

    def dims(self) -> list[int]:
        return list(range(self.max_dim + 1))

    def betti(self, dim: int, t: float) -> int:
        """Number of bars alive at t (lower-closed births, open deaths);
        at t = inf exactly the infinite bars count."""
        return sum(
            1
            for b, d in self.bars(dim)
            if b <= t and (math.isinf(d) or t < d)
        )

    def __eq__(self, other):
        return isinstance(other, Barcode) and self._bars == other._bars and self.max_dim == other.max_dim

    def __repr__(self):
        parts = [f"H{k}:{self._bars[k]}" for k in self.dims() if self._bars[k]]
        return "Barcode(" + ", ".join(parts) + ")"

    def to_json_dict(self, relative: bool) -> dict:
        return {
            "field": "GF(2)",
            "relative": bool(relative),
            "dims": [
                {
                    "dim": k,
                    "bars": [[b, None if math.isinf(d) else d] for b, d in self.bars(k)],
                }
                for k in self.dims()
            ],
        }


def barcode(c: FilteredComplex, relative: bool, max_dim: int, order: list[int] | None = None) -> Barcode:
    """Barcode of the (relative) filtration up to homology dimension max_dim.

    Zero-length bars are dropped; an unpaired k-cell yields an infinite bar.
    """
    if max_dim < 0:
        raise InputError("max_dim must be >= 0")
    m = boundary_matrix(c, relative, order=order)
    red = reduce_matrix(m)
    values = c.value[m.selected]
    keep = values[red.births] != values[red.deaths]
    born = np.concatenate([red.births[keep], red.essential])
    death = np.concatenate([values[red.deaths[keep]], np.full(len(red.essential), math.inf)])
    dims = c.dim[m.selected][born]
    intervals: dict[int, list[tuple[float, float]]] = {}
    for k in range(max_dim + 1):
        at = dims == k
        intervals[k] = list(zip(values[born[at]].tolist(), death[at].tolist()))
    return Barcode(intervals, max_dim)
