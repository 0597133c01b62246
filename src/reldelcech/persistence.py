"""Persistent homology over GF(2) by boundary-matrix reduction with clearing.

Relative persistence quotients out the marked subcomplex: its cells
contribute neither rows nor columns, which computes the homology of the
factor chain complex directly.  Columns are sorted index lists, read from
the complex's facet tables (`filtered_complex.CellTable`) through one rank
array: a complex's k-cells are its cells from offsets[k] on, in table
order, so facet row r of a k-cell is cell offsets[k - 1] + r.  Addition
is symmetric difference.  The reduction's one piece of state is the pivot
map, lowest row -> its column; dimensions are processed in decreasing
order, so a row that is already a key is a birth that dies there, and its
column is cleared without reduction.  Barcodes read the value and
dimension arrays of the complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .filtered_complex import FilteredComplex
from .geometry import InputError


@dataclass
class BoundaryMatrix:
    """Quotient (or absolute) boundary operator in the reduction order.

    Column j is the cell `selected[j]` of `complex`; `columns[j]` lists the
    row indices (sorted) of its codimension-1 faces that survive the
    quotient.
    """

    complex: FilteredComplex
    selected: np.ndarray
    columns: list[list[int]]


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
    cells is dropped.  An `order` that is not a permutation of the cell
    indices raises InputError; one that puts a face after its cell raises
    AssertionError.
    """
    selected = _permutation(c.canonical_order() if order is None else order, len(c))
    if relative:
        selected = selected[~c.sub[selected]]
    rank = np.full(len(c), -1, dtype=np.int64)
    rank[selected] = np.arange(len(selected))
    columns: list[list[int]] = [[] for _ in range(len(selected))]
    for k, t in enumerate(c.tables[1:], start=1):
        own = rank[c.offsets[k] : c.offsets[k + 1]]
        faces = rank[c.offsets[k - 1] + t.facets][own >= 0]
        own = own[own >= 0]
        if np.any(faces >= own[:, None]):
            raise AssertionError("order is not a linear extension of the face order")
        faces.sort(axis=1)
        dropped = np.count_nonzero(faces < 0, axis=1)  # quotiented faces sort first
        for j, col, skip in zip(own.tolist(), faces.tolist(), dropped.tolist()):
            columns[j] = col[skip:]
    return BoundaryMatrix(c, selected, columns)


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
    pairs: list[tuple[int, int]]
    unpaired: list[int]
    columns: list[list[int]] = field(repr=False)


def reduce_matrix(m: BoundaryMatrix) -> Reduction:
    """Left-to-right column reduction with the clearing optimization.

    The one piece of state is `pivot`, lowest row -> its column.  Columns
    are reduced by decreasing dimension, in increasing order within one.
    A row that is some column's lowest is a birth that dies there, so its
    own column reduces to zero: the keys of `pivot` are exactly the
    columns that clearing skips.  The pairs are the items of `pivot`.
    It rebinds columns and never edits one, so `m` keeps its own.
    """
    cols = list(m.columns)
    pivot: dict[int, int] = {}
    for j in np.argsort(-m.complex.dim[m.selected], kind="stable").tolist():
        if j in pivot:
            cols[j] = []
            continue
        col = cols[j]
        while col:
            k = pivot.get(col[-1])
            if k is None:
                break
            col = _xor_merge(col, cols[k])
        cols[j] = col
        if col:
            pivot[col[-1]] = j
    paired = set(pivot)
    paired.update(pivot.values())
    unpaired = [i for i in range(len(cols)) if i not in paired]
    return Reduction(sorted(pivot.items()), unpaired, cols)


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
    values = c.value[m.selected].tolist()
    dims = c.dim[m.selected].tolist()
    bars = itertools.chain(
        ((i, values[j]) for i, j in red.pairs if values[i] != values[j]),
        ((i, math.inf) for i in red.unpaired),
    )
    intervals: dict[int, list[tuple[float, float]]] = {}
    for i, death in bars:
        k = dims[i]
        if k <= max_dim:
            intervals.setdefault(k, []).append((values[i], death))
    return Barcode(intervals, max_dim)
