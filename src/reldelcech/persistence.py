"""Persistent homology over GF(2) by boundary-matrix reduction with clearing.

Relative persistence quotients out the marked subcomplex: its cells
contribute neither rows nor columns, which computes the homology of the
factor chain complex directly.  Columns are sorted index lists, read from
the complex's facet tables (`filtered_complex.CellTable`) through one rank
array: a complex's k-cells are its cells from offsets[k] on, in table
order, so facet row r of a k-cell is cell offsets[k - 1] + r.  Addition
is symmetric difference; dimensions are processed in decreasing order so
that columns of already-paired birth cells can be cleared without
reduction.  Barcodes read the value and dimension arrays of the complex.
"""

from __future__ import annotations

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

    @property
    def size(self) -> int:
        return len(self.columns)

    def dims(self) -> list[int]:
        return self.complex.dim[self.selected].tolist()

    def values(self) -> list[float]:
        return self.complex.value[self.selected].tolist()


def boundary_matrix(c: FilteredComplex, relative: bool, order: list[int] | None = None) -> BoundaryMatrix:
    """Boundary matrix over the canonical order (or an explicit valid order).

    relative=True drops subcomplex cells from rows and columns; with an empty
    subcomplex both modes coincide.  A k-cell's faces are its facet rows
    in the complex's tables (`CellTable.facets`) plus offsets[k - 1],
    mapped to columns by one rank array.  A face outside the selected
    cells is dropped; a face that `order` puts after its cell raises
    AssertionError.
    """
    if order is None:
        order = c.canonical_order()
    selected = np.asarray(order, dtype=np.int64)
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

    Dimensions are processed in decreasing order; when a pair (i, j) is
    found, column i is known to die and is cleared instead of reduced.
    It rebinds columns and never edits one, so `m` keeps its own.
    """
    cols = list(m.columns)
    dims = m.dims()
    pivot: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    cleared: set[int] = set()
    by_dim: dict[int, list[int]] = {}
    for j, d in enumerate(dims):
        by_dim.setdefault(d, []).append(j)
    for d in sorted(by_dim, reverse=True):
        for j in by_dim[d]:
            if j in cleared:
                cols[j] = []
                continue
            col = cols[j]
            while col:
                low = col[-1]
                k = pivot.get(low)
                if k is None:
                    break
                col = _xor_merge(col, cols[k])
            cols[j] = col
            if col:
                low = col[-1]
                pivot[low] = j
                pairs.append((low, j))
                cleared.add(low)
    paired_rows = {i for i, _ in pairs}
    paired_cols = {j for _, j in pairs}
    unpaired = [i for i in range(m.size) if i not in paired_rows and i not in paired_cols]
    pairs.sort()
    return Reduction(pairs, unpaired, cols)


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

    def total_bars(self) -> int:
        return sum(len(v) for v in self._bars.values())

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "Barcode":
        intervals = {}
        max_dim = 0
        for entry in data["dims"]:
            k = int(entry["dim"])
            max_dim = max(max_dim, k)
            intervals[k] = [
                (float(b), math.inf if d is None else float(d)) for b, d in entry["bars"]
            ]
        return cls(intervals, max_dim)


def barcode(c: FilteredComplex, relative: bool, max_dim: int, order: list[int] | None = None) -> Barcode:
    """Barcode of the (relative) filtration up to homology dimension max_dim.

    Zero-length bars are dropped; an unpaired k-cell yields an infinite bar.
    """
    if max_dim < 0:
        raise InputError("max_dim must be >= 0")
    m = boundary_matrix(c, relative, order=order)
    red = reduce_matrix(m)
    values, dims = m.values(), m.dims()
    intervals: dict[int, list[tuple[float, float]]] = {}
    for i, j in red.pairs:
        birth = values[i]
        death = values[j]
        if birth == death:
            continue
        k = dims[i]
        if k <= max_dim:
            intervals.setdefault(k, []).append((birth, death))
    for i in red.unpaired:
        k = dims[i]
        if k <= max_dim:
            intervals.setdefault(k, []).append((values[i], math.inf))
    return Barcode(intervals, max_dim)
