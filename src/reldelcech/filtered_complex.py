"""Filtered simplicial complex with an optional marked subcomplex.

Cells carry a filtration value and a flag saying whether they belong to the
distinguished subcomplex (subcomplex cells sit at value 0 and come first in
the reduction order).  Validation raises instead of repairing: producers are
expected to hand in downward-closed, monotone data.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .delaunay import Simplex
from .geometry import InputError


class Cell(NamedTuple):
    simplex: Simplex
    value: float
    in_subcomplex: bool


class FilteredComplex:
    def __init__(self, cells):
        norm: list[Cell] = []
        for c in cells:
            s, v, sub = c
            if not isinstance(s, Simplex):
                s = Simplex(s)
            norm.append(Cell(s, float(v), bool(sub)))
        index = {}
        for i, c in enumerate(norm):
            if c.simplex in index:
                raise InputError(f"duplicate cell {c.simplex.vertices}")
            index[c.simplex] = i
        for c in norm:
            if math.isnan(c.value) or c.value < 0:
                raise InputError(f"negative or NaN filtration value on {c.simplex.vertices}")
            if c.in_subcomplex and c.value != 0:
                raise InputError(f"subcomplex cell {c.simplex.vertices} must have value 0")
            for f in c.simplex.boundary():
                j = index.get(f)
                if j is None:
                    raise InputError(f"missing face {f.vertices} of {c.simplex.vertices}")
                face = norm[j]
                if face.value > c.value:
                    raise InputError(
                        f"non-monotone filtration: face {f.vertices}@{face.value} "
                        f"above coface {c.simplex.vertices}@{c.value}"
                    )
                if c.in_subcomplex and not face.in_subcomplex:
                    raise InputError(
                        f"subcomplex not closed: face {f.vertices} of {c.simplex.vertices}"
                    )
        self.cells: tuple[Cell, ...] = tuple(norm)
        self.vertex_count = max((c.simplex.vertices[-1] for c in norm), default=-1) + 1

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def canonical_order(self) -> list[int]:
        """Indices sorted by (subcomplex first, value, dimension, vertices).

        This is a linear extension of the face partial order, as required by
        the boundary-matrix reduction.
        """
        return sorted(
            range(len(self.cells)),
            key=lambda i: (
                not self.cells[i].in_subcomplex,
                self.cells[i].value,
                self.cells[i].simplex.dim,
                self.cells[i].simplex.vertices,
            ),
        )

    def euler_characteristic(self, t: float) -> int:
        chi = 0
        for c in self.cells:
            if c.value <= t:
                chi += -1 if c.simplex.dim % 2 else 1
        return chi


def build(cells) -> FilteredComplex:
    """Validate and build; raises InputError on any invariant violation."""
    return FilteredComplex(cells)


def dumps(c: FilteredComplex) -> str:
    """One cell per line: `v0 v1 ... vk <value> <0|1>`."""
    lines = []
    for cell in c.cells:
        verts = " ".join(str(v) for v in cell.simplex.vertices)
        lines.append(f"{verts} {cell.value!r} {1 if cell.in_subcomplex else 0}")
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
