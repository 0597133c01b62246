"""Filtered simplicial complex with an optional marked subcomplex.

Cells carry a filtration value and a flag saying whether they belong to the
distinguished subcomplex (subcomplex cells sit at value 0 and come first in
the reduction order).  Validation raises instead of repairing: producers are
expected to hand in downward-closed, monotone data.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .delaunay import Simplex, face_tuples
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
        # Cells are indexed by their vertex tuples, faces by `face_tuples`.
        index: dict[tuple[int, ...], Cell] = {}
        for c in norm:
            vs = c.simplex.vertices
            if vs in index:
                raise InputError(f"duplicate cell {vs}")
            index[vs] = c
        for c in norm:
            vs = c.simplex.vertices
            if math.isnan(c.value) or c.value < 0:
                raise InputError(f"negative or NaN filtration value on {vs}")
            if c.in_subcomplex and c.value != 0:
                raise InputError(f"subcomplex cell {vs} must have value 0")
            for f in face_tuples(vs):
                face = index.get(f)
                if face is None:
                    raise InputError(f"missing face {f} of {vs}")
                if face.value > c.value:
                    raise InputError(
                        f"non-monotone filtration: face {f}@{face.value} "
                        f"above coface {vs}@{c.value}"
                    )
                if c.in_subcomplex and not face.in_subcomplex:
                    raise InputError(f"subcomplex not closed: face {f} of {vs}")
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
        keys = [(not c.in_subcomplex, c.value, len(c.simplex.vertices), c.simplex.vertices) for c in self.cells]
        return sorted(range(len(keys)), key=keys.__getitem__)

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
