"""A deliberately broken pipeline, to check that `check` reports a
mismatch, and a float filter that certifies nothing, to check that the
fallbacks alone give the same result."""

from __future__ import annotations

import dataclasses

import numpy as np

from reldelcech import cli
from reldelcech.filtered_complex import Cell, FilteredComplex, build


def bump_maximal_cell(fc: FilteredComplex) -> FilteredComplex:
    """Raise the filtration value of the last cell outside the subcomplex
    that is no face of another cell; the result is still a valid filtration."""
    cofaced = {f for c in fc.cells for f in c.simplex.boundary()}
    cells = list(fc.cells)
    for i, c in reversed(list(enumerate(cells))):
        if not c.in_subcomplex and c.simplex not in cofaced:
            cells[i] = Cell(c.simplex, c.value * 1.25 + 0.125, False)
            break
    return build(cells)


def inject_fault(monkeypatch):
    """Make every `cli.build_pipeline` result carry a bumped complex."""
    real = cli.build_pipeline

    def faulty(*args, **kwargs):
        pipe = real(*args, **kwargs)
        return dataclasses.replace(pipe, complex=bump_maximal_cell(pipe.complex))

    monkeypatch.setattr(cli, "build_pipeline", faulty)


def certify_nothing(real):
    """`delaunay._orient_batch` with every sign uncertified, its values
    kept: every test goes to the exact or perturbed fallback."""

    def stub(*args):
        signs, values = real(*args)
        return np.zeros_like(signs), values

    return stub
