"""Brute-force relative Cech complex and barcode comparison.

Enumerates every vertex subset up to a dimension bound, so it is only
feasible at desk scale (|X| <= cap); it exists to cross-validate the lifted
Delaunay pipeline end to end.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .filtered_complex import Cell, FilteredComplex, Simplex, build
from .geometry import InputError, PointCloud, smallest_enclosing_ball, subset_indices
from .persistence import Barcode

ORACLE_CAP = 14


def relative_cech(
    x: PointCloud,
    a_indices,
    max_simplex_dim: int,
    cap: int = ORACLE_CAP,
) -> FilteredComplex:
    """All subsets of size <= max_simplex_dim + 1, filtered by enclosing-ball
    radius; subsets of A are the subcomplex (value 0 at every scale)."""
    n = len(x)
    if n > cap:
        raise InputError(f"oracle cap exceeded: {n} > {cap} points")
    if n == 0:
        raise InputError("empty cloud")
    a = set(subset_indices(a_indices, n))
    if max_simplex_dim < 0:
        raise InputError("max_simplex_dim must be >= 0")
    pts = x.coords.tolist()
    values: dict[Simplex, tuple[float, bool]] = {}
    for k in range(1, min(max_simplex_dim + 1, n) + 1):
        for comb in itertools.combinations(range(n), k):
            simp = Simplex(comb)
            if set(comb) <= a:
                values[simp] = (0.0, True)
                continue
            _, r = smallest_enclosing_ball([pts[i] for i in comb])
            if k > 1:
                # Same geometry, but guard against sub-ulp float noise.
                r = max(r, max(values[f][0] for f in simp.boundary()))
            values[simp] = (r, False)
    return build([Cell(s, v, sub) for s, (v, sub) in values.items()])


# -- barcode comparison ----------------------------------------------------------


def _bars_match(b1: tuple[float, float], b2: tuple[float, float], tol: float) -> bool:
    births = abs(b1[0] - b2[0]) <= tol
    if math.isinf(b1[1]) or math.isinf(b2[1]):
        return births and math.isinf(b1[1]) and math.isinf(b2[1])
    return births and abs(b1[1] - b2[1]) <= tol


def _near_diagonal(bar: tuple[float, float], tol: float) -> bool:
    return not math.isinf(bar[1]) and bar[1] - bar[0] <= 2 * tol


def _uncovered(bars1, bars2, tol) -> list:
    """The far bars of bars1, those more than 2*tol from the diagonal,
    that a maximum matching of them into bars2 (`_bars_match`) leaves
    uncovered.  A bar's partners are among the bars whose births lie
    within 2*tol of its own, found by bisection in the sorted births.  The
    matching grows by augmenting paths (Kuhn), each found depth first
    with an explicit stack, so no recursion deepens with the number of
    bars."""
    bars2 = sorted(bars2)
    births = [b[0] for b in bars2]
    adj = {}
    for i, b1 in enumerate(bars1):
        if not _near_diagonal(b1, tol):
            near = range(bisect_left(births, b1[0] - 2 * tol), bisect_right(births, b1[0] + 2 * tol))
            adj[i] = [j for j in near if _bars_match(b1, bars2[j], tol)]
    owner: dict[int, int] = {}  # a bar of bars2 -> the bar of bars1 it covers
    out = []
    for root in adj:
        seen: set[int] = set()
        stack, taken = [(root, iter(adj[root]))], []  # taken[k]: the bar stack[k] would take
        while stack:
            j = next((j for j in stack[-1][1] if j not in seen), None)
            if j is None:
                stack.pop()
                del taken[-1:]
                continue
            seen.add(j)
            taken.append(j)
            if j not in owner:
                owner.update((s, i) for (i, _), s in zip(stack, taken))
                break
            stack.append((owner[j], iter(adj[owner[j]])))
        else:
            out.append(bars1[root])
    return out


def _diagrams_match(bars1, bars2, tol) -> tuple[bool, list, list]:
    """Optimal matching with the diagonal free, as for bottleneck distance:
    bars within 2*tol of the diagonal may go unmatched, and the diagrams
    match iff one matching covers the far bars of both.  By the
    Mendelsohn-Dulmage theorem it exists iff a matching covers the far
    bars of each (`_uncovered`).  Returns (ok, uncovered1, uncovered2)."""
    un1, un2 = _uncovered(bars1, bars2, tol), _uncovered(bars2, bars1, tol)
    return not un1 and not un2, un1, un2


@dataclass
class BarcodeDiff:
    matched: bool
    tol: float
    unmatched: dict[int, tuple[list, list]]

    def text(self) -> str:
        if self.matched:
            return f"barcodes match (tolerance {self.tol:g})"
        lines = [f"barcodes differ (tolerance {self.tol:g}):"]
        for dim in sorted(self.unmatched):
            only1, only2 = self.unmatched[dim]
            if only1:
                lines.append(f"  H{dim} only in first: {only1}")
            if only2:
                lines.append(f"  H{dim} only in second: {only2}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def enc(bars):
            return [[b, None if math.isinf(d) else d] for b, d in bars]

        return {
            "matched": self.matched,
            "tol": self.tol,
            "unmatched": {
                str(dim): {"first": enc(b1), "second": enc(b2)}
                for dim, (b1, b2) in self.unmatched.items()
            },
        }


def compare_barcodes(b1: Barcode, b2: Barcode, tol: float = 1e-9) -> BarcodeDiff:
    """Multiset bar matching per dimension with per-endpoint tolerance;
    infinite deaths only match infinite deaths.  Bars within 2*tol of the
    diagonal may be matched to the diagonal instead of to a bar."""
    if b1.max_dim != b2.max_dim:
        raise InputError("barcodes have different max dimensions")
    unmatched: dict[int, tuple[list, list]] = {}
    for dim in b1.dims():
        bars1, bars2 = b1.bars(dim), b2.bars(dim)
        if len(bars1) == len(bars2) == 0:
            continue
        ok, un1, un2 = _diagrams_match(bars1, bars2, tol)
        if not ok:
            unmatched[dim] = (un1, un2)
    return BarcodeDiff(matched=not unmatched, tol=tol, unmatched=unmatched)
