"""Brute-force relative Cech complex and barcode comparison.

Enumerates every vertex subset up to a dimension bound, so it is only
feasible at desk scale (|X| <= cap); it exists to cross-validate the lifted
Delaunay pipeline end to end.
"""

from __future__ import annotations

import itertools
import math
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


def _max_matching(adj, n_left, n_right) -> dict[int, int]:
    """Maximum bipartite matching (augmenting paths); returns right->left."""
    match_right: dict[int, int] = {}

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(n_left):
        augment(i, set())
    return match_right


def _diagrams_match(bars1, bars2, tol) -> tuple[bool, list, list]:
    """Optimal matching with the diagonal free, as for bottleneck distance:
    each side is padded with one diagonal slot per opposite bar, bars within
    2*tol of the diagonal may use them, and the match succeeds iff the padded
    matching is perfect.  Returns (ok, unmatched1, unmatched2)."""
    n1, n2 = len(bars1), len(bars2)
    # Left nodes: 0..n1-1 real, n1..n1+n2-1 diagonal slots for bars2.
    # Right nodes: 0..n2-1 real, n2..n2+n1-1 diagonal slots for bars1.
    adj = []
    for i, b1 in enumerate(bars1):
        edges = [j for j, b2 in enumerate(bars2) if _bars_match(b1, b2, tol)]
        if _near_diagonal(b1, tol):
            edges.append(n2 + i)
        adj.append(edges)
    for j, b2 in enumerate(bars2):
        edges = [j] if _near_diagonal(b2, tol) else []
        edges.extend(range(n2, n2 + n1))  # diagonal-diagonal always allowed
        adj.append(edges)
    match_right = _max_matching(adj, n1 + n2, n2 + n1)
    matched_left = set(match_right.values())
    ok = all(i in matched_left for i in range(n1)) and all(
        j in match_right for j in range(n2)
    )
    un1 = [bars1[i] for i in range(n1) if i not in matched_left]
    un2 = [bars2[j] for j in range(n2) if j not in match_right]
    return ok, un1, un2


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
