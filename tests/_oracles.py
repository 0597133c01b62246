"""Independent oracles used by the acceptance suite.

Everything here is deliberately written against different formulations than
the library code paths it validates: subset enumeration instead of Welzl,
minor expansion instead of Bareiss, Welzl on every cell instead of balls
taken from faces, a degree-sorted table instead of a numeral walk, bitset
Gaussian elimination instead of column reduction, the standard column
reduction instead of reduction with clearing, one scalar filter per
orientation instead of the batch kernel.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

from reldelcech.delaunay import _hull_space, _perturbed_signs
from reldelcech.geometry import smallest_enclosing_ball
from reldelcech.predicates import _FILTER_C, cofactors


def minor_expansion_det(rows):
    """Exact determinant by first-row expansion with column-set memoization,
    in the entries' own type: ints or Fractions, never floats."""
    n = len(rows)
    assert not any(isinstance(x, float) for row in rows for x in row), "pass ints or Fractions"
    memo: dict = {}

    def go(i, cols):
        if i == n:
            return 1
        key = (i, cols)
        if key in memo:
            return memo[key]
        total = 0
        sign = 1
        for c in sorted(cols):
            x = rows[i][c]
            if x:
                total += sign * x * go(i + 1, cols - {c})
            sign = -sign
        memo[key] = total
        return total

    return go(0, frozenset(range(n)))


def sos_assignment_order(ranks, ncoords: int) -> list[tuple[tuple[int, int], ...]]:
    """Every partial injection row -> coordinate column, as (row, column)
    pairs, sorted by its perturbation degree sum (c + 1) * B^position(row),
    B = ncoords + 2, position = the row's place among the sorted ranks."""
    n_rows = len(ranks)
    position = {r: p for p, r in enumerate(sorted(ranks))}
    weights = [(ncoords + 2) ** position[r] for r in ranks]
    out = []
    for k in range(1, min(n_rows, ncoords) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.permutations(range(ncoords), k):
                degree = sum((c + 1) * weights[i] for i, c in zip(rows, cols))
                out.append((degree, tuple(zip(rows, cols))))
    degrees = [d for d, _ in out]
    assert len(set(degrees)) == len(degrees)
    return [a for _, a in sorted(out)]


def exact_range_reference(rows: np.ndarray, int_rows) -> bool:
    """Whether the float lifted rows `rows` of a cloud are in the exact
    range, entry by entry: every float row integer-valued, the float rows
    the homogeneous integer rows `int_rows` up to a positive factor per
    column (not roundings of them), and P! * prod_c max(1, range of column
    c) < 2^53 over the float rows."""
    if not np.all(rows == np.floor(rows)):
        return False
    bound = math.factorial(rows.shape[1])
    for lo, hi in zip(rows.min(axis=0).tolist(), rows.max(axis=0).tolist()):
        bound *= max(1, int(hi) - int(lo))
    if bound >= 1 << 53:
        return False
    for c, col in enumerate(zip(*rows.tolist())):
        col = [int(x) for x in col]  # Python ints: exact products
        ref = max(range(len(col)), key=lambda i: abs(col[i]))
        f0, i0 = col[ref], int_rows[ref][c]
        if f0 == 0:
            if any(row[c] for row in int_rows):
                return False
        elif i0 == 0 or (i0 > 0) != (f0 > 0) or any(f * i0 != row[c] * f0 for f, row in zip(col, int_rows)):
            return False
    return True


def _solve_gauss(a, b):
    """Plain float Gaussian elimination; None if (near) singular."""
    n = len(b)
    m = [list(a[i]) + [b[i]] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if abs(m[p][k]) < 1e-12:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(n):
            if i != k and m[i][k] != 0.0:
                f = m[i][k] / m[k][k]
                for j in range(k, n + 1):
                    m[i][j] -= f * m[k][j]
    return [m[i][n] / m[i][i] for i in range(n)]


def subset_circumball(sub):
    """Smallest ball with all of `sub` on the boundary, from the
    equidistance normal equations relative to the first point."""
    p0 = sub[0]
    k = len(sub)
    if k == 1:
        return p0, 0.0
    dim = len(p0)
    rows = [[2.0 * (p[c] - p0[c]) for c in range(dim)] for p in sub[1:]]
    rhs = [sum((p[c] - p0[c]) ** 2 for c in range(dim)) for p in sub[1:]]
    # least-norm solution of rows @ y = rhs via the Gram system
    gram = [[sum(ri[c] * rj[c] for c in range(dim)) for rj in rows] for ri in rows]
    lam = _solve_gauss(gram, rhs)
    if lam is None:
        lam_np = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
        y = lam_np.tolist()
    else:
        y = [sum(lam[i] * rows[i][c] for i in range(k - 1)) for c in range(dim)]
    center = tuple(p0[c] + y[c] for c in range(dim))
    r = max(math.dist(center, p) for p in sub)
    return center, r


def brute_meb_radius(pts, dim) -> float:
    """Minimum circumball radius over subsets of size <= dim+1 whose ball
    contains every point."""
    best = None
    for k in range(1, min(len(pts), dim + 1) + 1):
        for sub in itertools.combinations(pts, k):
            center, r = subset_circumball(list(sub))
            tol = 1e-9 * (1.0 + r)
            if all(math.dist(center, p) <= r + tol for p in pts):
                if best is None or r < best:
                    best = r
    return best


def welzl_values(c, proj: np.ndarray) -> np.ndarray:
    """The filtration values of the complex `c`, recomputed cell by cell:
    `smallest_enclosing_ball` of each cell's vertices' rows of `proj`,
    raised dimension by dimension to its facets' values, 0 on subcomplex
    cells.  No ball is taken from a face or a batched circumball."""
    out: list[np.ndarray] = []
    for t in c.tables:
        balls = (0.0 if sub else smallest_enclosing_ball(proj[row].tolist())[1] for row, sub in zip(t.simplices, t.sub))
        values = np.fromiter(balls, float, len(t.sub))
        if out:
            values = np.maximum(values, out[-1][t.facets].max(axis=1))
        values[t.sub] = 0.0
        out.append(values)
    return np.concatenate(out)


def standard_reduction(m) -> tuple[list[tuple[int, int]], list[int]]:
    """(pairs, unpaired) of the boundary matrix `m` by the standard column
    reduction (Edelsbrunner, Letscher & Zomorodian, "Topological
    persistence and simplification", DCG 2002): columns left to right in
    the filtration order, each column added to by the earlier column of
    its lowest row until that row is no other column's lowest or the
    column is zero.  No clearing, columns as sets of rows."""
    lowest: dict[int, int] = {}  # row -> the reduced column whose lowest row it is
    reduced, pairs = [], []
    for j, col in enumerate(m.columns):
        col = set(col)
        while col and max(col) in lowest:
            col ^= reduced[lowest[max(col)]]
        reduced.append(col)
        if col:
            lowest[max(col)] = j
            pairs.append((max(col), j))
    paired = {i for pair in pairs for i in pair}
    return sorted(pairs), [j for j in range(len(reduced)) if j not in paired]


def qhull_relative_barcode(x1: np.ndarray, x2: np.ndarray, max_dim: int, spatial) -> dict[int, list[tuple[float, float]]]:
    """The relative Delaunay-Cech barcode of (X1 + X2, X1), bars sorted per
    dimension, from Qhull (`spatial`, `scipy.spatial`): del(Z) is
    `spatial.Delaunay` of X1 at height +1 and X2 at -1, every face of its
    tops a tuple.  A cell's value is `smallest_enclosing_ball` of its
    projected vertices, raised to its facets' values; the all-plus cells,
    L, are 0.  A cone over L at value 0, apex -1, makes the absolute
    homology of K + cone(L) that of (K, L) but for one essential H0 bar,
    the apex's, which is dropped.  `standard_reduction` runs in (value,
    dimension, vertices) order, and zero-length bars are dropped, as
    `persistence.barcode` does.  General position only: Qhull breaks ties
    its own way."""
    n1, proj = len(x1), np.vstack([x1, x2])
    z = np.hstack([proj, np.repeat([1.0, -1.0], [n1, len(x2)])[:, None]])
    cells = set()
    for top in np.sort(spatial.Delaunay(z).simplices, axis=1).tolist():
        for k in range(1, len(top) + 1):
            cells.update(itertools.combinations(top, k))
    value: dict[tuple[int, ...], float] = {}
    for cell in sorted(cells, key=len):
        facets = itertools.combinations(cell, len(cell) - 1) if len(cell) > 1 else ()
        r = smallest_enclosing_ball(proj[list(cell)].tolist())[1]
        value[cell] = 0.0 if cell[-1] < n1 else max([r, *(value[f] for f in facets)])
    value.update({(-1, *cell): 0.0 for cell in cells if cell[-1] < n1})
    value[(-1,)] = 0.0
    order = sorted(value, key=lambda c: (value[c], len(c), c))
    index = {c: i for i, c in enumerate(order)}
    columns = [[index[f] for f in itertools.combinations(c, len(c) - 1)] if len(c) > 1 else [] for c in order]
    pairs, unpaired = standard_reduction(SimpleNamespace(columns=columns))
    bars: dict[int, list[tuple[float, float]]] = {k: [] for k in range(max_dim + 1)}
    for i, j in pairs:
        if value[order[i]] != value[order[j]] and len(order[i]) <= max_dim + 1:
            bars[len(order[i]) - 1].append((value[order[i]], value[order[j]]))
    for i in unpaired:
        if order[i] != (-1,) and len(order[i]) <= max_dim + 1:
            bars[len(order[i]) - 1].append((value[order[i]], math.inf))
    return {k: sorted(b) for k, b in bars.items()}


def betti_at(c, relative: bool, t: float, max_dim: int) -> dict[int, int]:
    """Betti numbers of the (quotient) complex at scale t via bitset GF(2)
    Gaussian elimination of the boundary operators."""
    cells = [
        cell
        for cell in c.cells
        if cell.value <= t and not (relative and cell.in_subcomplex)
    ]
    cells.sort(key=lambda cell: (cell.simplex.dim, cell.simplex.vertices))
    pos = {cell.simplex: i for i, cell in enumerate(cells)}
    counts: dict[int, int] = {}
    ranks: dict[int, int] = {}
    pivots_by_dim: dict[int, dict[int, int]] = {}
    for cell in cells:
        k = cell.simplex.dim
        counts[k] = counts.get(k, 0) + 1
        col = 0
        for f in cell.simplex.boundary():
            i = pos.get(f)
            if i is not None:
                col |= 1 << i
        pivots = pivots_by_dim.setdefault(k, {})
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                ranks[k] = ranks.get(k, 0) + 1
                break
            col ^= other
    return {
        k: counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(max_dim + 1)
    }


class Orientation:
    """Float filter for the homogeneous orientation of k points u_0..u_{k-1}
    of R^k and a query x: det[[u_0, 1], ..., [u_{k-1}, 1], [x, 1]] is
    (-1)^k det(u_1 - u_0, ..., u_{k-1} - u_0, x - u_0), and that edge
    determinant is the dot product of x - u_0 with the cofactors of its
    last row, computed once by `predicates.cofactors`.

    The float rows are rounded to half an ulp of their own magnitude, and
    an edge entry inherits the error of both of its rows: far from the
    origin (a lift |x|^2 against edges of |x|), that is more than the
    edges' own half ulps.  So the filter's scale is the largest magnitude
    among the edges and the rows themselves; `size` bounds the rows'.

    The scalar reference of `delaunay._orient_batch`, which the tests hold
    to it bit for bit."""

    def __init__(self, pts, size: float):
        base = pts[0]
        k = len(base)
        block = [[a - b for a, b in zip(u, base)] for u in pts[1:]]
        self.base = base
        self.cof = cofactors(block)
        self.scale = max([1.0, size] + [abs(x) for row in block for x in row])
        self.homog = -1 if k % 2 else 1
        self.bound, self.powers = _FILTER_C[k], range(k)

    def sign(self, x, size: float) -> int:
        """Certified orientation sign of (u_0, ..., u_{k-1}, x), whose
        entries are at most `size` in magnitude; 0 when the filter cannot
        certify it.  The certification is `predicates.certified_sign`'s,
        in its float operations, inlined."""
        val = 0.0
        scale = size if size > self.scale else self.scale
        for a, b, cf in zip(x, self.base, self.cof):
            dc = a - b
            val += dc * cf
            if dc > scale:
                scale = dc
            elif -dc > scale:
                scale = -dc
        bound = self.bound
        for _ in self.powers:
            bound *= scale
        if bound < abs(val) < math.inf:
            return self.homog if val > 0 else -self.homog
        return 0

    def value(self, x) -> float:
        """The float orientation of (u_0, ..., u_{k-1}, x), uncertified."""
        return self.homog * sum((a - b) * cf for a, b, cf in zip(x, self.base, self.cof))


def insphere_signs(cloud, tops):
    """(top, queries, signs) for each sorted vertex row `top` of `tops`:
    the perturbed in-circumsphere sign of each vertex q of `cloud` not in
    it, +1 strictly inside under the symbolic perturbation, else -1.  A
    point is inside the circumsphere of a top iff its lift lies below the
    top's lifted hyperplane: iff its perturbed orientation against the top
    (`_perturbed_signs`) is that of a point straight below it
    (`infdown_sign`), which is not 0 for a top of a Delaunay
    triangulation.  One `_hull_space` of the cloud serves every top."""
    _, space = _hull_space(cloud)
    for top in map(tuple, tops.tolist()):
        below = space.infdown_sign(top)
        assert below != 0, f"vertical top {top}"
        queries = [q for q in range(len(cloud)) if q not in top]
        which = np.zeros(len(queries), dtype=np.int64)
        signs = _perturbed_signs(space, np.array([top]), which, np.array(queries, dtype=np.int64))
        yield top, queries, [1 if o == below else -1 for o in signs.tolist()]
