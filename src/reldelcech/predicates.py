"""Exact sign evaluation of small determinants.

Three layers, from fast to slow:

1. a static floating-point filter (`filtered_det_sign`) that certifies the
   sign of a determinant whenever its magnitude safely exceeds a rounding
   error bound,
2. exact rational evaluation (`det_sign_exact`) over ``fractions.Fraction``
   for the cases the filter cannot decide,
3. a symbolic perturbation (`sos_sign`) that resolves exact zeros by moving
   every perturbable row onto a moment curve with a per-row infinitesimal,
   ordered by a caller-supplied rank.  The returned sign is the sign of the
   first nonzero coefficient of the perturbed determinant, enumerated by
   increasing infinitesimal degree, and is never zero.

All matrices here are small (n <= 8): rows are Euclidean coordinates, an
optional lift coordinate and a homogeneous 0/1 entry.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

_EPS = float(math.ulp(1.0))  # 2^-52

# Safety constants for the static filter, indexed by matrix size.  The bound
# n! * n^2 * 32 * u * M^n over-covers both the arithmetic error of an
# LU-style evaluation and the half-ulp rounding of the input entries.
_FILTER_C = {n: 32.0 * math.factorial(n) * n * n * _EPS for n in range(1, 10)}


def det_exact_int(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_exact(rows) -> Fraction:
    """Exact determinant of a square matrix of Fractions/ints (Bareiss)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if all(isinstance(x, int) for row in rows for x in row):
        return Fraction(det_exact_int(rows))
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_sign_exact(rows) -> int:
    if isinstance(rows[0][0], int) and all(
        isinstance(x, int) for row in rows for x in row
    ):
        d = det_exact_int(rows)
    else:
        d = det_exact(rows)
    return (d > 0) - (d < 0)


def _sign_int(rows) -> int:
    d = det_exact_int(rows)
    return (d > 0) - (d < 0)


def _det_float(rows) -> float:
    """Plain Gaussian elimination with partial pivoting, floats."""
    n = len(rows)
    a = [list(map(float, row)) for row in rows]
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        inv = 1.0 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f != 0.0:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det


def filtered_det_sign(rows, scale: float | None = None) -> int | None:
    """Sign of det(rows) if certifiable in double precision, else None.

    `scale` may pass a precomputed bound on |entries| (>= 1)."""
    n = len(rows)
    if scale is None:
        scale = 1.0
        for row in rows:
            for x in row:
                ax = abs(float(x))
                if ax > scale:
                    scale = ax
    d = _det_float(rows)
    if abs(d) > _FILTER_C[n] * scale**n:
        return 1 if d > 0 else -1
    return None


# -- symbolic perturbation ---------------------------------------------------
#
# Row i with rank rho(i) is displaced by (t_i, t_i^2, ..., t_i^C) on its C
# coordinate columns, t_i = eps^(B^rho(i)) with B = C + 2.  Every monomial in
# the expanded determinant then has a distinct eps-degree, so the perturbed
# sign is the sign of the first nonzero coefficient in degree order.  Each
# coefficient is the determinant of the base matrix with the assigned rows
# replaced by coordinate unit rows.

_ORDER_CACHE: dict = {}


def _assignment_order(n_pert: int, ncoords: int, rank_positions: tuple[int, ...]):
    """Partial injections (perturbable-row slot -> coordinate column), sorted
    by increasing perturbation degree.  Cached: degree order depends only on
    the relative order of the ranks, passed as 0-based positions."""
    key = (n_pert, ncoords, rank_positions)
    got = _ORDER_CACHE.get(key)
    if got is not None:
        return got
    base = ncoords + 2
    weights = [base**p for p in rank_positions]
    out = []
    slots = range(n_pert)
    for r in range(1, min(n_pert, ncoords) + 1):
        for rows in itertools.combinations(slots, r):
            for cols in itertools.permutations(range(ncoords), r):
                deg = sum((c + 1) * weights[i] for i, c in zip(rows, cols))
                out.append((deg, tuple(zip(rows, cols))))
    out.sort(key=lambda item: item[0])
    order = tuple(a for _, a in out)
    _ORDER_CACHE[key] = order
    return order


def sos_sign(rows_exact, ranks) -> int:
    """Sign of the symbolically perturbed determinant; never 0.

    `rows_exact`: square matrix (Fractions/ints), homogeneous column last.
    `ranks[i]`: perturbation rank of row i, or None for rows that must not
    be perturbed (e.g. directions at infinity).  Ranks must be distinct.
    """
    all_int = all(isinstance(x, int) for row in rows_exact for x in row)
    sign = _sign_int if all_int else det_sign_exact
    s = sign(rows_exact)
    if s != 0:
        return s
    n = len(rows_exact)
    ncoords = n - 1
    pert = [i for i, r in enumerate(ranks) if r is not None]
    pert_ranks = [ranks[i] for i in pert]
    order = {r: p for p, r in enumerate(sorted(pert_ranks))}
    positions = tuple(order[r] for r in pert_ranks)
    # When every row is a point (homogeneous entry 1) and some coordinate
    # column is constant, assignments not covering that column keep the
    # column-vs-homogeneous dependency and have provably zero coefficients.
    forced: set[int] = set()
    homog = rows_exact[0][ncoords]
    if len(pert) == n and all(row[ncoords] == homog for row in rows_exact[1:]):
        for c in range(ncoords):
            first = rows_exact[0][c]
            if all(row[c] == first for row in rows_exact[1:]):
                forced.add(c)
    for assignment in _assignment_order(len(pert), ncoords, positions):
        if forced and not forced <= {col for _, col in assignment}:
            continue
        m = [list(row) for row in rows_exact]
        for slot, col in assignment:
            unit = [0] * n
            unit[col] = 1
            m[pert[slot]] = unit
        s = sign(m)
        if s != 0:
            return s
    raise AssertionError("perturbation failed to resolve a zero determinant")
