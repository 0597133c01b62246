"""Exact sign evaluation of small determinants.

Every sign is decided over Python integers; inputs are floats, which are
dyadic rationals, so `exact_ints` makes them integers by a power-of-two
shift.  From fast to slow:

1. a static floating-point filter (`filtered_det_sign`) that certifies the
   sign of a determinant whenever its magnitude safely exceeds a rounding
   error bound,
2. the exact integer determinant (`det_exact_int`, fraction-free Bareiss)
   for the cases the filter cannot decide,
3. a symbolic perturbation (`sos_sign`) that resolves exact zeros by moving
   every row onto a moment curve with a per-row infinitesimal, ordered by a
   caller-supplied rank.  The returned sign is the sign of the first
   nonzero coefficient of the perturbed determinant, enumerated by
   increasing infinitesimal degree, and is never zero.

All matrices here are small (n <= 8): rows are Euclidean coordinates, an
optional lift coordinate and a homogeneous 0/1 entry.
"""

from __future__ import annotations

import itertools
import math

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


def det_sign_exact(rows) -> int:
    """Exact sign of the determinant of a square integer matrix."""
    d = det_exact_int(rows)
    return (d > 0) - (d < 0)


def exact_ints(values) -> tuple[list[int], int]:
    """Integers n_i and one shift k >= 0 with values[i] == n_i / 2**k exactly.

    Every float is a dyadic rational, so a common power-of-two shift turns
    a list of floats into integers without rounding; k is the least such
    shift.  Scaling a matrix column by 2**k leaves every determinant sign
    unchanged, so exact signs never need a rational type.
    """
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


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


def filtered_det_sign(rows) -> int | None:
    """Sign of det(rows) if certifiable in double precision, else None."""
    n = len(rows)
    scale = 1.0
    for row in rows:
        for x in row:
            ax = abs(float(x))
            if ax > scale:
                scale = ax
    d = _det_float(rows)
    try:
        bound = _FILTER_C[n] * scale**n
    except OverflowError:  # no float bound: the exact path decides
        return None
    # An infinite d overflowed on the way and certifies nothing.
    if bound < abs(d) < math.inf:
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


def _assignment_order(n_rows: int, ncoords: int, rank_positions: tuple[int, ...]):
    """Partial injections (row -> coordinate column), sorted by increasing
    perturbation degree.  Cached: degree order depends only on the relative
    order of the ranks, passed as 0-based positions."""
    key = (n_rows, ncoords, rank_positions)
    got = _ORDER_CACHE.get(key)
    if got is not None:
        return got
    base = ncoords + 2
    weights = [base**p for p in rank_positions]
    out = []
    for r in range(1, min(n_rows, ncoords) + 1):
        for rows in itertools.combinations(range(n_rows), r):
            for cols in itertools.permutations(range(ncoords), r):
                deg = sum((c + 1) * weights[i] for i, c in zip(rows, cols))
                out.append((deg, tuple(zip(rows, cols))))
    out.sort(key=lambda item: item[0])
    order = tuple(a for _, a in out)
    _ORDER_CACHE[key] = order
    return order


def sos_sign(rows_exact, ranks) -> int:
    """Sign of the symbolically perturbed determinant; never 0.

    `rows_exact`: square integer matrix, homogeneous column last.
    `ranks[i]`: perturbation rank of row i; ranks must be distinct.
    """
    s = det_sign_exact(rows_exact)
    if s != 0:
        return s
    n = len(rows_exact)
    ncoords = n - 1
    order = {r: p for p, r in enumerate(sorted(ranks))}
    positions = tuple(order[r] for r in ranks)
    # When every row is a point (homogeneous entry 1) and some coordinate
    # column is constant, assignments not covering that column keep the
    # column-vs-homogeneous dependency and have provably zero coefficients.
    forced: set[int] = set()
    homog = rows_exact[0][ncoords]
    if all(row[ncoords] == homog for row in rows_exact[1:]):
        for c in range(ncoords):
            first = rows_exact[0][c]
            if all(row[c] == first for row in rows_exact[1:]):
                forced.add(c)
    for assignment in _assignment_order(n, ncoords, positions):
        if forced and not forced <= {col for _, col in assignment}:
            continue
        m = [list(row) for row in rows_exact]
        for row, col in assignment:
            unit = [0] * n
            unit[col] = 1
            m[row] = unit
        s = det_sign_exact(m)
        if s != 0:
            return s
    raise AssertionError("perturbation failed to resolve a zero determinant")
