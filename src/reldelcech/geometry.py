"""Geometric kernel: point clouds, exact orientation/in-sphere tests,
smallest enclosing balls and squared distances, dimension-generic up to
DIM_CAP.

A point cloud is one read-only (n, d) float64 array, checked once, in a
few array operations, for its shape, finiteness and duplicates.

Predicate signs are exact: a floating-point filter answers the easy cases
and an integer determinant of the power-of-two scaled coordinates decides
the rest, so zero really means degenerate.
"""

from __future__ import annotations

import math
import operator
import random
from typing import NamedTuple

import numpy as np

from .predicates import det_sign_exact, exact_ints, filtered_det_sign

DIM_CAP = 6

# Containment tolerance of enclosing balls, relative to the radius.
MEB_TOL = 1e-9


class InputError(ValueError):
    """Invalid input data (maps to CLI exit code 2)."""


def subset_indices(a_indices, n: int) -> list[int]:
    """a_indices as ints: InputError unless each is an integer (a Python
    or numpy int, by `operator.index`) in 0..n-1.  A bool is no index: a
    mask [True, False, True] would pick points 1, 0 and 1."""
    try:
        index = [operator.index(None if isinstance(i, bool) else i) for i in a_indices]
    except TypeError:
        raise InputError("subset index must be an integer") from None
    if index and (min(index) < 0 or max(index) >= n):
        raise InputError("subset index out of range")
    return index


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the array a, sorted lexicographically, and the
    row among them of each row of a.  `np.lexsort` orders the columns one
    by one, so no key combines them and none can overflow.  Rows are
    compared with ==, so -0.0 and 0.0 are one value."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return s[new], inverse


class Point(NamedTuple):
    """One point of a `PointCloud`, as its iteration yields it."""

    coords: tuple[float, ...]


class PointCloud:
    """An ordered, duplicate-free set of points of R^d, held as `coords`,
    a read-only (n, d) float64 array.

    `rows` is a sequence of n rows of d numbers, or an array of that
    shape.  Duplicate rows are rejected, -0.0 and 0.0 being equal:
    Voronoi cells of repeated sites are ill-defined.  An empty cloud
    needs an explicit `dimension`.
    """

    def __init__(self, rows, dimension: int | None = None):
        try:
            coords = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as e:
            raise InputError(f"points must be rows of numbers: {e}") from None
        if dimension is not None and dimension < 1:
            raise InputError("dimension must be positive")
        if coords.shape == (0,):
            if dimension is None:
                raise InputError("empty cloud requires an explicit dimension")
            coords = coords.reshape(0, dimension)
        if coords.ndim != 2:
            raise InputError(f"points must be rows of numbers of one length, not of shape {coords.shape}")
        dim = coords.shape[1]
        if dimension is not None and dimension != dim:
            raise InputError(f"declared dimension {dimension} != point dimension {dim}")
        if dim < 1:
            raise InputError("point must have at least one coordinate")
        if dim > DIM_CAP:
            raise InputError(f"dimension {dim} exceeds cap {DIM_CAP}")
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            raise InputError(f"non-finite coordinate in point {tuple(coords[finite.argmin()].tolist())}")
        distinct, inverse = unique_rows(coords)
        if len(distinct) < len(coords):
            raise InputError(f"duplicate point {tuple(distinct[np.bincount(inverse).argmax()].tolist())}")
        coords.flags.writeable = False
        self.coords: np.ndarray = coords
        self.dimension: int = dim

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return map(Point, map(tuple, self.coords.tolist()))

    def __repr__(self):
        return f"PointCloud({len(self)} points, dim={self.dimension})"


def in_ball(center: tuple[float, ...], r: float, p: tuple[float, ...]) -> bool:
    """Whether p lies in the ball (center, r), up to MEB_TOL relative to r."""
    return math.dist(center, p) <= r + MEB_TOL * r


def _int_points(pts) -> list[list[int]]:
    """The points scaled by one power of two to exact integers."""
    flat, _ = exact_ints([x for p in pts for x in p])
    m = len(pts[0])
    return [flat[i : i + m] for i in range(0, len(flat), m)]


def orientation(simplex_points) -> int:
    """Sign of the determinant of edge vectors from the first point.

    Takes m+1 points of R^m; returns +1/-1/0, with 0 exactly when the points
    are affinely dependent.  The decision is exact.
    """
    pts = [tuple(map(float, p)) for p in simplex_points]
    m = len(pts[0])
    if m > DIM_CAP:
        raise InputError(f"dimension {m} exceeds cap {DIM_CAP}")
    if len(pts) != m + 1 or any(len(p) != m for p in pts):
        raise InputError(f"orientation needs {m + 1} points of dimension {m}")
    rows_f = [[pts[i][c] - pts[0][c] for c in range(m)] for i in range(1, m + 1)]
    s = filtered_det_sign(rows_f)
    if s is not None:
        return s
    ints = _int_points(pts)
    return det_sign_exact([[x - y for x, y in zip(p, ints[0])] for p in ints[1:]])


def in_sphere(simplex_points, query) -> int:
    """+1 if `query` is strictly inside the circumsphere of the given m+1
    points, -1 if strictly outside, 0 if on it.

    The sign is normalized to be independent of the order of
    `simplex_points`.  Exact decision; the simplex must be nondegenerate.
    """
    pts = [tuple(map(float, p)) for p in simplex_points]
    q = tuple(map(float, query))
    m = len(q)
    if len(pts) != m + 1 or any(len(p) != m for p in pts):
        raise InputError(f"in_sphere needs {m + 1} simplex points of dimension {m}")
    orient = orientation(simplex_points)
    if orient == 0:
        raise InputError("degenerate simplex has no circumsphere")
    # Lifted difference form: rows [p_i - q, |p_i - q|^2].
    rows_f = []
    for p in pts:
        d = [p[c] - q[c] for c in range(m)]
        rows_f.append(d + [sum(x * x for x in d)])
    s = filtered_det_sign(rows_f)
    if s is None:
        *ints, iq = _int_points(pts + [q])
        rows_e = []
        for p in ints:
            d = [x - y for x, y in zip(p, iq)]
            rows_e.append(d + [sum(x * x for x in d)])
        s = det_sign_exact(rows_e)
    return s * orient * (1 if m % 2 == 0 else -1)


# -- smallest enclosing ball --------------------------------------------------

_MEB_SEED = 0x5EB


def _solve_spd(g: list[list[float]], b: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when near-singular,
    a pivot at most 1e-14 of the largest entry of g.  The test is relative
    to g's own scale, so scaling g and b by a power of two that neither
    under- nor overflows gives the same solution, bit for bit."""
    n = len(b)
    a = [g[i] + [b[i]] for i in range(n)]
    scale = max(max(abs(x) for x in row[:-1]) for row in a)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if abs(a[p][k]) <= 1e-14 * scale:
            return None
        if p != k:
            a[k], a[p] = a[p], a[k]
        inv = 1.0 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f != 0.0:
                for j in range(k + 1, n + 1):
                    a[i][j] -= f * a[k][j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / a[i][i]
    return x


def circumball(support: list[tuple[float, ...]]) -> tuple[tuple[float, ...], float]:
    """Center and radius of the smallest ball with all of `support` on its
    boundary (their circumball within the affine hull)."""
    center, r, _ = circumball_weights(support)
    return center, r


def circumball_weights(support: list[tuple[float, ...]]):
    """`circumball` and the barycentric weights of its center with respect
    to `support`, one per point (the center is their weighted sum; they sum
    to 1).  The weights are None when the support is affinely dependent,
    where the center comes from a least-squares solve instead.

    The Gram matrix is that of the edges u scaled by 2^-e, e the exponent
    of their largest entry, so that it neither under- nor overflows at any
    scale of the points; the solve is the one of the unscaled Gram
    wherever that does neither (`_solve_spd`)."""
    q0 = support[0]
    if len(support) == 1:
        return q0, 0.0, [1.0]
    dim = len(q0)
    u = [[s[c] - q0[c] for c in range(dim)] for s in support[1:]]
    k = len(u)
    e = math.frexp(max(abs(x) for row in u for x in row))[1]
    v = [[math.ldexp(x, -e) for x in row] for row in u]
    g = [[sum(v[i][c] * v[j][c] for c in range(dim)) for j in range(k)] for i in range(k)]
    b = [0.5 * g[i][i] for i in range(k)]
    alpha = _solve_spd([row[:] for row in g], b)
    weights = None
    if alpha is None:  # affinely dependent support
        alpha = np.linalg.lstsq(np.array(g), np.array(b), rcond=None)[0].tolist()
    else:
        weights = [1.0 - sum(alpha)] + alpha
    center = tuple(q0[c] + sum(alpha[i] * u[i][c] for i in range(k)) for c in range(dim))
    r = max(math.dist(center, s) for s in support)
    return center, r, weights


def _welzl(pts: list[tuple[float, ...]], start: int, support: list[tuple[float, ...]], dim: int):
    """Smallest ball of pts[start:] with `support` on its boundary.

    The loop form of Welzl's recursion on the first point: the points are
    scanned from last to first, and only a point outside the current ball
    recurses, on the points after it and with itself added to the support.
    Recursion depth is therefore at most dim + 1.
    """
    if support:
        center, r = circumball(support)
    else:
        center, r = None, -1.0
    if len(support) == dim + 1:
        return center, r, support
    sup = support
    for i in range(len(pts) - 1, start - 1, -1):
        p = pts[i]
        if center is None or not in_ball(center, r, p):
            center, r, sup = _welzl(pts, i + 1, support + [p], dim)
    return center, r, sup


def smallest_enclosing_ball(points) -> tuple[tuple[float, ...], float]:
    """Center and radius of the unique smallest ball containing all the
    points (Welzl recursion with boundary sets of size <= dim + 1)."""
    pts = [tuple(map(float, p)) for p in points]
    if not pts:
        raise InputError("smallest_enclosing_ball of empty set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise InputError("mixed dimensions in smallest_enclosing_ball")
    # Canonical processing order: result independent of input order.
    pts = sorted(set(pts))
    rng = random.Random(_MEB_SEED)
    rng.shuffle(pts)
    _, _, support = _welzl(pts, 0, [], dim)
    # Recompute from the sorted support so that any point set sharing this
    # boundary set gets a bit-identical ball.
    return circumball(sorted(support)) if support else ((0.0,) * dim, 0.0)
