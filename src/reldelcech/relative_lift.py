"""Relative Delaunay-Cech complex of a pair (X1 union X2, X1).

The two clouds are embedded in one dimension higher at heights +s and -s,
the lifted set Z is Delaunay-triangulated, cells whose vertices all sit at
height +s form the subcomplex, and every other cell is filtered by the
smallest enclosing ball of its projected (height-dropped) vertices.  The
resulting filtered complex has size linear in the Delaunay triangulation of
the lifted set instead of exponential in |X|.

del(Z) is built from del(X1) and del(X2), both clouds triangulated once,
in one `delaunay` call (`delaunay.pair_delaunay`).  With ties broken by the
lift heights first, every top of del(Z) is the join of a face of del(X1)
and a face of del(X2) (Cayley trick, Huber, Rambau & Santos): so the top
across a ridge with vertices at both heights takes its new vertex from the
common neighbours of the ridge's two parts in the edge graphs of del(X1)
and del(X2).  Of those candidates, the ones strictly beyond the ridge in
projection are wrapped with the lifted hull's perturbed orientation test,
which gives the lifted hull's tops; the wrap is seeded with every top of a
cloud that spans its slab of Z, each joined to its partner, the other
cloud's vertex nearest its circumcenter.  `pair_delaunay` lists the
checks that del(Z) gets, and which module runs each; a broken del(Z)
raises AssertionError.

Each ball is taken from the cell's faces or from the cell itself (Bauer &
Edelsbrunner, "The Morse theory of Cech and Delaunay complexes"): a
vertex's radius is 0, an edge's ball is the circumball of its pair, and a
larger cell's is the largest ball among its facets when that ball holds
the opposite vertex, else the cell's own circumball when its center lies
inside the cell.  This is exact: the MEB is the circumball of a support
S of the cell whose center lies in conv(S).  If S is a proper subset, a
facet containing S has the MEB as its own, and that is the largest facet
ball; if S is the whole cell, the circumcenter is interior.  Welzl's
algorithm runs only for a cell whose vertices are affinely dependent or
whose circumcenter is too close to its boundary to tell (`_INTERIOR`).

The rule runs one dimension at a time over del(Z)'s face tables
(`delaunay.FaceTable`).  The circumballs of edges, and of the cells that
need their own, are solved in batches in the operations of
`geometry.circumball_weights`; the largest facet ball is a gather and a
first-max `argmax`; every distance is `math.dist`'s, computed for all
rows at once in its own float operations (`_distances`).  So each ball
is bit-identical to the one Welzl's algorithm returns.

The complex does not depend on s > 0, so s is no parameter: `choose_s`
derives it from the bounding box of the input (see there why any s gives
the same triangulation).  Filtration values depend only on the projected
vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delaunay import Triangulation, delaunay, find_rows, pair_delaunay
from .filtered_complex import CellTable, FilteredComplex, build
from .geometry import MEB_TOL, InputError, PointCloud, smallest_enclosing_ball


@dataclass(frozen=True)
class LiftedConfiguration:
    """The lifted point set Z of the pair (X1, X2).

    Row i of z.coords is row i of x1.coords at height +s for i < len(x1),
    and row i - len(x1) of x2.coords at height -s otherwise.  So a simplex
    of del(Z) lies in the lifted del(X1) iff its largest vertex is below
    len(x1).
    """

    x1: PointCloud
    x2: PointCloud
    s: float
    z: PointCloud


def choose_s(x1: PointCloud, x2: PointCloud) -> float:
    """Lift height: the largest coordinate extent of X1 union X2 (max over
    axes of max - min), or 1.0 when all points coincide.

    Any s > 0 gives the same del(Z).  The lifted point (x, +-s) has
    paraboloid lift |x|^2 + s^2, so changing s scales the height column by
    a positive factor, which keeps Z's pivot columns, and translates the
    lift column by a constant: in `delaunay._hull_space`'s integer rows the
    lift column for s' is 4**(top' - top) * lift(s) plus a constant.  That
    keeps the sign of every orientation determinant, of the vertical test
    and of every unit-row coefficient of `sos_sign` (its `forced` rule sees
    the same constant columns), and the float filter only certifies true
    signs.  s stays on the data's scale so that the filter certifies as
    often as on unit-scale data.
    """
    both = np.vstack([x1.coords, x2.coords])
    extent = np.ptp(both, axis=0).max() if len(both) else 0.0
    return float(extent) if extent > 0 else 1.0


def lift(x1: PointCloud, x2: PointCloud, s: float) -> LiftedConfiguration:
    """Embed x1 at height +s and x2 at height -s; x1 vertices come first."""
    if s <= 0:
        raise InputError("lift height must be positive")
    _check_dimensions(x1, x2)
    s = float(s)
    heights = np.repeat([s, -s], [len(x1), len(x2)])
    z = np.hstack([np.vstack([x1.coords, x2.coords]), heights[:, None]])
    return LiftedConfiguration(x1, x2, s, PointCloud(z))


def _check_dimensions(x1: PointCloud, x2: PointCloud):
    """InputError unless the two clouds have one dimension, empty or not."""
    if x1.dimension != x2.dimension:
        raise InputError(f"x1 and x2 must share a dimension, not {x1.dimension} and {x2.dimension}")


# Least barycentric weight of a cell's circumcenter for its circumball to be
# taken as its MEB.  The weights of a cell that is not nearly flat carry a
# rounding error many orders of magnitude below 1e-6, so a larger weight is
# positive in fact.  A center closer than that to a face is left to Welzl:
# there a support vertex is nearly redundant, and Welzl's tolerant
# containment test (`geometry.MEB_TOL`) may settle on a smaller support,
# whose ball is the value the filtration must carry.
_INTERIOR = 1e-6


# Veltkamp's constant, 2^27 + 1: it splits a float into two halves of at
# most 26 bits each, whose products are exact.
_SPLIT = 134217729.0

# Rows per pass of `_distances`: its temporaries then stay in cache.
_CHUNK = 8192


def _square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact square, elementwise: (z, zz) with z + zz = x * x,
    from the Veltkamp halves hi + lo = x (mul12 of x and x)."""
    t = x * _SPLIT
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo + lo * hi
    z = p + q
    return z, p - z + q + lo * lo


def _norms(diff: np.ndarray) -> np.ndarray:
    """CPython 3.11's `vector_norm` of each column of `diff`, a (d, n)
    array of absolute differences, elementwise (see `_distances`)."""
    top = np.zeros(diff.shape[1])
    for x in diff:
        top = np.maximum(top, x)
    if len(diff) <= 1:
        return top
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # in the columns left to math.dist
        _, e = np.frexp(top)
        scale = np.ldexp(1.0, -e)
        csum, f1, f2 = np.ones(len(top)), np.zeros(len(top)), np.zeros(len(top))
        for x in diff:
            z, zz = _square(x * scale)
            s, csum = csum, csum + z
            f1 = f1 + zz
            f2 = f2 + ((s - csum) + z)
        h = np.sqrt(csum - 1.0 + (f1 + f2))
        z, zz = _square(h)  # mul12(-h, h) is (-z, -zz): rounding is symmetric
        s, csum = csum, csum - z
        f1 = f1 - zz
        f2 = f2 + ((s - csum) - z)
        h = h + (csum - 1.0 + (f1 + f2)) / (2.0 * h)
        out = np.where(top == 0.0, 0.0, h / scale)
    for i in np.flatnonzero(~np.isfinite(top) | (e < -1023)).tolist():
        out[i] = math.dist(diff[:, i].tolist(), [0.0] * len(diff))
    return out


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`math.dist` of the rows of a and b (the last axis, broadcast), in
    its operations, so bit-identical to Welzl's distance.

    This is CPython 3.11's `vector_norm` elementwise (`_norms`).  Each
    row of |a - b| is scaled by a power of two that puts its largest
    entry in [0.5, 1); each square is split exactly into z + zz
    (`_square`), and z is added to a sum that starts at 1.0 with the
    error of each addition kept (fast two-sum): the low parts gather in
    f1 and f2.  One square root of that sum is corrected once, from the
    exact square of itself, and scaled back.  A row of one entry is its
    magnitude, a zero row is 0, and a row whose largest entry is
    subnormal, infinite or NaN is left to `math.dist` itself.
    """
    diff = np.abs(a - b)
    d = diff.shape[-1]
    cols = np.ascontiguousarray(diff.reshape(-1, d).T)
    out = np.empty(cols.shape[1])
    for i in range(0, len(out), _CHUNK):
        out[i : i + _CHUNK] = _norms(cols[:, i : i + _CHUNK])
    return out.reshape(diff.shape[:-1])


def _solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`geometry._solve_spd` on each (k, k + 1) block [g | b] of a, in its
    operations, so bit-identical: (x, singular).  a is overwritten, and x
    is 0 where the solve is singular."""
    n, k = a.shape[:2]
    rows = np.arange(n)
    scale = np.abs(a[:, :, :k]).max(axis=(1, 2))
    singular = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # in singular blocks only
        for j in range(k):
            p = j + np.abs(a[:, j:, j]).argmax(axis=1)  # the first largest pivot
            singular |= np.abs(a[rows, p, j]) <= 1e-14 * scale
            pivot = a[rows, p]  # rows j and p swap
            a[rows, p] = a[:, j].copy()
            a[:, j] = pivot
            inv = 1.0 / a[:, j, j]
            for i in range(j + 1, k):
                f = (a[:, i, j] * inv)[:, None]
                a[:, i, j + 1 :] = np.where(f != 0.0, a[:, i, j + 1 :] - f * a[:, j, j + 1 :], a[:, i, j + 1 :])
        x = np.zeros((n, k))
        for i in range(k - 1, -1, -1):
            dot = np.zeros(n)
            for j in range(i + 1, k):
                dot = dot + a[:, i, j] * x[:, j]
            x[:, i] = (a[:, i, k] - dot) / a[:, i, i]
    x[singular] = 0.0
    return x, singular


def _circumballs(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`geometry.circumball_weights` of the sorted points of each block
    pts[i], m <= d + 1 points of R^d, in its operations, so bit-identical:
    (centers, radii, interior).  `interior` is where the solve is regular
    and every barycentric weight of the center exceeds `_INTERIOR`.  A
    singular solve takes alpha = 0, which is the least-squares answer for
    coinciding points (X1 and X2 may share one).  Each block's Gram is
    that of its edges scaled by its own power of two, as there."""
    n, m, d = pts.shape
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)  # tuple order
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    q0 = pts[:, 0]
    u = pts[:, 1:] - q0[:, None]
    v = np.ldexp(u, -np.frexp(np.abs(u).max(axis=(1, 2)))[1][:, None, None])
    g = np.zeros((n, m - 1, m - 1))
    for c in range(d):
        g = g + v[:, :, None, c] * v[:, None, :, c]
    alpha, singular = _solve(np.concatenate([g, 0.5 * np.diagonal(g, axis1=1, axis2=2)[:, :, None]], axis=2))
    shift, total = np.zeros((n, d)), np.zeros(n)
    for i in range(m - 1):
        shift = shift + alpha[:, i, None] * u[:, i]
        total = total + alpha[:, i]
    centers = q0 + shift
    radii = _distances(centers[:, None], pts).max(axis=1)
    weight = np.minimum(1.0 - total, alpha.min(axis=1))
    return centers, radii, ~singular & (weight > _INTERIOR)


def _cell_balls(proj, table, centers, radii) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the MEBs of the projected cells of one
    dimension k >= 2, from `centers` and `radii`, their facets' balls.  A
    cell takes its largest facet ball, the first largest in the order of
    the dropped vertex, when that ball holds the dropped vertex
    (`geometry.in_ball`); else its own circumball when its center is
    interior (`_circumballs`); else Welzl's ball."""
    simplices, facets = table
    rows = np.arange(len(simplices))
    drop = radii[facets].argmax(axis=1)
    best = facets[rows, drop]
    out_c, out_r = centers[best], radii[best]
    dist = _distances(out_c, proj[simplices[rows, drop]])
    out = np.flatnonzero(~(dist <= out_r + MEB_TOL * out_r))
    if simplices.shape[1] <= proj.shape[1] + 1:  # else the vertices are affinely dependent
        own_c, own_r, interior = _circumballs(proj[simplices[out]])
        out_c[out[interior]], out_r[out[interior]] = own_c[interior], own_r[interior]
        out = out[~interior]
    for i in out.tolist():
        out_c[i], out_r[i] = smallest_enclosing_ball(proj[simplices[i]].tolist())
    return out_c, out_r


def _triangulate(x1: PointCloud, x2: PointCloud) -> tuple[Triangulation | None, Triangulation | None]:
    """(del(X1), del(X2)), None for an empty cloud: one `delaunay` call,
    which builds both clouds' hulls in one set of rounds."""
    if len(x1) and len(x2):
        return delaunay(x1, x2)
    return (delaunay(x1) if len(x1) else None, delaunay(x2) if len(x2) else None)


def _check_slabs(tri: Triangulation, tri1: Triangulation | None, tri2: Triangulation | None, n1: int):
    """AssertionError unless the all-plus cells of del(Z) are exactly the
    lifted del(X1) and the all-minus cells the lifted del(X2): the cells
    of del(Z) with all vertices in range(lo, hi) against the simplices of
    the lifted triangulation shifted by lo.  A missing simplex is named
    before an extra cell, each the first by dimension, then lexicographic."""
    n = len(tri.cloud)
    for lifted, lo, hi, name, sign in ((tri1, 0, n1, "X1", "plus"), (tri2, n1, n, "X2", "minus")):
        if lifted is None:
            continue
        missing, extra = [], []
        for k in range(max(len(tri.tables), len(lifted.tables))):
            z = tri.tables[k].simplices if k < len(tri.tables) else np.empty((0, k + 1), np.int64)
            z = z[(lo <= z[:, 0]) & (z[:, -1] < hi)]
            want = lifted.tables[k].simplices + lo if k < len(lifted.tables) else z[:0]
            if z.shape == want.shape and np.array_equal(z, want):
                continue
            missing += map(tuple, want[find_rows(z, want) < 0].tolist())
            extra += map(tuple, z[find_rows(want, z) < 0].tolist())
        if missing:
            raise AssertionError(f"lifted del({name}) simplex {missing[0]} missing from del(Z)")
        if extra:
            raise AssertionError(f"all-{sign} simplex {extra[0]} of del(Z) is not in del({name})")


def _check_euler(tri: Triangulation):
    """AssertionError unless del(Z) has Euler characteristic 1, the sum
    of (-1)^k times its number of k-simplices: it triangulates the convex
    polytope conv(Z), which is contractible.  A crack or a hole that the
    ridge checks of `pair_delaunay` let through changes it."""
    chi = sum((-1) ** k * len(table.simplices) for k, table in enumerate(tri.tables))
    if chi != 1:
        raise AssertionError(f"del(Z) has Euler characteristic {chi}, not 1")


@dataclass
class Pipeline:
    """All intermediate artifacts of one relative Delaunay-Cech run;
    `triangulation` is del(Z)."""

    cfg: LiftedConfiguration
    triangulation: Triangulation
    complex: FilteredComplex


def build_pipeline(x1: PointCloud, x2: PointCloud) -> Pipeline:
    """Lift, triangulate and filter.

    del(X1) and del(X2) are triangulated once, in one `delaunay` call
    whose hull rounds serve both clouds (`_triangulate`), and del(Z) is
    wrapped from them (`delaunay.pair_delaunay`): a candidate for the top
    across a ridge with vertices in both clouds is a common neighbour of
    the ridge's X1 part in del(X1) or of its X2 part in del(X2).  Only the
    candidates strictly beyond the ridge in projection can make a top that
    is not vertical, and among them the wrap keeps the one whose lifted
    hyperplane with the ridge has no other candidate below it, by the
    lifted hull's perturbed test, guessed and confirmed in float for a
    whole breadth-first level at once.  The levels start from every top
    of a cloud that spans its slab of Z, joined to its partner, the other
    cloud's vertex nearest its circumcenter, which one batched walk over
    that cloud's triangulation finds for all.  With one cloud empty,
    del(Z) is the other's triangulation.  `pair_delaunay` checks the
    ridges, vertices and sides of del(Z) on every path; here del(Z) must
    have Euler characteristic 1 (`_check_euler`), and its all-plus cells
    must be exactly the lifted del(X1) and its all-minus cells the lifted
    del(X2) (`_check_slabs`), else AssertionError.  These two stay here
    so that they see whatever `pair_delaunay` returns.

    A cell outside the subcomplex is filtered by the smallest enclosing
    ball (MEB) of its projected vertices, taken from its faces or from its
    own circumball.  A vertex's radius is 0 and an edge's MEB is the
    circumball of its sorted pair, the ball Welzl would return.  A larger
    cell sigma takes the largest ball among its facets when that ball
    contains the vertex of sigma opposite the facet (Welzl's containment
    test); otherwise sigma's own circumball, that of its sorted vertices,
    when every barycentric weight of its center exceeds `_INTERIOR`; only
    otherwise does Welzl run on sigma.  This is exact.
    The MEB is unique and is the circumball of a support S of sigma whose
    center lies in conv(S).  If S is a proper subset, a facet F containing
    S has MEB(F) = MEB(sigma), which contains sigma and is the largest of
    the facets' MEBs, since MEB(sigma) encloses every facet.  Otherwise S
    is sigma and the center lies inside sigma.  In both cases the ball is
    bit-identical to Welzl's, which `smallest_enclosing_ball` recomputes as
    `circumball` of the sorted support.  Subcomplex cells get balls too, so
    that the rule sees every facet, but keep the value 0.  Each value is
    then raised to its faces' values (the monotone guard).  The values and
    subcomplex flags go to `build` as one `CellTable` per dimension, rows
    as in del(Z)'s face tables.
    """
    _check_dimensions(x1, x2)
    if x1.dimension > 3:
        raise InputError("ambient dimension must be at most 3")
    if len(x1) + len(x2) == 0:
        raise InputError("x1 and x2 are both empty")
    tri1, tri2 = _triangulate(x1, x2)
    cfg = lift(x1, x2, choose_s(x1, x2))
    tri = pair_delaunay(cfg.z, tri1, tri2)
    _check_euler(tri)
    n1 = len(x1)
    _check_slabs(tri, tri1, tri2, n1)
    proj = cfg.z.coords[:, :-1]
    vertices = tri.tables[0].simplices
    cells = [CellTable(*tri.tables[0], np.zeros(len(vertices)), vertices[:, 0] < n1)]
    # Dimension by dimension, so that every facet's ball and value is
    # known when its cofaces are filtered.
    for k, table in enumerate(tri.tables[1:], start=1):
        if k == 1:
            centers, radii, _ = _circumballs(proj[table.simplices])
        else:
            centers, radii = _cell_balls(proj, table, centers, radii)
        # Same geometry as the faces, but guard against sub-ulp float noise.
        values = np.maximum(radii, cells[-1].values[table.facets].max(axis=1))
        sub = table.simplices[:, -1] < n1
        values[sub] = 0.0
        cells.append(CellTable(*table, values, sub))
    return Pipeline(cfg, tri, build(tables=cells))


# -- embedding certification ----------------------------------------------------


@dataclass
class EmbeddingReport:
    """Outcome of `verify_embedding`: `failure` is the first failed
    check's message, None when all pass.  With `sos_sign`'s heights-first
    rule they hold on degenerate grids too (Cayley trick), so a failure
    means a broken del(Z)."""

    failure: str | None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def text(self) -> str:
        return "embedding checks: pass" if self.ok else f"embedding check FAIL: {self.failure}"


def verify_embedding(cfg: LiftedConfiguration, tri: Triangulation) -> EmbeddingReport:
    """`_check_slabs` against del(X1) and del(X2) triangulated afresh, as
    `build_pipeline` triangulates them (`_triangulate`): the all-plus
    cells of del(Z) must be exactly the lifted del(X1) and the all-minus
    cells the lifted del(X2).  `build_pipeline` runs the same check
    against its own del(X1) and del(X2)."""
    tri1, tri2 = _triangulate(cfg.x1, cfg.x2)
    try:
        _check_slabs(tri, tri1, tri2, len(cfg.x1))
    except AssertionError as e:
        return EmbeddingReport(str(e))
    return EmbeddingReport(None)
