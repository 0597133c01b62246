"""Dimension-generic Delaunay triangulation via the paraboloid lift.

Points of R^m are lifted to (x, |x|^2) in R^(m+1); the lower convex hull of
the lifted set, computed by a randomized incremental algorithm with conflict
lists, projects back to the Delaunay top simplices.  Predicate ties are
broken by a symbolic perturbation ordered by vertex index, lift heights
first (`predicates`), so construction is deterministic and no zero signs
escape.  Every cloud is triangulated in its pivot columns (`_hull_space`),
onto which its affine hull projects one to one, so flat configurations are
fine.  All exact arithmetic is on integers: every float coordinate is a
dyadic rational.

Vertical hull facets (whose supporting hyperplane contains the lift
direction) are discarded by an exact, unperturbed test: they project to
degenerate simplices and are not Delaunay cells.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .geometry import DIM_CAP, InputError, PointCloud
from .predicates import (
    certified_sign,
    cofactors,
    det_sign_exact,
    exact_ints,
    filtered_det_sign,
    sos_sign,
)

_HULL_SEED = 0x9E3779B9  # orders hull insertion; the output does not depend on it


@dataclass(frozen=True, order=True)
class Simplex:
    """Sorted, duplicate-free tuple of vertex indices into a point cloud."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise InputError("empty simplex")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise InputError(f"simplex vertices must be strictly increasing: {vs}")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _of(cls, vs: tuple[int, ...]) -> "Simplex":
        """Wrap a tuple already known to be a valid simplex, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vs)
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def boundary(self) -> list["Simplex"]:
        """Codimension-1 faces, in lexicographic order (`face_tuples`)."""
        return [Simplex._of(f) for f in face_tuples(self.vertices)]

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


def face_tuples(vs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Vertex tuples of the codimension-1 faces of the simplex vs, in
    lexicographic order: dropping a later vertex leaves a smaller tuple."""
    if len(vs) == 1:
        return []
    return [vs[:i] + vs[i + 1 :] for i in range(len(vs) - 1, -1, -1)]


# -- exact affine-hull coordinates --------------------------------------------


def _pivot_columns(pts: list[tuple[int, ...]]) -> list[int]:
    """Sorted pivot columns of the exact echelon of the differences
    p_i - p_0: the columns where some direction of the affine hull has its
    first nonzero entry, one per dimension.  The echelon step
    w <- e[c] w - w[c] e is a nonzero multiple of rational elimination, so
    it finds the same pivots without leaving the integers."""
    m = len(pts[0])
    echelon: list[tuple[int, list[int]]] = []  # (pivot col, reduced vector)
    for i in range(1, len(pts)):
        w = [pts[i][c] - pts[0][c] for c in range(m)]
        for col, e in echelon:
            if w[col] != 0:
                f, g = e[col], w[col]
                w = [f * a - g * b for a, b in zip(w, e)]
        pivot = next((c for c in range(m) if w[c] != 0), None)
        if pivot is not None:
            echelon.append((pivot, w))
            if len(echelon) == m:
                break
    return sorted(col for col, _ in echelon)


# -- lifted hull space ---------------------------------------------------------


class _HullSpace:
    """Coordinates and exact predicates for the lifted hull of one cloud.

    Points live in R^P with the lift value as last coordinate.  Float rows
    feed the static filter; exact integer rows (each column scaled by a
    positive constant, which preserves all predicate signs) decide the rest,
    with symbolic perturbation ranked by vertex index as tie-breaker.

    Every orientation of a facet against a point goes through `sides`: the
    facet's float cofactors are computed once (`_Orientation`), each
    query's determinant is their dot product with the query's edge row,
    `certified_sign` certifies it or `sos_sign` decides.  So each test runs
    one float filter at most.

    Same-slab ties: when the facet's integer rows have exactly one constant
    coordinate column h (a facet inside one slab of a lifted pair: its
    height) and the query shares that value, the determinant is 0 by
    structure, and SoS replaces the lowest-ranked row, the smallest vertex,
    by e_h (`predicates`).  The sign is then a P x P minor without column h.
    Write orient(...) for the homogeneous determinant of P points with
    column h dropped; `sides` filters it with an `_Orientation` of verts[1:]:
      - q > verts[0]: (-1)^h orient(verts[1:], q), one dot product each;
      - q < verts[0]: (-1)^(P+h) orient(verts), one value per facet, which
        the cyclic shift of verts[0] to the end makes
        (-1)^(P+h) (-1)^(P-1) orient(verts[1:], verts[0]).
    A zero minor (cospherical slab points) or an uncertified one goes to
    `sos_sign`, so every sign is `sos_sign`'s.

    The vertical test `infdown_sign` is the other predicate; it returns 0
    for a facet with a constant coordinate column (a single-slab facet),
    filters its own determinant otherwise and decides the rest exactly,
    unperturbed.
    """

    def __init__(self, frows: list[tuple[float, ...]], int_rows: list[tuple[int, ...]]):
        self.frows = frows
        self.fsize = [max(map(abs, row)) for row in frows]  # for `_Orientation`
        self.P = len(frows[0])
        self.int_rows = int_rows  # homogeneous: P scaled coordinates + 1

    def infdown_sign(self, verts: tuple[int, ...]) -> int:
        """Exact homogeneous sign of (verts..., direction -e_P); 0 = vertical.

        A coordinate column c < P - 1 that is constant over the facet's
        integer rows (the height of a single-slab facet) is a multiple of
        the homogeneous column on those rows, and both are 0 on the
        direction row, so the determinant is 0 without evaluating it."""
        p = self.P
        facet = [self.int_rows[v] for v in verts]
        if _constant_columns(facet, p - 1):
            return 0
        rows_f = [list(self.frows[v]) + [1.0] for v in verts]
        rows_f.append([0.0] * (p - 1) + [-1.0, 0.0])
        s = filtered_det_sign(rows_f)
        if s is not None:
            return s
        rows_e = [list(row) for row in facet]
        rows_e.append([0] * (p - 1) + [-1, 0])
        return det_sign_exact(rows_e)

    def sides(self, verts: tuple[int, ...], queries) -> list[int]:
        """Perturbed orientation sign of (verts..., q) for each query q,
        P vertices and the query in homogeneous rows; never 0.  `verts`
        must be sorted ascending: the tie path takes verts[0] as the
        lowest-ranked row."""
        frows, fsize = self.frows, self.fsize
        facet = [self.int_rows[v] for v in verts]
        size = max(fsize[v] for v in verts)
        h = _tie_column(facet, self.P)
        full = tie = None
        out = []
        for q in queries:
            row = self.int_rows[q]
            if h is None or row[h] != facet[0][h]:
                if full is None:
                    full = _Orientation([frows[v] for v in verts], size)
                s = full.sign(frows[q], fsize[q])
            else:
                # A same-slab tie (class docstring); `flip` is (-1)^h.
                if tie is None:
                    tie = _Orientation([frows[v][:h] + frows[v][h + 1 :] for v in verts[1:]], size)
                    flip = -1 if h % 2 else 1
                    v0 = frows[verts[0]]
                    below = -flip * tie.sign(v0[:h] + v0[h + 1 :], size)
                if q > verts[0]:
                    s = flip * tie.sign(frows[q][:h] + frows[q][h + 1 :], fsize[q])
                else:
                    s = below
            out.append(s or sos_sign(facet + [row], list(verts) + [q]))
        return out


def _constant_columns(facet, limit: int) -> list[int]:
    """The columns c < limit that are constant over the facet's rows."""
    return [c for c, col in zip(range(limit), zip(*facet)) if col.count(col[0]) == len(col)]


def _tie_column(facet, p: int) -> int | None:
    """The coordinate column that is constant over the facet's integer
    rows, when there is exactly one; else None."""
    const = _constant_columns(facet, p)
    return const[0] if len(const) == 1 else None


class _Orientation:
    """Float filter for the homogeneous orientation of k points u_0..u_{k-1}
    of R^k and a query x: det[[u_0, 1], ..., [u_{k-1}, 1], [x, 1]] is
    (-1)^k det(u_1 - u_0, ..., u_{k-1} - u_0, x - u_0), and that edge
    determinant is the dot product of x - u_0 with the cofactors of its
    last row, computed once by `predicates.cofactors`.

    The float rows are rounded to half an ulp of their own magnitude, and
    an edge entry inherits the error of both of its rows: far from the
    origin (a lift |x|^2 against edges of |x|), that is more than the
    edges' own half ulps.  So the filter's scale is the largest magnitude
    among the edges and the rows themselves; `size` bounds the rows'."""

    def __init__(self, pts, size: float):
        base = pts[0]
        k = len(base)
        block = [[a - b for a, b in zip(u, base)] for u in pts[1:]]
        self.k = k
        self.base = base
        self.cof = cofactors(block)
        self.scale = max([1.0, size] + [abs(x) for row in block for x in row])
        self.homog = -1 if k % 2 else 1

    def sign(self, x, size: float) -> int:
        """Certified orientation sign of (u_0, ..., u_{k-1}, x), whose
        entries are at most `size` in magnitude; 0 when the filter cannot
        certify it."""
        val = 0.0
        scale = size if size > self.scale else self.scale
        for a, b, cf in zip(x, self.base, self.cof):
            dc = a - b
            val += dc * cf
            if dc > scale:
                scale = dc
            elif -dc > scale:
                scale = -dc
        return self.homog * (certified_sign(val, self.k, scale) or 0)


@dataclass
class _Facet:
    verts: tuple[int, ...]
    inside_sign: int
    conflicts: set[int]


class _Hull:
    """Incremental convex hull in R^P with conflict lists."""

    def __init__(self, space: _HullSpace, order: list[int]):
        self.space = space
        self.facets: dict[int, _Facet] = {}
        self.ridge_map: dict[tuple[int, ...], set[int]] = {}
        self._next_id = 0
        self._point_conflicts: dict[int, set[int]] = {}
        self._build(order)

    def _add_facet(self, verts: tuple[int, ...], witness: int, cand_ids: list[int]):
        """New facet; a vertex `witness` off it fixes the inside, and its
        conflicts are the `cand_ids` strictly beyond its hyperplane."""
        inside, *signs = self.space.sides(verts, [witness, *cand_ids])
        conflicts = {pid for pid, s in zip(cand_ids, signs) if s == -inside}
        fid = self._next_id
        self._next_id += 1
        self.facets[fid] = _Facet(verts, inside, conflicts)
        for pid in conflicts:
            self._point_conflicts[pid].add(fid)
        for i in range(len(verts)):
            ridge = verts[:i] + verts[i + 1 :]
            self.ridge_map.setdefault(ridge, set()).add(fid)

    def _remove_facet(self, fid: int):
        f = self.facets.pop(fid)
        for i in range(len(f.verts)):
            ridge = f.verts[:i] + f.verts[i + 1 :]
            owners = self.ridge_map[ridge]
            owners.discard(fid)
            if not owners:
                del self.ridge_map[ridge]
        for pid in f.conflicts:
            s = self._point_conflicts.get(pid)
            if s is not None:
                s.discard(fid)
        return f

    def _build(self, order: list[int]):
        p = self.space.P
        init, rest = order[: p + 1], order[p + 1 :]
        for pid in rest:
            self._point_conflicts[pid] = set()
        for k, witness in enumerate(init):
            verts = tuple(sorted(init[:k] + init[k + 1 :]))
            self._add_facet(verts, witness, rest)
        for q in rest:
            vis = self._point_conflicts.pop(q)
            if not vis:
                raise AssertionError("lifted point inside hull: duplicate input?")
            horizon = []
            for fid in vis:
                f = self.facets[fid]
                for i in range(len(f.verts)):
                    ridge = f.verts[:i] + f.verts[i + 1 :]
                    others = self.ridge_map[ridge] - vis
                    if others:
                        (other,) = others
                        horizon.append((ridge, fid, other))
            removed = {fid: self._remove_facet(fid) for fid in vis}
            for ridge, fvis_id, fhid_id in horizon:
                fvis = removed[fvis_id]
                fhid = self.facets[fhid_id]
                witness = next(v for v in fvis.verts if v not in ridge)
                new_verts = tuple(sorted(ridge + (q,)))
                cands = (fvis.conflicts | fhid.conflicts) - {q}
                self._add_facet(new_verts, witness, sorted(cands))
        for ridge, owners in self.ridge_map.items():
            if len(owners) != 2:
                raise AssertionError(f"open ridge {ridge} on finished hull")


# -- public triangulation ------------------------------------------------------


class Triangulation:
    """Delaunay triangulation: top simplices plus their downward closure."""

    def __init__(self, cloud: PointCloud, tops: list[Simplex], top_dim: int, space: _HullSpace):
        self.cloud = cloud
        self.top_simplices: tuple[Simplex, ...] = tuple(sorted(tops))
        self.top_dim = top_dim
        self._space = space
        by_dim: dict[int, set[tuple[int, ...]]] = {d: set() for d in range(top_dim + 1)}
        for top in self.top_simplices:
            for k in range(1, len(top.vertices) + 1):
                by_dim[k - 1].update(itertools.combinations(top.vertices, k))
        self.simplices_by_dim: dict[int, tuple[Simplex, ...]] = {
            d: tuple(map(Simplex._of, sorted(s))) for d, s in by_dim.items()
        }

    def simplices(self):
        for d in range(self.top_dim + 1):
            yield from self.simplices_by_dim[d]

    def faces(self, dim: int) -> list[Simplex]:
        if dim < 0 or dim > self.top_dim:
            raise InputError(f"dimension {dim} out of range 0..{self.top_dim}")
        return list(self.simplices_by_dim[dim])

    def insphere_sign(self, top: Simplex, queries) -> list[int]:
        """Perturbed in-circumsphere sign of each query vertex against a top
        simplex: +1 strictly inside under the symbolic perturbation, else -1.
        """
        if any(q in top.vertices for q in queries):
            raise InputError("query vertex belongs to the simplex")
        s_inf = self._space.infdown_sign(top.vertices)
        if s_inf == 0:
            raise InputError("vertical simplex has no oriented circumsphere")
        return [1 if o == s_inf else -1 for o in self._space.sides(top.vertices, queries)]


def _hull_space(cloud: PointCloud):
    """Lifted coordinates of the cloud: its pivot columns and |x|^2.

    Column c of the cloud is exactly ints / 2**shift[c] (`exact_ints`), so
    all exact work is in integers; the lift is the sum of squares over the
    common denominator 4**top.  The pivot columns (`_pivot_columns`) are
    all columns of a full-rank cloud; a flat one's affine hull projects
    onto them one to one, and on it |x|^2 differs from the induced squared
    length by an affine function, so the lower facets are the same.  The
    integer rows are positive column multiples of the rational ones, which
    changes no predicate sign; the float rows are the correctly rounded
    quotients.  Raises InputError when a lifted coordinate (a squared
    length) does not fit in a float.
    """
    cols, shifts = zip(*(exact_ints(col) for col in cloud.array().T.tolist()))
    pts = list(zip(*cols))
    top = max(shifts)
    # Weight of column c in a squared length over the denominator 4**top.
    weights = [1 << 2 * (top - k) for k in shifts]
    pivots = _pivot_columns(pts)
    coords = [tuple(p[c] for c in pivots) for p in pts]
    lifts = [sum(w * x * x for w, x in zip(weights, p)) for p in pts]
    coord_dens = [1 << shifts[c] for c in pivots]
    lift_den = 1 << 2 * top
    try:
        frows = [
            tuple(x / d for x, d in zip(c, coord_dens)) + (h / lift_den,)
            for c, h in zip(coords, lifts)
        ]
    except OverflowError:
        raise InputError("squared coordinates exceed the float range (1.8e308)") from None
    int_rows = [c + (h, 1) for c, h in zip(coords, lifts)]
    return len(pivots), _HullSpace(frows, int_rows)


def delaunay(cloud: PointCloud) -> Triangulation:
    """Delaunay triangulation of a point cloud (affine rank <= 5).

    Deterministic for a fixed input ordering.  The insertion order of the
    incremental hull is drawn from the fixed seed `_HULL_SEED`; the output
    does not depend on it.
    """
    if len(cloud) == 0:
        raise InputError("cannot triangulate an empty cloud")
    if cloud.dimension + 1 > DIM_CAP:
        raise InputError(f"dimension {cloud.dimension} exceeds triangulation cap {DIM_CAP - 1}")
    rank, space = _hull_space(cloud)
    n = len(cloud)
    if n == rank + 1:
        tops = [Simplex(range(n))]
        return Triangulation(cloud, tops, rank, space)
    order = list(range(n))
    tail = order[space.P + 1 :]
    random.Random(_HULL_SEED).shuffle(tail)
    order[space.P + 1 :] = tail
    hull = _Hull(space, order)
    tops = []
    for f in hull.facets.values():
        s = space.infdown_sign(f.verts)
        if s != 0 and s == -f.inside_sign:
            tops.append(Simplex(f.verts))
    if not tops:
        raise AssertionError("hull produced no lower facets")
    return Triangulation(cloud, tops, rank, space)
