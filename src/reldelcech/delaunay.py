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

The lifted set Z of a pair of clouds (X1 at height +s, X2 at -s) gets no
hull of its own: `pair_delaunay` gift-wraps del(Z) from del(X1) and
del(X2).  Under the heights-first tie rule every top of del(Z) joins a
face of del(X1) and a face of del(X2) (Cayley trick), so the top across a
ridge with vertices in both clouds has its new vertex in the link of the
ridge's X1 part in del(X1) or of its X2 part in del(X2).  An unperturbed
far-side test in projection and a wrap with the hull's own perturbed
`sides` pick it, so the tops are the lifted hull's.  The wrap starts from
a top of a cloud that spans a slab of Z; where neither cloud does
(non-parallel flat clouds), `delaunay(z)` triangulates Z.

A `Triangulation` is arrays only: its tops are an (n, k + 1) int array
of sorted vertex rows, and each dimension below is the `FaceTable` of
their faces (`face_tables`).  The hull and the wrap work on vertex
tuples; no per-simplex object is built.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def face_tuples(vs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Vertex tuples of the codimension-1 faces of the simplex vs, in
    lexicographic order: dropping a later vertex leaves a smaller tuple."""
    if len(vs) == 1:
        return []
    return [vs[:i] + vs[i + 1 :] for i in range(len(vs) - 1, -1, -1)]


class FaceTable(NamedTuple):
    """The k-simplices of a complex as arrays.  `simplices` is (n, k + 1):
    one row of strictly increasing vertex indices per simplex, the rows
    sorted lexicographically.  `facets` is (n, k + 1): its column i holds
    the row, in the table of dimension k - 1, of the facet without vertex
    i ((n, 0) for k = 0)."""

    simplices: np.ndarray
    facets: np.ndarray


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the int array a, sorted lexicographically, and
    the row among them of each row of a.  `np.lexsort` orders the columns
    one by one, so no key combines them and none can overflow."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return s[new], inverse


def find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of each query in `table`, whose rows are distinct and
    sorted lexicographically; -1 for a query not in it.  One `np.lexsort`
    of both, table rows before equal queries: the last table row at or
    before a query is the largest one not above it."""
    nt = len(table)
    both = np.concatenate([table, queries])
    tag = np.arange(len(both)) >= nt
    order = np.lexsort([tag, *both.T[::-1]])
    is_query = order >= nt
    last = np.maximum.accumulate(np.where(is_query, -1, order))
    q, t = order[is_query] - nt, last[is_query]
    hit = t >= 0
    hit[hit] = np.all(table[t[hit]] == queries[q[hit]], axis=1)
    out = np.full(len(queries), -1, dtype=np.int64)
    out[q[hit]] = t[hit]
    return out


def face_tables(tops: np.ndarray) -> list[FaceTable]:
    """The `FaceTable` of each dimension 0..k of the complex whose top
    simplices are the rows of `tops`, an (n, k + 1) int array of strictly
    increasing vertex rows.  Each dimension's table is the distinct rows
    of the one above with one column deleted, so the complex must be pure."""
    k = tops.shape[1] - 1
    rows, _ = unique_rows(tops)
    tables = []
    for dim in range(k, 0, -1):
        drops = np.concatenate([np.delete(rows, i, axis=1) for i in range(dim + 1)])
        lower, inverse = unique_rows(drops)
        tables.append(FaceTable(rows, inverse.reshape(dim + 1, len(rows)).T))
        rows = lower
    tables.append(FaceTable(rows, np.empty((len(rows), 0), dtype=np.int64)))
    return tables[::-1]


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

    The vertical test `infdown_sign`, the orientation of the projected
    facet, is the other predicate; it returns 0 for a facet with a constant
    coordinate column (a single-slab facet), filters the orientation
    otherwise and decides the rest exactly, unperturbed.
    """

    def __init__(self, frows: list[tuple[float, ...]], int_rows: list[tuple[int, ...]]):
        self.frows = frows
        self.fsize = [max(map(abs, row)) for row in frows]  # for `_Orientation`
        self.P = len(frows[0])
        self.int_rows = int_rows  # homogeneous: P scaled coordinates + 1

    def infdown_sign(self, verts: tuple[int, ...]) -> int:
        """Exact homogeneous sign of (verts..., direction -e_P); 0 = vertical.

        Expanding along the direction row, -1 in lift column P - 1, leaves
        +1 times the orientation of the projected facet (rows without the
        lift).  A column c < P - 1 constant over the facet (a single-slab
        facet's height) is a multiple of the homogeneous column: it is 0."""
        p = self.P
        facet = [self.int_rows[v] for v in verts]
        if _constant_columns(facet, p - 1):
            return 0
        s = filtered_det_sign([self.frows[v][:-1] + (1.0,) for v in verts])
        if s is not None:
            return s
        return det_sign_exact([row[: p - 1] + row[p:] for row in facet])

    def sides(self, verts: tuple[int, ...], queries) -> list[int]:
        """Perturbed orientation sign of (verts..., q) for each query q,
        P vertices and the query in homogeneous rows; never 0.  `verts`
        must be sorted ascending: the tie path takes verts[0] as the
        lowest-ranked row."""
        if not queries:
            return []
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

    def value(self, x) -> float:
        """The float orientation of (u_0, ..., u_{k-1}, x), uncertified."""
        return self.homog * sum((a - b) * cf for a, b, cf in zip(x, self.base, self.cof))


@dataclass
class _Facet:
    verts: tuple[int, ...]
    inside_sign: int
    conflicts: set[int]


class _Hull:
    """Incremental convex hull in R^P with conflict lists.

    A facet's `inside_sign`, sign(verts..., w) for a hull vertex w off it,
    comes from the facet it replaces: each sign of `sides` is a perturbed
    determinant (Simulation of Simplicity, Edelsbrunner & Mucke 1990), so
    an odd row permutation flips it exactly.  If q sees fvis = ridge + w, w
    its i-th vertex, sign(fvis..., q) = -inside(fvis), and (new..., w) for
    new = ridge + q, q its j-th vertex, has those rows in an order of
    parity i + j + 1: inside(new) = (-1)^(i+j) inside(fvis)."""

    def __init__(self, space: _HullSpace, order: list[int]):
        self.space = space
        self.facets: dict[int, _Facet] = {}
        self.ridge_map: dict[tuple[int, ...], set[int]] = {}
        self._next_id = 0
        self._point_conflicts: dict[int, set[int]] = {}
        self._build(order)

    def _add_facet(self, verts: tuple[int, ...], inside: int, cand_ids: list[int]):
        """New facet whose inside has sign `inside` (class docstring); its
        conflicts are the `cand_ids` strictly beyond its hyperplane."""
        signs = self.space.sides(verts, cand_ids)
        conflicts = {pid for pid, s in zip(cand_ids, signs) if s == -inside}
        fid = self._next_id
        self._next_id += 1
        self.facets[fid] = _Facet(verts, inside, conflicts)
        for pid in conflicts:
            self._point_conflicts[pid].add(fid)
        for ridge in face_tuples(verts):
            self.ridge_map.setdefault(ridge, set()).add(fid)

    def _remove_facet(self, fid: int):
        f = self.facets.pop(fid)
        for ridge in face_tuples(f.verts):
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
        init, rest = tuple(sorted(order[: p + 1])), order[p + 1 :]
        for pid in rest:
            self._point_conflicts[pid] = set()
        # Facet e lacks init[p - e]; moving it after the others takes e swaps.
        (d,) = self.space.sides(init[:-1], init[-1:])
        for e, verts in enumerate(face_tuples(init)):
            self._add_facet(verts, d * (-1) ** e, rest)
        for q in rest:
            vis = self._point_conflicts.pop(q)
            if not vis:
                raise AssertionError("lifted point inside hull: duplicate input?")
            horizon = []
            for fid in vis:
                for i, ridge in enumerate(reversed(face_tuples(self.facets[fid].verts))):
                    others = self.ridge_map[ridge] - vis
                    if others:
                        (other,) = others
                        horizon.append((ridge, i, fid, other))
            removed = {fid: self._remove_facet(fid) for fid in vis}
            for ridge, i, fvis_id, fhid_id in horizon:
                fvis = removed[fvis_id]
                new_verts = tuple(sorted(ridge + (q,)))
                inside = fvis.inside_sign * (-1) ** (i + new_verts.index(q))
                cands = (fvis.conflicts | self.facets[fhid_id].conflicts) - {q}
                self._add_facet(new_verts, inside, sorted(cands))
        for ridge, owners in self.ridge_map.items():
            if len(owners) != 2:
                raise AssertionError(f"open ridge {ridge} on finished hull")


# -- public triangulation ------------------------------------------------------


class Triangulation:
    """Delaunay triangulation of `cloud`, held as one `FaceTable` per
    dimension (`tables`), from the vertices up to the top simplices
    (`tops`).  `tops` is handed in as an (n, k + 1) int array of strictly
    increasing vertex rows, in any order; a row given twice raises
    AssertionError, where `face_tables` would drop it without a word."""

    def __init__(self, cloud: PointCloud, tops: np.ndarray, space: _HullSpace):
        self.cloud = cloud
        self._space = space
        self.tables = face_tables(tops)
        if len(self.tops) < len(tops):
            twice = np.bincount(find_rows(self.tops, tops)).argmax()
            raise AssertionError(f"top {tuple(self.tops[twice].tolist())} is given twice")

    @property
    def tops(self) -> np.ndarray:
        """The top simplices, in lexicographic order."""
        return self.tables[-1].simplices

    @property
    def top_dim(self) -> int:
        return len(self.tables) - 1

    def insphere_sign(self, top: tuple[int, ...], queries) -> list[int]:
        """Perturbed in-circumsphere sign of each query vertex against a top
        simplex, given by its sorted vertex tuple: +1 strictly inside under
        the symbolic perturbation, else -1.
        """
        if any(q in top for q in queries):
            raise InputError("query vertex belongs to the simplex")
        s_inf = self._space.infdown_sign(top)
        if s_inf == 0:
            raise InputError("vertical simplex has no oriented circumsphere")
        return [1 if o == s_inf else -1 for o in self._space.sides(top, queries)]


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
        return Triangulation(cloud, np.arange(n)[None], space)
    order = list(range(n))
    tail = order[space.P + 1 :]
    random.Random(_HULL_SEED).shuffle(tail)
    order[space.P + 1 :] = tail
    hull = _Hull(space, order)
    tops = []
    for f in hull.facets.values():
        s = space.infdown_sign(f.verts)
        if s != 0 and s == -f.inside_sign:
            tops.append(f.verts)
    if not tops:
        raise AssertionError("hull produced no lower facets")
    return Triangulation(cloud, np.array(tops, dtype=np.int64), space)


# -- del(Z) of a lifted pair ---------------------------------------------------


class _Wrap:
    """Breadth-first gift-wrap of del(Z) across its mixed ridges
    (`pair_delaunay`), over `space`, Z's lifted coordinates.

    `tops` are those of del(X1) and del(X2) in Z's indices: a vertex below
    n1 is in X1.  orient(ridge, q) is the unperturbed orientation of a
    ridge and a query in projection (rows without the lift), filtered by
    one `_Orientation` per ridge and exact where the filter cannot certify,
    as in `infdown_sign`.  For verts = sorted(ridge + (q,)), q at position
    j, infdown_sign(verts) = (-1)^(P-1-j) orient(ridge, q), so every top's
    vertical sign follows from the ridge it was wrapped across."""

    def __init__(self, space: _HullSpace, n1: int, tops: list[tuple[int, ...]]):
        p = space.P
        self.space = space
        self.n1 = n1
        self.prows = [row[:-1] for row in space.frows]
        self.psize = [max(map(abs, row)) for row in self.prows]
        self.pints = [row[: p - 1] + row[p:] for row in space.int_rows]
        self.star: list[list[tuple[int, ...]]] = [[] for _ in space.frows]
        for top in tops:
            for v in top:
                self.star[v].append(top)
        self.links: dict[tuple[int, ...], set[int]] = {}

    def link(self, face: tuple[int, ...]) -> set[int]:
        """Vertices v outside the face with face + v in del(X1) or
        del(X2), the face lying in one cloud."""
        got = self.links.get(face)
        if got is None:
            rest = face[1:]
            got = {v for t in self.star[face[0]] if all(u in t for u in rest) for v in t}
            got = self.links[face] = got.difference(face)
        return got

    def orientation(self, ridge: tuple[int, ...]) -> _Orientation:
        return _Orientation([self.prows[v] for v in ridge], max(self.psize[v] for v in ridge))

    def orient(self, ridge: tuple[int, ...], o: _Orientation, queries) -> list[int]:
        """orient(ridge, q) for each query q, `o` the ridge's
        `orientation`; 0 when q lies on the ridge's hyperplane."""
        prows, psize, pints = self.prows, self.psize, self.pints
        out = []
        for q in queries:
            s = o.sign(prows[q], psize[q])
            out.append(s or det_sign_exact([pints[v] for v in ridge] + [pints[q]]))
        return out

    def check_boundary(self, ridge: tuple[int, ...], o: _Orientation, far: int):
        """AssertionError unless no vertex q of Z has orient(ridge, q) =
        far: a ridge without a far candidate must lie on the boundary of
        conv(Z), or a broken del(X1) or del(X2) left a hole."""
        queries = [q for q in range(len(self.prows)) if q not in ridge]
        for q, s in zip(queries, self.orient(ridge, o, queries)):
            if s == far:
                raise AssertionError(f"vertex {q} of Z lies beyond the boundary ridge {ridge} of del(Z)")

    def check_tops(self, tops: list[tuple[int, ...]]):
        """The wrap's checks on `tops`, a whole triangulation of Z's
        vertices: AssertionError if a ridge has more than two tops, if the
        two tops of a ridge are flat or lie on one side of it, or if a
        vertex of Z lies beyond a ridge of one top (`check_boundary`)."""
        apexes: dict[tuple[int, ...], list[int]] = {}
        for top in tops:
            for ridge, a in zip(face_tuples(top), reversed(top)):
                apexes.setdefault(ridge, []).append(a)
        for ridge, ends in apexes.items():
            if len(ends) > 2:
                raise AssertionError(f"ridge {ridge} of del(Z) has {len(ends)} tops")
            o = self.orientation(ridge)
            signs = self.orient(ridge, o, ends)
            if 0 in signs or len(ends) == 2 and signs[0] == signs[1]:
                raise AssertionError(f"the tops of ridge {ridge} of del(Z) are flat or overlap")
            if len(ends) == 1:
                self.check_boundary(ridge, o, -signs[0])

    def down(self, verts: tuple[int, ...], b: int, o: int) -> int:
        """infdown_sign(verts) for verts = sorted(ridge + (b,)) and
        o = orient(ridge, b) (class docstring)."""
        return o if (self.space.P - 1 - verts.index(b)) % 2 == 0 else -o

    def nearest(self, start: tuple[int, ...], other: list[int], o: int) -> int:
        """The vertex of `other` nearest the circumcenter of `start` in
        float, o = orient(start, q) for every q in `other`.  `start` spans
        one slab of Z and `other` lies in the other, so the lifted
        orientation of start + other[0] and q, times the `down` sign, is a
        positive multiple of other[0]'s power distance from the
        circumsphere of `start` minus q's: the largest is the nearest."""
        frows = self.space.frows
        verts = tuple(sorted(start + (other[0],)))
        below = self.down(verts, other[0], o)
        f = _Orientation([frows[v] for v in verts], 0.0)
        return max(other, key=lambda q: below * f.value(frows[q]))

    def wrap(self, ridge: tuple[int, ...], far: list[int], o: int) -> int:
        """The vertex b of `far` for which no other lies below the lifted
        hyperplane of ridge + b.  Every vertex of `far` has orient(ridge, q)
        = o, so they turn around the ridge in one half-space, and a vertex
        that is not below the hyperplane of ridge + c is not below that of
        any c' below it either."""
        best, rest = far[0], far[1:]
        while rest:
            verts = tuple(sorted(ridge + (best,)))
            below = self.down(verts, best, o)
            rest = [q for q, s in zip(rest, self.space.sides(verts, rest)) if s == below]
            if rest:
                best, rest = rest[0], rest[1:]
        return best

    def run(self, start: tuple[int, ...], other: list[int]) -> list[tuple[int, ...]]:
        """Tops of del(Z), from `start`, a top of the cloud that spans one
        slab of Z, and `other`, the vertices of the other cloud."""
        p, n1 = self.space.P, self.n1
        owners: dict[tuple[int, ...], int] = {}
        tops: list[tuple[tuple[int, ...], int]] = []  # (top, its infdown_sign)

        def add(ridge, b, o):
            top = tuple(sorted(ridge + (b,)))
            for face in face_tuples(top):
                k = owners.get(face, 0)
                if k == 2:
                    raise AssertionError(f"ridge {face} of del(Z) would get a third top {top}")
                owners[face] = k + 1
            tops.append((top, self.down(top, b, o)))

        # Every vertex of the other cloud lies strictly on one side of the
        # slab that `start` spans.  The wrap from the nearest in float
        # usually ends after one `sides` call, whatever the vertex order.
        (o,) = self.orient(start, self.orientation(start), other[:1])
        b = self.nearest(start, other, o)
        add(start, self.wrap(start, [b] + [q for q in other if q != b], o), o)
        for top, down in tops:  # breadth first: `add` appends to `tops`
            for i in range(p):
                ridge = top[:i] + top[i + 1 :]
                if ridge[-1] < n1 or ridge[0] >= n1 or owners[ridge] == 2:
                    continue  # a slab ridge lies on the boundary of conv(Z)
                far_o = -down if (p - 1 - i) % 2 == 0 else down  # -orient(ridge, a)
                k = bisect_left(ridge, n1)
                cands = sorted((self.link(ridge[:k]) | self.link(ridge[k:])).difference(top))
                o = self.orientation(ridge)
                far = [q for q, s in zip(cands, self.orient(ridge, o, cands)) if s == far_o]
                if far:
                    add(ridge, self.wrap(ridge, far, far_o), far_o)
                else:
                    self.check_boundary(ridge, o, far_o)
        return [top for top, _ in tops]


def pair_delaunay(z: PointCloud, tri1: Triangulation | None, tri2: Triangulation | None) -> Triangulation:
    """del(Z) of a lifted pair, from tri1 = del(X1) and tri2 = del(X2)
    (None for an empty cloud): z[i] is X1's i-th point at height +s for
    i < n1 = |X1|, X2's (i - n1)-th at height -s otherwise
    (`relative_lift.lift`).  The tops equal `delaunay(z)`'s.

    With one cloud empty, Z is the other at one height, and del(Z) has
    its tops; `_Wrap.check_tops` checks them as the wrap checks its own.
    Otherwise `sos_sign`'s heights-first rule makes del(Z) restrict to
    del(X1) and del(X2) (Cayley trick, Huber, Rambau & Santos, JEMS
    2000): every top of del(Z) is a join t1 * t2 of a face t1 of
    del(X1) and a face t2 of del(X2).  So the top across a mixed ridge R
    (vertices in both clouds) of a top T = R + a is R + b, b in the link
    of R & X1 in del(X1) or of R & X2 in del(X2): the candidates.  A slab
    ridge, in one cloud, lies on the boundary of conv(Z) and has no other
    top.

    Far side.  The top across R lies in projection (Z's coordinates
    without the lift) on the other side of R's hyperplane than a, and is
    not vertical, so b lies strictly there.  A candidate on R's
    hyperplane would make a vertical facet, which `delaunay` drops; so
    the filter is unperturbed (`_Wrap.orient`), and R lies on the
    boundary of conv(Z) when no candidate is strictly beyond it.  That is
    checked against every vertex of Z (`_Wrap.check_boundary`): a broken
    del(X1) or del(X2) leaves a hole there.

    Wrap.  Among the far candidates, b is the one whose lifted hyperplane
    with R has no other candidate below it (`_Wrap.wrap`), by `sides`,
    the perturbed orientation the lifted hull decides with: that is the
    lower hull facet across R, as each of those candidates would be
    below it.  Each mixed ridge is wrapped once, from the first of its
    tops to be found.  A ridge that would get a third top, a vertex beyond
    a boundary ridge and a vertex of Z in no top raise AssertionError: a
    broken del(X1) or del(X2) causes them.

    Start.  Write rho = rank(Z).  When a cloud has rank rho - 1, its
    tops span a slab of Z, and each lies in exactly one top of del(Z),
    joined to the vertex of the other cloud nearest its circumcenter:
    the one wrap over that cloud finds it.  The wrap starts from the
    vertex nearest in float (`_Wrap.nearest`), so one `sides` call
    usually confirms it, in whatever order the cloud is listed.
    Otherwise neither cloud's affine hull is parallel to the other's (two
    crossing lines in R^2, skew lines or two planes in R^3), and
    `delaunay(z)` triangulates Z; `_Wrap.check_tops` checks its tops too.
    """
    if z.dimension + 1 > DIM_CAP:
        raise InputError(f"dimension {z.dimension} exceeds triangulation cap {DIM_CAP - 1}")
    rank, space = _hull_space(z)
    if tri1 is None or tri2 is None:
        tops = list(map(tuple, (tri1 or tri2).tops.tolist()))
        if rank:  # a single vertex has no ridge
            _Wrap(space, 0, tops).check_tops(tops)
    else:
        n1 = len(tri1.cloud)
        tops1 = list(map(tuple, tri1.tops.tolist()))
        tops2 = list(map(tuple, (tri2.tops + n1).tolist()))
        if not tops1 or not tops2:
            raise AssertionError(f"del(X{1 if not tops1 else 2}) has no top")
        if tri1.top_dim == rank - 1:
            tops = _Wrap(space, n1, tops1 + tops2).run(tops1[0], list(range(n1, len(z))))
        elif tri2.top_dim == rank - 1:
            tops = _Wrap(space, n1, tops1 + tops2).run(tops2[0], list(range(n1)))
        else:
            tops = list(map(tuple, delaunay(z).tops.tolist()))
            _Wrap(space, n1, tops).check_tops(tops)
    covered = {v for top in tops for v in top}
    if len(covered) < len(z):
        missing = min(set(range(len(z))) - covered)
        raise AssertionError(f"vertex {missing} of Z is in no top of del(Z)")
    return Triangulation(z, np.array(tops, dtype=np.int64), space)
