"""Dimension-generic Delaunay triangulation via the paraboloid lift.

Points of R^m are lifted to (x, |x|^2) in R^(m+1); the lower convex hull of
the lifted set, computed by a randomized incremental algorithm with conflict
lists, in rounds over pending ridges (`_Hull`), projects back to the
Delaunay top simplices.  Clouds triangulated in one call, as del(X1) and
del(X2) are, share those rounds: each round takes the pending ridges of
every cloud's hull, so they cost as many rounds as the deepest hull.
Predicate ties are broken by a symbolic perturbation ordered by vertex
index, lift heights first (`predicates`), so construction is deterministic
and no zero signs escape.  Every cloud is triangulated in its pivot
columns (`_hull_space`), onto which its affine hull projects one to one,
so flat configurations are fine.  All exact arithmetic is on integers:
every float coordinate is a dyadic rational.

Vertical hull facets (whose supporting hyperplane contains the lift
direction) are discarded by an exact, unperturbed test, one batch over the
final facets: they project to degenerate simplices and are not Delaunay
cells.

The lifted set Z of a pair of clouds (X1 at height +s, X2 at -s) gets no
hull of its own: `pair_delaunay` gift-wraps del(Z) from del(X1) and
del(X2).  Under the heights-first tie rule every top of del(Z) joins a
face of del(X1) and a face of del(X2) (Cayley trick), so the top across a
ridge with vertices in both clouds has its new vertex adjacent to every
vertex of the ridge's X1 part in del(X1) or of its X2 part in del(X2).
The wrap takes those common neighbours from the edge graph of both, which
its seeds walk too, and an unperturbed far-side test in projection and
the hull's own perturbed orientation pick the new vertex among them, so
the tops are the lifted hull's.  The wrap is seeded with every top of a
cloud that spans its slab of Z, each joined to its one partner in the
other cloud; where neither cloud spans (non-parallel flat clouds),
`delaunay(z)` triangulates Z.

Every float test runs in one elementwise numpy kernel, `_orient_batch`,
many at a time.  The hull makes all facets of one round and tests all
their conflict candidates in one call.  The wrap confirms all seeds in
one call, then goes one breadth-first level at a time: the far sides, a
guess of each new top from the pencil of lifted hyperplanes through its
ridge, and the confirmation of the guess.  The kernel does the scalar
filter's float operations in the same order, so its signs and its
certified or uncertified decisions are the scalar ones.  On a cloud in
the exact range (integer coordinates of modest range: grids, lattices,
voxel data; `_HullSpace`) its values are the determinants themselves,
zeros included.  The perturbed orientation (`_perturbed_signs`) decides
in batches what the kernel cannot certify wherever it can: same-slab
ties by their tie minor, and exact zeros in range by the first lift
terms of the perturbation; only the rest goes to the scalar `sos_sign`.

A `Triangulation` is its cloud and its face tables, nothing else: its
tops are an (n, k + 1) int array of sorted vertex rows, and each
dimension below is the `FaceTable` of their faces (`face_tables`).  One
helper, `faces`, forms the facets of any table of vertex rows, face i
without vertex i; the face tables, the hull's ridges, the wrap's and the
filtered complex's checks all take them from it.  The hull and the wrap
work on vertex arrays; no per-simplex object is built.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from .geometry import DIM_CAP, InputError, PointCloud, unique_rows
from .predicates import (
    batch_cofactors,
    certified_signs,
    det_sign_exact,
    exact_cofactors,
    exact_ints,
    filtered_det_sign,
    sos_sign,
)

_HULL_SEED = 0x9E3779B9  # orders hull insertion; the output does not depend on it


class FaceTable(NamedTuple):
    """The k-simplices of a complex as arrays.  `simplices` is (n, k + 1):
    one row of strictly increasing vertex indices per simplex, the rows
    sorted lexicographically.  `facets` is (n, k + 1): its column i holds
    the row, in the table of dimension k - 1, of the facet without vertex
    i, face i of `faces` ((n, 0) for k = 0)."""

    simplices: np.ndarray
    facets: np.ndarray


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


def faces(rows: np.ndarray) -> np.ndarray:
    """The facets of each vertex row of `rows`, an (n, k + 1) int array:
    an (n, k + 1, k) array whose face i drops vertex i.  Faces of a
    sorted row are sorted, and a later face is lexicographically smaller."""
    return rows[:, _rank_tables(rows.shape[1] - 1)[1]]


def face_tables(tops: np.ndarray) -> list[FaceTable]:
    """The `FaceTable` of each dimension 0..k of the complex whose top
    simplices are the rows of `tops`, an (n, k + 1) int array of strictly
    increasing vertex rows.  Each dimension's table is the distinct rows
    of the one above with one column deleted, so the complex must be pure."""
    k = tops.shape[1] - 1
    rows, _ = unique_rows(tops)
    tables = []
    for dim in range(k, 0, -1):
        lower, inverse = unique_rows(faces(rows).reshape(-1, dim))
        tables.append(FaceTable(rows, inverse.reshape(len(rows), dim + 1)))
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
    (`rows`, an (n, P) array, with their largest magnitudes `sizes`; in
    projection, without the lift, `prows` and `psizes`) feed the static
    filter; exact integer rows (each column scaled by a positive constant,
    which preserves all predicate signs; `pints` in projection) decide the
    rest, with symbolic perturbation ranked by vertex index as tie-breaker.

    The exact range (`exact`, one flag per row, its cloud's): the cloud's
    columns need no shift (`_hull_space`), every lift is at most 2^53, and
    P! * prod_c max(1, range of column c) < 2^53 over the integer rows
    (`_exact_range`).  Grids, lattices and voxel data have it; random
    floats do not.  It implies the definition that an entry-by-entry
    comparison of the float and integer rows used to test (the tests keep
    it as a reference): each coordinate is the cloud's own float, an
    integer, and each lift h is an integer of at most 2^53, so the float
    h / 1 is h; the float rows are the integer rows, integer-valued and
    within the bound.  A cloud that met that definition only (halves off
    the pivot columns whose squares add up to integers) takes the exact
    paths outside the range, with the same signs.  `_orient_batch`
    subtracts a row from rows of one simplex and expands the minors of
    those edges: in range every minor of r columns and every partial sum
    is an integer of at most r! times the product of their ranges, below
    2^53, so every float operation is exact and the kernel's value is the
    determinant itself, zeros included (the small-integer static filter of
    Devillers & Pion, ALENEX 2003).  A kernel over fewer columns (the
    projection, the tie minor) stays in range.

    The perturbed orientation of a facet against points is
    `_perturbed_signs`.  What the kernel cannot certify, it decides in
    batches where it can:

    Same-slab ties: when the facet's integer rows have exactly one constant
    coordinate column h (a facet inside one slab of a lifted pair: its
    height) and the query shares that value, the determinant is 0 by
    structure, and SoS replaces the lowest-ranked row, the smallest vertex,
    by e_h (`predicates`).  The sign is then (-1)^(r+h) times the P x P
    minor without that row r and column h.  Write orient(...) for the
    homogeneous determinant of P points with column h dropped:
      - q > verts[0]: (-1)^h orient(verts[1:], q);
      - q < verts[0]: (-1)^(P+h) orient(verts).
    Exact zeros: in range, a zero determinant takes `sos_sign`'s first
    coefficients, the lift terms of the empty monomial: (-1)^(i + P - 1)
    times the projected orientation of the rows without row i, rows i by
    increasing rank.  When a coordinate column is constant over all rows,
    a multiple of the homogeneous one, `sos_sign` skips the determinant
    itself but not these terms, and each of them is 0.  A zero minor
    (cospherical slab points) or an uncertified one out of range goes to
    the scalar `sos_sign`, so every sign is `sos_sign`'s.

    The vertical test `infdown_sign`, the orientation of the projected
    facet, is the other predicate; it returns 0 for a facet with a constant
    coordinate column (a single-slab facet), filters the orientation
    otherwise and decides the rest exactly, unperturbed.  `delaunay` runs
    it for the final facets that its batch (`_vertical_signs`) cannot
    certify.
    """

    def __init__(self, rows: np.ndarray, int_rows: list[tuple[int, ...]], exact: np.ndarray):
        self.rows, self.prows = rows, rows[:, :-1]
        self.P = rows.shape[1]
        self.int_rows = int_rows  # homogeneous: P scaled coordinates + 1
        # initial=0.0: the space of one point has no projected column.
        self.sizes, self.psizes = np.abs(rows).max(axis=1), np.abs(self.prows).max(axis=1, initial=0.0)
        self.exact = exact
        self.starts = [0]  # the first row of each cloud (`joint`)

    @classmethod
    def joint(cls, spaces: list[_HullSpace]) -> _HullSpace:
        """One space for the clouds of `spaces`, all of one P: their rows
        one after the other, so a cloud's row ids are offset by the sizes
        of the clouds before it, as in Z; one space is itself.  Each
        predicate reads the rows of one cloud, whose float and integer
        rows are that cloud's own, so every sign is the one its cloud's
        space gives.  `exact` is each row's cloud's flag: the union of two
        clouds in the exact range need not be in it, since their column
        ranges add up."""
        if len(spaces) == 1:
            return spaces[0]
        out = cls(np.concatenate([s.rows for s in spaces]), [r for s in spaces for r in s.int_rows], np.concatenate([s.exact for s in spaces]))
        out.starts = np.cumsum([0, *(len(s.rows) for s in spaces[:-1])]).tolist()
        return out

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """(n, P) int array: in each coordinate column, equal codes for
        equal integer entries; it finds constant columns and ties."""
        out = np.empty((len(self.int_rows), self.P), dtype=np.int64)
        for c, col in zip(range(self.P), zip(*self.int_rows)):
            index: dict[int, int] = {}
            out[:, c] = [index.setdefault(x, len(index)) for x in col]
        return out

    @functools.cached_property
    def pints(self) -> list[tuple[int, ...]]:
        p = self.P
        return [row[: p - 1] + row[p:] for row in self.int_rows]

    def infdown_sign(self, verts: tuple[int, ...]) -> int:
        """Exact homogeneous sign of (verts..., direction -e_P); 0 = vertical.

        Expanding along the direction row, -1 in lift column P - 1, leaves
        +1 times the orientation of the projected facet (rows without the
        lift).  A column c < P - 1 constant over the facet (a single-slab
        facet's height; equal `codes`) is a multiple of the homogeneous
        column: it is 0."""
        codes = self.codes[list(verts), :-1]
        if (codes == codes[0]).all(axis=0).any():
            return 0
        s = filtered_det_sign([[*self.prows[v].tolist(), 1.0] for v in verts])
        if s is not None:
            return s
        return det_sign_exact([self.pints[v] for v in verts])


def _exact_range(int_rows: list[tuple[int, ...]], shift: int) -> bool:
    """Whether a cloud's lifted rows are in the exact range (`_HullSpace`),
    from its homogeneous integer rows and the largest shift of its
    columns (`_hull_space`); no float entry is read."""
    if shift:
        return False
    cols = list(zip(*int_rows))[:-1]  # without the homogeneous column
    if max(map(abs, cols[-1])) > 1 << 53:  # the lifts
        return False
    bound = math.factorial(len(cols))
    for col in cols:
        bound *= max(1, max(col) - min(col))
    return bound < 1 << 53


def _perturbed_signs(space: _HullSpace, verts: np.ndarray, which: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The perturbed orientation sign of (verts[which[i]]..., queries[i])
    for each i, never 0: `sos_sign` of their integer rows, ranked by
    vertex.  `verts` is an (m, P) int array of sorted vertex rows.

    One `_orient_batch` call over the float rows decides what it
    certifies; in the exact range, its value decides the rest of what is
    not 0.  What is left takes the first coefficients of `sos_sign`,
    each (-1)^(r + c) times the minor of the determinant without row r
    and column c (`_HullSpace`):
      (a) a same-slab tie: r the row of lowest rank, c its tie column h;
          in range the minor's value decides;
      (b) in range, any other exact zero: the lift terms, c the lift
          column and r each row in rank order, the first nonzero deciding
          (a coordinate column constant over all rows makes each 0).
    All those minors are one more kernel call (`_minors`).  Whatever is
    left goes to the scalar `sos_sign`."""
    return _resolve(space, verts, which, queries, *_orient_batch(space.rows, space.sizes, verts, which, queries))


def _resolve(space: _HullSpace, verts: np.ndarray, which: np.ndarray, queries: np.ndarray, signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`_perturbed_signs` of the entries whose kernel signs and values
    are `signs` and `values`: each 0 sign is filled in, in place.  An
    entry's rows are in one cloud, whose flag `exact` it reads."""
    p = space.P
    todo = (signs == 0).nonzero()[0]
    if not len(todo):
        return signs
    # Small batches: the array methods cost less than the np.* functions.
    rows = np.concatenate([verts[which[todo]], queries[todo, None]], axis=1)  # the determinants' rows
    codes = space.codes[rows]  # (entry, row, column)
    same = codes == codes[:, :1]
    const = same[:, :-1].all(axis=1)  # over the facet
    h = const.argmax(axis=1)
    tie = (const.sum(axis=1) == 1) & same[np.arange(len(todo)), -1, h]
    rank, others = _rank_tables(p)
    rank = rank[(rows[:, :-1] < rows[:, -1:]).sum(axis=1)]  # rank[i, t]: the row of rank t
    a = tie.nonzero()[0]
    exact = space.exact[rows[:, -1]]
    if exact.any():
        signs[todo[exact]] = np.sign(values[todo[exact]])
        b = ((signs[todo] == 0) & exact & ~tie).nonzero()[0]
        if len(b):
            signs[todo[b]] = _lift_terms(space, rows[b], rank[b])
    if len(a):
        # At most _BATCH // 8 minors per call: each holds ~1 KB of kernel
        # arrays, and a wrap level on a 3D grid can have thousands.
        r, c = rank[a, 0], h[a]
        pts, step = rows[a[:, None], others[r]], _BATCH // 8
        parts = [_minors(space, pts[i : i + step], c[i : i + step]) for i in range(0, len(a), step)]
        s, v = (np.concatenate(x) for x in zip(*parts))
        s[exact[a]] = np.sign(v[exact[a]])
        signs[todo[a]] = s * (1 - 2 * ((r + c) & 1))
    int_rows = space.int_rows
    for i in todo[signs[todo] == 0].tolist():
        vs, x = verts[which[i]].tolist(), int(queries[i])
        signs[i] = sos_sign([int_rows[v] for v in vs] + [int_rows[x]], vs + [x])
    return signs


def _lift_terms(space: _HullSpace, rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The first nonzero lift term of each exact zero in range, 0 where
    all are 0: rows[i] are the determinant's rows, the query last, and
    rank[i, t] its row of rank t.  The term of row r is (-1)^(r + P - 1)
    times the minor without row r and the lift column P - 1, the
    orientation of the other rows in projection.  All come from one
    cofactor pass: with E the projected edges, rows 1..P minus row 0, and
    cof = batch_cofactors(E^T), the minor without row 0 is sum(cof) and
    the one without row r >= 1 is (-1)^(r - 1) cof[r - 1].  So the terms
    are (-1)^P (-sum(cof), cof[0], ..., cof[P - 1]).  In range every
    partial sum of cof is a determinant below the range bound
    (`_exact_range`), so exact."""
    p = space.P
    proj = space.rows[rows, : p - 1]
    cof = batch_cofactors((proj[:, 1:] - proj[:, :1]).transpose(0, 2, 1))
    terms = np.sign(np.concatenate([-cof.sum(axis=1)[:, None], cof], axis=1))
    terms = np.take_along_axis(terms, rank, axis=1) * (-1) ** p  # in rank order
    return terms[np.arange(len(rows)), (terms != 0).argmax(axis=1)]


def _minors(space: _HullSpace, pts: np.ndarray, drop: np.ndarray):
    """`_orient_batch` of the simplex pts[i, :-1] against the vertex
    pts[i, -1] over the float rows without column drop[i], for each i,
    in one call: (signs, values).  The sizes are those of the whole rows."""
    m, k = pts.shape
    _, others = _rank_tables(k - 1)
    local = space.rows[pts[:, :, None], others[drop][:, None, :]].reshape(m * k, k - 1)
    ids = np.arange(m * k).reshape(m, k)
    return _orient_batch(local, space.sizes[pts].ravel(), ids[:, :-1], np.arange(m), ids[:, -1])


@functools.cache
def _rank_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """For the P + 1 rows of a facet and a query, the query last:
    rank[j][t], the row of rank t when the query has rank j among them
    (the facet's rows are sorted), and others[r], the rows but row r."""
    rank = [list(range(j)) + [p] + list(range(j, p)) for j in range(p + 1)]
    others = [[i for i in range(p + 1) if i != r] for r in range(p + 1)]
    return np.array(rank), np.array(others, dtype=np.int64).reshape(p + 1, p)


def _orient_batch(rows: np.ndarray, size: np.ndarray, simplices: np.ndarray, which: np.ndarray, queries: np.ndarray):
    """Float filter for the homogeneous orientation of many simplices
    against many queries at once.

    `rows` is an (n, k) float array, `size` the largest magnitude in each
    row, `simplices` an (m, k) array of vertex rows, and query i asks for
    the orientation of simplex which[i] = (u_0, ..., u_{k-1}) and vertex
    x = queries[i]: det[[u_0, 1], ..., [u_{k-1}, 1], [x, 1]], which is
    (-1)^k det(u_1 - u_0, ..., u_{k-1} - u_0, x - u_0), the dot product of
    x - u_0 with the cofactors of that edge determinant's last row.
    Returns (signs, values): the certified sign of each query, 0 where the
    filter does not certify it, and its float value.

    The float rows are rounded to half an ulp of their own magnitude, and
    an edge entry inherits the error of both of its rows: far from the
    origin (a lift |x|^2 against edges of |x|), that is more than the
    edges' own half ulps.  So the filter's scale is the largest of 1, the
    simplex's sizes, its edge entries, the query's size and its edge
    entries.  The cofactors come from `batch_cofactors`, the dot product
    is taken left to right from 0.0, and the bound is `certified_signs`':
    the float operations of the scalar filter (`predicates.cofactors` and
    `certified_sign`), elementwise and in the same order, so every value
    and decision is bit-identical to it.  No matrix product, no axis sum
    (pairwise summation reorders the additions), so no BLAS either."""
    k = rows.shape[1]
    with np.errstate(all="ignore"):
        pts = rows[simplices]
        base = pts[:, 0]
        block = pts[:, 1:] - base[:, None]
        cof = batch_cofactors(block)[which]
        scale = np.maximum(size[simplices].max(axis=1), 1.0)
        if k > 1:
            scale = np.maximum(scale, np.abs(block).max(axis=(1, 2)))
        x = rows[queries] - base[which]
        values = np.zeros(len(queries))
        for j in range(k):
            values = values + x[:, j] * cof[:, j]
        scale = np.maximum(np.maximum(scale[which], size[queries]), np.abs(x).max(axis=1))
        signs = certified_signs(values, k, scale)
    if k % 2:
        return -signs, -values
    return signs, values


def _vertical_signs(space: _HullSpace, facets: np.ndarray) -> np.ndarray:
    """`infdown_sign` of each sorted vertex row of `facets`, in one batch.
    For verts = facets[i], it is the orientation of the projected facet:
    that of its first P - 1 vertices and its last in projection (rows
    without the lift), which `_orient_batch` filters.  What the batch
    cannot certify, the structural zeros among it (a constant column
    makes the float value exactly 0), goes to the scalar `infdown_sign`."""
    signs, _ = _orient_batch(space.prows, space.psizes, facets[:, :-1], np.arange(len(facets)), facets[:, -1])
    for i in np.flatnonzero(signs == 0).tolist():
        signs[i] = space.infdown_sign(tuple(facets[i].tolist()))
    return signs


def _join(rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sorted(row + (v,)) for each sorted vertex row of `rows` and its
    vertex of `v`, and v's position in it: the number of the row's
    vertices below v."""
    j = np.count_nonzero(rows < v[:, None], axis=1)[:, None]
    col = np.arange(rows.shape[1] + 1)
    v = v[:, None]
    return np.where(col < j, np.hstack([rows, v]), np.where(col == j, v, np.hstack([v, rows]))), j[:, 0]


class _Hull:
    """Randomized incremental convex hulls in R^P, one per cloud of
    `space` (`_HullSpace.joint`), built in rounds over the pending ridges
    of every cloud (Blelloch, Gu, Shun & Sun, "Parallelism in randomized
    incremental algorithms", SPAA 2016 / JACM 2020).

    `order` is the clouds' insertion orders one after the other, each a
    permutation of its cloud's rows; a point's rank is its position in
    `order`.  The first P + 1 points of each cloud's order make a simplex,
    all of them oriented in one `_perturbed_signs` batch.
    A facet's conflict set is the set of later points of its cloud
    strictly beyond it, kept as a rank-sorted array, and its pivot is the
    earliest of them (n, standing for infinity, when there is none).  A
    job (t1, r, t2) is a ridge r and its two facets.  No ridge has facets
    of two clouds, and no job or conflict set mixes them: the rounds run
    each cloud's hull as if it were alone, so each cloud's facets are its
    own hull's, and the hulls take as many rounds as the deepest of them.
    One round takes every pending job:
      - equal pivots: r is final when there is none; otherwise the pivot
        sees both facets and buries them across r;
      - otherwise, t1 the facet with the earlier pivot p: p sees t1 and
        not t2, so r is on p's horizon, and the new facet is
        t = sorted(r + p), with the conflict set of the candidates
        C(t1) | C(t2) - {p} beyond it.  Next round t meets t2 across r;
        each other ridge of t holds p and meets the other new facet of p
        that holds it, through a ridge map kept across rounds.
    These are the sequential algorithm's steps for the same order: when
    it inserts p, the facets it removes are those whose pivot is p (an
    earlier point beyond one would have removed it), each horizon ridge
    has one of them and one facet whose pivot is later, and a later point
    beyond r + p lies beyond one of the two (the conflict lemma of
    Clarkson & Shor).  So the rounds make each of its facets once, the
    final facets, whose conflict sets are empty, are the hull's, and a
    facet's pivot is known when it is made: no facet of a round depends on
    another.  That takes O(log n) rounds with high probability.

    A facet's inside sign, sign(verts..., w) for a hull vertex w off it,
    comes from t1: each sign of `_perturbed_signs` is a perturbed
    determinant (Simulation of Simplicity, Edelsbrunner & Mucke 1990), so
    an odd row permutation flips it exactly.  p sees t1 = r + w, w its i-th vertex,
    so sign(t1..., p) = -inside(t1), and (t..., w) for t = r + p, p its
    j-th vertex, has those rows in an order of parity i + j + 1:
    inside(t) = (-1)^(i+j) inside(t1).

    All visibility tests of a round are one batch of `_perturbed_signs`:
    one kernel call, one more for the same-slab ties and exact zeros it
    cannot certify, and the scalar `sos_sign` for the rest.  Every
    conflict set lives in `_conflicts` until the hull is done: the hull
    never sets the run's peak memory, which is the reduction's.  The
    result is `facets`, the final facets' sorted vertex rows, and
    `inside_signs`."""

    def __init__(self, space: _HullSpace, order: list[int]):
        self.space = space
        self.order = np.array(order, dtype=np.int64)
        self.rounds = 0
        # Per facet id, grown by `_reserve`: inside sign, pivot rank and
        # its slice of `_conflicts`.
        self._inside = self._pivot = self._start = self._count = np.zeros(0, dtype=np.int64)
        self._made = 0
        self._conflicts = np.zeros(0, dtype=np.int64)  # ranks
        self._used = 0  # the length of `_conflicts` in use
        # The ridge map: ridges that wait for their second facet, their
        # first facet and its vertex off the ridge.
        self._waiting = (np.zeros((0, space.P - 1), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        self._final: list[tuple[np.ndarray, np.ndarray]] = []
        self._build()

    def _build(self):
        space, order = self.space, self.order
        p, n = space.P, len(order)
        inits = np.sort([order[lo : lo + p + 1] for lo in space.starts], axis=1)
        # Facet i lacks init[i]; moving it after the others takes p - i swaps.
        d = _perturbed_signs(space, inits[:, :-1], np.arange(len(inits)), inits[:, -1])
        verts = faces(inits).reshape(-1, p)
        rest = [np.arange(lo + p + 1, hi) for lo, hi in zip(space.starts, [*space.starts[1:], n])]
        which = np.repeat(np.arange(len(verts)), np.repeat([len(r) for r in rest], p + 1))
        ranks = np.concatenate([np.tile(r, p + 1) for r in rest])
        ids = self._add(verts, np.outer(d, (-1) ** (p - np.arange(p + 1))).ravel(), which, ranks)
        jobs = self._match(ids, verts, np.full(len(verts), -1))
        while len(jobs[1]):
            jobs = self._round(*jobs)
        if len(self._waiting[0]):
            raise AssertionError(f"open ridge {tuple(self._waiting[0][0].tolist())} on finished hull")
        self.facets = np.concatenate([v for v, _ in self._final])
        self.inside_signs = np.concatenate([s for _, s in self._final])
        if np.count_nonzero(np.bincount(self.facets.ravel(), minlength=n)) < n:
            raise AssertionError("lifted point inside hull: duplicate input?")

    def _reserve(self, facets: int, conflicts: int):
        """Room for `facets` facets in the per-facet arrays and `conflicts`
        ranks in `_conflicts`, each doubled as needed."""
        for name in ("_inside", "_pivot", "_start", "_count", "_conflicts"):
            old, size = getattr(self, name), conflicts if name == "_conflicts" else facets
            if size > len(old):
                new = np.zeros(max(size, 2 * len(old)), dtype=np.int64)
                new[: len(old)] = old
                setattr(self, name, new)

    def _add(self, verts: np.ndarray, inside: np.ndarray, which: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """New facets with sorted vertex rows `verts` and inside signs
        `inside`; candidate i is the point of rank ranks[i] for facet
        which[i], by facet, then by rank.  Returns their ids."""
        space = self.space
        signs = _perturbed_signs(space, verts, which, self.order[ranks])
        beyond = signs == -inside[which]
        count = np.bincount(which[beyond], minlength=len(verts))
        conf = ranks[beyond]
        first = np.cumsum(count) - count
        ids = np.arange(self._made, self._made + len(verts))
        self._made += len(verts)
        self._reserve(self._made, self._used + len(conf))
        self._inside[ids] = inside
        self._pivot[ids] = np.where(count > 0, np.append(conf, 0)[first], len(self.order))
        self._start[ids] = self._used + first
        self._count[ids] = count
        self._conflicts[self._used : self._used + len(conf)] = conf
        self._used += len(conf)
        final = count == 0
        self._final.append((verts[final], inside[final]))
        return ids

    def _match(self, ids: np.ndarray, verts: np.ndarray, skip: np.ndarray):
        """Jobs for the ridges of the new facets `ids`, but for the one
        without vertex skip[i] of facet i: each meets the facet across it
        in the ridge map, or waits there for it.  One `np.lexsort` of the
        waiting and the new ridges puts the two facets of a ridge next to
        each other."""
        p = verts.shape[1]
        keep = verts.ravel() != np.repeat(skip, p)
        new = (faces(verts).reshape(-1, p - 1)[keep], np.repeat(ids, p)[keep], verts.ravel()[keep])
        ridges, facet, apex = (np.concatenate([x, y]) for x, y in zip(self._waiting, new))
        order = np.lexsort(ridges.T[::-1])
        ridges, facet, apex = ridges[order], facet[order], apex[order]
        pair = np.flatnonzero(np.all(ridges[1:] == ridges[:-1], axis=1))
        if np.any(np.diff(pair) == 1):
            raise AssertionError(f"ridge {tuple(ridges[pair[np.diff(pair) == 1][0]].tolist())} has three facets")
        alone = np.ones(len(ridges), dtype=bool)
        alone[pair] = alone[pair + 1] = False
        self._waiting = ridges[alone], facet[alone], apex[alone]
        return ridges[pair], facet[pair], facet[pair + 1], apex[pair], apex[pair + 1]

    def _round(self, ridges, a, b, wa, wb):
        """One round over the jobs (ridges[i], a[i], b[i]), wa[i] and
        wb[i] the vertices of facets a[i] and b[i] off the ridge (class
        docstring).  Returns the next round's jobs."""
        self.rounds += 1
        n = len(self.order)
        swap = self._pivot[b] < self._pivot[a]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        wa, wb = np.where(swap, wb, wa), np.where(swap, wa, wb)
        pivot = self._pivot[a]
        make = pivot < self._pivot[b]
        ridges, a, b, wa, wb, pivot = ridges[make], a[make], b[make], wa[make], wb[make], pivot[make]
        # Candidates: C(a) but its first entry, the pivot, and C(b), by
        # (job, rank) keys, each kept once.
        starts = np.concatenate([self._start[a] + 1, self._start[b]])
        counts = np.concatenate([self._count[a] - 1, self._count[b]])
        keys = np.repeat(np.tile(np.arange(len(a)), 2) * n, counts) + self._conflicts[_slices(starts, counts)]
        keys.sort()
        once = np.ones(len(keys), dtype=bool)
        once[1:] = keys[1:] != keys[:-1]
        keys = keys[once]
        if not len(a):
            return ridges, a, b, wa, wb
        pts = self.order[pivot]
        verts, j = _join(ridges, pts)
        i = np.count_nonzero(ridges < wa[:, None], axis=1)
        ids = self._add(verts, np.where((i + j) % 2, -self._inside[a], self._inside[a]), keys // n, keys % n)
        matched = self._match(ids, verts, pts)
        return tuple(np.concatenate([x, y]) for x, y in zip((ridges, ids, b, pts, wb), matched))


def _slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + counts[i] - 1 for each i,
    in order."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


# -- public triangulation ------------------------------------------------------


class Triangulation:
    """Delaunay triangulation of `cloud`, held as one `FaceTable` per
    dimension (`tables`), from the vertices up to the top simplices
    (`tops`).  `tops` is handed in as an (n, k + 1) int array of strictly
    increasing vertex rows, in any order; a row given twice raises
    AssertionError, where `face_tables` would drop it without a word."""

    def __init__(self, cloud: PointCloud, tops: np.ndarray):
        self.cloud = cloud
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


def _hull_space(cloud: PointCloud):
    """The rank of the cloud and its lifted space (`_HullSpace`): its
    pivot columns and |x|^2, in one pass over the cloud.

    Column c of the cloud is exactly ints / 2**shift[c] (`exact_ints`), so
    all exact work is in integers; the lift is the sum of squares over the
    common denominator 4**top, top the largest shift.  The pivot columns
    (`_pivot_columns`) are all columns of a full-rank cloud; a flat one's
    affine hull projects onto them one to one, and on it |x|^2 differs
    from the induced squared length by an affine function, so the lower
    facets are the same.  The integer rows are positive column multiples
    of the rational ones, which changes no predicate sign.  The float rows
    are the cloud's own floats in the pivot columns, which are those
    rationals exactly (+ 0.0 makes -0.0 the 0.0 of the integer 0), and
    the correctly rounded lifts h / 4**top.  The exact-range flag
    (`_exact_range`) follows from the shifts and the integer rows.  Raises
    InputError when a lifted coordinate (a squared length) does not fit in
    a float.
    """
    cols, shifts = zip(*(exact_ints(col) for col in cloud.coords.T.tolist()))
    pts = list(zip(*cols))
    top = max(shifts)
    # Weight of column c in a squared length over the denominator 4**top.
    weights = [1 << 2 * (top - k) for k in shifts]
    pivots = _pivot_columns(pts)
    lifts = [sum(w * x * x for w, x in zip(weights, p)) for p in pts]
    int_rows = [tuple(p[c] for c in pivots) + (h, 1) for p, h in zip(pts, lifts)]
    rows = np.empty((len(pts), len(pivots) + 1))
    rows[:, :-1] = cloud.coords[:, pivots] + 0.0
    lift_den = 1 << 2 * top
    try:
        rows[:, -1] = [h / lift_den for h in lifts]
    except OverflowError:
        raise InputError("squared coordinates exceed the float range (1.8e308)") from None
    return len(pivots), _HullSpace(rows, int_rows, np.full(len(pts), _exact_range(int_rows, top)))


def delaunay(cloud: PointCloud, *more: PointCloud) -> Triangulation | tuple[Triangulation, ...]:
    """Delaunay triangulation of each point cloud (affine rank <= 5): a
    `Triangulation` for one cloud, a tuple of them for several.

    The clouds whose lifted hulls live in one R^P share one `_Hull`
    (`_HullSpace.joint`), whose rounds serve all of them at once, and one
    batch of vertical tests; a cloud of rank + 1 points is one simplex.
    Deterministic for a fixed input ordering.  Each cloud's insertion
    order is drawn from the fixed seed `_HULL_SEED`; the output does not
    depend on it (`_Hull` makes the facets of the sequential algorithm for
    that order).
    """
    clouds = (cloud, *more)
    for cloud in clouds:
        if len(cloud) == 0:
            raise InputError("cannot triangulate an empty cloud")
        if cloud.dimension + 1 > DIM_CAP:
            raise InputError(f"dimension {cloud.dimension} exceeds triangulation cap {DIM_CAP - 1}")
    spaces = [_hull_space(cloud) for cloud in clouds]
    tops = [np.arange(len(cloud))[None] for cloud in clouds]
    groups: dict[int, list[int]] = {}  # P: the clouds of more than rank + 1 points
    for i, (rank, space) in enumerate(spaces):
        if len(clouds[i]) > rank + 1:
            groups.setdefault(space.P, []).append(i)
    for group in groups.values():
        space = _HullSpace.joint([spaces[i][1] for i in group])
        order = []
        for lo, i in zip(space.starts, group):
            tail = list(range(lo + space.P + 1, lo + len(clouds[i])))
            random.Random(_HULL_SEED).shuffle(tail)
            order += list(range(lo, lo + space.P + 1)) + tail
        hull = _Hull(space, order)
        down = _vertical_signs(space, hull.facets)
        lower = hull.facets[(down != 0) & (down == -hull.inside_signs)]
        cloud_of = np.searchsorted(space.starts, lower[:, 0], side="right") - 1
        for c, (lo, i) in enumerate(zip(space.starts, group)):
            tops[i] = lower[cloud_of == c] - lo
            if not len(tops[i]):
                raise AssertionError("hull produced no lower facets")
    tris = tuple(Triangulation(c, t) for c, t in zip(clouds, tops))
    return tris[0] if len(tris) == 1 else tris


# -- del(Z) of a lifted pair ---------------------------------------------------


# Queries per kernel call of a batch that grows with the cloud (`_Wrap.beyond`,
# the jump of `_Wrap.seed`, the minors of `_resolve` in eighths): bounds
# their arrays on large clouds.
_BATCH = 1 << 12


def _first_max(keys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The index of the first largest key of each segment
    keys[starts[i] : starts[i + 1]], the last segment ending at the end; a
    NaN key counts as -inf, so it is chosen only from a segment of NaN and
    -inf keys."""
    keys = np.where(np.isnan(keys), -np.inf, keys)
    top = np.maximum.reduceat(keys, starts)
    seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(keys))))
    hit = np.flatnonzero(keys == top[seg])
    first = np.ones(len(hit), dtype=bool)
    first[1:] = seg[hit[1:]] != seg[hit[:-1]]
    return hit[first]


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, out): the dst of each pair with src v are out[ptr[v] : ptr[v + 1]],
    in increasing order, for each v < n."""
    order = np.lexsort([dst, src])
    return np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]), dst[order]


class _Wrap:
    """Gift-wrap of del(Z) (`pair_delaunay`) over `space`, Z's lifted
    coordinates: the seeds (`seed`), then one breadth-first level at a
    time across the mixed ridges (`step`).  A vertex below n1 is in X1.
    A seed is a top T of a cloud that spans its slab of Z, joined to its
    partner b in the other cloud: b is the partner iff no neighbour of b
    in that cloud's triangulation lies below the lifted hyperplane of
    T + b (`seed` proves it), so a walk over that triangulation finds it.
    `check` checks the del(Z) of every path of `pair_delaunay`.

    orient(ridge, q) is the unperturbed orientation of a ridge and a query
    in projection (rows without the lift), exact: 0 when q lies on the
    ridge's hyperplane.  For verts = sorted(ridge + (q,)), q at position j,
    infdown_sign(verts) = (-1)^(P-1-j) orient(ridge, q), the sign of a
    point below the lifted hyperplane of verts; so every top's vertical
    sign follows from the ridge it was wrapped across.

    Every float test runs in a few calls of one kernel, `_orient_batch`,
    whose signs are the scalar filter's.  What it cannot certify, the far
    side takes from the exact value in the exact range or from the integer
    cofactors of the ridge (`orient`), and the wrap and the seeds from the
    batched perturbed orientation (`_perturbed_signs`, `_resolve`)."""

    def __init__(self, space: _HullSpace, n1: int):
        self.space = space
        self.n1 = n1
        self.cofactors: dict[tuple[int, ...], list[int]] = {}  # a ridge's integer cofactors
        self.rounds = 0  # refinement rounds: moves of the seeds' walk and updates of refuted guesses (`step`)

    def orient(self, ridges: np.ndarray, which: np.ndarray, queries: np.ndarray):
        """orient(ridges[w], q) for each (w, q) in zip(which, queries), and
        its float value; `ridges` is an int array of sorted vertex rows.
        The batch filter decides what it certifies.  In the exact range
        (`_HullSpace`; each entry reads its query's flag) the float value
        of each other sign is exact; otherwise each other sign is the
        integer dot product of q's row with the ridge's exact cofactors,
        computed once per ridge: the sign of the determinant that
        `infdown_sign` would decide by Bareiss."""
        space = self.space
        signs, values = _orient_batch(space.prows, space.psizes, ridges, which, queries)
        unsure = np.flatnonzero(signs == 0)
        exact = space.exact[queries[unsure]]
        signs[unsure[exact]] = np.sign(values[unsure[exact]])
        pints = space.pints
        for i in unsure[~exact].tolist():
            ridge = tuple(ridges[which[i]].tolist())
            cof = self.cofactors.get(ridge)
            if cof is None:
                cof = self.cofactors[ridge] = exact_cofactors([pints[v] for v in ridge])
            d = sum(a * c for a, c in zip(pints[queries[i]], cof))
            signs[i] = (d > 0) - (d < 0)
        return signs, values

    def beyond(self, ridges: np.ndarray, fars: np.ndarray) -> np.ndarray:
        """For each ridge, the first vertex q of Z with orient(ridge, q) =
        its far sign, or -1 where there is none.  A ridge of one top must
        lie on the boundary of conv(Z), so a vertex beyond it means a hole
        in del(Z) (`check`)."""
        n = len(self.space.rows)
        out = np.full(len(ridges), -1)
        step = max(1, _BATCH // n)
        for lo in range(0, len(ridges), step):
            chunk = ridges[lo : lo + step]
            keep = np.ones((len(chunk), n), dtype=bool)
            keep[np.arange(len(chunk))[:, None], chunk] = False
            which, queries = np.nonzero(keep)  # by ridge, then by vertex
            signs, _ = self.orient(chunk, which, queries)
            hit = signs == fars[lo : lo + step][which]
            found, first = np.unique(which[hit], return_index=True)
            out[lo + found] = queries[hit][first]
        return out

    def check(self, tri: Triangulation):
        """The ridge checks of del(Z) that `pair_delaunay` lists, in that
        order: AssertionError at the first that fails.  Face i of a top T
        drops vertex i, and orient(face, T[i]) is (-1)^(P-1-i) times T's
        vertical sign (class docstring), so one `_vertical_signs` entry
        per top gives the side of every face."""
        space, n1, p = self.space, self.n1, self.space.P
        n = len(space.rows)
        ridges, facets = tri.tables[-2].simplices, tri.tables[-1].facets.ravel()
        count = np.bincount(facets, minlength=len(ridges))
        bad = np.flatnonzero(count > 2)
        if len(bad):
            raise AssertionError(f"ridge {tuple(ridges[bad[0]].tolist())} of del(Z) has {count[bad[0]]} tops")
        covered = np.zeros(n, dtype=bool)
        covered[tri.tables[0].simplices] = True
        if not covered.all():
            raise AssertionError(f"vertex {covered.argmin()} of Z is in no top of del(Z)")
        down = _vertical_signs(space, tri.tops)
        bad = np.flatnonzero(down == 0)
        if len(bad):
            raise AssertionError(f"top {tuple(tri.tops[bad[0]].tolist())} of del(Z) is vertical")
        sides = np.where((p - 1 - np.arange(p)) % 2 == 0, down[:, None], -down[:, None])  # orient(face i, vertex i)
        total = np.bincount(facets, weights=sides.ravel(), minlength=len(ridges)).astype(np.int64)
        bad = np.flatnonzero((count == 2) & (total != 0))
        if len(bad):
            raise AssertionError(f"the tops of ridge {tuple(ridges[bad[0]].tolist())} of del(Z) lie on one side of it")
        scan = count == 1
        if 0 < n1 < n:
            scan &= (ridges[:, 0] < n1) & (ridges[:, -1] >= n1)
        single = np.flatnonzero(scan)
        beyond = self.beyond(ridges[single], -total[single])
        bad = np.flatnonzero(beyond >= 0)
        if len(bad):
            raise AssertionError(f"vertex {beyond[bad[0]]} of Z lies beyond the boundary ridge {tuple(ridges[single[bad[0]]].tolist())} of del(Z)")

    def seed(self, ridges: np.ndarray, ptr: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partner b of each top T of a cloud that spans its slab of Z,
        given as the sorted vertex rows `ridges`: T + b is the one top of
        del(Z) on the ridge T, b in the other cloud.  `ptr` and `nbr` hold
        the neighbours of each vertex in del(X1) and del(X2) (`_csr`).
        Returns b and below(T + b), the infdown sign of sorted(T + b).

        Every vertex q of the other cloud lies on the far side of T, at
        one orient(T, q) (the other height), so the lifted hyperplanes
        T + q form one pencil, and the lifted value of (sorted(T + f), q)
        times below(T + f) orders it for a fixed f, the other cloud's first
        vertex: the larger, the lower T + q.  That value is a dot product
        of q's row with the cofactors of T + f, in float.  Guess: jump to
        the best of a fixed sample of ceil(sqrt(n)) vertices of the other
        cloud, then walk greedily over its triangulation's edges to a
        vertex whose neighbours all have smaller values (Mucke, Saias &
        Zhu, "Fast randomized point location without preprocessing", SoCG
        1996).  Confirm: while a neighbour of b lies below the hyperplane
        of T + b by the perturbed orientation, b moves to the one among
        them of the largest kernel value against T + b, in batch rounds
        (`rounds` counts them).  Each move is strictly lower in the pencil,
        so this ends, and where it ends, b is T's partner:
          (i) no vertex of T's cloud lies below T + b: in its slab that
              hyperplane is T's lifted one, and T is a Delaunay top of
              its cloud under the heights-first rule;
          (ii) Z's lifted points are in general position under the
              perturbation and their lower hull is convex, so if a point
              lies below a hyperplane through a vertex b of it, so does a
              neighbour of b on it, a neighbour in del(Z);
          (iii) an edge of del(Z) inside one cloud is an edge of that
              cloud's triangulation (`relative_lift._check_slabs`).
        So no vertex of Z lies below T + b when no neighbour of b in the
        other cloud's triangulation does."""
        space, p, n1 = self.space, self.space.P, self.n1
        m, n = len(ridges), len(space.rows)
        in_x1 = ridges[:, 0] < n1
        lo, size = np.where(in_x1, n1, 0), np.where(in_x1, n - n1, n1)
        fars, _ = self.orient(ridges, np.arange(m), lo)
        # b is last in sorted(T + b) when T is in X1, first otherwise.
        below = np.where(in_x1 | ((p - 1) % 2 == 0), fars, -fars)
        pts = space.rows[_join(ridges, lo)[0]]
        base = pts[:, 0]
        with np.errstate(all="ignore"):  # a float guess: overflow only spoils it
            cof = batch_cofactors(pts[:, 1:] - base[:, None]) * (below * (-1) ** p)[:, None]

            def values(which, queries):
                x = space.rows[queries] - base[which]
                out = np.zeros(len(queries))
                for j in range(p):
                    out = out + x[:, j] * cof[which, j]
                return out

            k = np.ceil(np.sqrt(size)).astype(np.int64)
            b = np.empty(m, dtype=np.int64)
            step = max(1, _BATCH // int(k.max()))
            for at in range(0, m, step):
                kc = k[at : at + step]
                which = at + np.repeat(np.arange(len(kc)), kc)
                queries = lo[which] + _slices(np.zeros(len(kc), dtype=np.int64), kc) * size[which] // k[which]
                b[at : at + len(kc)] = queries[_first_max(values(which, queries), np.cumsum(kc) - kc)]
            active = np.arange(m)
            while len(active):  # b first in its segment: it stays on a tie
                v = b[active]
                counts = ptr[v + 1] - ptr[v] + 1
                starts = np.cumsum(counts) - counts
                which = np.repeat(np.arange(len(active)), counts)
                rest = np.ones(len(which), dtype=bool)
                rest[starts] = False
                queries = np.empty(len(which), dtype=np.int64)
                queries[starts] = v
                queries[rest] = nbr[_slices(ptr[v], counts - 1)]
                queries = queries[_first_max(values(active[which], queries), starts)]
                moved = queries != v
                active = active[moved]
                b[active] = queries[moved]
        active = np.arange(m)
        while len(active):
            v = b[active]
            counts = ptr[v + 1] - ptr[v]
            which = np.repeat(np.arange(len(active)), counts)
            queries = nbr[_slices(ptr[v], counts)]
            verts, _ = _join(ridges[active], v)
            signs, lifted = _orient_batch(space.rows, space.sizes, verts, which, queries)
            side = below[active][which]
            lower = _resolve(space, verts, which, queries, signs, lifted) == side
            which, queries, keys = which[lower], queries[lower], (lifted * side)[lower]
            if not len(which):
                break
            starts = np.flatnonzero(np.diff(which, prepend=-1))
            active = active[which[starts]]
            b[active] = queries[_first_max(keys, starts)]
            self.rounds += 1
        return b, below

    def candidates(self, ridges: np.ndarray, apexes: np.ndarray, ptr: np.ndarray, nbr: np.ndarray, edges: np.ndarray):
        """(which, queries), by job, then by vertex: for each mixed ridge
        w, the vertices but apexes[w] adjacent to every vertex of one part
        of ridges[w], its X1 part in del(X1) or its X2 part in del(X2): a
        superset of the part's link (`pair_delaunay`).  A part's are the
        neighbours of its first vertex, nbr[ptr[v] : ptr[v + 1]] in
        increasing order (`_csr`), whose keys u * n + v with its other
        vertices are in `edges`, the sorted keys of the edges; no vertex
        makes one with itself.  X1's come first, below n1."""
        m, n, n1 = len(ridges), len(self.space.rows), self.n1
        anchors = np.stack([ridges[:, 0], ridges[np.arange(m), np.count_nonzero(ridges < n1, axis=1)]], axis=1).ravel()
        counts = ptr[anchors + 1] - ptr[anchors]
        which = np.repeat(np.arange(m), counts[0::2] + counts[1::2])
        q = nbr[_slices(ptr[anchors], counts)]
        rows = ridges[which]
        e, c = np.nonzero(((rows < n1) == (q < n1)[:, None]) & (rows != np.repeat(anchors, counts)[:, None]))
        keys = rows[e, c] * n + q[e]
        ok = q != apexes[which]
        ok[e[edges[np.minimum(np.searchsorted(edges, keys), len(edges) - 1)] != keys]] = False
        return which[ok], q[ok]

    def step(self, ridges: np.ndarray, fars: np.ndarray, which: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """One level of the wrap.  Job w is the ridge ridges[w] and
        fars[w] = orient(ridge, b) for the vertex b of the top across it;
        its candidates are the queries q of the entries (w, q), sorted by
        job.  Returns, per job, b, or -1 when no candidate lies on the far
        side: the ridge then keeps one top, and `check` scans it.

        Far side: orient(ridge, q) of every candidate, in one batch.
        Pencil guess: the far candidates q of a ridge R turn around it in
        one half-space, so with f the first of them, the lifted value of
        (sorted(R + f), q) over the far-side value of q orders the lifted
        hyperplanes R + q: the extreme towards below(R + f) * far is the
        lowest one, the guess b, the first of the largest keys
        (`_first_max`).  Confirm: b is the top's vertex iff no other far
        candidate lies below the hyperplane of R + b, by one batch of
        `_perturbed_signs`.  Where one does, the first of them becomes b,
        and the next batch tests the others below the old b against R + b:
        the sequential wrap's rule, one round for all refuted ridges of the
        level (`rounds` counts these).  The far candidates turn around R in
        one half-space, so a vertex that is not below the hyperplane of
        R + c is not below that of any c' below it either."""
        signs, values = self.orient(ridges, which, queries)
        far = signs == fars[which]
        which, queries, values = which[far], queries[far], values[far]
        b = np.full(len(ridges), -1)
        lo = np.flatnonzero(np.diff(which, prepend=-1))
        found = which[lo]
        b[found] = queries[lo]
        many = np.diff(np.append(lo, len(which))) > 1
        multi = found[many]
        if len(multi):
            slot = np.full(len(ridges), -1)  # a ridge's row in `multi`
            slot[multi] = np.arange(len(multi))

            def facets():
                """sorted(R + b) for each ridge R of `multi` and its b,
                and below(R + b), the sign of a vertex below its
                hyperplane (class docstring)."""
                verts, j = _join(ridges[multi], b[multi])
                return verts, np.where((ridges.shape[1] - j) % 2 == 0, fars[multi], -fars[multi])

            pencil, below = facets()
            rest = np.ones(len(which), dtype=bool)  # a ridge's far candidates after f
            rest[lo] = False
            w = slot[which[rest]]
            _, lifted = _orient_batch(self.space.rows, self.space.sizes, pencil, w, queries[rest])
            keys = np.zeros(len(which))
            with np.errstate(all="ignore"):
                ratio = lifted / values[rest]
            keys[rest] = np.where(below[w] == fars[which[rest]], ratio, -ratio)
            b[found] = queries[_first_max(keys, lo)]
            # Confirm, and refine where the guess is refuted as the
            # sequential wrap from b would: b <- the first candidate below
            # R + b, the others below it stay, until none is below.
            other = queries != b[which]
            w, cand = slot[which[other]], queries[other]
            while len(w):
                verts, below = facets()
                hit = _perturbed_signs(self.space, verts, w, cand) == below[w]
                w, cand = w[hit], cand[hit]
                first = np.ones(len(w), dtype=bool)
                first[1:] = w[1:] != w[:-1]
                b[multi[w[first]]] = cand[first]
                w, cand = w[~first], cand[~first]
                self.rounds += bool(first.any())
        return b

    def run(self, tops1: np.ndarray, tops2: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Tops of del(Z), from the tops of del(X1) and del(X2) and the
        edges of both, in Z's indices, whose graph the seeds walk and the
        candidates come from (`candidates`); at least one cloud spans its
        slab of Z (its tops have P - 1 vertices).  Level 0 is the seeds, the
        tops of the spanning clouds joined to their partners (`seed`).
        Each level records the ridges of its new tops, and the mixed ridges
        that then have one top make the next level's jobs (`step`); a
        slab ridge lies on the boundary of conv(Z).  A ridge with two or
        more tops is no job, so the wrap ends on any input; `check`
        reports a third top and a mixed ridge left with one."""
        p, n1, n = self.space.P, self.n1, len(self.space.rows)
        ptr, nbr = _csr(n, np.concatenate([edges[:, 0], edges[:, 1]]), np.concatenate([edges[:, 1], edges[:, 0]]))
        keys = np.repeat(np.arange(n), np.diff(ptr)) * n + nbr  # the edges u * n + v, sorted
        ridges = np.concatenate([t for t in (tops1, tops2) if t.shape[1] == p - 1])
        b, downs = self.seed(ridges, ptr, nbr)
        new, _ = _join(ridges, b)
        seen = np.zeros((0, p - 1), dtype=np.int64)  # every ridge of a top found so far
        count = np.zeros(0, dtype=np.int64)  # and its number of tops
        found = []
        while len(new):
            new, inverse = unique_rows(new)  # a top found across two ridges
            down = np.empty(len(new), dtype=np.int64)
            down[inverse] = downs
            found.append(new)
            facets = faces(new).reshape(-1, p - 1)  # by top, then by dropped vertex
            old = len(seen)
            seen, where = unique_rows(np.concatenate([seen, facets]))
            count = np.bincount(where, weights=np.append(count, np.ones(len(facets))), minlength=len(seen)).astype(np.int64)
            jobs = np.flatnonzero((count[where[old:]] == 1) & (facets[:, 0] < n1) & (facets[:, -1] >= n1))
            if not len(jobs):
                break
            ridges, i = facets[jobs], jobs % p
            d = down[jobs // p]
            fars = np.where((p - 1 - i) % 2 == 0, -d, d)  # -orient(ridge, apex)
            which, queries = self.candidates(ridges, new.ravel()[jobs], ptr, nbr, keys)
            b = self.step(ridges, fars, which, queries)
            hit = b >= 0
            new, j = _join(ridges[hit], b[hit])
            downs = np.where((p - 1 - j) % 2 == 0, fars[hit], -fars[hit])
        return np.concatenate(found)


def pair_delaunay(z: PointCloud, tri1: Triangulation | None, tri2: Triangulation | None) -> Triangulation:
    """del(Z) of a lifted pair, from tri1 = del(X1) and tri2 = del(X2)
    (None for an empty cloud): z[i] is X1's i-th point at height +s for
    i < n1 = |X1|, X2's (i - n1)-th at height -s otherwise
    (`relative_lift.lift`).  The tops equal `delaunay(z)`'s.

    With one cloud empty, Z is the other at one height, and del(Z) has
    its tops.  Otherwise `sos_sign`'s heights-first rule makes del(Z) restrict to
    del(X1) and del(X2) (Cayley trick, Huber, Rambau & Santos, JEMS
    2000): every top of del(Z) is a join t1 * t2 of a face t1 of
    del(X1) and a face t2 of del(X2).  So the top across a mixed ridge R
    (vertices in both clouds) of a top T = R + a is R + b, b in the link
    of R & X1 in del(X1) or of R & X2 in del(X2).  The candidates are a
    superset, the common neighbours of R_i = R & X_i in del(X_i) for each
    i (`_Wrap.candidates`): R_i + b being a face makes b adjacent to all
    of R_i.  No vertex of Z lies below the true top R + b, so the wrap
    picks the same b from either.  A slab ridge, in one cloud, lies on
    the boundary of conv(Z) and has no other top.

    Seeds.  Write rho = rank(Z).  When a cloud has rank rho - 1, each of
    its tops T spans its slab of Z and is a ridge of del(Z) with exactly
    one top, T + b for a vertex b of the other cloud, T's partner: the
    other cloud lies strictly on one side of the slab.  Every such top
    of both clouds is a seed, and `_Wrap.seed` finds all partners in one
    batched walk over the other cloud's triangulation: a jump to the best
    of a fixed sample, greedy moves to lower hyperplanes T + b, and the
    lemma that b is the partner when no neighbour of b in that
    triangulation lies below T + b.  Otherwise neither cloud's affine
    hull is parallel to the other's (two crossing lines in R^2, skew lines
    or two planes in R^3), and `delaunay(z)` triangulates Z.

    Far side.  The top across R lies in projection (Z's coordinates
    without the lift) on the other side of R's hyperplane than a, and is
    not vertical, so b lies strictly there.  A candidate on R's
    hyperplane would make a vertical facet, which `delaunay` drops; so
    the test is unperturbed (`_Wrap.orient`), and R lies on the boundary
    of conv(Z) when no candidate is strictly beyond it: it keeps one top.

    Wrap.  Among the far candidates, b is the one whose lifted hyperplane
    with R has no other candidate below it, by the perturbed orientation
    the lifted hull decides with (`_perturbed_signs`): that is the lower
    hull facet across R, as each of those candidates would be below it,
    and it is unique under the perturbation.  The seeds are level 0, and
    each later level wraps, in a few batches (`_Wrap.step`), every mixed
    ridge that has one top once the tops of the level before are
    recorded; a top found across two ridges of a level is kept once.

    Checks.  Each path builds its `Triangulation`, and `_Wrap.check`
    checks it: at most two tops per ridge; every vertex of Z in a top; no
    vertical top, and the two tops of a ridge on opposite sides of it; no
    vertex of Z beyond a ridge of one top (`_Wrap.beyond`), but for a
    slab ridge while both clouds are nonempty: it spans the plane at
    height +s or -s in Z's affine hull, which supports conv(Z).
    `relative_lift.build_pipeline` then checks that del(Z) has Euler
    characteristic 1 and that its slabs are the lifted del(X1) and
    del(X2) (`_check_euler`, `_check_slabs`).  Each raises AssertionError:
    a broken del(X1) or del(X2) fails a ridge check, or its edges still
    give the true del(Z), whose slabs `_check_slabs` finds unequal to it.
    """
    if z.dimension + 1 > DIM_CAP:
        raise InputError(f"dimension {z.dimension} exceeds triangulation cap {DIM_CAP - 1}")
    rank, space = _hull_space(z)
    n1 = len(tri1.cloud) if tri1 is not None else 0
    wrap = _Wrap(space, n1)
    if tri1 is None or tri2 is None:
        tri = Triangulation(z, (tri1 or tri2).tops)
    else:
        if not len(tri1.tops) or not len(tri2.tops):
            raise AssertionError(f"del(X{1 if not len(tri1.tops) else 2}) has no top")
        if rank - 1 in (tri1.top_dim, tri2.top_dim):
            edges = [t.tables[1].simplices + lo for t, lo in ((tri1, 0), (tri2, n1)) if t.top_dim]
            tri = Triangulation(z, wrap.run(tri1.tops, tri2.tops + n1, np.concatenate(edges + [np.zeros((0, 2), dtype=np.int64)])))
        else:
            tri = delaunay(z)
    if rank:  # a single vertex has no ridge
        wrap.check(tri)
    return tri
