"""Relative Delaunay-Cech complex of a pair (X1 union X2, X1).

The two clouds are embedded in one dimension higher at heights +s and -s,
the lifted set Z is Delaunay-triangulated, cells whose vertices all sit at
height +s form the subcomplex, and every other cell is filtered by the
smallest enclosing ball of its projected (height-dropped) vertices.  The
resulting filtered complex has size linear in the Delaunay triangulation of
the lifted set instead of exponential in |X|.

del(Z) is built from del(X1) and del(X2), each cloud triangulated once
(`delaunay.pair_delaunay`).  With ties broken by the lift heights first,
every top of del(Z) is the join of a face of del(X1) and a face of del(X2)
(Cayley trick, Huber, Rambau & Santos): so the top across a ridge with
vertices at both heights takes its new vertex from the links of the
ridge's two parts in del(X1) and del(X2).  Of those candidates, the ones
strictly beyond the ridge in projection are wrapped with the lifted hull's
perturbed orientation test, which gives the lifted hull's tops; the wrap
starts from a top of a cloud that spans its slab of Z, joined to the
other cloud's vertex nearest its circumcenter.

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

The complex does not depend on s > 0, so s is no parameter: `choose_s`
derives it from the bounding box of the input (see there why any s gives
the same triangulation).  Filtration values depend only on the projected
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delaunay import Triangulation, delaunay, face_tuples, pair_delaunay
from .filtered_complex import Cell, FilteredComplex, build
from .geometry import (
    InputError,
    Point,
    PointCloud,
    circumball,
    circumball_weights,
    in_ball,
    smallest_enclosing_ball,
)


@dataclass(frozen=True)
class LiftedConfiguration:
    """The lifted point set Z of the pair (X1, X2).

    z[i] is x1[i] at height +s for i < len(x1), and x2[i - len(x1)] at
    height -s otherwise.  So a simplex of del(Z) lies in the lifted del(X1)
    iff its largest vertex is below len(x1).
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
    columns = zip(*(p.coords for p in x1), *(p.coords for p in x2))
    extent = max((max(c) - min(c) for c in columns), default=0.0)
    return extent if extent > 0 else 1.0


def lift(x1: PointCloud, x2: PointCloud, s: float) -> LiftedConfiguration:
    """Embed x1 at height +s and x2 at height -s; x1 vertices come first."""
    if s <= 0:
        raise InputError("lift height must be positive")
    if len(x1) and len(x2) and x1.dimension != x2.dimension:
        raise InputError("x1 and x2 must share a dimension")
    d = x1.dimension if len(x1) else x2.dimension
    zpts = [Point(p.coords + (s,)) for p in x1] + [Point(p.coords + (-s,)) for p in x2]
    return LiftedConfiguration(x1, x2, float(s), PointCloud(zpts, dimension=d + 1))


# Least barycentric weight of a cell's circumcenter for its circumball to be
# taken as its MEB.  The weights of a cell that is not nearly flat carry a
# rounding error many orders of magnitude below 1e-6, so a larger weight is
# positive in fact.  A center closer than that to a face is left to Welzl:
# there a support vertex is nearly redundant, and Welzl's tolerant
# containment test (`geometry.MEB_TOL`) may settle on a smaller support,
# whose ball is the value the filtration must carry.
_INTERIOR = 1e-6


def _face_ball(proj, vs: tuple[int, ...], balls) -> tuple[tuple[float, ...], float]:
    """(center, radius) of the MEB of the projected vertices vs (two or
    more), from the balls of its facets or its own circumball
    (`build_pipeline`); `balls` holds every facet's."""
    if len(vs) == 2:
        return circumball(sorted([proj[vs[0]], proj[vs[1]]]))
    best = None
    for i, v in enumerate(vs):
        ball = balls[vs[:i] + vs[i + 1 :]]
        if best is None or ball[1] > best[1]:
            best, opposite = ball, proj[v]
    if in_ball(best[0], best[1], opposite):
        return best
    pts = [proj[v] for v in vs]
    if len(vs) <= len(opposite) + 1:  # else the vertices are affinely dependent
        center, r, weights = circumball_weights(sorted(pts))
        if weights is not None and min(weights) > _INTERIOR:
            return center, r
    ball = smallest_enclosing_ball(pts)
    return ball.center.coords, ball.radius


def _slab_mismatch(cells, lifted: set[tuple[int, ...]], lo: int, hi: int) -> list[tuple[int, ...]]:
    """The simplices, lowest dimension first, in exactly one of `lifted`
    and the `cells` of del(Z) with all vertices in range(lo, hi): with
    (0, n1) the all-plus cells against the lifted del(X1), with (n1, n)
    the all-minus ones against the lifted del(X2)."""
    in_slab = {vs for vs in cells if lo <= vs[0] and vs[-1] < hi}
    return sorted(in_slab.symmetric_difference(lifted), key=lambda vs: (len(vs), vs))


def _lifted(tri: Triangulation, offset: int) -> set[tuple[int, ...]]:
    """The simplices of a cloud's triangulation in Z's vertex indices."""
    return {tuple(v + offset for v in simp.vertices) for simp in tri.simplices()}


def _check_slabs(cells, tri1: Triangulation | None, tri2: Triangulation | None, n1: int, n: int):
    """AssertionError unless the all-plus cells of del(Z) are exactly the
    lifted del(X1) and the all-minus cells the lifted del(X2)."""
    for tri, lo, hi, name, sign in ((tri1, 0, n1, "X1", "plus"), (tri2, n1, n, "X2", "minus")):
        if tri is None:
            continue
        mismatch = _slab_mismatch(cells, _lifted(tri, lo), lo, hi)
        missing = [vs for vs in mismatch if vs not in cells]
        if missing:
            raise AssertionError(f"lifted del({name}) simplex {missing[0]} missing from del(Z)")
        if mismatch:
            raise AssertionError(f"all-{sign} simplex {mismatch[0]} of del(Z) is not in del({name})")


@dataclass
class Pipeline:
    """All intermediate artifacts of one relative Delaunay-Cech run;
    `triangulation` is del(Z)."""

    cfg: LiftedConfiguration
    triangulation: Triangulation
    complex: FilteredComplex


def build_pipeline(x1: PointCloud, x2: PointCloud) -> Pipeline:
    """Lift, triangulate and filter.

    del(X1) and del(X2) are triangulated once each, and del(Z) is wrapped
    from them (`delaunay.pair_delaunay`): a candidate for the top across a
    ridge with vertices in both clouds is a vertex of the link of the
    ridge's X1 part in del(X1) or of its X2 part in del(X2).  Only the
    candidates strictly beyond the ridge in projection can make a top that
    is not vertical, and among them the wrap keeps the one whose lifted
    hyperplane with the ridge has no other candidate below it, by the
    lifted hull's perturbed test; the start is a top of a cloud that spans
    its slab of Z and the other cloud's vertex nearest its circumcenter,
    guessed in float and confirmed by the wrap.  A broken del(X1) or
    del(X2) raises AssertionError there (a third top on a ridge, a vertex
    beyond a boundary ridge, or a vertex in no top).  With one cloud
    empty, del(Z) is the other's triangulation, checked the same way.
    Then the all-plus cells of del(Z) must be exactly the lifted del(X1)
    and the all-minus cells the lifted del(X2) (`_check_slabs`), else
    AssertionError.

    A cell outside the subcomplex is filtered by the smallest enclosing
    ball (MEB) of its projected vertices, taken from its faces or from its
    own circumball.  A vertex's radius is 0 and an edge's MEB is the
    circumball of its sorted pair, the ball Welzl would return.  A larger
    cell sigma takes the largest ball among its facets when that ball
    contains the vertex of sigma opposite the facet (Welzl's containment
    test); otherwise sigma's own circumball, `circumball` of its sorted
    vertices, when every barycentric weight of its center exceeds
    `_INTERIOR`; only otherwise does Welzl run on sigma.  This is exact.
    The MEB is unique and is the circumball of a support S of sigma whose
    center lies in conv(S).  If S is a proper subset, a facet F containing
    S has MEB(F) = MEB(sigma), which contains sigma and is the largest of
    the facets' MEBs, since MEB(sigma) encloses every facet.  Otherwise S
    is sigma and the center lies inside sigma.  In both cases the ball is
    bit-identical to Welzl's, which `smallest_enclosing_ball` recomputes as
    `circumball` of the sorted support.  Subcomplex cells get balls too, so
    that the rule sees every facet, but keep the value 0.  Each value is
    then raised to its faces' values (the monotone guard).
    """
    if len(x1) and x1.dimension > 3 or len(x2) and x2.dimension > 3:
        raise InputError("ambient dimension must be at most 3")
    if len(x1) + len(x2) == 0:
        raise InputError("x1 and x2 are both empty")
    tri1 = delaunay(x1) if len(x1) else None
    tri2 = delaunay(x2) if len(x2) else None
    cfg = lift(x1, x2, choose_s(x1, x2))
    tri = pair_delaunay(cfg.z, tri1, tri2)
    n1 = len(x1)
    proj = [p.coords[:-1] for p in cfg.z]
    values: dict[tuple[int, ...], float] = {}
    balls: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {}
    cells = []
    # tri.simplices() yields faces before cofaces, so every face value and
    # ball is known when its coface is filtered.
    for simp in tri.simplices():
        vs = simp.vertices
        sub = vs[-1] < n1
        value = 0.0
        if len(vs) > 1:
            ball = balls[vs] = _face_ball(proj, vs, balls)
            if not sub:
                # Same geometry as the faces, but guard against sub-ulp float noise.
                value = max(ball[1], max(values[f] for f in face_tuples(vs)))
        values[vs] = value
        cells.append(Cell(simp, value, sub))
    _check_slabs(values, tri1, tri2, n1, len(cfg.z))
    return Pipeline(cfg, tri, build(cells))


def relative_delcech(x1: PointCloud, x2: PointCloud) -> FilteredComplex:
    """The filtered complex whose relative persistence (quotient by the
    marked subcomplex) is the relative persistent homology of the pair."""
    return build_pipeline(x1, x2).complex


# -- embedding certification ----------------------------------------------------


@dataclass
class EmbeddingReport:
    """Outcome of the three structural checks on a lifted triangulation.

    `build_pipeline` enforces all three against its own del(X1) and
    del(X2) (`_check_slabs`); this report triangulates both clouds again.
    With `sos_sign`'s heights-first rule all three hold on degenerate
    grids too (Cayley trick), so a failure means a broken del(Z).
    """

    x1_embedded: bool
    x2_embedded: bool
    plus_matches: bool
    missing_x1: list[tuple[int, ...]]
    missing_x2: list[tuple[int, ...]]
    plus_mismatch: list[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return self.x1_embedded and self.x2_embedded and self.plus_matches

    def text(self) -> str:
        lines = [
            f"check lifted del(X1) included: {'pass' if self.x1_embedded else 'FAIL'}",
            f"check lifted del(X2) included: {'pass' if self.x2_embedded else 'FAIL'}",
            f"check all-plus cells match del(X1): {'pass' if self.plus_matches else 'FAIL'}",
        ]
        for name, items in (
            ("missing from del(Z) via j1", self.missing_x1),
            ("missing from del(Z) via j2", self.missing_x2),
            ("all-plus cells without del(X1) counterpart", self.plus_mismatch),
        ):
            if items:
                lines.append(f"  {name}: {items}")
        return "\n".join(lines)


def verify_embedding(cfg: LiftedConfiguration, tri: Triangulation) -> EmbeddingReport:
    """Certify that both clouds' Delaunay complexes embed into del(Z) and
    that the all-plus part of del(Z) is exactly the lifted del(X1)."""
    n1 = len(cfg.x1)
    present = {simp.vertices for simp in tri.simplices()}

    j1 = _lifted(delaunay(cfg.x1), 0) if len(cfg.x1) else set()
    j2 = _lifted(delaunay(cfg.x2), n1) if len(cfg.x2) else set()
    missing_x1 = sorted(j1 - present)
    missing_x2 = sorted(j2 - present)
    mismatch = _slab_mismatch(present, j1, 0, n1)
    return EmbeddingReport(
        x1_embedded=not missing_x1,
        x2_embedded=not missing_x2,
        plus_matches=not mismatch,
        missing_x1=missing_x1,
        missing_x2=missing_x2,
        plus_mismatch=mismatch,
    )
