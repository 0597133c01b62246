"""Relative Delaunay-Cech complex of a pair (X1 union X2, X1).

The two clouds are embedded in one dimension higher at heights +s and -s,
the lifted set is Delaunay-triangulated, cells whose vertices all sit at
height +s form the subcomplex, and every other cell is filtered by the
smallest enclosing ball of its projected (height-dropped) vertices.  The
resulting filtered complex has size linear in the Delaunay triangulation of
the lifted set instead of exponential in |X|.

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

from .delaunay import Triangulation, delaunay, face_tuples
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


def _plus_mismatch(cells, lifted_x1: set[tuple[int, ...]], n1: int) -> list[tuple[int, ...]]:
    """The simplices, lowest dimension first, in exactly one of the lifted
    del(X1) and the all-plus `cells` of del(Z) (all vertices below n1)."""
    all_plus = {vs for vs in cells if vs[-1] < n1}
    return sorted(all_plus.symmetric_difference(lifted_x1), key=lambda vs: (len(vs), vs))


@dataclass
class Pipeline:
    """All intermediate artifacts of one relative Delaunay-Cech run.

    `triangulation` is del(Z); with X2 empty it is del(X1), whose vertex
    indices are Z's.
    """

    cfg: LiftedConfiguration
    triangulation: Triangulation
    complex: FilteredComplex


def build_pipeline(x1: PointCloud, x2: PointCloud) -> Pipeline:
    """Lift, triangulate and filter.

    del(X1) is triangulated once, to check that its lifted copy is the
    subcomplex: the all-plus cells of del(Z) must be exactly the lifted
    del(X1) (`_plus_mismatch`), else AssertionError.  X2 is triangulated
    only through del(Z).  With X2 empty, Z is X1 at height +s with the same
    vertex indices and the same hull coordinates, so del(Z) is del(X1); the
    special case only saves a triangulation.

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
    that the rule sees every facet, but keep the value 0; with X2 empty
    every cell is a subcomplex cell and no ball is computed.  Each value is
    then raised to its faces' values (the monotone guard).
    """
    if len(x1) and x1.dimension > 3 or len(x2) and x2.dimension > 3:
        raise InputError("ambient dimension must be at most 3")
    if len(x1) + len(x2) == 0:
        raise InputError("x1 and x2 are both empty")
    tri1 = delaunay(x1) if len(x1) else None
    cfg = lift(x1, x2, choose_s(x1, x2))
    tri = delaunay(cfg.z) if len(x2) else tri1
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
        if len(x2) and len(vs) > 1:
            ball = balls[vs] = _face_ball(proj, vs, balls)
            if not sub:
                # Same geometry as the faces, but guard against sub-ulp float noise.
                value = max(ball[1], max(values[f] for f in face_tuples(vs)))
        values[vs] = value
        cells.append(Cell(simp, value, sub))
    if tri1 is not None:
        mismatch = _plus_mismatch(values, {simp.vertices for simp in tri1.simplices()}, n1)
        missing = [vs for vs in mismatch if vs not in values]
        if missing:
            raise AssertionError(f"lifted del(X1) simplex {missing[0]} missing from del(Z)")
        if mismatch:
            raise AssertionError(f"all-plus simplex {mismatch[0]} of del(Z) is not in del(X1)")
    return Pipeline(cfg, tri, build(cells))


def relative_delcech(x1: PointCloud, x2: PointCloud) -> FilteredComplex:
    """The filtered complex whose relative persistence (quotient by the
    marked subcomplex) is the relative persistent homology of the pair."""
    return build_pipeline(x1, x2).complex


# -- embedding certification ----------------------------------------------------


@dataclass
class EmbeddingReport:
    """Outcome of the three structural checks on a lifted triangulation.

    `build_pipeline` enforces the third, which implies the first.  With
    `sos_sign`'s heights-first rule all three hold on degenerate grids too
    (Cayley trick), so a failure means a broken del(Z).
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

    def lifted_simplices(cloud: PointCloud, offset: int) -> set[tuple[int, ...]]:
        if len(cloud) == 0:
            return set()
        return {tuple(v + offset for v in s.vertices) for s in delaunay(cloud).simplices()}

    j1 = lifted_simplices(cfg.x1, 0)
    j2 = lifted_simplices(cfg.x2, n1)
    missing_x1 = sorted(j1 - present)
    missing_x2 = sorted(j2 - present)
    mismatch = _plus_mismatch(present, j1, n1)
    return EmbeddingReport(
        x1_embedded=not missing_x1,
        x2_embedded=not missing_x2,
        plus_matches=not mismatch,
        missing_x1=missing_x1,
        missing_x2=missing_x2,
        plus_mismatch=mismatch,
    )
