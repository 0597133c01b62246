import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import minor_expansion_det
from reldelcech.geometry import (
    DIM_CAP,
    MEB_TOL,
    InputError,
    PointCloud,
    in_ball,
    in_sphere,
    orientation,
    smallest_enclosing_ball,
)


class TestPointAndCloud:
    def test_point_basics(self):
        c = PointCloud([(1, 2), (3.5, -0.0)])
        assert c.dimension == 2 and c.coords.dtype == np.float64 and c.coords.shape == (2, 2)
        assert [p.coords for p in c] == [(1.0, 2.0), (3.5, -0.0)]
        assert all(type(x) is float for p in c for x in p.coords)
        with pytest.raises(ValueError):
            c.coords[0, 0] = 5.0  # read-only

    def test_point_rejects_nan_inf(self):
        with pytest.raises(InputError):
            PointCloud([(float("nan"), 0.0)])
        with pytest.raises(InputError):
            PointCloud([(float("inf"), 0.0)])
        with pytest.raises(InputError):
            PointCloud(np.array([[0.0, 1.0], [2.0, -np.inf]]))

    @pytest.mark.parametrize(
        "rows, dimension",
        [
            ([[(1, 2)]], None),  # nested
            ([(0, 0), (1, 1, 1)], None),  # ragged
            ([(0, 0), 1.0], None),  # ragged
            ([1.0, 2.0], None),  # numbers, not rows
            ([("a", 1.0)], None),  # non-numeric
            ([(1j, 1.0)], None),  # non-real
            ([(10**400, 1.0)], None),  # no float holds it
            ([()], None),  # zero coordinates
            ([(float("nan"), 0.0)], None),
            ([(1.0, float("-inf"))], None),
            ([tuple(range(DIM_CAP + 1))], None),
            ([], DIM_CAP + 1),
            ([(0.0, 1.0)], 3),  # declared dimension does not match
            (np.zeros((0, 2)), 3),
            ([], None),  # empty, no dimension
            ([], 0),
            ([(0.0, 1.0), (2.0, 3.0), (0.0, 1.0)], None),  # duplicate rows
            ([(0.0, 1.0), (-0.0, 1.0)], None),  # -0.0 == 0.0, as in tuple equality
            (np.array([[5.0, 0.0, -0.0], [1.0, 2.0, 3.0], [5.0, -0.0, 0.0]]), None),
        ],
    )
    def test_cloud_rejects(self, rows, dimension):
        with pytest.raises(InputError):
            PointCloud(rows, dimension=dimension)

    def test_cloud_rejects_duplicates(self):
        with pytest.raises(InputError):
            PointCloud([(0, 0), (1, 1), (0, 0)])

    def test_cloud_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            PointCloud([(0, 0), (1, 1, 1)])

    def test_cloud_dimension_cap(self):
        with pytest.raises(InputError):
            PointCloud([tuple(range(DIM_CAP + 1))])
        PointCloud([tuple(range(DIM_CAP))])  # at cap is fine

    def test_empty_cloud_needs_dimension(self):
        with pytest.raises(InputError):
            PointCloud([])
        c = PointCloud([], dimension=3)
        assert len(c) == 0 and c.dimension == 3 and c.coords.shape == (0, 3)


class TestOrientation:
    def test_examples(self):
        assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
        assert orientation([(0, 0), (1, 0), (2, 0)]) == 0
        assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1

    def test_wrong_count(self):
        with pytest.raises(InputError):
            orientation([(0, 0), (1, 0)])

    def test_swap_antisymmetry_and_translation_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            m = rng.randint(1, 4)
            pts = [tuple(rng.uniform(-5, 5) for _ in range(m)) for _ in range(m + 1)]
            s = orientation(pts)
            i, j = rng.sample(range(m + 1), 2)
            swapped = list(pts)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert orientation(swapped) == -s
            t = [rng.uniform(-3, 3) for _ in range(m)]
            shifted = [tuple(x + dx for x, dx in zip(p, t)) for p in pts]
            assert orientation(shifted) == s


class TestInSphere:
    def test_examples(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        assert in_sphere(tri, (1, 1)) == 0  # on the circumcircle
        assert in_sphere(tri, (0.5, 0.5)) == 1
        assert in_sphere(tri, (2, 2)) == -1

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(InputError):
            in_sphere([(0, 0), (1, 0), (2, 0)], (0, 1))

    def test_permutation_invariance(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 3)
            pts = [tuple(rng.uniform(-2, 2) for _ in range(m)) for _ in range(m + 1)]
            if orientation(pts) == 0:
                continue
            q = tuple(rng.uniform(-2, 2) for _ in range(m))
            s = in_sphere(pts, q)
            perm = list(pts)
            rng.shuffle(perm)
            assert in_sphere(perm, q) == s

    def test_known_3d_sphere(self):
        tet = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        # circumcenter (1,1,1), radius sqrt(3)
        assert in_sphere(tet, (1, 1, 1)) == 1
        assert in_sphere(tet, (3, 3, 3)) == -1
        assert in_sphere(tet, (2, 2, 0)) == 0  # at distance sqrt(3) exactly

    def test_matches_distance_to_circumcenter(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(2, 3)
            pts = [tuple(rng.uniform(-1, 1) for _ in range(m)) for _ in range(m + 1)]
            if orientation(pts) == 0:
                continue
            from reldelcech.geometry import circumball

            center, r = circumball(sorted(pts))
            q = tuple(rng.uniform(-1.5, 1.5) for _ in range(m))
            d = math.dist(center, q)
            if abs(d - r) < 1e-9:
                continue
            assert in_sphere(pts, q) == (1 if d < r else -1)


def brute_force_meb(pts, dim):
    """Independent oracle: minimum over circumballs of subsets of size
    <= dim+1 that contain all points (normal-equation least squares)."""
    best = None
    arr = np.array(pts, dtype=float)
    for k in range(1, min(len(pts), dim + 1) + 1):
        for sub in itertools.combinations(range(len(pts)), k):
            s = arr[list(sub)]
            p0 = s[0]
            if k == 1:
                center, r = p0, 0.0
            else:
                # relative to p0 so the least-norm solution of the
                # equidistance system is the smallest circumball center
                a = 2.0 * (s[1:] - p0)
                b = ((s[1:] - p0) ** 2).sum(axis=1)
                y = np.linalg.lstsq(a, b, rcond=None)[0]
                center = p0 + y
                r = float(np.linalg.norm(s - center, axis=1).max())
            dmax = float(np.linalg.norm(arr - center, axis=1).max())
            if dmax <= r + 1e-9 * (1 + r):
                if best is None or r < best:
                    best = r
    return best


class TestSmallestEnclosingBall:
    def test_examples(self):
        center, r = smallest_enclosing_ball([(0, 0)])
        assert center == (0.0, 0.0) and r == 0.0
        center, r = smallest_enclosing_ball([(0, 0), (2, 0)])
        assert center == (1.0, 0.0) and abs(r - 1) < 1e-12
        center, r = smallest_enclosing_ball([(0, 0), (4, 0), (1, 1)])
        assert math.dist(center, (2, 0)) < 1e-9 and abs(r - 2) < 1e-9
        _, r = smallest_enclosing_ball([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert abs(r - 1 / math.sqrt(3)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            smallest_enclosing_ball([])

    def test_contains_all_and_is_tight(self):
        rng = random.Random(19)
        for _ in range(200):
            dim = rng.randint(1, 4)
            k = rng.randint(1, 7)
            pts = [tuple(rng.uniform(-3, 3) for _ in range(dim)) for _ in range(k)]
            center, r = smallest_enclosing_ball(pts)
            tol = 1e-9 * (1 + r)
            dists = [math.dist(center, p) for p in pts]
            assert all(d <= r + tol for d in dists)
            assert max(dists) >= r - tol

    def test_against_subset_oracle(self):
        rng = random.Random(23)
        for _ in range(150):
            dim = rng.randint(1, 3)
            k = rng.randint(1, 6)
            pts = list({tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(k)})
            _, r = smallest_enclosing_ball(pts)
            expected = brute_force_meb(pts, dim)
            assert abs(r - expected) <= 1e-9 * (1 + expected)

    def test_monotone_under_inclusion(self):
        rng = random.Random(29)
        for _ in range(100):
            dim = rng.randint(1, 3)
            pts = [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(6)]
            sub = rng.sample(pts, rng.randint(1, 5))
            assert (
                smallest_enclosing_ball(sub)[1]
                <= smallest_enclosing_ball(pts)[1] + 1e-12
            )

    def test_rigid_motion_invariance(self):
        rng = random.Random(31)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        for _ in range(50):
            pts = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(5)])
            moved = pts @ rot.T + np.array([1.5, -0.5])
            _, r1 = smallest_enclosing_ball(pts.tolist())
            _, r2 = smallest_enclosing_ball(moved.tolist())
            assert abs(r1 - r2) <= 1e-9 * (1 + r1)

    def test_order_invariance_is_bitwise(self):
        rng = random.Random(37)
        pts = [tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(6)]
        b1 = smallest_enclosing_ball(pts)
        for _ in range(5):
            rng.shuffle(pts)
            b2 = smallest_enclosing_ball(pts)
            assert b2 == b1

    def test_scale_equivariance(self):
        assert math.isclose(smallest_enclosing_ball([(0.0, 0.0), (1e-10, 0.0)])[1], 5e-11)
        rng = random.Random(43)
        for _ in range(50):
            pts = [(rng.random(), rng.random()) for _ in range(6)]
            _, r = smallest_enclosing_ball(pts)
            for c in (1e-12, 1e6):
                _, got = smallest_enclosing_ball([(c * x, c * y) for x, y in pts])
                assert math.isclose(got, c * r, rel_tol=1e-9)

    def test_large_n_no_recursion_limit(self):
        rng = random.Random(41)
        pts = [(rng.random(), rng.random()) for _ in range(2000)]
        b = center, r = smallest_enclosing_ball(pts)
        tol = MEB_TOL * (1 + r)
        dists = [math.dist(center, p) for p in pts]
        assert all(d <= r + tol for d in dists)
        boundary = [p for p, d in zip(pts, dists) if d >= r - tol]
        assert 2 <= len(boundary) <= 3
        assert smallest_enclosing_ball(boundary) == b


class TestBall:
    def test_contains(self):
        assert in_ball((0.0, 0.0), 1.0, (1.0, 0.0))
        assert not in_ball((0.0, 0.0), 1.0, (1.1, 0.0))
        # The tolerance is relative to the radius, not absolute.
        assert in_ball((0.0, 0.0), 1e-10, (1e-10, 0.0))
        assert not in_ball((0.0, 0.0), 1e-10, (2e-10, 0.0))


class TestExactness:
    def test_integer_coordinate_predicates_vs_rational_oracle(self):
        rng = random.Random(41)
        agree = 0
        for _ in range(2000):
            m = rng.randint(2, 3)
            scale = 2**20
            pts = [
                tuple(float(rng.randint(-scale, scale)) for _ in range(m))
                for _ in range(m + 1)
            ]
            # half the cases: force collinearity/cosphericality stress
            if rng.random() < 0.5:
                lam = rng.random()
                mix = tuple(
                    float(int(lam * a + (1 - lam) * b))
                    for a, b in zip(pts[0], pts[1])
                )
                pts[-1] = mix
            rows = [
                [Fraction(x) - Fraction(y) for x, y in zip(p, pts[0])]
                for p in pts[1:]
            ]
            d = minor_expansion_det(rows)
            assert orientation(pts) == (d > 0) - (d < 0)
            agree += 1
        assert agree == 2000

    def test_predicates_across_exponents_vs_rational_oracle(self):
        # Small integers scaled by 2^e for e in -140..60, one exponent per
        # case or one per coordinate, plus ulp-nudged near-collinear points:
        # many exact ties, so the integer path decides most cases.
        def homog_sign(rows):
            d = minor_expansion_det([[Fraction(x) for x in r] + [1] for r in rows])
            return (d > 0) - (d < 0)

        def oracle_orientation(pts):
            s = homog_sign(pts)
            return -s if (len(pts) - 1) % 2 else s

        def oracle_in_sphere(pts, q):
            m = len(q)
            s = homog_sign([list(p) + [sum(Fraction(x) ** 2 for x in p)] for p in pts + [q]])
            return s * oracle_orientation(pts) * (1 if m % 2 == 0 else -1)

        rng = random.Random(43)
        zeros = 0
        for case in range(3000):
            m = rng.randint(1, 3)
            e = rng.randint(-140, 60)
            mode = case % 3
            if mode == 0:
                pts = [tuple(math.ldexp(rng.randint(-4, 4), e) for _ in range(m)) for _ in range(m + 2)]
            elif mode == 1:
                exps = [rng.randint(-140, 60) for _ in range(m)]
                pts = [
                    tuple(math.ldexp(rng.randint(-4, 4), x) for x in exps) for _ in range(m + 2)
                ]
            else:
                a, b = (tuple(math.ldexp(rng.uniform(-1, 1), e) for _ in range(m)) for _ in range(2))
                lam = rng.random()
                mix = tuple(
                    math.nextafter(lam * x + (1 - lam) * y, rng.choice((-math.inf, math.inf)))
                    for x, y in zip(a, b)
                )
                pts = [a, b, mix] + [
                    tuple(math.ldexp(rng.uniform(-1, 1), e) for _ in range(m)) for _ in range(m)
                ]
            simplex, q = pts[: m + 1], pts[m + 1]
            want = oracle_orientation(simplex)
            assert orientation(simplex) == want, simplex
            zeros += want == 0
            if want != 0:
                want = oracle_in_sphere(simplex, q)
                assert in_sphere(simplex, q) == want, (simplex, q)
                zeros += want == 0
        assert zeros > 200  # the sample really has exact ties
