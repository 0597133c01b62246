import itertools
import random
from fractions import Fraction

import pytest

from _oracles import minor_expansion_det, sos_assignment_order
from reldelcech.predicates import (
    _injections,
    cofactors,
    det_exact_int,
    det_sign_exact,
    exact_ints,
    filtered_det_sign,
    sos_sign,
)


def exact_sign(rows) -> int:
    d = minor_expansion_det([[Fraction(x) for x in row] for row in rows])
    return (d > 0) - (d < 0)


def rand_matrix(rng, n, scale=4):
    return [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]


def test_det_exact_matches_minor_expansion():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n)
        assert det_exact_int(m) == minor_expansion_det(m)


def test_det_exact_int_matches_fraction_path():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [[rng.randint(-(2**60), 2**60) for _ in range(n)] for _ in range(n)]
        assert Fraction(det_exact_int(m)) == minor_expansion_det(m)


def test_filtered_sign_never_contradicts_exact():
    rng = random.Random(2)
    checked = certain = 0
    for _ in range(3000):
        n = rng.randint(2, 5)
        if rng.random() < 0.5:
            m = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        else:
            # nearly singular: duplicate a row up to noise
            m = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            m[i] = [x + rng.uniform(-1e-14, 1e-14) for x in m[j]]
        s = filtered_det_sign(m)
        checked += 1
        if s is not None:
            certain += 1
            assert s == exact_sign(m)
    assert certain > checked // 2  # the filter must actually decide things


def test_cofactors_exact_on_small_integers():
    # Products and sums of small integers are exact in floats, so the
    # expansion must give the exact minors and determinant.
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = [[float(x) for x in row] for row in rand_matrix(rng, n, scale=3)]
        cof = cofactors(m[:-1])
        assert len(cof) == n
        for j, c in enumerate(cof):
            minor = [row[:j] + row[j + 1 :] for row in m[:-1]]
            assert c == (-1) ** (n - 1 + j) * minor_expansion_det([[int(x) for x in row] for row in minor])
        det = minor_expansion_det([[int(x) for x in row] for row in m])
        assert sum(x * c for x, c in zip(m[-1], cof)) == det
        assert filtered_det_sign(m) == (exact_sign(m) or None)


def lifted_rows(rng, n, shift):
    """n homogeneous rows (x, |x|^2, 1) with x in R^(n-2) near `shift`."""
    rows = []
    for _ in range(n):
        x = [shift + rng.uniform(-1, 1) for _ in range(n - 2)]
        rows.append(x + [sum(v * v for v in x), 1.0])
    return rows


def test_filtered_sign_sound_on_lifted_rows():
    # Rows shaped like the lifted hull's: coordinates ~x, lifts ~|x|^2,
    # translated up to 1e5, and near-singular copies with 1e-12 noise.
    rng = random.Random(10)
    checked = certain = 0
    for _ in range(3000):
        n = rng.randint(2, 7)
        shift = rng.choice([0.0, 0.0, 1.0, 1e3, 1e5]) * rng.choice([-1, 1])
        m = lifted_rows(rng, n, shift) if n > 2 else [[rng.uniform(-1, 1), 1.0] for _ in range(2)]
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            m[i] = [x + rng.uniform(-1e-12, 1e-12) * max(1.0, abs(x)) for x in m[j][:-1]] + [1.0]
        s = filtered_det_sign(m)
        checked += 1
        if s is not None:
            certain += 1
            cols = [exact_ints(col)[0] for col in zip(*m)]
            assert s == det_sign_exact([list(row) for row in zip(*cols)])
    assert certain > checked // 4


# -- symbolic perturbation -----------------------------------------------------


def numeric_perturbed_sign(rows, ranks, eps_pow):
    """Evaluate the perturbation at an explicit tiny rational epsilon =
    2**-eps_pow and take the exact sign.  The row at rank position j moves
    by eps**(j + 1) in the lift column n - 2 and along the moment curve
    t, t^2, ... with t = eps**(K * B**j), K = n + 1: a lift term adds at
    most n < K to its monomial's degree, so it comes after that monomial
    and before the next."""
    n = len(rows)
    ncoords = n - 1
    base = ncoords + 2
    order = {r: p for p, r in enumerate(sorted(ranks))}
    eps = Fraction(1, 2**eps_pow)
    pert = []
    for i, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        j = order[ranks[i]]
        t = eps ** ((n + 1) * base**j)
        for c in range(ncoords):
            row[c] += t ** (c + 1)
        row[n - 2] += eps ** (j + 1)
        pert.append(row)
    return exact_sign(pert)


def homog(pts):
    return [list(p) + [1] for p in pts]


def test_sos_matches_numeric_substitution_on_degenerate_cases():
    cases = [
        # three collinear points in the plane
        ([(0, 0), (1, 0), (2, 0)], [0, 1, 2]),
        ([(0, 0), (1, 0), (2, 0)], [2, 0, 1]),
        ([(0, 0), (2, 0), (1, 0)], [0, 1, 2]),
        # duplicate-looking rows
        ([(1, 1), (1, 1), (0, 3)], [0, 1, 2]),
        ([(1, 1), (1, 1), (1, 1)], [0, 1, 2]),
        ([(1, 1), (1, 1), (1, 1)], [5, 3, 4]),
        # coplanar in 3d
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [0, 1, 2, 3]),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [3, 2, 1, 0]),
        ([(2, 1, 3), (2, 1, 3), (0, 1, 0), (4, 4, 4)], [1, 0, 3, 2]),
        # lifted same-slab tuples (x, h, |x|^2 + h^2): constant height column
        ([(0, 1, 1), (1, 1, 2), (3, 1, 10)], [0, 1, 2]),
        ([(0, -2, 4), (2, -2, 8), (-1, -2, 5)], [2, 0, 1]),
        ([(0, 0, 2, 4), (1, 0, 2, 5), (0, 1, 2, 5), (1, 1, 2, 6)], [3, 1, 0, 2]),
        ([(0, 0, -1, 1), (2, 0, -1, 5), (0, 1, -1, 2), (1, 3, -1, 11)], [0, 2, 3, 1]),
    ]
    for pts, ranks in cases:
        rows = homog(pts)
        got = sos_sign(rows, ranks)
        assert got != 0
        # small enough epsilon: two powers must agree with each other and us
        s64 = numeric_perturbed_sign(rows, ranks, 64)
        s96 = numeric_perturbed_sign(rows, ranks, 96)
        assert s64 == s96 == got, (pts, ranks, got, s64, s96)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_injections_follow_degree_order(n):
    # Every rank order for n <= 5, 100 of the 720 for n = 6; ranks are
    # sparse like the vertex indices the hull passes.
    perms = list(itertools.permutations(range(n)))
    if n == 6:
        perms = random.Random(8).sample(perms, 100)
    for perm in perms:
        ranks = [3 * r * r + 7 for r in perm]
        got = [tuple(sorted(a)) for a in _injections(ranks, n - 1)]
        assert got == sos_assignment_order(ranks, n - 1), ranks


def test_sos_random_degenerate_against_substitution():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(3, 4)
        # random integer points forced into an affine degeneracy: the last
        # point is the lam-weighted mean, all coordinates scaled by sum(lam)
        # to stay integer (a positive column scale keeps every SoS sign)
        pts = [[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n - 1)]
        lam = [rng.randint(0, 2) for _ in range(n - 1)]
        tot = sum(lam) or 1
        dep = [sum(lam[k] * pts[k][c] for k in range(n - 1)) for c in range(n - 1)]
        rows = homog([[tot * x for x in p] for p in pts] + [dep])
        ranks = list(range(n))
        rng.shuffle(ranks)
        got = sos_sign(rows, ranks)
        assert got != 0
        # Two powers agree: epsilon is small enough to trust the substitution.
        s = numeric_perturbed_sign(rows, ranks, 20)
        s2 = numeric_perturbed_sign(rows, ranks, 30)
        assert got == s == s2, (rows, ranks)


def test_sos_row_swap_antisymmetry():
    rng = random.Random(3)
    for _ in range(40):
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        rows = homog(pts)
        ranks = [0, 1, 2]
        s = sos_sign(rows, ranks)
        swapped_rows = [rows[1], rows[0], rows[2]]
        swapped_ranks = [1, 0, 2]
        assert sos_sign(swapped_rows, swapped_ranks) == -s


def test_sos_agrees_with_exact_when_nondegenerate():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rand_matrix(rng, n - 1, scale=5)
        rows = homog([tuple(r) for r in m])
        exact = det_sign_exact(rows)
        if exact != 0:
            assert sos_sign(rows, list(range(n))) == exact


def test_filter_zero_matrix():
    assert filtered_det_sign([[0.0, 0.0], [0.0, 0.0]]) is None
    assert det_sign_exact([[0, 0], [0, 0]]) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_identity_dets(n):
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert det_exact_int(eye) == 1
    assert filtered_det_sign([[float(x) for x in row] for row in eye]) == 1


def test_exact_ints_are_exact():
    rng = random.Random(5)
    for _ in range(500):
        xs = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1000) for _ in range(rng.randint(1, 6))]
        xs.append(rng.choice([0.0, -0.0, 5e-324, 1.0, -3.0]))
        ints, k = exact_ints(xs)
        assert k >= 0
        assert all(Fraction(n, 2**k) == Fraction(x) for n, x in zip(ints, xs))
        # least shift: one less would leave a fraction
        assert k == 0 or any(n % 2 for n in ints)
    assert exact_ints([]) == ([], 0)
    assert exact_ints([0.5, 3.0, -0.25]) == ([2, 12, -1], 2)
