"""Exact sign evaluation of small determinants.

Every sign is decided over Python integers; inputs are floats, which are
dyadic rationals, so `exact_ints` makes them integers by a power-of-two
shift.  From fast to slow:

1. a static floating-point filter that certifies the sign of a float
   determinant whenever its magnitude safely exceeds a rounding error
   bound.  `certified_sign` is the one rule, and `certified_signs` its
   array form in the same float operations.  Every float determinant is
   a dot product of its last row with the cofactors of the others
   (`cofactors`, a Laplace expansion that shares minors; `batch_cofactors`
   runs it over a stack of blocks, bit for bit): `filtered_det_sign`
   evaluates one, and the lifted hull reuses one facet's cofactors for
   many last rows,
2. the exact integer determinant (`det_exact_int`, fraction-free Bareiss),
   or, for many last rows under one block, the integer dot product with
   the block's exact cofactors (`exact_cofactors`),
3. a symbolic perturbation (`sos_sign`) that resolves exact zeros.  The
   sign is that of the first nonzero coefficient of the perturbed
   determinant by increasing infinitesimal degree, and is never zero.

Lift heights first.  All matrices here are small (n <= 8) lifted hull
rows: coordinates, the lift in column n - 2, a homogeneous 0/1 entry last.
Each coefficient is the determinant with some rows replaced by unit rows:
a monomial m of the moment-curve perturbation (`_injections`' order, the
empty one first), followed by its lift terms, which replace one more row i
by e_lift, rows by increasing rank.  That is the perturbation that also
moves row i's lift by eps^x_i, 0 < x_i < 1 increasing in rank: a term's
degree is D(m) + x_i, D(m) the integer degree of m, and two lift unit rows
are equal rows, so all degrees differ and come in that order.  For a lower
facet whose projection is not flat, a lift term of the empty monomial is
+-1 times the projected orientation, not 0: the heights alone decide it,
whatever the hull's coordinates.  By the Cayley trick (Huber, Rambau &
Santos, JEMS 2000) the result restricts on each slab of a lifted pair to
that slab's own triangulation; Devillers & Teillaud (CGTA 2011) perturb
weights only.

A caller whose filter fails calls `sos_sign`, which runs 2 first unless
the determinant is zero by structure: when the rows share their
homogeneous entry and a coordinate column is constant (a same-slab tie of
the lifted hull: its height column), that column is a multiple of the
homogeneous one, and only coefficients whose unit rows (lift rows
included) cover it count.  With exactly one such column h, the first of
them replaces the row of lowest rank, row r, by e_h (a lift term when h is
the lift column): the perturbed sign is (-1)^(r+h) times the minor without
row r and column h, unless that minor is 0.  The lifted hull evaluates
that minor, and the first lift terms of an exact zero, in batches itself
(`delaunay._perturbed_signs`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_EPS = float(math.ulp(1.0))  # 2^-52

# Safety constants for the static filter, indexed by matrix size.  The bound
# n! * n^2 * 32 * eps * M^n over-covers both the arithmetic error of the
# Laplace expansion (`cofactors`) and the half-ulp rounding of the input
# entries.  The expansion sums n! terms, each a product of n entries of
# magnitude at most M.  A term meets one rounded product per level and, in
# a sum of r minors, at most r - 1 rounded additions, so at most
# 2 + 3 + ... + n = n(n+1)/2 - 1 roundings in all.  The arithmetic error is
# then at most gamma_(n(n+1)/2) * n! * M^n < n(n+1)/4 * eps * n! * M^n
# (gamma_m = m u / (1 - m u), u = eps/2), more than 64 times below the
# bound; the rest covers the rounding of the entries themselves.
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


@functools.cache
def _expansion_plan(k: int):
    """Index plan of `cofactors` for a (k-1) x k block.

    Level r holds the minors of the block's last r rows, one for every
    r-subset of columns in `itertools.combinations` order; level 1 is the
    last row itself.  Each level is (row, terms): a minor of level r
    expands along that row, the first of its rows, into (column, index of
    the level r-1 minor without that column) pairs of alternating sign,
    kept apart as (positive, negative).  `top[j]` is the index of the
    minor without column j on the last level."""
    index = {(c,): c for c in range(k)}
    levels = []
    for r in range(2, k):
        nxt = {}
        terms = []
        for cols in itertools.combinations(range(k), r):
            nxt[cols] = len(terms)
            pairs = [(c, index[cols[:t] + cols[t + 1 :]]) for t, c in enumerate(cols)]
            terms.append((tuple(pairs[0::2]), tuple(pairs[1::2])))
        levels.append((k - 1 - r, tuple(terms)))
        index = nxt
    top = tuple(index[tuple(c for c in range(k) if c != j)] for j in range(k))
    return tuple(levels), top


def cofactors(block, zero=0.0) -> list:
    """Cofactors of a last row under a (k-1) x k float block: c_j is
    (-1)^(k-1+j) det(block without column j), so the determinant of the
    block with a row x appended is sum(x_j c_j).

    One Laplace expansion computes all k: the minors of the last rows are
    shared between the cofactors (`_expansion_plan`), the sum over
    r = 2..k-1 of C(k, r) r multiply-adds for all of them (70 for k = 5).
    Every sum starts from `zero`.  The error bound is `_FILTER_C`'s."""
    if not block:
        return [zero + 1]
    k = len(block[0])
    levels, top = _expansion_plan(k)
    minors = block[-1]
    for r, terms in levels:
        row = block[r]
        level = []
        for pos, neg in terms:
            v = zero
            for c, i in pos:
                v += row[c] * minors[i]
            for c, i in neg:
                v -= row[c] * minors[i]
            level.append(v)
        minors = level
    return [-minors[i] if (k - 1 + j) % 2 else minors[i] for j, i in enumerate(top)]


def exact_cofactors(block) -> list[int]:
    """`cofactors` of an integer block, exact: every sum starts from the
    integer 0, so the determinant of the block with an integer row x
    appended is exactly sum(x_j c_j)."""
    return cofactors(block, 0)


@functools.cache
def _batch_plan(k: int):
    """`_expansion_plan(k)` as index arrays: per level (row, positive
    columns, positive minors, negative columns, negative minors), each
    (terms, pairs), and the top indices.  Every term of a level has the
    same number of positive and of negative pairs."""
    levels, top = _expansion_plan(k)
    out = []
    for r, terms in levels:
        pos = np.array([p for p, _ in terms], dtype=np.intp)
        neg = np.array([n for _, n in terms], dtype=np.intp)
        out.append((r, pos[..., 0], pos[..., 1], neg[..., 0], neg[..., 1]))
    return tuple(out), np.array(top, dtype=np.intp)


def batch_cofactors(blocks: np.ndarray) -> np.ndarray:
    """`cofactors` of each block of `blocks`, an (m, k-1, k) float array,
    as an (m, k) array.  The same float operations in the same order:
    each sum starts from 0.0 and adds or subtracts one product at a time,
    elementwise, so every cofactor is bit-identical to the scalar one.
    The work runs entry-major, (entry, block), so that each gather and
    each operation is over contiguous rows of m blocks."""
    m, rows, k = blocks.shape
    if rows == 0:
        return np.ones((m, 1))
    levels, top = _batch_plan(k)
    b = np.ascontiguousarray(blocks.transpose(1, 2, 0))
    minors = b[-1]
    for r, pc, pi, nc, ni in levels:
        row = b[r]
        pos = row[pc] * minors[pi]
        neg = row[nc] * minors[ni]
        v = np.zeros((len(pc), m))
        for j in range(pc.shape[1]):
            v = v + pos[:, j]
        for j in range(nc.shape[1]):
            v = v - neg[:, j]
        minors = v
    cof = minors[top]
    cof[(k - 1 + np.arange(k)) % 2 == 1] *= -1.0
    return cof.T


def certified_sign(value: float, n: int, scale: float) -> int | None:
    """Sign of `value`, a float evaluation of an n x n determinant whose
    entries are at most `scale` >= 1 in magnitude, if it exceeds the
    rounding error bound _FILTER_C[n] * scale^n; else None.

    The bound is multiplied out one factor at a time, so that
    `certified_signs` computes the same float (a libm or SIMD `pow` need
    not be correctly rounded); its n roundings are far inside the bound's
    slack.  An overflow makes it infinite, which certifies nothing."""
    bound = _FILTER_C[n]
    for _ in range(n):
        bound *= scale
    # An infinite value overflowed on the way and certifies nothing.
    if bound < abs(value) < math.inf:
        return 1 if value > 0 else -1
    return None


def certified_signs(values: np.ndarray, n: int, scales: np.ndarray) -> np.ndarray:
    """`certified_sign` of each value with its scale, in the same float
    operations, as an int array: 0 where it returns None.  Call it under
    `np.errstate(all="ignore")`: an overflow is an infinite bound."""
    bound = _FILTER_C[n] * scales
    for _ in range(n - 1):
        bound = bound * scales
    mag = np.abs(values)
    ok = (bound < mag) & (mag < math.inf)
    return np.where(ok, np.where(values > 0, 1, -1), 0)


def filtered_det_sign(rows) -> int | None:
    """Sign of det(rows) if certifiable in double precision, else None."""
    rows = [[float(x) for x in row] for row in rows]
    scale = max([1.0] + [abs(x) for row in rows for x in row])
    value = sum(x * c for x, c in zip(rows[-1], cofactors(rows[:-1])))
    return certified_sign(value, len(rows), scale)


# -- symbolic perturbation ---------------------------------------------------
#
# Row i, whose rank is the rho(i)-th smallest (from 0), is displaced by
# (t_i, t_i^2, ..., t_i^C) on its C coordinate columns, t_i = eps^(B^rho(i))
# with B = C + 2.  Every monomial in the expanded determinant then has a
# distinct eps-degree, so the perturbed sign is the sign of the first
# nonzero coefficient in degree order.  Each coefficient is the determinant
# of the base matrix with the assigned rows replaced by coordinate unit rows.
#
# A partial injection (row i -> column c_i) has degree sum (c_i + 1) *
# B^rho(i).  Write it as one digit per row, c_i + 1 for an assigned row and
# 0 otherwise: every digit is at most C < B, so the degree is the base-B
# numeral of those digits with the highest-ranked row most significant.
# Increasing degree is therefore the lexicographic order of the digit
# vectors over the rows sorted by decreasing rank.  `_injections` steps
# from one injective vector to the next like an odometer whose wheels skip
# the digits that a more significant wheel already shows.


def _injections(ranks, ncoords: int):
    """Partial injections row -> coordinate column, as (row, column) pairs,
    by increasing perturbation degree."""
    rows = sorted(range(len(ranks)), key=lambda i: ranks[i], reverse=True)
    digits = [0] * len(rows)
    shown = [False] * (ncoords + 1)  # by digit; digit 0 (no column) repeats
    while True:
        k = len(rows) - 1
        while k >= 0:
            d = digits[k]
            shown[d] = False
            d += 1
            while d <= ncoords and shown[d]:
                d += 1
            if d <= ncoords:
                digits[k] = d
                shown[d] = True
                break
            digits[k] = 0
            k -= 1
        if k < 0:
            return
        yield [(row, d - 1) for row, d in zip(rows, digits) if d]


def sos_sign(rows_exact, ranks) -> int:
    """Sign of the symbolically perturbed determinant; never 0.

    `rows_exact`: square integer matrix, lift column n - 2, homogeneous
    column last.  `ranks[i]`: perturbation rank of row i; ranks must be
    distinct.  Lift terms follow each monomial (module docstring).
    """
    n = len(rows_exact)
    ncoords = n - 1
    lift = n - 2
    by_rank = sorted(range(n), key=ranks.__getitem__)
    # Constant columns: a structural zero (module docstring).
    forced: set[int] = set()
    first = rows_exact[0]
    if all(row[ncoords] == first[ncoords] for row in rows_exact[1:]):
        forced = {c for c in range(ncoords) if all(row[c] == first[c] for row in rows_exact[1:])}
    for assignment in itertools.chain([[]], _injections(ranks, ncoords)):
        cols = {col for _, col in assignment}
        if not forced <= cols | {lift}:
            continue
        m = list(rows_exact)
        for row, col in assignment:
            m[row] = [int(c == col) for c in range(n)]
        if forced <= cols:
            s = det_sign_exact(m)
            if s != 0:
                return s
        # A lift term is (-1)^(i+lift) times the minor without row i and
        # the lift column; with e_lift already in m it has two equal rows.
        if lift in cols:
            continue
        used = {row for row, _ in assignment}
        no_lift = [row[:lift] + row[lift + 1 :] for row in m]
        for i in by_rank:
            if i not in used:
                s = det_sign_exact(no_lift[:i] + no_lift[i + 1 :])
                if s != 0:
                    return -s if (i + lift) % 2 else s
    raise AssertionError("perturbation failed to resolve a zero determinant")
