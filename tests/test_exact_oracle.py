"""The operator against its exact values.

Each smooth corpus function is a sum of products g(x) h(y) of exponential
polynomials, whose 1-D operators are known in closed form
(``paper_formulas.exact_pairs``): L f at any degree, with no truncation.  The
production route agrees with it within

    C eps sum_k (L|g_k| + dx)(L|h_k| + dy)
        + sum_k [(L|g_k| + dx)(L|h_k| + dy) - L|g_k| L|h_k|],

a rounding term and a renormalization term.  A row that keeps the mass S of
its distribution and is divided by it moves the value of h by
(1 - S) |E[h | kept] - E[h | dropped]|.  Each row keeps the columns
[lo, hi) of its nonzero weights, and 1 - S = P(X < lo) + P(X >= hi) is summed
in mpmath for each row (``dropped``).  |g| <= e on the nodes in [0, 1]:
dx = 2 e (1 - S).  |h(tau)| <= 1 + tau^2 on these factors, tau <= (X + alpha) / n.
A Szasz row keeps the nodes X < hi and drops those at X < lo <= ny and at
X >= hi; for a Poisson X, E[X | X >= hi] <= ny + hi and
E[X^2 | X >= hi] <= (ny + hi)^2 + ny + hi, so both conditional means of
(X + alpha)^2 are at most (ny + hi + alpha + 1)^2 and
dy = (1 - S) 2 (1 + ((ny + hi + alpha + 1) / n)^2).
"""

from functools import lru_cache
import math

import mpmath
import numpy as np
import pytest

from poslinops import StancuParams, apply_on_grid, corpus_lookup
from poslinops.basis import bernstein_band_matrix, szasz_band_matrix
from poslinops.operators import lattice

from paper_formulas import EXACT_FACTORS, exact_pairs

EPS = np.finfo(float).eps
# The rounding constant: the largest |L f - exact| / (eps sum_k L|g_k| L|h_k|)
# seen on these lattices is 18 (smooth at m = n = 1e5), renormalization included.
C = 64
DEGREES = (1, 10, 640, 10**5)
SHIFTS = (StancuParams(), StancuParams(1.0, 2.0, 0.5, 1.5))
NAMES = ("smooth", "prod", "linear", "quad")


def _kept_columns(W, lo):
    """Each row's first nonzero column and one past its last, as global
    columns."""
    nonzero = W > 0.0
    last = W.shape[1] - nonzero[:, ::-1].argmax(axis=1)
    return lo + nonzero.argmax(axis=1), lo + last


def _binomial_tail(m, x, k, step):
    """P(X = k) + P(X = k + step) + ... for X ~ Bin(m, x), k past the mode on
    the side of step, in the current mpmath precision: the terms fall, and
    the sum stops where they are below 1e-40 of it."""
    x, total = mpmath.mpf(x), 0
    term = mpmath.binomial(m, k) * x**k * (1 - x) ** (m - k) if 0 <= k <= m else 0
    while 0 <= k <= m and term > total * 1e-40:
        total += term
        term *= ((m - k) * x / ((k + 1) * (1 - x)) if step > 0
                 else k * (1 - x) / ((m - k + 1) * x))
        k += step
    return total


@lru_cache(maxsize=None)
def dropped(m, n, A):
    """1 - S for each row of the operator's bands on the 5 x 5 lattice of
    [0, 1] x [0, A], summed in mpmath (30 digits): the Bernstein rows' mass
    P(X < lo) + P(X >= hi) term by term, the Poisson rows' by regularized
    incomplete gamma functions; and the Poisson rows' hi."""
    xs, ys = lattice(A, 5)
    out = []
    with mpmath.workdps(30):
        for x, a, b in zip(xs, *_kept_columns(*bernstein_band_matrix(m, xs))):
            out.append(float(_binomial_tail(m, x, a - 1, -1)
                             + _binomial_tail(m, x, b, 1)))
        W, _, lo = szasz_band_matrix(n, ys)
        first, hi = _kept_columns(W, lo)
        for y, a, b in zip(ys, first, hi):
            rate = mpmath.mpf(n * y)
            left = mpmath.gammainc(a, rate, mpmath.inf, regularized=True) if a else 0
            out.append(float(left + mpmath.gammainc(b, 0, rate, regularized=True)))
    return np.array(out[:5]), np.array(out[5:]), hi


def bounds(name, params, m, n, A):
    """The rounding and renormalization terms of the module docstring, from
    the mass each row of the operator's bands drops."""
    xs, ys = lattice(A, 5)
    drop_x, drop_y, hi = dropped(m, n, A)
    dx = (2 * math.e * drop_x)[:, None]
    dy = drop_y * 2 * (1 + ((n * ys + hi + params.alpha2 + 1) / n) ** 2)
    pairs = exact_pairs(name, params, m, n, xs, ys, absolute=True)
    sizes = sum((gx + dx) * (hy + dy) for gx, hy in pairs)
    return C * EPS * sizes, sizes - sum(gx * hy for gx, hy in pairs)


@pytest.mark.parametrize("A", [1.0, 4.0])
@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("m", DEGREES)
def test_the_operator_is_exact_within_rounding_and_renormalization(m, n, A):
    """Every factored corpus function, unshifted and shifted, on the 5 x 5
    lattice of [0, 1] x [0, A] (edges x in {0, 1} and y = 0 included)."""
    xs, ys = lattice(A, 5)
    for params in SHIFTS:
        for name in NAMES:
            want = sum(gx * hy for gx, hy in exact_pairs(name, params, m, n, xs, ys))
            got = apply_on_grid(corpus_lookup(name).function, params, m, n, xs, ys)
            rounding, renormalization = bounds(name, params, m, n, A)
            assert np.all(np.abs(got - want) <= rounding + renormalization), name


def _mp_factor(factor, t):
    if factor == "1":
        return mpmath.mpf(1)
    if factor == "t":
        return t
    if factor == "t2":
        return t * t
    return mpmath.re(mpmath.exp(mpmath.mpc(factor) * t))


def _mp_direct(degree, alpha, beta, v, poisson):
    """factor -> the 1-D operator of the factor at v by direct summation in
    the current mpmath precision: every Bernstein term, or the Poisson terms
    up to ny + 40 sqrt(ny) + 200 (past them lies less than e^-800 of the mass)."""
    v = mpmath.mpf(v)
    if poisson:
        w = [mpmath.exp(-degree * v)]
        for k in range(1, int(degree * v + 40 * mpmath.sqrt(degree * v)) + 200):
            w.append(w[-1] * degree * v / k)
    else:
        w = [mpmath.binomial(degree, k) * v**k * (1 - v) ** (degree - k)
             for k in range(degree + 1)]
    t = [(k + mpmath.mpf(alpha)) / (degree + mpmath.mpf(beta)) for k in range(len(w))]
    return lambda factor: mpmath.fsum(wk * _mp_factor(factor, tk) for wk, tk in zip(w, t))


def _mp_generating(degree, alpha, beta, v, poisson):
    """factor -> the 1-D operator of the factor at v from its generating
    function in the current mpmath precision, the moments of t and t^2 as its
    z-derivatives at 0."""
    s, v = degree + mpmath.mpf(beta), mpmath.mpf(v)

    def mgf(z):
        if poisson:
            return mpmath.exp(z * alpha / s + degree * v * mpmath.expm1(z / s))
        return mpmath.exp(z * alpha / s) * (1 + v * mpmath.expm1(z / s)) ** degree

    def value(factor):
        if factor == "1":
            return mpmath.mpf(1)
        if factor in ("t", "t2"):
            return mpmath.diff(mgf, 0, len(factor))
        return mpmath.re(mgf(mpmath.mpc(factor)))

    return value


@pytest.mark.parametrize("params", SHIFTS)
@pytest.mark.parametrize("m, n, mp_axis", [(1, 1, _mp_direct), (10, 10, _mp_direct),
                                           (640, 640, _mp_direct),
                                           (10**5, 10**5, _mp_generating)])
def test_the_oracle_against_50_digit_mpmath(m, n, mp_axis, params):
    """Spot checks: the float oracle within 8 eps of the sum of its majorants
    of the 50-digit value, by direct summation up to m = n = 640 and from the
    generating functions at 1e5."""
    p = params
    for x, y in [(0.0, 0.0), (0.3, 0.7), (0.9, 3.1), (1.0, 0.05)]:
        with mpmath.workdps(50):
            Lx = mp_axis(m, p.alpha1, p.beta1, x, False)
            Ly = mp_axis(n, p.alpha2, p.beta2, y, True)
            exact = {name: float(mpmath.fsum(Lx(g) * Ly(h) for g, h in pairs))
                     for name, pairs in EXACT_FACTORS.items()}
        for name in EXACT_FACTORS:
            got = sum(gx * hy for gx, hy in exact_pairs(name, p, m, n, [x], [y]))
            size = sum(gx * hy for gx, hy in exact_pairs(name, p, m, n, [x], [y],
                                                         absolute=True))
            assert abs(got[0, 0] - exact[name]) <= 8 * EPS * size[0, 0], (name, x, y)
