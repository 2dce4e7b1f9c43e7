"""The operator against its exact values.

Each smooth corpus function is a sum of products g(x) h(y) of exponential
polynomials, whose 1-D operators are known in closed form
(``paper_formulas.exact_pairs``): L f at any degree, with no truncation.  The
production route agrees with it within

    C eps sum_k (L|g_k| + dx)(L|h_k| + dy)
        + sum_k [(L|g_k| + dx)(L|h_k| + dy) - L|g_k| L|h_k|],

a rounding term and a renormalization term.  A row that keeps the mass S of
its distribution and is divided by it moves the value of h by
(1 - S) |E[h | kept] - E[h | dropped]|.  A Bernstein row drops at most
2 DROP, and |g| <= e on the nodes in [0, 1]: dx = 4 e DROP.  A Szasz row
drops at most tail + DROP, and |h(tau)| <= 1 + tau^2 on these factors; for a
Poisson X, E[X | X >= W] <= ny + W and E[X^2 | X >= W] <= (ny + W)^2 + ny + W,
so E[(X + alpha)^2 | X >= W] <= (ny + W + alpha + 1)^2 and
dy = (tail + DROP) 2 (1 + ((ny + W + alpha + 1) / n)^2).
"""

import math

import mpmath
import numpy as np
import pytest

from poslinops import DEFAULT_POLICY, StancuParams, apply_on_grid, corpus_lookup
from poslinops.basis import _szasz_edge, szasz_band_matrix
from poslinops.operators import lattice

from paper_formulas import EXACT_FACTORS, exact_pairs

EPS = np.finfo(float).eps
DROP = DEFAULT_POLICY.tail_tol * 2.0**-60  # mass bound on each side of a window
# The rounding constant: the largest |L f - exact| / (eps sum_k L|g_k| L|h_k|)
# seen on these lattices is 18 (smooth at m = n = 1e5), renormalization included.
C = 64
DEGREES = (1, 10, 640, 10**5)
SHIFTS = (StancuParams(), StancuParams(1.0, 2.0, 0.5, 1.5))
NAMES = ("smooth", "prod", "linear", "quad")


def bounds(name, params, m, n, xs, ys, tail):
    """The rounding and renormalization terms of the module docstring, from
    the tail bounds of the Szasz rows at ys."""
    rate = n * np.asarray(ys)
    W = _szasz_edge(rate, DEFAULT_POLICY.tail_tol)
    dx = 4 * math.e * DROP
    dy = (tail + DROP) * 2 * (1 + ((rate + W + params.alpha2 + 1) / n) ** 2)
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
    tail = szasz_band_matrix(n, ys)[1]
    for params in SHIFTS:
        for name in NAMES:
            want = sum(gx * hy for gx, hy in exact_pairs(name, params, m, n, xs, ys))
            got = apply_on_grid(corpus_lookup(name).function, params, m, n, xs, ys)
            rounding, renormalization = bounds(name, params, m, n, xs, ys, tail)
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
