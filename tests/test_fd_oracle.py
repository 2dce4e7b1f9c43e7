"""The broadcasting Taylor layer against its per-node scalar oracles.

The oracles are the scalar code the broadcasting layer replaced: one Fornberg
recursion, one stencil window and one ``wx @ F @ wy`` per node, and one pair
of directional derivatives per sampled segment.
"""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    Point2D,
    corpus_lookup,
    f_rth_lipschitz_estimate,
    finite_difference_derivs,
)
from poslinops.taylor import _axis_nodes, fd_stencil_weights

EPS = np.finfo(float).eps
H = 1e-4  # finite_difference_derivs' default step


def scalar_stencil_weights(z, xs, k):
    """Fornberg's recursion for one centre z."""
    N = len(xs)
    w = np.zeros((N, k + 1))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, N):
        mn = min(i, k)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    w[i, kk] = c1 * (kk * w[i - 1, kk - 1] - c5 * w[i - 1, kk]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for kk in range(mn, 0, -1):
                w[j, kk] = (c4 * w[j, kk] - kk * w[j, kk - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, k]


def scalar_axis_nodes(center, order, step, lo, hi=None):
    """One stencil window around center, shifted to stay inside [lo, hi]."""
    if order == 0:
        return np.array([center]), np.array([1.0])
    count = order + 3
    pts = center + (np.arange(count) - (count - 1) / 2.0) * step
    if pts[0] < lo:
        pts = pts + (lo - pts[0])
    if hi is not None and pts[-1] > hi:
        pts = pts - (pts[-1] - hi)
    return pts, scalar_stencil_weights(center, pts, order)


def scalar_fd(f, i, j, x, y, h=H):
    """The (i, j) finite-difference partial at one node: wx @ F @ wy, and the
    sum of |wx_a F_ab wy_b| that scales its rounding error."""
    xn, wx = scalar_axis_nodes(x, i, h * (1.0 + abs(x)), 0.0, 1.0)
    yn, wy = scalar_axis_nodes(y, j, h * (1.0 + abs(y)), 0.0)
    F = np.asarray(f(xn[:, None], yn[None, :]), dtype=float)
    return float(wx @ F @ wy), float(np.abs(wx) @ np.abs(F) @ np.abs(wy))


unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
half_line = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
orders = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda o: sum(o) <= 4)
FD_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                       max_examples=150)


@FD_SETTINGS
@given(order=orders, xs=st.lists(unit_x, min_size=1, max_size=4),
       ys=st.lists(half_line, min_size=1, max_size=4))
def test_fd_provider_matches_scalar_oracle(order, xs, ys):
    """The stencil nodes and weights are the oracle's bit for bit.  Only the
    order of the sum over the stencil differs, so the values agree within
    16 ulps of the sum of the absolute terms."""
    i, j = order
    f = corpus_lookup("smooth").function
    x, y = np.array(xs), np.array(ys)
    for c in x:
        nodes, weights = _axis_nodes(np.array([c]), i, H, 0.0, 1.0)
        want_nodes, want_weights = scalar_axis_nodes(c, i, H * (1.0 + abs(c)), 0.0, 1.0)
        assert np.array_equal(nodes[0], want_nodes)
        assert np.array_equal(weights[0], want_weights)
    got = finite_difference_derivs(f, 4).eval(i, j, x[:, None], y[None, :])
    assert got.shape == (len(x), len(y))
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            want, scale = scalar_fd(f, i, j, xa, yb)
            assert abs(got[a, b] - want) <= 16 * EPS * scale


def test_fd_stencil_weights_broadcast_over_centres():
    z = np.array([0.0, 0.3, 1.0])
    nodes = z[:, None] + np.array([-0.1, 0.0, 0.1, 0.25])
    w = fd_stencil_weights(z, nodes, 2)
    for c, row, pts in zip(z, w, nodes):
        assert np.array_equal(row, scalar_stencil_weights(c, pts, 2))


def test_fd_provider_evaluates_f_once_per_offset_pair():
    calls = []
    smooth = corpus_lookup("smooth").function
    f = Function2D(eval=lambda x, y: calls.append(1) or smooth(x, y), name="smooth")
    d = finite_difference_derivs(f, 4)
    xs, ys = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 3.0, 5)
    for i in range(5):
        for j in range(5 - i):
            calls.clear()
            d.eval(i, j, xs[:, None], ys[None, :])
            assert len(calls) == (i + 3 if i else 1) * (j + 3 if j else 1)


def test_fd_stencil_too_wide_for_the_domain():
    d = finite_difference_derivs(corpus_lookup("quad").function, 2, h=0.5)
    with pytest.raises(DomainError, match="does not fit"):
        d.eval(2, 0, np.array([0.1, 0.5]), 0.3)


def scalar_directional(derivs, r, x, y, a, b):
    """F^(r) at (x, y) along the unit direction (a, b), one partial at a time:
    sum_j C(r, j) a^i b^j d^r f / dx^i dy^j with i = r - j."""
    return sum(math.comb(r, j) * a ** (r - j) * b**j
               * float(derivs.eval(r - j, j, x, y)) for j in range(r + 1))


def scalar_lipschitz(derivs, r, gamma, region, samples, seed):
    """The per-sample loop: F^(r) at u = 0 and at u = |segment| along it."""
    rng = np.random.default_rng(seed)
    best, best_pair = 0.0, None
    for _ in range(samples):
        x1, x2 = rng.random(2)
        y1, y2 = rng.random(2) * region.A
        u = math.hypot(x2 - x1, y2 - y1)
        if u < 1e-9:
            continue
        a, b = (x2 - x1) / u, (y2 - y1) / u
        val = abs(
            scalar_directional(derivs, r, x1 + u * a, y1 + u * b, a, b)
            - scalar_directional(derivs, r, x1, y1, a, b)
        ) / u**gamma
        if val > best:
            best, best_pair = val, (Point2D(x1, y1), Point2D(x2, y2))
    return best, best_pair


@pytest.mark.parametrize("name, r, gamma, A", [
    ("smooth", 1, 1.0, 1.0),
    ("smooth", 2, 0.5, 2.0),
    ("quad", 1, 1.0, 1.5),
    ("holder_half", 1, 1.0, 1.0),  # the finite-difference provider
])
def test_lipschitz_estimate_matches_per_sample_loop(name, r, gamma, A):
    """The same draws and the same witness pair; the point at u = |segment|
    lands within rounding of the sampled endpoint, so M agrees to 1e-12."""
    e = corpus_lookup(name)
    derivs = e.derivative_provider or finite_difference_derivs(e.function, r)
    region = CompactRegion(A)
    w = f_rth_lipschitz_estimate(derivs, r, gamma, region, samples=300, seed=4)
    M, pair = scalar_lipschitz(derivs, r, gamma, region, 300, 4)
    assert w.M_estimate == pytest.approx(M, rel=1e-12)
    assert w.argmax_pair == pair


def test_lipschitz_estimate_checks_order_before_evaluating():
    calls = []
    d = corpus_lookup("quad").derivative_provider
    short = type(d)(order=1, eval=lambda *a: calls.append(1) or d.eval(*a))
    with pytest.raises(DomainError, match="insufficient"):
        f_rth_lipschitz_estimate(short, 2, 1.0, CompactRegion(1.0))
    assert not calls
