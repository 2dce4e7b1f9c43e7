"""Tests for the order-r operator, Taylor polynomials and derivatives."""

import dataclasses
import math
import re
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.stats import binom, poisson

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    Point2D,
    StancuParams,
    TruncationPolicy,
    apply,
    apply_on_grid,
    apply_rth,
    corpus_lookup,
    f_rth_lipschitz_estimate,
    finite_difference_derivs,
)
from poslinops.basis import szasz_band_matrix
from poslinops.operators import blocked_bands, evaluate, lattice
from poslinops.taylor import (PartialDerivativeSet, _directional, apply_rth_on_grid,
                              fd_stencil_weights)

from corpus_partials import PARTIALS
from single_band import single_band

TIGHT = TruncationPolicy(1e-14)


def _monomial_derivs(a, b):
    """Closed-form derivative provider for x^a y^b."""

    def falling(p, k):
        out = 1.0
        for t in range(k):
            out *= p - t
        return out

    def ev(i, j, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if i > a or j > b:
            return np.zeros(np.broadcast_shapes(x.shape, y.shape))
        return (
            falling(a, i) * falling(b, j) * x ** (a - i) * y ** (b - j)
        )

    return PartialDerivativeSet(order=10, eval=ev)


def taylor_poly(derivs, node, p, r):
    """Degree-r Taylor polynomial of f at ``node`` evaluated at ``p``.

    The coefficient of dx^i dy^j is f_{x^i y^j}(node) / (i! j!); an
    independent pointwise oracle for the order-r operator.
    """
    if derivs.order < r:
        raise DomainError(
            f"derivative provider of order {derivs.order} cannot build a "
            f"degree-{r} Taylor polynomial"
        )
    dx = p.x - node.x
    dy = p.y - node.y
    total = 0.0
    for h in range(r + 1):
        for j in range(h + 1):
            i = h - j
            c = derivs.eval(i, j, node.x, node.y)
            total += c * dx**i * dy**j / (math.factorial(i) * math.factorial(j))
    return float(total)


def test_taylor_poly_r0():
    d = corpus_lookup("quad").derivative_provider
    node = Point2D(0.3, 0.7)
    assert taylor_poly(d, node, Point2D(0.9, 2.0), 0) == pytest.approx(
        0.3**2 + 0.7**2
    )


def test_taylor_poly_linear_exact():
    d = corpus_lookup("linear").derivative_provider
    for node in (Point2D(0.0, 0.0), Point2D(0.8, 3.0)):
        assert taylor_poly(d, node, Point2D(0.25, 1.5), 1) == pytest.approx(1.75)


def test_taylor_poly_degree3_exact():
    d = _monomial_derivs(2, 1)
    val = taylor_poly(d, Point2D(0.5, 1.0), Point2D(0.3, 1.4), 3)
    assert val == pytest.approx(0.3**2 * 1.4, abs=1e-12)


def test_taylor_poly_order_error():
    d = PartialDerivativeSet(order=1, eval=lambda i, j, x, y: 0.0)
    with pytest.raises(DomainError):
        taylor_poly(d, Point2D(0.1, 0.1), Point2D(0.2, 0.2), 2)


def test_apply_rth_r0_reduction():
    rng = np.random.default_rng(21)
    entries = [corpus_lookup(n) for n in ("smooth", "prod", "quad")]
    for k in range(30):
        e = entries[k % 3]
        b1, b2 = rng.random(2) * 3
        params = StancuParams(rng.random() * b1, b1, rng.random() * b2, b2)
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 31))
        p = Point2D(float(rng.random()), float(rng.random() * 3))
        a = apply_rth(e.derivative_provider, params, m, n, 0, p, TIGHT)
        b = apply(e.function, params, m, n, p, TIGHT)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_apply_rth_polynomial_exactness():
    rng = np.random.default_rng(22)
    policy = TruncationPolicy(1e-12)
    for r in (1, 2, 3):
        for a in range(r + 1):
            b = r - a
            d = _monomial_derivs(a, b)
            params = StancuParams(0.5, 1.0, 0.5, 1.0)
            m = int(rng.integers(2, 51))
            n = int(rng.integers(2, 51))
            p = Point2D(float(rng.random()), float(rng.random() * 2))
            band, _, lo = szasz_band_matrix(n, [p.y], policy)
            K = lo + band.shape[1] - 1
            tol = 10 * policy.tail_tol * (1.0 + (K / n + 1.0) ** 3)
            got = apply_rth(d, params, m, n, r, p, policy)
            assert abs(got - p.x**a * p.y**b) <= tol


SMOOTH_PROVIDERS = {  # the factored route, and the table route of an eval
    "factors": corpus_lookup("smooth").derivative_provider,
    "eval": PartialDerivativeSet(eval=PARTIALS["smooth"], source="smooth_eval"),
}


@pytest.mark.parametrize("route", SMOOTH_PROVIDERS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_apply_rth_against_direct_summation_oracle(r, route):
    """Independent brute-force evaluation of the order-r sum, node by node,
    with each Taylor coefficient over i! j!; at r >= 3 the weights' 1/3! and
    1/4! round where the oracle's do not."""
    derivs = SMOOTH_PROVIDERS[route]
    params = StancuParams(0.5, 1.5, 0.5, 1.5)
    m = n = 20
    p = Point2D(0.5, 0.5)
    got = apply_rth(derivs, params, m, n, r, p, TIGHT)

    wx = binom.pmf(np.arange(m + 1), m, p.x)
    wy = poisson.pmf(np.arange(80), n * p.y)  # mass past k = 80 below 1e-30
    total = 0.0
    for nu in range(m + 1):
        tx = (nu + params.alpha1) / (m + params.beta1)
        for k in range(len(wy)):
            ty = (k + params.alpha2) / (n + params.beta2)
            total += wx[nu] * wy[k] * taylor_poly(derivs, Point2D(tx, ty), p, r)
    assert got == pytest.approx(total, abs=1e-13)  # 1.6e-15 the largest seen


POLYNOMIAL_DEGREES = {"const1": 0, "linear": 1, "prod": 2, "quad": 2}


@pytest.mark.parametrize("name", POLYNOMIAL_DEGREES)
def test_apply_rth_reproduces_polynomials_at_points_and_on_lattices(name):
    """L_r f = f for f of degree <= r: each node's Taylor polynomial is f.

    Points on the edges x in {0, 1} and y = 0, and alpha = beta, included;
    the tight policy keeps the dropped Poisson mass below 1e-14."""
    entry = corpus_lookup(name)
    f, derivs = entry.function, entry.derivative_provider
    xs, ys = np.array([0.0, 0.25, 0.6, 1.0]), np.array([0.0, 0.4, 1.7, 3.0])
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.5), (1.0, 1.3), (0.37, 0.0), (0.62, 3.1)]
    for r in range(POLYNOMIAL_DEGREES[name], 4):
        for params in (StancuParams(), StancuParams(0.5, 0.5, 1.5, 1.5),
                       StancuParams(0.3, 1.2, 0.0, 2.0)):
            for m, n in ((1, 1), (7, 12), (60, 40)):
                got = apply_rth_on_grid(derivs, params, m, n, r, xs, ys, TIGHT)
                want = evaluate(f, xs[:, None], ys[None, :])
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))
                for x, y in points:
                    got = apply_rth(derivs, params, m, n, r, Point2D(x, y), TIGHT)
                    want = float(evaluate(f, x, y))
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def peak_of(call):
    """call()'s value and its peak traced allocation, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constant_and_zero_partials_build_no_node_table():
    """The table route, a provider without factors: f = 1 at r = 3 has one
    constant partial and nine zero ones, each called once, and no array the
    size of the point's node table is allocated.  Nor is one on the factored
    route, by f = 1's own provider or by the operator itself (the order-0
    sweep).  quad at r = 2 on the table route: its three partials of order 2
    are scalars.  Last, a constant f without factors on a blocked lattice."""
    calls = []
    const = corpus_lookup("const1").derivative_provider

    def counted(i, j, x, y):
        calls.append((i, j))
        return const.eval(i, j, x, y)

    derivs = PartialDerivativeSet(order=3, eval=counted, source="counted")
    p = Point2D(0.37, 5.0)
    m = n = 2000  # a band of 558 x 1,912 nodes: an 8 MB node table
    value, peak = peak_of(lambda: calls.clear() or apply_rth(
        derivs, StancuParams(), m, n, 3, p))
    assert sorted(calls) == sorted((h - j, j) for h in range(4) for j in range(h + 1))
    f = corpus_lookup("const1").function
    for value, peak in ((value, peak),
                        peak_of(lambda: apply_rth(const, StancuParams(), m, n, 3, p)),
                        peak_of(lambda: apply_on_grid(f, StancuParams(), m, n,
                                                      [p.x], [p.y])[0, 0])):
        assert abs(value - 1.0) <= 1e-11
        assert peak < 2**20
    # quad at r = 2: its constant and zero partials are scalars too, (1, 1)
    # the scalar 0.0, so only (0, 0), (1, 0) and (0, 1) give node tables
    quad, ndims = corpus_lookup("quad").derivative_provider, []

    def shaped(i, j, x, y):
        out = quad.eval(i, j, x, y)
        ndims.append(((i, j), np.ndim(out)))
        return out

    derivs = PartialDerivativeSet(order=2, eval=shaped, source="shaped")
    value = apply_rth(derivs, StancuParams(), m, n, 2, p)
    assert sorted(ndims) == [((0, 0), 2), ((0, 1), 2), ((0, 2), 0), ((1, 0), 2),
                             ((1, 1), 0), ((2, 0), 0)]
    assert abs(value - (p.x**2 + p.y**2)) <= 1e-11 * (p.x**2 + p.y**2)
    # a constant f without factors on a lattice cut into blocks: the pair
    # (2.5, 1), not a node table of 2,001 x 10,753 nodes (172 MB)
    xs, ys = lattice(5.0, 201)
    (_, xb, tx), (_, yb, ty) = blocked_bands(StancuParams(), m, n, xs, ys)
    assert len(xb) > 1 and len(yb) > 1
    value, peak = peak_of(lambda: apply_on_grid(Function2D(lambda x, y: 2.5),
                                                StancuParams(), m, n, xs, ys))
    assert np.all(np.abs(value - 2.5) <= 1e-11)
    assert peak < len(tx) * len(ty) * 8 / 16


def order_zero(f):
    """A provider whose only partial, (0, 0), is f."""
    return PartialDerivativeSet(eval=lambda i, j, x, y: f.eval(x, y), order=0)


@pytest.mark.parametrize("name", ["smooth", "holder_half", "const1"])
@pytest.mark.parametrize("G", [1, 32, 33, 201])
def test_order_zero_is_the_operator_bit_for_bit(G, name):
    """L_0 of a provider without factors, whose only partial is f's eval, is
    the operator of f without its factors: the same table route, with the
    same blocks (at m = n = 640, 2 in x and 3 in y on 32 and 33 points, 5 and
    8 on 201), operands and bits."""
    f = corpus_lookup(name).function
    params = StancuParams(0.3, 0.9, 0.1, 0.4)
    xs, ys = lattice(3.0, G) if G > 1 else (np.array([0.37]), np.array([1.3]))
    derivs = order_zero(f)
    assert not derivs.factors
    want = apply_on_grid(dataclasses.replace(f, factors=()), params, 640, 640, xs, ys)
    assert np.array_equal(apply_rth_on_grid(derivs, params, 640, 640, 0, xs, ys), want)


def single_band_rth(derivs, params, m, n, r, xs, ys):
    """L_r on xs x ys over one band per axis, and the sum over its terms of
    |X_i| @ |C| @ |Y_j|.T, X_i = WX dx^i / i! and Y_j = WY dy^j / j!, which
    bounds every partial sum of the terms."""
    WX, WY, tx, ty = single_band(params, m, n, xs, ys)
    dx, dy = xs[:, None] - tx[None, :], ys[:, None] - ty[None, :]
    want, size = np.zeros((len(xs), len(ys))), np.zeros((len(xs), len(ys)))
    for h in range(r + 1):
        for j in range(h + 1):
            i = h - j
            C = np.broadcast_to(derivs.eval(i, j, tx[:, None], ty[None, :]),
                                (len(tx), len(ty)))
            X, Y = WX * dx**i / math.factorial(i), WY * dy**j / math.factorial(j)
            want += X @ C @ Y.T
            size += np.abs(X) @ np.abs(C) @ np.abs(Y).T
    return want, size


@pytest.mark.parametrize("r", [1, 2])
def test_blocked_order_r_agrees_with_the_single_band(r):
    """At m = n = 640 each axis of the 101-point lattice is cut into four
    blocks; rows normalized over their block's band agree with one band per
    axis to 1e-14 relative plus 8 eps times the size of the terms."""
    derivs = corpus_lookup("smooth").derivative_provider
    params = StancuParams(0.5, 1.5, 0.25, 1.0)
    xs, ys = lattice(2.0, 101)
    got = apply_rth_on_grid(derivs, params, 640, 640, r, xs, ys)
    want, size = single_band_rth(derivs, params, 640, 640, r, xs, ys)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 8 * eps * size)


@pytest.mark.parametrize("r", [-1, -2, 1.5])
def test_order_must_be_a_non_negative_integer(r):
    derivs = corpus_lookup("smooth").derivative_provider
    with pytest.raises(DomainError, match=f"r must be an integer >= 0, got r={r}"):
        apply_rth_on_grid(derivs, StancuParams(), 10, 10, r, [0.3], [0.7])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(r=st.one_of(st.integers(0, 4), st.integers(0, 4).map(np.int64), st.booleans(),
                   st.floats(allow_nan=True), st.integers(0, 4).map(float)))
@example(r=10.5)
@example(r=10.0)
@example(r=True)
@example(r=np.int64(10))
def test_the_order_must_be_an_integer(r):
    """r = True once ran as r = 1; a numpy integer is an order like its int."""
    derivs, p = corpus_lookup("quad").derivative_provider, Point2D(0.3, 0.7)
    if isinstance(r, (int, np.integer)) and not isinstance(r, bool):
        assert apply_rth(derivs, StancuParams(), 10, 10, r, p) == apply_rth(
            derivs, StancuParams(), 10, 10, int(r), p)
        return
    for call in (lambda: apply_rth(derivs, StancuParams(), 10, 10, r, p),
                 lambda: f_rth_lipschitz_estimate(derivs, r, 1.0, CompactRegion(1.0))):
        with pytest.raises(DomainError, match=re.escape(f"r must be an integer >= 0, "
                                                        f"got r={r}")):
            call()


def test_provider_result_that_does_not_broadcast_is_named():
    for wrong in (lambda x, y: np.ones(1000),  # matches no band axis
                  lambda x, y: np.ones((2,) + np.broadcast(x, y).shape)):
        derivs = PartialDerivativeSet(
            order=2, eval=lambda i, j, x, y: wrong(x, y) if (i, j) == (1, 0) else 0.0,
            source="wrong_shape")
        for call in (
            lambda: apply_rth(derivs, StancuParams(), 10, 10, 2, Point2D(0.3, 0.7)),
            lambda: apply_rth_on_grid(derivs, StancuParams(), 10, 10, 2,
                                      [0.0, 1.0], [0.0, 2.0]),
        ):
            with pytest.raises(RuntimeError, match=r"^evaluation of partial \(1, 0\) "
                                                   r"of wrong_shape failed on shape"):
                call()


def test_fd_stencil_weights_classical():
    assert np.allclose(fd_stencil_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2),
                       [1.0, -2.0, 1.0])
    assert np.allclose(fd_stencil_weights(0.0, np.array([-1.0, 0.0, 1.0]), 1),
                       [-0.5, 0.0, 0.5])


def test_fd_mixed_partial():
    f = corpus_lookup("prod").function
    d = finite_difference_derivs(f, 2, h=1e-3)
    assert abs(d.eval(1, 1, 0.5, 1.0) - 1.0) <= 1e-5


def test_fd_linear_exact():
    f = corpus_lookup("linear").function
    d = finite_difference_derivs(f, 1, h=0.05)
    assert d.eval(1, 0, 0.3, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert d.eval(0, 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_fd_identity_at_order_zero():
    f = corpus_lookup("quad").function
    d = finite_difference_derivs(f, 2)
    assert d.eval(0, 0, 0.37, 1.21) == f.eval(0.37, 1.21)


def test_fd_boundary_stencils():
    f = corpus_lookup("quad").function
    d = finite_difference_derivs(f, 2, h=1e-4)
    assert d.eval(2, 0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-4)
    assert d.eval(2, 0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-4)
    assert d.eval(0, 2, 0.5, 0.0) == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
def test_fd_step_must_be_finite_and_positive(h):
    with pytest.raises(DomainError, match="h must be finite and > 0"):
        finite_difference_derivs(corpus_lookup("quad").function, 2, h=h)


def test_fd_convergence_order():
    f = corpus_lookup("smooth").function
    exact = corpus_lookup("smooth").derivative_provider
    hs = [1e-2, 5e-3, 2.5e-3]
    errs = []
    for h in hs:
        d = finite_difference_derivs(f, 2, h=h)
        errs.append(abs(d.eval(1, 1, 0.4, 0.9) - exact.eval(1, 1, 0.4, 0.9)))
    slope = (math.log(errs[0]) - math.log(errs[-1])) / (
        math.log(hs[0]) - math.log(hs[-1])
    )
    assert slope >= 1.9


def test_directional_derivative_linear():
    # F'(u) = a + b along every segment: a constant, so M = 0
    d = corpus_lookup("linear").derivative_provider
    for gamma, A in ((1.0, 1.0), (0.5, 3.0)):
        w = f_rth_lipschitz_estimate(d, 1, gamma, CompactRegion(A), 400, seed=9)
        assert w.M_estimate == pytest.approx(0.0, abs=1e-12)


def test_directional_derivative_quad():
    # F'(u) = 2 (a x + b y) changes by exactly 2 u along a unit segment, and
    # F''(u) = 2 (a^2 + b^2) = 2 in every direction
    d = corpus_lookup("quad").derivative_provider
    region = CompactRegion(2.0)
    w = f_rth_lipschitz_estimate(d, 1, 1.0, region, 400, seed=9)
    assert w.M_estimate == pytest.approx(2.0, abs=1e-12)
    w = f_rth_lipschitz_estimate(d, 2, 1.0, region, 400, seed=9)
    assert w.M_estimate == pytest.approx(0.0, abs=1e-12)


def no_x_partials(i, j, x, y):
    if i:
        raise ArithmeticError("no x-partials")
    return np.exp(x) + 0.0 * np.asarray(y)


def test_failing_provider_is_named_with_its_partial():
    scalar_only = PartialDerivativeSet(
        order=1, eval=lambda i, j, x, y: math.exp(x) + 0.0 * y, source="scalar_only")
    with pytest.raises(RuntimeError, match=r"^evaluation of partial \(0, 0\) of "
                                           r"scalar_only failed on shape \(11, "):
        apply_rth(scalar_only, StancuParams(), 10, 10, 1, Point2D(0.3, 0.7))
    broken = PartialDerivativeSet(order=1, eval=no_x_partials, source="no_x")
    for call in (
        lambda: apply_rth(broken, StancuParams(), 10, 10, 1, Point2D(0.3, 0.7)),
        lambda: f_rth_lipschitz_estimate(broken, 1, 1.0, CompactRegion(1.0)),
    ):
        with pytest.raises(RuntimeError, match=r"partial \(1, 0\) of no_x") as info:
            call()
        assert isinstance(info.value.__cause__, ArithmeticError)


def test_taylor_matches_directional_maclaurin():
    # the nodal Taylor value along p = node + u * dir matches the degree-r
    # Maclaurin polynomial in u of F(u) = f(node + u * dir)
    e = corpus_lookup("smooth")
    node = Point2D(0.4, 0.6)
    d = (0.6, 0.8)
    u = 0.25
    p = Point2D(node.x + u * d[0], node.y + u * d[1])
    r = 3
    got = taylor_poly(e.derivative_provider, node, p, r)
    want = 0.0
    for h in range(r + 1):
        fh = _directional(e.derivative_provider, h, node.x, node.y, *d)
        want += fh * u**h / math.factorial(h)
    assert got == pytest.approx(want, abs=1e-12)


def test_f_rth_lipschitz_polynomial_degree_r():
    # for f of total degree r the r-th directional derivative is constant
    d = corpus_lookup("linear").derivative_provider
    w = f_rth_lipschitz_estimate(d, 1, 1.0, CompactRegion(1.0), samples=300, seed=0)
    assert w.M_estimate == pytest.approx(0.0, abs=1e-12)


def test_f_rth_lipschitz_quad():
    d = corpus_lookup("quad").derivative_provider
    w = f_rth_lipschitz_estimate(d, 1, 1.0, CompactRegion(1.0), samples=500, seed=1)
    assert w.M_estimate == pytest.approx(2.0, abs=1e-9)
