"""Tests for the bivariate operator, its 1-D edge cases and moments."""

from fractions import Fraction
import math
import re

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    DEFAULT_POLICY,
    CompactRegion,
    DomainError,
    Function2D,
    KernelFamily,
    Point2D,
    StancuParams,
    TruncationPolicy,
    apply,
    deltas,
    moments_closed_form,
    second_central_moment,
    check_theorem_3_3,
    corpus_lookup,
    second_central_moment_grid,
    operator_rho_norm_bound,
    square_gap_grid,
)
from poslinops import operators
from poslinops.basis import TruncationError, band_blocks, szasz_band_matrix
from poslinops.bounds import sup_distance_power_operator
from poslinops.operators import (
    apply_on_grid,
    blocked_bands,
    eval_grid,
    evaluate,
    lattice,
    lattice_error,
    sample_lattice,
)
from poslinops.taylor import apply_rth_on_grid

from paper_formulas import korovkin_gaps
from single_band import single_band as single_band_weights

TIGHT = TruncationPolicy(1e-14)
EPS = Fraction(2) ** -52


def f2(expr, name="f", **kw):
    return Function2D(eval=expr, name=name, **kw)


def random_params(rng, cap=3.0):
    b1, b2 = rng.random(2) * cap
    return StancuParams(rng.random() * b1, b1, rng.random() * b2, b2)


def test_apply_constant_is_one():
    f = f2(lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))))
    params = StancuParams(0.7, 1.3, 0.2, 2.0)
    val = apply(f, params, 7, 13, Point2D(0.3, 2.7), TIGHT)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_apply_reproduces_x_mean():
    f = f2(lambda t, tau: t + 0.0 * tau)
    val = apply(f, StancuParams(), 12, 5, Point2D(0.5, 1.3), TIGHT)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_apply_separable_product():
    f = f2(lambda t, tau: t * tau)
    val = apply(f, StancuParams(), 10, 10, Point2D(0.5, 1.0), TIGHT)
    assert val == pytest.approx(0.5, abs=1e-10)


def stancu_1d(g, m, x, alpha=0.0, beta=0.0):
    """The 1-D Stancu operator of g at x: the operator on the edge y = 0."""
    f = f2(lambda t, tau: g(t))
    return apply(f, StancuParams(alpha, beta, 0.0, 0.0), m, 1, Point2D(x, 0.0))


def szasz_1d(g, n, y, policy):
    """The 1-D Szasz operator of g at y: the operator on the edge x = 0."""
    f = f2(lambda t, tau: g(tau))
    return apply(f, StancuParams(), 1, n, Point2D(0.0, y), policy)


def test_apply_1d_bernstein():
    assert stancu_1d(lambda t: 3.0, 9, 0.42) == pytest.approx(3.0, abs=1e-13)
    assert stancu_1d(lambda t: t, 9, 0.42) == pytest.approx(0.42, abs=1e-14)
    assert stancu_1d(lambda t: t * t, 10, 0.5) == pytest.approx(0.275)


def test_apply_1d_szasz():
    assert szasz_1d(lambda t: 2.5, 4, 1.7, TIGHT) == pytest.approx(2.5, abs=1e-12)
    assert szasz_1d(lambda t: t, 4, 1.7, TIGHT) == pytest.approx(1.7, abs=1e-10)
    assert szasz_1d(lambda t: t * t, 20, 1.0, TIGHT) == pytest.approx(
        1.05, abs=1e-9
    )


def test_apply_1d_stancu():
    assert stancu_1d(lambda t: 1.0, 10, 0.3, 1.0, 2.0) == pytest.approx(1.0)
    assert stancu_1d(lambda t: t, 10, 0.5, 1.0, 2.0) == pytest.approx(0.5)


def test_moments_classical():
    mom = moments_closed_form(StancuParams(), 10, 20, Point2D(0.3, 1.5))
    assert mom.one == 1.0
    assert mom.t == pytest.approx(0.3)
    assert mom.tau == pytest.approx(1.5)
    assert mom.t2_plus_tau2 == pytest.approx(
        0.09 + 0.3 * 0.7 / 10 + 2.25 + 1.5 / 20
    )


def test_moments_shifted_example():
    params = StancuParams(1, 2, 1, 2)
    mom = moments_closed_form(params, 10, 10, Point2D(0.5, 1.0))
    assert mom.t == pytest.approx(0.5)
    assert mom.tau == pytest.approx(11.0 / 12.0)
    assert mom.t2_plus_tau2 == pytest.approx(38.5 / 144 + 131.0 / 144)


def test_moments_match_summation_oracle():
    rng = np.random.default_rng(7)
    monomials = [
        f2(lambda t, tau: np.ones(np.broadcast_shapes(np.shape(t), np.shape(tau)))),
        f2(lambda t, tau: t + 0.0 * tau),
        f2(lambda t, tau: tau + 0.0 * t),
        f2(lambda t, tau: t * t + tau * tau),
    ]
    for _ in range(20):
        params = random_params(rng)
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        p = Point2D(float(rng.random()), float(rng.random() * 5.0))
        mom = moments_closed_form(params, m, n, p)
        closed = [mom.one, mom.t, mom.tau, mom.t2_plus_tau2]
        for f, want in zip(monomials, closed):
            assert apply(f, params, m, n, p, TIGHT) == pytest.approx(want, abs=1e-9)


def test_second_central_moment_classical():
    val = second_central_moment(StancuParams(), 10, 10, Point2D(0.5, 1.0))
    assert val == pytest.approx(0.125)


def test_second_central_moment_oracle():
    # the closed form, not the spec example's arithmetic, matches the
    # direct double summation
    params = StancuParams(1, 2, 1, 2)
    p = Point2D(0.5, 1.0)
    g = f2(lambda t, tau: (t - p.x) ** 2 + (tau - p.y) ** 2)
    direct = apply(g, params, 10, 10, p, TIGHT)
    assert second_central_moment(params, 10, 10, p) == pytest.approx(
        direct, abs=1e-10
    )


@pytest.mark.parametrize("y", [1e-300, 1e-3, 1.0, 1e4, 1e8, 1e12, 1e153])
@pytest.mark.parametrize("m, n, x", [(10, 10, 0.5), (7, 3, 0.3), (1000, 1, 0.999),
                                     (1, 5000, 0.0), (64, 65, 1.0)])
def test_second_central_moment_without_cancellation(m, n, x, y):
    # at alpha = beta = 0 the moment is x(1-x)/m + y/n
    want = x * (1.0 - x) / m + y / n
    got = second_central_moment(StancuParams(), m, n, Point2D(x, y))
    assert abs(got - want) <= 1e-14 * want
    grid = second_central_moment_grid(StancuParams(), m, n, [0.25, x], [y, 2.0])
    assert grid[1, 0] == got


def test_second_central_moment_point_equals_grid_bits():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        params = random_params(rng)
        m, n = (int(v) for v in rng.integers(1, 5001, 2))
        p = Point2D(float(rng.random()), float(10.0 ** rng.uniform(-3.0, 160.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            grid = second_central_moment_grid(params, m, n, [p.x], [p.y])[0, 0]
        if np.isfinite(grid):
            assert second_central_moment(params, m, n, p) == grid
        else:
            with np.errstate(over="ignore"), pytest.raises(
                    DomainError, match="^y must give finite moments"):
                second_central_moment(params, m, n, p)


@pytest.mark.parametrize("axis", [1, 2])
def test_overflowing_beta_raises_naming_it(axis):
    # (m + beta)^2 overflows past beta ~ 1.3e154
    params = StancuParams(**{f"alpha{axis}": 1e300, f"beta{axis}": 1e300})
    p = Point2D(0.5, 1.0)
    for moment in (lambda: moments_closed_form(params, 10, 10, p),
                   lambda: second_central_moment(params, 10, 10, p),
                   lambda: second_central_moment_grid(params, 10, 10, [0.5], [1.0]),
                   lambda: square_gap_grid(params, 10, 10, [0.5], [1.0])):
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match=f"^beta{axis} must give finite moments"):
            moment()


@pytest.mark.parametrize("m, n, name", [(0, 10, "m"), (-1, 10, "m"), (-3, 5, "m"),
                                        (10, 0, "n"), (10, -2, "n")])
def test_closed_forms_reject_degrees_below_one(m, n, name):
    # below 1 the closed forms divide by zero or give a negative moment
    p, region, params = Point2D(0.5, 1.0), CompactRegion(1.0), StancuParams()
    degree = m if name == "m" else n
    for closed_form in (lambda: moments_closed_form(params, m, n, p),
                        lambda: second_central_moment(params, m, n, p),
                        lambda: second_central_moment_grid(params, m, n, [0.5], [1.0]),
                        lambda: square_gap_grid(params, m, n, [0.5], [1.0]),
                        lambda: deltas(m, n, params, region),
                        lambda: operator_rho_norm_bound(params, m, n, region, 5)):
        with pytest.raises(DomainError,
                           match=f"^degree {name} must be >= 1, got {degree}$"):
            closed_form()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(axis=st.sampled_from("mn"), degree=st.one_of(
    st.integers(1, 400), st.integers(1, 400).map(np.int64), st.booleans(),
    st.floats(allow_nan=True), st.integers(1, 400).map(float)))
@example(axis="m", degree=10.5)
@example(axis="n", degree=10.5)
@example(axis="m", degree=10.0)
@example(axis="m", degree=True)
@example(axis="n", degree=True)
@example(axis="m", degree=np.int64(10))
@example(axis="n", degree=np.int64(10))
def test_a_degree_must_be_an_integer(axis, degree):
    """m = 10.5 once failed with a bare TypeError from a slice, n = 10.5 gave a
    value and m = True ran as 1; a numpy integer is a degree like its int."""
    f, p, params = corpus_lookup("smooth").function, Point2D(0.3, 0.7), StancuParams()
    degrees = {"m": 10, "n": 10, axis: degree}
    if isinstance(degree, (int, np.integer)) and not isinstance(degree, bool):
        want = apply(f, params, **{**degrees, axis: int(degree)}, p=p)
        assert apply(f, params, **degrees, p=p) == want
        return
    match = re.escape(f"degree {axis} must be an integer, got {degree!r}")
    for call in (lambda: apply(f, params, **degrees, p=p),
                 lambda: moments_closed_form(params, **degrees, p=p)):
        with pytest.raises(DomainError, match=f"^{match}$"):
            call()


def test_second_central_moment_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(30):
        params = random_params(rng)
        p = Point2D(float(rng.random()), float(rng.random() * 5.0))
        assert second_central_moment(
            params, int(rng.integers(1, 100)), int(rng.integers(1, 100)), p
        ) >= 0.0


def test_korovkin_gaps_classical_params():
    gaps = korovkin_gaps(StancuParams(), 20, 20, CompactRegion(1.0))
    assert gaps[0] == 0.0
    assert gaps[1] <= 1e-15
    assert gaps[2] <= 1e-14
    assert gaps[3] > 0.0


def test_korovkin_gap_t_closed_form():
    gaps = korovkin_gaps(StancuParams(1, 2, 1, 2), 160, 160, CompactRegion(1.0))
    assert gaps[1] == pytest.approx(1.0 / 162.0, rel=1e-12)


SQUARE_GAP_PARAMS = (StancuParams(), StancuParams(0.5, 0.5, 1.5, 1.5),
                     StancuParams(0.3, 1.2, 0.7, 2.0), StancuParams(1, 2, 1, 2))


def test_square_gap_grid_is_korovkin_gaps_fourth_gap():
    # the oracle subtracts x^2 + y^2 from the raw second moments, so it is
    # off by a few ulps of 1 + A^2
    for params in SQUARE_GAP_PARAMS:
        for m, n, A, G in ((1, 1, 1.0, 5), (20, 20, 1.0, 201), (160, 40, 3.0, 51)):
            gap = square_gap_grid(params, m, n, *lattice(A, G))
            want = korovkin_gaps(params, m, n, CompactRegion(A), G)[3]
            assert abs(float(np.max(np.abs(gap))) - want) <= 8e-16 * (1.0 + A * A)


def exact_axis_gap(var, v, alpha, beta, degree):
    """L(t^2) - v^2 on one axis in exact arithmetic, and the sum of the
    magnitudes of its two terms var/(degree + beta)^2 and e (e + 2v)."""
    v, alpha, beta = Fraction(v), Fraction(alpha), Fraction(beta)
    e = (alpha - beta * v) / (degree + beta)
    terms = (var(v) / (degree + beta) ** 2, e * (e + 2 * v))
    mean = (degree * v + alpha) / (degree + beta)
    raw = var(v) / (degree + beta) ** 2 + mean * mean - v * v
    assert raw == sum(terms)
    return raw, abs(terms[0]) + abs(terms[1])


def exact_axis_central(var, v, alpha, beta, degree):
    """L((s - v)^2) on one axis in exact arithmetic, from the raw moments of
    the node index k, E k = degree v and E k^2 = var(v) + (degree v)^2, with
    the node s = (k + alpha) / (degree + beta)."""
    v, alpha, beta = Fraction(v), Fraction(alpha), Fraction(beta)
    mean_k = degree * v
    mean_s = (mean_k + alpha) / (degree + beta)
    mean_s2 = (var(v) + mean_k * mean_k + 2 * alpha * mean_k + alpha * alpha) / (
        degree + beta) ** 2
    return mean_s2 - 2 * v * mean_s + v * v


@pytest.mark.parametrize("params", SQUARE_GAP_PARAMS)
@pytest.mark.parametrize("m, n", [(10, 10), (1000, 1000), (1, 7), (300, 1)])
def test_second_central_moment_is_exact_to_rounding(params, m, n):
    """Each axis's central moment is (var + d^2)/(deg + beta)^2, d = alpha -
    beta v, a sum of non-negative terms: a few ulps of the exact value on both
    axes, alpha = beta included, up to y = 1e15; the point value is the grid's."""
    xs = [0.0, 0.1, 0.5, 0.75, 1.0]
    ys = [0.0, 1e-3, 0.5, 1.0, 7.0, 1e4, 1e8, 1e10, 1e12, 1e15]
    got = second_central_moment_grid(params, m, n, xs, ys)
    for i, x in enumerate(xs):
        cx = exact_axis_central(lambda v: m * v * (1 - v), x, params.alpha1,
                                params.beta1, m)
        for j, y in enumerate(ys):
            cy = exact_axis_central(lambda v: n * v, y, params.alpha2,
                                    params.beta2, n)
            assert abs(Fraction(got[i, j]) - (cx + cy)) <= 8 * EPS * (cx + cy)
            assert second_central_moment(params, m, n, Point2D(x, y)) == got[i, j]


@pytest.mark.parametrize("params", SQUARE_GAP_PARAMS)
@pytest.mark.parametrize("m, n", [(10, 10), (1000, 1000), (1, 7), (300, 1)])
def test_square_gap_grid_is_exact_to_rounding(params, m, n):
    """Each axis's gap is var/(deg + beta)^2 + e (e + 2v), e = E t - v: no
    digits cancel, so the error is a few ulps of its terms, up to y = 1e15
    (at alpha = beta = 0 that is x(1-x)/m + y/n, which the raw moments lost
    to cancellation: 2.81e14 for 1.0e14 at m = n = 10, x = 0.5, y = 1e15)."""
    xs = [0.0, 0.1, 0.5, 0.75, 1.0]
    ys = [0.0, 1e-3, 0.5, 1.0, 7.0, 1e4, 1e8, 1e10, 1e12, 1e15]
    got = square_gap_grid(params, m, n, xs, ys)
    for i, x in enumerate(xs):
        gx, sx = exact_axis_gap(lambda v: m * v * (1 - v), x, params.alpha1,
                                params.beta1, m)
        for j, y in enumerate(ys):
            gy, sy = exact_axis_gap(lambda v: n * v, y, params.alpha2,
                                    params.beta2, n)
            assert abs(Fraction(got[i, j]) - (gx + gy)) <= 8 * EPS * (sx + sy)


def test_square_gap_grid_matches_the_operator_on_quad():
    """L(t^2 + tau^2) - (x^2 + y^2) from apply_on_grid, within the Poisson
    tail: a row that drops mass tail past its last node tau_K moves L(quad)
    by about tail * tau_K^2 (10x that is allowed), plus rounding."""
    quad = f2(lambda t, tau: t * t + tau * tau, name="quad")
    xs, ys = lattice(3.0, 7)
    for params in SQUARE_GAP_PARAMS:
        for m, n in ((1, 1), (7, 12), (60, 40), (300, 500)):
            got = apply_on_grid(quad, params, m, n, xs, ys)
            got -= xs[:, None] ** 2 + ys[None, :] ** 2
            W, tail, lo = szasz_band_matrix(n, ys)
            tau_K = (lo + W.shape[1] - 1 + params.alpha2) / (n + params.beta2)
            tol = 10 * tail * (1 + tau_K**2) + 1e-13 * (1 + ys**2)
            assert np.all(np.abs(got - square_gap_grid(params, m, n, xs, ys)) <= tol)


def test_korovkin_gaps_decrease():
    params = StancuParams(1, 2, 1, 2)
    region = CompactRegion(1.0)
    prev = None
    for m in (10, 20, 40, 80, 160):
        gaps = korovkin_gaps(params, m, m, region)
        if prev is not None:
            for a, b in zip(gaps, prev):
                assert a <= b + 1e-15
        prev = gaps


unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
OPERATOR_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=100)


@st.composite
def operator_points(draw):
    """A family, parameters (alpha = beta drawn too), m, n <= 200 and a point
    with n*y <= 1e3, the edges x in {0, 1} and y = 0 drawn too."""
    family = draw(st.sampled_from(list(KernelFamily)))
    m, n = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    x = draw(unit_x)
    if family is KernelFamily.BERNSTEIN_SZASZ:
        y = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))) / n
    else:
        y = draw(unit_x)
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    return family, StancuParams(a1, b1, a2, b2), m, n, Point2D(x, y)


def apply_in(family, f, params, m, n, p, policy=TIGHT):
    """The operator of the given y-family at the point p: apply_on_grid on the
    one-point grid, which is what apply computes for the Szasz family."""
    return float(apply_on_grid(f, params, m, n, [p.x], [p.y], policy, family)[0, 0])


FIXED_POINT = (KernelFamily.BERNSTEIN_SZASZ, StancuParams(0.5, 1.0, 0.5, 1.0), 15, 15,
               Point2D(0.4, 0.8))


@OPERATOR_SETTINGS
@given(case=operator_points(), a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
@example(case=FIXED_POINT, a=-8.287016657127513, b=-5.263789868078006)
@example(case=FIXED_POINT, a=6.025489304127937, b=1.6432407212873557)
@example(case=FIXED_POINT, a=-8.117427155192017, b=-1.3374611952705244)
@example(case=FIXED_POINT, a=-0.41897403718331994, b=-6.805221707258429)
@example(case=FIXED_POINT, a=4.691543028184292, b=-7.726559601571932)
def test_linearity(case, a, b):
    family, params, m, n, p = case
    f = f2(lambda t, tau: np.sin(3 * t) + tau)
    g = f2(lambda t, tau: t * tau + 1.0)
    h = f2(lambda t, tau: a * (np.sin(3 * t) + tau) + b * (t * tau + 1))
    vf, vg = (apply_in(family, k, params, m, n, p) for k in (f, g))
    # f >= -1 and g >= 1, so |a| L|f| + |b| L|g| <= |a| (L f + 2) + |b| L g
    scale = abs(a) * (abs(vf) + 2.0) + abs(b) * abs(vg)
    got = apply_in(family, h, params, m, n, p)
    assert abs(got - (a * vf + b * vg)) <= 1e-11 * scale


@OPERATOR_SETTINGS
@given(case=operator_points(), c=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0),
       d=st.floats(0.0, 1.0), e=st.floats(0.0, 1.0))
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(1, 1, 1, 1), 12, 12,
               Point2D(0.6, 1.4)), c=0.1, s=0.0, d=0.1, e=0.0)
def test_positivity_and_monotonicity(case, c, s, d, e):
    """0 <= f <= g gives 0 <= L f <= L g."""
    family, params, m, n, p = case
    f = f2(lambda t, tau: t * t + c + s * np.sin(3 * tau) ** 2)
    g = f2(lambda t, tau: t * t + c + s * np.sin(3 * tau) ** 2 + d + e * t * tau)
    vf = apply_in(family, f, params, m, n, p)
    vg = apply_in(family, g, params, m, n, p)
    assert vf >= 0.0
    assert vf <= vg + 1e-12 * max(1.0, vg)


@OPERATOR_SETTINGS
@given(case=operator_points())
def test_constant_one_loses_at_most_the_tail(case):
    """L(1) in [1 - tail_tol - 4 eps, 1 + 4 eps]: only truncation drops mass."""
    family, params, m, n, p = case
    eps = np.finfo(float).eps
    one = apply_in(family, f2(lambda t, tau: 1.0), params, m, n, p)
    assert 1.0 - TIGHT.tail_tol - 4 * eps <= one <= 1.0 + 4 * eps


def test_bernstein_bernstein_family_reduces():
    f = f2(lambda t, tau: tau + 0.0 * t)
    params = StancuParams(1, 2, 0, 0)
    val = apply_in(KernelFamily.BERNSTEIN_BERNSTEIN, f, params, 9, 11,
                   Point2D(0.2, 0.7), DEFAULT_POLICY)
    assert val == pytest.approx(0.7, abs=1e-14)


def test_apply_on_grid_matches_pointwise():
    f = f2(lambda t, tau: np.exp(-tau) * (1 + t))
    params = StancuParams(0.3, 0.9, 0.1, 0.4)
    xs = [0.0, 0.5, 1.0]
    ys = [0.0, 0.8, 2.0]
    grid = apply_on_grid(f, params, 8, 9, xs, ys, TIGHT)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == pytest.approx(
                apply(f, params, 8, 9, Point2D(x, y), TIGHT), abs=1e-12
            )


WAVY = f2(lambda t, tau: np.sin(5.0 * t) * np.cos(tau) + t * tau / (1.0 + tau),
         name="wavy")


# WAVY declared by its factors: the factored route, for degrees whose node
# table would not fit in memory
WAVY_FACTORS = Function2D(name="wavy", factors=(
    (lambda t: np.sin(5.0 * t), np.cos), (lambda t: t, lambda tau: tau / (1.0 + tau))))


def single_band(f, params, m, n, xs, ys, family):
    """The operator on xs x ys with each axis's weights built as one band, and
    sup|f| over its nodes (for f with factors, sum_k sup|g_k| sup|h_k|, the
    scale of the factored route's rounding)."""
    WX, WY, tx, ty = single_band_weights(params, m, n, xs, ys, family=family)
    if f.factors:
        G, H = (np.column_stack([pair[axis](t) for pair in f.factors])
                for axis, t in ((0, tx), (1, ty)))
        sup_f = float(np.abs(G).max(axis=0) @ np.abs(H).max(axis=0))
        return (WX @ G) @ (WY @ H).T, sup_f
    F = eval_grid(f, tx, ty)  # contracted in the blocked sweep's order
    return (WY @ (WX @ F).T).T, float(np.max(np.abs(F)))


COARSE_SLACK = 8 * DEFAULT_POLICY.tail_tol  # 4 tail_tol (sup f - inf f) <= this sup|f|


@st.composite
def lattice_cases(draw):
    """A family, parameters, degrees up to 600 with n*A <= 3000, and G points
    per axis: the lattice of [0, 1] x [0, A] or points drawn in any order; or
    a coarse lattice (G <= 11, so x in {0, 1} and y = 0) at degrees up to
    10^5 with n*A <= 10^5.  Last, the truncation the blocked and single-band
    rows may differ by, per sup|f|: 0, or for a coarse lattice, whose blocks
    can hold a row over its own window only, the 4 tail_tol (sup f - inf f)
    of ``blocked_bands``."""
    family = draw(st.sampled_from(list(KernelFamily)))
    coarse = draw(st.booleans())
    m, n = (draw(st.integers(1, 10**5 if coarse else 600)) for _ in "mn")
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    A = 1.0
    if family is KernelFamily.BERNSTEIN_SZASZ:
        A = draw(st.floats(1e-3, (1e5 if coarse else 3000.0) / n))
    if coarse:
        xs, ys = lattice(A, draw(st.integers(2, 11)))
        return family, StancuParams(a1, b1, a2, b2), m, n, A, xs, ys, COARSE_SLACK
    G = draw(st.sampled_from([1, 2, 32, 33, 67, 201]))
    if G >= 2 and draw(st.booleans()):
        xs, ys = lattice(A, G)
    else:
        xs = np.array(draw(st.lists(unit_x, min_size=G, max_size=G)))
        ys = A * np.array(draw(st.lists(unit_x, min_size=G, max_size=G)))
    return family, StancuParams(a1, b1, a2, b2), m, n, A, xs, ys, 0.0


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(case=lattice_cases())
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(), 600, 600, 4.0,
               *lattice(4.0, 201), 0.0))
@example(case=(KernelFamily.BERNSTEIN_BERNSTEIN, StancuParams(1, 2, 0.5, 1.5), 600,
               600, 1.0, *lattice(1.0, 67), 0.0))
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(), 10**5, 10**5, 4.0,
               *lattice(4.0, 41), COARSE_SLACK))
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(), 1, 347, 30.0,
               *lattice(30.0, 2), COARSE_SLACK))  # the y = 30 row's left tail
def test_blocked_lattice_agrees_with_the_single_band(case):
    """Blocks, each normalized over its own band, agree with one band per axis
    to 1e-14 relative plus a few eps * sup|f| on the nodes, and the case's
    truncation slack; where the rule keeps each axis as one block, so does
    every bit.  Degrees past 600 take WAVY by its factors: its node table
    would not fit in memory."""
    family, params, m, n, A, xs, ys, slack = case
    f = WAVY if max(m, n) <= 600 else WAVY_FACTORS
    got = apply_on_grid(f, params, m, n, xs, ys, family=family)
    want, sup_f = single_band(f, params, m, n, xs, ys, family)
    assert got.shape == (len(xs), len(ys))
    poisson = family is KernelFamily.BERNSTEIN_SZASZ
    if len(band_blocks(m, xs, DEFAULT_POLICY, False)) == 1 == len(
            band_blocks(n, ys, DEFAULT_POLICY, poisson)):
        assert np.array_equal(got, want)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + (8 * eps + slack) * sup_f)
    if len(xs) >= 2 and poisson:
        lx, ly, F = sample_lattice(f, CompactRegion(A), len(xs))
        L = apply_on_grid(f, params, m, n, lx, ly)
        assert F.shape == L.shape == lattice_error(f, L, F).shape == (len(xs),) * 2


@OPERATOR_SETTINGS
@given(case=operator_points())
def test_apply_is_the_single_band_bit_for_bit(case):
    family, params, m, n, p = case
    want, _ = single_band(WAVY, params, m, n, [p.x], [p.y], family)
    assert apply_in(family, WAVY, params, m, n, p, DEFAULT_POLICY) == float(want[0, 0])
    if family is KernelFamily.BERNSTEIN_SZASZ:
        assert apply(WAVY, params, m, n, p) == float(want[0, 0])


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


def bad_x():
    xs, ys = lattice(1.0, 201)
    xs[40], xs[190] = 1.1, -0.5  # the first bad x is named
    return xs, ys, TruncationPolicy()


def bad_y():
    xs, ys = lattice(1.0, 201)
    ys[150], ys[190] = np.nan, -1.0
    return xs, ys, TruncationPolicy()


def inf_x():
    xs, ys = lattice(1.0, 201)
    xs[100] = np.inf  # an infinite spacing: the rule cuts one point per block
    return xs, ys, TruncationPolicy()


def inf_y():
    xs, ys = lattice(1.0, 201)
    ys[100] = np.inf  # cut, so the one-band Szasz check names it
    return xs, ys, TruncationPolicy()


def nan_x():
    xs, ys = lattice(1.0, 201)
    xs[100] = np.nan  # a NaN spacing: one block
    return xs, ys, TruncationPolicy()


def rate_past_the_cap():
    # n = 100: every row's window ends below column 420 but the last one's,
    # whose rate is 400; that row alone misses the target, by the Chernoff
    # bound past column 420
    xs, ys = lattice(1.0, 201)
    ys[-1] = 4.0
    return xs, ys, TruncationPolicy(max_terms=420)



@pytest.mark.parametrize("points, kind", [(bad_x, DomainError), (bad_y, DomainError),
                                          (inf_x, DomainError), (inf_y, DomainError),
                                          (nan_x, DomainError),
                                          (rate_past_the_cap, TruncationError)])
def test_bad_point_in_a_later_block_raises_as_the_single_band(points, kind):
    xs, ys, policy = points()
    got = raised(lambda: apply_on_grid(WAVY, StancuParams(), 100, 100, xs, ys, policy))
    want = raised(lambda: single_band_weights(StancuParams(), 100, 100, xs, ys, policy))
    assert type(got) is type(want) is kind
    assert str(got) == str(want)
    if kind is TruncationError:
        assert 0.0 < got.tail == want.tail < 1.0


SWEEPS = {
    "apply_on_grid": lambda m, xs, ys: apply_on_grid(WAVY, StancuParams(), m, m, xs, ys),
    "apply_rth_on_grid": lambda m, xs, ys: apply_rth_on_grid(
        corpus_lookup("smooth").derivative_provider, StancuParams(), m, m, 1, xs, ys),
    "sup_distance_power_operator": lambda m, xs, ys: sup_distance_power_operator(
        blocked_bands(StancuParams(), m, m, xs, ys), 2.0),
}


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("degree, builds", [(10, 1), (1280, 7)])
def test_a_sweep_builds_one_band_per_axis_or_a_band_per_block(monkeypatch, sweep,
                                                               degree, builds):
    """On the 201-point lattice an axis at m = n = 10, its points 0.05 columns
    apart, is one block; at m = n = 1280, 6.4 columns apart, it is cut into
    seven (``band_blocks``: 201 sqrt(6.4 / 6000) = 6.6)."""
    calls = []
    for name in ("bernstein_band_matrix", "szasz_band_matrix"):
        def counted(*args, _build=getattr(operators, name), _name=name):
            calls.append(_name)
            return _build(*args)
        monkeypatch.setattr(operators, name, counted)
    SWEEPS[sweep](degree, *lattice(1.0, 201))
    assert calls.count("bernstein_band_matrix") == builds
    assert calls.count("szasz_band_matrix") == builds


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("axis, xs, ys, shape", [
    ("xs", [], [0.5], (0,)),
    ("ys", [0.5], [], (0,)),
    ("xs", 0.5, [0.5], ()),
    ("ys", [0.5], 0.5, ()),
    ("ys", [0.5], [[0.5, 1.0]], (1, 2)),
], ids=["empty-x", "empty-y", "scalar-x", "scalar-y", "2d-y"])
def test_a_point_axis_must_be_nonempty_and_1d(sweep, axis, xs, ys, shape):
    """An empty, scalar or 2-D axis raised a bare numpy error (a reduction of
    a zero-size array, len() of an unsized object); now one check names it."""
    with pytest.raises(DomainError,
                       match=re.escape(f"{axis} must be nonempty 1-D, not shape {shape}")):
        SWEEPS[sweep](10, xs, ys)


def test_apply_on_grid_names_failing_function():
    # math.sqrt rejects arrays; f must broadcast, so the error names f
    f = f2(lambda t, tau: math.sqrt(t - 2.0), name="sqrt_shifted")
    with pytest.raises(RuntimeError, match="sqrt_shifted"):
        apply_on_grid(f, StancuParams(), 4, 4, [0.0, 0.5], [0.0, 1.0])
    with pytest.raises(RuntimeError, match="sqrt_shifted"):
        check_theorem_3_3(f, StancuParams(), 4, 4, CompactRegion(1.0), 5,
                          moduli_source="grid")


def test_failing_function_is_called_once():
    calls = []

    def scalar_only(t, tau):
        calls.append(1)
        return math.exp(t) + tau

    f = f2(scalar_only, name="scalar_only")
    with pytest.raises(RuntimeError, match="scalar_only") as info:
        apply_on_grid(f, StancuParams(), 4, 4, [0.0, 0.5], [0.0, 1.0])
    assert len(calls) == 1
    assert isinstance(info.value.__cause__, TypeError)
    # np.vectorize is the way to use a scalar-only f
    g = f2(np.vectorize(lambda t, tau: math.exp(t) + tau))
    want = apply_on_grid(f2(lambda t, tau: np.exp(t) + tau), StancuParams(), 4, 4,
                         [0.0, 0.5], [0.0, 1.0])
    assert np.array_equal(
        apply_on_grid(g, StancuParams(), 4, 4, [0.0, 0.5], [0.0, 1.0]), want)


def test_result_must_broadcast_to_the_grid():
    tx, ty = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0, 4)
    wrong = f2(lambda t, tau: np.ones((4, 3)), name="transposed")
    with pytest.raises(RuntimeError, match="transposed"):
        eval_grid(wrong, tx, ty)
    # a constant, or a result constant along one axis, broadcasts: evaluate
    # keeps it unexpanded and eval_grid expands it to the full table
    const = f2(lambda t, tau: 2.0)
    assert evaluate(const, tx[:, None], ty[None, :]).shape == ()
    assert np.array_equal(eval_grid(const, tx, ty), np.full((3, 4), 2.0))
    assert np.array_equal(eval_grid(f2(lambda t, tau: t), tx, ty),
                          np.repeat(tx[:, None], 4, axis=1))
    out = evaluate(f2(lambda t, tau: tau), 0.5, ty)
    assert out.shape == (4,) and out.flags.writeable


def test_point_and_region_validation():
    with pytest.raises(DomainError):
        Point2D(-0.1, 0.0)
    with pytest.raises(DomainError):
        Point2D(0.5, -1.0)
    with pytest.raises(DomainError):
        CompactRegion(0.0)
    with pytest.raises(DomainError):
        StancuParams(2.0, 1.0)
