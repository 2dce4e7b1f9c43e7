"""Weight bands: each row's window, the band builders and the banded operator.

A row's window, from its first column to before its right edge W, leaves at
most tail_tol of the row's mass on each side (Bernstein's inequality, both
families); a row is divided by the sum it keeps.  The operator builds its
weight rows and evaluates f only on its band: the union of its rows'
windows, less the columns where every row is 0.  The
rows are checked against exact ones: scipy's binomial pmf and the Poisson
pmf below.
"""

import math
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import binom

from poslinops import (
    DEFAULT_POLICY,
    DomainError,
    Function2D,
    KernelFamily,
    Point2D,
    StancuParams,
    TruncationError,
    TruncationPolicy,
    apply,
    apply_on_grid,
    corpus_lookup,
)
from poslinops.basis import (
    _szasz_row,
    _szasz_rows,
    _window,
    band_blocks,
    bernstein_band_matrix,
    szasz_band_matrix,
)
from poslinops.operators import blocked_bands

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
DROP = DEFAULT_POLICY.tail_tol  # mass bound on each side of a window
RTOL = 1e-12  # a built weight against the exact one

unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# 1.1e-308 is below the smallest normal float: its weight at k = 1 is flushed
rates = st.one_of(st.sampled_from([0.0, 1.1e-308]), st.floats(0.0, 1e5))
BAND_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                         max_examples=200)


def bernstein_pmf(m, x):
    """C(m, v) x^v (1-x)^(m-v), v = 0..m, a row per x: scipy's binomial pmf,
    or for x < 1e-13 (1-x)^m times the running product of the term ratios
    (m - v + 1)/v * x/(1-x) for v <= 60, a few ulps per term.  scipy's
    relative error grows like |ln x| eps there (9e-14 at x = 4e-273; it
    overflows below 1e-300); for m <= 5000 the terms past v = 60 are 0."""
    x = np.asarray(x, dtype=float)[..., None]
    v = np.arange(m + 1)
    tiny = x < 1e-13
    xt = np.where(tiny, x, 0.0)
    direct = np.zeros(x.shape[:-1] + (m + 1,))
    direct[..., :1] = np.exp(m * np.log1p(-xt))
    k = v[1:61]
    ratios = (m - k + 1) / k * (xt / (1.0 - xt))
    direct[..., 1:61] = direct[..., :1] * np.cumprod(ratios, axis=-1)
    return np.where(tiny, direct, binom.pmf(v, m, np.where(tiny, 0.5, x)))


def _stirlerr(k):
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k) for k >= 1."""
    small = np.minimum(k, 15.0)
    direct = gammaln(small + 1) - (small + 0.5) * np.log(small) + small
    k2 = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2)
                        / k2) / k2) / k
    return np.where(k <= 15, direct - 0.5 * math.log(2 * math.pi), series)


def _bd0(k, rate):
    """k ln(k / rate) + rate - k, summed as a series of positive terms near
    k = rate, where the direct formula cancels."""
    v = (k - rate) / (k + rate)
    near, term = (k - rate) * v, 2 * k * v
    for j in range(1, 60):
        term = term * v * v
        near = near + term / (2 * j + 1)
    with np.errstate(over="ignore"):
        direct = k * np.log(k / rate) + rate - k
    return np.where(np.abs(v) < 0.5, near, direct)


def poisson_pmf(k, rate):
    """e^-rate rate^k / k! for k = 0, 1, ..., to about 2e-14 relative.

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, rate)) / sqrt(2 pi k):
    ln(rate^k / k!) - rate cancels to 1e-10 relative at rate 1e5."""
    k = np.asarray(k, dtype=float)
    if rate == 0.0:
        return (k == 0).astype(float)
    kk = np.maximum(k, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        p = np.exp(-_stirlerr(kk) - _bd0(kk, rate)) / np.sqrt(2 * math.pi * kk)
    return np.where(k == 0, math.exp(-rate), p)


def test_poisson_pmf_against_mpmath():
    for rate in (1e-3, 0.5, 30.0, 1234.5, 99999.3):
        k = np.arange(max(0, int(rate - 8 * rate**0.5)), int(rate + 8 * rate**0.5) + 20)
        with mpmath.workdps(40):
            r = mpmath.mpf(rate)
            exact = [mpmath.exp(j * mpmath.log(r) - r - mpmath.loggamma(j + 1))
                     for j in k.tolist()]
        assert np.allclose(poisson_pmf(k, rate), np.array(exact, dtype=float),
                           rtol=5e-14, atol=0.0)


def assert_band_row(band, lo, exact, left, right):
    """The band lies in the window [left, right) and holds the exact row's
    weights there; the window's columns off the band hold only flushed
    weights."""
    hi = lo + len(band)
    left, right = max(math.floor(left), 0), min(math.ceil(right), len(exact))
    assert left <= lo < hi <= right
    assert np.all(exact[left:lo] < 2 * TINY) and np.all(exact[hi:right] < 2 * TINY)
    assert np.all(np.abs(band - exact[lo:hi]) <= RTOL * exact[lo:hi] + TINY)


@BAND_SETTINGS
@given(m=st.integers(1, 5000), x=unit_x)
@example(m=43, x=0.25)  # 1.3e-26 lies left of the window: more than tail_tol 2^-60
def test_bernstein_band_is_the_window(m, x):
    """Each side of the window holds at most tail_tol of the mass, summed in
    mpmath (P(X < a) and P(X >= b) are regularized incomplete beta
    functions); the band row is the exact row divided by the mass it keeps."""
    exact = bernstein_pmf(m, x)
    band, lo = bernstein_band_matrix(m, [x])
    left, right = _window(m * x, m * x * (1.0 - x), DEFAULT_POLICY.tail_tol)
    left, right = max(math.floor(left), 0), math.ceil(right)
    with mpmath.workdps(30):
        if left >= 1:
            assert mpmath.betainc(m - left + 1, left, 0, 1 - mpmath.mpf(x),
                                  regularized=True) <= DROP
        if right <= m:
            assert mpmath.betainc(right, m - right + 1, 0, x, regularized=True) <= DROP
    assert left <= np.argmax(exact) < right
    assert_band_row(band[0], lo, exact / exact[left:right].sum(), left, right)


@BAND_SETTINGS
@given(m=st.integers(1, 5000), xs=st.lists(unit_x, min_size=2, max_size=5))
def test_bernstein_band_is_the_union_of_windows(m, xs):
    band, lo = bernstein_band_matrix(m, xs)
    x = np.asarray(xs)
    exact = bernstein_pmf(m, x)
    left, right = _window(m * x, m * x * (1.0 - x), DEFAULT_POLICY.tail_tol)
    # each row is divided by its sum from the first column of the row at
    # min(xs) to the right edge of the row at max(xs)
    a = max(math.floor(left[np.argmin(x)]), 0)
    b = math.ceil(right[np.argmax(x)])
    for i in range(len(xs)):
        assert_band_row(band[i], lo, exact[i] / exact[i, a:b].sum(), left.min(),
                        right.max())
    assert band[:, 0].any() and band[:, -1].any()


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=rates)
# the Chernoff term at the edge underflows to 0 at these rates: only the
# floor of the columns held as 0 bounds the mass past the row
@example(n=1, r=0.0)
@example(n=1, r=1e-30)
@example(n=1, r=1e-12)
@example(n=1, r=83.0)  # 1.9e-30 lies left of the window: more than tail_tol 2^-60
def test_szasz_band_is_the_window(n, r):
    y = r / n
    rate = n * y
    tol = DEFAULT_POLICY.tail_tol
    band, tail, lo = szasz_band_matrix(n, [y])
    left, W = _window(rate, rate, tol)
    W = math.ceil(W)
    with mpmath.workdps(30):
        if left >= 1:  # P(X < floor(left)) is the upper regularized gamma
            assert mpmath.gammainc(math.floor(left), rate, mpmath.inf,
                                   regularized=True) <= DROP
        assert mpmath.gammainc(W, 0, rate, regularized=True) <= tol  # P(X >= W)
    assert left <= int(rate) < W  # the mode floor(ny)
    # the row ends before W, at its last nonzero weight, and is the exact row
    # divided by its mass; tail bounds the mass past it
    hi = lo + band.shape[1]
    assert hi <= W and band[0, -1] > 0.0
    with mpmath.workdps(30):
        dropped = mpmath.gammainc(hi, 0, rate, regularized=True)
        before = mpmath.gammainc(lo, rate, mpmath.inf, regularized=True) if lo else 0
        kept = float(1 - before - dropped)
    assert abs(band.sum() - 1.0) <= 4 * EPS
    assert_band_row(band[0], lo, poisson_pmf(np.arange(hi), rate) / kept, left, W)
    assert dropped * (1 - RTOL) <= tail[0] <= tol  # in mpmath: it may be < 5e-324


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=rates)
def test_one_row_builder_matches_the_band_row(n, r):
    """A single point's Szasz row, built from scalars, has the matrix
    builder's first and last columns; its weights and tail bound differ from
    the matrix builder's by rounding only."""
    y = r / n
    band, band_tail, lo = _szasz_rows(n, [y], DEFAULT_POLICY)
    row, tail, start = _szasz_row(n, y, DEFAULT_POLICY)
    assert start == lo and row.shape == band.shape
    assert np.all(np.abs(row - band) <= 8 * EPS * band + TINY)
    assert abs(tail[0] - band_tail[0]) <= 4 * EPS * band_tail[0] + TINY
    # one y gets this row, and so does a single point's operator
    y_blocks = blocked_bands(StancuParams(), 3, n, [0.5], [y])[1][1]
    for W in (szasz_band_matrix(n, [y])[0], y_blocks[0][1]):
        assert np.array_equal(W, row)


@BAND_SETTINGS
@given(n=st.integers(1, 5000), rs=st.lists(rates, min_size=2, max_size=5))
def test_matrix_rows_match_the_one_row_builder(n, rs):
    """Each row of a several-y matrix is that y's own row, with the same last
    column, and also holds the columns of the matrix left of the row's own
    first column: at most its window's dropped mass, which the row keeps.  So
    the row over its own columns is that y's row times the mass it keeps
    there, within 8 eps; the tail bound is within 4 eps."""
    ys = [r / n for r in rs]
    W, tail, lo = szasz_band_matrix(n, ys)
    for i, y in enumerate(ys):
        row, row_tail, start = szasz_band_matrix(n, [y])
        a, b = start - lo, start - lo + row.shape[1]
        assert 0 <= a and W[i, b - 1] > 0.0 and not W[i, b:].any()
        assert W[i, :a].sum() <= DROP
        own = row[0] * (1.0 - W[i, :a].sum())
        assert np.all(np.abs(W[i, a:b] - own) <= 8 * EPS * own + TINY)
        assert abs(tail[i] - row_tail[0]) <= 4 * EPS * row_tail[0] + TINY


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=st.floats(1e-3, 1e5), frac=st.floats(0.0, 1.0))
def test_one_row_builder_truncates_as_the_band_row(n, r, frac):
    """With max_terms below the row's width both builders raise the same
    TruncationError, tail bound included, or both return the same band."""
    y = r / n
    left, right = _window(n * y, n * y, DEFAULT_POLICY.tail_tol)
    policy = TruncationPolicy(max_terms=1 + int(frac * (right - max(left, 0) - 2)))
    try:
        band, _, lo = _szasz_rows(n, [y], policy)
    except TruncationError as want:
        with pytest.raises(TruncationError) as got:
            _szasz_row(n, y, policy)
        assert str(got.value) == str(want)
        assert abs(got.value.tail - want.tail) <= 4 * EPS * want.tail
    else:
        row, _, start = _szasz_row(n, y, policy)
        assert start == lo and row.shape == band.shape


@pytest.mark.parametrize("rate", [2.0**63, 1e21, 1e300])
def test_matrix_builder_truncates_rates_past_intp(rate):
    """ceil(ny) is checked against the term cap before its cast to intp,
    which wraps past 2^63: both builders raise the same TruncationError."""
    with pytest.raises(TruncationError) as want:
        _szasz_row(10, rate / 10, DEFAULT_POLICY)
    with pytest.raises(TruncationError) as got:
        _szasz_rows(10, [0.0, rate / 10], DEFAULT_POLICY)
    assert str(got.value) == str(want.value)
    assert got.value.tail == want.value.tail == 1.0


@pytest.mark.parametrize("n, y, message", [
    (0, 1.0, "^degree n must be >= 1"),
    (10, -1e-3, "^y must be >= 0"),
    (10, float("nan"), "^y must be >= 0"),
    (10, float("inf"), "^y must be >= 0"),
    (2, 1e308, "^y must be >= 0 with n\\*y finite"),  # n*y overflows
])
def test_one_row_builder_domain_errors(n, y, message):
    with pytest.raises(DomainError, match=message):
        szasz_band_matrix(n, [y], DEFAULT_POLICY)


def test_point_with_infinite_rate_names_y():
    f = corpus_lookup("linear").function
    with pytest.raises(DomainError, match="^y must be >= 0 with n"):
        apply(f, StancuParams(), 10, 2, Point2D(0.5, 1e308))


def bounded(x, y):
    return 2.0 + np.sin(5.0 * np.asarray(x) + 0.37 * np.asarray(y))


@st.composite
def operator_cases(draw):
    """A point and degrees whose full node table has at most ~2e6 entries."""
    family = draw(st.sampled_from(list(KernelFamily)))
    m = draw(st.one_of(st.integers(1, 10), st.integers(1, 5000)))
    x = draw(unit_x)
    cap = 10**6 / (m + 1)
    if family is KernelFamily.BERNSTEIN_SZASZ:
        n = draw(st.integers(1, 5000))
        y = draw(st.one_of(st.just(0.0), st.floats(0.0, min(1e5, cap)))) / n
    else:
        n = draw(st.integers(1, max(1, min(5000, int(cap)))))
        y = draw(unit_x)
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    return family, StancuParams(a1, b1, a2, b2), m, n, Point2D(x, y)


def full_table_oracle(f, family, params, m, n, p):
    """wx @ F @ wy over every node column, with exact weight rows; the
    Poisson row ends where the operator's does and is divided by its sum."""
    wx = bernstein_pmf(m, p.x)
    if family is KernelFamily.BERNSTEIN_SZASZ:
        band, _, lo = szasz_band_matrix(n, [p.y])
        wy = poisson_pmf(np.arange(lo + band.shape[1]), n * p.y)
        wy /= wy.sum()
    else:
        wy = bernstein_pmf(n, p.y)
    tx = (np.arange(len(wx)) + params.alpha1) / (m + params.beta1)
    ty = (np.arange(len(wy)) + params.alpha2) / (n + params.beta2)
    return float(wx @ f(tx[:, None], ty[None, :]) @ wy), tx, ty


@BAND_SETTINGS
@given(case=operator_cases())
# x = y = 4.3e-273: scipy's binomial pmf is 9e-14 off there, which failed the
# oracle before it ran the ratio recurrence below x = 1e-13
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(), 8, 2,
               Point2D(4.3e-273, 4.3e-273)))
@example(case=(KernelFamily.BERNSTEIN_BERNSTEIN, StancuParams(), 8, 2,
               Point2D(4.3e-273, 4.3e-273)))
# 0.5^93 = 1e-28 lies right of the x window: more than 4 tail_tol 2^-60
@example(case=(KernelFamily.BERNSTEIN_SZASZ, StancuParams(), 93, 1, Point2D(0.5, 0.0)))
def test_apply_matches_full_table(case):
    """The operator is the full table's weights cut to the band and divided
    by the mass they keep there: within rounding of the full table's value
    plus the mass off the band times sup f - inf f <= 2, and that mass is at
    most tail_tol on each side of each axis."""
    family, params, m, n, p = case
    f = Function2D(eval=bounded, name="bounded")
    want, tx, ty = full_table_oracle(bounded, family, params, m, n, p)
    got = float(apply_on_grid(f, params, m, n, [p.x], [p.y], family=family)[0, 0])

    # f = 1 off the band and 0 on it: L_band f = 0, and the bound on
    # |L_band f - L_full f| is 4 * DROP * (sup f - inf f)
    nodes = []
    counted = Function2D(eval=lambda t, tau: nodes.append((t, tau)) or bounded(t, tau))
    apply_on_grid(counted, params, m, n, [p.x], [p.y], family=family)
    bx, by = nodes[0][0][:, 0], nodes[0][1][0]
    on_band = (np.isin(tx, bx)[:, None] & np.isin(ty, by)[None, :]).astype(float)
    outside, _, _ = full_table_oracle(lambda t, tau: 1.0 - on_band, family,
                                      params, m, n, p)
    assert 0.0 <= outside <= 4 * DROP
    assert abs(got - want) <= 1e-13 * abs(want) + 2 * outside


def test_point_evaluates_f_on_its_band_only():
    points = []
    linear = corpus_lookup("linear").function

    def counted(x, y):
        out = linear.eval(x, y)
        points.append(np.size(out))
        return out

    f = Function2D(eval=counted, name="linear")
    value = apply(f, StancuParams(), 2000, 2000, Point2D(0.3, 5.0))
    assert abs(value - 5.3) <= 1e-11
    assert sum(points) <= 2 * 10**6  # the full node table has 2.2e7


def test_point_at_rate_1e5_stays_small():
    f = corpus_lookup("linear").function
    tracemalloc.start()
    try:
        value = apply(f, StancuParams(), 2000, 2000, Point2D(0.3, 50.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 50.3) <= 1e-10
    assert peak < 64 * 2**20  # the full node table alone is about 1.7 GB


GRID = np.linspace(0.0, 1.0, 201)


@pytest.mark.parametrize("degree, points, count", [
    (10**5, [0.5], 1),  # G = 1
    (10**5, [0.5] * 201, 1),  # all points equal: s = 0
    (10**5, [0.0, 5e-324] * 100 + [0.0], 1),  # a subnormal spacing
    (10, GRID, 1),  # 201 sqrt(0.05 / 6000) = 0.58
    (1280, GRID, 7),  # 201 sqrt(6.4 / 6000) = 6.6
    (1280, np.random.default_rng(3).permutation(GRID), 7),  # unsorted: the spread
    (10**5, [0.0, 1.0], 2),  # a coarse axis: one point per block
    (10**5, np.linspace(0.0, 1.0, 41), 26),  # 41 sqrt(2500 / 6000) = 26.5
    (10**5, [0.5, np.nan, 0.7], 1),  # a NaN spacing: one block, whose builder names it
    (10**5, [0.5, np.inf, 0.7], 3),  # an infinite one: at most G blocks
])
def test_band_blocks_is_the_cost_rule(degree, points, count):
    """G near-equal slices of consecutive points, cut into
    min(G, round(G sqrt(s / 6000))) blocks, s = degree (max - min) / (G - 1),
    or one; the rule is the same for both families where no Szasz check
    raises."""
    points = np.asarray(points, dtype=float)
    families = (False, True) if np.all(np.isfinite(points)) else (False,)
    for poisson in families:
        blocks = band_blocks(degree, points, DEFAULT_POLICY, poisson)
        assert len(blocks) == count
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == len(points)
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
