"""Weight bands: each row's window, the band builders and the banded operator.

A row's window [mean - t, mean + t] leaves at most tail_tol * 2^-60 of the
row's mass on each side (Bernstein's inequality).  The operator builds its
weight rows and evaluates f only on its band: the union of its rows'
windows, less the columns where every row is 0.
"""

import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import mpmath
import numpy as np
import pytest

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
    corpus_lookup,
)
from poslinops.basis import (
    _szasz_row,
    _szasz_rows,
    _window,
    bernstein_band_matrix,
    bernstein_weight_matrix,
    szasz_band_matrix,
    szasz_weight_matrix,
    szasz_weights,
)
from poslinops.operators import weights_and_nodes

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
DROP = DEFAULT_POLICY.tail_tol * 2.0**-60  # mass bound on each side of a window

unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# 1.1e-308 is below the smallest normal float: its weight at k = 1 is flushed
rates = st.one_of(st.sampled_from([0.0, 1.1e-308]), st.floats(0.0, 1e5))
BAND_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                         max_examples=200)


def assert_band_row(band, lo, full, left, right):
    """The band lies in the window [left, right) and holds the full row's
    nonzero weights there, up to the row's normalization."""
    hi = lo + len(band)
    left, right = max(math.floor(left), 0), min(math.ceil(right), len(full))
    assert left <= lo < hi <= right
    assert not full[left:lo].any() and not full[hi:right].any()
    assert np.all(np.abs(band - full[lo:hi]) <= 8 * EPS * full[lo:hi] + TINY)


@BAND_SETTINGS
@given(m=st.integers(1, 5000), x=unit_x)
def test_bernstein_band_is_the_window(m, x):
    full = bernstein_weight_matrix(m, [x])[0]
    band, lo = bernstein_band_matrix(m, [x])
    left, right = _window(m * x, m * x * (1.0 - x), DEFAULT_POLICY.tail_tol)
    assert full[: max(math.floor(left), 0)].sum() <= DROP
    assert full[math.ceil(right):].sum() <= DROP
    assert left <= np.argmax(full) < right
    assert_band_row(band[0], lo, full, left, right)


@BAND_SETTINGS
@given(m=st.integers(1, 5000), xs=st.lists(unit_x, min_size=2, max_size=5))
def test_bernstein_band_is_the_union_of_windows(m, xs):
    full = bernstein_weight_matrix(m, xs)
    band, lo = bernstein_band_matrix(m, xs)
    x = np.asarray(xs)
    left, right = _window(m * x, m * x * (1.0 - x), DEFAULT_POLICY.tail_tol)
    for i in range(len(xs)):
        assert_band_row(band[i], lo, full[i], left.min(), right.max())
    assert band[:, 0].any() and band[:, -1].any()


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=rates)
def test_szasz_band_is_the_window(n, r):
    y = r / n
    rate = n * y
    full = szasz_weight_matrix(n, [y])[0]
    band, lo = szasz_band_matrix(n, [y])
    left, right = _window(rate, rate, DEFAULT_POLICY.tail_tol)
    assert full[: max(math.floor(left), 0)].sum() <= DROP
    # the full row is truncated before the right edge: take the exact tail
    with mpmath.workdps(30):
        assert mpmath.gammainc(math.ceil(right), 0, rate, regularized=True) <= DROP
    assert left <= int(rate) < right  # the mode floor(ny)
    assert_band_row(band[0], lo, full, left, right)
    # both rows end at the full row's K, its last nonzero weight
    assert full[-1] > 0.0 and lo + band.shape[1] == len(full)
    if len(full) == 1:  # K = 0: all the mass past k = 0 is dropped
        assert szasz_weights(n, y).tail_bound >= -math.expm1(-rate)


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=rates)
def test_one_row_builder_matches_the_band_row(n, r):
    """A single point's Szasz row, built directly, has the band row's lo and K;
    its weights and tail bound differ from the band row's by rounding only."""
    y = r / n
    band, lo = szasz_band_matrix(n, [y])
    _, band_tail, _ = _szasz_rows(n, [y], DEFAULT_POLICY, band=True)
    row, tail, start = _szasz_row(n, y, DEFAULT_POLICY)
    assert start == lo and row.shape == band.shape
    assert np.all(np.abs(row - band) <= 8 * EPS * band + TINY)
    assert abs(tail - band_tail[0]) <= 4 * EPS * band_tail[0] + TINY
    # a single point's operator builds exactly this row
    WY = weights_and_nodes(StancuParams(), 3, n, [0.5], [y])[1]
    assert np.array_equal(WY, row)


@BAND_SETTINGS
@given(n=st.integers(1, 5000), r=st.floats(1e-3, 1e5), frac=st.floats(0.0, 1.0))
def test_one_row_builder_truncates_as_the_band_row(n, r, frac):
    """With max_terms below the window's right edge both builders raise the
    same TruncationError, tail bound included, or both return the same band."""
    y = r / n
    right = _window(n * y, n * y, DEFAULT_POLICY.tail_tol)[1]
    policy = TruncationPolicy(max_terms=1 + int(frac * (math.ceil(right) - 2)))
    try:
        band, lo = szasz_band_matrix(n, [y], policy)
    except TruncationError as want:
        with pytest.raises(TruncationError) as got:
            _szasz_row(n, y, policy)
        assert str(got.value) == str(want)
        assert abs(got.value.tail - want.tail) <= 4 * EPS * want.tail
    else:
        row, _, start = _szasz_row(n, y, policy)
        assert start == lo and row.shape == band.shape


@pytest.mark.parametrize("n, y, message", [
    (0, 1.0, "^degree n must be >= 1"),
    (10, -1e-3, "^y must be >= 0"),
    (10, float("nan"), "^y must be >= 0"),
    (10, float("inf"), "^y must be >= 0"),
    (2, 1e308, "^y must be >= 0 with n\\*y finite"),  # n*y overflows
])
def test_one_row_builder_domain_errors(n, y, message):
    with pytest.raises(DomainError, match=message):
        _szasz_row(n, y, DEFAULT_POLICY)


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
    """WX_full @ F @ WY_full.T over every node column."""
    WX = bernstein_weight_matrix(m, [p.x])
    if family is KernelFamily.BERNSTEIN_SZASZ:
        WY = szasz_weight_matrix(n, [p.y])
    else:
        WY = bernstein_weight_matrix(n, [p.y])
    tx = (np.arange(WX.shape[1]) + params.alpha1) / (m + params.beta1)
    ty = (np.arange(WY.shape[1]) + params.alpha2) / (n + params.beta2)
    return float((WX @ f(tx[:, None], ty[None, :]) @ WY.T)[0, 0]), tx, ty


@BAND_SETTINGS
@given(case=operator_cases())
def test_apply_matches_full_table(case):
    family, params, m, n, p = case
    f = Function2D(eval=bounded, name="bounded")
    want, tx, ty = full_table_oracle(bounded, family, params, m, n, p)
    got = apply(f, params, m, n, p, family=family)
    assert abs(got - want) <= 1e-13 * abs(want)

    # f = 1 off the band and 0 on it: L_band f = 0, and the bound on
    # |L_band f - L_full f| is 4 * DROP * (sup f - inf f)
    nodes = []
    counted = Function2D(eval=lambda t, tau: nodes.append((t, tau)) or bounded(t, tau))
    apply(counted, params, m, n, p, family=family)
    bx, by = nodes[0][0][:, 0], nodes[0][1][0]
    on_band = (np.isin(tx, bx)[:, None] & np.isin(ty, by)[None, :]).astype(float)
    outside, _, _ = full_table_oracle(lambda t, tau: 1.0 - on_band, family,
                                      params, m, n, p)
    assert 0.0 <= outside <= 4 * DROP


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
