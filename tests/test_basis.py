"""Tests for the Bernstein and Szasz weight vectors."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from poslinops import (
    DEFAULT_POLICY,
    DomainError,
    TruncationError,
    TruncationPolicy,
    bernstein_weights,
    szasz_weights,
)
from poslinops.basis import bernstein_weight_matrix, szasz_weight_matrix

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def test_bernstein_m2_half():
    w = bernstein_weights(2, 0.5)
    assert np.allclose(w.values, [0.25, 0.5, 0.25], atol=1e-15)
    assert w.tail_bound == 0.0


def test_bernstein_endpoints():
    w = bernstein_weights(5, 0.0)
    assert np.array_equal(w.values, [1, 0, 0, 0, 0, 0])
    w = bernstein_weights(5, 1.0)
    assert np.array_equal(w.values, [0, 0, 0, 0, 0, 1])


@pytest.mark.parametrize("m", [1, 3, 17, 64, 65, 200, 500])
def test_bernstein_partition_of_unity(m):
    for x in np.linspace(0.0, 1.0, 101):
        assert abs(bernstein_weights(m, float(x)).values.sum() - 1.0) <= 1e-12


def test_bernstein_nonnegative():
    for m in (2, 64, 200):
        for x in (0.01, 0.37, 0.99):
            assert (bernstein_weights(m, x).values >= 0.0).all()


@pytest.mark.parametrize("m", [3, 10, 20])
def test_bernstein_exact_rational(m):
    x = Fraction(37, 100)
    exact = [
        math.comb(m, v) * x**v * (1 - x) ** (m - v) for v in range(m + 1)
    ]
    w = bernstein_weights(m, float(x))
    for got, want in zip(w.values, exact):
        assert got == pytest.approx(float(want), rel=1e-13)


def test_bernstein_log_direct_agreement():
    # for m <= 64 the production path is the direct one; compare with an
    # explicit log-space evaluation
    for m in (8, 33, 64):
        for x in (0.1, 0.5, 0.93):
            nu = np.arange(m + 1)
            logfact = np.concatenate(
                ([0.0], np.cumsum(np.log(np.arange(1, m + 1))))
            )
            logs = (
                logfact[m] - logfact[nu] - logfact[m - nu]
                + nu * math.log(x) + (m - nu) * math.log1p(-x)
            )
            ref = np.exp(logs)
            got = bernstein_weights(m, x).values
            assert np.allclose(got, ref, rtol=1e-13)


def test_bernstein_domain_errors():
    with pytest.raises(DomainError):
        bernstein_weights(0, 0.5)
    with pytest.raises(DomainError):
        bernstein_weights(3, -0.1)
    with pytest.raises(DomainError):
        bernstein_weights(3, 1.1)


def test_szasz_rate_zero():
    w = szasz_weights(1, 0.0)
    assert np.array_equal(w.values, [1.0])
    assert w.tail_bound == 0.0


def test_szasz_rate_one_closed_form():
    w = szasz_weights(10, 0.1, TruncationPolicy(1e-12))
    for k, v in enumerate(w.values):
        assert v == pytest.approx(math.exp(-1.0) / math.factorial(k), rel=1e-13)
    assert w.tail_bound < 1e-12


def test_szasz_tail_against_extended_precision_cdf():
    policy = TruncationPolicy(1e-10)
    w = szasz_weights(50, 2.0, policy)
    K = len(w) - 1
    with mpmath.workdps(50):
        rate = mpmath.mpf(100)
        cdf = sum(
            mpmath.exp(-rate) * rate**k / mpmath.factorial(k) for k in range(K + 1)
        )
        exact_tail = float(1 - cdf)
    assert abs(w.tail_bound - exact_tail) <= 1e-12


def test_szasz_mass_control():
    policy = TruncationPolicy(1e-12)
    for n, y in [(1, 0.3), (10, 0.1), (50, 2.0), (100, 100.0), (7, 1234.5)]:
        w = szasz_weights(n, y, policy)
        assert 1.0 - w.values.sum() <= policy.tail_tol
        assert (w.values >= 0.0).all()
        assert w.values.sum() <= 1.0 + 1e-12


def test_szasz_truncation_failure_carries_tail():
    with pytest.raises(TruncationError) as exc:
        szasz_weights(100, 50.0, TruncationPolicy(1e-12, max_terms=100))
    assert 0.0 < exc.value.tail <= 1.0


def test_szasz_domain_errors():
    with pytest.raises(DomainError):
        szasz_weights(0, 1.0)
    with pytest.raises(DomainError):
        szasz_weights(5, -0.5)
    for y in (float("nan"), float("inf"), 1e308):  # 1e308: n*y overflows
        with pytest.raises(DomainError, match="^y must be"):
            szasz_weights(10, y)
    with pytest.raises(DomainError, match="^y must be"):
        szasz_weight_matrix(10, [0.5, float("nan")])


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=1.5)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)


# Rows share one algorithm: the exact ratio recurrence run outward from the
# mode and divided by the row sum.  x includes the edges; n*y covers [0, 1e4].
unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
rates = st.one_of(st.just(0.0), st.floats(0.0, 1e4))
ROW_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                        max_examples=150)


@ROW_SETTINGS
@given(m=st.integers(1, 2000), xs=st.lists(unit_x, min_size=1, max_size=4))
def test_bernstein_rows_properties(m, xs):
    W = bernstein_weight_matrix(m, xs)
    assert W.shape == (len(xs), m + 1)
    assert (W >= 0.0).all()
    assert not ((0.0 < W) & (W < TINY)).any()  # subnormals slow the BLAS products
    assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 4 * EPS)
    for i, x in enumerate(xs):
        assert W[i].tobytes() == bernstein_weights(m, x).values.tobytes()


@ROW_SETTINGS
@given(n=st.integers(1, 2000), rs=st.lists(rates, min_size=1, max_size=4))
def test_szasz_rows_properties(n, rs):
    ys = [r / n for r in rs]
    W = szasz_weight_matrix(n, ys)
    for i, y in enumerate(ys):
        w = szasz_weights(n, y)
        K = len(w) - 1
        assert W[i, : K + 1].tobytes() == w.values.tobytes()
        assert not W[i, K + 1 :].any()
        assert (w.values >= 0.0).all()
        assert not ((0.0 < w.values) & (w.values < TINY)).any()
        assert abs(w.values.sum() - (1.0 - w.tail_bound)) <= 4 * EPS
        assert w.tail_bound <= DEFAULT_POLICY.tail_tol
        with mpmath.workdps(50):
            dropped = mpmath.gammainc(K + 1, 0, mpmath.mpf(n * y), regularized=True)
        assert w.tail_bound >= float(dropped) - 1e-15


def _mp_row(first, ratio, length):
    """first, first * ratio(0), ... in the current mpmath precision."""
    out = [first]
    for k in range(length - 1):
        out.append(out[-1] * ratio(k))
    return out


def _assert_rel(got, exact, rtol, floor=1e-280):
    for k, want in enumerate(exact):
        if want >= floor:
            assert abs(got[k] - want) <= rtol * want, (k, got[k], float(want))


# Against 50-digit mpmath the weights hold 1e-12 relative on every entry of
# at least 1e-280 (the Poisson rate is n*y as a float, as the builder gets it).
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(m=st.integers(1, 2000), x=st.floats(0.0, 1.0, exclude_min=True,
                                           exclude_max=True))
def test_bernstein_weights_against_mpmath(m, x):
    got = bernstein_weights(m, x).values
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        exact = _mp_row((1 - xm) ** m,
                        lambda k: (m - k) * xm / ((k + 1) * (1 - xm)), m + 1)
    _assert_rel(got, exact, 1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(1, 2000), r=st.floats(1e-3, 1e4))
def test_szasz_weights_against_mpmath(n, r):
    y = r / n
    got = szasz_weights(n, y).values
    with mpmath.workdps(50):
        rate = mpmath.mpf(n * y)
        exact = _mp_row(mpmath.exp(-rate), lambda k: rate / (k + 1), len(got))
    _assert_rel(got, exact, 1e-12)
