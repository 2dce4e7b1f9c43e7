"""Tests for the Bernstein and Szasz weight rows, as the band builders give them.

A Szasz row's truncation contract: the row sums to 1 within 4 eps; its tail
bound is at most tail_tol and at least the mass past the row's last column
(50-digit mpmath); left of the band it drops at most tail_tol.  A Bernstein
row drops at most tail_tol on each side.  Every row is divided by the mass it
keeps.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from poslinops import (
    DEFAULT_POLICY,
    DomainError,
    TruncationError,
    TruncationPolicy,
)
from poslinops.basis import bernstein_band_matrix, szasz_band_matrix

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
DROP = DEFAULT_POLICY.tail_tol  # mass bound on each side of a window


def bernstein_row(m, x):
    """The band row at x, zero-filled to all m + 1 columns."""
    band, lo = bernstein_band_matrix(m, [x])
    row = np.zeros(m + 1)
    row[lo : lo + band.shape[1]] = band[0]
    return row


def szasz_row(n, y, policy=DEFAULT_POLICY):
    """The band row at y, zero-filled from column 0 to its last, and its tail
    bound."""
    band, tail, lo = szasz_band_matrix(n, [y], policy)
    return np.concatenate((np.zeros(lo), band[0])), float(tail[0])


def test_bernstein_m2_half():
    assert np.allclose(bernstein_row(2, 0.5), [0.25, 0.5, 0.25], atol=1e-15)


def test_bernstein_endpoints():
    # a row at x = 0 or 1 has one nonzero weight, and its band one column
    for x, lo in ((0.0, 0), (1.0, 5)):
        band, start = bernstein_band_matrix(5, [x])
        assert band.tolist() == [[1.0]] and start == lo


@pytest.mark.parametrize("m", [1, 3, 17, 64, 65, 200, 500])
def test_bernstein_partition_of_unity(m):
    for x in np.linspace(0.0, 1.0, 101):
        assert abs(bernstein_row(m, float(x)).sum() - 1.0) <= 1e-12


def test_bernstein_nonnegative():
    for m in (2, 64, 200):
        for x in (0.01, 0.37, 0.99):
            assert (bernstein_row(m, x) >= 0.0).all()


@pytest.mark.parametrize("m", [3, 10, 20])
def test_bernstein_exact_rational(m):
    x = Fraction(37, 100)
    exact = [
        math.comb(m, v) * x**v * (1 - x) ** (m - v) for v in range(m + 1)
    ]
    for got, want in zip(bernstein_row(m, float(x)), exact):
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
            assert np.allclose(bernstein_row(m, x), ref, rtol=1e-13)


def test_bernstein_domain_errors():
    with pytest.raises(DomainError):
        bernstein_band_matrix(0, [0.5])
    with pytest.raises(DomainError):
        bernstein_band_matrix(3, [-0.1])
    with pytest.raises(DomainError):
        bernstein_band_matrix(3, [0.5, 1.1])


@pytest.mark.parametrize("build, axis", [(bernstein_band_matrix, "xs"),
                                         (szasz_band_matrix, "ys")])
def test_an_empty_point_list_is_a_domain_error(build, axis):
    # as ``blocked_bands`` names an empty axis, not a numpy reduction's error
    with pytest.raises(DomainError, match=rf"^{axis} must be nonempty 1-D, not shape \(0,\)$"):
        build(10, [])


def test_szasz_rate_zero():
    band, tail, lo = szasz_band_matrix(1, [0.0])
    assert band.tolist() == [[1.0]] and lo == 0
    # the 18 columns the row holds as 0 left of its edge W = 19 count TINY each
    assert 0.0 <= tail[0] <= 18 * TINY


def test_szasz_rate_one_closed_form():
    row, tail = szasz_row(10, 0.1, TruncationPolicy(1e-12))
    for k, v in enumerate(row):
        assert v == pytest.approx(math.exp(-1.0) / math.factorial(k), rel=1e-13)
    assert tail < 1e-12


def test_szasz_tail_against_extended_precision_cdf():
    policy = TruncationPolicy(1e-10)
    row, tail = szasz_row(50, 2.0, policy)
    K = len(row) - 1
    with mpmath.workdps(50):
        rate = mpmath.mpf(100)
        cdf = sum(
            mpmath.exp(-rate) * rate**k / mpmath.factorial(k) for k in range(K + 1)
        )
        exact_tail = float(1 - cdf)
    assert exact_tail <= tail <= policy.tail_tol
    assert abs(row.sum() - 1.0) <= 4 * EPS


def test_szasz_mass_control():
    policy = TruncationPolicy(1e-12)
    for n, y in [(1, 0.3), (10, 0.1), (50, 2.0), (100, 100.0), (7, 1234.5)]:
        row, _ = szasz_row(n, y, policy)
        assert 1.0 - row.sum() <= policy.tail_tol
        assert (row >= 0.0).all()
        assert row.sum() <= 1.0 + 1e-12


def test_szasz_truncation_failure_carries_tail():
    policy = TruncationPolicy(1e-12, max_terms=100)
    for ys in ([50.0], [0.1, 50.0]):  # the one-row and the matrix builder
        with pytest.raises(TruncationError) as exc:
            szasz_band_matrix(100, ys, policy)
        assert 0.0 < exc.value.tail <= 1.0


def test_szasz_domain_errors():
    with pytest.raises(DomainError):
        szasz_band_matrix(0, [1.0])
    with pytest.raises(DomainError):
        szasz_band_matrix(5, [-0.5])
    for y in (float("nan"), float("inf"), 1e308):  # 1e308: n*y overflows
        with pytest.raises(DomainError, match="^y must be"):
            szasz_band_matrix(10, [y])
    with pytest.raises(DomainError, match="^y must be"):
        szasz_band_matrix(10, [0.5, float("nan")])


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=1.5)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)
    for cap in (1, 5, np.int64(5)):
        assert TruncationPolicy(max_terms=cap).max_terms == cap


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(max_terms=st.one_of(st.floats(allow_nan=True), st.booleans(),
                           st.integers(-3, 0), st.integers(-3, 0).map(np.int64)))
@example(max_terms=1.9)
@example(max_terms=2.5)
@example(max_terms=True)
def test_max_terms_must_be_an_integer(max_terms):
    """A fractional cap ended a row of the matrix builder at its floor and one
    of the one-row builder at its ceiling: at tail_tol = 0.35, max_terms =
    1.9, n = 1, y = 0.5 the matrix row was [1.0], its tail 0.321 below the
    0.393 past it, and the one-row builder's [2/3, 1/3].  So a float, a bool
    and a cap below 1 raise, as a degree does."""
    with pytest.raises(DomainError, match="^max_terms must be an integer >= 1, got "):
        TruncationPolicy(0.35, max_terms)


# Rows of several points, built as one matrix over the union of their
# windows.  x includes the edges; n*y covers [0, 1e4].
unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
rates = st.one_of(st.just(0.0), st.floats(0.0, 1e4))
ROW_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                        max_examples=150)


@ROW_SETTINGS
@given(m=st.integers(1, 2000), xs=st.lists(unit_x, min_size=1, max_size=4))
def test_bernstein_rows_properties(m, xs):
    W, lo = bernstein_band_matrix(m, xs)
    assert W.shape[0] == len(xs) and 0 <= lo and lo + W.shape[1] <= m + 1
    assert (W >= 0.0).all()
    assert not ((0.0 < W) & (W < TINY)).any()  # subnormals slow the BLAS products
    assert np.all(np.abs(W.sum(axis=1) - 1.0) <= 4 * EPS)


@ROW_SETTINGS
@given(n=st.integers(1, 2000), rs=st.lists(rates, min_size=1, max_size=4))
# ny = 1e-30 and 1e-12: the Chernoff term at the edge underflows to 0, and
# only the floor of the columns held as 0 bounds the mass past the row
@example(n=1, rs=[0.0, 1e-30, 1e-12])
@example(n=1, rs=[1e-30])
@example(n=1, rs=[1e-12])
@example(n=1, rs=[83.0])  # 1.9e-30 lies left of the band: more than tail_tol 2^-60
def test_szasz_rows_properties(n, rs):
    ys = [r / n for r in rs]
    W, tail, lo = szasz_band_matrix(n, ys)
    assert (W >= 0.0).all()
    assert not ((0.0 < W) & (W < TINY)).any()
    assert W[:, -1].any()  # as wide as the widest row
    for i, y in enumerate(ys):
        K = lo + np.flatnonzero(W[i])[-1]  # the row's last nonzero weight
        assert abs(W[i].sum() - 1.0) <= 4 * EPS
        assert tail[i] <= DEFAULT_POLICY.tail_tol
        with mpmath.workdps(50):
            rate = mpmath.mpf(n * y)
            dropped = mpmath.gammainc(K + 1, 0, rate, regularized=True)
            left = mpmath.gammainc(lo, rate, mpmath.inf, regularized=True) if lo else 0
        assert tail[i] >= dropped * (1 - 1e-12)  # in mpmath: it may be < 5e-324
        assert left <= DROP  # the mass left of the band


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


# Against 50-digit mpmath the band weights hold 1e-12 relative on every entry
# of at least 1e-280, the exact row divided by the mass the band keeps, and
# the band drops at most DROP of the mass on each side (the Poisson rate is
# n*y as a float, as the builder gets it).
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(m=st.integers(1, 2000), x=st.one_of(st.sampled_from([0.0, 1.0]),
                                           st.floats(0.0, 1.0)))
@example(m=43, x=0.25)  # 1.3e-26 lies left of the band: more than tail_tol 2^-60
def test_bernstein_weights_against_mpmath(m, x):
    got, lo = bernstein_band_matrix(m, [x])
    hi = lo + got.shape[1]
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        if x <= 0.5:  # from v = 0 up, or from v = m down: (1 - x)^m is 0 at x = 1
            exact = _mp_row((1 - xm) ** m,
                            lambda k: (m - k) * xm / ((k + 1) * (1 - xm)), m + 1)
        else:
            exact = _mp_row(xm ** m,
                            lambda k: (m - k) * (1 - xm) / ((k + 1) * xm), m + 1)[::-1]
        assert sum(exact[:lo]) <= DROP and sum(exact[hi:]) <= DROP
        kept = [w / mpmath.fsum(exact[lo:hi]) for w in exact[lo:hi]]
    _assert_rel(got[0], kept, 1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(1, 2000), r=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)))
@example(n=1, r=83.0)  # 1.9e-30 lies left of the band: more than tail_tol 2^-60
def test_szasz_weights_against_mpmath(n, r):
    y = r / n
    got, _, lo = szasz_band_matrix(n, [y])
    hi = lo + got.shape[1]
    with mpmath.workdps(50):
        rate = mpmath.mpf(n * y)
        first = rate**lo * mpmath.exp(-rate) / mpmath.factorial(lo)
        exact = _mp_row(first, lambda k: rate / (lo + k + 1), got.shape[1])
        before = mpmath.gammainc(lo, rate, mpmath.inf, regularized=True) if lo else 0
        past = mpmath.gammainc(hi, 0, rate, regularized=True)
        assert before <= DROP and past <= DROP
        kept = [w / (1 - before - past) for w in exact]
    _assert_rel(got[0], kept, 1e-12)
