"""Tests for the rate quantities and the explicit error-bound checkers."""

import dataclasses
import functools
import math
import re
from unittest import mock
import warnings

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest
from scipy.special import beta as scipy_beta

from poslinops import (
    BoundReport,
    DEFAULT_POLICY,
    CompactRegion,
    DomainError,
    StancuParams,
    TruncationPolicy,
    check_theorem_3_3,
    corpus_lookup,
    deltas,
    lattice_moduli,
    sample_lattice,
    sup_distance_power_operator,
    theorem_4_1_bound,
)
from poslinops import bounds
from poslinops.operators import blocked_bands, lattice
from poslinops.reporting import CAVEAT_RHS_GRID_LOWER_BOUND

from paper_formulas import corollary_3_4_bound, corollary_3_5_bound
from single_band import single_band

R1 = CompactRegion(1.0)
TIGHT = TruncationPolicy(1e-14)


def test_deltas_unshifted():
    d = deltas(25, 25, StancuParams(), R1)
    assert d.delta_m == pytest.approx(1.0 / 5.0)
    assert d.delta_n == pytest.approx(1.0 / 5.0)
    assert d.delta_mn == pytest.approx(math.sqrt(0.04 + 4 * 0.04))


def test_deltas_shifted_example():
    d = deltas(100, 100, StancuParams(1, 2, 1, 2), R1)
    assert d.delta_m == pytest.approx(math.sqrt(116.0) / 102.0)
    assert d.delta_n == pytest.approx(math.sqrt(104.0) / 102.0)
    assert d.delta_mn == pytest.approx(
        math.hypot(d.delta_m, 2.0 * d.delta_n)
    )


def test_deltas_scale_with_region():
    d1 = deltas(50, 50, StancuParams(0, 1, 0, 1), CompactRegion(1.0))
    d2 = deltas(50, 50, StancuParams(0, 1, 0, 1), CompactRegion(4.0))
    assert d2.delta_n > d1.delta_n
    assert d2.delta_m == d1.delta_m


def test_deltas_vanish():
    for m in (10, 100, 1000, 10000):
        d = deltas(m, m, StancuParams(1, 2, 1, 2), R1)
        assert d.delta_mn <= 3.0 / math.sqrt(m)


def test_sup_error_constant_zero():
    f = corpus_lookup("const1").function
    ra, _ = check_theorem_3_3(f, StancuParams(), 10, 10, R1, 51, TIGHT,
                              moduli_source="grid")
    assert ra.lhs <= 1e-12


def test_check_theorem_3_3_closed_form_linear():
    entry = corpus_lookup("linear")
    for m, n in ((10, 10), (50, 50)):
        ra, rb = check_theorem_3_3(
            entry.function, StancuParams(1, 2, 1, 2), m, n, R1,
            grid_points=101, policy=TIGHT,
            closed_form_moduli=entry.closed_form_moduli,
        )
        assert ra.holds and rb.holds
        assert ra.caveat == "none" and rb.caveat == "none"
        assert ra.margin > 0 and rb.margin > 0


def test_check_theorem_3_3_grid_source_flags_caveat():
    entry = corpus_lookup("prod")
    ra, rb = check_theorem_3_3(
        entry.function, StancuParams(), 20, 20, R1, grid_points=101,
        policy=TIGHT, moduli_source="grid",
    )
    assert ra.caveat == CAVEAT_RHS_GRID_LOWER_BOUND
    assert rb.caveat == CAVEAT_RHS_GRID_LOWER_BOUND
    # the grid modulus still dominates the grid sup error here
    assert ra.holds and rb.holds


def test_check_theorem_3_3_grid_samples_lattice_once():
    base = corpus_lookup("smooth").function
    calls = []

    @functools.wraps(base.eval)
    def counted(x, y):
        calls.append(np.broadcast(x, y).shape)
        return base.eval(x, y)

    # without factors: one call on the lattice and one on the operator's node grid
    f = dataclasses.replace(base, eval=counted, factors=())
    params, m, n = StancuParams(1, 2, 0, 1), 12, 9
    ra, rb = check_theorem_3_3(f, params, m, n, R1, grid_points=61,
                               policy=TIGHT, moduli_source="grid")
    assert len(calls) == 2 and calls.count((61, 61)) == 1
    # with factors no node table: the one call samples the lattice
    calls.clear()
    fa, fb = check_theorem_3_3(dataclasses.replace(base, eval=counted), params, m, n,
                               R1, grid_points=61, policy=TIGHT, moduli_source="grid")
    assert calls == [(61, 61)]
    assert fa.rhs == ra.rhs and fb.rhs == rb.rhs
    assert fa.lhs == pytest.approx(ra.lhs, rel=1e-12, abs=1e-15)
    # the same numbers as the moduli of a separate sample of f
    d = deltas(m, n, params, R1)
    sample = sample_lattice(base, R1, 61)
    w1 = lattice_moduli(*sample, partial_x=d.delta_m)["partial_x"]
    w2 = lattice_moduli(*sample, partial_y=d.delta_n)["partial_y"]
    assert ra.lhs == rb.lhs
    assert ra.rhs == 1.5 * (w1 + w2)
    assert rb.rhs == 1.5 * lattice_moduli(*sample, full=d.delta_mn)["full"]


def test_check_theorem_3_3_missing_moduli():
    entry = corpus_lookup("prod")
    with pytest.raises(DomainError):
        check_theorem_3_3(entry.function, StancuParams(), 10, 10, R1,
                          closed_form_moduli=entry.closed_form_moduli)


def test_check_theorem_3_3_unknown_source():
    entry = corpus_lookup("linear")
    with pytest.raises(DomainError):
        check_theorem_3_3(entry.function, StancuParams(), 10, 10, R1,
                          moduli_source="bogus")


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_bound_report_rejects_a_non_finite_side(side, value):
    sides = {"lhs": 0.5, "rhs": 1.0, side: value}
    with pytest.raises(RuntimeError, match=f"^the bound's {side} is not finite"):
        BoundReport(**sides)


def test_corollary_bounds_arithmetic():
    assert corollary_3_4_bound(2.0, 1.0, 0.3) == pytest.approx(0.9)
    assert corollary_3_4_bound(1.0, 0.5, 0.04) == pytest.approx(0.3)
    assert corollary_3_5_bound(1.0, 1.0, 1.0, 1.0, 0.2, 0.1) == pytest.approx(
        1.5 * 0.2 + 1.5 * 0.2
    )
    with pytest.raises(DomainError):
        corollary_3_4_bound(1.0, 1.5, 0.1)
    with pytest.raises(DomainError):
        corollary_3_5_bound(1.0, 0.0, 1.0, 1.0, 0.1, 0.1)


def test_corollary_3_4_dominates_for_lipschitz_corpus():
    # for x + y with M1 = sqrt(2), gamma = 1 the bound covers the grid error
    entry = corpus_lookup("linear")
    gamma, M_of_A = entry.lipschitz_data
    params = StancuParams(1, 2, 1, 2)
    for m in (10, 40):
        err = check_theorem_3_3(entry.function, params, m, m, R1, 101, TIGHT,
                                closed_form_moduli=entry.closed_form_moduli)[0].lhs
        d = deltas(m, m, params, R1)
        assert err <= corollary_3_4_bound(M_of_A(1.0), gamma, d.delta_mn)


def beta_loggamma(gamma, r):
    """Euler's B(gamma, r) by the log-gamma route."""
    return math.exp(math.lgamma(gamma) + math.lgamma(r) - math.lgamma(gamma + r))


def test_beta_oracle_examples():
    for beta in (beta_loggamma, scipy_beta):
        assert beta(1.0, 1) == pytest.approx(1.0)
        assert beta(1.0, 2) == pytest.approx(0.5)
        assert beta(0.5, 1) == pytest.approx(2.0)
        assert beta(2.0, 3) == pytest.approx(2.0 / (2 * 3 * 4))


def test_theorem_4_1_lipschitz_rhs_is_the_papers_constant():
    """RHS = gamma M B(gamma, r) / ((gamma + r) (r - 1)!) (1 + A^2)^(r/2)
    delta_mn^gamma, with B from log-gamma and from scipy."""
    entry = corpus_lookup("quad")
    params, region, M = StancuParams(1, 2, 0.5, 1), CompactRegion(1.5), 2.5
    delta_mn = deltas(10, 12, params, region).delta_mn
    for gamma in (0.1, 0.25, 0.5, 0.75, 1.0):
        for r in range(1, 11):
            rhs = theorem_4_1_bound(entry.derivative_provider, entry.function,
                                    params, 10, 12, r, gamma, M, region, 5, TIGHT,
                                    mode="lipschitz").rhs
            for beta in (beta_loggamma(gamma, r), float(scipy_beta(gamma, r))):
                want = (gamma * M * beta / ((gamma + r) * math.factorial(r - 1))
                        * (1.0 + region.A**2) ** (r / 2.0) * delta_mn**gamma)
                assert abs(rhs - want) <= 1e-12 * want
    # the constant is formed before the distance term, so M = 1e308 gives
    # the finite RHS (1e308 / 6) * 2 delta_mn, not inf
    rep = theorem_4_1_bound(entry.derivative_provider, entry.function,
                            StancuParams(), 10, 10, 2, 1.0, 1e308, R1, 5, TIGHT,
                            mode="lipschitz")
    assert rep.rhs == pytest.approx(1e308 / 6 * 2 * deltas(10, 10, StancuParams(),
                                                           R1).delta_mn, rel=1e-12)


def test_sup_distance_power_p2_matches_central_moment():
    from poslinops import second_central_moment_grid

    params = StancuParams(1, 1, 2, 2)
    m = n = 15
    got = sup_distance_power_operator(
        blocked_bands(params, m, n, *lattice(1.0, 41), TIGHT), 2.0)
    xs = np.linspace(0.0, 1.0, 41)
    ys = np.linspace(0.0, 1.0, 41)
    want = float(second_central_moment_grid(params, m, n, xs, ys).max())
    assert got == pytest.approx(want, abs=1e-10)


def test_sup_distance_power_power_mean_ordering():
    # Jensen: L(d^p) <= L(d^2)^(p/2) for p < 2, so the sups are ordered
    params = StancuParams(1, 2, 1, 2)
    m = n = 20
    bands = blocked_bands(params, m, n, *lattice(1.0, 21), TIGHT)
    s2 = sup_distance_power_operator(bands, 2.0)
    for p in (1.0, 1.5):
        sp = sup_distance_power_operator(bands, p)
        assert sp <= s2 ** (p / 2.0) + 1e-12


def distance_power_row(wx, dx2, WY, dy2, p_exp):
    """L(|d|^p_exp) at the points of one lattice row, reduced in the sweep's
    order, over y and then over x; a zero weight adds +0, even where |d|^p_exp
    overflows."""
    M = (dx2[None, :, None] + dy2[:, None, :]) ** (0.5 * p_exp) * WY[:, None, :]
    M = np.where(WY[:, None, :] == 0.0, 0.0, M)
    return np.where(wx == 0.0, 0.0, M.sum(axis=2) * wx).sum(axis=1)


def distance_power_table(params, m, n, p_exp, xs, ys, policy):
    """L(|d|^p_exp) at every point of xs x ys by the full sweep over the
    blocks of ``blocked_bands``, which the pruned sweep reads too.

    Each point is reduced on its own, as in the pruned sweep, so a value's
    bits do not depend on which points are evaluated with it."""
    (xs, xb, tx), (ys, yb, ty) = blocked_bands(params, m, n, xs, ys, policy)
    out = np.empty((len(xs), len(ys)))
    for rows, WX, a in xb:
        dx2 = (tx[None, a : a + WX.shape[1]] - xs[rows, None]) ** 2
        for cols, WY, b in yb:
            dy2 = (ys[cols, None] - ty[None, b : b + WY.shape[1]]) ** 2
            for i, x in enumerate(range(rows.start, rows.stop)):
                out[x, cols] = distance_power_row(WX[i], dx2[i], WY, dy2, p_exp)
    return out


def even_moment_table(params, m, n, h, xs, ys, policy):
    """L(|d|^2h) at every point of xs x ys, expanded binomially into 1-D
    moments over one band per axis."""
    WX, WY, tx, ty = single_band(params, m, n, xs, ys, policy)
    out = np.zeros((len(xs), len(ys)))
    for j in range(h + 1):
        mx = (WX * (tx[None, :] - xs[:, None]) ** (2 * j)).sum(axis=1)
        my = (WY * (ys[:, None] - ty[None, :]) ** (2 * (h - j))).sum(axis=1)
        out += math.comb(h, j) * mx[:, None] * my[None, :]
    return out


@st.composite
def sweep_cases(draw):
    """Unshifted or Stancu-shifted lattice sweeps, alpha = beta included.

    With alpha2 = 0 and alpha1 in {0, beta1} the value vanishes at a corner
    of the lattice."""
    if draw(st.booleans()):
        b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        a1 = draw(st.one_of(st.just(b1), st.just(0.0), st.floats(0.0, b1)))
        a2 = draw(st.one_of(st.just(b2), st.just(0.0), st.floats(0.0, b2)))
        params = StancuParams(a1, b1, a2, b2)
    else:
        params = StancuParams()
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    p_exp = draw(st.one_of(st.sampled_from([2.0, 4.0, 6.0]), st.floats(0.5, 7.5)))
    region = CompactRegion(draw(st.floats(0.0, 5.0, exclude_min=True)))
    return params, m, n, p_exp, region, draw(st.integers(2, 41))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=sweep_cases())
# m = n = 1500 on 9 points, 187.5 columns apart: both axes are cut into two
# blocks (9 sqrt(187.5 / 6000) = 1.6)
@example(case=(StancuParams(1, 2, 0.5, 1.5), 1500, 1500, 3.0, R1, 9))
# A = 5e-324: the y points lie a subnormal n A apart, one block (a cost rule
# from sqrt(C / s) overflowed there)
@example(case=(StancuParams(), 1, 1, 2.0, CompactRegion(5e-324), 2))
# alpha1 = beta1 and alpha2 = 0: the value is 0 at the corner (1, 0)
@example(case=(StancuParams(1.5, 1.5, 0.0, 2.0), 7, 9, 2.5, R1, 5))
# G = 2: the lattice is its four corners, the rows x in {0, 1} and y in {0, A}
@example(case=(StancuParams(), 3, 4, 1.5, CompactRegion(2.0), 2))
# p just above an even integer: z^u, u = 5e-10, is nearly a step at z = 0
@example(case=(StancuParams(0.5, 1, 0, 0.5), 30, 20, 4.0 + 1e-9, R1, 11))
# at y = 0 the m = 1 point x = 0.25 lies 1.25e-10 from the node 0.5 / (2 + 1e-9),
# a Gauss node too small to resolve from rounded moments
@example(case=(StancuParams(0.5, 1.0 + 1e-9, 0.0, 1.0), 1, 5, 0.5, R1, 5))
# at y = 0 the m = 2 point x = 0.8 lies 1e-8 from the node (1 + b) / (2 + b):
# the tilted variance is too small for rounded moments to give the Gauss rule
@example(case=(StancuParams(3 - 2.5e-7, 3 - 2.5e-7, 0.0, 1.0), 2, 5, 3.0, R1, 6))
# the Gauss rule is exact for the two nodes of m = 1 at y = 0 but for rounding
@example(case=(StancuParams(), 1, 5, 3.3172862031310877,
               CompactRegion(1.0101770661169445), 37))
# p = 1688: the moments' binomial sums lost terms C(k, j) mx_j my_(k-j) to
# underflow, and the lattice bound without its floors f_k (1 + E_k) skipped
# the max, 1.6e-132, and returned 5.4e-143
@example(case=(StancuParams(1.5884086644782833, 2.250989947456916, 0.0,
                            0.37053496396038366), 52, 66, 1688.0743756852912,
               CompactRegion(0.1730443290263274), 4))
def test_sup_distance_power_is_the_full_sweep_max(case):
    params, m, n, p_exp, region, G = case
    xs, ys = lattice(region.A, G)
    table = distance_power_table(params, m, n, p_exp, xs, ys, TIGHT)
    formed = []  # (points, bounds) of every bound the sweep forms
    lattice_bound, exact_in_y = bounds._lattice_bound, bounds._bound_exact_in_y

    def on_lattice(*args):  # the sweep marks evaluated points in its own copy
        formed.append((np.s_[:, :], lattice_bound(*args)))
        return formed[-1][1].copy()

    def in_y(mx, block, a, c, *args):
        formed.append(((a, c), exact_in_y(mx, block, a, c, *args)))
        return formed[-1][1].copy()

    with (mock.patch.object(bounds, "_lattice_bound", on_lattice),
          mock.patch.object(bounds, "_bound_exact_in_y", in_y)):
        got = sup_distance_power_operator(blocked_bands(params, m, n, xs, ys, TIGHT),
                                          p_exp)
    want = max(0.0, float(table.max()))
    h = math.ceil(p_exp / 2.0)
    if p_exp == 2 * h:
        # even p: the lattice max of E_h = L(|d|^p) in closed form, within
        # rounding of the direct sum, and no bound is formed
        assert abs(got - want) <= 1e-12 * want
        assert not formed
    else:
        # bit for bit: a skipped point's value lies below the best one seen
        assert got == want
        # the skipping rests on bounds of the points: over the lattice the
        # smaller of the chord and the two-node Gauss rule; at the points it
        # leaves, the same bound of each x row sum, summed exactly in y
        assert formed[0][1].shape == table.shape
        assert all(np.all(bound >= table[at]) for at, bound in formed)
    # the chord is Hoelder's L(|d|^p) <= E_(h-1)^theta E_h^(1-theta),
    # E_k = L(|d|^2k), with slack for rounding and a floor for underflow
    below, even = (even_moment_table(params, m, n, k, xs, ys, TIGHT) for k in (h - 1, h))
    assert np.allclose(even, distance_power_table(params, m, n, 2.0 * h, xs, ys, TIGHT),
                       rtol=1e-12, atol=0.0)
    theta, floor = (2 * h - p_exp) / 2.0, 2.0**-1000
    upper = (1.0 + 1e-9) * (below + floor) ** theta * (even + floor) ** (1.0 - theta)
    assert np.all(upper >= table)


@pytest.mark.parametrize("p_exp", [2.0, 4.0])
def test_blocked_sup_agrees_with_the_single_band(p_exp):
    """At m = n = 600 the 41-point lattice of [0, 1] x [0, 2] is cut into two
    blocks in x and three in y; at even p the sup is the max of E_(p/2) over
    one band per axis, to 1e-14 relative."""
    params = StancuParams(0.5, 1.5, 0.25, 1.0)
    xs, ys = lattice(2.0, 41)
    got = sup_distance_power_operator(blocked_bands(params, 600, 600, xs, ys), p_exp)
    want = float(even_moment_table(params, 600, 600, int(p_exp) // 2, xs, ys,
                                   DEFAULT_POLICY).max())
    assert abs(got - want) <= 1e-14 * want


def test_sup_distance_power_skips_most_points(monkeypatch):
    row, evaluated = bounds._distance_power_row, []

    def counted(wx, dx2, WY, dy2, p_exp):
        evaluated.append(WY.shape[0])
        return row(wx, dx2, WY, dy2, p_exp)

    monkeypatch.setattr(bounds, "_distance_power_row", counted)
    # even p: L(|d|^p) is E_h in closed form, so no point is evaluated
    for p_exp in (2.0, 4.0, 6.0):
        sup_distance_power_operator(
            blocked_bands(StancuParams(), 10, 10, *lattice(1.0, 201), TIGHT), p_exp)
    assert evaluated == []
    # odd and fractional p: the two-node Gauss bound is within a few percent,
    # and summed exactly in y it leaves a few points of the 10,201 (the
    # lattice bound alone left 178 at p = 1.5, m = n = 40, and 50 at p = 3,
    # m = n = 80)
    for params, m, p_exp, most in ((StancuParams(1, 2, 1, 2), 20, 3.0, 0.01 * 101**2),
                                   (StancuParams(), 40, 1.5, 20),
                                   (StancuParams(), 80, 3.0, 10)):
        evaluated.clear()
        sup_distance_power_operator(
            blocked_bands(params, m, m, *lattice(1.0, 101), TIGHT), p_exp)
        assert sum(evaluated) <= most


def test_an_even_power_evaluates_no_point_on_a_flat_ridge(monkeypatch):
    """check-thm41 --function quad --m 5000 --beta1 0.5 --beta2 1e8 --A 1e4
    --M 1 (p = 2): the y nodes collapse near 0, so the value is flat in x
    along y = A within the bounds' slack, and the sweep evaluated all 101
    points of that ridge.  E_1 in closed form evaluates none."""
    def evaluated(*args):
        raise AssertionError("a lattice point was evaluated")

    monkeypatch.setattr(bounds, "_distance_power_row", evaluated)
    params, xs, ys = StancuParams(0, 0.5, 0, 1e8), *lattice(1e4, 101)
    got = sup_distance_power_operator(blocked_bands(params, 5000, 10, xs, ys), 2.0)
    want = float(even_moment_table(params, 5000, 10, 1, xs, ys, DEFAULT_POLICY).max())
    assert abs(got - want) <= 1e-14 * want


def bounds_exact_in_y(params, m, n, p_exp, xs, ys, policy):
    """``bounds._bound_exact_in_y`` at every point of xs x ys, from x row
    moments mx_i = sum_v wx_v dx2_v^i summed here over the blocks' bands."""
    (xs, xb, tx), (ys, yb, ty) = blocked_bands(params, m, n, xs, ys, policy)
    width = 1 + max(W.shape[1] for _, W, _ in xb) + max(W.shape[1] for _, W, _ in yb)
    mx = np.zeros((math.ceil(p_exp / 2.0) + 3, len(xs)))
    out = np.empty((len(xs), len(ys)))
    with np.errstate(all="ignore"):
        for rows, W, o in xb:
            dx2 = (tx[None, o : o + W.shape[1]] - xs[rows, None]) ** 2
            for i in range(len(mx)):
                mx[i, rows] = (W * dx2**i).sum(axis=1)
        for cols, W, o in yb:
            block = (cols, W, (ys[cols, None] - ty[None, o : o + W.shape[1]]) ** 2)
            a, c = (g.ravel() for g in np.meshgrid(np.arange(len(xs)),
                                                    np.arange(cols.start, cols.stop),
                                                    indexing="ij"))
            out[a, c] = bounds._bound_exact_in_y(mx, block, a, c, p_exp, width)
    return out


@st.composite
def exact_in_y_cases(draw):
    """Small lattices, whose x rows 0 and 1 and y row 0 are edges, at degrees
    1 to 400: unshifted, alpha = beta or shifted; p even, odd or fractional."""
    kind = draw(st.sampled_from(["plain", "equal", "shifted"]))
    if kind == "plain":
        params = StancuParams()
    else:
        b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        a1, a2 = ((b1, b2) if kind == "equal" else
                  (draw(st.floats(0.0, b1)), draw(st.floats(0.0, b2))))
        params = StancuParams(a1, b1, a2, b2)
    m, n = draw(st.integers(1, 400)), draw(st.integers(1, 400))
    p_exp = draw(st.one_of(st.sampled_from([2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]),
                           st.floats(0.25, 8.0)))
    A = draw(st.floats(0.0, 5.0, exclude_min=True))
    return params, m, n, p_exp, A, draw(st.integers(2, 6))


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(case=exact_in_y_cases())
# G = 2: the x rows 0 and 1 each hold one atom, at the nodes 1/15 and 1 for
# alpha1 = beta1 = 0.5 and m = 7, and at the points themselves unshifted; Z =
# dx2 + d is then a point mass, and G2 falls back to the chord
@example(case=(StancuParams(0.5, 0.5, 0.0, 1.0), 7, 30, 1.5, 1.0, 2))
@example(case=(StancuParams(), 400, 400, 3.0, 5.0, 2))
# p near the cap: E_1029, the last table whose binomials fit a float, enters as
# E_(h+2) of G2 at h = 1027 and as E_h of the chord alone at h = 1029
@example(case=(StancuParams(), 10, 1000, 2053.5, 0.1, 3))
@example(case=(StancuParams(1, 2, 0, 1), 40, 40, 2057.5, 0.05, 3))
def test_the_bound_exact_in_y_is_above_every_point(case):
    """The second bound level is >= L(|d|^p) at every lattice point, not
    only at the points the sweep hands it."""
    params, m, n, p_exp, A, G = case
    xs, ys = lattice(A, G)
    table = distance_power_table(params, m, n, p_exp, xs, ys, TIGHT)
    got = bounds_exact_in_y(params, m, n, p_exp, xs, ys, TIGHT)
    assert np.all((got >= table) | np.isnan(table))  # 0 inf is NaN in the table


@pytest.mark.parametrize("p_exp", [2053.5, 2057.5])
def test_an_exponent_at_the_binomials_edge_is_the_full_sweep_max(p_exp):
    """h = 1027 takes the Gauss bound, whose E_(h+2) needs C(1029, j); h = 1029
    keeps the chord alone, as C(1031, j) overflows a float."""
    xs, ys = lattice(0.1, 5)
    table = distance_power_table(StancuParams(), 10, 1000, p_exp, xs, ys, TIGHT)
    got = sup_distance_power_operator(
        blocked_bands(StancuParams(), 10, 1000, xs, ys, TIGHT), p_exp)
    assert got == float(table.max()) > 0.0


@pytest.mark.parametrize("p_exp", [0.0, -1.0, math.nan, math.inf])
def test_sup_distance_power_rejects_bad_exponent(p_exp):
    with pytest.raises(DomainError, match="p_exp must be finite and > 0"):
        sup_distance_power_operator(
            blocked_bands(StancuParams(), 10, 10, *lattice(1.0, 11)), p_exp)


def test_a_non_finite_distance_power_raises_naming_it():
    """|d|^1000 overflows at every node, and 0 inf is NaN: the sweep dropped
    those NaN points in Python's max and returned 0.0.  p = 1000 is even, so
    E_500 in closed form is checked at all four lattice points."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the report: no RuntimeWarning
        with pytest.raises(RuntimeError, match=re.escape(
                "L(|d|^1000) is not finite at 4 of 4 lattice points")):
            sup_distance_power_operator(
                blocked_bands(StancuParams(), 10, 10, [0.5, 1.0], [1.0, 2.0]), 1000)


def test_the_order_r_bound_raises_where_the_distance_power_overflows():
    """check-thm41 --function linear --r 169 --A 100 --M 1 --m 10 --n 10
    --grid 11 wrote rhs = 0, yet the sweep of L(|d|^170) at (0.5, 100) alone
    is 2.21e222.  That is the operator over its truncated rows, not its value:
    the untruncated L(|d|^170) there is 2.14e242 (see the mpmath test below)."""
    alone = sup_distance_power_operator(
        blocked_bands(StancuParams(), 10, 10, [0.5], [100.0]), 170.0)
    assert alone == pytest.approx(2.2091435817342792e222, rel=1e-12)
    entry = corpus_lookup("linear")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none from the Taylor weights nor the sweep
        with pytest.raises(RuntimeError, match=re.escape("L(|d|^170) is not finite")):
            theorem_4_1_bound(entry.derivative_provider, entry.function, StancuParams(),
                              10, 10, 169, 1.0, 1.0, CompactRegion(100.0), 11)


def test_the_swept_distance_power_is_below_the_untruncated_one():
    """At large p the far nodes that the rows leave out carry the mass: at
    (0.5, 100), m = n = 10, the sweep gives L(|d|^170) = 2.21e222 and the
    untruncated operator, summed in mpmath (40 digits, k < 4000), 2.14e242.
    The sweep's value is a lower estimate of it, not only of the sup."""
    m = n = 10
    with mpmath.workdps(40):
        x, y, h = mpmath.mpf(0.5), mpmath.mpf(100), 85  # |d|^170 = (|d|^2)^85
        bx = [mpmath.binomial(m, v) * x**v * (1 - x) ** (m - v) for v in range(m + 1)]
        dx2 = [(mpmath.mpf(v) / m - x) ** 2 for v in range(m + 1)]
        exact, pk = mpmath.mpf(0), mpmath.exp(-n * y)
        for k in range(4000):
            pk = pk * n * y / k if k else pk
            dy2 = (mpmath.mpf(k) / n - y) ** 2
            exact += pk * mpmath.fsum(b * (d + dy2) ** h for b, d in zip(bx, dx2))
    swept = sup_distance_power_operator(blocked_bands(StancuParams(), m, n, [0.5],
                                                      [100.0]), 170.0)
    assert swept <= exact
    assert float(exact) == pytest.approx(2.13622447314376e242, rel=1e-12)


@st.composite
def overflow_cases(draw):
    """Sweeps at large p on tall lattices.  The y row 0 is one atom, so its
    zero weights reach nodes up to A away, where |d|^p can overflow, as can the
    far nodes of the other rows, with weights that are not 0."""
    params = draw(st.one_of(st.just(StancuParams()), st.builds(
        lambda b1, b2, s1, s2: StancuParams(s1 * b1, b1, s2 * b2, b2),
        st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
        st.floats(0.0, 1.0))))
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 20))
    A = draw(st.floats(1.0, 100.0))
    return params, m, n, draw(st.floats(20.0, 400.0)), A, draw(st.integers(2, 5))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(case=overflow_cases())
# (0, 0) and (1, 0) have zero y weights at the nodes of the band of y = 50
# past 65.05, up to 67.5, where |d|^170 overflows: 0 inf was NaN there, and the
# sweep raised, though every value is finite and the largest is 1.68e204
@example(case=(StancuParams(), 10, 10, 170.0, 50.0, 2))
def test_a_zero_weight_adds_nothing_where_the_distance_power_overflows(case):
    """Wherever the full sweep is finite the pruned sweep is its max, bit for
    bit at p not even and within rounding at even p; where it is not, the
    sweep raises naming L(|d|^p)."""
    params, m, n, p_exp, A, G = case
    xs, ys = lattice(A, G)
    with np.errstate(all="ignore"):
        table = distance_power_table(params, m, n, p_exp, xs, ys, TIGHT)
    bands = blocked_bands(params, m, n, xs, ys, TIGHT)
    if np.all(np.isfinite(table)):
        got = sup_distance_power_operator(bands, p_exp)
        want = max(0.0, float(table.max()))
        if p_exp == 2 * math.ceil(p_exp / 2.0):  # E_h in closed form
            assert abs(got - want) <= 1e-12 * want
        else:
            assert got == want
    else:
        with pytest.raises(RuntimeError,
                           match=re.escape(f"L(|d|^{p_exp:g}) is not finite")):
            sup_distance_power_operator(bands, p_exp)


def test_the_pinned_zero_weight_overflows():
    """The pinned case above draws what it claims: a zero weight of the y row
    0 at a node where |d|^170 overflows a float."""
    _, (ys, [(_, WY, o)], ty) = blocked_bands(StancuParams(), 10, 10, *lattice(50.0, 2))
    with np.errstate(over="ignore"):
        far = np.abs(ty[o : o + WY.shape[1]] - ys[0]) ** 170.0 == np.inf
    assert np.any(far & (WY[0] == 0.0))


def test_moment_mode_builds_the_bands_once_for_both_sides(monkeypatch):
    """Theorem 4.1 in moment mode hands one set of bands to L_r and to the
    distance-power sweep: one call each of blocked_bands, blocked_sweep and
    sup_distance_power_operator, the last two on the bands the first built."""
    calls = {}
    for name in ("blocked_bands", "blocked_sweep", "sup_distance_power_operator"):
        def counted(*args, _fn=getattr(bounds, name), _name=name):
            calls.setdefault(_name, []).append(args)
            return _fn(*args)
        monkeypatch.setattr(bounds, name, counted)
    entry = corpus_lookup("smooth")
    theorem_4_1_bound(entry.derivative_provider, entry.function, StancuParams(),
                      20, 20, 2, 1.0, 1.0, R1, 21)
    assert {k: len(v) for k, v in calls.items()} == {
        "blocked_bands": 1, "blocked_sweep": 1, "sup_distance_power_operator": 1}
    assert calls["blocked_sweep"][0][1] is calls["sup_distance_power_operator"][0][0]


@pytest.mark.parametrize("p_exp", [2058.5, 2060, 1e9])
def test_an_exponent_past_the_binomials_range_is_a_domain_error(p_exp):
    """C(1030, 515) overflows a float: p_exp > 2058 raised a bare
    OverflowError (and a huge p_exp would first build h moment arrays)."""
    with pytest.raises(DomainError, match=f"p_exp must be <= 2058, got {p_exp}"):
        sup_distance_power_operator(
            blocked_bands(StancuParams(), 10, 10, [0.5], [1.0]), p_exp)


def test_theorem_4_1_linear_exact():
    # the degree-1 Taylor polynomial reproduces x + y, so the LHS vanishes
    entry = corpus_lookup("linear")
    rep = theorem_4_1_bound(
        entry.derivative_provider, entry.function, StancuParams(1, 2, 1, 2),
        10, 10, 1, 1.0, 1.0, R1, 41, TIGHT,
    )
    assert rep.lhs <= 1e-10
    assert rep.holds


def test_theorem_4_1_quad_holds_all_modes():
    entry = corpus_lookup("quad")
    M = 2.0 * math.sqrt(2.0)
    for mode in ("moment", "modulus", "lipschitz"):
        rep = theorem_4_1_bound(
            entry.derivative_provider, entry.function, StancuParams(1, 1, 2, 2),
            20, 20, 1, 1.0, M, R1, 41, TIGHT, mode=mode,
        )
        assert rep.holds, mode
        assert rep.margin > 0.0, mode


def test_theorem_4_1_flags_the_moment_grid_sup():
    """Only the moment mode takes its RHS as a lattice sup, a lower estimate."""
    entry = corpus_lookup("quad")
    caveats = {
        mode: theorem_4_1_bound(
            entry.derivative_provider, entry.function, StancuParams(1, 1, 2, 2),
            10, 10, 1, 1.0, 2.0 * math.sqrt(2.0), R1, 21, TIGHT, mode=mode,
        ).caveat
        for mode in ("moment", "modulus", "lipschitz")
    }
    assert caveats == {"moment": CAVEAT_RHS_GRID_LOWER_BOUND,
                       "modulus": "none", "lipschitz": "none"}


def test_theorem_4_1_rhs_decreases():
    entry = corpus_lookup("quad")
    M = 2.0 * math.sqrt(2.0)
    rhs = [
        theorem_4_1_bound(
            entry.derivative_provider, entry.function, StancuParams(1, 1, 2, 2),
            m, m, 1, 1.0, M, R1, 41, TIGHT,
        ).rhs
        for m in (10, 20, 40)
    ]
    assert rhs[0] >= rhs[1] >= rhs[2]


def test_theorem_4_1_validation(monkeypatch):
    """r, gamma, M and mode are checked before f is sampled or a band built:
    mode="bogus" sampled f, built both axes' bands and swept L_r first."""
    def unreachable(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    monkeypatch.setattr(bounds, "sample_lattice", unreachable)
    monkeypatch.setattr(bounds, "blocked_bands", unreachable)
    entry = corpus_lookup("quad")
    with pytest.raises(DomainError):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 0, 1.0, 1.0, R1)
    with pytest.raises(DomainError):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 1, 2.0, 1.0, R1)
    with pytest.raises(DomainError, match="unknown mode 'bogus'"):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 1, 1.0, 1.0, R1, mode="bogus")
