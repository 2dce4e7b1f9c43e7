"""Tests for the rate quantities and the explicit error-bound checkers."""

import dataclasses
import functools
import math

from hypothesis import example, given, settings, strategies as st
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
    got = sup_distance_power_operator(params, m, n, 2.0, *lattice(1.0, 41), TIGHT)
    xs = np.linspace(0.0, 1.0, 41)
    ys = np.linspace(0.0, 1.0, 41)
    want = float(second_central_moment_grid(params, m, n, xs, ys).max())
    assert got == pytest.approx(want, abs=1e-10)


def test_sup_distance_power_power_mean_ordering():
    # Jensen: L(d^p) <= L(d^2)^(p/2) for p < 2, so the sups are ordered
    params = StancuParams(1, 2, 1, 2)
    m = n = 20
    s2 = sup_distance_power_operator(params, m, n, 2.0, *lattice(1.0, 21), TIGHT)
    for p in (1.0, 1.5):
        sp = sup_distance_power_operator(params, m, n, p, *lattice(1.0, 21), TIGHT)
        assert sp <= s2 ** (p / 2.0) + 1e-12


def distance_power_table(params, m, n, p_exp, xs, ys, policy):
    """L(|d|^p_exp) at every point of xs x ys by the full sweep over the
    blocks of ``blocked_bands``, which the pruned sweep reads too.

    Each point is reduced on its own, as in the pruned sweep, so a value's
    bits do not depend on which points are evaluated with it."""
    (xb, tx), (yb, ty) = blocked_bands(params, m, n, xs, ys, policy)
    out = np.empty((len(xs), len(ys)))
    for rows, WX, a in xb:
        dx2 = (tx[None, a : a + WX.shape[1]] - xs[rows, None]) ** 2
        for cols, WY, b in yb:
            dy2 = (ys[cols, None] - ty[None, b : b + WY.shape[1]]) ** 2
            for i, x in enumerate(range(rows.start, rows.stop)):
                out[x, cols] = bounds._distance_power_row(WX[i], dx2[i], WY, dy2,
                                                          p_exp)
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
# m = 160 and n = 60 on 33 points: both axes are cut into two blocks
@example(case=(StancuParams(1, 2, 0.5, 1.5), 160, 60, 3.0, R1, 33))
def test_sup_distance_power_is_the_full_sweep_max(case):
    params, m, n, p_exp, region, G = case
    xs, ys = lattice(region.A, G)
    table = distance_power_table(params, m, n, p_exp, xs, ys, TIGHT)
    # bit for bit: a skipped point's value lies below the best one seen
    got = sup_distance_power_operator(params, m, n, p_exp, xs, ys, TIGHT)
    assert got == max(0.0, float(table.max()))
    # the skipping rests on Hoelder's L(|d|^p) <= E_(h-1)^theta E_h^(1-theta),
    # E_k = L(|d|^2k), with slack for rounding and a floor for underflow
    h = math.ceil(p_exp / 2.0)
    below, even = (even_moment_table(params, m, n, k, xs, ys, TIGHT) for k in (h - 1, h))
    assert np.allclose(even, distance_power_table(params, m, n, 2.0 * h, xs, ys, TIGHT),
                       rtol=1e-12, atol=0.0)
    theta, floor = (2 * h - p_exp) / 2.0, 2.0**-1000
    upper = (1.0 + 1e-9) * (below + floor) ** theta * (even + floor) ** (1.0 - theta)
    assert np.all(upper >= table)
    # and on Jensen's L(|d|^p) >= E_k^(p/2k), k = floor(p/2), for p >= 2
    if p_exp >= 2.0:
        k = math.floor(p_exp / 2.0)
        low = even_moment_table(params, m, n, k, xs, ys, TIGHT) ** (p_exp / (2 * k))
        assert (1.0 - 1e-9) * low[np.isfinite(low)].max(initial=0.0) <= table.max()


@pytest.mark.parametrize("p_exp", [2.0, 4.0])
def test_blocked_sup_agrees_with_the_single_band(p_exp):
    """At m = n = 600 both axes of the 41-point lattice are cut into two
    blocks; at even p the sup is the max of E_(p/2) over one band per axis,
    to 1e-14 relative."""
    params = StancuParams(0.5, 1.5, 0.25, 1.0)
    xs, ys = lattice(2.0, 41)
    got = sup_distance_power_operator(params, 600, 600, p_exp, xs, ys)
    want = float(even_moment_table(params, 600, 600, int(p_exp) // 2, xs, ys,
                                   DEFAULT_POLICY).max())
    assert abs(got - want) <= 1e-14 * want


def test_sup_distance_power_skips_most_points(monkeypatch):
    row, evaluated = bounds._distance_power_row, []

    def counted(wx, dx2, WY, dy2, p_exp):
        evaluated.append(WY.shape[0])
        return row(wx, dx2, WY, dy2, p_exp)

    monkeypatch.setattr(bounds, "_distance_power_row", counted)
    # even p: the bounds meet at L(|d|^p) itself, so only its max is evaluated
    sup_distance_power_operator(StancuParams(), 10, 10, 2.0, *lattice(1.0, 201), TIGHT)
    assert evaluated == [1]
    evaluated.clear()
    sup_distance_power_operator(StancuParams(1, 2, 1, 2), 20, 20, 3.0,
                                *lattice(1.0, 101), TIGHT)
    assert sum(evaluated) <= 0.05 * 101**2


@pytest.mark.parametrize("p_exp", [0.0, -1.0, math.nan, math.inf])
def test_sup_distance_power_rejects_bad_exponent(p_exp):
    with pytest.raises(DomainError, match="p_exp must be finite and > 0"):
        sup_distance_power_operator(StancuParams(), 10, 10, p_exp, *lattice(1.0, 11))


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


def test_theorem_4_1_validation():
    entry = corpus_lookup("quad")
    with pytest.raises(DomainError):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 0, 1.0, 1.0, R1)
    with pytest.raises(DomainError):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 1, 2.0, 1.0, R1)
    with pytest.raises(DomainError):
        theorem_4_1_bound(entry.derivative_provider, entry.function,
                          StancuParams(), 10, 10, 1, 1.0, 1.0, R1, mode="bogus")
