"""Tests for the rho-weighted norms, operator bound and convergence checks."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    StancuParams,
    TruncationPolicy,
    check_theorem_5_2,
    check_theorem_5_3,
    corpus_lookup,
    operator_rho_norm_bound,
)
from poslinops.moduli import rho
from poslinops.operators import apply_on_grid, lattice_error, sample_lattice

TIGHT = TruncationPolicy(1e-13)
STRIP = CompactRegion(50.0)


def test_weight_spec_validation():
    # the weight rho^(1 + epsilon) needs epsilon > 0
    f = corpus_lookup("rho_growth").function
    for epsilon in (0.0, -0.5):
        with pytest.raises(DomainError, match="^epsilon must be finite and > 0"):
            check_theorem_5_2(f, StancuParams(), [(10, 10)], epsilon, STRIP, 11)
    with pytest.raises(DomainError):
        CompactRegion(0.0)


def test_operator_rho_norm_bound_unshifted_closed_form():
    # with alpha = beta = 0 the gap is x(1-x)/m + y/n, so the weighted sup
    # is at most 1/(4m) + 1/(2n)
    for m, n in ((1, 1), (5, 20), (100, 3)):
        bound = operator_rho_norm_bound(StancuParams(), m, n, STRIP, 201)
        assert bound <= 1.0 + 0.25 / m + 0.5 / n + 1e-9
        assert bound >= 1.0


def test_operator_rho_norm_bound_includes_tail_limit():
    # at large S the y -> inf limit |n^2/(n+b2)^2 - 1| dominates the grid part
    params = StancuParams(0, 0, 0, 3)
    b = operator_rho_norm_bound(params, 100, 1, CompactRegion(1.0), 51)
    tail = abs(1.0 / (1 + 3.0) ** 2 - 1.0)
    assert b >= 1.0 + tail


def test_operator_rho_norm_bound_decreases():
    params = StancuParams(1, 1, 2, 2)
    vals = [operator_rho_norm_bound(params, m, m, STRIP, 101)
            for m in (1, 5, 25, 125)]
    assert vals == sorted(vals, reverse=True)


def test_check_theorem_5_2_requires_growth_metadata():
    # m_f marks a rho-dominated f; without it neither weighted theorem applies
    f = corpus_lookup("quad").function  # the formula of rho_growth, no m_f
    assert corpus_lookup("rho_growth").function.m_f == 1.0
    with pytest.raises(DomainError, match="needs a rho-dominated f with m_f"):
        check_theorem_5_2(f, StancuParams(), [(10, 10)], 0.5, STRIP)
    with pytest.raises(DomainError, match="needs a rho-dominated f with m_f"):
        check_theorem_5_3(f, StancuParams(), 10, 10, 2.0, STRIP, 11)


def test_check_theorem_5_2_estimates_decrease():
    f = corpus_lookup("rho_growth").function
    sched = [(m, m) for m in (10, 20, 40, 80, 160)]
    ests = check_theorem_5_2(f, StancuParams(3, 3, 3, 3), sched, 0.5, STRIP, 201,
                             TIGHT)
    assert all(v > 0 for v in ests)
    assert all(a > b for a, b in zip(ests, ests[1:]))


def test_check_theorem_5_2_tail_floor():
    # with a fixed strip the tail certificate keeps every entry above
    # m_f * 2 * (1 + S^2)^(-eps); the estimates cannot be driven to zero
    f = corpus_lookup("rho_growth").function
    ests = check_theorem_5_2(f, StancuParams(), [(200, 200)], 0.5, STRIP, 101, TIGHT)
    floor = 2.0 * (1.0 + STRIP.A**2) ** -0.5
    assert ests[0] >= floor


def test_check_theorem_5_3_holds():
    f = corpus_lookup("rho_growth").function
    rep = check_theorem_5_3(f, StancuParams(1, 1, 2, 2), 40, 40, 2.0, STRIP,
                            grid_points=101, policy=TIGHT)
    assert rep.holds
    assert rep.caveat == "rhs_uses_frozen_weighted_modulus"
    assert rep.lhs >= 0.0 and rep.rhs > 0.0


def test_check_theorem_5_3_lhs_shrinks():
    f = corpus_lookup("rho_growth").function
    lhs = [
        check_theorem_5_3(f, StancuParams(), m, m, 1.5, STRIP,
                          grid_points=101, policy=TIGHT).lhs
        for m in (10, 40, 160)
    ]
    assert lhs[0] > lhs[1] > lhs[2]


def test_check_theorem_5_3_samples_strip_once():
    base = corpus_lookup("rho_growth").function
    calls = []

    @functools.wraps(base.eval)
    def counted(x, y):
        calls.append(np.broadcast(x, y).shape)
        return base.eval(x, y)

    # without factors: the strip lattice, the disc lattice and the node grid
    f = dataclasses.replace(base, eval=counted, factors=())
    rep = check_theorem_5_3(f, StancuParams(1, 1, 2, 2), 12, 9, 2.0, STRIP,
                            grid_points=61, policy=TIGHT)
    assert len(calls) == 3 and calls.count((61, 61)) == 2
    assert rep.holds
    # with factors no node grid: the two calls sample the strip and disc lattices
    calls.clear()
    fac = check_theorem_5_3(dataclasses.replace(base, eval=counted),
                            StancuParams(1, 1, 2, 2), 12, 9, 2.0, STRIP,
                            grid_points=61, policy=TIGHT)
    assert calls == [(61, 61)] * 2
    assert fac.holds and fac.rhs == rep.rhs
    assert fac.lhs == pytest.approx(rep.lhs, rel=1e-12, abs=1e-15)


def unit_rho_lhs(f, params, m, n, s, grid_points, policy, strip):
    """Theorem 5.3's LHS as stated, the disc max of |L fhat - fhat| for the
    rescaled fhat = f / ||f||_rho (||f||_rho from the strip lattice), and the
    disc max of |L fhat| + |fhat|, the size of what that difference cancels."""
    sx, sy, Fs = sample_lattice(f, strip, grid_points)
    norm = float(np.max(np.abs(Fs) / rho(sx[:, None], sy[None, :])))
    fhat = Function2D(eval=lambda x, y: np.asarray(f(x, y)) / norm, name="fhat")
    xs, ys, F = sample_lattice(fhat, CompactRegion(s), grid_points)
    L = apply_on_grid(fhat, params, m, n, xs, ys, policy)
    disc = (xs[:, None] ** 2 + ys[None, :] ** 2) <= s * s
    return (float(np.max(lattice_error(fhat, L, F)[disc])),
            float(np.max((np.abs(L) + np.abs(F))[disc])))


@pytest.mark.parametrize("params", [StancuParams(1, 1, 2, 2), StancuParams(0.5, 2, 1, 3)])
@pytest.mark.parametrize("m, n, s", [(12, 9, 2.0), (40, 40, 5.0), (7, 60, 1.0),
                                     (40, 40, 2.0)])
def test_check_theorem_5_3_lhs_is_that_of_f_over_its_rho_norm(params, m, n, s):
    """L is linear, so max |L f - f| / ||f||_rho is the rescaled f's LHS, up to
    the rounding of L and f: 4 ulps of |L fhat| + |fhat| (the difference
    cancels, so up to 34 ulps of the LHS itself at m = n = 40, s = 2)."""
    f = corpus_lookup("rho_growth").function
    rep = check_theorem_5_3(f, params, m, n, s, STRIP, 61, TIGHT)
    want, size = unit_rho_lhs(f, params, m, n, s, 61, TIGHT, STRIP)
    assert abs(rep.lhs - want) <= 4 * np.spacing(size)


def test_check_theorem_5_3_validation():
    f = corpus_lookup("rho_growth").function
    with pytest.raises(DomainError):
        check_theorem_5_3(corpus_lookup("quad").function, StancuParams(),
                          10, 10, 1.0, STRIP)
    with pytest.raises(DomainError):
        check_theorem_5_3(f, StancuParams(), 10, 10, 0.0, STRIP)
