"""Weighted-space machinery: rho-norms, uniform operator bound, convergence.

Full-plane suprema are estimated on a truncated strip plus an analytic tail
certificate that exploits the monotone decay of rho / rho1 in y.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import DEFAULT_POLICY, DomainError, require_finite, require_positive
from .moduli import lattice_moduli, rho
from .operators import (
    CompactRegion,
    apply_on_grid,
    lattice,
    lattice_error,
    sample_lattice,
    second_central_moment_grid,
    square_gap_grid,
)
from .reporting import CAVEAT_FROZEN_WEIGHTED_MODULUS, BoundReport


def _rho_weighted_sup(moment, limit, params, m, n, strip, grid_points, label):
    """sup over [0, 1] x [0, inf) of |moment(params, m, n, xs, ys)| / rho: the
    max of the strip lattice value and the y -> inf limit(), called after the
    table so that the table's checks speak first.  Raises RuntimeError naming
    label when a ratio is not finite."""
    xs, ys = lattice(strip.A, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.abs(moment(params, m, n, xs, ys)) / rho(xs[:, None], ys[None, :])
    require_finite(label, ratio, f"strip lattice points on [0,1]x[0,S] (S = {strip.A})")
    return max(float(ratio.max()), limit())


def operator_rho_norm_bound(params, m, n, strip, grid_points=201):
    """Surrogate for the uniform operator norm on the rho-weighted space.

    1 + sup over the full domain of |L(t^2 + tau^2) - x^2 - y^2| / rho, the
    sup estimated as the max of a strip grid value and the analytic y -> inf
    limit |n^2 / (n + beta2)^2 - 1|.  Raises RuntimeError when a ratio is not
    finite: with beta2 > 0, past S ~ 1e154 it is inf / inf.
    """
    return 1.0 + _rho_weighted_sup(
        square_gap_grid, lambda: abs(n * n / (n + params.beta2) ** 2 - 1.0),
        params, m, n, strip, grid_points, "the rho-norm bound's ratio")


def check_theorem_5_2(f, params, schedule, epsilon, strip, grid_points=201,
                      policy=DEFAULT_POLICY):
    """Estimates of ||Lf - f||_rho1 along an (m, n) schedule, with the weight
    rho1 = rho^(1 + epsilon), epsilon > 0, and strip the rectangle
    [0, 1] x [0, S] as a CompactRegion.

    Each entry is a strip grid estimate plus a tail term for y > S:
    |Lf - f| <= M_f (||L|| + 1) rho there, and rho / rho1 <= (1 + S^2)^-eps.
    Neither part is certified: the first is a lattice max, and ||L|| comes
    from operator_rho_norm_bound, whose sup over the strip is a lattice max
    too, a lower estimate.
    """
    if f.m_f is None:
        raise DomainError("check_theorem_5_2 needs a rho-dominated f with m_f")
    require_positive("epsilon", epsilon)
    xs, ys, F = sample_lattice(f, strip, grid_points)
    R1 = rho(xs[:, None], ys[None, :]) ** (1.0 + epsilon)
    decay = (1.0 + strip.A**2) ** (-epsilon)
    out = []
    for m, n in schedule:
        L = apply_on_grid(f, params, m, n, xs, ys, policy)
        strip_part = float(np.max(lattice_error(f, L, F) / R1))
        M = operator_rho_norm_bound(params, m, n, strip, grid_points)
        out.append(strip_part + (f.m_f * M + f.m_f) * decay)
    return out


def check_theorem_5_3(f, params, m, n, s, strip, grid_points=201,
                      policy=DEFAULT_POLICY):
    """Weighted-modulus rate bound on the disc x^2 + y^2 <= s^2, with strip the
    sampling rectangle [0, 1] x [0, S] as a CompactRegion.

    The LHS is that of f / ||f||_rho, which L's linearity turns into the
    disc max of |L f - f| divided by the rho-norm.  delta^2 is the
    rho-weighted sup of the second central moment (strip grid max plus
    analytic tail limit); the constant is c^2 (1 + M) with c = sup of rho on
    the disc and M the uniform operator-norm surrogate.  The weighted modulus
    uses the frozen grid definition, flagged by a caveat.
    """
    if f.m_f is None:
        raise DomainError("check_theorem_5_3 needs a rho-dominated f with m_f")
    require_positive("s", s)

    # one strip sample gives the rho-norm and the unit-norm sample's modulus
    sx, sy, Fs = sample_lattice(f, strip, grid_points)
    norm = float(np.max(np.abs(Fs) / rho(sx[:, None], sy[None, :])))
    if norm == 0.0:
        raise DomainError("f vanishes on the sampling strip; cannot normalize")

    # LHS: sup over the part of the disc inside the domain
    xs, ys, F = sample_lattice(f, CompactRegion(s), grid_points)
    L = apply_on_grid(f, params, m, n, xs, ys, policy)
    disc = (xs[:, None] ** 2 + ys[None, :] ** 2) <= s * s
    lhs = float(np.max(lattice_error(f, L, F)[disc])) / norm

    delta = math.sqrt(_rho_weighted_sup(
        second_central_moment_grid, lambda: params.beta2**2 / (n + params.beta2) ** 2,
        params, m, n, strip, grid_points, "the second central moment's ratio"))

    M = operator_rho_norm_bound(params, m, n, strip, grid_points)
    c = 1.0 + s * s  # sup of rho on the disc
    w = lattice_moduli(sx, sy, Fs / norm, weighted=delta)["weighted"]
    rhs = c * c * (1.0 + M) * w
    return BoundReport(lhs=lhs, rhs=rhs, caveat=CAVEAT_FROZEN_WEIGHTED_MODULUS)
