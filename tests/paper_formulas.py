"""The paper's formulas that only tests use, as oracles: the Lipschitz-class
corollaries of the rate theorem and the Korovkin gaps from the raw moments."""

import numpy as np

from poslinops import DomainError
from poslinops.operators import lattice


def corollary_3_4_bound(M1, gamma, delta_mn):
    """Rate bound for f in Lip_M1(gamma): (3/2) M1 delta_mn^gamma."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    return 1.5 * M1 * delta_mn**gamma


def corollary_3_5_bound(M2, alpha, M3, beta, delta_m, delta_n):
    """Rate bound for axis-wise Lipschitz conditions."""
    for g in (alpha, beta):
        if not 0.0 < g <= 1.0:
            raise DomainError(f"Lipschitz exponents must be in (0, 1], got {g}")
    return 1.5 * M2 * delta_m**alpha + 1.5 * M3 * (2.0 * delta_n) ** beta


def korovkin_gaps(params, m, n, region, grid_points=201):
    """Sup-norm gaps of the four Korovkin test functions over R_A (grid max),
    from the closed-form moments L(t), L(tau), L(t^2) and L(tau^2)."""
    a1, b1, a2, b2 = params.alpha1, params.beta1, params.alpha2, params.beta2
    xs, ys = lattice(region.A, grid_points)
    t = (m * xs + a1) / (m + b1)
    tau = (n * ys + a2) / (n + b2)
    t2 = ((m * m - m) * xs * xs + (2 * a1 + 1) * m * xs + a1 * a1) / (m + b1) ** 2
    tau2 = (n * n * ys * ys + (2 * a2 + 1) * n * ys + a2 * a2) / (n + b2) ** 2
    gap_sq = np.abs((t2 - xs * xs)[:, None] + (tau2 - ys * ys)[None, :])
    gap_one = 0.0  # L(1) = 1 exactly
    return (gap_one, float(np.max(np.abs(t - xs))), float(np.max(np.abs(tau - ys))),
            float(np.max(gap_sq)))
