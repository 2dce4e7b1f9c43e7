"""The paper's formulas that only tests use, as oracles: the Lipschitz-class
corollaries of the rate theorem, the Korovkin gaps from the raw moments and
the exact operator values of the smooth corpus functions."""

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


# The smooth corpus functions as sums of products g(x) h(y) of exponential
# polynomials: "1", "t" and "t2" for 1, t and t^2, a number z for Re e^(z t).
EXACT_FACTORS = {
    "const1": (("1", "1"),),
    "linear": (("t", "1"), ("1", "t")),
    "prod": (("t", "t"),),
    "quad": (("t2", "1"), ("1", "t2")),
    "rho_growth": (("t2", "1"), ("1", "t2")),
    "smooth": ((1.0, -1.0 + 1.0j),),  # e^x e^-y cos y
}


def _expm1(z):
    """e^z - 1 for complex z = a + ib, no digit cancelled: expm1(a) cos b -
    2 sin^2(b/2) + i e^a sin b (1 - cos b = 2 sin^2(b/2))."""
    a, b = np.real(z), np.imag(z)
    return np.expm1(a) * np.cos(b) - 2.0 * np.sin(b / 2) ** 2 + 1j * np.exp(a) * np.sin(b)


def _log1p(w):
    """log(1 + w) for complex w = a + ib, no digit cancelled:
    log1p(a (2 + a) + b^2) / 2 + i atan2(b, 1 + a)."""
    a, b = np.real(w), np.imag(w)
    return np.log1p(a * (2.0 + a) + b * b) / 2 + 1j * np.arctan2(b, 1.0 + a)


def axis_exact(factor, degree, alpha, beta, v, poisson):
    """The 1-D Bernstein-Stancu (Szasz-Stancu with ``poisson``) operator of
    one factor at the points v, untruncated: E t = (deg v + alpha) / s and
    E t^2 = (var + (deg v + alpha)^2) / s^2, s = deg + beta and var = deg v (1 - v)
    (deg v), or the real part of the generating function of e^(z t),
    e^(z alpha / s) (1 + v expm1(z / s))^deg (exp(z alpha / s + deg v expm1(z / s)))."""
    v, s = np.asarray(v, dtype=float), degree + beta
    if factor == "1":
        return np.ones_like(v)
    mean = degree * v + alpha
    if factor == "t":
        return mean / s
    if factor == "t2":
        return (degree * v * (1.0 if poisson else 1.0 - v) + mean * mean) / (s * s)
    h = factor / s
    grow = degree * v * _expm1(h) if poisson else degree * _log1p(v * _expm1(h))
    return np.real(np.exp(alpha * h + grow))


def exact_pairs(name, params, m, n, xs, ys, absolute=False):
    """(L_x g, L_y h) for each pair of EXACT_FACTORS[name], as columns over xs
    and rows over ys: L f = sum of their products.  ``absolute`` takes the
    majorant of each factor (Re e^(z t) -> e^(Re z t); 1, t and t^2 are >= 0),
    so the sum bounds the operator of |g| |h|."""
    p, xs, ys = params, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

    def pick(k):
        return np.real(k) if absolute and not isinstance(k, str) else k

    return [(axis_exact(pick(g), m, p.alpha1, p.beta1, xs, False)[:, None],
             axis_exact(pick(h), n, p.alpha2, p.beta2, ys, True)[None, :])
            for g, h in EXACT_FACTORS[name]]
