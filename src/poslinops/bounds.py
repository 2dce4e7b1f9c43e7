"""Explicit error-bound formulas and inequality checkers on R_A.

Covers the delta quantities of the rate theorem, the full/partial-modulus
rate bounds and the order-r bound of Theorem 4.1 with its constant
gamma M / prod_{k=0}^{r} (gamma + k) and its distance-power function.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .basis import DEFAULT_POLICY, DomainError, require_degree, require_finite
from .moduli import lattice_moduli
from .operators import (apply_on_grid, blocked_bands, blocked_sweep, lattice_error,
                        sample_lattice)
from .reporting import (
    CAVEAT_NONE,
    CAVEAT_RHS_GRID_LOWER_BOUND,
    BoundReport,
)
from .taylor import rth_terms


@dataclass(frozen=True)
class DeltaTriple:
    delta_m: float
    delta_n: float
    delta_mn: float


def deltas(m, n, params, region):
    """The rate quantities delta_m, delta_n and their combination."""
    require_degree(m=m, n=n)
    b1, b2, A = params.beta1, params.beta2, region.A
    delta_m = math.sqrt(4.0 * b1 * b1 + m) / (m + b1)
    delta_n = math.sqrt(b2 * b2 * A * A + n * A) / (n + b2)
    delta_mn = math.sqrt(delta_m**2 + 4.0 * delta_n**2)
    return DeltaTriple(delta_m, delta_n, delta_mn)


def check_theorem_3_3(f, params, m, n, region, grid_points=201,
                      policy=DEFAULT_POLICY, moduli_source="closed_form",
                      closed_form_moduli=None):
    """Rate-of-convergence inequalities via partial (a) and full (b) moduli.

    ``closed_form_moduli`` maps kind ("full" | "partial_x" | "partial_y") to
    a callable (delta, A) -> value.  With grid moduli the RHS is itself a
    lower estimate, flagged by a caveat.  One lattice sample of f serves the
    LHS and, with grid moduli, all three moduli.
    """
    if moduli_source not in ("closed_form", "grid"):
        raise DomainError(f"unknown moduli_source {moduli_source!r}")
    if moduli_source == "closed_form" and not closed_form_moduli:
        raise DomainError(f"{getattr(f, 'name', 'f')} carries no closed-form moduli")
    d = deltas(m, n, params, region)
    xs, ys, F = sample_lattice(f, region, grid_points)
    L = apply_on_grid(f, params, m, n, xs, ys, policy)
    lhs = float(np.max(lattice_error(f, L, F)))
    if moduli_source == "grid":
        est = lattice_moduli(xs, ys, F, full=d.delta_mn, partial_x=d.delta_m,
                             partial_y=d.delta_n)
        w1, w2, w = est["partial_x"], est["partial_y"], est["full"]
        caveat = CAVEAT_RHS_GRID_LOWER_BOUND
    else:
        w1 = closed_form_moduli["partial_x"](d.delta_m, region.A)
        w2 = closed_form_moduli["partial_y"](d.delta_n, region.A)
        w = closed_form_moduli["full"](d.delta_mn, region.A)
        caveat = CAVEAT_NONE
    report_a = BoundReport(lhs=lhs, rhs=1.5 * (w1 + w2), caveat=caveat)
    report_b = BoundReport(lhs=lhs, rhs=1.5 * w, caveat=caveat)
    return report_a, report_b


_SLACK, _FLOOR = 1e-9, 2.0**-1000  # rounding, L(1) = 1 to ulps; underflow
# The Gauss bound's slack for rounding, and the least tilted variance (per E_h^2)
# and node ratio z2 / z1 at which its nodes are resolved from rounded moments
_G_SLACK, _G_SPREAD, _G_NODES = 1e-6, 1e-4, 1e-6
_G_RESOLVED = 2.0**40  # the least moment, per its underflow floor, G2 is formed from


def sup_distance_power_operator(bands, p_exp):
    """Max over the grid xs x ys of ``bands`` (``blocked_bands``) of
    L(((t-x)^2 + (tau-y)^2)^(p_exp/2); x, y).

    Each point's value M_q, q = p_exp, is bounded above by closed forms in the
    even moments E_k = L(|d|^2k), binomial sums of products of 1-D moments.
    With h = ceil(q/2) and theta = (2h - q)/2, Hoelder gives the chord
    M_q <= E_(h-1)^theta E_h^(1-theta) for any non-negative weights
    (E_0 = L(1)); at even q it is E_h itself.  At other q, M_q is the integral
    of z^u, u = 1 - theta, against the tilted measure Z^(h-1) dP, Z = |d|^2,
    whose moments are E_(h-1), ..., E_(h+2), and its two-node Gauss rule G2
    bounds it above: z^u = u/Gamma(1-u) int_0^inf (1 - e^(-tz)) t^(-1-u) dt,
    and each 1 - e^(-tz) has a negative fourth derivative, the sign that makes
    a two-node Gauss rule overestimate.  A point takes the smaller bound, with
    slack 1e-9 on the chord and 1e-6 on G2 for rounding and 2^-1000 on both
    for underflow, and each E_k a floor for the terms its sums lost to
    underflow (``_power_bound``); it keeps the chord where G2 is not finite, a
    node or weight is negative, the tilted variance E_(h-1) E_(h+1) - E_h^2 is
    below 1e-4 E_h^2, the smaller node is below 1e-6 times the larger (rounded
    moments resolve neither), a moment is not well above its floor, or
    h + 2 > 1029.  The point of largest finite bound is evaluated first, as
    the seed of the best value.

    A point whose bound is not below the seed's value is bounded again, exactly
    in y: at each node of its y row, at squared distance d, the x row's sum
    sum_v w_v (dx2_v + d)^(q/2) is bounded as above from the moments
    A_k(d) = sum_(i<=k) C(k, i) mx_i d^(k-i) of Z = dx2 + d >= 0 under the x
    weights (mx_i those of dx2^i), and these bounds are summed against the y
    weights; the moments' floors and the guards are the same.  The point
    keeps the smaller of its two bounds.  Then rows are swept by descending
    bound, and a row's points whose bound is not below the best value so far
    are evaluated, in one call per y block.  Sums and points are taken block
    by block of ``bands``; a node of zero weight sits at distance 0, so it
    adds +0 even where its |d|^p_exp would overflow.  The result is the largest
    value evaluated, the max of the full sweep over the same blocks bit for bit
    wherever that is finite: each point is reduced on its own, so its bits do
    not depend on the others.  It is the operator over truncated rows, so a
    lower estimate of the untruncated value too: at large p_exp the far nodes
    the rows leave out can carry most of the mass (at p_exp = 170, m = n = 10
    and (0.5, 100) it is 2.21e222, the untruncated value 2.14e242).  Raises
    RuntimeError naming L(|d|^p_exp) when an evaluated value is not finite
    (|d|^p_exp overflows at a weight that is not 0); that error is the report,
    so numpy's warnings are silenced here.  Raises DomainError when p_exp >
    2058 (C(h, h // 2) overflows a float past h = 1029).
    """
    if not 0.0 < p_exp < math.inf:
        raise DomainError(f"p_exp must be finite and > 0, got {p_exp}")
    if p_exp > 2058.0:
        raise DomainError(f"p_exp must be <= 2058, got {p_exp}: past it the "
                          f"binomials C(h, j) of its even moments overflow a float")
    (xs, xb, tx), (ys, yb, ty) = bands
    last = _orders(p_exp)[2]
    width = 1 + max(W.shape[1] for _, W, _ in xb) + max(W.shape[1] for _, W, _ in yb)
    with np.errstate(all="ignore"):
        xd = [(rows, W, _squared(W, tx[None, o : o + W.shape[1]] - xs[rows, None]))
              for rows, W, o in xb]
        yd = [(cols, W, _squared(W, ys[cols, None] - ty[None, o : o + W.shape[1]]))
              for cols, W, o in yb]
        mx, my = ([np.concatenate([(W * d2**j).sum(axis=1) for _, W, d2 in blocks])
                   for j in range(last + 1)] for blocks in (xd, yd))
        xrows = [row for _, W, d2 in xd for row in zip(W, d2)]  # (wx, dx2) per x

        def row_max(a, keep):  # the largest value at the kept points of row a, or 0
            out = 0.0
            for cols, W, d2 in yd:
                if keep[cols].any():
                    vals = require_finite(
                        f"L(|d|^{p_exp:g})", _distance_power_row(
                            *xrows[a], W[keep[cols]], d2[keep[cols]], p_exp),
                        f"points evaluated at x = {xs[a]:g}")
                    out = max(out, float(vals.max()))
            return out

        bound = _lattice_bound(mx, my, p_exp, width)
        a, c = np.unravel_index(
            np.argmax(np.where(np.isfinite(bound), bound, -np.inf)), bound.shape)
        best = 0.0
        if np.isfinite(bound[a, c]):  # the seed, then out of its row's batch
            best = row_max(a, np.arange(len(ys)) == c)
            bound[a, c] = -np.inf
        for block in yd:  # the points not ruled out, bounded again exactly in y
            cols, W, _ = block
            a, c = np.nonzero(~(bound[:, cols] < best))  # keeps NaN and inf
            c += cols.start
            step = max(1, 2**16 // W.shape[1])  # points per pass: 2^16 nodes
            for s in range(0, len(a), step):
                at = a[s : s + step], c[s : s + step]
                bound[at] = np.fmin(bound[at], _bound_exact_in_y(
                    mx, block, *at, p_exp, width))
        top = bound.max(axis=1)
        for a in np.argsort(top)[::-1]:  # NaN sorts last, so its rows come first
            if top[a] < best:
                break
            best = max(best, row_max(a, ~(bound[a] < best)))  # keeps NaN and inf
    return best


def _orders(p_exp):
    """h = ceil(p/2), theta = (2h - p)/2 and the highest even moment used."""
    h = math.ceil(p_exp / 2.0)
    theta = (2 * h - p_exp) / 2.0
    return h, theta, h + 2 if theta and h + 2 <= 1029 else h


def _lattice_bound(mx, my, p_exp, width):
    """Upper bounds of L(|d|^p) over the lattice from the 1-D moments mx, my:
    ``_power_bound`` of E_k = sum_j C(k, j) mx_j my_(k-j), k = h - 1 ... last."""
    h, theta, last = _orders(p_exp)
    E = [sum(math.comb(k, j) * np.outer(mx[j], my[k - j]) for j in range(k + 1))
         for k in range(h - 1, last + 1)]
    return _power_bound(E, theta, h, width)


def _bound_exact_in_y(mx, block, a, c, p_exp, width):
    """Upper bounds of L(|d|^p) at the points (xs[a], ys[c]) of the y block
    (cols, W, dy2): the y weights W summed exactly against ``_power_bound`` of
    each node's x row sum, from the moments A_k = sum_i C(k, i) mx_i dy2^(k-i)
    of Z = dx2 + dy2 under the x weights, k = h - 1 ... last (Horner in dy2)."""
    h, theta, last = _orders(p_exp)
    cols, W, d2 = block
    W, d = W[c - cols.start], d2[c - cols.start]
    M = [mx_i[a, None] for mx_i in mx]
    A = []
    for k in range(h - 1, last + 1):
        acc = M[0]
        for i in range(1, k + 1):
            acc = acc * d + float(math.comb(k, i)) * M[i]
        A.append(acc)
    return (W * _power_bound(A, theta, h, width)).sum(axis=1)


def _power_bound(E, theta, h, width):
    """Upper bounds of L(|d|^p), p = 2h - 2 theta, from the even-moment tables
    E = [E_(h-1), E_h], the chord, or [E_(h-1), ..., E_(h+2)], the moments of
    the tilted measure: the smaller of the chord and G2 where G2 is formed.

    A table E_k summed from 1-D moments over an x band and a y band of at most
    width - 1 columns together has lost at most f_k (1 + E_k) to underflow, with
    f_k = width 2^(k + 2 - 1074): each 1-D moment at most a subnormal ulp per
    column, and the binomials C(k, j) sum to 2^k.  So the chord adds f_k and
    2^-1000 to E_k and carries the factor 1 + f_h, and G2 is formed only where
    f_(h+2) <= 2^-40 and each of its moments is at least 2^40 (f_k + 2^-1000)."""
    f = [width * 2.0 ** (k + 2 - 1074) for k in range(h - 1, h - 1 + len(E))]
    chord = ((1.0 + _SLACK) * (1.0 + f[1]) * (E[0] + (f[0] + _FLOOR)) ** theta
             * (E[1] + (f[1] + _FLOOR)) ** (1.0 - theta))
    if len(E) == 2 or f[3] * _G_RESOLVED > 1.0:
        return chord
    m0, m1, m2, m3 = E
    var = m0 * m2 - m1 * m1
    half = 0.5 * (m0 * m3 - m1 * m2) / var  # nodes: roots of z^2 - 2 half z + b
    b = (m1 * m3 - m2 * m2) / var
    z1 = half + np.sqrt(half * half - b)
    z2 = b / z1  # the product of the roots, free of cancellation
    w1 = (m1 - m0 * z2) / (z1 - z2)
    w2 = m0 - w1
    u = 1.0 - theta  # G2 = w1 z1^u + w2 z2^u
    g = (1.0 + _G_SLACK) * (w1 * z1**u + w2 * z2**u) + _FLOOR
    ok = ((var >= _G_SPREAD * m1 * m1) & (z2 >= _G_NODES * z1)
          & (w1 >= 0.0) & (w2 >= 0.0) & np.isfinite(g))
    for m_k, f_k in zip(E, f):
        ok &= m_k >= _G_RESOLVED * (f_k + _FLOOR)
    return np.where(ok, np.minimum(chord, g), chord)


def _distance_power_row(wx, dx2, WY, dy2, p_exp):
    """L(|d|^p_exp) at points of one lattice row: x's weights wx and squared
    distances dx2, and one row of WY and dy2 per point.  Each point is reduced
    on its own, so its bits do not depend on the other points of the call."""
    M = (dx2[None, :, None] + dy2[:, None, :]) ** (0.5 * p_exp)
    M *= WY[:, None, :]
    return (M.sum(axis=2) * wx).sum(axis=1)


def _squared(W, d):
    """d^2, or 0 where the weight W is 0: such a node adds +0 to every moment,
    bound and value even where its |d|^p would overflow (0 inf is NaN).  There a
    zero y weight's (dx2 + 0)^(p/2) is <= 1, and a zero x weight's y row sum is
    at most any other x node's, so it overflows only where the value does."""
    return np.where(W == 0.0, 0.0, d**2)


def theorem_4_1_bound(derivs, f, params, m, n, r, gamma, M, region,
                      grid_points=101, policy=DEFAULT_POLICY, mode="moment"):
    """Order-r approximation bound, three interchangeable RHS variants.

    mode "moment": RHS through the lattice sup of the operator applied to the
    distance power |.|^(r+gamma), flagged as a lower estimate: a lattice max,
    over rows truncated at their windows (``sup_distance_power_operator``), on
    the bands L_r is taken on.  mode "modulus":
    RHS through the closed-form modulus of the distance-power function at
    delta_mn.  mode "lipschitz": RHS through its Lipschitz constant
    (1+A^2)^(r/2) and delta_mn^gamma.
    """
    if r < 1:
        raise DomainError("the order-r bound requires r >= 1")
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= M < math.inf:
        raise DomainError(f"M must be finite and >= 0, got {M}")
    xs, ys, F = sample_lattice(f, region, grid_points)
    terms, weigh = rth_terms(derivs, r)
    bands = blocked_bands(params, m, n, xs, ys, policy)  # for L_r and the sweep
    Lr = blocked_sweep(terms, bands, weigh)
    lhs = float(np.max(lattice_error(f, Lr, F)))

    # gamma M B(gamma, r) / ((gamma + r) (r - 1)!), B(gamma, r) in product form
    constant = gamma * M / math.prod(gamma + k for k in range(r + 1))
    p_exp = r + gamma
    if mode == "moment":
        distance = sup_distance_power_operator(bands, p_exp)
    elif mode == "modulus":
        d = deltas(m, n, params, region)
        diam = math.sqrt(1.0 + region.A**2)
        # exact modulus of dist(., c)^p on a convex region of diameter diam
        w_g = diam**p_exp - max(diam - d.delta_mn, 0.0) ** p_exp
        distance = 1.5 * w_g
    elif mode == "lipschitz":
        d = deltas(m, n, params, region)
        distance = (1.0 + region.A**2) ** (r / 2.0) * d.delta_mn**gamma
    else:
        raise DomainError(f"unknown mode {mode!r}")
    caveat = CAVEAT_RHS_GRID_LOWER_BOUND if mode == "moment" else CAVEAT_NONE
    return BoundReport(lhs=lhs, rhs=constant * distance, caveat=caveat)

