"""Order-r generalization of the operator via nodal Taylor polynomials.

The nodal value f(node) is replaced by the degree-r Taylor polynomial of f at
the node, evaluated at the target point.  Partial derivatives come either from
closed forms or from second-order finite differences.  The sampled Lipschitz
constant of F^(r), the r-th derivative of f along a segment, estimates the M
of the order-r bound.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .basis import DEFAULT_POLICY, DomainError, require_finite, require_positive
from .operators import Function2D, Point2D, blocked_sweep, evaluate

_MAX_FD_ORDER = 4


@dataclass(frozen=True)
class PartialDerivativeSet:
    """Provider of the partials d^(i+j) f / dx^i dy^j for i + j <= order,
    every order by default.

    ``eval(i, j, x, y)`` returns the derivative values and, like
    ``Function2D.eval``, must broadcast over numpy arrays; wrap a scalar-only
    provider in ``np.vectorize``.
    """

    eval: object
    order: float = math.inf
    source: str = "closed_form"


@dataclass(frozen=True)
class LipschitzWitness:
    gamma: float
    M_estimate: float
    argmax_pair: tuple


def apply_rth_on_grid(derivs, params, m, n, r, xs, ys, policy=DEFAULT_POLICY):
    """Order-r operator values on the tensor grid xs x ys: ``blocked_sweep``
    of the product U_i C V_j^T for each monomial (i, j) of the Taylor
    expansion, U_i = WX * dx^i and V_j = WY * dy^j built once per power and
    block, and C the nodal table of the partial over i! j!."""
    _require_order(derivs, r)
    terms = [(_partial(derivs, h - j, j, math.factorial(h - j) * math.factorial(j)),
              h - j, j) for h in range(r + 1) for j in range(h + 1)]
    return blocked_sweep(terms, params, m, n, xs, ys, policy, weigh=lambda W, x, t: [
        W * (x[:, None] - t[None, :]) ** i if i else W for i in range(r + 1)])


def apply_rth(derivs, params, m, n, r, p, policy=DEFAULT_POLICY):
    """Order-r operator value at a single point.  Raises RuntimeError naming
    L_r when the value is not finite."""
    value = float(apply_rth_on_grid(derivs, params, m, n, r, [p.x], [p.y], policy)[0, 0])
    if not math.isfinite(value):
        raise RuntimeError(f"L_{r}({derivs.source}) is not finite at ({p.x}, {p.y})")
    return value


def fd_stencil_weights(z, xs, k):
    """Finite-difference weights for the k-th derivative at z on nodes xs.

    Fornberg's recursion on arrays of centres z, with nodes xs of shape
    z.shape + (N,) and weights of that shape; exact for degrees < N.
    """
    xs = np.asarray(xs, dtype=float)
    N = xs.shape[-1]
    w = np.zeros(xs.shape + (k + 1,))
    w[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = xs[..., 0] - z
    for i in range(1, N):
        mn = min(i, k)
        c2 = 1.0
        c5 = c4
        c4 = xs[..., i] - z
        for j in range(i):
            c3 = xs[..., i] - xs[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    w[..., i, kk] = c1 * (kk * w[..., i - 1, kk - 1]
                                          - c5 * w[..., i - 1, kk]) / c2
                w[..., i, 0] = -c1 * c5 * w[..., i - 1, 0] / c2
            for kk in range(mn, 0, -1):
                w[..., j, kk] = (c4 * w[..., j, kk] - kk * w[..., j, kk - 1]) / c3
            w[..., j, 0] = c4 * w[..., j, 0] / c3
        c1 = c2
    return w[..., k]


def _axis_nodes(center, order, h, lo, hi):
    """Nodes and order-th derivative weights of the stencils around the
    centres, step h * (1 + |center|), shifted to stay inside [lo, hi]."""
    center = np.asarray(center, dtype=float)
    if order == 0:
        return center[..., None], np.ones(center.shape + (1,))
    count = order + 3
    step = h * (1.0 + np.abs(center))
    pts = center[..., None] + (np.arange(count) - (count - 1) / 2.0) * step[..., None]
    pts = pts + np.maximum(lo - pts[..., :1], 0.0)
    pts = pts - np.maximum(pts[..., -1:] - hi, 0.0)
    if (pts[..., 0] < lo).any():
        width = np.max(pts[..., -1] - pts[..., 0])
        raise DomainError(f"stencil of width {width:g} does not fit in the domain")
    return pts, fd_stencil_weights(center, pts, order)


def finite_difference_derivs(f, r, h=1e-4):
    """Second-order finite-difference partials of f up to total order r.

    Mixed partials use tensor composition of 1-D stencils; near x in {0, 1}
    or y = 0 the window is shifted one-sidedly into the domain.  The step is
    relative: h * (1 + |coordinate|).  The provider broadcasts and calls f
    once per pair of stencil offsets, at most (i + 3)(j + 3) times.
    """
    require_positive("h", h)
    if r > _MAX_FD_ORDER:
        raise DomainError(f"finite differences support order <= {_MAX_FD_ORDER}")

    def ev(i, j, x, y):
        xn, wx = _axis_nodes(x, i, h, 0.0, 1.0)
        yn, wy = _axis_nodes(y, j, h, 0.0, np.inf)
        total = 0.0
        for b in range(yn.shape[-1]):
            inner = 0.0
            for a in range(xn.shape[-1]):
                inner = inner + wx[..., a] * evaluate(f, xn[..., a], yn[..., b])
            total = total + inner * wy[..., b]
        return total[()]

    return PartialDerivativeSet(order=r, eval=ev, source=f"finite_difference(h={h})")


def _partial(derivs, i, j, scale=1):
    """The provider's partial d^(i+j) f / dx^i dy^j over scale, named for errors;
    at scale 1 undivided, which gives the same bits without a copy."""

    def ev(x, y):
        out = derivs.eval(i, j, x, y)
        return out if scale == 1 else np.asarray(out, float) / scale

    return Function2D(ev, name=f"partial ({i}, {j}) of {derivs.source}")


def _require_order(derivs, r):
    if not (isinstance(r, (int, np.integer)) and r >= 0):
        raise DomainError(f"r must be an integer >= 0, got r={r}")
    if r > 169:  # past it (r + 1)! overflows, as would Theorem 4.1's constant
        raise DomainError(f"r must be <= 169, got r={r}")
    if derivs.order < r:
        raise DomainError(
            f"derivative provider of order {derivs.order} insufficient for r={r}"
        )


def _directional(derivs, r, x, y, a, b):
    """r-th derivatives of f along unit directions (a, b) at points (x, y),
    sum_j C(r, j) a^i b^j d^r f / dx^i dy^j with i = r - j; all broadcast."""
    total = 0.0
    for j in range(r + 1):
        i = r - j
        partial = evaluate(_partial(derivs, i, j), x, y)
        total = total + math.comb(r, j) * partial * a**i * b**j
    return total


def f_rth_lipschitz_estimate(derivs, r, gamma, region, samples=2000, seed=0):
    """Lower estimate of the Hoelder constant of exponent gamma of u -> F^(r)(u).

    Seeded random segments (x1, y1) -> (x2, y2) in R_A, of length u >= 1e-9,
    maximize |F^(r)(u) - F^(r)(0)| / u^gamma, F^(r) taken along the segment
    at its endpoints.  The witness holds the largest ratio and its pair, or
    M = 0 without segments.  At r = 0, F^(0) is f itself.  Raises
    RuntimeError when a ratio is not finite.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    _require_order(derivs, r)
    draws = np.random.default_rng(seed).random((samples, 4))
    x1, x2 = draws[:, 0], draws[:, 1]
    y1, y2 = draws[:, 2] * region.A, draws[:, 3] * region.A
    u = np.hypot(x2 - x1, y2 - y1)
    keep = u >= 1e-9
    x1, y1, x2, y2, u = x1[keep], y1[keep], x2[keep], y2[keep], u[keep]
    if u.size == 0:
        return LipschitzWitness(gamma, 0.0, (Point2D(0.0, 0.0), Point2D(0.0, 0.0)))
    a, b = (x2 - x1) / u, (y2 - y1) / u
    diff = _directional(derivs, r, x2, y2, a, b) - _directional(derivs, r, x1, y1, a, b)
    ratio = require_finite(f"F^({r}) of {derivs.source}", np.abs(diff) / u**gamma,
                           "sampled segments")
    i = int(np.argmax(ratio))
    pair = (Point2D(float(x1[i]), float(y1[i])), Point2D(float(x2[i]), float(y2[i])))
    return LipschitzWitness(gamma, float(ratio[i]), pair)
