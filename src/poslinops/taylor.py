"""Order-r generalization of the operator via nodal Taylor polynomials.

The nodal value f(node) is replaced by the degree-r Taylor polynomial of f at
the node, evaluated at the target point.  Partial derivatives come either from
closed forms or from second-order finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .basis import DEFAULT_POLICY, DomainError
from .moduli import LipschitzWitness
from .operators import KernelFamily, Point2D, eval_grid, weights_and_nodes

_MAX_FD_ORDER = 4


@dataclass(frozen=True)
class PartialDerivativeSet:
    """Provider of the partials d^(i+j) f / dx^i dy^j for i + j <= order.

    ``eval(i, j, x, y)`` returns the derivative value; it should broadcast
    over numpy arrays for the closed-form providers.
    """

    order: int
    eval: object
    source: str = "closed_form"


@dataclass(frozen=True)
class DirectionalFrame:
    """A base point, a unit direction and an offset u along it."""

    base: Point2D
    direction: tuple
    u: float = 0.0

    def __post_init__(self):
        a, b = self.direction
        if abs(a * a + b * b - 1.0) > 1e-14:
            raise DomainError(f"direction must be a unit vector, got {self.direction}")
        if self.u < 0.0:
            raise DomainError(f"u must be >= 0, got {self.u}")


def apply_rth_on_grid(derivs, params, m, n, r, xs, ys, policy=DEFAULT_POLICY,
                      family=KernelFamily.BERNSTEIN_SZASZ):
    """Order-r operator values on the tensor grid xs x ys.

    For each monomial (i, j) of the Taylor expansion the double node sum
    factorizes into two matrix products; the nodal derivative table is shared
    across all grid points.
    """
    if derivs.order < r:
        raise DomainError(
            f"derivative provider of order {derivs.order} insufficient for r={r}"
        )
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    WX, WY, tx, ty = weights_and_nodes(params, m, n, xs, ys, policy, family)
    out = np.zeros((len(xs), len(ys)))
    for h in range(r + 1):
        for j in range(h + 1):
            i = h - j
            C = eval_grid(functools.partial(derivs.eval, i, j), tx, ty) / (
                math.factorial(i) * math.factorial(j)
            )
            U = WX * (xs[:, None] - tx[None, :]) ** i
            V = WY * (ys[:, None] - ty[None, :]) ** j
            out += U @ C @ V.T
    return out


def apply_rth(derivs, params, m, n, r, p, policy=DEFAULT_POLICY,
              family=KernelFamily.BERNSTEIN_SZASZ):
    """Order-r operator value at a single point."""
    grid = apply_rth_on_grid(
        derivs, params, m, n, r, [p.x], [p.y], policy=policy, family=family
    )
    return float(grid[0, 0])


def fd_stencil_weights(z, xs, k):
    """Finite-difference weights for the k-th derivative at z on nodes xs.

    Fornberg's recursion; exact for polynomials of degree < len(xs).
    """
    xs = np.asarray(xs, dtype=float)
    N = len(xs)
    w = np.zeros((N, k + 1))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, N):
        mn = min(i, k)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    w[i, kk] = c1 * (kk * w[i - 1, kk - 1] - c5 * w[i - 1, kk]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for kk in range(mn, 0, -1):
                w[j, kk] = (c4 * w[j, kk] - kk * w[j, kk - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, k]


def _axis_nodes(center, order, step, lo, hi=None):
    """A stencil window around center, shifted to stay inside [lo, hi]."""
    if order == 0:
        return np.array([center]), np.array([1.0])
    count = order + 3
    offs = (np.arange(count) - (count - 1) / 2.0) * step
    pts = center + offs
    if pts[0] < lo:
        pts = pts + (lo - pts[0])
    if hi is not None and pts[-1] > hi:
        pts = pts - (pts[-1] - hi)
    if pts[0] < lo:
        raise DomainError(
            f"stencil of width {pts[-1] - pts[0]:g} does not fit in the domain"
        )
    return pts, fd_stencil_weights(center, pts, order)


def finite_difference_derivs(f, r, h=1e-4):
    """Second-order finite-difference partials of f up to total order r.

    Mixed partials use tensor composition of 1-D stencils; near x in {0, 1}
    or y = 0 the window is shifted one-sidedly into the domain.  The step is
    relative: h * (1 + |coordinate|).
    """
    if h <= 0.0:
        raise DomainError(f"h must be > 0, got {h}")
    if r > _MAX_FD_ORDER:
        raise DomainError(f"finite differences support order <= {_MAX_FD_ORDER}")

    def ev(i, j, x, y):
        xn, wx = _axis_nodes(float(x), i, h * (1.0 + abs(x)), 0.0, 1.0)
        yn, wy = _axis_nodes(float(y), j, h * (1.0 + abs(y)), 0.0)
        F = eval_grid(f, xn, yn)
        return float(wx @ F @ wy)

    return PartialDerivativeSet(order=r, eval=ev, source=f"finite_difference(h={h})")


def directional_rth_derivative(derivs, frame, r):
    """r-th derivative of u -> f(base + u * direction) at the frame's u."""
    if derivs.order < r:
        raise DomainError(
            f"derivative provider of order {derivs.order} insufficient for r={r}"
        )
    a, b = frame.direction
    x = frame.base.x + frame.u * a
    y = frame.base.y + frame.u * b
    if not (0.0 <= x <= 1.0) or y < 0.0:
        raise DomainError(f"point ({x}, {y}) leaves the operator domain")
    total = 0.0
    for j in range(r + 1):
        i = r - j
        total += math.comb(r, j) * derivs.eval(i, j, x, y) * a**i * b**j
    return float(total)


def f_rth_lipschitz_estimate(derivs, r, gamma, region, samples=2000, seed=0):
    """Lower estimate of the Lipschitz constant of u -> F^(r)(u).

    Frames are sampled as random segment endpoints inside R_A; the ratio
    |F^(r)(u) - F^(r)(0)| / u^gamma is maximized.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    rng = np.random.default_rng(seed)
    best = 0.0
    best_pair = (Point2D(0.0, 0.0), Point2D(0.0, 0.0))
    for _ in range(samples):
        x1, x2 = rng.random(2)
        y1, y2 = rng.random(2) * region.A
        u = math.hypot(x2 - x1, y2 - y1)
        if u < 1e-9:
            continue
        d = ((x2 - x1) / u, (y2 - y1) / u)
        base = Point2D(x1, y1)
        frame0 = DirectionalFrame(base, d, 0.0)
        frame1 = DirectionalFrame(base, d, u)
        val = abs(
            directional_rth_derivative(derivs, frame1, r)
            - directional_rth_derivative(derivs, frame0, r)
        ) / u**gamma
        if val > best:
            best = val
            best_pair = (base, Point2D(x2, y2))
    return LipschitzWitness(gamma, best, best_pair)
