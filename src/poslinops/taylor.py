"""Order-r generalization of the operator via nodal Taylor polynomials.

The nodal value f(node) is replaced by the degree-r Taylor polynomial of f at
the node, evaluated at the target point.  Partial derivatives come from closed
forms, from 1-D factors or from second-order finite differences; the Taylor
terms of f = sum_k g_k(x) h_k(y) are applied one axis at a time, with no node
table.  The sampled Lipschitz constant of F^(r), the r-th derivative of f
along a segment, estimates the M of the order-r bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .basis import DEFAULT_POLICY, DomainError, require_finite, require_positive
from .operators import (Function2D, Point2D, _declare, _FactorSum, blocked_bands,
                        blocked_sweep, evaluate)

_MAX_FD_ORDER = 4


@dataclass(frozen=True)
class PartialDerivativeSet:
    """Provider of the partials d^(i+j) f / dx^i dy^j for i + j <= order,
    every order by default.

    ``eval(i, j, x, y)`` returns the derivative values and, like
    ``Function2D.eval``, must broadcast over numpy arrays; wrap a scalar-only
    provider in ``np.vectorize``.

    ``factors`` declares f = sum_k g_k(x) h_k(y) instead, as ``Function2D``'s
    do, each 1-D factor by its derivatives: a tuple of them from the 0-th on,
    callables or constants, 0 past its end, or k -> the k-th derivative.
    Each partial, and the list of L_r's terms for each r, is built once per
    provider, on first use.
    """

    eval: object = None
    order: float = math.inf
    source: str = "closed_form"
    factors: tuple = ()
    _partials: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _declare(self, self.source, _PartialSum, lambda g: isinstance(g, tuple)
                 or callable(g), "pairs (g, h) of tuples or callables")


class _PartialSum(_FactorSum):
    """d^(i+j) f / dx^i dy^j of f = sum_k g_k(x) h_k(y): the sum of the
    products g_k^(i)(x) h_k^(j)(y) that are not 0, or the scalar 0.0."""

    def __call__(self, i, j, x, y):
        return _factored_partial(self.factors, i, j).eval(x, y)


@dataclass(frozen=True)
class LipschitzWitness:
    gamma: float
    M_estimate: float
    argmax_pair: tuple


def apply_rth_on_grid(derivs, params, m, n, r, xs, ys, policy=DEFAULT_POLICY):
    """Order-r operator values on the tensor grid xs x ys: ``blocked_sweep``
    of the product X_i C Y_j^T for each monomial (i, j) of the Taylor
    expansion, the weights X_i = WX * dx^i / i! and Y_j = WY * dy^j / j! built
    once per power and block, and C the partial, factored if the provider is.
    A factored provider's terms whose partial is the constant 0 are dropped,
    and powers are built only up to the highest order a kept term uses."""
    terms, weigh = rth_terms(derivs, r)
    return blocked_sweep(terms, blocked_bands(params, m, n, xs, ys, policy), weigh=weigh)


def rth_terms(derivs, r):
    """The terms (partial, i, j) of L_r, by i + j and then j, without the
    partials that are 0, kept in the provider by r; and their ``weigh``.  A
    factored provider whose factors are all tuples lists its nonzero (i, j)
    from the tuples' entries, and builds only those partials."""
    _require_order(derivs, r)
    if r not in derivs._terms:
        if derivs.factors and all(isinstance(g, tuple) for pair in derivs.factors
                                  for g in pair):
            orders = sorted({(i, j) for g, h in derivs.factors
                             for i, gi in enumerate(g[: r + 1]) if gi is not None
                             for j, hj in enumerate(h[: r + 1 - i]) if hj is not None},
                            key=lambda ij: (ij[0] + ij[1], ij[1]))
        else:
            orders = [(h - j, j) for h in range(r + 1) for j in range(h + 1)]
        terms = [(_partial(derivs, i, j), i, j) for i, j in orders]
        derivs._terms[r] = [t for t in terms if t[0].factors or not derivs.factors]
    terms = derivs._terms[r]
    top = max((max(i, j) for _, i, j in terms), default=0)
    return terms, lambda W, x, t: [
        W * (x[:, None] - t[None, :]) ** i / math.factorial(i) if i else W
        for i in range(top + 1)]


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


def _factored_partial(factors, i, j, name="f"):
    """d^(i+j) f / dx^i dy^j of f = sum of g(x) h(y) over the pairs (g, h) of
    1-D factors: the Function2D of the pairs (g^(i), h^(j)) that are not 0, or
    the constant 0."""

    def d(factor, k):  # as a callable, None where it is 0
        if not isinstance(factor, tuple):
            return factor(k)
        c = factor[k] if k < len(factor) else None
        return c if c is None or callable(c) else lambda t: c

    pairs = tuple((g, h) for g, h in ((d(g, i), d(h, j)) for g, h in factors)
                  if g is not None and h is not None)
    return Function2D(name=name, factors=pairs) if pairs else Function2D(
        lambda x, y: 0.0, name=name)


def _partial(derivs, i, j):
    """The provider's partial d^(i+j) f / dx^i dy^j, named for errors and kept
    by (i, j) in the provider: factored for a provider with factors, else a
    call of its eval, which holds the eval and not the provider (no cycle)."""
    if (i, j) not in derivs._partials:
        name, ev = f"partial ({i}, {j}) of {derivs.source}", derivs.eval
        derivs._partials[i, j] = (
            _factored_partial(derivs.factors, i, j, name) if derivs.factors
            else Function2D(lambda x, y: ev(i, j, x, y), name=name))
    return derivs._partials[i, j]


def _require_order(derivs, r):
    if isinstance(r, bool) or not (isinstance(r, (int, np.integer)) and r >= 0):
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
