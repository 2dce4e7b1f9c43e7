"""The bivariate positive linear operator and its moments.

The operator averages f over a product lattice of shifted nodes
(v + alpha1)/(m + beta1) in x and (k + alpha2)/(n + beta2) in y, with
Bernstein weights in x and (truncated) Poisson weights in y.  Setting
``apply_on_grid``'s y-family to Bernstein gives the bivariate generalized
Bernstein polynomials on [0, 1]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import inspect
import math
from typing import Callable, Optional

import numpy as np

from .basis import (
    DEFAULT_POLICY,
    DomainError,
    axis_bands,
    require_degree,
    require_finite,
    require_positive,
)


class KernelFamily(Enum):
    BERNSTEIN_SZASZ = "bernstein_szasz"
    BERNSTEIN_BERNSTEIN = "bernstein_bernstein"


@dataclass(frozen=True)
class StancuParams:
    """Shift/scale parameters with 0 <= alpha_j <= beta_j."""

    alpha1: float = 0.0
    beta1: float = 0.0
    alpha2: float = 0.0
    beta2: float = 0.0

    def __post_init__(self):
        for a, b, axis in ((self.alpha1, self.beta1, 1), (self.alpha2, self.beta2, 2)):
            if not 0.0 <= a <= b < np.inf:
                raise DomainError(
                    f"need 0 <= alpha{axis} <= beta{axis} < inf, got ({a}, {b})"
                )


@dataclass(frozen=True)
class Point2D:
    """A point of the operator domain [0, 1] x [0, inf)."""

    x: float
    y: float

    def __post_init__(self):
        if not 0.0 <= self.x <= 1.0:
            raise DomainError(f"x must be in [0, 1], got {self.x}")
        if not 0.0 <= self.y < np.inf:
            raise DomainError(f"y must be finite and >= 0, got {self.y}")


@dataclass(frozen=True)
class CompactRegion:
    """The rectangle [0, 1] x [0, A]."""

    A: float

    def __post_init__(self):
        require_positive("A", self.A)


@dataclass(frozen=True)
class Function2D:
    """Evaluation contract for f on [0, 1] x [0, inf).

    ``eval(x, y)`` must broadcast over numpy arrays (see ``evaluate``); wrap
    a scalar-only f in ``np.vectorize``.  ``m_f`` marks a rho-dominated f:
    |f| <= m_f * (1 + x^2 + y^2); None for any other f.

    ``factors`` declares f instead, as pairs (g, h) of callables with
    f(x, y) = sum_k g_k(x) h_k(y), each broadcasting like ``eval``, which is
    filled in with that sum; the operator applies them one axis at a time.
    An eval given beside factors is a DomainError naming f, unless it
    unwraps (``functools.wraps``) to their sum; so is a malformed pair."""

    eval: Optional[Callable] = None
    name: str = "f"
    m_f: Optional[float] = None
    factors: tuple = ()

    def __post_init__(self):
        _declare(self, self.name, _FactorSum)

    def __call__(self, x, y):
        return self.eval(x, y)


def _declare(obj, name, total, is_factor=callable, kind="callable pairs (g, h)"):
    """Store obj's factors as a tuple (a tuple is kept, so is-identity holds)
    and fill in a missing eval with total(factors); raise DomainError naming
    obj as ``Function2D`` states."""
    factors = tuple(obj.factors)
    if not all(isinstance(p, tuple) and len(p) == 2 and all(map(is_factor, p))
               for p in factors):
        raise DomainError(f"{name}'s factors must be {kind}")
    object.__setattr__(obj, "factors", factors)
    if obj.eval is None:
        if not factors:
            raise DomainError(f"{name} needs an eval or factors")
        object.__setattr__(obj, "eval", total(factors))
    elif factors:
        ev = inspect.unwrap(obj.eval)
        if not (type(ev) is total and ev.factors is factors):
            raise DomainError(f"{name} takes an eval or factors, not both")


class _FactorSum:
    """sum_k g_k(x) h_k(y), the eval of a Function2D declared by its factors
    alone; added without a start value, so a constant stays a scalar."""

    def __init__(self, factors):
        self.factors = factors

    def __call__(self, x, y):
        (g, h), *rest = self.factors
        out = g(x) * h(y)
        for g, h in rest:
            out = out + g(x) * h(y)
        return out


@dataclass(frozen=True)
class MomentSet:
    one: float
    t: float
    tau: float
    t2_plus_tau2: float


def evaluate(f, x, y):
    """f(x, y), called once, as a float array broadcasting to x and y's shape.

    A constant stays 0-d, not expanded.  Raises RuntimeError naming f when f
    raises, MemoryError aside, or its result is complex or does not broadcast.
    """
    shape = np.broadcast(x, y).shape
    try:
        out = _real(f(x, y))
        if np.broadcast(out, x, y).shape != shape:
            raise ValueError(f"result of shape {out.shape} does not broadcast")
    except MemoryError:
        raise
    except Exception as exc:
        raise RuntimeError(
            f"evaluation of {getattr(f, 'name', 'f')} failed on shape {shape}"
        ) from exc
    return out


def _real(value):
    """value as a float array; TypeError if complex, not its real part."""
    out = np.asarray(value)
    if out.dtype.kind == "c":
        raise TypeError(f"result of dtype {out.dtype} is complex: {out!r}")
    return out.astype(float, copy=False)


def eval_grid(f, tx, ty):
    """f on the tensor grid tx x ty, expanded to shape (len(tx), len(ty))."""
    out = evaluate(f, tx[:, None], ty[None, :])
    shape = (len(tx), len(ty))
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def lattice(side, grid_points):
    """The uniform grid_points x grid_points lattice of [0, 1] x [0, side].

    Every grid sup of the package is taken on this lattice, as (xs, ys).
    """
    if (isinstance(grid_points, bool) or not isinstance(grid_points, (int, np.integer))
            or grid_points < 2):
        raise DomainError(f"grid_points must be >= 2 and integral, got {grid_points!r}")
    return np.linspace(0.0, 1.0, grid_points), np.linspace(0.0, side, grid_points)


def sample_lattice(f, region, grid_points=201):
    """f on the lattice of R_A = [0, 1] x [0, region.A], as (xs, ys, F).

    Raises RuntimeError naming f when a sample is not finite: a NaN would
    drop out of every maximum and an infinity would give inf - inf.  That
    error is the report, so numpy's overflow and invalid-value warnings are
    silenced while f is sampled.
    """
    xs, ys = lattice(region.A, grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        F = eval_grid(f, xs, ys)
    return xs, ys, require_finite(getattr(f, "name", "f"), F,
                                  f"lattice points on [0,1]x[0,{region.A}]")


def lattice_error(f, L, F):
    """|L f - f| on a lattice, from L f there and the sample F of f.

    Raises RuntimeError naming f when L f is not finite: f can be finite on
    the lattice and not at the operator's nodes beyond it.
    """
    label = f"L({getattr(f, 'name', 'f')})"
    err = np.subtract(require_finite(label, L, "lattice points"), F)
    return np.abs(err, out=err)


def blocked_bands(params, m, n, xs, ys, policy=DEFAULT_POLICY,
                  family=KernelFamily.BERNSTEIN_SZASZ):
    """The bands every lattice sweep takes: the x axis, then the y axis, of the
    grid xs x ys as (points, [(rows, W, offset)], nodes), the points as floats
    built by one ``axis_bands`` call; W weighs points[rows] over its block's
    band, offset columns into the union of the bands, whose Stancu nodes are nodes.
    An operator value is within (left tail + right tail)(sup f - inf f) of the
    untruncated one's, over all nodes, the tails of both rows summed and each
    at most tail_tol (a Szasz row's right one is its tail bound), and a block's
    band moves it by at most 4 tail_tol (sup f - inf f); a bad point raises as
    in one band."""
    p, ny, axes = params, family is KernelFamily.BERNSTEIN_SZASZ, []
    for name, degree, points, a, b, poisson in (("xs", m, xs, p.alpha1, p.beta1, False),
                                                ("ys", n, ys, p.alpha2, p.beta2, ny)):
        points = np.asarray(points, dtype=float)
        if len(shape := points.shape) != 1 or not shape[0]:
            raise DomainError(f"{name} must be nonempty 1-D, not shape {shape}")
        bands = axis_bands(degree, points, policy, poisson)  # Szasz: W, tail, lo
        first = min([lo for *_, lo in bands])
        last = max([lo + W.shape[1] for _, W, *_, lo in bands])
        axes.append((points, [(rows, W, lo - first) for rows, W, *_, lo in bands],
                     (np.arange(first, last) + a) / (degree + b)))
    return axes


def blocked_sweep(terms, bands, weigh=lambda W, x, t: [W]):
    """Sum over terms (g, i, j), in order, of X_i @ G @ Y_j.T on the grid of
    ``blocked_bands`` bands: [X_0, X_1, ...] = weigh(W, points, nodes) per block.

    A g with ``factors`` (g_k, h_k) builds no node table and its eval is never
    called: with the columns G = [g_k(tx)] and H = [h_k(ty)] on the nodes, it
    adds U @ V.T (U * V.T for one pair), where U = X_i @ G and V = Y_j @ H block
    by block; a constant g = c is the one pair (c, 1), and c = 0 adds nothing.
    Any other g is evaluated once, as its contiguous table C on the union of the
    bands, and adds (Y_j @ (X_i @ C).T).T, block by block on each axis."""
    (xs, xb, tx), (ys, yb, ty) = bands
    xb = [(rows, weigh(W, xs[rows], tx[o : o + W.shape[1]]), o) for rows, W, o in xb]
    yb = [(cols, weigh(W, ys[cols], ty[o : o + W.shape[1]]), o) for cols, W, o in yb]
    L = None
    for g, i, j in terms:
        c = None if getattr(g, "factors", ()) else evaluate(g, tx[:, None], ty[None, :])
        if c is not None and c.ndim:  # expanded as eval_grid: no zero-stride operand
            C = np.ascontiguousarray(np.broadcast_to(c, (len(tx), len(ty))))
            T = _band_sums(yb, j, _band_sums(xb, i, C, len(xs)).T, len(ys)).T
        elif c is None or c:
            G, H = ((_factor_columns(g, 0, tx), _factor_columns(g, 1, ty)) if c is None
                    else (np.full((len(tx), 1), c), np.ones((len(ty), 1))))
            U, V = _band_sums(xb, i, G, len(xs)), _band_sums(yb, j, H, len(ys))
            T = U * V.T if G.shape[1] == 1 else U @ V.T
        else:
            continue
        L = np.add(T, 0.0, order="C") if L is None else np.add(L, T, out=L)  # as 0 + T
    return np.zeros((len(xs), len(ys))) if L is None else L


def _band_sums(blocks, k, T, count):
    """Each block's weights W[k] times the rows of T in its band, stacked into
    one row per point: shape (count, T.shape[1])."""
    out = np.empty((count, T.shape[1]))
    for rows, W, o in blocks:
        np.matmul(W[k], T[o : o + W[k].shape[1]], out=out[rows])
    return out


def _factor_columns(f, axis, t):
    """[g_k(t)] (axis 0) or [h_k(t)] (axis 1), one column per factor pair of
    f.  Raises RuntimeError naming f when a factor raises, MemoryError aside,
    or its result is complex or does not broadcast to t."""
    out = np.empty((len(t), len(f.factors)))
    try:
        for k, pair in enumerate(f.factors):
            out[:, k] = _real(pair[axis](t))
    except MemoryError:
        raise
    except Exception as exc:
        raise RuntimeError(f"evaluation of the factors of {getattr(f, 'name', 'f')} "
                           f"failed on {len(t)} points") from exc
    return out


def apply_on_grid(f, params, m, n, xs, ys, policy=DEFAULT_POLICY,
                  family=KernelFamily.BERNSTEIN_SZASZ):
    """Operator values on the tensor grid xs x ys, shape (len(xs), len(ys)):
    ``blocked_sweep`` of the one term (f, 0, 0), two matrix products by blocks.
    An f with ``factors`` is applied one axis at a time, without calling its
    eval; any other f is evaluated once, on the union of the bands."""
    return blocked_sweep([(f, 0, 0)], blocked_bands(params, m, n, xs, ys, policy, family))


def apply(f, params, m, n, p, policy=DEFAULT_POLICY):
    """Apply the operator to f at the point p.

    With alpha2 = 0, on the edge y = 0 this is the 1-D Stancu operator of
    f(., 0) (Bernstein for alpha1 = beta1 = 0); with alpha1 = 0, on the edge
    x = 0 it is the truncated 1-D Szasz-Stancu operator of f(0, .).  Raises
    RuntimeError naming L(f) when the value is not finite.
    """
    value = float(apply_on_grid(f, params, m, n, [p.x], [p.y], policy)[0, 0])
    if not math.isfinite(value):
        raise RuntimeError(
            f"L({getattr(f, 'name', 'f')}) is not finite at ({p.x}, {p.y})")
    return value


def _scale2(degree, beta, axis):
    """(degree + beta)^2, the denominator of the axis's second moments.

    Raises DomainError naming beta when it overflows (a Python float's **
    raises there; a numpy beta is converted, as its ** would give inf).
    """
    try:
        return float(degree + beta) ** 2
    except OverflowError:
        raise DomainError(f"beta{axis} must give finite moments, got beta{axis} = "
                          f"{beta} ({'mn'[axis - 1]} = {degree})") from None


def _central(degree, alpha, beta, v, var, axis):
    """An axis's variance var plus squared bias: (var + d d) / (degree + beta)^2
    with d = alpha - beta v; no digits cancel.  d * d, not d ** 2: on a float,
    ** raises where numpy gives inf."""
    d = alpha - beta * v
    return (var + d * d) / _scale2(degree, beta, axis)


def _gap(degree, alpha, beta, v, var, axis):
    """An axis's L(s^2) - v^2 = var / (degree + beta)^2 + e (e + 2v), with the
    bias e = (alpha - beta v) / (degree + beta) = E s - v; no digits cancel."""
    e = (alpha - beta * v) / (degree + beta)
    return var / _scale2(degree, beta, axis) + e * (e + 2.0 * v)


def _axes(formula, params, m, n, x, y):
    """formula on the x axis (variance m x (1 - x)), then on the y axis
    (variance n y)."""
    return (formula(m, params.alpha1, params.beta1, x, m * x * (1.0 - x), 1),
            formula(n, params.alpha2, params.beta2, y, n * y, 2))


def _finite_in_y(value, n, p):
    if not -np.inf < value < np.inf:
        raise DomainError(f"y must give finite moments, got y = {p.y} (n = {n})")
    return value


def moments_closed_form(params, m, n, p):
    """Closed-form operator moments of 1, t, tau and t^2 + tau^2.

    The tau moment is (n y + alpha2)/(n + beta2): linear in y, confirmed
    against the direct double-summation oracle.  Raises DomainError naming y
    when a moment is not finite.
    """
    require_degree(m=m, n=n)
    x, y = float(p.x), float(p.y)
    gx, gy = _axes(_gap, params, m, n, x, y)
    t2_plus_tau2 = gx + gy + (x * x + y * y)
    tau = (n * y + params.alpha2) / (n + params.beta2)
    return MomentSet(one=1.0, t=(m * x + params.alpha1) / (m + params.beta1),
                     tau=_finite_in_y(tau, n, p),
                     t2_plus_tau2=_finite_in_y(t2_plus_tau2, n, p))


def second_central_moment(params, m, n, p):
    """Operator value on (t - x)^2 + (tau - y)^2 at the point p."""
    require_degree(m=m, n=n)
    x, y = float(p.x), float(p.y)
    cx, cy = _axes(_central, params, m, n, x, y)
    return _finite_in_y(cx + cy, n, p)


def _on_grid(formula, params, m, n, xs, ys):
    """formula's x-axis value plus its y-axis value on the tensor grid xs x ys."""
    require_degree(m=m, n=n)
    gx, gy = _axes(formula, params, m, n, np.asarray(xs, dtype=float),
                   np.asarray(ys, dtype=float))
    return gx[:, None] + gy[None, :]


def second_central_moment_grid(params, m, n, xs, ys):
    """Operator value on (t - x)^2 + (tau - y)^2 on the tensor grid xs x ys."""
    return _on_grid(_central, params, m, n, xs, ys)


def square_gap_grid(params, m, n, xs, ys):
    """L(t^2 + tau^2) - (x^2 + y^2) on the tensor grid xs x ys."""
    return _on_grid(_gap, params, m, n, xs, ys)
