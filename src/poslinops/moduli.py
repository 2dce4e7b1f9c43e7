"""Grid estimators for moduli of continuity and Lipschitz constants.

All estimators maximize over a finite sample of point pairs, so every value
is a lower estimate of the corresponding supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .basis import DomainError
from .operators import Point2D, eval_grid
from .reporting import BoundReport


@dataclass(frozen=True)
class ModulusEstimate:
    delta: float
    value: float
    kind: str  # full | partial_x | partial_y | weighted
    grid_spec: str
    is_lower_bound: bool = True


@dataclass(frozen=True)
class LipschitzWitness:
    gamma: float
    M_estimate: float
    argmax_pair: tuple


def _lattice(region, grid_points):
    xs = np.linspace(0.0, 1.0, grid_points)
    ys = np.linspace(0.0, region.A, grid_points)
    return xs, ys


def _offsets(delta, hx, hy, axis=None):
    """Lattice offsets (di, dj) with Euclidean length <= delta.

    Only one half-plane is enumerated (pairs are unordered).  ``axis``
    restricts offsets to a single coordinate for the partial moduli.
    """
    rx = int(math.floor(delta / hx * (1.0 + 1e-12)))
    ry = int(math.floor(delta / hy * (1.0 + 1e-12)))
    out = []
    if axis == "x":
        return [(di, 0) for di in range(1, rx + 1)]
    if axis == "y":
        return [(0, dj) for dj in range(1, ry + 1)]
    d2 = delta * delta * (1.0 + 1e-12)
    for di in range(rx + 1):
        lo = 1 if di == 0 else -ry
        for dj in range(lo, ry + 1):
            if di == 0 and dj <= 0:
                continue
            if (di * hx) ** 2 + (dj * hy) ** 2 <= d2:
                out.append((di, dj))
    return out


def _shifted_views(F, di, dj):
    G, H = F.shape
    if dj >= 0:
        return F[di:, dj:], F[: G - di, : H - dj]
    return F[di:, : H + dj], F[: G - di, -dj:]


def _pair_max(F, offsets, denom=None):
    # One scratch buffer serves every offset: above glibc's mmap threshold a
    # fresh grid-sized temporary per offset is mapped, page-faulted and
    # unmapped each time, which can cost more than the arithmetic.
    scratch, lo = np.empty(F.size), np.empty(F.size)
    best = 0.0
    for di, dj in offsets:
        a, b = _shifted_views(F, di, dj)
        diff = scratch[: a.size].reshape(a.shape)
        np.abs(np.subtract(a, b, out=diff), out=diff)
        if denom is not None:
            ra, rb = _shifted_views(denom, di, dj)
            diff /= np.minimum(ra, rb, out=lo[: a.size].reshape(a.shape))
        if diff.size:
            best = max(best, float(diff.max()))
    return best


def full_modulus(f, region, delta, grid_points=201):
    """Largest |f(p1) - f(p2)| over lattice pairs at distance <= delta."""
    if delta <= 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    xs, ys = _lattice(region, grid_points)
    F = eval_grid(f, xs, ys)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    value = _pair_max(F, _offsets(delta, hx, hy))
    spec = f"{grid_points}x{grid_points} uniform on [0,1]x[0,{region.A}]"
    return ModulusEstimate(delta, value, "full", spec)


def partial_moduli(f, region, delta, grid_points=201):
    """Moduli along the x axis and the y axis, as a pair."""
    if delta <= 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    xs, ys = _lattice(region, grid_points)
    F = eval_grid(f, xs, ys)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    spec = f"{grid_points}x{grid_points} uniform on [0,1]x[0,{region.A}]"
    wx = _pair_max(F, _offsets(delta, hx, hy, axis="x"))
    wy = _pair_max(F, _offsets(delta, hx, hy, axis="y"))
    return (
        ModulusEstimate(delta, wx, "partial_x", spec),
        ModulusEstimate(delta, wy, "partial_y", spec),
    )


def lipschitz_ratio(f, gamma, region, sample_pairs=10000, seed=0):
    """Max of |f(p1) - f(p2)| / dist^gamma over seeded random pairs."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    rng = np.random.default_rng(seed)
    u = rng.random((sample_pairs, 4))
    x1, x2 = u[:, 0], u[:, 2]
    y1, y2 = u[:, 1] * region.A, u[:, 3] * region.A
    dist = np.hypot(x1 - x2, y1 - y2)
    keep = dist > 1e-12
    x1, y1, x2, y2, dist = x1[keep], y1[keep], x2[keep], y2[keep], dist[keep]
    ratio = np.abs(
        np.asarray(f(x1, y1), dtype=float) - np.asarray(f(x2, y2), dtype=float)
    ) / dist**gamma
    i = int(np.argmax(ratio)) if ratio.size else 0
    if ratio.size == 0:
        return LipschitzWitness(gamma, 0.0, (Point2D(0.0, 0.0), Point2D(0.0, 0.0)))
    pair = (Point2D(float(x1[i]), float(y1[i])), Point2D(float(x2[i]), float(y2[i])))
    return LipschitzWitness(gamma, float(ratio[i]), pair)


def rho(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 + x * x + y * y


def weighted_modulus(f, delta, S, grid_points=201):
    """Weighted modulus on the strip [0,1] x [0,S].

    Maximizes |f(p1) - f(p2)| / min(rho(p1), rho(p2)) over lattice pairs at
    distance <= delta.  Taking the smaller weight in the denominator makes the
    estimate an upper bound for both orientations of the pair.
    """
    if f.growth != "rho_dominated":
        raise DomainError(
            f"weighted modulus requires rho_dominated growth, got {f.growth!r}"
        )
    if delta <= 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    xs = np.linspace(0.0, 1.0, grid_points)
    ys = np.linspace(0.0, S, grid_points)
    F = eval_grid(f, xs, ys)
    R = rho(xs[:, None], ys[None, :])
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    value = _pair_max(F, _offsets(delta, hx, hy), denom=R)
    spec = f"{grid_points}x{grid_points} uniform on [0,1]x[0,{S}]"
    return ModulusEstimate(delta, value, "weighted", spec)


def modulus_subadditivity_check(w_exact, lam, delta):
    """Check w(lam * delta) <= (1 + floor(lam)) * w(delta) on a closed form."""
    lhs = float(w_exact(lam * delta))
    rhs = (1.0 + math.floor(lam)) * float(w_exact(delta))
    return BoundReport(lhs=lhs, rhs=rhs)
