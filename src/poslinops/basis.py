"""Bernstein and Szasz (Poisson) weight rows, built by one algorithm.

A row obeys an exact ratio recurrence p[k+1] / p[k] = a / b[k]: a = x and
b[k] = (1 - x)(k + 1)/(m - k) for Bernstein, a = ny and b[k] = k + 1 for
Poisson.  Each row starts at p_mode = 1 and runs the recurrence outward from
its mode, a / max(a, b[k]) upward and b[k] / max(a, b[k]) downward (each is 1
on the far side of the mode), as two cumulative products over all rows at
once; each row is then divided by its sum.  A Poisson row is built over a
window [0, W) whose Chernoff bound P(X >= W) <= exp(-ny h(W/(ny) - 1)),
h(u) = (1 + u) ln(1 + u) - u, is at most tail_tol * 2^-60; that bound joins
the mass dropped past K in ``tail_bound``.  Weights below the smallest normal
float are set to 0: subnormal operands slow the matrix products several-fold.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


def require_positive(name, value):
    """Raise DomainError naming the parameter unless value is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value}")


class TruncationError(RuntimeError):
    """The term cap was reached before the requested tail mass was attained."""

    def __init__(self, message, tail):
        super().__init__(message)
        self.tail = tail


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls truncation of the infinite Poisson sum."""

    tail_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not 0.0 < self.tail_tol < 1.0:
            raise DomainError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_POLICY = TruncationPolicy()

_TINY = np.finfo(float).tiny
_BLOCK = 128


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights w[k] for k = 0, 1, ...

    ``tail_bound`` bounds the probability mass dropped by truncation.
    """

    values: np.ndarray
    tail_bound: float = 0.0

    def __len__(self):
        return len(self.values)


def _mode_rows(a, b, lo, hi, widths=None):
    """Rows p[i, k] / p[i, mode_i] from p[i, k+1] / p[i, k] = a[i] / b[i, k].

    a has shape (G, 1) and b broadcasts to (G, W - 1); every mode lies in
    [lo, hi].  With ``widths`` row i is cut to 0 from column widths[i] on.
    """
    rows = np.empty((len(a), np.shape(b)[-1] + 1))
    rows[:, : lo + 1] = 1.0
    top = np.maximum(a, b)
    np.divide(a, top[:, lo:], out=rows[:, lo + 1 :])
    if widths is not None:
        rows[np.arange(len(a)), widths] = 0.0
    up = rows[:, lo:]
    up.cumprod(axis=1, out=up)
    down = np.divide(b[..., :hi], top[:, :hi], out=top[:, :hi])[:, ::-1]
    down.cumprod(axis=1, out=down)
    rows[:, :hi] *= down[:, ::-1]
    return rows


def _row_sums(rows):
    """Row sums whose bits do not depend on how many zero columns pad a row.

    Pairwise sums of _BLOCK-column blocks, then a pairwise sum of the block
    sums zero-padded to a power-of-two count."""
    blocks = rows.reshape(len(rows), -1, _BLOCK).sum(axis=2)
    padded = np.zeros((len(rows), max(8, 1 << (blocks.shape[1] - 1).bit_length())))
    padded[:, : blocks.shape[1]] = blocks
    return padded.sum(axis=1)


def bernstein_weight_matrix(m, xs):
    """Weights C(m, v) x^v (1-x)^(m-v), v = 0..m, one row per x in xs."""
    if m < 1:
        raise DomainError(f"degree m must be >= 1, got {m}")
    x = np.asarray(xs, dtype=float)[:, None]
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        bad = next(v for v in x[:, 0] if not 0.0 <= v <= 1.0)
        raise DomainError(f"x must be in [0, 1], got {bad}")
    b = (1.0 - x) * (np.arange(1.0, m + 1) / np.arange(m, 0.0, -1))
    rows = _mode_rows(x, b, 0, m)
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows < _TINY] = 0.0
    return rows


def bernstein_weights(m, x):
    """The Bernstein weight row at one point x."""
    return WeightVector(bernstein_weight_matrix(m, [x])[0])


def _szasz_rows(n, ys, policy):
    """Truncated Poisson rows, one per y, and their tail bounds.

    Row i ends at K_i, the smallest index at or beyond ceil(ny) whose dropped
    mass, counted inside the window plus the Chernoff bound past it, is at
    most tail_tol; the matrix is as wide as the widest row.
    """
    if n < 1:
        raise DomainError(f"degree n must be >= 1, got {n}")
    ys = np.asarray(ys, dtype=float)
    y_min, y_max = float(ys.min()), float(ys.max())
    if not (y_min >= 0.0 and n * y_max < math.inf):
        bad = next(y for y in ys.tolist() if not 0.0 <= n * y < math.inf)
        raise DomainError(f"y must be >= 0 with n*y finite, got y = {bad} (n = {n})")
    rate = n * ys
    tol = policy.tail_tol
    # Bernstein's inequality P(X >= rate + t) <= exp(-t^2 / (2 (rate + t/3)))
    # sizes the window so that the Chernoff bound past it is <= tol * 2^-60.
    L = math.log(2.0**60 / tol)
    widths = np.minimum(np.ceil(rate + L / 3 + np.sqrt(L * L / 9 + 2 * L * rate)),
                        policy.max_terms).astype(np.intp)
    chernoff = np.exp(widths - rate + widths * np.log(np.maximum(rate, _TINY) / widths))
    low = np.ceil(rate).astype(np.intp)
    fail = (chernoff > tol) | (low >= widths)
    if fail.any():
        i = np.flatnonzero(fail)[0]
        raise TruncationError(f"mass target 1 - {tol} not reached within "
                              f"{policy.max_terms} terms (rate {rate[i]})",
                              tail=float(chernoff[i]) if widths[i] > rate[i] else 1.0)

    # The mode floor(rate) is exact (b[k] = k + 1 >= rate past it), so rows
    # start from the lowest mode and stop the backward product at the highest.
    lo, hi = int(n * y_min), int(n * y_max)
    cols = (widths.max() // _BLOCK + 1) * _BLOCK
    rows = _mode_rows(rate[:, None], np.arange(1.0, cols), lo, hi, widths)
    total = _row_sums(rows)
    # K_i lies in [low_i, widths_i): sum the mass past each column there only
    g = np.arange(len(rows))
    at = (g[:, None],
          np.minimum(low[:, None] + np.arange((widths - low).max() + 1), cols - 1))
    near = rows[at]
    after = np.cumsum(near[:, :0:-1], axis=1)[:, ::-1] / total[:, None]
    K = (after > (tol - chernoff)[:, None]).sum(axis=1)  # K_i - low_i
    tail = after[g, K] + chernoff
    near[np.arange(near.shape[1]) > K[:, None]] = 0.0
    rows[at] = near
    W = rows[:, : (low + K).max() + 1]
    W /= total[:, None]
    W[W < _TINY] = 0.0
    return W, tail


def szasz_weight_matrix(n, ys, policy=DEFAULT_POLICY):
    """Truncated Poisson weights e^(-ny) (ny)^k / k!, one zero-padded row per y."""
    return _szasz_rows(n, ys, policy)[0]


def szasz_weights(n, y, policy=DEFAULT_POLICY):
    """Truncated Poisson weights e^(-ny) (ny)^k / k!, k = 0..K.

    K is the smallest index at or beyond the Poisson mode ceil(ny) such that
    the accumulated mass reaches 1 - tail_tol, capped at policy.max_terms;
    ``tail_bound`` bounds the mass past K.
    """
    W, tail = _szasz_rows(n, [y], policy)
    return WeightVector(W[0], tail_bound=float(tail[0]))
