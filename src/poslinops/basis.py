"""Bernstein and Szasz (Poisson) weight rows, built by one algorithm.

A row obeys an exact ratio recurrence p[k+1] / p[k] = a / b[k]: a = x and
b[k] = (1 - x)(k + 1)/(m - k) for Bernstein, a = ny and b[k] = k + 1 for
Poisson.  Each row starts at p_mode = 1 and runs the recurrence outward from
its mode, a / max(a, b[k]) upward and b[k] / max(a, b[k]) downward (each is 1
on the far side of the mode), as two cumulative products over all rows at
once; each row is then divided by its sum.  The recurrence needs no anchor,
so a row can be built over any column range [lo, hi) that holds its mode.

A row's window is [mean - t, mean + t] with t = L/3 + sqrt(L^2/9 + 2 L var),
L = ln(2^60 / tail_tol) and var = m x(1 - x) (Bernstein) or ny (Poisson):
by Bernstein's inequality the mass on either side of it is at most
e^-L = tail_tol * 2^-60.  A Poisson row is built up to the window's right
edge W, where the Chernoff bound P(X >= W) <= exp(-ny h(W/(ny) - 1)),
h(u) = (1 + u) ln(1 + u) - u, joins the mass dropped past K in the row's
tail bound.  Rows are built only as bands, by the two band builders: the
union of their rows' windows (for Bernstein rows, less its columns of zeros:
a row at x = 0 or 1 has one nonzero weight).  Weights below the smallest
normal float are set to 0: subnormal operands slow the matrix products
several-fold.
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


def require_degree(**degrees):
    """Raise DomainError naming the first degree, by keyword, not an int >= 1."""
    for name, value in degrees.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"degree {name} must be an integer, got {value!r}")
        if not value >= 1:
            raise DomainError(f"degree {name} must be >= 1, got {value}")


def require_finite(label, values, where):
    """Return values; raise RuntimeError counting the entries that are not finite."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise RuntimeError(f"{label} is not finite at {bad} of {values.size} {where}")
    return values


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


def _window(mean, var, tol):
    """Each row's window edges: at most tol * 2^-60 of its mass on each side.

    Bernstein's inequality P(|X - mean| >= t) <= exp(-t^2 / (2 (var + t/3)))
    on each side, for sums of independent variables within 1 of their means.
    """
    L = 60 * math.log(2.0) - math.log(tol)  # 2^60 / tol overflows for tiny tol
    s = np.sqrt(L * L / 9 + 2 * L * var)
    return mean - L / 3 - s, mean + L / 3 + s


# Points per block of a blocked sweep (``operators``); 32, 48 and 64 timed
# alike on `converge` up to m = n = 1280 at G = 201, and 16 was slower.
_BLOCK = 32


def band_blocks(degree, points, policy, poisson):
    """Slices of consecutive points, each to be built over its own band: one
    when there are at most _BLOCK points or the single band, from the window
    edges of the extreme points, is at most 4 * _BLOCK columns wide; else
    ceil(G / _BLOCK).  ``poisson`` picks the Szasz windows (variance ny)."""
    g = len(points)
    if g > _BLOCK:
        x = np.array([np.min(points), np.max(points)], dtype=float)
        var = degree * x * (1.0 if poisson else 1.0 - x)
        with np.errstate(all="ignore"):  # a bad point's builder names it
            left, right = _window(degree * x, var, policy.tail_tol)
            # A window reaches 2L/3 = 46 columns past its mean (default tail_tol):
            # blocks narrow a band of 4 * _BLOCK columns too little to pay off.
            cap = policy.max_terms if poisson else degree + 1
            if min(np.ceil(right[1]), cap) - max(np.floor(left[0]), 0.0) > 4 * _BLOCK:
                k = -(-g // _BLOCK)
                return [slice(i * g // k, (i + 1) * g // k) for i in range(k)]
    return [slice(0, g)]


def bernstein_band_matrix(m, xs, policy=DEFAULT_POLICY):
    """Weights C(m, v) x^v (1-x)^(m-v) over their band [lo, hi), one row per
    x in xs, and lo.

    The band is the union of the rows' windows, less its columns of zeros;
    each row drops at most policy.tail_tol * 2^-60 of its mass on each side.
    """
    require_degree(m=m)
    x = np.asarray(xs, dtype=float)[:, None]
    x_min, x_max = float(x.min()), float(x.max())
    if not (x_min >= 0.0 and x_max <= 1.0):
        bad = next(v for v in x[:, 0] if not 0.0 <= v <= 1.0)
        raise DomainError(f"x must be in [0, 1], got {bad}")
    # A left window edge grows with x where it is >= 0, and a right edge
    # where it is <= m: the rows at x_min and x_max bound the union.
    left = _window(m * x_min, m * x_min * (1.0 - x_min), policy.tail_tol)[0]
    right = _window(m * x_max, m * x_max * (1.0 - x_max), policy.tail_tol)[1]
    lo, hi = max(math.floor(left), 0), min(math.ceil(right), m + 1)
    b = (1.0 - x) * (np.arange(lo + 1.0, hi) / np.arange(m - lo, m - hi + 1.0, -1))
    rows = _mode_rows(x, b, 0, hi - lo - 1)
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows < _TINY] = 0.0
    nonzero = rows.any(axis=0)
    a, b = int(nonzero.argmax()), len(nonzero) - int(nonzero[::-1].argmax())
    return rows[:, a:b], lo + a


def szasz_band_matrix(n, ys, policy=DEFAULT_POLICY):
    """Truncated Poisson weights e^(-ny) (ny)^k / k!, one row per y in ys, from
    the leftmost window edge lo on; their tail bounds; and lo.

    Row i ends at K_i, the smallest index at or beyond ceil(ny) (0 when ny is
    below the smallest normal float) whose dropped mass, counted inside the
    window plus the Chernoff bound past it, is at most tail_tol; the matrix
    is as wide as the widest row.  tail[i] bounds the mass past K_i, and each
    row drops at most policy.tail_tol * 2^-60 of its mass left of its window.
    One y gets a row built from scalars, several a matrix built at once; a
    weight of one may differ from the other's by rounding.
    """
    require_degree(n=n)
    if len(ys) == 1:
        return _szasz_row(n, float(ys[0]), policy)
    return _szasz_rows(n, ys, policy)


def _szasz_rows(n, ys, policy):
    """szasz_band_matrix for several ys, built as one matrix."""
    ys = np.asarray(ys, dtype=float)
    y_min, y_max = float(ys.min()), float(ys.max())
    if not (y_min >= 0.0 and n * y_max < math.inf):
        bad = next(y for y in ys.tolist() if not 0.0 <= n * y < math.inf)
        raise DomainError(f"y must be >= 0 with n*y finite, got y = {bad} (n = {n})")
    rate = n * ys
    tol = policy.tail_tol
    left, right = _window(rate, rate, tol)
    widths = np.minimum(np.ceil(right), policy.max_terms).astype(np.intp)
    chernoff = np.exp(widths - rate + widths * np.log(np.maximum(rate, _TINY) / widths))
    # A rate below the smallest normal float flushes every weight past column
    # 0 to 0, so such a row stops at K = 0 and its tail bound is ny.
    # Checked in floats: past 2^63 a cast to intp wraps.
    low = np.where(rate < _TINY, 0.0, np.ceil(rate))
    fail = (chernoff > tol) | (low >= widths)
    if fail.any():
        i = np.flatnonzero(fail)[0]
        raise TruncationError(f"mass target 1 - {tol} not reached within "
                              f"{policy.max_terms} terms (rate {rate[i]})",
                              tail=float(chernoff[i]) if widths[i] > rate[i] else 1.0)
    low = low.astype(np.intp)

    # The mode floor(rate) is exact (b[k] = k + 1 >= rate past it), so rows
    # start from the lowest mode and stop the backward product at the highest.
    # Local column c is global column start + c; one column past the widest
    # row leaves room for its cut.
    start = max(math.floor(left.min()), 0)
    lo, hi = int(n * y_min) - start, int(n * y_max) - start
    cols = widths.max() + 1 - start
    rows = _mode_rows(rate[:, None], np.arange(start + 1.0, start + cols), lo, hi,
                      widths - start)
    total = rows.sum(axis=1)
    # K_i lies in [low_i, widths_i): sum the mass past each column there only
    g = np.arange(len(rows))
    at = (g[:, None], np.minimum(low[:, None] - start
                                 + np.arange((widths - low).max() + 1), cols - 1))
    near = rows[at]
    after = np.cumsum(near[:, :0:-1], axis=1)[:, ::-1] / total[:, None]
    K = (after > (tol - chernoff)[:, None]).sum(axis=1)  # K_i - low_i
    tail = after[g, K] + chernoff
    near[np.arange(near.shape[1]) > K[:, None]] = 0.0
    rows[at] = near
    W = rows[:, : (low + K).max() + 1 - start]
    W /= total[:, None]
    W[W < _TINY] = 0.0
    return W, tail, start


def _szasz_row(n, y, policy):
    """szasz_band_matrix for one y, built from scalars."""
    rate, tol = n * y, policy.tail_tol
    if not (y >= 0.0 and rate < math.inf):
        raise DomainError(f"y must be >= 0 with n*y finite, got y = {y} (n = {n})")
    left, right = _window(rate, rate, tol)
    width = min(math.ceil(right), policy.max_terms)
    chernoff = float(np.exp(width - rate + width * np.log(max(rate, _TINY) / width)))
    low = 0 if rate < _TINY else math.ceil(rate)
    if chernoff > tol or low >= width:
        raise TruncationError(f"mass target 1 - {tol} not reached within "
                              f"{policy.max_terms} terms (rate {rate})",
                              tail=chernoff if width > rate else 1.0)
    start, mode = max(math.floor(left), 0), int(rate)
    row = np.concatenate((np.cumprod(np.arange(mode, start, -1.0) / rate)[::-1], [1.0],
                          np.cumprod(rate / np.arange(mode + 1.0, width))))
    total = row.sum()
    # the mass past each column from low on: K - low columns are above target
    after = np.cumsum(row[: low - start : -1])[::-1] / total
    K = int(np.count_nonzero(after > tol - chernoff))
    tail = (float(after[K]) if K < len(after) else 0.0) + chernoff
    row = row[None, : low + K + 1 - start] / total
    row[row < _TINY] = 0.0
    return row, np.array([tail]), start
