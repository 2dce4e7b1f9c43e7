"""Bernstein and Szasz (Poisson) weight rows, built by one algorithm.

A row obeys an exact ratio recurrence p[k+1] / p[k] = a / b[k]: a = x and
b[k] = (1 - x)(k + 1)/(m - k) for Bernstein, a = ny and b[k] = k + 1 for
Poisson.  Each row starts at p_mode = 1 and runs the recurrence outward from
its mode, a / max(a, b[k]) upward and b[k] / max(a, b[k]) downward (each is 1
on the far side of the mode), as two cumulative products over all rows at
once; each row is then divided by its sum.  The recurrence needs no anchor,
so a row can be built over any column range [lo, hi) that holds its mode.

A row's window runs from its first column max(floor(mean - t), 0) to before
its right edge ceil(mean + t), with t = L/3 + sqrt(L^2/9 + 2 L var),
L = ln(1 / tail_tol) and var = m x(1 - x) (Bernstein) or ny (Poisson): by
Bernstein's inequality at most tail_tol of its mass lies on either side of
it, for both families.  Rows are built only as bands, by ``axis_bands``:
the union of a block's windows (a Poisson row ends before its own right edge,
and a Poisson band holds at most max_terms columns), less its trailing
columns of zeros (for Bernstein rows its leading ones too: a row at x = 0 or
1 has one nonzero weight); each row is divided by the sum it keeps.
Weights below the smallest normal float are set to 0: subnormal operands
slow the matrix products several-fold.
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


def require_axis(name, points):
    """points as a float array; raise DomainError naming it unless nonempty 1-D."""
    points = np.asarray(points, dtype=float)
    if len(shape := points.shape) != 1 or not shape[0]:
        raise DomainError(f"{name} must be nonempty 1-D, not shape {shape}")
    return points


class TruncationError(RuntimeError):
    """The term cap was reached before the requested tail mass was attained."""

    def __init__(self, message, tail):
        super().__init__(message)
        self.tail = tail


@dataclass(frozen=True)
class TruncationPolicy:
    """How weight rows are cut: every row, Bernstein or Poisson, drops at most
    tail_tol of its mass on each side, and a Poisson band holds at most
    max_terms columns, from its lowest row's first column (for one point, its
    row's width)."""

    tail_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not 0.0 < self.tail_tol < 1.0:
            raise DomainError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        t = self.max_terms  # an integer, so both Szasz builders cut a row alike
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 1:
            raise DomainError(f"max_terms must be an integer >= 1, got {t!r}")


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
    """Each row's window edges mean -+ t: at most tol of its mass lies on
    each side, so a row's first column is max(floor(mean - t), 0) and its
    right edge ceil(mean + t).

    Bernstein's inequality P(|X - mean| >= t) <= exp(-t^2 / (2 (var + t/3)))
    on each side, for sums of independent variables within 1 of their means,
    with L = ln(1 / tol) and t = L/3 + sqrt(L^2/9 + 2 L var).
    """
    L = -math.log(tol)
    s = np.sqrt(L * L / 9 + 2 * L * var)
    return mean - L / 3 - s, mean + L / 3 + s


# The fixed cost of a block of a blocked sweep (``operators``), in columns of
# its rows: 3,000 to 9,000 timed alike on `converge`, `check-thm33` and
# `check-thm41` from m = n = 10 to 10^5 at G = 11 to 201; at 12,000
# `check-thm41 --r 3` at m = n = 10^5 on 11 points took 2.3 times as long.
_BLOCK_COST = 6000.0


def band_blocks(degree, points):
    """Slices of consecutive points, each to be built over its own band.

    With the points' mean column spacing s = degree (max - min) / (G - 1), k
    points of a block hold about w + (k - 1) s columns, w a row's width, so
    the G rows cost about G (w + (G/nb - 1) s) + nb C over nb blocks, least at
    nb = G sqrt(s / C), whatever w is: that many near-equal slices, at most G,
    or one when it rounds to at most 1.  ``axis_bands`` builds them."""
    # Python floats, which do not warn: inf - inf is a NaN spacing, one block;
    # a single point, every ``apply``, skips the reductions
    g = len(points)
    s = degree * (float(points.max()) - float(points.min())) / (g - 1) if g > 1 else 0.0
    k = round(min(g * math.sqrt(s / _BLOCK_COST), g)) if s > 0.0 else 1
    if k <= 1:
        return [slice(0, g)]
    return [slice(i * g // k, (i + 1) * g // k) for i in range(k)]


def axis_bands(degree, points, policy, poisson, blocks=None):
    """Each block of the float array points (``band_blocks``' slices unless
    given) over its own band: [(rows, W, lo)], Szasz [(rows, W, tail, lo)].  The
    axis's work is done once: its check, each block's extreme point and, for
    several ys, every row's window, cap and Chernoff bound, capped as one band."""
    blocks = band_blocks(degree, points) if blocks is None else blocks
    if poisson:
        require_degree(n=degree)
        if len(points) == 1:  # every ``apply``: scalars cost least
            return [(blocks[0], *_szasz_row(degree, float(points[0]), policy))]
        # an n*y past the float range raises here, and a 2 L ny past it gives
        # an infinite window that the cap bounds: neither warns first
        with np.errstate(over="ignore"):
            rate = degree * points
            if not (rate.min() >= 0.0 and rate.max() < math.inf):
                bad = next(y for y in points.tolist() if not 0.0 <= degree * y < math.inf)
                raise DomainError(f"y must be >= 0 with n*y finite, got y = {bad} "
                                  f"(n = {degree})")
            left, right = _window(rate, rate, policy.tail_tol)
        starts = [rows.start for rows in blocks]
        first = np.maximum(np.floor(np.minimum.reduceat(left, starts)), 0.0)
        width, chernoff = _szasz_ends(rate, right, first.min(), policy)  # as one band
        if width.max() >= first.min() + policy.max_terms:  # capped: redo per block
            sizes = np.diff([*starts, len(rate)])
            width, chernoff = _szasz_ends(rate, right, np.repeat(first, sizes), policy)
        ends = [f.reduceat(v, starts).tolist() for f, v in
                ((np.minimum, rate), (np.maximum, rate), (np.maximum, width))]
        return [(rows, *_szasz_row(degree, float(points[rows.start]), policy))
                if rows.stop - rows.start == 1 else  # one y: built from scalars
                (rows, *_szasz_rows(rate[rows], lo, width[rows], chernoff[rows], *block))
                for rows, lo, *block in zip(blocks, first.astype(int).tolist(), *ends)]
    require_degree(m=degree)
    starts = [rows.start for rows in blocks]
    x_min = np.minimum.reduceat(points, starts).tolist()
    x_max = np.maximum.reduceat(points, starts).tolist()
    return [(rows, *_bernstein_rows(degree, points[rows, None], a, b, policy))
            for rows, a, b in zip(blocks, x_min, x_max)]


def _kept(rows, cut=0):
    """Normalize rows, flush subnormals; their nonzero span, edges first."""
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows < _TINY] = 0.0
    if np.count_nonzero(rows[:, 0]) and np.count_nonzero(rows[:, -1 - cut]):
        return 0, rows.shape[1] - cut
    nonzero = rows.any(axis=0)
    return int(nonzero.argmax()), len(nonzero) - int(nonzero[::-1].argmax())


def _bernstein_rows(m, x, x_min, x_max, policy):
    """A block's rows over their band, x (G, 1) in [x_min, x_max]; and lo."""
    if not (0.0 <= x_min and x_max <= 1.0):
        bad = next(v for v in x[:, 0] if not 0.0 <= v <= 1.0)
        raise DomainError(f"x must be in [0, 1], got {bad}")
    # A left window edge grows with x where it is >= 0, and a right edge
    # where it is <= m: the rows at x_min and x_max bound the union.
    left = _window(m * x_min, m * x_min * (1.0 - x_min), policy.tail_tol)[0]
    right = _window(m * x_max, m * x_max * (1.0 - x_max), policy.tail_tol)[1]
    lo, hi = max(math.floor(left), 0), min(math.ceil(right), m + 1)
    t = np.arange(lo + 1.0, hi) / np.arange(m - lo, m - hi + 1.0, -1)
    # b grows along a row and falls with x: past the x_min and x_max rows' modes
    # each ratio is 1, so for several rows the products run between them only
    b = (1.0 - x) * t
    low, high = (0, len(t)) if len(x) == 1 else (
        ((1.0 - x_min) * t).searchsorted(x_min, "right"),
        ((1.0 - x_max) * t).searchsorted(x_max))
    del t  # as wide as one row's b: not held while the rows are built
    rows = _mode_rows(x, b, low, high)
    a, z = _kept(rows)
    return rows[:, a:z], lo + a


def bernstein_band_matrix(m, xs, policy=DEFAULT_POLICY):
    """Weights C(m, v) x^v (1-x)^(m-v) over their band [lo, hi), one row per
    x in xs, and lo: ``axis_bands`` of one block.

    The band is the union of the rows' windows, less its columns of zeros;
    each row drops at most policy.tail_tol of its mass on each side and is
    divided by the sum it keeps, so it moves the value of any h by at most
    (left tail + right tail)(sup h - inf h), over all nodes.
    """
    x = require_axis("xs", xs)
    [(_, W, lo)] = axis_bands(m, x, policy, False, [slice(0, len(x))])
    return W, lo


def szasz_band_matrix(n, ys, policy=DEFAULT_POLICY):
    """Truncated Poisson weights e^(-ny) (ny)^k / k!, one row per y in ys, from
    the leftmost window edge lo on; their tail bounds; and lo (one block).

    Row i ends before its right edge W_i (``_window``, at most max_terms
    columns past lo) and is divided by its sum, so it sums to 1 within 4 eps;
    the matrix is as wide as its widest row less its trailing columns of
    zeros.  tail[i] <= tail_tol bounds the mass past the row's last column:
    the Chernoff bound at W_i plus the smallest normal float for each column
    left of W_i that it holds as 0.  Left of its first window column a row
    drops at most tail_tol of its mass, so the row moves the Szasz value of
    any h by at most (tail_tol + tail[i]) (sup h - inf h), over all nodes.
    One y gets a row built from scalars, several a matrix built at once; a
    weight of one may differ from the other's by rounding.
    """
    y = require_axis("ys", ys)
    return axis_bands(n, y, policy, True, [slice(0, len(y))])[0][1:]


def _szasz_ends(rate, right, lo, policy):
    """Each row's right edge W = ceil(right) (``_window``) capped at lo + max_terms,
    lo its band's first column, and the Chernoff bound P(X >= W) <= exp(W - ny
    + W ln(ny / W)), its exponent clamped to <= 0 (near 2^63 its terms cancel);
    raises TruncationError where the cap leaves more than tail_tol there (the
    bound needs W > ny, checked in floats: past 2^63 a cast to intp wraps)."""
    width = np.minimum(np.ceil(right), lo + policy.max_terms)
    exponent = width - rate + width * np.log(np.maximum(rate, _TINY) / width)
    chernoff = np.exp(np.minimum(exponent, 0.0))
    bad = (chernoff > policy.tail_tol) | (width <= rate)
    if np.count_nonzero(bad):
        r, w, c = (np.ravel(v)[np.flatnonzero(bad)[0]] for v in (rate, width, chernoff))
        raise TruncationError(f"mass target 1 - {policy.tail_tol} not reached within "
                              f"{policy.max_terms} terms (rate {r})",
                              tail=float(c) if w > r else 1.0)
    return width, chernoff


def _szasz_rows(rate, start, width, chernoff, low, high, top):
    """Several ys as one matrix from column start on, W, tail and start: row i
    ends before width[i] (top the widest); modes floor(rate) from low to high."""
    rows = _mode_rows(rate[:, None], np.arange(start + 1.0, top + 1.0),
                      int(low) - start, int(high) - start, width.astype(np.intp) - start)
    W = rows[:, : _kept(rows, 1)[1]]  # the column past the widest row holds its cut
    return W, chernoff + _TINY * (width - start - np.count_nonzero(W, axis=1)), start


def _szasz_row(n, y, policy):
    """A Szasz block of one y built from scalars: W, tail, start."""
    rate = n * y
    if not (y >= 0.0 and rate < math.inf):
        raise DomainError(f"y must be >= 0 with n*y finite, got y = {y} (n = {n})")
    left, right = _window(rate, rate, policy.tail_tol)
    start, mode = math.floor(max(left, 0.0)), int(rate)
    width, chernoff = _szasz_ends(rate, right, float(start), policy)
    row = np.concatenate((np.cumprod(np.arange(mode, start, -1.0) / rate)[::-1], [1.0],
                          np.cumprod(rate / np.arange(mode + 1.0, width))))
    row /= row.sum()
    row[row < _TINY] = 0.0
    kept = np.flatnonzero(row)
    return (row[None, : kept[-1] + 1],
            np.array([chernoff + _TINY * (width - start - len(kept))]), start)
