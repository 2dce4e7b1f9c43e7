"""Grid estimators for moduli of continuity.

All estimators maximize over a finite sample of point pairs, so every value
is a lower estimate of the corresponding supremum.

The full and partial moduli take, for each y-offset dj of the delta-disc, the
running max and min of f over the x-window the disc allows (van Herk 1992;
Gil & Werman 1993), built from power-of-two windows by doubling.  On a G x G
lattice with disc radii r_x, r_y (in lattice steps) that costs
O(G^2 (r_y + log r_x)) instead of one pass per offset, O(G^2 r_x r_y), and
gives the same values as the pair loop: rounded subtraction is monotone in
its first operand, so max(W) - F equals the largest rounded difference.

The weighted modulus divides each pair's difference by the smaller rho of
the two points, which is the larger of the difference over rho at either
point.  So it is the largest, over base points p, of the window difference
at p over rho(p), and rounded division is monotone too.  As the base point
sets the divisor, each pair counts in both orders: the windows of y-offsets
dj >= 0 cover the pairs whose second point lies at or above the base, and
the same pass over F[:, ::-1], where an offset -dj becomes +dj, covers those
below it.
"""

from __future__ import annotations

import numpy as np

from .basis import DomainError, require_positive


def _radius(delta, h, G):
    """Lattice steps of length h within delta, at most G - 1 (clamped before
    the int conversion: delta / h may overflow to inf)."""
    return int(min(float(delta) / float(h) * (1.0 + 1e-12), G - 1))


def _radii(delta, hx, hy, G):
    """For dj = 0, 1, ...: the largest di with (di hx)^2 + (dj hy)^2 <= delta^2.

    The radii do not increase with dj; the list stops at the first dj that
    has no offset or no room in the lattice.
    """
    d2 = delta * delta * (1.0 + 1e-12)
    r, radii = _radius(delta, hx, G), []
    for dj in range(_radius(delta, hy, G) + 1):
        while r >= 0 and (r * hx) ** 2 + (dj * hy) ** 2 > d2:
            r -= 1
        if r < 0:
            break
        radii.append(r)
    return radii


def _window_max(F, radii, divisor=None):
    """Largest |F[i2, j + dj] - F[i, j]| with |i2 - i| <= radii[dj].

    With a divisor, each difference is divided by divisor[i, j] at its base
    point (i, j) before the maximum is taken.

    hi[k] (lo[k]) holds the max (min) of the padded rows k .. k + width - 1.
    The y-offsets are walked from the narrowest window to the widest, so the
    width only doubles and one level of each is kept.  Pads of -inf/+inf
    clip the windows to the lattice.
    """
    G, H = F.shape
    R = radii[0]
    N = G + 2 * R
    hi, lo = np.full((N, H), -np.inf), np.full((N, H), np.inf)
    hi[R:R + G] = lo[R:R + G] = F
    nhi, nlo, scratch = np.empty_like(hi), np.empty_like(lo), np.empty_like(F)
    width, best = 1, 0.0
    for dj in range(len(radii) - 1, -1, -1):
        r = radii[dj]
        while 2 * width <= 2 * r + 1:
            k = N - 2 * width + 1
            np.maximum(hi[:k], hi[width:width + k], out=nhi[:k])
            np.minimum(lo[:k], lo[width:width + k], out=nlo[:k])
            hi, nhi, lo, nlo = nhi, hi, nlo, lo
            width *= 2
        # window rows i - r .. i + r are two overlapping levels
        a, b, cols = R - r, R + r + 1 - width, H - dj
        W, Fj = scratch[:, :cols], F[:, :cols]
        Dj = None if divisor is None else divisor[:, :cols]
        np.maximum(hi[a:a + G, dj:], hi[b:b + G, dj:], out=W)
        best = max(best, _largest(np.subtract(W, Fj, out=W), Dj))
        np.minimum(lo[a:a + G, dj:], lo[b:b + G, dj:], out=W)
        best = max(best, _largest(np.subtract(Fj, W, out=W), Dj))
    return best


def _largest(W, divisor):
    """Max of W, after dividing W in place by divisor unless it is None."""
    if divisor is not None:
        W /= divisor
    return float(W.max())


def lattice_moduli(xs, ys, F, full=None, partial_x=None, partial_y=None,
                   weighted=None):
    """Moduli of f from its sample (xs, ys, F) on a uniform G x G lattice, as
    ``sample_lattice`` returns it, each at its own delta.

    Returns a dict from kind to its value, a lower estimate, with one entry
    per delta given, in the order full, partial_x, partial_y, weighted.
    Deltas past the lattice give the maximum over all lattice pairs.  Raises
    DomainError unless G >= 2 and F has shape (G, G).
    """
    G = len(xs)
    if G < 2 or len(ys) != G or np.shape(F) != (G, G):
        raise DomainError(f"need a G x G lattice sample, G >= 2, got {len(xs)} x "
                          f"{len(ys)} points and F of shape {np.shape(F)}")
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    out = {}
    for kind, delta in (("full", full), ("partial_x", partial_x),
                        ("partial_y", partial_y), ("weighted", weighted)):
        if delta is None:
            continue
        require_positive("delta", delta)
        if kind == "full":
            out[kind] = _window_max(F, _radii(delta, hx, hy, G))
        elif kind == "partial_x":
            out[kind] = _window_max(F, [_radius(delta, hx, G)])
        elif kind == "partial_y":
            out[kind] = _window_max(F.T, [_radius(delta, hy, G)])
        else:
            radii, R = _radii(delta, hx, hy, G), rho(xs[:, None], ys[None, :])
            out[kind] = max(_window_max(F, radii, R),
                            _window_max(F[:, ::-1], radii, R[:, ::-1]))
    return out


def rho(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 + x * x + y * y

