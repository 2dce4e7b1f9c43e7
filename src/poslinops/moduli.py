"""Grid estimators for moduli of continuity.

All estimators maximize over a finite sample of point pairs, so every value
is a lower estimate of the corresponding supremum.

All four kinds take, for each y-offset dj of the delta-disc, the running max
of F and of -F over the x-window the disc allows (van Herk 1992; Gil &
Werman 1993), built from power-of-two windows by doubling, gather it over
the half-disc of each base point and subtract F once.  On a G x G lattice
with disc radii r_x, r_y (in lattice steps) that costs O(G^2 (r_y + log r_x))
instead of one pass per offset, O(G^2 r_x r_y).  Max is exact and rounded
subtraction is monotone in its first operand, so every value is the pair
loop's bit for bit.  The sweep reads y-lines: line j holds F[:, j] and
-F[:, j], each followed by r_x cells of -inf, as one row of a row-major
buffer, so each doubling level and each offset's two window reads are one
contiguous 1-D range.  The lines go in strips that fit in _STRIP bytes, each
with the r_y lines above it, so that a strip's buffers stay in cache.

The weighted modulus divides each pair's difference by the smaller rho of
the two points, which is the larger of the difference over rho at either
point.  So it is the largest, over base points p, of the window difference
at p over rho(p), and rounded division is monotone too.  As the base point
sets the divisor, each pair counts in both orders: the windows of y-offsets
dj >= 0 cover the pairs whose second point lies at or above the base, and
the same pass over F[:, ::-1], where an offset -dj becomes +dj, covers those
below it, unless dj = 0 is the only offset and the first pass has them all.
"""

from __future__ import annotations

import numpy as np

from .basis import DomainError, require_finite, require_positive

_STRIP = 3 << 17  # bytes of a strip's base lines, for a 2 MB L2 cache


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


def _lines(buf, V, R, pad, sign=-1.0):
    """buf: R cells of pad, then per line of V: it, R pads, sign * it, R pads."""
    n, G = V.shape
    buf[:R] = pad
    cells = buf[R:R + 2 * n * (G + R)].reshape(n, 2, G + R)
    cells[:, 0, :G] = V
    np.multiply(V, sign, out=cells[:, 1, :G])
    cells[:, :, G:] = pad
    return buf


def _disc_max(F, radii, divisor=None):
    """Largest |F[i2, j + dj] - F[i, j]| with |i2 - i| <= radii[dj], each
    divided by divisor[i, j] at its base point (i, j) unless it is None.

    level[k] holds the max of cells k .. k + width - 1; a range may run
    across a pad, but the windows read never do.  The offsets go from the
    narrowest window to the widest, so the width only doubles.
    """
    (G, H), R, D = F.shape, radii[0], len(radii) - 1
    N, S = 2 * (G + R), max(1, _STRIP // (16 * (G + R)))
    work = np.empty(R + min(S + D, H) * N), np.empty(R + min(S + D, H) * N)
    top, best, Ft = np.empty(min(S, H) * N), 0.0, np.ascontiguousarray(F.T)
    for j0 in range(0, H, S):
        n, s = min(S + D, H - j0), min(S, H - j0)
        level, spare = _lines(work[0], Ft[j0:j0 + n], R, -np.inf), work[1]
        width = 1
        for dj in range(min(D, n - 1), -1, -1):
            r = radii[dj]
            while 2 * width <= 2 * r + 1:
                k = R + n * N - 2 * width + 1
                np.maximum(level[:k], level[width:width + k], out=spare[:k])
                level, spare = spare, level
                width *= 2
            # window cells i - r .. i + r of line j + dj are two levels
            c, a = min(s, n - dj) * N - R, dj * N + R - r
            b = a + 2 * r + 1 - width
            if dj < min(D, n - 1):
                np.maximum(top[:c], level[a:a + c], out=top[:c])
                np.maximum(top[:c], level[b:b + c], out=top[:c])
            else:  # the first offset of the strip starts top
                top[c:] = -np.inf
                np.maximum(level[a:a + c], level[b:b + c], out=top[:c])
        # less F (-F) padded with +inf: the pads, with no base point, go to -inf
        gap = top[:s * N - R]
        gap -= _lines(spare, Ft[j0:j0 + s], R, np.inf)[R:R + gap.size]
        if divisor is not None:
            gap /= _lines(spare, divisor[:, j0:j0 + s].T, R, 1.0, 1.0)[R:R + gap.size]
        best = max(best, float(gap.max()))
    return best


def lattice_moduli(xs, ys, F, full=None, partial_x=None, partial_y=None,
                   weighted=None):
    """Moduli of f from its sample (xs, ys, F) on a uniform G x G lattice, as
    ``sample_lattice`` returns it, each at its own delta.

    Returns a dict from kind to its value, a lower estimate, with one entry
    per delta given, in the order full, partial_x, partial_y, weighted.
    Deltas past the lattice give the maximum over all lattice pairs.  Raises
    DomainError unless G >= 2, F has shape (G, G) and each axis's steps are
    uniform and > 0, and RuntimeError, counting them, if entries of F are not finite.
    """
    G = len(xs)
    if G < 2 or len(ys) != G or np.shape(F) != (G, G):
        raise DomainError(f"need a G x G lattice sample, G >= 2, got {len(xs)} x "
                          f"{len(ys)} points and F of shape {np.shape(F)}")
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    for axis, v, h in (("x", xs, hx), ("y", ys, hy)):
        require_positive(f"lattice {axis} step", h)
        if not np.ptp(np.diff(v)) <= 1e-9 * h:  # np.linspace's spread: ~G eps h
            raise DomainError(f"lattice {axis} steps must be uniform")
    require_finite("F", F, "lattice points")
    # the sweep reads y-lines: lay out F's (and rho's below) contiguous once
    Fy, out = np.ascontiguousarray(F.T).T, {}
    for kind, delta in (("full", full), ("partial_x", partial_x),
                        ("partial_y", partial_y), ("weighted", weighted)):
        if delta is None:
            continue
        require_positive("delta", delta)
        if kind == "full":
            out[kind] = _disc_max(Fy, _radii(delta, hx, hy, G))
        elif kind == "partial_x":
            out[kind] = _disc_max(Fy, [_radius(delta, hx, G)])
        elif kind == "partial_y":
            out[kind] = _disc_max(F.T, [_radius(delta, hy, G)])
        else:
            radii, R = _radii(delta, hx, hy, G), rho(xs[None, :], ys[:, None]).T
            out[kind] = max(_disc_max(Fy, radii, R), 0.0 if len(radii) == 1 else
                            _disc_max(Fy[:, ::-1], radii, R[:, ::-1]))
    return out


def rho(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 + x * x + y * y

