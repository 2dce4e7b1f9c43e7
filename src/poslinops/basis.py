"""Numerically stable Bernstein and Szasz (Poisson) weight evaluation.

Both weight families are probability vectors: the Bernstein weights are an
exact partition of unity on [0, 1], the Szasz weights are a Poisson pmf whose
infinite sum is truncated under a certified tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import mpmath
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

# Weights smaller than this are flushed to zero once the mass target is met.
_FLUSH = 1e-300


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights w[k] for k = 0, 1, ...

    ``tail_bound`` bounds the probability mass dropped by truncation.
    """

    values: np.ndarray
    tail_bound: float = 0.0

    def __len__(self):
        return len(self.values)


def bernstein_weights(m, x):
    """Weights C(m, v) x^v (1-x)^(m-v), v = 0..m.

    Uses exact binomial coefficients for m <= 64; for larger m the weight at
    the mode is evaluated once in extended precision and the rest follow from
    the exact ratio recurrence, which keeps the partition-of-unity deficit at
    a few ulp even for m in the hundreds.
    """
    if m < 1:
        raise DomainError(f"degree m must be >= 1, got {m}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be in [0, 1], got {x}")

    if x == 0.0:
        values = np.zeros(m + 1)
        values[0] = 1.0
        return WeightVector(values)
    if x == 1.0:
        values = np.zeros(m + 1)
        values[m] = 1.0
        return WeightVector(values)

    nu = np.arange(m + 1)
    if m <= 64:
        binom = np.array([math.comb(m, int(v)) for v in nu], dtype=float)
        values = binom * x**nu * (1.0 - x) ** (m - nu)
    else:
        # anchor at the binomial mode, then p_{v+1} / p_v = (m-v)/(v+1) * x/(1-x)
        mode = min(int((m + 1) * x), m)
        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            p_mode = float(
                mpmath.binomial(m, mode) * mx**mode * (1 - mx) ** (m - mode)
            )
        values = np.empty(m + 1)
        values[mode] = p_mode
        odds = x / (1.0 - x)
        if mode > 0:
            v = np.arange(mode, 0, -1)
            down = np.cumprod(v / (m - v + 1.0) / odds)
            values[mode - 1 :: -1] = p_mode * down
        if mode < m:
            v = np.arange(mode, m)
            up = np.cumprod((m - v) / (v + 1.0) * odds)
            values[mode + 1 :] = p_mode * up
    return WeightVector(values)


def _poisson_pmf_upto(rate, hi):
    """Poisson pmf values for k = 0..hi-1, anchored at the mode.

    The pmf at the mode is evaluated once in extended precision; the other
    terms follow from the exact recurrence p_{k+1} = p_k * rate / (k + 1).
    Direct log-space evaluation (k ln(rate) - rate - lgamma(k+1)) loses too
    much absolute precision in the exponent for large rates to certify a
    1e-12 tail.
    """
    mode = min(int(rate), hi - 1)
    with mpmath.workdps(40):
        p_mode = float(mpmath.exp(
            mode * mpmath.log(rate) - rate - mpmath.loggamma(mode + 1)
        ))
    values = np.empty(hi)
    values[mode] = p_mode
    if mode > 0:
        down = np.cumprod(np.arange(mode, 0, -1) / rate)
        values[mode - 1 :: -1] = p_mode * down
    if mode < hi - 1:
        up = np.cumprod(rate / np.arange(mode + 1, hi))
        values[mode + 1 :] = p_mode * up
    return values


def szasz_weights(n, y, policy=DEFAULT_POLICY):
    """Truncated Poisson weights e^(-ny) (ny)^k / k!, k = 0..K.

    K is the smallest index at or beyond the Poisson mode ceil(ny) such that
    the accumulated mass reaches 1 - tail_tol, capped at policy.max_terms.
    """
    if n < 1:
        raise DomainError(f"degree n must be >= 1, got {n}")
    if y < 0.0:
        raise DomainError(f"y must be >= 0, got {y}")

    if y == 0.0:
        return WeightVector(np.array([1.0]))

    rate = n * y
    mode = int(math.ceil(rate))
    target = 1.0 - policy.tail_tol

    # Beyond the mode the pmf decays at least geometrically, so a window of
    # a few standard deviations past the mode almost always suffices.
    hi = min(int(mode + 10.0 * math.sqrt(rate) + 20.0), policy.max_terms)
    while True:
        values = _poisson_pmf_upto(rate, hi)
        mass = np.cumsum(values)
        eligible = np.nonzero((mass >= target) & (np.arange(hi) >= mode))[0]
        if eligible.size:
            K = int(eligible[0])
            break
        if hi >= policy.max_terms:
            raise TruncationError(
                f"mass target 1 - {policy.tail_tol} not reached within "
                f"{policy.max_terms} terms (rate {rate})",
                tail=float(1.0 - mass[-1]),
            )
        hi = min(2 * hi, policy.max_terms)

    values = values[: K + 1]
    values[values < _FLUSH] = 0.0
    tail = max(0.0, 1.0 - float(mass[K]))
    return WeightVector(values, tail_bound=tail)
