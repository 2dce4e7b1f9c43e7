"""Output checks behind the benchmark's failure count.

Batch tasks are compared column by column against CSV rows recorded from the
seed commit (``reference.json``).  Point queries and the Bernstein x Bernstein
grid are compared against closed forms computed here, independently of the
library: the moments of x + y and x^2 + y^2, the generating functions of the
binomial and Poisson laws for the separable ``smooth`` function, and a
log-gamma Bernstein sum for ``holder_half``.

Caveat strings, ``holds`` flags and the exit status 0 versus 1 are not
compared: they describe the certification, which is expected to change.
Exit status 2, an exception, a missing output or a value outside tolerance
is a failure.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

# Recorded CSV values: |got - ref| <= RTOL * |ref| + ATOL.  The absolute part
# covers quantities that are rounding noise at the seed (lhs ~ 1e-12 for
# linear f); the relative part allows a change of summation order.
RTOL = 1e-9
ATOL = 1e-10

# Closed-form oracles: the Poisson sum is truncated at tail mass <= 1e-12
# (the default TruncationPolicy), which bounds the error of a bounded f by
# 1e-12 * sup|f| <= 3e-12; the relative part covers rounding in sums of up
# to ~1.1e4 terms.
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-10


def close(got, want, rtol, atol):
    return abs(got - want) <= rtol * abs(want) + atol


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_cli_output(rc, csv_path, ref):
    """Return a failure message, or None when the CLI output matches ``ref``."""
    if rc not in (0, 1):
        return f"exit status {rc}"
    base, _ = os.path.splitext(csv_path)
    try:
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"output unreadable: {exc}"
    if sidecar.get("error") is not None:
        return f"sidecar reports error {sidecar['error']}"
    return compare_rows(lines, ref)


def compare_rows(lines, ref):
    """Compare CSV lines with recorded ``{"header": [...], "rows": [[...]]}``."""
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, reference has {len(ref['rows'])}"
    for r, (row, want_row) in enumerate(zip(rows, ref["rows"])):
        got_by_col = dict(zip(header, row))
        for col, want_text in zip(ref["header"], want_row):
            want = _number(want_text)
            if want is None:
                continue
            got = _number(got_by_col.get(col, ""))
            if got is None:
                return f"row {r} column {col}: missing or not a number"
            if math.isnan(want) and math.isnan(got):
                continue
            if not close(got, want, RTOL, ATOL):
                return f"row {r} column {col}: {got!r} vs reference {want!r}"
    return None


# Closed forms.  Nodes are (v + a)/(d + b); x-weights binomial(m, x),
# y-weights Poisson(n y) or binomial(n, y).

POLYNOMIALS = {"linear": lambda x, y: x + y, "quad": lambda x, y: x * x + y * y}


def moment_oracle(params, m, n, x, y):
    """(t, tau, t^2 + tau^2) moments of the operator at (x, y)."""
    a1, b1, a2, b2 = params.alpha1, params.beta1, params.alpha2, params.beta2
    t = (m * x + a1) / (m + b1)
    tau = (n * y + a2) / (n + b2)
    t2 = ((m * m - m) * x * x + (2 * a1 + 1) * m * x + a1 * a1) / (m + b1) ** 2
    tau2 = (n * n * y * y + (2 * a2 + 1) * n * y + a2 * a2) / (n + b2) ** 2
    return t, tau, t2 + tau2


def _binomial_exp(d, u, a, b, z):
    """sum_v C(d,v) u^v (1-u)^(d-v) exp(z (v + a)/(d + b)) for complex z."""
    h = z / (d + b)
    return cmath.exp(h * a) * cmath.exp(d * cmath.log(1.0 + u * (cmath.exp(h) - 1.0)))


def _poisson_exp(n, y, a, b, z):
    """sum_k e^(-ny) (ny)^k / k! exp(z (k + a)/(n + b)) for complex z."""
    h = z / (n + b)
    return cmath.exp(h * a + n * y * (cmath.exp(h) - 1.0))


def smooth_oracle(params, m, n, x, y, y_family="szasz"):
    """Operator value of e^x cos(y) e^(-y) = e^x Re e^((-1+i) y)."""
    bx = _binomial_exp(m, x, params.alpha1, params.beta1, 1.0).real
    z = complex(-1.0, 1.0)
    if y_family == "szasz":
        by = _poisson_exp(n, y, params.alpha2, params.beta2, z)
    else:
        by = _binomial_exp(n, y, params.alpha2, params.beta2, z)
    return bx * by.real


def holder_half_oracle(params, m, x):
    """Operator value of sqrt|x - 1/2| (constant in y) by log-gamma weights."""
    v = np.arange(m + 1)
    g = np.sqrt(np.abs((v + params.alpha1) / (m + params.beta1) - 0.5))
    if x == 0.0:
        return float(g[0])
    if x == 1.0:
        return float(g[-1])
    logw = (math.lgamma(m + 1) - np.array([math.lgamma(k + 1) + math.lgamma(m - k + 1)
                                           for k in v])
            + v * math.log(x) + (m - v) * math.log1p(-x))
    return float(np.exp(logw) @ g)


def point_oracle(fname, params, m, n, x, y):
    """Independent value of the operator applied to corpus function ``fname``."""
    if fname == "linear":
        t, tau, _ = moment_oracle(params, m, n, x, y)
        return t + tau
    if fname == "quad":
        return moment_oracle(params, m, n, x, y)[2]
    if fname == "smooth":
        return smooth_oracle(params, m, n, x, y)
    if fname == "holder_half":
        return holder_half_oracle(params, m, x)
    raise KeyError(fname)
