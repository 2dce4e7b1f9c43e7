"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion; the assertion carries
the same verdict so plain pytest reports match the printed summary.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from poslinops import (
    BoundReport,
    CompactRegion,
    Function2D,
    Point2D,
    StancuParams,
    TruncationPolicy,
    apply,
    apply_rth,
    check_theorem_3_3,
    check_theorem_5_2,
    corpus_lookup,
    lattice_moduli,
    moments_closed_form,
    operator_rho_norm_bound,
    sample_lattice,
    theorem_4_1_bound,
)
from poslinops import cli
from poslinops.cli import main as cli_main
from poslinops.basis import bernstein_band_matrix, szasz_band_matrix
from poslinops.taylor import PartialDerivativeSet

from paper_formulas import korovkin_gaps

TIGHT = TruncationPolicy(1e-14)


def report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _quad_extrema(a, b, c, lo, hi):
    """Min and max of a t^2 + b t + c on [lo, hi]."""
    vals = [a * t * t + b * t + c for t in (lo, hi)]
    if a != 0.0:
        v = -b / (2.0 * a)
        if lo < v < hi:
            vals.append(a * v * v + b * v + c)
    return min(vals), max(vals)


def test_criterion_1_moment_oracle_equivalence():
    rng = np.random.default_rng(2007)
    monomials = [
        Function2D(eval=lambda t, tau: np.ones(
            np.broadcast_shapes(np.shape(t), np.shape(tau))), name="one"),
        Function2D(eval=lambda t, tau: t + 0.0 * tau, name="t"),
        Function2D(eval=lambda t, tau: tau + 0.0 * t, name="tau"),
        Function2D(eval=lambda t, tau: t * t + tau * tau, name="sq"),
    ]
    ok = True
    for _ in range(50):
        b1, b2 = rng.random(2) * 3.0
        params = StancuParams(rng.random() * b1, b1, rng.random() * b2, b2)
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        p = Point2D(float(rng.random()), float(rng.random() * 5.0))
        mom = moments_closed_form(params, m, n, p)
        closed = [mom.one, mom.t, mom.tau, mom.t2_plus_tau2]
        for f, want in zip(monomials, closed):
            if abs(apply(f, params, m, n, p, TIGHT) - want) > 1e-9:
                ok = False
    report(1, ok, "closed-form moments match direct double summation "
                  "on 50 random configurations within 1e-9")


def test_criterion_2_korovkin_gap_bounds():
    params = StancuParams(1, 2, 1, 2)
    region = CompactRegion(1.0)
    a1, b1, a2, b2 = params.alpha1, params.beta1, params.alpha2, params.beta2
    seq = []
    ok = True
    for m in (10, 20, 40, 80, 160):
        gaps = korovkin_gaps(params, m, m, region)
        seq.append(gaps)
        n = m
        # closed-form sups of the four test-function gaps
        sup_t = max(a1, b1 - a1) / (m + b1)
        sup_tau = max(a2, b2 * region.A - a2) / (n + b2)
        lox, hix = _quad_extrema(
            (m * m - m) - (m + b1) ** 2, (2 * a1 + 1) * m, a1 * a1, 0.0, 1.0
        )
        loy, hiy = _quad_extrema(
            n * n - (n + b2) ** 2, (2 * a2 + 1) * n, a2 * a2, 0.0, region.A
        )
        lox, hix = lox / (m + b1) ** 2, hix / (m + b1) ** 2
        loy, hiy = loy / (n + b2) ** 2, hiy / (n + b2) ** 2
        sup_sq = max(hix + hiy, -(lox + loy))
        ok &= gaps[0] == 0.0
        ok &= gaps[1] <= sup_t + 1e-12
        ok &= gaps[2] <= sup_tau + 1e-9
        ok &= gaps[3] <= sup_sq + 1e-9
    g160 = seq[-1]
    ok &= g160[1] <= 1.0 / 162.0 + 1e-12
    for prev, cur in zip(seq, seq[1:]):
        for p, c in zip(prev, cur):
            ok &= c <= p + 1e-15
    report(2, ok, "Korovkin gaps bounded by closed-form sups and "
                  "non-increasing along m = n in {10,...,160}")


def test_criterion_3_theorem_3_3_closed_form_corpus():
    ok = True
    params = StancuParams(1, 2, 1, 2)
    for name in ("const1", "linear"):
        entry = corpus_lookup(name)
        for A in (1.0, 2.0):
            region = CompactRegion(A)
            for m in (10, 50, 100):
                for n in (10, 50, 100):
                    ra, rb = check_theorem_3_3(
                        entry.function, params, m, n, region,
                        grid_points=101, policy=TIGHT,
                        closed_form_moduli=entry.closed_form_moduli,
                    )
                    ok &= ra.holds and rb.holds
    report(3, ok, "partial- and full-modulus rate bounds hold for "
                  "const1 and linear over A in {1,2}, m,n in {10,50,100}")


def test_criterion_4_rth_reduction_and_exactness():
    ok = True
    rng = np.random.default_rng(41)
    entries = [corpus_lookup(nm) for nm in ("smooth", "prod", "quad")]
    for k in range(30):
        e = entries[k % 3]
        b1, b2 = rng.random(2) * 3.0
        params = StancuParams(rng.random() * b1, b1, rng.random() * b2, b2)
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 31))
        p = Point2D(float(rng.random()), float(rng.random() * 3.0))
        a = apply_rth(e.derivative_provider, params, m, n, 0, p, TIGHT)
        b = apply(e.function, params, m, n, p, TIGHT)
        ok &= abs(a - b) <= 1e-12 * (1.0 + abs(b))

    def monomial_derivs(ax, by):
        def falling(pp, kk):
            out = 1.0
            for t in range(kk):
                out *= pp - t
            return out

        def ev(i, j, x, y):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            if i > ax or j > by:
                return np.zeros(np.broadcast_shapes(x.shape, y.shape))
            return falling(ax, i) * falling(by, j) * x ** (ax - i) * y ** (by - j)

        return PartialDerivativeSet(ev)

    policy = TruncationPolicy(1e-12)
    for r in (1, 2, 3):
        for ax in range(r + 1):
            by = r - ax
            d = monomial_derivs(ax, by)
            params = StancuParams(0.5, 1.0, 0.5, 1.0)
            m = int(rng.integers(2, 51))
            n = int(rng.integers(2, 51))
            p = Point2D(float(rng.random()), float(rng.random() * 2.0))
            band, _, lo = szasz_band_matrix(n, [p.y], policy)
            K = lo + band.shape[1] - 1
            tol = 10 * policy.tail_tol * (1.0 + (K / n + 1.0) ** 3)
            got = apply_rth(d, params, m, n, r, p, policy)
            ok &= abs(got - p.x**ax * p.y**by) <= tol
    report(4, ok, "order-r operator reduces to the base operator at r=0 and "
                  "reproduces monomials of total degree <= r")


def test_criterion_5_theorem_4_1_inequality():
    entry = corpus_lookup("quad")
    M = 2.0 * math.sqrt(2.0)  # Hessian spectral bound * sqrt(2)
    region = CompactRegion(1.0)
    params = StancuParams(1, 2, 1, 2)
    ok = True
    rhs_seq = []
    for m in (10, 20, 40):
        rep = theorem_4_1_bound(
            entry.derivative_provider, entry.function, params, m, m,
            1, 1.0, M, region, 41, TIGHT,
        )
        ok &= rep.holds and rep.margin > 0.0
        rhs_seq.append(rep.rhs)
    ok &= rhs_seq[0] >= rhs_seq[1] >= rhs_seq[2]
    report(5, ok, "order-1 Lipschitz bound for x^2 + y^2 holds with "
                  "positive margin and non-increasing RHS")


def test_criterion_6_uniform_operator_norm_bound():
    strip = CompactRegion(100.0)
    shifted = StancuParams(1, 2, 1, 2)
    plain = StancuParams()
    ok = True
    worst = 0.0
    for m in range(1, 201):
        for n in range(1, 201):
            b = operator_rho_norm_bound(shifted, m, n, strip, 21)
            worst = max(worst, b)
            ok &= b <= 4.0
            b0 = operator_rho_norm_bound(plain, m, n, strip, 21)
            ok &= b0 <= 1.0 + 0.25 / m + 0.5 / n + 1e-9
    report(6, ok, f"weighted operator-norm surrogate <= 4 for all "
                  f"m, n <= 200 (max {worst:.3f}) and matches the "
                  f"unshifted closed form")


def test_criterion_7_weighted_convergence():
    f = corpus_lookup("rho_growth").function
    params = StancuParams(3, 3, 3, 3)
    sched = [(m, m) for m in (10, 20, 40, 80, 160)]
    ests = check_theorem_5_2(
        f, params, sched, 0.5, CompactRegion(50.0), 201, TruncationPolicy(1e-13),
    )
    ok = all(a > b for a, b in zip(ests, ests[1:]))
    ok &= ests[-1] < ests[0] / 4.0
    report(7, ok, "certified weighted-norm error estimates strictly "
                  "decrease and drop below a quarter of the initial value")


def test_criterion_8_basis_certification():
    ok = True
    rng = np.random.default_rng(88)
    policy = TruncationPolicy(1e-12)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        y = float(rng.random()) * (1e4 / n)
        w, tail, lo = szasz_band_matrix(n, [y], policy)
        ok &= tail[0] <= policy.tail_tol
        # re-summing in a different order costs a few ulp of extra deficit
        ok &= 1.0 - w.sum() <= policy.tail_tol + 1e-14
        cases.append((n, y, tail[0], lo + w.shape[1] - 1))
    for n, y, tail, K in cases[::50]:  # 20 spot checks against mpmath
        with mpmath.workdps(50):
            rate = mpmath.mpf(n) * mpmath.mpf(y)
            cdf = mpmath.gammainc(K + 1, rate, mpmath.inf, regularized=True)
            exact_tail = float(1 - cdf)
        ok &= abs(tail - exact_tail) <= 1e-11
    for m in (1, 10, 100, 500):
        for x in np.linspace(0.0, 1.0, 21):
            ok &= abs(bernstein_band_matrix(m, [float(x)])[0].sum() - 1.0) <= 1e-12
    report(8, ok, "Szasz truncation deficit certified against an "
                  "extended-precision Poisson CDF; Bernstein partition "
                  "of unity up to m = 500")


def test_criterion_9_modulus_estimator_convergence():
    f = corpus_lookup("linear").function
    region = CompactRegion(1.0)
    target = 0.1 * math.sqrt(2.0)
    ok = True
    for G in (101, 201, 401):
        est = lattice_moduli(*sample_lattice(f, region, G), full=0.1)["full"]
        step = 1.0 / (G - 1)
        ok &= abs(est - target) <= 2.0 * step * math.sqrt(2.0)
        ok &= est <= target + 1e-12  # grid value never overshoots
    report(9, ok, "grid modulus estimate for x + y converges to "
                  "delta * sqrt(2) at the lattice rate")


def test_criterion_10_cli_reproducibility(tmp_path, monkeypatch):
    args = ["check-thm33", "--function", "linear", "--alpha1", "1",
            "--beta1", "2", "--alpha2", "1", "--beta2", "2",
            "--m", "20", "--n", "20", "--grid", "101", "--seed", "3"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    ok = code1 == 0 and code2 == 0
    ok &= out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "tampered.csv"
    check = cli.check_theorem_3_3  # tampered: every RHS scaled by 1e-6
    monkeypatch.setattr(cli, "check_theorem_3_3", lambda *a, **k: [
        BoundReport(r.lhs, r.rhs * 1e-6, r.caveat) for r in check(*a, **k)])
    code3 = cli_main(args + ["--out", str(out3)])
    ok &= code3 == 1
    with open(tmp_path / "tampered.json") as fh:
        ok &= json.load(fh)["reports_hold"] is False
    report(10, ok, "identical configs give byte-identical CSV output and "
                   "the exit-status contract distinguishes a tampered bound")
