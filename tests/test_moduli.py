"""Tests for the modulus-of-continuity and Lipschitz estimators."""

import itertools
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    PartialDerivativeSet,
    corpus_lookup,
    corpus_names,
    f_rth_lipschitz_estimate,
    lattice_moduli,
    sample_lattice,
)
from poslinops import moduli
from poslinops.moduli import _radius, rho
from poslinops.operators import lattice

R1 = CompactRegion(1.0)


def f2(expr, name="f", **kw):
    return Function2D(eval=expr, name=name, **kw)


def holder_ratio(f, gamma, region, samples, seed=0):
    """The sampled Hoelder constant of f: the r = 0 Lipschitz estimate, as
    F^(0) along a segment is f itself."""
    derivs = PartialDerivativeSet(lambda i, j, x, y: f(x, y), 0, f.name)
    return f_rth_lipschitz_estimate(derivs, 0, gamma, region, samples, seed)


CONST = f2(lambda x, y: 0.0 * np.asarray(x) + 0.0 * np.asarray(y) + 4.2)
LINEAR = f2(lambda x, y: np.asarray(x, float) + np.asarray(y, float))
COORD_X = f2(lambda x, y: np.asarray(x, float) + 0.0 * np.asarray(y))
COORD_Y = f2(lambda x, y: np.asarray(y, float) + 0.0 * np.asarray(x))
PROD = f2(lambda x, y: np.asarray(x, float) * np.asarray(y, float))


def test_full_modulus_constant():
    xs, ys, F = sample_lattice(CONST, R1, 201)
    assert lattice_moduli(xs, ys, F, full=0.1)["full"] == 0.0


def test_full_modulus_linear():
    est = lattice_moduli(*sample_lattice(LINEAR, R1, 201), full=0.1)["full"]
    step = 1.0 / 200
    assert est <= 0.1 * math.sqrt(2.0) + 1e-12
    assert est >= 0.1 * math.sqrt(2.0) - 2 * step * math.sqrt(2.0)


def test_full_modulus_coordinate():
    est = lattice_moduli(*sample_lattice(COORD_X, R1, 201), full=0.05)["full"]
    assert abs(est - 0.05) <= 1.0 / 200


def test_partial_moduli_coordinate():
    xs, ys, F = sample_lattice(COORD_Y, R1, 201)
    est = lattice_moduli(xs, ys, F, partial_x=0.1, partial_y=0.1)
    ex, ey = est["partial_x"], est["partial_y"]
    assert ex == 0.0
    assert abs(ey - 0.1) <= 1.0 / 200


def test_partial_moduli_product():
    region = CompactRegion(2.0)
    xs, ys, F = sample_lattice(PROD, region, 201)
    est = lattice_moduli(xs, ys, F, partial_x=0.1, partial_y=0.1)
    ex, ey = est["partial_x"], est["partial_y"]
    # sup over y <= 2 of y * delta, up to lattice rounding
    assert abs(ex - 0.2) <= 2 * (2.0 / 200) * 2.0
    assert abs(ey - 0.1) <= 2 * (2.0 / 200)


def test_partial_moduli_constant():
    xs, ys, F = sample_lattice(CONST, R1, 201)
    est = lattice_moduli(xs, ys, F, partial_x=0.3, partial_y=0.3)
    assert est["partial_x"] == 0.0 and est["partial_y"] == 0.0


def test_modulus_monotone_in_delta():
    xs, ys, F = sample_lattice(PROD, R1, 101)
    vals = [lattice_moduli(xs, ys, F, full=d)["full"] for d in (0.05, 0.1, 0.2)]
    assert vals == sorted(vals)


def test_full_dominates_partials():
    xs, ys, F = sample_lattice(PROD, R1, 101)
    for d in (0.05, 0.15):
        est = lattice_moduli(xs, ys, F, full=d, partial_x=d, partial_y=d)
        assert est["full"] >= max(est["partial_x"], est["partial_y"]) - 1e-15


def test_closed_form_dominates_grid_estimate():
    # for x + y the analytic modulus is delta * sqrt(2)
    xs, ys, F = sample_lattice(LINEAR, R1, 201)
    for d in (0.05, 0.1):
        assert lattice_moduli(xs, ys, F, full=d)["full"] <= d * math.sqrt(2.0) + 1e-12


def test_pointwise_modulus_inequality():
    # |f(p1) - f(p2)| <= w_closed(dist) for random pairs
    rng = np.random.default_rng(5)
    u = rng.random((10000, 4))
    d = np.hypot(u[:, 0] - u[:, 2], u[:, 1] - u[:, 3])
    diff = np.abs(u[:, 0] + u[:, 1] - u[:, 2] - u[:, 3])
    assert (diff <= d * math.sqrt(2.0) + 1e-12).all()


def test_lipschitz_ratio_constant():
    w = holder_ratio(CONST, 1.0, R1, samples=500, seed=1)
    assert w.M_estimate == 0.0


def test_lipschitz_ratio_linear():
    w = holder_ratio(LINEAR, 1.0, R1, samples=20000, seed=2)
    assert w.M_estimate <= math.sqrt(2.0) + 1e-12
    assert w.M_estimate >= math.sqrt(2.0) * 0.97
    # witness is recomputable
    p1, p2 = w.argmax_pair
    dist = math.hypot(p1.x - p2.x, p1.y - p2.y)
    ratio = abs((p1.x + p1.y) - (p2.x + p2.y)) / dist
    assert ratio == pytest.approx(w.M_estimate, abs=1e-12)


def test_lipschitz_ratio_holder_half():
    f = f2(lambda x, y: np.sqrt(np.abs(np.asarray(x, float) - 0.5)) + 0.0 * np.asarray(y))
    w = holder_ratio(f, 0.5, R1, samples=20000, seed=3)
    assert w.M_estimate <= 1.0 + 1e-9
    assert w.M_estimate >= 0.9


def test_lipschitz_ratio_monotone_in_samples():
    vals = [
        holder_ratio(PROD, 1.0, R1, samples=k, seed=4).M_estimate
        for k in (100, 1000, 5000)
    ]
    assert vals == sorted(vals)


def test_lipschitz_ratio_draws_the_taylor_segments():
    # at r = 0 only the (0, 0) partial counts: f alone gives the witness of
    # the full provider
    entry = corpus_lookup("prod")
    region = CompactRegion(2.0)
    for seed in (0, 7):
        assert holder_ratio(entry.function, 0.5, region, 3000, seed) == (
            f_rth_lipschitz_estimate(entry.derivative_provider, 0, 0.5, region,
                                     3000, seed))
    with pytest.raises(DomainError, match="^seed must be a non-negative integer"):
        holder_ratio(entry.function, 0.5, region, 3000, seed=-1)


def test_weighted_modulus_constant():
    f = f2(lambda x, y: 1.0 + 0.0 * np.asarray(x) + 0.0 * np.asarray(y), m_f=1.0)
    region = CompactRegion(10.0)
    xs, ys, F = sample_lattice(f, region, 101)
    assert lattice_moduli(xs, ys, F, weighted=0.1)["weighted"] == 0.0


def test_weighted_modulus_of_rho_finite_and_monotone():
    f = f2(lambda x, y: 1.0 + np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2,
           m_f=1.0)
    region = CompactRegion(20.0)
    xs, ys, F = sample_lattice(f, region, 201)
    vals = [lattice_moduli(xs, ys, F, weighted=d)["weighted"]
            for d in (0.05, 0.1, 0.2)]
    assert all(np.isfinite(v) for v in vals)
    assert vals == sorted(vals)
    assert vals[0] > 0.0


def test_subadditivity_closed_forms():
    # the corpus's closed-form moduli satisfy w(lam delta) <= (1 + floor(lam)) w(delta)
    moduli = [corpus_lookup(name).closed_form_moduli for name in corpus_names()]
    kinds = [w for ws in moduli if ws for w in ws.values()]
    assert kinds
    for w, A, delta, lam in itertools.product(
            kinds, (1.0, 3.0), (1e-3, 0.05, 0.1, 0.7),
            (0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 10.0)):
        assert w(lam * delta, A) <= (1.0 + math.floor(lam)) * w(delta, A)


def _offsets(delta, hx, hy, G):
    """Offsets (di, dj) of length <= delta that fit in a G x G lattice.

    Only one half-plane is enumerated (pairs are unordered).
    """
    rx, ry = _radius(delta, hx, G), _radius(delta, hy, G)
    d2 = delta * delta * (1.0 + 1e-12)
    out = []
    for di in range(rx + 1):
        for dj in range(1 if di == 0 else -ry, ry + 1):
            if (di * hx) ** 2 + (dj * hy) ** 2 <= d2:
                out.append((di, dj))
    return out


def pair_loop_oracle(F, offsets, R=None):
    """Largest |F[p + (di, dj)] - F[p]| over the offsets, one pass per offset.

    With R, each difference is divided by the smaller R of its two points.
    """
    G = len(F)
    best = 0.0
    for di, dj in offsets:
        p = np.s_[di:, max(dj, 0):G + min(dj, 0)]
        q = np.s_[: G - di, max(-dj, 0):G - max(dj, 0)]
        diff = np.abs(F[p] - F[q])
        if R is not None:
            diff = diff / np.minimum(R[p], R[q])
        best = max(best, float(diff.max()))
    return best


@st.composite
def lattice_cases(draw):
    G = draw(st.integers(2, 40))
    A = draw(st.sampled_from([0.3, 1.0, 2.5, 7.0]))
    # deltas on lattice multiples hit the slack of the offset rule; the
    # largest ones reach past the lattice side
    step = draw(st.sampled_from([1.0, A])) / (G - 1)
    delta = draw(st.one_of(
        st.floats(1e-3, 10.0),
        st.integers(1, G + 3).map(lambda k: k * step),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        F = rng.standard_normal((G, G))
    else:
        F = rng.integers(-2, 3, (G, G)).astype(float)  # many ties
    return G, A, delta, F


def _ints(G, seed):
    return np.random.default_rng(seed).integers(-2, 3, (G, G))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lattice_cases(), st.integers(1, 1 << 14))
# r_y = 24 lines of offset over strips of 1 and of 4 base lines (30 = 7 * 4 + 2)
@example((30, 0.3, 0.25, np.random.default_rng(1).standard_normal((30, 30))), 2500)
@example((7, 2.5, 10.0, np.random.default_rng(2).standard_normal((7, 7))), 1)
@example((2, 1.0, 1.5, np.array([[0.0, 1.0], [3.0, -2.0]])), 1)
@example((2, 1.0, 1.0, np.array([[0.0, 1.0], [3.0, -2.0]])), 1)
@example((25, 1.0, 0.2, _ints(25, 3)), 1000)  # an integer F: many ties
def test_window_moduli_equal_pair_loop(case, budget):
    """The sweep at its default strips, at one y-line per strip (the
    smallest budget) and at a drawn budget, which leaves a shorter last strip."""
    G, A, delta, F = case
    xs, ys = lattice(A, G)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    full = pair_loop_oracle(F, _offsets(delta, hx, hy, G))
    along_x = pair_loop_oracle(
        F, [(di, 0) for di in range(1, _radius(delta, hx, G) + 1)])
    along_y = pair_loop_oracle(
        F, [(0, dj) for dj in range(1, _radius(delta, hy, G) + 1)])
    weighted = pair_loop_oracle(F, _offsets(delta, hx, hy, G),
                                rho(xs[:, None], ys[None, :]))
    for strip in (moduli._STRIP, 1, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moduli, "_STRIP", strip)
            est = lattice_moduli(xs, ys, F, full=delta, partial_x=delta,
                                 partial_y=delta, weighted=delta)
        assert list(est.values()) == [full, along_x, along_y, weighted], strip


def test_delta_past_lattice_takes_all_pairs():
    xs, ys = lattice(1.0, 9)
    F = np.random.default_rng(8).standard_normal((9, 9))
    est = lattice_moduli(xs, ys, F, full=5.0, partial_x=5.0, partial_y=5.0)
    assert est["full"] == F.max() - F.min()
    assert est["partial_x"] == np.ptp(F, axis=0).max()
    assert est["partial_y"] == np.ptp(F, axis=1).max()
    f = f2(lambda x, y: 1.0 + 0.0 * np.asarray(x) + np.asarray(y, float))
    region = CompactRegion(2.0)
    xs, ys, F = sample_lattice(f, region, 5)
    assert lattice_moduli(xs, ys, F, weighted=100.0)["weighted"] == 2.0


def test_lattice_moduli_kinds_and_deltas():
    xs, ys, F = sample_lattice(PROD, R1, 51)
    est = lattice_moduli(xs, ys, F, full=0.3, partial_y=0.1)
    assert list(est) == ["full", "partial_y"]
    assert est["full"] == lattice_moduli(xs, ys, F, full=0.3)["full"]
    assert est["partial_y"] == lattice_moduli(xs, ys, F, partial_y=0.1)["partial_y"]
    with pytest.raises(DomainError):
        lattice_moduli(xs, ys, F, partial_x=0.0)


def test_lattice_needs_two_points():
    with pytest.raises(DomainError):
        lattice_moduli(np.zeros(1), np.zeros(1), np.zeros((1, 1)), full=0.1)


@pytest.mark.parametrize("gx, gy, shape", [
    (11, 11, (11, 12)), (11, 11, (12, 12)), (11, 11, (11,)), (11, 12, (11, 12)),
    (11, 12, (11, 11)), (12, 11, (11, 11)),
])
def test_lattice_moduli_rejects_a_mismatched_sample(gx, gy, shape):
    """The lattice must be square and F its sample: the estimator reads its
    steps from xs and ys and takes its windows on F."""
    xs, ys = np.linspace(0.0, 1.0, gx), np.linspace(0.0, 2.0, gy)
    with pytest.raises(DomainError, match="^need a G x G lattice sample"):
        lattice_moduli(xs, ys, np.zeros(shape), full=0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises_naming_f(value):
    f = f2(lambda x, y: np.where((np.asarray(x) > 0.5) & (np.asarray(y) > 0.5),
                                 value, 1.0),
           name="bad_corner", m_f=1.0)
    with pytest.raises(RuntimeError, match="bad_corner is not finite"):
        sample_lattice(f, R1, 21)
    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="bad_corner is not finite"):
        holder_ratio(f, 1.0, R1, samples=1000)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["full", "partial_x", "partial_y", "weighted"])
def test_a_non_finite_sample_is_an_error(kind, value):
    """Python's max drops a NaN, so a NaN in F once gave 0.0 for every kind;
    an inf gave inf after a numpy warning."""
    xs, ys = lattice(1.0, 11)
    F = xs[:, None] + ys[None, :]
    F[5, 5] = F[2, 7] = value
    with pytest.raises(RuntimeError,
                       match="^F is not finite at 2 of 121 lattice points"):
        lattice_moduli(xs, ys, F, **{kind: 0.3})


@pytest.mark.parametrize("axis, xs, ys", [
    ("x", np.linspace(1.0, 0.0, 11), np.linspace(0.0, 1.0, 11)),
    ("y", np.linspace(0.0, 1.0, 11), np.linspace(2.0, 0.0, 11)),
    ("x", np.full(11, 0.5), np.linspace(0.0, 1.0, 11)),
    ("y", np.linspace(0.0, 1.0, 11), np.zeros(11)),
    ("x", np.full(11, np.nan), np.linspace(0.0, 1.0, 11)),
])
def test_a_lattice_step_not_above_zero_is_an_error(axis, xs, ys):
    """Reversed steps once raised IndexError and zero steps ZeroDivisionError."""
    F = np.zeros((11, 11))
    for kind in ("full", "partial_x", "partial_y", "weighted"):
        with pytest.raises(DomainError,
                           match=f"^lattice {axis} step must be finite and > 0"):
            lattice_moduli(xs, ys, F, **{kind: 0.3})


@pytest.mark.parametrize("axis, xs, ys", [
    ("x", np.array([0.0, 0.1, 0.5, 1.0]), np.linspace(0.0, 1.0, 4)),
    ("y", np.linspace(0.0, 1.0, 4), np.array([0.0, 1.0, 2.0, 2.5])),
    ("x", np.array([0.0, 0.5, 1.0, 1.0]), np.linspace(0.0, 1.0, 4)),
])
def test_a_lattice_with_uneven_steps_is_an_error(axis, xs, ys):
    """Every step is read as the first: with xs = [0, 0.1, 0.5, 1] and F = x,
    partial_x at delta = 0.1 once returned 0.5, the rise over a step of 0.4."""
    F = xs[:, None] + 0.0 * ys[None, :]
    for kind in ("full", "partial_x", "partial_y", "weighted"):
        with pytest.raises(DomainError, match=f"^lattice {axis} steps must be uniform"):
            lattice_moduli(xs, ys, F, **{kind: 0.1})


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(G=st.integers(2, 1000), A=st.floats(1e-200, 1e200))
@example(G=1000, A=1.0)
@example(G=1000, A=1e5)
def test_every_linspace_lattice_has_uniform_steps(G, A):
    """np.linspace spreads the steps by about G eps relative, far inside the
    uniformity tolerance (1.5e-11 at G = 10^5)."""
    xs, ys = np.linspace(0.0, 1.0, G), np.linspace(0.0, A, G)
    assert lattice_moduli(xs, ys, np.broadcast_to(0.0, (G, G))) == {}
