"""The factored order-r route: each Taylor term of a provider declared by its
factors is applied one axis at a time, without calling the provider's eval,
and agrees with the table route of the same provider up to rounding."""

import dataclasses
import functools
import gc
import math
import warnings
import weakref

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Point2D,
    StancuParams,
    apply_on_grid,
    apply_rth,
    corpus_lookup,
    corpus_names,
    f_rth_lipschitz_estimate,
)
from poslinops.operators import lattice
from poslinops import taylor
from poslinops.taylor import PartialDerivativeSet, apply_rth_on_grid

from corpus_partials import PARTIALS
from single_band import single_band

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=80)
PROVIDERS = [name for name in corpus_names() if corpus_lookup(name).derivative_provider]


def table_route(derivs):
    """The same provider without its factors: each partial is evaluated on the
    nodes through the eval that the factors define."""
    return PartialDerivativeSet(eval=derivs.eval, order=derivs.order, source="table")


def term_sizes(derivs, params, m, n, r, xs, ys):
    """The sum over the terms (i, j) of |X_i| @ |C| @ |Y_j|.T, C the nodal
    table of the partial and X_i = WX dx^i / i!, Y_j = WY dy^j / j!, on one
    band per axis: the blocked sweep's operands where it keeps each axis as
    one block, and within its truncation (about tail_tol relative) where it
    cuts one."""
    WX, WY, tx, ty = single_band(params, m, n, xs, ys)
    dx, dy = np.abs(xs[:, None] - tx[None, :]), np.abs(ys[:, None] - ty[None, :])
    size = np.zeros((len(xs), len(ys)))
    for h in range(r + 1):
        for i, j in ((h - j, j) for j in range(h + 1)):
            C = np.broadcast_to(derivs.eval(i, j, tx[:, None], ty[None, :]),
                                (len(tx), len(ty)))
            size += ((WX * dx**i / math.factorial(i)) @ np.abs(C)
                     @ (WY * dy**j / math.factorial(j)).T)
    return size


@st.composite
def rth_cases(draw):
    """A corpus provider, r <= 4, parameters (alpha = beta drawn too),
    degrees up to 400 (1 drawn too) and up to 5 points of [0, 1] x [0, 20],
    the edges x in {0, 1} and y = 0 drawn too."""
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    degree = st.one_of(st.just(1), st.integers(1, 400))
    size = draw(st.integers(1, 5))
    xs = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=size, max_size=size))
    ys = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
                       min_size=size, max_size=size))
    return (draw(st.sampled_from(PROVIDERS)), draw(st.integers(0, 4)),
            StancuParams(a1, b1, a2, b2), draw(degree), draw(degree),
            np.array(xs), np.array(ys))


@SETTINGS
@given(case=rth_cases())
@example(case=("smooth", 4, StancuParams(), 1, 1, np.array([0.0, 1.0]),
               np.array([0.0, 20.0])))
@example(case=("quad", 2, StancuParams(1, 1, 2, 2), 400, 400, np.array([0.3]),
               np.array([5.0])))
@example(case=("linear", 3, StancuParams(0.5, 1.5, 0.25, 1.0), 65, 200,
               np.array([0.0, 0.41, 1.0]), np.array([0.0, 7.0, 19.9])))
def test_the_factored_route_agrees_with_the_table_route(case):
    """The two routes sum the same products in another order: they agree
    within 16 eps times the size of the terms, plus tiny for subnormals.  The
    largest ratio seen in 3,000 random draws of these cases was 8.6 eps."""
    name, r, params, m, n, xs, ys = case
    derivs = corpus_lookup(name).derivative_provider
    got = apply_rth_on_grid(derivs, params, m, n, r, xs, ys)
    want = apply_rth_on_grid(table_route(derivs), params, m, n, r, xs, ys)
    size = term_sizes(derivs, params, m, n, r, xs, ys)
    assert np.all(np.abs(got - want) <= 16 * EPS * size + TINY)


@pytest.mark.parametrize("name", PROVIDERS)
@pytest.mark.parametrize("G", [1, 33, 201])
def test_order_zero_of_a_factored_provider_is_the_operator_bit_for_bit(G, name):
    """L_0 takes f's own factored route: the same factors, blocks and bits
    (at m = n = 640 the 33 points are cut into 2 blocks in x and 3 in y, the
    201 points into 5 and 8)."""
    entry = corpus_lookup(name)
    params = StancuParams(0.3, 0.9, 0.1, 0.4)
    xs, ys = lattice(3.0, G) if G > 1 else (np.array([0.37]), np.array([1.3]))
    want = apply_on_grid(entry.function, params, 640, 640, xs, ys)
    got = apply_rth_on_grid(entry.derivative_provider, params, 640, 640, 0, xs, ys)
    assert np.array_equal(got, want)


def traced(derivs):
    """derivs with its eval behind a ``functools.wraps`` wrapper that counts
    its calls, as a tracer wraps it, and the list of calls."""
    calls = []

    @functools.wraps(derivs.eval)
    def ev(i, j, x, y):
        calls.append((i, j))
        return derivs.eval(i, j, x, y)

    return dataclasses.replace(derivs, eval=ev), calls


@pytest.mark.parametrize("name", PROVIDERS)
def test_a_traced_eval_of_a_factored_provider_is_never_called(name):
    """L_r on a grid and at a point, and the Lipschitz estimate, read only the
    factors: a counting wrapper of the eval sees no call, and the values are
    the untraced ones bit for bit."""
    derivs = corpus_lookup(name).derivative_provider
    wrapped, calls = traced(derivs)
    params, xs, ys = StancuParams(0.5, 1.5, 0.25, 1.0), *lattice(2.0, 40)
    region, p = CompactRegion(2.0), Point2D(0.3, 5.0)
    for r in range(4):
        assert np.array_equal(apply_rth_on_grid(wrapped, params, 80, 80, r, xs, ys),
                              apply_rth_on_grid(derivs, params, 80, 80, r, xs, ys))
        assert (apply_rth(wrapped, params, 2000, 2000, r, p)
                == apply_rth(derivs, params, 2000, 2000, r, p))
        assert (f_rth_lipschitz_estimate(wrapped, r, 1.0, region, 200)
                == f_rth_lipschitz_estimate(derivs, r, 1.0, region, 200))
    assert calls == []
    wrapped.eval(1, 0, 0.5, 0.5)  # the counter counts
    assert calls == [(1, 0)]


def test_an_eval_beside_the_factors_is_checked():
    """A provider is its eval or its factors: an eval beside factors raises
    naming the provider, unless it is a ``functools.wraps`` wrapper of the
    sum of these very factors."""
    pairs = (((np.exp,) * 5, (np.cos, lambda y: -np.sin(y))),)
    with pytest.raises(DomainError, match="^off takes an eval or factors, not both$"):
        PartialDerivativeSet(eval=lambda i, j, x, y: 0.0, factors=pairs, source="off")
    quad = corpus_lookup("quad").derivative_provider
    other = corpus_lookup("rho_growth").derivative_provider  # equal, not the same
    with pytest.raises(DomainError, match="^closed_form takes an eval or factors"):
        dataclasses.replace(quad, eval=other.eval)
    with pytest.raises(DomainError, match="^closed_form takes an eval or factors"):
        dataclasses.replace(quad, factors=quad.factors[:1])
    wrapped, _ = traced(quad)
    assert wrapped.factors is quad.factors
    assert dataclasses.replace(traced(wrapped)[0], source="q").factors is quad.factors
    with pytest.raises(DomainError, match="^closed_form needs an eval or factors$"):
        PartialDerivativeSet()
    for bad in ((np.exp,), (np.exp, 2.0), [np.exp, np.cos], (np.exp, np.cos, np.sin)):
        with pytest.raises(DomainError, match="^bad's factors must be pairs"):
            PartialDerivativeSet(factors=(bad,), source="bad")


def test_a_provider_declared_by_its_own_factors():
    """f = e^x y^2, its y factor a tuple of derivatives that ends at the
    second: its (0, 3) partial is 0, its (2, 1) partial e^x 2y, and L_3,
    whose weights carry 1 / (i! j!), is the table route's within rounding."""
    derivs = PartialDerivativeSet(factors=(
        (lambda k: np.exp, (np.square, lambda t: 2.0 * t, 2.0)),))
    assert derivs.eval(0, 3, 0.5, 2.0) == 0.0
    assert derivs.eval(2, 1, 0.5, 2.0) == np.exp(0.5) * 2.0 * 2.0
    xs, ys = np.array([0.0, 0.4, 1.0]), np.array([0.0, 1.5, 9.0])
    got = apply_rth_on_grid(derivs, StancuParams(), 120, 90, 3, xs, ys)
    want = apply_rth_on_grid(table_route(derivs), StancuParams(), 120, 90, 3, xs, ys)
    size = term_sizes(derivs, StancuParams(), 120, 90, 3, xs, ys)
    assert np.all(np.abs(got - want) <= 16 * EPS * size + TINY)


def test_each_partial_of_a_factored_provider_is_built_once(monkeypatch):
    """L_r builds the partial of each Taylor term on a provider's first call
    only; later calls, and a fresh provider, give the same bits."""
    built, build = [], taylor._factored_partial
    monkeypatch.setattr(taylor, "_factored_partial",
                        lambda *args: built.append(args[1:3]) or build(*args))
    factors = corpus_lookup("smooth").derivative_provider.factors
    derivs, p = PartialDerivativeSet(factors=factors), Point2D(0.3, 0.7)
    first = apply_rth(derivs, StancuParams(), 10, 10, 2, p)
    terms = sorted((i, j) for i in range(3) for j in range(3 - i))
    assert sorted(built) == terms
    assert apply_rth(derivs, StancuParams(), 10, 10, 2, p) == first
    assert sorted(built) == terms
    assert apply_rth(PartialDerivativeSet(factors=factors), StancuParams(), 10, 10, 2,
                     p) == first


def test_each_partial_of_an_eval_provider_is_built_once():
    """A provider without factors keeps each partial by (i, j) too: later
    calls of L_r and the Lipschitz estimate reuse the same objects, while the
    eval is still called once per term per call.  The kept partials hold the
    eval, not the provider, so a dropped provider is freed without gc."""
    calls = []

    def ev(i, j, x, y):
        calls.append((i, j))
        return PARTIALS["smooth"](i, j, x, y)

    derivs, p = PartialDerivativeSet(eval=ev, source="counted"), Point2D(0.3, 0.7)
    terms = sorted((i, j) for i in range(3) for j in range(3 - i))
    first = apply_rth(derivs, StancuParams(), 10, 10, 2, p)
    kept = dict(derivs._partials)
    assert sorted(kept) == terms and sorted(calls) == terms
    calls.clear()
    assert apply_rth(derivs, StancuParams(), 10, 10, 2, p) == first
    assert sorted(calls) == terms
    f_rth_lipschitz_estimate(derivs, 2, 1.0, CompactRegion(1.0), 50)
    assert derivs._partials.keys() == kept.keys()
    assert all(derivs._partials[key] is g for key, g in kept.items())
    ref = weakref.ref(derivs)
    gc.disable()
    try:
        del derivs
        assert ref() is None
    finally:
        gc.enable()


def test_vanishing_partials_are_dropped_with_their_powers(monkeypatch):
    """x + y has no partial past order 1: L_20 and L_169 keep the three terms
    of L_1 and build the weights W and W dx only, so they are L_1 bit for bit,
    and no power W dx^i / i! overflows at r = 169."""
    derivs = corpus_lookup("linear").derivative_provider
    xs, ys = lattice(1.0, 101)
    swept, sweep = [], taylor.blocked_sweep

    def seen(terms, *args, weigh):
        powers = weigh(np.ones((1, 1)), np.zeros(1), np.zeros(1))
        swept.append(([(i, j) for _, i, j in terms], len(powers)))
        return sweep(terms, *args, weigh=weigh)

    monkeypatch.setattr(taylor, "blocked_sweep", seen)
    want = apply_rth_on_grid(derivs, StancuParams(), 80, 80, 1, xs, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (20, 169):
            got = apply_rth_on_grid(derivs, StancuParams(), 80, 80, r, xs, ys)
            assert np.array_equal(got, want)
    assert swept == [([(0, 0), (1, 0), (0, 1)], 2)] * 3
