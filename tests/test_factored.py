"""The factored route: an f declared as a sum of products g(x) h(y) is applied
one axis at a time, and its factors are checked against f."""

import dataclasses

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    Function2D,
    Point2D,
    StancuParams,
    apply,
    apply_on_grid,
    corpus_lookup,
    corpus_names,
)
from poslinops.operators import lattice

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
unit_x = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def table_route(f):
    """f with its factors stripped: the operator evaluates its node table."""
    return dataclasses.replace(f, factors=())


@st.composite
def factored_cases(draw):
    """A corpus entry, parameters (alpha = beta drawn too), degrees up to 600
    with n*A <= 3000, and the lattice of [0, 1] x [0, A] or G points drawn in
    any order, the edges x in {0, 1} and y = 0 drawn too."""
    name = draw(st.sampled_from(corpus_names()))
    m, n = draw(st.integers(1, 600)), draw(st.integers(1, 600))
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    A = draw(st.floats(1e-3, 3000.0 / n))
    G = draw(st.sampled_from([1, 2, 33, 201]))
    if G >= 2 and draw(st.booleans()):
        xs, ys = lattice(A, G)
    else:
        xs = np.array(draw(st.lists(unit_x, min_size=G, max_size=G)))
        ys = A * np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                        min_size=G, max_size=G)))
    return name, StancuParams(a1, b1, a2, b2), m, n, xs, ys


# e^-y is subnormal here, so smooth's g h and f differ in absolute, not
# relative, terms; the second point is one where a purely relative check fails
SUBNORMAL = [(0.00766, 731.45), (0.5118216247002567, 712.0840846754289)]


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(case=factored_cases())
@example(case=("smooth", StancuParams(), 64, 10, *map(np.array, zip(*SUBNORMAL))))
@example(case=("smooth", StancuParams(1, 2, 0.5, 1), 64, 10,
               np.array([SUBNORMAL[0][0]]), np.array([SUBNORMAL[0][1]])))
@example(case=("linear", StancuParams(1, 1, 2, 2), 600, 600, *lattice(5.0, 201)))
def test_factored_route_agrees_with_the_table_route(case):
    """Within 64 eps (sum |W| |F| + tiny) per point: each route rounds its
    products and sums, and the factored route's g h differs from f by a few
    ulps of |f|, or by a few subnormal ulps where e^-y underflows."""
    name, params, m, n, xs, ys = case
    f = corpus_lookup(name).function
    got = apply_on_grid(f, params, m, n, xs, ys)
    want = apply_on_grid(table_route(f), params, m, n, xs, ys)
    size = apply_on_grid(Function2D(lambda x, y: np.abs(f.eval(x, y))),
                         params, m, n, xs, ys)  # sum |W| |F|: the weights are >= 0
    assert got.shape == want.shape == (len(xs), len(ys))
    assert np.all(np.abs(got - want) <= 64 * EPS * (size + TINY))
    if len(xs) == 1:
        p = Point2D(float(xs[0]), float(ys[0]))
        assert apply(f, params, m, n, p) == float(got[0, 0])


def test_subnormal_products_need_the_tiny_floor():
    """At the second point g h - f exceeds 8 eps |g| |h|, so a purely
    relative check would reject smooth's correct factors there."""
    (g, h), = corpus_lookup("smooth").function.factors
    x, y = SUBNORMAL[1]
    f = corpus_lookup("smooth").function
    assert abs(g(x) * h(y) - f.eval(x, y)) > 8 * EPS * abs(g(x) * h(y))
    for x, y in SUBNORMAL:
        apply(f, StancuParams(), 64, 10, Point2D(x, y))


def misdeclared(f):
    """f with its first g scaled by 1 + 1e-9."""
    (g, h), *rest = f.factors
    return dataclasses.replace(
        f, factors=((lambda x: (1.0 + 1e-9) * np.asarray(g(x), float), h), *rest))


@pytest.mark.parametrize("name", corpus_names())
def test_a_misdeclared_factor_raises_naming_f(name):
    f = misdeclared(corpus_lookup(name).function)
    with pytest.raises(RuntimeError, match=f"factors of {name} do not give it"):
        apply_on_grid(f, StancuParams(), 20, 20, *lattice(1.0, 5))
    with pytest.raises(RuntimeError, match=f"factors of {name} do not give it"):
        apply(f, StancuParams(), 20, 20, Point2D(1.0, 1.0))


@pytest.mark.parametrize("factor", [lambda t: np.ones(len(t) + 1),
                                    lambda t: float(t)])
def test_a_failing_factor_raises_naming_f(factor):
    f = Function2D(eval=np.multiply, name="broken", factors=((factor, lambda t: t),))
    with pytest.raises(RuntimeError, match="factors of broken"):
        apply_on_grid(f, StancuParams(), 8, 8, *lattice(1.0, 3))


def test_dropping_a_factor_pair_raises():
    f = corpus_lookup("linear").function
    f = dataclasses.replace(f, factors=f.factors[:1])
    with pytest.raises(RuntimeError, match="factors of linear do not give it at 6 of 9"):
        apply_on_grid(f, StancuParams(), 8, 8, *lattice(2.0, 3))
