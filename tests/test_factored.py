"""The factored route: an f declared as a sum of products g(x) h(y) is applied
one axis at a time, and a malformed declaration raises when f is built."""

import dataclasses

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    Point2D,
    StancuParams,
    apply,
    apply_on_grid,
    corpus_lookup,
    corpus_names,
)
from poslinops.operators import lattice, sample_lattice

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


# e^-y is subnormal here, so smooth's g h is exact only to a subnormal ulp
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


def misdeclared(f):
    """f with its first g scaled by 1 + 1e-9."""
    (g, h), *rest = f.factors
    return dataclasses.replace(
        f, factors=((lambda x: (1.0 + 1e-9) * np.asarray(g(x), float), h), *rest))


@pytest.mark.parametrize("name", corpus_names())
def test_a_misdeclared_factor_raises_naming_f(name):
    """Other factors beside f's eval, the sum of its old ones, do not define f."""
    with pytest.raises(DomainError, match=f"{name} takes an eval or factors, not both"):
        misdeclared(corpus_lookup(name).function)


@pytest.mark.parametrize("factor", [lambda t: np.ones(len(t) + 1),
                                    lambda t: float(t)])
def test_a_failing_factor_raises_naming_f(factor):
    f = Function2D(name="broken", factors=((factor, lambda t: t),))
    with pytest.raises(RuntimeError, match="factors of broken"):
        apply_on_grid(f, StancuParams(), 8, 8, *lattice(1.0, 3))


def test_dropping_a_factor_pair_raises():
    f = corpus_lookup("linear").function
    with pytest.raises(DomainError, match="linear takes an eval or factors, not both"):
        dataclasses.replace(f, factors=f.factors[:1])


def is_pair(entry):
    return isinstance(entry, tuple) and len(entry) == 2 and all(map(callable, entry))


entries = st.sampled_from([np.exp, np.cos, 2.0, None, "g"])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(entry=st.one_of(entries, st.lists(entries, max_size=4),
                       st.lists(entries, max_size=4).map(tuple)).filter(
                           lambda e: not is_pair(e)))
@example(entry=(np.exp, np.cos, np.sin))  # its third factor would be dropped
@example(entry=(np.exp, 2.0))  # it would fail only when applied
@example(entry=[np.exp, np.cos])
def test_a_malformed_factor_pair_raises_when_f_is_built(entry):
    """Every entry of factors must be a tuple of exactly two callables."""
    with pytest.raises(DomainError, match="bad's factors must be callable pairs"):
        Function2D(name="bad", factors=((np.exp, np.cos), entry))
    with pytest.raises(DomainError, match="bad's factors must be callable pairs"):
        Function2D(np.multiply, name="bad", factors=(entry,))


def test_factors_keep_their_identity():
    """A tuple of pairs is stored as given, so the sum filled in as eval is
    the sum of these very factors; a list becomes a tuple."""
    factors = ((np.exp, np.cos),)
    f = Function2D(factors=factors)
    assert f.factors is factors and f.eval.factors is factors
    assert Function2D(factors=list(factors)).factors == factors
    assert dataclasses.replace(f, name="g").factors is factors


@pytest.mark.filterwarnings("error")  # no ComplexWarning either
@pytest.mark.parametrize("route", ["table", "factored", "sample_lattice"])
def test_a_complex_value_raises_naming_f(route):
    """e^(ix) y, whose real part alone would give 0.4727 at (0.3, 0.5)."""
    g, h = (lambda t: np.exp(1j * t)), (lambda t: t)
    f = (Function2D(lambda x, y: g(x) * h(y), name="cplx") if route == "table"
         else Function2D(factors=((g, h),), name="cplx"))
    with pytest.raises(RuntimeError, match="evaluation of (the factors of )?cplx") as err:
        if route == "sample_lattice":
            sample_lattice(f, CompactRegion(1.0), 5)
        else:
            apply(f, StancuParams(), 10, 10, Point2D(0.3, 0.5))
    assert isinstance(err.value.__cause__, TypeError)
    assert "complex" in str(err.value.__cause__)
