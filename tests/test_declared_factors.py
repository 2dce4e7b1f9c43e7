"""A function declared by its factors alone: its eval is the sum of their
products, the operator never calls it, and the corpus's partial derivatives
follow from the factors' derivatives."""

import dataclasses
import functools
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    DomainError,
    Function2D,
    Point2D,
    StancuParams,
    apply,
    apply_on_grid,
    corpus_lookup,
    corpus_names,
)
from poslinops.taylor import PartialDerivativeSet, apply_rth

from corpus_partials import PARTIALS, POLYNOMIALS

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def test_factors_alone_give_eval():
    f = Function2D(factors=((np.exp, np.cos), (np.square, lambda y: 2.0)), name="sum")
    x, y = np.linspace(0.0, 1.0, 7)[:, None], np.linspace(0.0, 3.0, 5)[None, :]
    assert np.array_equal(f.eval(x, y), np.exp(x) * np.cos(y) + np.square(x) * 2.0)
    assert f(0.3, 0.2) == np.exp(0.3) * np.cos(0.2) + np.square(0.3) * 2.0


def test_neither_eval_nor_factors_raises():
    with pytest.raises(DomainError, match="g needs an eval or factors"):
        Function2D(name="g")


def traced(f):
    """f with its eval behind a ``functools.wraps`` wrapper that counts its
    calls, as a tracer wraps it, and the list of calls."""
    calls = []

    @functools.wraps(f.eval)
    def ev(x, y):
        calls.append((x, y))
        return f.eval(x, y)

    return dataclasses.replace(f, eval=ev), calls


@st.composite
def operator_cases(draw):
    """A corpus name, parameters (alpha = beta drawn too), degrees up to 400
    and up to 5 points of [0, 1] x [0, 20], the edges x in {0, 1} and y = 0
    drawn too."""
    b1, b2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    a1 = draw(st.one_of(st.just(b1), st.floats(0.0, b1)))
    a2 = draw(st.one_of(st.just(b2), st.floats(0.0, b2)))
    size = draw(st.integers(1, 5))
    coords = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                      min_size=size, max_size=size)
    xs, ys = np.array(draw(coords)), 20.0 * np.array(draw(coords))
    return (draw(st.sampled_from(corpus_names())), StancuParams(a1, b1, a2, b2),
            draw(st.integers(1, 400)), draw(st.integers(1, 400)), xs, ys)


@SETTINGS
@given(case=operator_cases())
@example(case=("holder_half", StancuParams(), 1, 1, np.array([0.0]), np.array([0.0])))
@example(case=("smooth", StancuParams(1, 1, 2, 2), 400, 400,
               np.array([0.0, 1.0]), np.array([0.0, 20.0])))
def test_the_operator_never_calls_a_factor_only_eval(case):
    """The operator never calls the eval of a corpus function, untraced or
    behind a counting wrapper."""
    name, params, m, n, xs, ys = case
    f = corpus_lookup(name).function
    ev, calls = type(f.eval), []
    call = ev.__call__
    with mock.patch.object(ev, "__call__", lambda *args: calls.append(1) or call(*args)):
        got = apply_on_grid(f, params, m, n, xs, ys)
        value = apply(f, params, m, n, Point2D(xs[0], ys[0]))
        assert calls == []
        f.eval(0.5, 0.5)  # the counter counts
        assert calls == [1]
    wrapped, calls = traced(f)
    assert np.array_equal(apply_on_grid(wrapped, params, m, n, xs, ys), got)
    assert apply(wrapped, params, m, n, Point2D(xs[0], ys[0])) == value
    assert calls == []


def test_an_eval_beside_its_factors_is_checked():
    """An eval beside factors raises when f is built: f has one definition.
    Only a ``functools.wraps`` wrapper of the sum of these factors passes."""
    with pytest.raises(DomainError, match="off takes an eval or factors, not both"):
        Function2D(eval=lambda x, y: np.exp(x) * np.sin(y), name="off",
                   factors=((np.exp, np.sin),))
    quad = corpus_lookup("quad").function
    with pytest.raises(DomainError, match="quad takes an eval or factors, not both"):
        dataclasses.replace(quad, eval=np.multiply)
    with pytest.raises(DomainError, match="quad takes an eval or factors, not both"):
        dataclasses.replace(quad, factors=quad.factors[:1])
    with pytest.raises(DomainError, match="quad takes an eval or factors, not both"):
        dataclasses.replace(quad, eval=corpus_lookup("rho_growth").function.eval)
    wrapped, calls = traced(quad)
    assert wrapped.factors is quad.factors and wrapped(0.5, 2.0) == quad(0.5, 2.0)
    assert len(calls) == 1
    assert dataclasses.replace(traced(wrapped)[0], name="q").factors is quad.factors


def root(x, y):
    return np.sqrt(x - 0.5) + 0 * y


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_value_that_is_not_finite_raises_naming_L_of_f():
    """f is NaN at x < 1/2: the value at x = 0.9 averages NaN nodes."""
    f = Function2D(root, name="root")
    with pytest.raises(RuntimeError, match=r"L\(root\) is not finite at \(0.9, 1.0\)"):
        apply(f, StancuParams(), 20, 20, Point2D(0.9, 1.0))
    derivs = PartialDerivativeSet(lambda i, j, x, y: root(x, y) if i == j == 0 else 0.0,
                                  source="root")
    with pytest.raises(RuntimeError, match=r"L_1\(root\) is not finite at \(0.9, 1.0\)"):
        apply_rth(derivs, StancuParams(), 20, 20, 1, Point2D(0.9, 1.0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_factors_that_are_nan_give_L_of_f_not_finite():
    """At x < 1/2 the factor sqrt(x - 1/2) is NaN: the value at (0.2, 1.0)
    averages NaN columns, and the error is the value's."""
    f = Function2D(name="root", factors=((lambda x: np.sqrt(x - 0.5), lambda y: 1.0),))
    with pytest.raises(RuntimeError, match=r"L\(root\) is not finite"):
        apply(f, StancuParams(), 20, 20, Point2D(0.2, 1.0))


points = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                  min_size=1, max_size=6)


@SETTINGS
@given(name=st.sampled_from(sorted(PARTIALS)), x=points, y=points,
       y_max=st.floats(1e-3, 60.0))
@example(name="smooth", x=[0.0, 1.0], y=[0.0, 1.0], y_max=60.0)
@example(name="quad", x=[0.0], y=[0.0], y_max=1.0)
@example(name="smooth", x=[0.0, 0.51], y=[0.9558, 1.0], y_max=745.0)  # e^-y underflows
def test_the_derived_partials_match_the_written_ones(name, x, y, y_max):
    """Up to i + j = 4, on a tensor grid: the (0, 0) partial is f's eval bit
    for bit, and each partial is the hand-written one, bit for bit for the
    polynomials and within 4 eps of |e^x (e^-y cos y)^(j)| <= e^x 2^(j/2) e^-y
    (plus tiny, for subnormals) for smooth."""
    x, y = np.array(x)[:, None], y_max * np.array(y)[None, :]
    derived, written = corpus_lookup(name).derivative_provider, PARTIALS[name]
    f00 = np.asarray(derived.eval(0, 0, x, y))
    want = np.asarray(corpus_lookup(name).function.eval(x, y))
    assert f00.shape == want.shape and f00.tobytes() == want.tobytes()
    for h in range(5):
        for i, j in ((h - j, j) for j in range(h + 1)):
            got = np.asarray(derived.eval(i, j, x, y), float)
            ref = np.asarray(written(i, j, x, y), float)
            if name in POLYNOMIALS:
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            else:
                size = np.exp(x) * 2.0 ** (j / 2) * np.exp(-y)
                assert np.all(np.abs(got - ref) <= 4 * EPS * size + TINY)
