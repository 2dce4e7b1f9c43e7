"""Every grid checker samples R_A through one lattice and one checked f-sample."""

import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import (
    CompactRegion,
    DomainError,
    Function2D,
    Point2D,
    StancuParams,
    check_theorem_3_3,
    check_theorem_5_2,
    check_theorem_5_3,
    corpus_lookup,
    lattice_moduli,
    operator_rho_norm_bound,
    sample_lattice,
    sup_distance_power_operator,
    theorem_4_1_bound,
)
from poslinops.cli import _run, resolve_config
from poslinops.operators import blocked_bands, lattice

from paper_formulas import korovkin_gaps

P = StancuParams()
R1 = CompactRegion(1.0)
STRIP = CompactRegion(5.0)
LINEAR_DERIVS = corpus_lookup("linear").derivative_provider

# Each checker as a call of (f, grid_points); f is ignored by those that
# take no function.
CHECKERS = {
    "check_theorem_3_3": lambda f, G: check_theorem_3_3(
        f, P, 10, 10, R1, G, moduli_source="grid"),
    "theorem_4_1_bound": lambda f, G: theorem_4_1_bound(
        LINEAR_DERIVS, f, P, 10, 10, 1, 1.0, 1.0, R1, G),
    "check_theorem_5_2": lambda f, G: check_theorem_5_2(
        f, P, [(10, 10)], 0.5, STRIP, G),
    "check_theorem_5_3": lambda f, G: check_theorem_5_3(f, P, 10, 10, 2.0, STRIP, G),
    "weighted_modulus": lambda f, G: lattice_moduli(
        *sample_lattice(f, STRIP, G), weighted=0.1),
    "full_modulus": lambda f, G: lattice_moduli(*sample_lattice(f, R1, G), full=0.1),
    "partial_moduli": lambda f, G: lattice_moduli(
        *sample_lattice(f, R1, G), partial_x=0.1, partial_y=0.1),
}
LATTICE_ONLY = {
    "sup_distance_power_operator": lambda f, G: sup_distance_power_operator(
        blocked_bands(P, 10, 10, *lattice(R1.A, G)), 2.0),
    "korovkin_gaps": lambda f, G: korovkin_gaps(P, 10, 10, R1, G),
    "operator_rho_norm_bound": lambda f, G: operator_rho_norm_bound(
        P, 10, 10, STRIP, G),
    "lattice_moduli": lambda f, G: lattice_moduli(
        *lattice(R1.A, G), np.zeros((G, G)), full=0.1),
}


def with_name(name, expr):
    return Function2D(eval=expr, name=name, m_f=1.0)


QUAD = with_name("quad", lambda x, y: np.asarray(x, float) ** 2
                 + np.asarray(y, float) ** 2)
NAN_CORNER = with_name("nan_corner", lambda x, y: np.where(
    (np.asarray(x) > 0.5) & (np.asarray(y) > 0.5), np.nan, 1.0))


@pytest.mark.parametrize("grid_points", [0, 1])
@pytest.mark.parametrize("checker", sorted({**CHECKERS, **LATTICE_ONLY}))
def test_grid_checker_needs_two_lattice_points(checker, grid_points):
    call = {**CHECKERS, **LATTICE_ONLY}[checker]
    with pytest.raises(DomainError, match="grid_points must be >= 2"):
        call(QUAD, grid_points)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(grid_points=st.one_of(st.floats(allow_nan=True), st.booleans(),
                             st.integers(max_value=1), st.fractions(),
                             st.integers(2, 60).map(float)))
@example(grid_points=2.5)
@example(grid_points=True)
def test_grid_points_must_be_an_integer_of_at_least_two(grid_points):
    """A non-integer count (2.5, 3.0, Fraction(3)) raised a bare TypeError
    from np.linspace; a bool is no count either."""
    with pytest.raises(DomainError, match="grid_points must be >= 2 and integral"):
        sample_lattice(QUAD, R1, grid_points)


@pytest.mark.parametrize("grid_points", [2, 7, np.int64(5)])
def test_an_integer_grid_points_gives_that_lattice(grid_points):
    """numpy's integers count too."""
    xs, ys, F = sample_lattice(QUAD, STRIP, grid_points)
    assert xs.shape == ys.shape == (grid_points,)
    assert F.shape == (grid_points, grid_points) and ys[-1] == STRIP.A


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_grid_checker_rejects_non_finite_sample(checker):
    with pytest.raises(RuntimeError, match="nan_corner is not finite"):
        CHECKERS[checker](NAN_CORNER, 21)


@pytest.mark.parametrize("checker", ["check_theorem_3_3"])
def test_non_finite_operator_values_raise_naming_f(checker):
    # finite on [0, 1]^2, infinite at the Szasz node y = 2 of n = 10
    def recip(x, y):
        with np.errstate(divide="ignore"):
            return 0.0 * np.asarray(x) + 1.0 / (2.0 - np.asarray(y, float))

    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match=r"L\(recip\) is not finite"):
        CHECKERS[checker](with_name("recip", recip), 21)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("message, make", [
    ("^A must be finite", CompactRegion),
    ("^S must be finite", lambda v: _run(resolve_config(["weighted", "--S", str(v)]))),
    ("^epsilon must be finite",
     lambda v: check_theorem_5_2(QUAD, P, [(10, 10)], v, STRIP, 11)),
    ("^delta must be finite",
     lambda v: lattice_moduli(*lattice(1.0, 11), np.zeros((11, 11)), full=v)),
    ("^delta must be finite",
     lambda v: lattice_moduli(*lattice(STRIP.A, 11), np.zeros((11, 11)), weighted=v)),
    ("^s must be finite", lambda v: check_theorem_5_3(QUAD, P, 10, 10, v, STRIP, 11)),
    ("^y must be finite", lambda v: Point2D(0.5, v)),
    ("alpha1 <= beta1 < inf", lambda v: StancuParams(v, v)),
])
def test_non_finite_parameter_rejected_by_name(message, make, value):
    with pytest.raises(DomainError, match=message):
        make(value)
