"""The axis builder against the one-band builders, block by block.

``axis_bands`` does an axis's own work once, before its blocks: the points'
check, each block's extreme point and, on a Szasz axis, every row's window
edges, right edge, cap and Chernoff bound.  Each block it builds must be the
one-band builder's band of that block's points, bit for bit, and an axis that
raises must raise as the one band would (a cut Poisson axis) or as its first
failing block's builder, with the same type, message and tail.
"""

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from poslinops import DomainError, TruncationError, TruncationPolicy
from poslinops.basis import axis_bands, band_blocks, bernstein_band_matrix, szasz_band_matrix

# a numpy warning ahead of an error is a failure here, not a line in the summary
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def axes(draw):
    """A Bernstein or Szasz axis of at most 8 points (x in [0, 1], y in
    [0, 2]): a lattice, or sorted or unsorted random points, with the edges
    x in {0, 1} and y = 0; now and then a bad point."""
    poisson = draw(st.booleans())
    degree = draw(st.one_of(st.sampled_from([1, 10, 1280, 5000, 10**5]),
                            st.integers(1, 10**5)))
    G = draw(st.integers(1, 8))
    side = draw(st.sampled_from([1.0, 2.0])) if poisson else 1.0
    kind = draw(st.sampled_from(["lattice", "sorted", "random"]))
    if kind == "lattice" and G >= 2:
        points = np.linspace(0.0, side, G)
    else:
        points = side * np.array(draw(st.lists(unit, min_size=G, max_size=G)))
        if kind == "sorted":
            points.sort()
    if draw(st.integers(0, 9)) == 0:
        points[draw(st.integers(0, G - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -0.25, 1.5, 1e308]))
    policy = TruncationPolicy(draw(st.sampled_from([1e-12, 1e-3, 0.9, 1e-300])),
                              draw(st.sampled_from([50, 2000, 10**6])))
    return degree, points, policy, poisson


def one_band_per_block(degree, points, policy, poisson):
    """Each of ``band_blocks``' slices built by the one-band builder on its
    points, after the one band's check on a cut Poisson axis."""
    blocks = band_blocks(degree, points)
    if not poisson:
        return [(rows, *bernstein_band_matrix(degree, points[rows], policy))
                for rows in blocks]
    if len(blocks) > 1:
        szasz_band_matrix(degree, points, policy)  # raises as the one band would
    return [(rows, *szasz_band_matrix(degree, points[rows], policy)) for rows in blocks]


def outcome(build, *args):
    try:
        return build(*args)
    except (DomainError, TruncationError) as exc:
        return exc


@SETTINGS
@given(case=axes())
# one-point blocks of a cut Poisson axis: at y = 0.813... a matrix of one row
# would differ from the row built from scalars in the last bit
@example(case=(5000, np.array([0.0, 0.8132702392002724]), TruncationPolicy(1e-3), True))
@example(case=(10**5, np.array([0.0, 1.0]), TruncationPolicy(1e-12, 50), True))
# a cut axis whose one-band cap binds and still passes: each of its 8 blocks
# caps its rows again from its own first column
@example(case=(10**4, np.linspace(0.0, 1.0, 41), TruncationPolicy(1e-3, 10374), True))
@example(case=(10**5, np.array([0.0, 0.5, np.nan, 1.0]), TruncationPolicy(), False))
# y = 1e306 overflows the window's 2 L ny (TruncationError), y = 1e308 n*y
# itself (DomainError): each raises without a numpy warning first
@example(case=(10, np.array([0.0, 0.5, 1e306]), TruncationPolicy(), True))
@example(case=(10, np.array([0.0, 0.5, 1e308]), TruncationPolicy(), True))
def test_every_block_is_the_one_band_builders_band(case):
    degree, points, policy, poisson = case
    got = outcome(axis_bands, degree, points, policy, poisson)
    want = outcome(one_band_per_block, degree, points, policy, poisson)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "tail", None) == getattr(want, "tail", None)
        return
    assert [rows for rows, *_ in got] == [rows for rows, *_ in want]
    for (_, W, *tail, lo), (_, band, *band_tail, start) in zip(got, want):
        # trimmed to its nonzero columns: a Szasz band keeps its leading ones
        assert W[:, -1].any() and (poisson or W[:, 0].any())
        assert lo == start and W.shape == band.shape
        assert W.tobytes() == band.tobytes()
        assert [t.tobytes() for t in tail] == [t.tobytes() for t in band_tail]
