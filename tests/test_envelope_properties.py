"""Properties of the secant envelope read by `max_upper_on` and `detect`.

Curve rows come from the per-qubit oracle `semianalytic_pair_bound` on a
uniform grid over the product-state range [0, x^2], for x in {1/2, 2/3}
where g is concave, so every reading of the envelope must majorize g.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uewkit as uk
from uewkit.cli import main

# refine = 20001 keeps the oracle within 5e-10 of its default refinement at
# a fiftieth of the cost
REFINE = 20001
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
)


@lru_cache(maxsize=None)
def oracle(x, c):
    return uk.semianalytic_pair_bound(x, c, refine=REFINE)


@lru_cache(maxsize=None)
def oracle_curve(x, n):
    cs = np.linspace(0.0, x * x, n)
    return uk.SeparabilityCurve(tuple(uk.CurvePoint(float(c), oracle(x, float(c)), True, 1) for c in cs))


@st.composite
def points_in_range(draw, x):
    """A c in [0, x^2] with the ends of the range drawn often."""
    top = x * x
    return draw(st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top)))


@st.composite
def curve_and_box(draw):
    x = draw(st.sampled_from([0.5, 2.0 / 3.0]))
    n = draw(st.integers(3, 25))
    lo, hi = sorted([draw(points_in_range(x)), draw(points_in_range(x))])
    return x, oracle_curve(x, n), lo, hi


@given(curve_and_box())
@PROPERTY
def test_box_maximum_bounds_g(case):
    x, curve, lo, hi = case
    dense = max(oracle(x, float(c)) for c in np.linspace(lo, hi, 33))
    assert curve.max_upper_on(lo, hi) >= dense - 1e-9


@given(curve_and_box(), st.floats(0.0, 0.2), st.floats(0.0, 0.2))
@PROPERTY
def test_widening_the_box_never_lowers_it(case, grow_lo, grow_hi):
    _, curve, lo, hi = case
    # a box reaching past the range is clipped to it; 1e-12 allows rounding
    # in the crossing of two lines
    assert curve.max_upper_on(lo - grow_lo, hi + grow_hi) >= curve.max_upper_on(lo, hi) - 1e-12


@st.composite
def curve_and_point(draw):
    x = draw(st.sampled_from([0.5, 2.0 / 3.0]))
    return oracle_curve(x, draw(st.integers(3, 25))), draw(st.floats(0.0, x * x))


@given(
    curve_and_point(),
    st.floats(-0.05, 0.05),
    st.floats(0.0, 0.05),
    st.floats(0.0, 0.05),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
@PROPERTY
def test_more_uncertainty_never_certifies_more(case, offset, sigma_c, more_sigma_c, k, more_k):
    curve, c_hat = case
    # l_hat straddles the point value so both verdicts occur; a margin
    # within 1e-9 of 0 is decided by rounding and says nothing
    l_hat = curve.max_upper_on(c_hat, c_hat) + offset
    narrow = uk.detect(curve, c_hat, l_hat, sigma_c=sigma_c, sigma_l=0.0, k=k)
    assume(abs(narrow.margin) > 1e-9)
    wider_sigma = uk.detect(curve, c_hat, l_hat, sigma_c=sigma_c + more_sigma_c, sigma_l=0.0, k=k)
    wider_k = uk.detect(curve, c_hat, l_hat, sigma_c=sigma_c, sigma_l=0.0, k=k + more_k)
    if not narrow.entangled:
        assert not wider_sigma.entangled
        assert not wider_k.entangled


@pytest.fixture(scope="module")
def cli_curve_5(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve5") / "curve.csv"
    assert main(["curve", "--x", "2/3", "--grid", "5", "--out", str(out)]) == 0
    return uk.curve_from_csv(out)


@pytest.mark.parametrize("source", ["oracle", "cli"])
def test_five_point_curve_does_not_certify_the_product_state(source, cli_curve_5):
    # |chi+> x |chi+> reaches (c, l) = (1/36, 4/9) and is separable; its
    # c error bar reaches the end c = 0 of the range, where the envelope
    # of the first interval sits above the end row
    curve = oracle_curve(2.0 / 3.0, 5) if source == "oracle" else cli_curve_5
    assert curve.reliable
    verdict = uk.detect(curve, 1 / 36, 4 / 9, sigma_c=1 / 30, sigma_l=0.0, k=1)
    assert not verdict.entangled
    # the <= 0.1 branch contains the unconstrained optimum at c = 1/36
    assert curve.max_upper_on(-math.inf, 0.1) >= 4 / 9
