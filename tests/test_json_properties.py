"""Properties of the four JSON formats: operators, states, POVMs and counts.

Every value written by a `*_to_dict` function reads back exactly, through
JSON text, and every corrupted dict is refused with a ValueError, never with
another exception.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import uewkit as uk
from uewkit.qcore import operator_from_dict, operator_to_dict, state_from_dict, state_to_dict
from uewkit.sampler import counts_from_dict, counts_to_dict

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

DIMS = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2)])
# wrong-typed values that no field accepts
WRONG = st.sampled_from([None, "a", 1.5, [], [1, "a"], {"a": 1}])


def through_json(d):
    return json.loads(json.dumps(d))


def complex_arrays(n_or_shape, bound):
    values = st.floats(-bound, bound, allow_nan=False)
    return st.tuples(arrays(np.float64, n_or_shape, elements=values), arrays(np.float64, n_or_shape, elements=values))


@st.composite
def hermitian_operators(draw):
    dims = draw(DIMS)
    n = math.prod(dims)
    re, im = draw(complex_arrays((n, n), 1e300))
    a = re + 1j * im
    return uk.HermitianOperator(dims, a / 2 + a.conj().T / 2)


@st.composite
def pure_states(draw, dims=None):
    dims = dims or draw(DIMS)
    re, im = draw(complex_arrays(math.prod(dims), 1e3))
    vec = re + 1j * im
    nrm = np.linalg.norm(vec)
    if nrm < 1e-3:
        vec, nrm = np.eye(math.prod(dims))[0], 1.0
    return uk.PureState(dims, vec / nrm)


@st.composite
def product_states(draw):
    dims = draw(st.lists(st.sampled_from([(2,), (3,), (2, 2)]), min_size=1, max_size=3))
    return uk.ProductState(tuple(draw(pure_states(d)) for d in dims))


@st.composite
def explicit_povms(draw):
    """Effects U diag(w_j) U† with weights w_j summing to one per eigenvector."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    w = rng.dirichlet(np.ones(draw(st.integers(2, 3))), size=d)
    mats = [(u * w[:, j]) @ u.conj().T for j in range(w.shape[1] - 1)]
    mats = [m / 2 + m.conj().T / 2 for m in mats]
    mats.append(np.eye(d) - sum(mats))
    return uk.Povm(tuple(uk.Effect(uk.HermitianOperator((d,), m)) for m in mats))


def three_outcome_povms():
    x = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    theta = st.floats(-20.0, 20.0)
    return st.builds(lambda x, t: uk.build_three_outcome(uk.ThreeOutcomeParams(x, t)), x, theta)


POVM_LISTS = st.lists(st.one_of(three_outcome_povms(), explicit_povms()), min_size=1, max_size=3)


@st.composite
def counts_tables(draw):
    outcomes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    keys = st.tuples(*(st.integers(1, k) for k in outcomes))
    cells = draw(st.dictionaries(keys, st.integers(0, 10**9), min_size=1))
    cells[next(iter(cells))] += 1  # at least one shot
    return uk.CountsTable(outcomes, cells)


@st.composite
def simulated_counts_tables(draw):
    povms = draw(st.lists(three_outcome_povms(), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = uk.sampler.random_density_matrix((2,) * len(povms), rng)
    shots = draw(st.integers(1, 10**6))
    return uk.simulate_counts(rho, povms, shots=shots, seed=draw(st.integers(0, 2**32 - 1)))


def assert_same_povms(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert getattr(g, "params", None) == getattr(w, "params", None)
        assert g.dims == w.dims and g.n_outcomes == w.n_outcomes
        for eg, ew in zip(g.effects, w.effects):
            np.testing.assert_array_equal(eg.op.mat, ew.op.mat)


# -- exact round trips ---------------------------------------------------------


@given(hermitian_operators())
@PROPERTY
def test_operator_round_trip(op):
    back = operator_from_dict(through_json(operator_to_dict(op)))
    assert back.dims == op.dims
    np.testing.assert_array_equal(back.mat, op.mat)


@given(st.one_of(pure_states(), product_states()))
@PROPERTY
def test_state_round_trip(state):
    back = state_from_dict(through_json(state_to_dict(state)))
    assert back.dims == state.dims
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)


@given(POVM_LISTS)
@PROPERTY
def test_povm_round_trip(povms):
    assert_same_povms(uk.povm_from_dict(through_json(uk.povm_to_dict(povms))), povms)


def test_povm_round_trip_tiny_negative_theta():
    # -1e-300 mod 2 pi rounds to 2 pi, which must be stored as 0
    povms = [uk.build_three_outcome(uk.ThreeOutcomeParams(0.5, -1e-300))]
    assert povms[0].params.theta == 0.0
    assert_same_povms(uk.povm_from_dict(through_json(uk.povm_to_dict(povms))), povms)


@given(st.one_of(counts_tables(), simulated_counts_tables()))
@PROPERTY
def test_counts_round_trip(table):
    assert counts_from_dict(through_json(counts_to_dict(table))) == table


# -- corrupted dicts raise ValueError ------------------------------------------


def set_field(d, path, value):
    *parents, last = path
    for key in parents:
        d = d[key]
    d[last] = value


def drop_field(d, path):
    *parents, last = path
    for key in parents:
        d = d[key]
    del d[last]


@st.composite
def corrupted(draw, d, fields):
    """A deep copy of d with one required field dropped or given a wrong type,
    or the whole dict replaced by a wrong type."""
    d = copy.deepcopy(d)
    kind = draw(st.sampled_from(["drop", "wrong type", "not a dict"]))
    if kind == "not a dict":
        return draw(WRONG.filter(lambda v: not isinstance(v, dict)))
    path = draw(st.sampled_from(fields))
    if kind == "drop":
        drop_field(d, path)
    else:
        set_field(d, path, draw(WRONG))
    return d


def operator_fields(prefix=()):
    return [prefix + ("dims",), prefix + ("entries",)]


@given(st.data(), st.one_of(hermitian_operators(), pure_states()))
@PROPERTY
def test_corrupted_operator_or_state(data, value):
    load, dump = (
        (operator_from_dict, operator_to_dict)
        if isinstance(value, uk.HermitianOperator)
        else (state_from_dict, state_to_dict)
    )
    d = dump(value)
    if data.draw(st.booleans()):
        bad = data.draw(corrupted(d, operator_fields()))
    else:  # ragged entries: one entry loses or gains a component
        bad = copy.deepcopy(d)
        i = data.draw(st.integers(0, len(bad["entries"]) - 1))
        bad["entries"][i] = data.draw(st.sampled_from([bad["entries"][i][:1], bad["entries"][i] + [0.0], 1.0]))
    with pytest.raises(ValueError):
        load(bad)


@given(st.data(), POVM_LISTS)
@PROPERTY
def test_corrupted_povm(data, povms):
    d = uk.povm_to_dict(povms)
    fields = [("parties",)]
    for i, party in enumerate(d["parties"]):
        if "x" in party:
            fields.append(("parties", i, "x"))
        else:
            fields.append(("parties", i, "effects"))
            fields += operator_fields(("parties", i, "effects", 0))
    if data.draw(st.booleans()):
        bad = data.draw(corrupted(d, fields))
    else:  # a party that is not a dict
        bad = copy.deepcopy(d)
        i = data.draw(st.integers(0, len(bad["parties"]) - 1))
        bad["parties"][i] = data.draw(st.sampled_from([3, "x", [1], None]))
    with pytest.raises(ValueError):
        uk.povm_from_dict(bad)


@given(st.data(), counts_tables())
@PROPERTY
def test_corrupted_counts(data, table):
    d = counts_to_dict(table)
    kind = data.draw(st.sampled_from(["field", "count", "key"]))
    if kind == "field":
        bad = data.draw(corrupted(d, [("shots",), ("parties",), ("outcomes_per_party",), ("counts",)]))
    else:
        bad = copy.deepcopy(d)
        key = data.draw(st.sampled_from(sorted(bad["counts"])))
        if kind == "count":
            bad["counts"][key] = data.draw(st.sampled_from([1.5, "3", None, True, [1]]))
        else:
            bad["counts"][data.draw(st.sampled_from(["a,1", "1.5,1", "", "1;1"]))] = bad["counts"].pop(key)
    with pytest.raises(ValueError):
        counts_from_dict(bad)
