"""Property tests: every family member is stored in normal form."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqmcheck import hilbert as hl

# few distinct parameter values, so drawn term lists repeat keys often
coefs = st.one_of(st.just(0j), st.sampled_from([1.0, -1.0, 0.5j]),
                  st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                     allow_infinity=False))
terms = st.builds(
    hl.Term, coefs, st.integers(0, 2), st.sampled_from([0.7, 1.3]),
    st.sampled_from([0.0, 0.25]), st.tuples(*[st.integers(0, 2)] * 3),
    st.sampled_from([0.4, 0.9]),
    st.sampled_from([(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)]))


@st.composite
def raw_comps(draw, two_s):
    comps = []
    for _ in range(two_s + 1):
        ts = draw(st.lists(terms, max_size=5))
        # exact cancellations: append negated copies of a drawn prefix
        cut = draw(st.integers(0, len(ts)))
        comps.append(tuple(ts) + tuple(hl.Term(-t.coef, *t.key())
                                       for t in ts[:cut]))
    return tuple(comps)


@st.composite
def functions(draw, two_s=None):
    if two_s is None:
        two_s = draw(st.integers(0, 2))
    return hl.TestFunction(two_s, draw(raw_comps(two_s)))


POINTS = np.array([[0.1, 0.2, -0.3, 0.5], [0.6, -0.4, 0.1, 0.0],
                   [1.3, 0.8, 0.7, -0.9], [2.0, 0.0, 0.0, 0.0]])
FEW = settings(max_examples=25, deadline=None)


def assert_normal_form(f):
    for ts in f.comps:
        keys = [t.key() for t in ts]
        assert len(set(keys)) == len(keys)
        assert all(t.coef != 0 for t in ts)
    assert hl.TestFunction(f.two_s, f.comps) == f


@FEW
@given(st.integers(0, 2).flatmap(raw_comps))
def test_construction_merges_repeated_keys_and_drops_zeros(comps):
    f = hl.TestFunction(len(comps) - 1, comps)
    assert_normal_form(f)
    parts = [hl.TestFunction(f.two_s, tuple((t,) if j == i else ()
                                            for j in range(f.dim)))
             .evaluate(POINTS) for i, ts in enumerate(comps) for t in ts]
    total = f.evaluate(POINTS)
    expected = sum(parts, np.zeros_like(total))
    bound = 1e-13 * sum((np.abs(p) for p in parts), np.zeros(total.shape))
    assert np.all(np.abs(total - expected) <= bound)


OPERATIONS = {
    "d_tau": lambda f, g, mat: f.d_tau(),
    "d_x": lambda f, g, mat: f.d_x(1),
    "mul_tau": lambda f, g, mat: f.mul_tau(),
    "mul_x": lambda f, g, mat: f.mul_x(2),
    "shift_time": lambda f, g, mat: f.shift_time(0.25),
    "scale": lambda f, g, mat: f.scale(-0.5 + 2.0j),
    "spin_mix": lambda f, g, mat: f.spin_mix(mat),
    "add": lambda f, g, mat: f + g,
    "sub": lambda f, g, mat: f - g,
}


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@FEW
@given(data=st.data())
def test_operations_return_normal_form(op, data):
    two_s = data.draw(st.integers(0, 2))
    f, g = data.draw(functions(two_s)), data.draw(functions(two_s))
    mat = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5j]),
                                      min_size=(two_s + 1) ** 2,
                                      max_size=(two_s + 1) ** 2)),
                   dtype=complex).reshape(two_s + 1, two_s + 1)
    assert_normal_form(OPERATIONS[op](f, g, mat))


@FEW
@given(functions())
def test_dict_roundtrip(f):
    assert hl.TestFunction.from_dict(json.loads(json.dumps(f.as_dict()))) == f
