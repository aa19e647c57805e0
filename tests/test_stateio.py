import json
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabc import DensityState, StateFileError, random_mixed, state_to_bloch
from stabc.stateio import (
    KINDS,
    bloch_state_dict,
    density_state_dict,
    load_state,
    pure_state_dict,
    save_state,
    state_from_dict,
)


def write(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_pure_round_trip(tmp_path):
    vec = np.array([1.0, 1.0j]) / np.sqrt(2)
    path = write(tmp_path, pure_state_dict(vec))
    state = load_state(path)
    assert np.allclose(state.rho, np.outer(vec, vec.conj()), atol=1e-12)


@pytest.mark.parametrize("vector", [np.eye(2), np.ones((1, 2)), np.array(1.0)])
def test_pure_state_dict_refuses_anything_but_a_vector(vector):
    # As DensityState.pure does: a matrix is not flattened into a longer vector.
    with pytest.raises(ValueError, match=r"expected a state vector \(1-D\)"):
        pure_state_dict(vector)


def test_density_round_trip(tmp_path):
    original = random_mixed(3, 2, 4)
    path = write(tmp_path, density_state_dict(original))
    assert np.allclose(load_state(path).rho, original.rho, atol=1e-12)


def test_bloch_file(tmp_path):
    doc = {"dim": 2, "kind": "bloch", "bloch": [0.0, 0.0, 1.0]}
    state = load_state(write(tmp_path, doc))
    assert np.allclose(state.rho, np.diag([1.0, 0.0]))
    assert np.allclose(state_to_bloch(state).as_array(), [0, 0, 1])


def test_bloch_requires_dim2(tmp_path):
    doc = {"dim": 3, "kind": "bloch", "bloch": [0, 0, 1]}
    with pytest.raises(StateFileError, match="dim = 2"):
        load_state(write(tmp_path, doc))


def test_mixture_file(tmp_path):
    doc = {
        "dim": 2,
        "kind": "mixture",
        "mixture": [
            {"weight": 0.25, "amplitudes": [[1, 0], [0, 0]]},
            {"weight": 0.75, "amplitudes": [[0, 0], [1, 0]]},
        ],
    }
    state = load_state(write(tmp_path, doc))
    assert np.allclose(state.rho, np.diag([0.25, 0.75]))


def test_mixture_weight_validation():
    base = [{"weight": 0.6, "amplitudes": [[1, 0], [0, 0]]},
            {"weight": 0.6, "amplitudes": [[0, 0], [1, 0]]}]
    with pytest.raises(StateFileError, match="sum"):
        state_from_dict({"dim": 2, "kind": "mixture", "mixture": base})
    bad = [{"weight": -0.5, "amplitudes": [[1, 0], [0, 0]]},
           {"weight": 1.5, "amplitudes": [[0, 0], [1, 0]]}]
    with pytest.raises(StateFileError, match="nonnegative"):
        state_from_dict({"dim": 2, "kind": "mixture", "mixture": bad})


def test_pure_norm_bands():
    # within 1e-8: silently fine
    state_from_dict({"dim": 2, "kind": "pure", "amplitudes": [[1.0 + 5e-9, 0], [0, 0]]})
    # within 1e-4: renormalized with a warning
    with pytest.warns(UserWarning, match="renormalizing"):
        state = state_from_dict({"dim": 2, "kind": "pure", "amplitudes": [[1.0 + 5e-5, 0], [0, 0]]})
    assert abs(np.trace(state.rho) - 1.0) <= 1e-12
    # beyond 1e-4: rejected
    with pytest.raises(StateFileError, match="unit-norm"):
        state_from_dict({"dim": 2, "kind": "pure", "amplitudes": [[1.1, 0], [0, 0]]})


def test_density_must_be_valid():
    doc = {"dim": 2, "kind": "density",
           "matrix": [[1.0, 0], [0.5, 0], [0.0, 0], [0.5, 0]]}  # not Hermitian
    with pytest.raises(StateFileError):
        state_from_dict(doc)
    short = {"dim": 2, "kind": "density", "matrix": [[1.0, 0]]}
    with pytest.raises(StateFileError, match="entries"):
        state_from_dict(short)


def test_schema_errors():
    with pytest.raises(StateFileError, match="kind"):
        state_from_dict({"dim": 2})
    with pytest.raises(StateFileError, match="unknown kind"):
        state_from_dict({"dim": 2, "kind": "wavefunction"})
    with pytest.raises(StateFileError, match="pairs"):
        state_from_dict({"dim": 2, "kind": "pure", "amplitudes": [1.0, 0.0]})
    with pytest.raises(StateFileError, match="JSON object"):
        state_from_dict([1, 2, 3])


def test_unparseable_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError, match="parse"):
        load_state(path)


def test_save_state_round_trip(tmp_path):
    doc = bloch_state_dict(state_to_bloch(DensityState.maximally_mixed(2)))
    path = tmp_path / "mm.json"
    save_state(doc, path)
    assert np.allclose(load_state(path).rho, np.eye(2) / 2)


_FIELDS = ("amplitudes", "matrix", "bloch", "mixture")
# Any JSON value, NaN, the infinities and floats near the overflow range
# included, since json.loads accepts them.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "kind", "weight", *_FIELDS]) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=12,
)
_NUMBER = st.sampled_from([0, 1, -1, 0.5]) | st.floats()
_PAIRS = st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=4) | _JSON
_COMPONENT = st.fixed_dictionaries({"weight": _NUMBER, "amplitudes": _PAIRS}) | _JSON
# Near-valid documents, one per kind with its payload field, so that every
# payload parser is reached.
_DOC = st.one_of(*[
    st.fixed_dictionaries({"dim": st.just(2) | st.integers(1, 3), "kind": st.just(kind),
                           field: payload | _JSON})
    for kind, field, payload in [
        ("pure", "amplitudes", _PAIRS),
        ("density", "matrix", _PAIRS),
        ("bloch", "bloch", st.lists(_NUMBER, min_size=3, max_size=3)),
        ("mixture", "mixture", st.lists(_COMPONENT, min_size=1, max_size=2)),
    ]
])
# Valid files as the save helpers write them, and the same files with one
# field replaced by any JSON value.
_VALID = st.builds(
    lambda d, seed: density_state_dict(random_mixed(d, 1 + seed % d, seed)),
    st.integers(2, 4), st.integers(0, 2**16),
) | st.builds(lambda seed: bloch_state_dict(state_to_bloch(random_mixed(2, 1 + seed % 2, seed))),
              st.integers(0, 2**16))
_MUTATED = st.builds(lambda doc, key, value: {**doc, key: value},
                     _VALID, st.sampled_from(["dim", "kind", "matrix", "bloch"]), _JSON)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_VALID, _MUTATED, _DOC, _JSON))
# Finite entries whose arithmetic overflows: random draws rarely reach them.
@example({"dim": 2, "kind": "density", "matrix": [[1e308, 0], [1e308, 0], [-1e308, 0], [0, 0]]})
@example({"dim": 2, "kind": "pure", "amplitudes": [[1e308, 1e308], [1e308, 1e308]]})
@example({"dim": 2, "kind": "bloch", "bloch": [1e308, 0, 0]})
@example({"dim": 2, "kind": "mixture", "mixture": [
    {"weight": 1e308, "amplitudes": [[1, 0], [0, 0]]},
    {"weight": 1e308, "amplitudes": [[0, 0], [1, 0]]}]})
def test_any_json_gives_a_valid_state_or_state_file_error(doc):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the renormalization notice
            state = state_from_dict(doc)
    except StateFileError:
        return
    rho = state.rho
    assert np.isfinite(rho).all()
    assert np.abs(rho - rho.conj().T).max() <= 1e-12 * state.dim
    assert abs(np.trace(rho) - 1.0) <= 1e-8
    assert np.linalg.eigvalsh(rho)[0] >= -1e-10


# JSON values of the wrong type for a number or an array of numbers: numpy
# would read "1" and true as 1.0, and iterating a string or an object walks
# its characters or keys.
_WRONG_TYPE = (st.booleans() | st.text(max_size=3) | st.sampled_from(["1", "0", "0.5", "2"])
               | st.dictionaries(st.sampled_from(["0", "0.5", "1", "re"]), _NUMBER,
                                 min_size=1, max_size=3))
_PURE = st.builds(
    lambda d, seed: pure_state_dict(np.linalg.eigh(random_mixed(d, 1, seed).rho)[1][:, -1]),
    st.integers(2, 4), st.integers(0, 2**16),
)
_MIXTURE = _PURE.map(lambda doc: {"dim": doc["dim"], "kind": "mixture", "mixture": [
    {"weight": 0.25, "amplitudes": doc["amplitudes"]},
    {"weight": 0.75, "amplitudes": [[1, 0]] + [[0, 0]] * (doc["dim"] - 1)}]})


def _slots(value, path=()):
    """Paths to every value below the root of a state file, except 'kind'."""
    items = enumerate(value) if isinstance(value, list) else value.items()
    for key, child in items:
        if path + (key,) != ("kind",):
            yield path + (key,)
            if isinstance(child, (list, dict)):
                yield from _slots(child, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = value
    return doc


_WRONGLY_TYPED = st.one_of(_VALID, _PURE, _MIXTURE).flatmap(
    lambda doc: st.builds(_replaced, st.just(doc), st.sampled_from(list(_slots(doc))), _WRONG_TYPE))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_WRONGLY_TYPED)
@example({"dim": 2, "kind": "bloch", "bloch": "000"})
@example({"dim": 2, "kind": "bloch", "bloch": {"0": 1, "0.5": 2, "0.25": 3}})
@example({"dim": 2, "kind": "pure", "amplitudes": [["1", "0"], ["0", "0"]]})
@example({"dim": 2, "kind": "pure", "amplitudes": [[True, False], [False, False]]})
@example({"dim": "2", "kind": "bloch", "bloch": [0, 0, 1]})
@example({"dim": 2.7, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]})
def test_wrong_json_types_are_rejected(doc):
    with pytest.raises(StateFileError):
        state_from_dict(doc)
