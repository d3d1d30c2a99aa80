"""JSON round-trips and schema rejection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgeo import core
from ncgeo.core import TracialAlgebra
from ncgeo.geometry import exp_curve
from ncgeo.models import ModelSpec
from ncgeo.projection import SkewSubspace
from ncgeo.serialization import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    curve_from_json,
    curve_to_json,
    matrix_from_json,
    matrix_to_json,
    modelspec_from_json,
    modelspec_to_json,
    subspace_from_json,
    subspace_to_json,
)


def test_matrix_round_trip(rng, m4):
    x = core.random_hermitian(m4, rng) + 1j * core.random_hermitian(m4, rng)
    back = matrix_from_json(matrix_to_json(x))
    assert np.allclose(back, x, atol=0)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json({"n": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"n": 1, "re": [[float("nan")]], "im": [[0.0]]})


def test_algebra_round_trip():
    alg = TracialAlgebra.direct_sum((2, 3), (0.4, 0.6))
    assert algebra_from_json(algebra_to_json(alg)) == alg
    t = TracialAlgebra.full(6)
    assert algebra_from_json(algebra_to_json(t)) == t
    with pytest.raises(SchemaError):
        algebra_from_json({"blocks": [2], "weights": [0.5]})
    # the M(x)M2 flag of older documents is ignored, even on an odd block
    assert algebra_from_json({"blocks": [3], "weights": [1.0], "tensor_m2": True}) == TracialAlgebra.full(3)


def test_subspace_round_trip(rng, m3):
    S = SkewSubspace(m3, [core.random_skew(m3, rng) for _ in range(2)])
    doc = subspace_to_json(S)
    assert sorted(doc) == ["ambient", "basis"]
    back = subspace_from_json(doc)
    assert back.dim == 2
    for a, b in zip(S.basis, back.basis):
        assert np.allclose(a, b, atol=0)
    # documents written with a subalgebra tag and an aux matrix still load
    old = {**doc, "kind": "commutant-of-projection", "aux": matrix_to_json(np.eye(3))}
    assert all(np.array_equal(a, b) for a, b in zip(subspace_from_json(old).basis, back.basis))
    with pytest.raises(SchemaError):
        subspace_from_json({"ambient": algebra_to_json(m3), "basis": [matrix_to_json(np.eye(3))]})


def test_curve_round_trip(rng, m3):
    z = core.random_skew(m3, rng, 0.5)
    c = exp_curve(z, 9)
    back = curve_from_json(curve_to_json(c))
    assert back.n_intervals == 8
    assert back.velocities is not None
    assert np.allclose(back.nodes, c.nodes, atol=0)
    with pytest.raises(SchemaError):
        curve_from_json({"grid_n": 3, "target": "unitary", "nodes": [matrix_to_json(np.eye(3))]})


def test_modelspec_round_trip():
    spec = ModelSpec("center-quotient", blocks=(2, 3), weights=(0.4, 0.6))
    back = modelspec_from_json(modelspec_to_json(spec))
    assert back.kind == spec.kind and back.blocks == spec.blocks and back.weights == spec.weights
    # a space sized by its projection alone writes no blocks and reads back so
    sized = ModelSpec("projection-orbit", e=np.diag([1.0, 0.0, 0.0]))
    doc = modelspec_to_json(sized)
    assert "blocks" not in doc
    back = modelspec_from_json(doc)
    assert back.blocks is None and np.array_equal(back.e, sized.e)
    with pytest.raises(SchemaError):
        modelspec_from_json({"kind": "nope"})


_KEYS = ["n", "re", "im", "blocks", "weights", "tensor_m2", "ambient", "basis", "kind", "aux", "e", "v0",
         "p_list", "grid_n", "nodes", "velocities", "target"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["diag-m2", "projection-orbit", "center-quotient", "unitary"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner,
                                                                max_size=6),
    max_leaves=30,
)


_DROP = object()


def _mutated(doc):
    """doc, or a copy with one nested value replaced by arbitrary JSON or removed."""
    if not isinstance(doc, (dict, list)) or not doc:
        return _JSON
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))

    def put(k, v):
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        if v is _DROP:
            del out[k]
        else:
            out[k] = v
        return out

    return _JSON | st.sampled_from(keys).flatmap(
        lambda k: (_mutated(doc[k]) | st.just(_DROP)).map(lambda v: put(k, v)))


_EYE2 = matrix_to_json(np.eye(2))
_E4 = matrix_to_json(np.diag([1.0, 0.0, 1.0, 0.0]))
_ALG = {"blocks": [2, 3], "weights": [0.4, 0.6]}
_SKEW = {"n": 5, "re": np.zeros((5, 5)).tolist(), "im": np.diag([1.0, 1, 0, 0, 0]).tolist()}
_VALID = [
    (matrix_from_json, {"n": 2, "re": [[0.0, 1.0], [-1.0, 0.0]], "im": [[3.0, 0.0], [0.0, 0.0]]}),
    (algebra_from_json, _ALG),
    (subspace_from_json, {"ambient": _ALG, "basis": [_SKEW]}),
    (modelspec_from_json, {"kind": "projection-orbit", "blocks": [2], "p_list": [2, 4], "e": _E4}),
    (modelspec_from_json, {"kind": "center-quotient", "blocks": [2, 3], "weights": [0.4, 0.6]}),
    (curve_from_json, {"grid_n": 1, "target": "unitary", "nodes": [_EYE2, _EYE2], "velocities": [_EYE2, _EYE2]}),
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_VALID).flatmap(lambda c: st.tuples(st.just(c[0]), _mutated(c[1]))))
def test_loaders_raise_only_schema_errors(case):
    # any JSON value, near-valid documents above all, loads or raises SchemaError
    loader, doc = case
    try:
        loader(doc)
    except SchemaError:
        pass


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [1.5, 2.0]})
    b = canonical_dumps({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.endswith("\n")
