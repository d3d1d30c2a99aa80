"""JSON schemas and (de)serialization for every wire format of the package.

Formats (documented in docs/schemas/):

  matrix    {"n": int, "re": [[...]], "im": [[...]]}, row-major
  algebra   {"blocks": [int, ...], "weights": [float, ...]}
  subspace  {"ambient": <algebra>, "basis": [<matrix>, ...]}
  curve     {"grid_n": int, "target": "unitary"|"orbit"|"algebra",
             "nodes": [<matrix>, ...], "velocities": [<matrix>, ...]?}
  modelspec {"kind": str, "blocks": [int, ...]?, "weights": [float, ...]?,
             "e": <matrix>?, "v0": <matrix>?}
  config    see SuiteConfig in ncgeo.suites

Schema violations, wrong JSON types included, raise SchemaError naming
the offending path (``s.json.blocks[0]``).  Every format but config
ignores keys it does not name, such as the M(x)M2 flag of older algebra
documents.  Canonical dumps sort keys and use a fixed separator so equal
objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import TracialAlgebra
from .geometry import SampledCurve
from .models import ModelSpec
from .projection import SkewSubspace

__all__ = [
    "SchemaError",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "curve_to_json",
    "curve_from_json",
    "modelspec_from_json",
    "modelspec_to_json",
    "canonical_dumps",
    "load_json_file",
]


class SchemaError(ValueError):
    """An input document does not match its schema."""


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return obj[key]


_JSON_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "an array"}


def _json_value(x, where: str, kind: type):
    """x as a JSON integer (int), finite number (float), string (str) or
    array (list), else SchemaError naming ``where``.  Booleans are not
    numbers here, and 2.0 is not an integer."""
    if kind in (int, float):
        ok = isinstance(x, int if kind is int else (int, float)) and not isinstance(x, bool)
        ok = ok and (isinstance(x, int) or math.isfinite(x))
    else:
        ok = isinstance(x, kind)
    if not ok:
        raise SchemaError(f"{where}: expected {_JSON_TYPE_NAMES[kind]}, got {json.dumps(x)}")
    return x


def _json_array(x, where: str, kind: type) -> tuple:
    """x as a JSON array of ``kind`` entries (see _json_value); an entry of
    the wrong type is named by its index, ``where[i]``."""
    return tuple(_json_value(v, f"{where}[{i}]", kind) for i, v in enumerate(_json_value(x, where, list)))


def _construct(where: str, cls, *args, **kw):
    """cls(*args, **kw), its ValueError raised again as a SchemaError at
    ``where``; a SchemaError, which names its own path, passes through."""
    try:
        return cls(*args, **kw)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def matrix_to_json(x: np.ndarray) -> dict:
    x = np.asarray(x, dtype=complex)
    return {"n": int(x.shape[0]), "re": x.real.tolist(), "im": x.imag.tolist()}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    n = _json_value(_need(obj, "n", where), f"{where}.n", int)
    parts = []
    for key in ("re", "im"):
        rows = _json_array(_need(obj, key, where), f"{where}.{key}", list)
        if n < 1 or len(rows) != n or any(len(r) != n for r in rows):
            raise SchemaError(f"{where}: re/im must be {n}x{n} row-major arrays, n >= 1")
        parts.append(np.array([_json_array(r, f"{where}.{key}[{i}]", float) for i, r in enumerate(rows)], dtype=float))
    return parts[0] + 1j * parts[1]


def algebra_to_json(alg: TracialAlgebra) -> dict:
    return {"blocks": list(alg.block_dims), "weights": list(alg.trace_weights)}


def algebra_from_json(obj, where: str = "algebra") -> TracialAlgebra:
    blocks = _json_array(_need(obj, "blocks", where), f"{where}.blocks", int)
    weights = _json_array(_need(obj, "weights", where), f"{where}.weights", float)
    return _construct(where, TracialAlgebra, blocks, tuple(float(w) for w in weights))


def subspace_to_json(S: SkewSubspace) -> dict:
    return {"ambient": algebra_to_json(S.ambient), "basis": [matrix_to_json(b) for b in S.basis]}


def subspace_from_json(obj, where: str = "subspace") -> SkewSubspace:
    """The span of ``basis`` in ``ambient``; other keys (such as the
    ``kind`` and ``aux`` of older documents) are ignored."""
    alg = algebra_from_json(_need(obj, "ambient", where), f"{where}.ambient")
    items = _json_value(obj.get("basis", []), f"{where}.basis", list)
    basis = [matrix_from_json(m, f"{where}.basis[{i}]") for i, m in enumerate(items)]
    return _construct(where, SkewSubspace, alg, basis)


def curve_to_json(curve: SampledCurve) -> dict:
    out = {
        "grid_n": int(curve.n_intervals),
        "target": curve.target,
        "nodes": [matrix_to_json(u) for u in curve.nodes],
    }
    if curve.velocities is not None:
        out["velocities"] = [matrix_to_json(v) for v in curve.velocities]
    return out


def curve_from_json(obj, where: str = "curve") -> SampledCurve:
    n = _json_value(_need(obj, "grid_n", where), f"{where}.grid_n", int)
    items = _json_value(_need(obj, "nodes", where), f"{where}.nodes", list)
    nodes = [matrix_from_json(m, f"{where}.nodes[{i}]") for i, m in enumerate(items)]
    if n < 1 or len(nodes) != n + 1:
        raise SchemaError(f"{where}: expected grid_n + 1 = {n + 1} nodes, got {len(nodes)}")
    vel = None
    if "velocities" in obj:
        items = _json_value(obj["velocities"], f"{where}.velocities", list)
        vel = [matrix_from_json(m, f"{where}.velocities[{i}]") for i, m in enumerate(items)]
        if len(vel) != len(nodes):
            raise SchemaError(f"{where}: velocities must align with nodes")
    target = _json_value(obj.get("target", "unitary"), f"{where}.target", str)
    return _construct(where, SampledCurve, np.linspace(0.0, 1.0, n + 1), nodes, target=target, velocities=vel)


def modelspec_to_json(spec: ModelSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.blocks is not None:
        out["blocks"] = list(spec.blocks)
    if spec.weights is not None:
        out["weights"] = list(spec.weights)
    if spec.e is not None:
        out["e"] = matrix_to_json(spec.e)
    if spec.v0 is not None:
        out["v0"] = matrix_to_json(spec.v0)
    return out


def modelspec_from_json(obj, where: str = "modelspec") -> ModelSpec:
    kw = {"kind": _json_value(_need(obj, "kind", where), f"{where}.kind", str)}
    for key, kind in (("blocks", int), ("weights", float)):
        if key in obj:
            kw[key] = _json_array(obj[key], f"{where}.{key}", kind)
    for key in ("e", "v0"):
        if key in obj:
            kw[key] = matrix_from_json(obj[key], f"{where}.{key}")
    return _construct(where, ModelSpec, **kw)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
