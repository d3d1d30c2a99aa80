"""Command-line surface: the verification-suite runner plus thin compute
commands over the geometry and projection operations.

Subcommands
-----------
  ncgeo verify    --config cfg.json [--report out.json] [--timings]
  ncgeo distance  --u u.json --v v.json --p 4 [--algebra a.json]
  ncgeo qdistance --space s.json --u u.json --v v.json --p 4
  ncgeo project   --z z.json (--subspace g.json | --space s.json) --p 4
  ncgeo geodesic  --space s.json --target t.json --p 4
  ncgeo lift      --space s.json --curve c.json --p 4 --epsilon 1e-3
  ncgeo fold      --z z.json [--algebra a.json]

Every compute command prints one JSON record to standard output.  Exit
status: 0 on success, 1 when the verification suite reports violations,
2 on usage or schema errors (the offending precondition is named on
standard error), 3 when a solver does not converge or a ``verify`` trial
raises (one line on standard error, naming the trial's label, index, seed).
``verify`` runs trials in one thread, as they hold the GIL; NCGEO_THREADS
is validated (exit 2 unless a positive integer), reserved for a process pool.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import core
from .geometry import epsilon_isometric_lift, minimal_geodesic, quotient_distance, unitary_distance
from .models import MODELS, build_model_space
from .projection import ConvergenceError, best_approximant, quotient_norm
from .serialization import (
    SchemaError,
    algebra_from_json,
    canonical_dumps,
    curve_from_json,
    curve_to_json,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
    modelspec_from_json,
    subspace_from_json,
)
from .suites import SuiteConfig, run_verification_suite

USAGE_ERROR = 2
NON_CONVERGENCE = 3


def _parse_p(text: str):
    if text in ("inf", "Inf", "INF"):
        return np.inf
    val = float(text)
    return int(val) if val.is_integer() else val


def _parse_tol(text: str) -> float:
    val = float(text)
    if not 0.0 < val < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number (got {text!r})")
    return val


def _parse_seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer (got {text!r})")
    return int(text)


def _load_matrix(path: str, n: int | None = None) -> np.ndarray:
    """The matrix document at path; with n given, it must be n x n."""
    m = matrix_from_json(load_json_file(path), where=path)
    if n is not None and m.shape != (n, n):
        raise SchemaError(f"{path}: expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[1]}")
    return m


def _load_space(path: str):
    return build_model_space(modelspec_from_json(load_json_file(path), where=path))


def _emit(obj):
    sys.stdout.write(canonical_dumps(obj))


def cmd_verify(args) -> int:
    cfg_obj = load_json_file(args.config) if args.config else {}
    config = SuiteConfig.from_json(cfg_obj)
    report = run_verification_suite(config)
    text = canonical_dumps(report.to_json(timings=args.timings))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(report.summary_table() + "\n")
    return 0 if report.passed else 1


def cmd_distance(args) -> int:
    alg = algebra_from_json(load_json_file(args.algebra), where=args.algebra) if args.algebra else None
    u = _load_matrix(args.u, alg.dim if alg else None)
    alg = alg or core.TracialAlgebra.full(u.shape[0])
    v = _load_matrix(args.v, alg.dim)
    d = unitary_distance(u, v, args.p, alg)
    _emit({"d_p": d, "p": "inf" if args.p == np.inf else float(args.p)})
    return 0


def cmd_qdistance(args) -> int:
    space = _load_space(args.space)
    u = _load_matrix(args.u, space.ambient.dim)
    v = _load_matrix(args.v, space.ambient.dim)
    res = quotient_distance(space, u, v, args.p, multistarts=args.multistarts, seed=args.seed)
    _emit(
        {
            "qd_p": res.value,
            "p": float(args.p),
            "stationarity_residual": res.stationarity_residual,
            "starts": res.starts,
        }
    )
    return 0


def cmd_project(args) -> int:
    if args.subspace:
        S = subspace_from_json(load_json_file(args.subspace), where=args.subspace)
    else:
        S = _load_space(args.space).isotropy
    z = _load_matrix(args.z, S.ambient.dim)
    if args.p == np.inf:
        (lower, upper), witness = quotient_norm(z, S, np.inf, return_witness=True)
        _emit(
            {
                "quotient_norm_lower": lower,
                "quotient_norm": upper,
                "p": "inf",
                "certificate": "bracket",
                "witness": matrix_to_json(witness),
            }
        )
        return 0
    res = best_approximant(z, S, args.p, tol=args.tol)
    _emit(
        {
            "projection": matrix_to_json(res.projection),
            "residual": matrix_to_json(res.residual),
            "optimality_residual": res.optimality_residual,
            "iterations": res.iterations,
            "p": int(args.p),
            "quotient_norm": core.p_norm(res.residual, args.p, S.ambient),
        }
    )
    return 0


def cmd_geodesic(args) -> int:
    space = _load_space(args.space)
    target = _load_matrix(args.target, space.ambient.dim)
    res = minimal_geodesic(space, target, args.p, multistarts=args.multistarts, seed=args.seed)
    out = res.as_dict()
    out["symbol"] = matrix_to_json(res.symbol)
    out["radius"] = space.radius(args.p)
    out["epsilon_band"] = space.epsilon_band(args.p)
    # radius and band are built from c_O and K_p: bounds only if both are exact
    out["constants"] = MODELS[space.model_kind].constants
    _emit(out)
    return 0


def cmd_lift(args) -> int:
    space = _load_space(args.space)
    curve = curve_from_json(load_json_file(args.curve), where=args.curve)
    res = epsilon_isometric_lift(curve, space, args.p, args.epsilon)
    _emit(
        {
            "beta": curve_to_json(res.beta),
            "length_p": res.length_p,
            "quotient_length_p": res.quotient_length_p,
            "excess": res.excess,
            "epsilon": res.epsilon,
            "band_sup": res.band_sup,
            "ode_defect": res.lift.defect,
        }
    )
    return 0


def cmd_fold(args) -> int:
    z = _load_matrix(args.z)
    folded = core.fold_symbol(z)
    out = {
        "folded": matrix_to_json(folded),
        "uniform_norm_before": core.operator_norm(z),
        "uniform_norm_after": core.operator_norm(folded),
    }
    if args.algebra:
        alg = algebra_from_json(load_json_file(args.algebra), where=args.algebra)
        out["p_norms"] = {
            str(p): {"before": core.p_norm(z, p, alg), "after": core.p_norm(folded, p, alg)}
            for p in (2, 4)
        }
    _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncgeo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the seeded verification suites")
    v.add_argument("--config", help="SuiteConfig JSON file (defaults apply if omitted)")
    v.add_argument("--report", help="write the JSON report here instead of stdout")
    v.add_argument("--timings", action="store_true",
                   help="include per-record runtimes (breaks byte-level determinism)")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("distance", help="rectifiable p-distance between unitaries")
    d.add_argument("--u", required=True)
    d.add_argument("--v", required=True)
    d.add_argument("--p", type=_parse_p, required=True)
    d.add_argument("--algebra", help="algebra JSON (defaults to the full matrix algebra)")
    d.set_defaults(fn=cmd_distance)

    q = sub.add_parser("qdistance", help="coset distance on a model space")
    q.add_argument("--space", required=True, help="model-spec JSON")
    q.add_argument("--u", required=True)
    q.add_argument("--v", required=True)
    q.add_argument("--p", type=_parse_p, required=True)
    q.add_argument("--multistarts", type=int, default=8)
    q.add_argument("--seed", type=_parse_seed, default=0)
    q.set_defaults(fn=cmd_qdistance)

    pr = sub.add_parser("project", help="best approximant in a skew subspace")
    pr.add_argument("--z", required=True)
    group = pr.add_mutually_exclusive_group(required=True)
    group.add_argument("--subspace", help="subspace JSON")
    group.add_argument("--space", help="model-spec JSON (projects onto its isotropy algebra)")
    pr.add_argument("--p", type=_parse_p, required=True)
    pr.add_argument("--tol", type=_parse_tol, default=1e-10)
    pr.set_defaults(fn=cmd_project)

    g = sub.add_parser("geodesic", help="initial-value minimal curve to a target")
    g.add_argument("--space", required=True)
    g.add_argument("--target", required=True)
    g.add_argument("--p", type=_parse_p, required=True)
    g.add_argument("--multistarts", type=int, default=8)
    g.add_argument("--seed", type=_parse_seed, default=0)
    g.set_defaults(fn=cmd_geodesic)

    lf = sub.add_parser("lift", help="almost-isometric lift of an orbit curve")
    lf.add_argument("--space", required=True)
    lf.add_argument("--curve", required=True)
    lf.add_argument("--p", type=_parse_p, required=True)
    lf.add_argument("--epsilon", type=float, required=True)
    lf.set_defaults(fn=cmd_lift)

    f = sub.add_parser("fold", help="fold a Hermitian symbol into the band [-pi, pi]")
    f.add_argument("--z", required=True)
    f.add_argument("--algebra")
    f.set_defaults(fn=cmd_fold)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # an overflow shows as a non-finite value (and a ConvergenceError), not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (SchemaError, ValueError) as exc:
        sys.stderr.write(f"ncgeo: {exc}\n")
        return USAGE_ERROR
    except ConvergenceError as exc:
        sys.stderr.write(f"ncgeo: no convergence: {exc}\n")
        return NON_CONVERGENCE
    except OSError as exc:
        sys.stderr.write(f"ncgeo: {exc}\n")
        return USAGE_ERROR
