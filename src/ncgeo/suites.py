"""Seeded verification suites over every module invariant, with a
deterministic report format for the command-line runner.

Each suite record draws its randomness from a counter-based stream keyed by
(config seed, record label, trial index), so reports are byte-identical
across runs and across worker-pool sizes; per-trial work may fan out to a
thread pool capped by the NCGEO_THREADS environment variable.  A record
counts violations and tracks the worst margin (negative = violation) of
its property at the configured tolerance.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import core
from .core import TracialAlgebra, operator_norm, p_norm, principal_log, unitary_exp
from .geometry import (
    SampledCurve,
    convexity_probe,
    curve_length_p,
    epsilon_isometric_lift,
    exp_curve,
    lift_ode_solve,
    loop_deformed_exp_curve,
    minimal_geodesic,
    minimality_probe,
    quotient_distance,
    quotient_length,
    unitary_distance,
)
from .models import (
    ModelSpec,
    build_model_space,
    center_q_checks,
    diag_m2_checks,
    special_diag_checks,
    validate_space,
)
from .projection import SkewSubspace, best_approximant, orthonormal_basis
from .rng import trial_stream
from .serialization import SchemaError, _construct, _json_array, _json_value

__all__ = [
    "SuiteConfig",
    "SuiteRecord",
    "VerificationReport",
    "DEFAULT_TOLERANCES",
    "run_verification_suite",
    "suite_core",
    "suite_projection",
    "suite_geometry",
    "suite_models",
    "default_model_specs",
]

DEFAULT_TOLERANCES = {
    "clarkson": 1e-10,
    "invariance": 1e-10,
    "roundtrip": 1e-9,
    "exp_differential_quadrature": 1e-8,
    "contraction": 1e-11,
    "symbol_bound": 1e-9,
    "spectral_identity": 1e-10,
    "fold": 1e-10,
    "h_form": 1e-9,
    "projection_identities": 1e-8,
    "certificate": 1e-10,
    "oracle_agreement": 1e-4,
    "perpep": 1e-8,
    "p2_agreement": 1e-10,
    "metric": 1e-9,
    "coset_metric": 1e-8,
    "endpoint_pi": 1e-12,
    "diameter": 1e-9,
    "unitary_minimality": 1e-6,
    "lift_defect": 1e-6,
    "lift_constant": 1e-12,
    "eps_lift_slack": 1e-5,
    "coset_equality": 5e-4,
    "separation": 1e-6,
    "convexity": 1e-8,
    "probe_slack": 1e-6,
    "model_facts": 1e-8,
}

SUITE_NAMES = ("core", "projection", "geometry", "models")


@dataclass
class SuiteConfig:
    """Configuration of a verification run.

    ``trials`` is the base per-record count; expensive records derive
    smaller counts from it.  ``tolerances`` overrides entries of
    DEFAULT_TOLERANCES by name.
    """

    seed: int = 2026
    dims: tuple = (2, 4)
    p_list: tuple = (2, 4)
    trials: int = 120
    tolerances: dict = field(default_factory=dict)
    suites: tuple = SUITE_NAMES

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.p_list = tuple(self.p_list)
        self.suites = tuple(self.suites)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if not self.p_list or any(not 1 <= p < math.inf for p in self.p_list):
            raise ValueError("p_list entries must be finite and >= 1")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}; expected a subset of {SUITE_NAMES}")
        for name, val in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance name {name!r}")
            if not 0 < val < math.inf:
                raise ValueError(f"tolerance {name!r} must be positive and finite")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def even_ps(self) -> tuple:
        evens = sorted({int(p) for p in self.p_list if float(p).is_integer() and int(p) % 2 == 0 and p >= 2})
        return tuple(evens) or (2, 4)

    def to_json(self) -> dict:
        return {
            "seed": int(self.seed),
            "dims": list(self.dims),
            "p_list": [float(p) for p in self.p_list],
            "trials": int(self.trials),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "suites": list(self.suites),
        }

    @classmethod
    def from_json(cls, obj) -> "SuiteConfig":
        """The config of a JSON object.  A value of the wrong type or out of
        range raises SchemaError naming its path, such as ``config.dims[0]``;
        integers must be JSON integers (not booleans, not 2.0)."""
        if not isinstance(obj, dict):
            raise SchemaError("config: expected an object")
        unknown = set(obj) - {"seed", "dims", "p_list", "trials", "tolerances", "suites"}
        if unknown:
            raise SchemaError(f"config: unknown keys {sorted(unknown)}")
        kw = {}
        for key in ("seed", "trials"):
            if key in obj:
                kw[key] = _json_value(obj[key], f"config.{key}", int)
        for key, kind in (("dims", int), ("p_list", float), ("suites", str)):
            if key in obj:
                kw[key] = _json_array(obj[key], f"config.{key}", kind)
        if "tolerances" in obj:
            tols = obj["tolerances"]
            if not isinstance(tols, dict):
                raise SchemaError("config.tolerances: expected an object")
            kw["tolerances"] = {k: _json_value(v, f"config.tolerances.{k}", float) for k, v in tols.items()}
        return _construct("config", cls, **kw)


@dataclass
class SuiteRecord:
    suite: str
    anchor: str
    trials: int
    violations: int
    worst_margin: float
    runtime: float = 0.0

    def to_json(self, timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "anchor": self.anchor,
            "trials": int(self.trials),
            "violations": int(self.violations),
            "worst_margin": float(self.worst_margin),
        }
        if timings:
            out["runtime_s"] = round(self.runtime, 3)
        return out


@dataclass
class VerificationReport:
    records: list
    config: SuiteConfig

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.records)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self, timings: bool = False) -> dict:
        return {
            "config": self.config.to_json(),
            "environment": environment_stamp(),
            "records": [r.to_json(timings) for r in self.records],
            "violations": int(self.violations),
            "passed": bool(self.passed),
        }

    def summary_table(self) -> str:
        lines = [f"{'record':46s} {'trials':>7s} {'bad':>4s} {'worst margin':>13s} {'time':>8s}"]
        for r in self.records:
            lines.append(
                f"{r.suite + ':' + r.anchor:46s} {r.trials:7d} {r.violations:4d} "
                f"{r.worst_margin:13.3e} {r.runtime:7.2f}s"
            )
        lines.append(f"total violations: {self.violations}  -> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def environment_stamp() -> dict:
    return {
        "package": "ncgeo 0.1.0",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# trial fan-out
# ---------------------------------------------------------------------------


def _n_workers() -> int:
    raw = os.environ.get("NCGEO_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"NCGEO_THREADS must be a positive integer (got {raw!r})")
    return int(raw)


def _run_trials(seed: int, label: str, n: int, fn):
    """fn(trial, rng) -> margin; aggregation is ordered by trial index so
    worker pools cannot change the report."""

    def one(k):
        return fn(k, trial_stream(seed, label, k))

    workers = _n_workers()
    if workers > 1 and n > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            margins = list(pool.map(one, range(n)))
    else:
        margins = [one(k) for k in range(n)]
    worst = min(margins) if margins else math.inf
    return sum(1 for m in margins if m < 0.0), float(worst)


def _record(suite, anchor, seed, n, fn) -> SuiteRecord:
    t0 = time.perf_counter()
    bad, worst = _run_trials(seed, f"{suite}:{anchor}", n, fn)
    return SuiteRecord(suite, anchor, n, bad, worst, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


def _clarkson_margin(a, b, p, alg, tol):
    q = p / (p - 1.0)
    na, nb = p_norm(a, p, alg), p_norm(b, p, alg)
    nplus, nminus = p_norm(a + b, p, alg), p_norm(a - b, p, alg)
    if p <= 2:
        lhs = (nplus**q + nminus**q) ** (1.0 / q)
    else:
        lhs = (nplus**p + nminus**p) ** (1.0 / p)
    return 2.0 ** (1.0 / q) * (na**p + nb**p) ** (1.0 / p) - lhs + tol


def suite_core(cfg: SuiteConfig) -> list:
    records = []
    algs = [TracialAlgebra.full(d) for d in cfg.dims]
    ps_all = sorted({1.5, 2.0} | {float(p) for p in cfg.p_list})

    def clarkson(k, rng):
        alg = algs[k % len(algs)]
        p = ps_all[(k // len(algs)) % len(ps_all)]
        a, b = core.random_skew(alg, rng), core.random_skew(alg, rng)
        return _clarkson_margin(a, b, p, alg, cfg.tol("clarkson"))

    records.append(
        _record("core", "clarkson-inequalities", cfg.seed, cfg.trials * len(algs) * len(ps_all), clarkson)
    )

    def invariance(k, rng):
        alg = algs[k % len(algs)]
        x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
        u, v = core.random_unitary(alg, rng), core.random_unitary(alg, rng)
        worst = max(abs(p_norm(u @ x @ v, p, alg) - p_norm(x, p, alg)) for p in cfg.p_list)
        return cfg.tol("invariance") - worst

    records.append(_record("core", "unitary-invariance", cfg.seed, cfg.trials, invariance))

    def roundtrip(k, rng):
        alg = algs[k % len(algs)]
        z = core.random_skew(alg, rng)
        z = z * (rng.uniform(0.05, 0.95) * math.pi / max(operator_norm(z), 1e-12))
        e1 = operator_norm(principal_log(unitary_exp(z)) - z)
        u = core.random_unitary(alg, rng)
        e2 = operator_norm(unitary_exp(principal_log(u)) - u)
        return cfg.tol("roundtrip") - max(e1, e2)

    records.append(_record("core", "exponential-log-roundtrip", cfg.seed, cfg.trials, roundtrip))

    def expdiff(k, rng):
        # the 64-panel Simpson floor crosses 1e-8 only in the far corner of
        # the ||a||, ||b|| <= 2 box; sampling to 1.5 keeps a 2x margin
        alg = algs[k % len(algs)]
        a = core.random_skew(alg, rng)
        a = a * (rng.uniform(0.0, 1.5) / max(operator_norm(a), 1e-12))
        b = core.random_skew(alg, rng)
        b = b * (rng.uniform(0.0, 1.5) / max(operator_norm(b), 1e-12))
        d = core.exp_differential(a, b)
        ts = np.linspace(0.0, 1.0, 65)
        vals = np.array([scipy.linalg.expm((1 - t) * a) @ b @ scipy.linalg.expm(t * a) for t in ts])
        coef = np.ones(65)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        quad = (1.0 / 64.0 / 3.0) * np.tensordot(coef, vals, axes=1)
        margin = cfg.tol("exp_differential_quadrature") - operator_norm(d - quad)
        worst = max(p_norm(d, p, alg) - p_norm(b, p, alg) for p in (2, np.inf))
        return min(margin, cfg.tol("contraction") - worst)

    records.append(_record("core", "exponential-differential", cfg.seed, max(20, cfg.trials // 4), expdiff))

    def symbol_bound(k, rng):
        alg = algs[k % len(algs)]
        a = core.random_skew(alg, rng)
        a = a * (rng.uniform(0.05, 0.95) * (math.pi / 2) / max(operator_norm(a), 1e-12))
        r = operator_norm(a)
        frame = core.Eigenframe(a)
        worst = 0.0
        for _ in range(20):
            b = core.random_skew(alg, rng)
            nb = operator_norm(b)
            if nb > 1e-12:
                worst = max(worst, operator_norm(frame.apply(lambda x: 1.0 / core._sym_F(x), b)) / nb)
        return r / math.sin(r) - worst + cfg.tol("symbol_bound")

    records.append(_record("core", "inverse-symbol-bound", cfg.seed, max(20, cfg.trials // 4), symbol_bound))

    def spectral(k, rng):
        alg = algs[k % len(algs)]
        x = core.random_hermitian(alg, rng)
        lam = core.spectral_scale(x, alg)
        worst = abs(lam.integrate() - core.trace_tau(x, alg).real)
        worst = max(worst, abs(lam.integrate(lambda v: v**2) - core.trace_tau(x @ x, alg).real))
        for p in cfg.even_ps():
            worst = max(worst, abs(lam.integrate(lambda v: np.abs(v) ** p) - p_norm(x, p, alg) ** p))
        return cfg.tol("spectral_identity") - worst

    records.append(_record("core", "spectral-scale-identity", cfg.seed, cfg.trials, spectral))

    def fold(k, rng):
        alg = algs[k % len(algs)]
        z = core.random_hermitian(alg, rng)
        z = z * (rng.uniform(1.2, 5.0) * math.pi / max(operator_norm(z), 1e-12))
        f = core.fold_symbol(z)
        worst = operator_norm(unitary_exp(1j * f) - unitary_exp(1j * z))
        worst = max(worst, operator_norm(f) - math.pi)
        mu_f, mu_z = core.s_numbers(f, alg), core.s_numbers(z, alg)
        ts = np.linspace(0.019, 0.999, 37)
        worst = max(worst, float(np.max(mu_f(ts) - mu_z(ts))))
        for p in cfg.even_ps():
            if p_norm(f, p, alg) >= p_norm(z, p, alg) - 1e-9:
                worst = max(worst, 1.0)  # strict decrease above the band failed
        return cfg.tol("fold") - worst

    records.append(_record("core", "fold-symbol", cfg.seed, cfg.trials, fold))

    def hform(k, rng):
        alg = algs[k % len(algs)]
        p = cfg.even_ps()[k % len(cfg.even_ps())]
        a, b = core.random_skew(alg, rng), core.random_skew(alg, rng)
        qa = core.quadratic_form(a, b, p, alg)
        worst = -qa
        rhs = p * p_norm(b @ np.linalg.matrix_power(a, p // 2 - 1), 2, alg) ** 2
        anti = a @ b + b @ a
        for l in range(p // 2 - 1):
            m = p // 2 - 2 - l
            rhs += (p / 2.0) * p_norm(
                np.linalg.matrix_power(a, l) @ anti @ np.linalg.matrix_power(a, m), 2, alg
            ) ** 2
        worst = max(worst, abs(qa - rhs) / max(1.0, abs(rhs)))
        comm = core.quadratic_form(a, b @ a - a @ b, p, alg)
        bound = 4.0 * operator_norm(a) ** 2 * qa
        worst = max(worst, (comm - bound) / max(1.0, bound))
        return cfg.tol("h_form") - worst

    records.append(_record("core", "h-form-identities", cfg.seed, cfg.trials, hform))
    return records


# ---------------------------------------------------------------------------
# projection suite
# ---------------------------------------------------------------------------


def _random_subspace(alg, rng, dim):
    return orthonormal_basis(SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(dim)]))


def suite_projection(cfg: SuiteConfig) -> list:
    records = []
    algs = [TracialAlgebra.full(d) for d in cfg.dims]
    ps = cfg.even_ps()

    def identities(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
        z = core.random_skew(alg, rng)
        res = best_approximant(z, S, p)
        tol = cfg.tol("projection_identities")
        worst = res.optimality_residual - cfg.tol("certificate")
        worst = max(worst, p_norm(best_approximant(res.residual, S, p).projection, p, alg) - tol)
        worst = max(worst, p_norm(res.projection, p, alg) - 2.0 * p_norm(z, p, alg) - tol)
        lam = -2.0 if k % 2 else 0.5
        q_lam = best_approximant(lam * z, S, p).projection
        worst = max(worst, p_norm(q_lam - lam * res.projection, p, alg) - tol)
        return -worst

    records.append(_record("projection", "best-approximant-identities", cfg.seed, cfg.trials, identities))

    def perpep(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
        z = core.random_skew(alg, rng)
        res = best_approximant(z, S, p)
        base = p_norm(res.residual, p, alg)
        margin = cfg.tol("certificate") - res.optimality_residual
        for eps in (1e-2, -1e-2, 1e-4, -1e-4):
            y = S.combine(rng.standard_normal(S.dim))
            margin = min(margin, p_norm(res.residual + eps * y, p, alg) - base + cfg.tol("perpep"))
        return margin

    records.append(_record("projection", "minimal-lifting-criterion", cfg.seed, cfg.trials, perpep))

    def p2(k, rng):
        alg = algs[k % len(algs)]
        S = _random_subspace(alg, rng, min(4, alg.dim**2 - 1))
        z = core.random_skew(alg, rng)
        gap = p_norm(best_approximant(z, S, 2).projection - S.project(z), 2, alg)
        return cfg.tol("p2_agreement") - gap

    records.append(_record("projection", "p2-linear-agreement", cfg.seed, cfg.trials, p2))

    def bijection(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        S = _random_subspace(alg, rng, min(3, alg.dim**2 - 1))
        F = S.complement()
        f = F.combine(rng.standard_normal(F.dim))
        res = best_approximant(f, S, p)
        img = f - res.projection
        worst = p_norm(F.project(img) - f, p, alg)
        worst = max(worst, p_norm(best_approximant(img, S, p).projection, p, alg))
        return cfg.tol("projection_identities") - worst

    records.append(_record("projection", "horizontal-bijection", cfg.seed, max(20, cfg.trials // 4), bijection))

    def oracle(k, rng):
        alg = TracialAlgebra.full(3)
        S = SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(2)])
        z = core.random_skew(alg, rng, 0.6)
        res = best_approximant(z, S, 4)
        c = _lattice_search(z, S, 4, alg)
        return cfg.tol("oracle_agreement") - float(np.max(np.abs(res.coefficients - c)))

    records.append(_record("projection", "lattice-oracle-agreement", cfg.seed, max(2, cfg.trials // 40), oracle))
    return records


#: grid rows of the lattice sweep evaluated at once (bounds its memory)
_LATTICE_SLAB_ROWS = 64


def _lattice_search(z, S, p, alg):
    """Dense coefficient sweep (pitch 1e-3, two 10x refinements) independent
    of the Newton path; two-dimensional subspaces only.  The objective grid
    is filled in slabs of rows, so memory does not grow with the full grid."""
    onb = orthonormal_basis(S)
    b = np.array(onb.basis)
    wvec = core._diag_weights(alg)
    sign = (-1) ** (p // 2)

    def sweep(c0, half_width, pitch):
        g1 = np.arange(c0[0] - half_width, c0[0] + half_width + pitch / 2, pitch)
        g2 = np.arange(c0[1] - half_width, c0[1] + half_width + pitch / 2, pitch)
        vals = np.empty((len(g1), len(g2)))
        for lo in range(0, len(g1), _LATTICE_SLAB_ROWS):
            c1 = g1[lo : lo + _LATTICE_SLAB_ROWS]
            w = z - c1[:, None, None, None] * b[0] - g2[None, :, None, None] * b[1]
            w2 = w @ w
            wp = w2
            for _ in range(p // 2 - 1):
                wp = wp @ w2
            vals[lo : lo + len(c1)] = sign * np.einsum("...ii,i->...", wp, wvec).real
        kk = np.unravel_index(np.argmin(vals), vals.shape)
        return np.array([g1[kk[0]], g2[kk[1]]])

    c = sweep(onb.coords(z), 0.55, 1e-3)
    for pitch in (1e-4, 1e-5):
        c = sweep(c, 120 * pitch, pitch)
    return c


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------


def default_model_specs() -> list:
    """Desk-scale instances of every model kind."""
    return [
        ModelSpec("center-quotient", blocks=(2, 2)),
        ModelSpec("diag-m2", blocks=(2,)),
        ModelSpec("special-diag-m2", blocks=(2,)),
        ModelSpec("projection-orbit", blocks=(2,)),
        ModelSpec("partial-isometry-orbit", blocks=(3,)),
    ]


_SPACE_CACHE = {}


def _spaces():
    if not _SPACE_CACHE:
        for spec in default_model_specs():
            _SPACE_CACHE[spec.kind] = build_model_space(spec)
    return _SPACE_CACHE


def _minimal_symbol_for(space, rng, p, target_norm):
    z = space.horizontal_project(core.random_skew(space.ambient, rng, 1.0))
    z = best_approximant(z, space.isotropy, p, tol=1e-12).residual
    nz = operator_norm(z)
    if nz < 1e-9:
        return z
    z = z * (target_norm / nz)
    return best_approximant(z, space.isotropy, p, tol=1e-12).residual


def suite_geometry(cfg: SuiteConfig) -> list:
    records = []
    algs = [TracialAlgebra.full(d) for d in cfg.dims]
    ps = cfg.even_ps()
    spaces = _spaces()
    space_names = sorted(spaces)

    def metric(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        u, v, w = (core.random_unitary(alg, rng) for _ in range(3))
        tol = cfg.tol("metric")
        m = tol - abs(unitary_distance(u, v, p, alg) - unitary_distance(v, u, p, alg))
        m = min(
            m,
            unitary_distance(u, w, p, alg) + unitary_distance(w, v, p, alg)
            - unitary_distance(u, v, p, alg) + tol,
        )
        m = min(m, 1e-10 - abs(unitary_distance(w @ u, w @ v, p, alg) - unitary_distance(u, v, p, alg)))
        return m

    records.append(_record("geometry", "metric-axioms", cfg.seed, cfg.trials, metric))

    lo = math.sqrt(1.0 - math.pi**2 / 12.0)

    def sandwich(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        u, v = core.random_unitary(alg, rng), core.random_unitary(alg, rng)
        d = unitary_distance(u, v, p, alg)
        gap = p_norm(u - v, p, alg)
        tol = cfg.tol("metric")
        return min(gap - lo * d + tol, d - gap + tol)

    records.append(_record("geometry", "distance-sandwich", cfg.seed, cfg.trials * len(ps), sandwich))

    def endpoint(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        one = alg.identity()
        return cfg.tol("endpoint_pi") - abs(unitary_distance(one, -one, p, alg) - math.pi)

    records.append(_record("geometry", "antipode-at-pi", cfg.seed, len(algs) * len(ps), endpoint))

    def diameter(k, rng):
        alg = algs[k % len(algs)]
        worst = 0.0
        for _ in range(25):
            u, v = core.random_unitary(alg, rng), core.random_unitary(alg, rng)
            worst = max(worst, unitary_distance(u, v, ps[0], alg))
        return math.pi + cfg.tol("diameter") - worst

    records.append(_record("geometry", "diameter-bound", cfg.seed, max(20, cfg.trials // 2), diameter))

    def unitary_minimality(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        z = core.random_skew(alg, rng)
        z = z * (rng.uniform(0.1, 1.0) * math.pi / max(operator_norm(z), 1e-12))
        base = p_norm(z, p, alg)
        margin = math.inf
        for _ in range(20):
            xi = core.random_skew(alg, rng)
            comp = loop_deformed_exp_curve(z, xi, rng.uniform(0.05, 0.8), n_nodes=65)
            margin = min(margin, curve_length_p(comp, p, alg) - base + cfg.tol("unitary_minimality"))
        return margin

    records.append(
        _record("geometry", "unitary-minimality", cfg.seed, max(10, cfg.trials // 2), unitary_minimality)
    )

    def coset_metric(k, rng):
        # triples at moderate radius, where multistart reliably certifies the
        # global coset minimum; full-diameter values are covered by the
        # oracle comparisons in the test suite
        sp = spaces["center-quotient"]
        alg = sp.ambient
        p = ps[k % len(ps)]
        us = []
        for _ in range(3):
            z = core.random_skew(alg, rng)
            z = z * (rng.uniform(0.2, 1.2) / max(operator_norm(z), 1e-12))
            g = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
            us.append(unitary_exp(z) @ unitary_exp(0.5 * g))
        tol = cfg.tol("coset_metric")
        d01 = quotient_distance(sp, us[0], us[1], p, multistarts=12, seed=k).value
        d10 = quotient_distance(sp, us[1], us[0], p, multistarts=12, seed=k + 1).value
        d02 = quotient_distance(sp, us[0], us[2], p, multistarts=12, seed=k + 2).value
        d21 = quotient_distance(sp, us[2], us[1], p, multistarts=12, seed=k + 3).value
        return min(tol - abs(d01 - d10), d02 + d21 - d01 + tol)

    records.append(_record("geometry", "coset-metric-axioms", cfg.seed, max(6, cfg.trials // 20), coset_metric))

    def lift_const(k, rng):
        sp = spaces["diag-m2"]
        w0 = sp.isotropy.combine(0.3 * rng.standard_normal(sp.isotropy.dim))
        grid = np.linspace(0, 1, 9)
        lift = lift_ode_solve(SampledCurve(grid, np.repeat(w0[None], 9, axis=0), target="algebra"), sp)
        worst = max(operator_norm(lift.z.nodes[j] - lift.z.grid[j] * w0) for j in range(len(lift.z.grid)))
        return cfg.tol("lift_constant") - worst

    records.append(_record("geometry", "lifting-ode-constant", cfg.seed, max(5, cfg.trials // 20), lift_const))

    def lift_polygonal(k, rng):
        sp = spaces["diag-m2"] if k % 2 == 0 else spaces["center-quotient"]
        nodes = np.array(
            [sp.isotropy.combine(0.35 * rng.standard_normal(sp.isotropy.dim)) for _ in range(9)]
        )
        lift = lift_ode_solve(SampledCurve(np.linspace(0, 1, 9), nodes, target="algebra"), sp)
        return min(cfg.tol("lift_defect") - lift.defect, 1e-9 - lift.projection_drift)

    records.append(_record("geometry", "lifting-ode-defect", cfg.seed, max(10, cfg.trials // 4), lift_polygonal))

    def eps_lift(k, rng):
        sp = spaces[space_names[k % len(space_names)]]
        alg = sp.ambient
        p = ps[k % len(ps)]
        eps = 1e-2 if (k // len(space_names)) % 2 == 0 else 1e-3
        z = core.random_skew(alg, rng, 0.35)
        xi = core.random_skew(alg, rng, 0.3)
        gamma = loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65)
        res = epsilon_isometric_lift(gamma, sp, p, eps)
        return res.quotient_length_p + eps + cfg.tol("eps_lift_slack") - res.length_p

    records.append(_record("geometry", "epsilon-isometric-lifts", cfg.seed, max(10, cfg.trials // 6), eps_lift))

    def iguales(k, rng):
        sp = spaces[space_names[k % len(space_names)]]
        alg = sp.ambient
        p = ps[k % len(ps)]
        z0 = _minimal_symbol_for(sp, rng, p, 0.5)
        g = unitary_exp(sp.isotropy.combine(0.4 * rng.standard_normal(sp.isotropy.dim)))
        v = unitary_exp(z0) @ g
        dq = quotient_distance(sp, alg.identity(), v, p, multistarts=8, seed=k).value
        geo = minimal_geodesic(sp, v, p, multistarts=8, seed=k + 1)
        best_len = quotient_length(exp_curve(geo.symbol, 33), sp, p)
        best_len = min(best_len, quotient_length(exp_curve(z0, 33), sp, p))
        return cfg.tol("coset_equality") - abs(dq - best_len)

    records.append(_record("geometry", "coset-vs-curve-infimum", cfg.seed, max(8, cfg.trials // 8), iguales))

    def separation(k, rng):
        sp = spaces[space_names[k % len(space_names)]]
        p = ps[k % len(ps)]
        z = _minimal_symbol_for(sp, rng, p, 0.45)
        if operator_norm(z) < 1e-6:
            return 0.0
        d = quotient_distance(sp, sp.ambient.identity(), unitary_exp(z), p, multistarts=6, seed=k).value
        return d - cfg.tol("separation")

    records.append(_record("geometry", "coset-separation", cfg.seed, max(8, cfg.trials // 10), separation))

    def convexity(k, rng):
        alg = algs[k % len(algs)]
        p = ps[k % len(ps)]
        for _ in range(40):
            v = unitary_exp(core.random_skew(alg, rng, 0.2))
            w = v @ unitary_exp(core.random_skew(alg, rng, 0.2))
            u = unitary_exp(core.random_skew(alg, rng, 0.25))
            if operator_norm(u - v) < math.sqrt(2) and operator_norm(w - v) < math.sqrt(2) - operator_norm(u - v):
                rep = convexity_probe(u, v, w, p, alg, n_nodes=65)
                if not rep.collinear:
                    return rep.min_second_difference + cfg.tol("convexity")
        return 0.0

    records.append(_record("geometry", "local-convexity", cfg.seed, cfg.trials, convexity))

    def band_probe(k, rng):
        sp = spaces[space_names[k % len(space_names)]]
        p = ps[k % len(ps)]
        z = _minimal_symbol_for(sp, rng, p, 1.0)
        nz = operator_norm(z)
        if nz < 1e-9:
            return 0.0
        z = z * (0.4 * sp.epsilon_band(p) / nz)
        z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
        rep = minimality_probe(
            sp, z, p, trials=10, seed=cfg.seed + k, n_nodes=33, length_slack=cfg.tol("probe_slack")
        )
        if rep.uniqueness_violations:
            return -1.0
        return rep.worst_margin

    records.append(_record("geometry", "geodesic-minimality-band", cfg.seed, max(5, cfg.trials // 12), band_probe))
    return records


# ---------------------------------------------------------------------------
# models suite
# ---------------------------------------------------------------------------


def suite_models(cfg: SuiteConfig) -> list:
    records = []
    spaces = _spaces()
    ps = cfg.even_ps()

    for name in sorted(spaces):
        sp = spaces[name]

        def structure(k, rng, sp=sp):
            info = validate_space(sp, trials=20, seed=cfg.seed + k)
            margin = sp.c_O + 1e-9 - info["c_ratio"]
            margin = min(margin, min(info["c_p"].values()))
            return margin

        records.append(_record("models", f"{name}-structure", cfg.seed, 3, structure))

        def facts(k, rng, sp=sp, name=name):
            p = ps[k % len(ps)]
            n = max(10, cfg.trials // 4)
            if name == "center-quotient":
                rep = center_q_checks(sp, p, trials=n, seed=cfg.seed + 7 * k, tol=cfg.tol("model_facts"))
            elif name in ("diag-m2", "projection-orbit"):
                rep = diag_m2_checks(sp, p, trials=n, seed=cfg.seed + 7 * k, tol=cfg.tol("model_facts"))
            elif name == "special-diag-m2":
                rep = special_diag_checks(sp, p, trials=n, seed=cfg.seed + 7 * k)
            else:
                info = validate_space(sp, trials=n, seed=cfg.seed + 7 * k)
                return min(info["c_p"].values())
            worst = min((c.worst_margin for c in rep.checks), default=math.inf)
            return -1.0 if rep.violations else max(worst, 0.0)

        records.append(_record("models", f"{name}-facts", cfg.seed, len(ps), facts))

        def geodesics(k, rng, sp=sp):
            p = ps[k % len(ps)]
            z = _minimal_symbol_for(sp, rng, p, 0.25)
            res = minimal_geodesic(sp, unitary_exp(z), p, multistarts=4, seed=cfg.seed + k)
            margin = min(1e-7 - res.endpoint_error, 1e-8 - res.minimality_certificate)
            return min(margin, p_norm(z, p, sp.ambient) + 1e-9 - res.length_p)

        records.append(_record("models", f"{name}-geodesics", cfg.seed, max(5, cfg.trials // 20), geodesics))

    return records


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "core": suite_core,
    "projection": suite_projection,
    "geometry": suite_geometry,
    "models": suite_models,
}


def run_verification_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suites and assemble the deterministic report."""
    _n_workers()  # reject a bad NCGEO_THREADS before any trial runs
    records = []
    for name in config.suites:
        records.extend(_SUITE_FNS[name](config))
    return VerificationReport(records, config)
