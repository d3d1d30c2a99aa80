"""Acceptance criteria, one test per criterion, at desk scale.

Every test prints a single PASS/FAIL line; tolerances and trial counts are
pinned here and never loosened at runtime.  Randomness comes from the
counter-based trial streams so the whole module is reproducible.
"""

import math

import numpy as np
import pytest

from ncgeo import core
from ncgeo.core import TracialAlgebra, operator_norm, p_norm, principal_log, unitary_exp
from ncgeo.geometry import (
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
from ncgeo.models import build_model_space, model_facts
from ncgeo.projection import SkewSubspace, best_approximant, orthonormal_basis
from ncgeo.rng import trial_stream
from ncgeo.serialization import canonical_dumps
from ncgeo.suites import (
    SuiteConfig,
    _lattice_search,
    _minimal_symbol_for,
    default_model_specs,
    run_verification_suite,
)

SEED = 424242
DIMS = (2, 4)
P_EVEN = (2, 4, 6)


@pytest.fixture(scope="module")
def spaces():
    return {spec.kind: build_model_space(spec) for spec in default_model_specs()}


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_clarkson():
    tol = 1e-10
    violations = 0
    total = 0
    for n in DIMS:
        alg = TracialAlgebra.full(n)
        for p in (1.5, 2.0, 4.0, 6.0):
            q = p / (p - 1.0)
            for k in range(1000):
                rng = trial_stream(SEED, f"clarkson-{n}-{p}", k)
                a, b = core.random_skew(alg, rng), core.random_skew(alg, rng)
                na, nb = p_norm(a, p, alg), p_norm(b, p, alg)
                npl, nmi = p_norm(a + b, p, alg), p_norm(a - b, p, alg)
                lhs = (npl**q + nmi**q) ** (1 / q) if p <= 2 else (npl**p + nmi**p) ** (1 / p)
                rhs = 2.0 ** (1 / q) * (na**p + nb**p) ** (1 / p)
                total += 1
                if lhs > rhs + tol:
                    violations += 1
    _report(1, "clarkson-inequalities", violations == 0, f"{violations}/{total} violations at 1e-10")


def _unitary_pairs(alg, label, count):
    """Stacks (us, vs) of ``count`` pairs; pair k is the two random_unitary
    draws of trial_stream(SEED, label, k), in that order."""
    pairs = []
    for k in range(count):
        rng = trial_stream(SEED, label, k)
        pairs.append((core.random_unitary(alg, rng), core.random_unitary(alg, rng)))
    return np.array([u for u, _ in pairs]), np.array([v for _, v in pairs])


def test_criterion_02_distance_sandwich():
    lo = math.sqrt(1.0 - math.pi**2 / 12.0)
    violations = 0
    total = 0
    for p in P_EVEN:
        for n in DIMS:
            alg = TracialAlgebra.full(n)
            # each pair from its own trial stream, the distances and gaps as stacks
            us, vs = _unitary_pairs(alg, f"sandwich-{n}-{p}", 1000 // len(DIMS))
            d = unitary_distance(us, vs, p, alg)
            gap = core._p_norms(us - vs, p, alg)
            total += len(d)
            violations += int(np.count_nonzero(~((lo * d <= gap + 1e-9) & (gap <= d + 1e-9))))
    pi_err = max(
        abs(unitary_distance(np.eye(n, dtype=complex), -np.eye(n, dtype=complex), p, TracialAlgebra.full(n)) - math.pi)
        for n in DIMS
        for p in P_EVEN
    )
    # the diameter never exceeds pi: 10_000 sampled pairs
    alg = TracialAlgebra.full(4)
    diam = float(np.max(unitary_distance(*_unitary_pairs(alg, "diameter", 10_000), 4, alg)))
    ok = violations == 0 and pi_err <= 1e-12 and diam <= math.pi + 1e-9
    _report(
        2,
        "distance-sandwich",
        ok,
        f"{violations}/{total} violations, antipode error {pi_err:.1e}, sampled diameter {diam:.6f}",
    )


def test_criterion_03_unitary_minimality():
    alg = TracialAlgebra.full(4)
    p = 4
    worst = math.inf
    violations = 0
    for k in range(100):
        rng = trial_stream(SEED, "unitary-minimality", k)
        z = core.random_skew(alg, rng)
        z = z * (rng.uniform(0.05, 1.0) * math.pi / max(operator_norm(z), 1e-12))
        base = p_norm(z, p, alg)
        for _ in range(20):
            xi = core.random_skew(alg, rng)
            comp = loop_deformed_exp_curve(z, xi, rng.uniform(0.05, 0.8), n_nodes=65)
            margin = curve_length_p(comp, p, alg) - (base - 1e-6)
            worst = min(worst, margin)
            if margin < 0:
                violations += 1
    _report(3, "unitary-minimality", violations == 0, f"2000 competitors, worst margin {worst:.2e}")


def test_criterion_04_best_approximant_certification():
    alg = TracialAlgebra.full(4)
    worst_resid = 0.0
    worst_identity = 0.0
    for k in range(500):
        rng = trial_stream(SEED, "bestapprox-identities", k)
        p = P_EVEN[k % len(P_EVEN)]
        S = orthonormal_basis(SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(3)]))
        z = core.random_skew(alg, rng)
        res = best_approximant(z, S, p)
        worst_resid = max(worst_resid, res.optimality_residual)
        gap = p_norm(best_approximant(res.residual, S, p).projection, p, alg)
        gap = max(gap, p_norm(res.projection, p, alg) - 2.0 * p_norm(z, p, alg))
        lam = -2.0 if k % 2 else 0.5
        gap = max(gap, p_norm(best_approximant(lam * z, S, p).projection - lam * res.projection, p, alg))
        worst_identity = max(worst_identity, gap)
    oracle_gap = 0.0
    alg3 = TracialAlgebra.full(3)
    for k in range(10):
        rng = trial_stream(SEED, "bestapprox-oracle", k)
        S = SkewSubspace(alg3, [core.random_skew(alg3, rng) for _ in range(2)])
        z = core.random_skew(alg3, rng, 0.6)
        res = best_approximant(z, S, 4)
        c = _lattice_search(z, S, 4, alg3)
        oracle_gap = max(oracle_gap, float(np.max(np.abs(res.coefficients - c))))
    ok = worst_resid <= 1e-10 and worst_identity <= 1e-8 and oracle_gap <= 1e-4
    _report(
        4,
        "best-approximant-certification",
        ok,
        f"residual {worst_resid:.1e}, identities {worst_identity:.1e}, oracle gap {oracle_gap:.1e}",
    )


def test_criterion_05_minimal_lifting_equivalence():
    alg = TracialAlgebra.full(4)
    worst = math.inf
    for k in range(200):
        rng = trial_stream(SEED, "perpep", k)
        p = P_EVEN[k % len(P_EVEN)]
        S = orthonormal_basis(SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(3)]))
        z = core.random_skew(alg, rng)
        res = best_approximant(z, S, p)
        worst = min(worst, 1e-10 - res.optimality_residual)
        base = p_norm(res.residual, p, alg)
        for eps in (1e-2, -1e-2, 1e-4, -1e-4):
            y = S.combine(rng.standard_normal(S.dim))
            worst = min(worst, p_norm(res.residual + eps * y, p, alg) - base + 1e-8)
    _report(5, "minimal-lifting-equivalence", worst >= 0, f"200 trials, worst margin {worst:.2e}")


def test_criterion_06_lifting_ode(spaces):
    sp = spaces["diag-m2"]
    worst_defect = 0.0
    for k in range(50):
        rng = trial_stream(SEED, "lift-ode", k)
        nodes = np.array(
            [sp.isotropy.combine(0.35 * rng.standard_normal(sp.isotropy.dim)) for _ in range(9)]
        )
        lift = lift_ode_solve(SampledCurve(np.linspace(0, 1, 9), nodes, target="algebra"), sp)
        worst_defect = max(worst_defect, lift.defect)
    rng = trial_stream(SEED, "lift-ode-const", 0)
    w0 = sp.isotropy.combine(0.3 * rng.standard_normal(sp.isotropy.dim))
    lift = lift_ode_solve(SampledCurve(np.linspace(0, 1, 9), np.repeat(w0[None], 9, axis=0), target="algebra"), sp)
    const_err = max(
        operator_norm(lift.z.nodes[j] - lift.z.grid[j] * w0) for j in range(len(lift.z.grid))
    )
    ok = worst_defect < 1e-6 and const_err <= 1e-12
    _report(6, "lifting-ode", ok, f"worst defect {worst_defect:.2e}, constant case {const_err:.2e}")


def test_criterion_07_epsilon_isometric_lifts(spaces):
    worst = math.inf
    count = 0
    for name, sp in sorted(spaces.items()):
        alg = sp.ambient
        for k in range(50):
            rng = trial_stream(SEED, f"eps-lift-{name}", k)
            p = (2, 4)[k % 2]
            z = core.random_skew(alg, rng, 0.35)
            xi = core.random_skew(alg, rng, 0.3)
            gamma = loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65)
            for eps in (1e-2, 1e-3):
                res = epsilon_isometric_lift(gamma, sp, p, eps)
                worst = min(worst, res.quotient_length_p + eps + 1e-5 - res.length_p)
                count += 1
    _report(7, "epsilon-isometric-lifts", worst >= 0, f"{count} lifts, worst margin {worst:.2e}")


def test_criterion_08_coset_equals_curve_infimum(spaces):
    worst_eq = math.inf
    worst_metric = math.inf
    for name, sp in sorted(spaces.items()):
        alg = sp.ambient
        for k in range(20):
            rng = trial_stream(SEED, f"iguales-{name}", k)
            p = (2, 4)[k % 2]
            z0 = _minimal_symbol_for(sp, rng, p, 0.5)
            g = unitary_exp(sp.isotropy.combine(0.4 * rng.standard_normal(sp.isotropy.dim)))
            v = unitary_exp(z0) @ g
            dq = quotient_distance(sp, alg.identity(), v, p, multistarts=6, seed=k).value
            geo = minimal_geodesic(sp, v, p, multistarts=6, seed=k + 1)
            best_len = min(
                quotient_length(exp_curve(geo.symbol, 33), sp, p),
                quotient_length(exp_curve(z0, 33), sp, p),
            )
            worst_eq = min(worst_eq, 5e-4 - abs(dq - best_len))
    sp = spaces["center-quotient"]
    alg = sp.ambient
    for k in range(10):
        rng = trial_stream(SEED, "coset-metric", k)
        us = []
        for _ in range(3):
            z = core.random_skew(alg, rng)
            z = z * (rng.uniform(0.2, 1.2) / max(operator_norm(z), 1e-12))
            g = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
            us.append(unitary_exp(z) @ unitary_exp(0.5 * g))
        d01 = quotient_distance(sp, us[0], us[1], 4, multistarts=12, seed=k).value
        d10 = quotient_distance(sp, us[1], us[0], 4, multistarts=12, seed=k + 1).value
        d02 = quotient_distance(sp, us[0], us[2], 4, multistarts=12, seed=k + 2).value
        d21 = quotient_distance(sp, us[2], us[1], 4, multistarts=12, seed=k + 3).value
        worst_metric = min(worst_metric, 1e-8 - abs(d01 - d10), d02 + d21 - d01 + 1e-8)
    ok = worst_eq >= 0 and worst_metric >= 0
    _report(
        8,
        "coset-vs-rectifiable-distance",
        ok,
        f"equality margin {worst_eq:.2e}, metric margin {worst_metric:.2e}",
    )


def test_criterion_09_convexity():
    alg = TracialAlgebra.full(3)
    done = 0
    k = 0
    worst = math.inf
    while done < 100:
        rng = trial_stream(SEED, "convexity", k)
        k += 1
        p = P_EVEN[k % len(P_EVEN)]
        v = unitary_exp(core.random_skew(alg, rng, 0.2))
        w = v @ unitary_exp(core.random_skew(alg, rng, 0.2))
        u = unitary_exp(core.random_skew(alg, rng, 0.25))
        if operator_norm(u - v) >= math.sqrt(2) or operator_norm(w - v) >= math.sqrt(2) - operator_norm(u - v):
            continue
        rep = convexity_probe(u, v, w, p, alg)
        if rep.collinear:
            continue
        done += 1
        worst = min(worst, rep.min_second_difference + 1e-8, rep.mean_second_difference)
    # collinear configurations are flagged, not asserted convex
    rng = trial_stream(SEED, "convexity-collinear", 0)
    v = unitary_exp(core.random_skew(alg, rng, 0.2))
    z = core.random_skew(alg, rng, 0.3)
    rep = convexity_probe(v @ unitary_exp(-0.4 * z), v, v @ unitary_exp(z), 4, alg)
    ok = worst >= 0 and rep.collinear
    _report(9, "local-convexity", ok, f"100 triples, worst margin {worst:.2e}, collinear flagged {rep.collinear}")


def test_criterion_10_minimality_band(spaces):
    total_comp = 0
    violations = 0
    uniq_checked = 0
    uniq_bad = 0
    for name, sp in sorted(spaces.items()):
        p = 4
        for j in range(4):
            rng = trial_stream(SEED, f"band-{name}", j)
            z = _minimal_symbol_for(sp, rng, p, 1.0)
            nz = operator_norm(z)
            if nz < 1e-9:
                continue
            z = z * (0.4 * sp.epsilon_band(p) / nz)
            z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
            rep = minimality_probe(sp, z, p, trials=50, seed=SEED + j, n_nodes=33)
            total_comp += rep.trials - rep.vacuous
            violations += rep.violations
            uniq_checked += rep.uniqueness_checked
            uniq_bad += rep.uniqueness_violations
    ok = violations == 0 and uniq_bad == 0 and total_comp >= 5 * 200 * 0.9 and uniq_checked >= 10
    _report(
        10,
        "geodesic-minimality-band",
        ok,
        f"{total_comp} competitors, {violations} violations, uniqueness {uniq_bad}/{uniq_checked} bad",
    )


def test_criterion_11_model_space_facts(spaces):
    bad = {}
    for p in (2, 4):
        for label, name in (("center", "center-quotient"), ("diag", "diag-m2"), ("projection", "projection-orbit"),
                            ("special", "special-diag-m2")):
            bad[f"{label}-p{p}"] = model_facts(spaces[name], p, trials=500, seed=SEED, tol=1e-8).violations
    total = sum(bad.values())
    _report(11, "model-space-facts", total == 0, f"violations by kind: {bad}")


def test_criterion_12_fold_and_spectral():
    worst_fold = 0.0
    worst_spec = 0.0
    for k in range(500):
        rng = trial_stream(SEED, "fold-spectral", k)
        alg = TracialAlgebra.full(DIMS[k % len(DIMS)])
        z = core.random_hermitian(alg, rng)
        z = z * (rng.uniform(1.1, 5.0) * math.pi / max(operator_norm(z), 1e-12))
        f = core.fold_symbol(z)
        worst_fold = max(worst_fold, operator_norm(unitary_exp(1j * f) - unitary_exp(1j * z)))
        for p in (2, 4):
            if p_norm(f, p, alg) >= p_norm(z, p, alg):
                worst_fold = max(worst_fold, 1.0)
        mu_f, mu_z = core.s_numbers(f, alg), core.s_numbers(z, alg)
        ts = np.linspace(0.019, 0.999, 37)
        worst_fold = max(worst_fold, float(np.max(mu_f(ts) - mu_z(ts))))
        x = core.random_hermitian(alg, rng)
        lam = core.spectral_scale(x, alg)
        worst_spec = max(worst_spec, abs(lam.integrate() - core.trace_tau(x, alg).real))
        worst_spec = max(worst_spec, abs(lam.integrate(lambda v: v**2) - core.trace_tau(x @ x, alg).real))
        worst_spec = max(worst_spec, abs(lam.integrate(lambda v: np.abs(v) ** 4) - p_norm(x, 4, alg) ** 4))
    ok = worst_fold <= 1e-10 and worst_spec <= 1e-10
    _report(12, "fold-and-spectral-scale", ok, f"fold defect {worst_fold:.1e}, scale identity {worst_spec:.1e}")


def test_criterion_13_determinism():
    cfg = {"seed": 11, "dims": [2], "p_list": [2, 4], "trials": 5}
    r1 = run_verification_suite(SuiteConfig.from_json(cfg))
    r2 = run_verification_suite(SuiteConfig.from_json(cfg))
    b1 = canonical_dumps(r1.to_json())
    b2 = canonical_dumps(r2.to_json())
    ok = b1 == b2 and r1.passed
    _report(13, "report-determinism", ok, f"bytes equal: {b1 == b2}, run passed: {r1.passed}")
