"""Model-space constructors and the kind-specific fact checks."""

import numpy as np
import pytest
import scipy.optimize

from ncgeo import core, models
from ncgeo.core import TracialAlgebra, operator_norm, p_norm, unitary_exp
from ncgeo.geometry import minimal_geodesic, minimality_probe
from ncgeo.models import (
    MODELS,
    ModelSpec,
    build_model_space,
    center_q_checks,
    conditional_expectation,
    diag_m2_checks,
    special_diag_checks,
    validate_space,
)
from ncgeo.projection import best_approximant, hermitian_best_approximant

SPACES = {
    "center-quotient": build_model_space(ModelSpec("center-quotient", blocks=(2, 3), weights=(0.4, 0.6))),
    "diag-m2": build_model_space(ModelSpec("diag-m2", blocks=(2,))),
    "special-diag-m2": build_model_space(ModelSpec("special-diag-m2", blocks=(2,))),
    "projection-orbit": build_model_space(ModelSpec("projection-orbit", blocks=(2,))),
    "partial-isometry-orbit": build_model_space(ModelSpec("partial-isometry-orbit", blocks=(3,))),
}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("unknown-kind")
    with pytest.raises(ValueError):
        ModelSpec(["diag-m2"])  # not a string, so not a key of MODELS
    with pytest.raises(ValueError):
        ModelSpec("diag-m2", blocks=())
    with pytest.raises(ValueError):
        ModelSpec("diag-m2", p_list=(3,))
    with pytest.raises(ValueError):
        ModelSpec("projection-orbit", e=np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        ModelSpec("partial-isometry-orbit", v0=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_every_kind_builds_and_validates():
    for name, sp in SPACES.items():
        info = validate_space(sp, trials=40)
        assert info["c_ratio"] <= sp.c_O + 1e-9
        assert all(0.0 < c <= 1.0 + 1e-12 for c in info["c_p"].values())


def test_isotropy_dimensions():
    assert SPACES["center-quotient"].isotropy.dim == 2
    # diagonal algebra of M2 (x) M2: two copies of the skew part of M2
    assert SPACES["diag-m2"].isotropy.dim == 8
    assert SPACES["special-diag-m2"].isotropy.dim == 4
    assert SPACES["projection-orbit"].isotropy.dim == 8
    # co-rank one partial isometry: a circle
    assert SPACES["partial-isometry-orbit"].isotropy.dim == 1


def test_center_isotropy_is_block_scalars():
    sp = SPACES["center-quotient"]
    for b in sp.isotropy.onb():
        assert operator_norm(b[:2, :2] - b[0, 0] * np.eye(2)) < 1e-12
        assert operator_norm(b[2:, 2:] - b[2, 2] * np.eye(3)) < 1e-12


def test_partial_isometry_isotropy_annihilates_basepoint():
    sp = SPACES["partial-isometry-orbit"]
    v0 = sp.basepoint
    for b in sp.isotropy.onb():
        assert operator_norm(b @ v0) < 1e-12


def test_projection_orbit_isotropy_commutes_with_e():
    sp = SPACES["projection-orbit"]
    e = sp.basepoint
    for b in sp.isotropy.onb():
        assert operator_norm(b @ e - e @ b) < 1e-12


def test_exact_constants():
    assert SPACES["center-quotient"].c_O == 2.0
    assert SPACES["center-quotient"].k_O(4) == 3.0
    assert SPACES["diag-m2"].k_O(4) == 1.0
    assert SPACES["projection-orbit"].k_O(2) == 1.0
    assert SPACES["special-diag-m2"].c_O == 2.0
    # empirical bounds exist and exceed the trivial contraction where inflated
    assert SPACES["partial-isometry-orbit"].c_O > 0.0
    assert SPACES["special-diag-m2"].k_O(4) >= 1.0


def test_exponential_isotropy_flag_checks_out(rng):
    # every shipped isotropy group element is the exponential of an algebra element
    for sp in SPACES.values():
        y = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
        y = y * (2.5 / max(operator_norm(y), 1e-12))
        g = unitary_exp(y)
        lg = core.principal_log(g)
        assert sp.isotropy.contains(lg, tol=1e-8)
        assert sp.isotropy_defect(g) < 1e-8


@pytest.mark.parametrize("name", sorted(MODELS))
def test_expectation_table(name, rng):
    # every kind with an expectation: E is unital, trace-preserving and
    # idempotent and fixes the isotropy span, and the isotropy group's
    # elements have no defect; every kind without one raises
    sp = SPACES[name]
    alg = sp.ambient
    x = core.random_hermitian(alg, rng) + 1j * core.random_hermitian(alg, rng)
    if MODELS[name].expectation is None:
        with pytest.raises(ValueError):
            conditional_expectation(x, sp)
        return
    ex = conditional_expectation(x, sp)
    assert operator_norm(conditional_expectation(alg.identity(), sp) - alg.identity()) < 1e-13
    assert abs(core.trace_tau(ex, alg) - core.trace_tau(x, alg)) < 1e-13
    assert operator_norm(conditional_expectation(ex, sp) - ex) < 1e-13
    for b in sp.isotropy.onb():
        assert operator_norm(conditional_expectation(b, sp) - b) < 1e-13
    for _ in range(5):
        y = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
        assert sp.isotropy_defect(unitary_exp(y)) < 1e-9


def test_constants_provenance():
    assert {k: m.constants for k, m in MODELS.items()} == {
        "center-quotient": "exact",
        "diag-m2": "exact",
        "special-diag-m2": "estimated",
        "partial-isometry-orbit": "estimated",
        "projection-orbit": "exact",
    }


# ---------------------------------------------------------------------------
# center-quotient facts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 4])
def test_center_checks_clean(p):
    rep = center_q_checks(SPACES["center-quotient"], p, trials=120, seed=5)
    assert rep.violations == 0, [c for c in rep.checks if c.violations]


def test_center_projection_matches_scalar_p_mean_oracle(rng):
    # per block, the best central approximation is the p-mean of the
    # eigenvalues: cross-check with a bounded scalar minimizer
    sp = SPACES["center-quotient"]
    alg = sp.ambient
    p = 4
    for _ in range(5):
        x = core.random_hermitian(alg, rng)
        qx = hermitian_best_approximant(x, sp.isotropy, p, tol=1e-12).projection
        for sl, d, wb in zip(alg.block_slices(), alg.block_dims, alg.trace_weights):
            lam = np.linalg.eigvalsh(x[sl, sl])

            def obj(c):
                return float(np.sum(np.abs(lam - c) ** p))

            res = scipy.optimize.minimize_scalar(obj, bounds=(lam.min(), lam.max()), method="bounded",
                                                 options={"xatol": 1e-12})
            got = qx[sl, sl][0, 0].real
            assert got == pytest.approx(res.x, abs=1e-6)


def test_center_quotient_unequal_weights_trace():
    alg = SPACES["center-quotient"].ambient
    assert alg.trace_weights == (0.4, 0.6)
    x = np.diag([1, 1, 0, 0, 0]).astype(complex)
    assert core.trace_tau(x, alg) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# diag-m2 facts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["diag-m2", "projection-orbit"])
@pytest.mark.parametrize("p", [2, 4])
def test_diag_checks_clean(name, p):
    rep = diag_m2_checks(SPACES[name], p, trials=120, seed=6)
    assert rep.violations == 0, [c for c in rep.checks if c.violations]


def test_block_diagonal_fixed_offdiagonal_killed(rng):
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    z = core.random_skew(alg, rng)
    z_diag = z.copy()
    z_diag[:2, 2:] = 0
    z_diag[2:, :2] = 0
    res = best_approximant(z_diag, sp.isotropy, 4)
    assert p_norm(res.residual, 4, alg) < 1e-9
    z_off = z - z_diag
    res = best_approximant(z_off, sp.isotropy, 4)
    assert p_norm(res.projection, 4, alg) < 1e-9


def _serial_unit_samples(alg, seed, samples):
    """The sampled constants' draws one at a time: per draw and block a real,
    then an imaginary d x d normal matrix, Hermitized, times i, scaled to unit
    operator norm; draws of norm below 1e-12 are dropped."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        z = np.zeros((alg.dim, alg.dim), dtype=complex)
        for sl, d in zip(alg.block_slices(), alg.block_dims):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            z[sl, sl] = 1j * (a + a.conj().T) / (2.0 * np.sqrt(d))
        nz = operator_norm(z)
        if nz >= 1e-12:
            out.append(z / nz)
    return out


@pytest.mark.parametrize("name", ["special-diag-m2", "partial-isometry-orbit"])
def test_sampled_constants_match_serial_draws(name):
    # the stacked estimates draw, normalize and project the same samples as
    # a loop of single draws and single solves
    sp = SPACES[name]
    iso, alg = sp.isotropy, sp.ambient
    zs = _serial_unit_samples(alg, models._CONSTANTS_SEED, 2000)
    c = 1.5 * max(operator_norm(z - iso.project(z)) for z in zs)
    assert models._estimate_c(iso, alg) == c
    zs = _serial_unit_samples(alg, models._CONSTANTS_SEED + 4, 400)
    k = 1.5 * max(max(operator_norm(best_approximant(z, iso, 4, tol=1e-9).projection) for z in zs), 1e-6)
    assert models._estimate_k(iso, alg, 4) == k


def test_estimate_k_is_one_stacked_solve(newton_stack_sizes):
    sp = SPACES["special-diag-m2"]
    models._estimate_k(sp.isotropy, sp.ambient, 4)
    assert newton_stack_sizes == [400]


# ---------------------------------------------------------------------------
# special-diag facts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 4])
def test_special_diag_checks_clean(p):
    rep = special_diag_checks(SPACES["special-diag-m2"], p, trials=120, seed=7)
    assert rep.violations == 0, [c for c in rep.checks if c.violations]
    assert rep.ratios["uniform_ratio_max"] > 0.0


def test_special_diag_optimal_shift_scalar_oracle():
    # scalar blocks: the minimizing constant-diagonal shift is -(a+c)/2,
    # found here by a dense one-dimensional grid
    alg = TracialAlgebra.tensor_square(1)
    p = 4
    gen = np.random.default_rng(17)
    for _ in range(5):
        a, b, c = gen.standard_normal(3)
        grid = np.linspace(-4, 4, 160001)
        m = np.array([[a, b], [b, c]], dtype=complex)
        vals = []
        for d in (-(a + c) / 2.0,):
            shifted = m + d * np.eye(2)
            vals.append(p_norm(shifted, p, alg))
        dense = np.empty_like(grid)
        lam_plus = (a + c) / 2 + grid
        disc = np.hypot((a - c) / 2.0, b)
        s1 = np.abs(lam_plus + disc)
        s2 = np.abs(lam_plus - disc)
        dense = ((s1**p + s2**p) / 2.0) ** (1.0 / p)
        k = int(np.argmin(dense))
        assert grid[k] == pytest.approx(-(a + c) / 2.0, abs=1e-4)
        lhs = p_norm(np.array([[(a - c) / 2, b], [b, (c - a) / 2]], dtype=complex), p, alg)
        assert dense[k] == pytest.approx(lhs, abs=1e-8)
        assert vals[0] == pytest.approx(lhs, abs=1e-12)


def test_special_diag_ratios_reported_not_asserted():
    rep = special_diag_checks(SPACES["special-diag-m2"], 4, trials=60, seed=9)
    assert 0.0 < rep.ratios["uniform_ratio_mean"] <= rep.ratios["uniform_ratio_max"]
    assert rep.ratios["uniform_ratio_max"] <= SPACES["special-diag-m2"].k_O(4) + 1e-9


def test_checks_reject_wrong_kind():
    with pytest.raises(ValueError):
        center_q_checks(SPACES["diag-m2"], 4, trials=2)
    with pytest.raises(ValueError):
        diag_m2_checks(SPACES["center-quotient"], 4, trials=2)
    with pytest.raises(ValueError):
        special_diag_checks(SPACES["diag-m2"], 4, trials=2)


# ---------------------------------------------------------------------------
# geodesics and probes across all kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("p", [2, 4])
def test_minimal_geodesic_runs_clean_on_random_targets(name, p, rng):
    # 25 targets per (kind, p): 50 certified geodesics per kind
    sp = SPACES[name]
    for _ in range(25):
        z = sp.horizontal_project(core.random_skew(sp.ambient, rng, 0.8))
        z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
        nz = operator_norm(z)
        if nz > 1e-9:
            z = z * (0.8 * sp.radius(p) / nz)
            z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
        res = minimal_geodesic(sp, unitary_exp(z), p, multistarts=3)
        assert res.endpoint_error < 1e-7
        assert res.minimality_certificate < 1e-8
        assert res.within_radius
        assert res.length_p <= p_norm(z, p, sp.ambient) + 1e-9


@pytest.mark.parametrize("name", ["special-diag-m2", "projection-orbit", "partial-isometry-orbit"])
def test_minimality_probe_all_kinds(name, rng):
    sp = SPACES[name]
    p = 4
    z = sp.horizontal_project(core.random_skew(sp.ambient, rng, 1.0))
    z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
    z = z * (0.4 * sp.epsilon_band(p) / operator_norm(z))
    z = best_approximant(z, sp.isotropy, p, tol=1e-12).residual
    rep = minimality_probe(sp, z, p, trials=8, seed=11, n_nodes=33)
    assert rep.violations == 0
    assert rep.uniqueness_violations == 0
