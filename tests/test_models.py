"""Model-space constructors and the kind-specific fact checks."""

import ast
import dataclasses
import math
import inspect

import numpy as np
import pytest
import scipy.optimize

from ncgeo import core, models
from ncgeo.core import TracialAlgebra, operator_norm, p_norm, unitary_exp
from ncgeo.geometry import HomSpace, minimal_geodesic, minimality_probe
from ncgeo.models import (
    MODELS,
    CheckResult,
    ModelSpec,
    build_model_space,
    conditional_expectation,
    model_facts,
    validate_space,
)
from ncgeo.projection import SkewSubspace, best_approximant, hermitian_best_approximant, quotient_norm
from ncgeo.suites import default_model_specs

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
    with pytest.raises(ValueError, match=r"^blocks\[0\]: expected an integer, got 2.5"):
        ModelSpec("center-quotient", blocks=(2.5, 2))
    assert ModelSpec("center-quotient", blocks=(np.int64(2), 2.0)).blocks == (2, 2)
    with pytest.raises(ValueError):
        ModelSpec("projection-orbit", e=np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        ModelSpec("partial-isometry-orbit", v0=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    # a field the kind does not read is refused by name, not dropped
    e, v0 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex), np.eye(3, k=-1, dtype=complex)
    unread = [
        ("diag-m2", {"blocks": (2, 3)}, "blocks"),
        ("partial-isometry-orbit", {"blocks": (3, 3)}, "blocks"),
        ("projection-orbit", {"blocks": (2, 2)}, "blocks"),
        ("special-diag-m2", {"weights": (1.0,)}, "weights"),
        ("projection-orbit", {"weights": (1.0,)}, "weights"),
        ("diag-m2", {"e": e}, "e"),
        ("center-quotient", {"e": e}, "e"),
        ("projection-orbit", {"v0": v0}, "v0"),
        ("special-diag-m2", {"v0": v0}, "v0"),
    ]
    for kind, kw, name in unread:
        with pytest.raises(ValueError, match=rf"^{name}: expected (one block|none) for kind {kind}$"):
            ModelSpec(kind, **kw)
    # each kind still takes the fields it reads
    assert ModelSpec("center-quotient", blocks=(2, 3), weights=(0.4, 0.6)).weights == (0.4, 0.6)
    assert ModelSpec("projection-orbit", e=e).e is not None
    assert ModelSpec("partial-isometry-orbit", v0=v0).v0 is not None
    # one size source: unset blocks read (2,) unless e or v0 sizes the space,
    # and a given blocks must agree with them
    assert ModelSpec("diag-m2").blocks == ModelSpec("projection-orbit").blocks == (2,)
    assert ModelSpec("projection-orbit", e=e).blocks is None
    disagreeing = [
        ("projection-orbit", {"blocks": (3,), "e": e}),
        ("partial-isometry-orbit", {"blocks": (5,), "v0": v0}),
        ("projection-orbit", {"blocks": (1,), "e": np.diag([1.0, 0.0, 0.0])}),
    ]
    for kind, kw in disagreeing:
        with pytest.raises(ValueError, match=r"^blocks: expected none or a size agreeing with the \dx\d (e|v0)$"):
            ModelSpec(kind, **kw)
    agreeing = build_model_space(ModelSpec("projection-orbit", blocks=(2,), e=e))
    alone = build_model_space(ModelSpec("projection-orbit", e=e))
    assert agreeing.ambient == alone.ambient and np.array_equal(agreeing.isotropy.onb(), alone.isotropy.onb())
    assert build_model_space(ModelSpec("partial-isometry-orbit", blocks=(3,), v0=v0)).ambient.dim == 3


def test_every_kind_builds_and_validates():
    for name, sp in SPACES.items():
        info = validate_space(sp, trials=40)
        assert info["c_ratio"] <= sp.c_O + 1e-9
        assert all(0.0 < c <= 1.0 + 1e-12 for c in info["c_p"].values())


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.mark.parametrize(
    "basis, message",
    [([1j * _SX, 1j * _SY], "not a Lie algebra"), ([1j * _SX], "does not fix the basepoint")],
    ids=["not-lie-closed", "moves-basepoint"],
)
def test_build_model_space_runs_the_structural_checks(basis, message, monkeypatch):
    # validate_space relies on build_model_space having run these checks,
    # so a bad isotropy basis must be refused at construction
    e = np.diag([1.0, 0.0]).astype(complex)
    build = lambda spec: (TracialAlgebra.full(2), e, basis)  # noqa: E731
    monkeypatch.setitem(MODELS, "projection-orbit", dataclasses.replace(MODELS["projection-orbit"], build=build))
    with pytest.raises(ValueError, match=message):
        build_model_space(ModelSpec("projection-orbit", blocks=(2,)))


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


# ---------------------------------------------------------------------------
# projection bounds, computed on first use
# ---------------------------------------------------------------------------

def test_building_a_space_estimates_no_projection_bound(newton_stack_sizes):
    for spec in default_model_specs():
        build_model_space(spec)
    assert newton_stack_sizes == []


def test_first_projection_bound_is_one_stack_and_then_kept(newton_stack_sizes):
    sp = build_model_space(ModelSpec("special-diag-m2", blocks=(2,)))
    first = sp.k_O(4)
    assert newton_stack_sizes == [400]
    newton_stack_sizes.clear()
    assert sp.k_O(4.0) == first
    assert newton_stack_sizes == []


@pytest.mark.parametrize(
    "spec", [s for s in default_model_specs() if MODELS[s.kind].k_exact is None], ids=lambda s: s.kind
)
def test_estimated_projection_bounds_match_the_eager_estimate(spec):
    # asked for in any order, K_p is the value a build-time estimate gave
    sp = build_model_space(spec)
    for p in (6, 2, 4):
        assert sp.k_O(p) == models._estimate_k(sp.isotropy, sp.ambient, p)


@pytest.mark.parametrize("name", sorted(name for name, model in MODELS.items() if model.k_exact is not None))
def test_exact_projection_bounds_hold_at_every_even_p(name):
    sp = SPACES[name]
    assert sp.k_O(6) == sp.k_O(64) == MODELS[name].k_exact
    for p in (3, 66):
        with pytest.raises(ValueError):
            sp.k_O(p)


def test_exponential_isotropy_flag_checks_out(rng):
    # every shipped isotropy group element is the exponential of an algebra element
    for sp in SPACES.values():
        y = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
        y = y * (2.5 / max(operator_norm(y), 1e-12))
        g = unitary_exp(y)
        lg = core.principal_log(g)
        assert sp.isotropy.contains(lg, tol=1e-8)
        assert sp.isotropy_defect(g) < 1e-8


def test_isotropy_defect_of_a_stack_is_its_largest(rng):
    # the build-time check measures its eight samples as one stack; every
    # branch (expectation, generic-basis coset, orbit action) gives the
    # largest one-matrix defect, bit for bit, and a float for one matrix
    alg = TracialAlgebra.full(3)
    iso = SkewSubspace(alg, [core.random_skew(alg, rng)])
    generic = HomSpace(alg, "coset", alg.identity(), iso, 1.0, lambda p: 1.0)
    for sp in [*SPACES.values(), generic]:
        ys = sp.isotropy.combine(rng.standard_normal((3, sp.isotropy.dim)))
        gs = np.concatenate([unitary_exp(ys), core._random_unitaries(sp.ambient, rng, 2)])
        single = [sp.isotropy_defect(g) for g in gs]
        assert all(type(d) is float for d in single)
        assert max(single[:3]) < 1e-9 < min(single[3:])
        assert sp.isotropy_defect(gs) == max(single)


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
    rep = model_facts(SPACES["center-quotient"], p, trials=120, seed=5)
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
    rep = model_facts(SPACES[name], p, trials=120, seed=6)
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
def test_special_diag_facts_clean(p):
    rep = model_facts(SPACES["special-diag-m2"], p, trials=120, seed=7)
    assert rep.violations == 0, [c for c in rep.checks if c.violations]
    assert rep.ratios["uniform_ratio_max"] > 0.0


def test_special_diag_optimal_shift_scalar_oracle():
    # scalar blocks: the minimizing constant-diagonal shift is -(a+c)/2,
    # found here by a dense one-dimensional grid
    alg = TracialAlgebra.full(2)
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
    rep = model_facts(SPACES["special-diag-m2"], 4, trials=60, seed=9)
    assert 0.0 < rep.ratios["uniform_ratio_mean"] <= rep.ratios["uniform_ratio_max"]
    assert rep.ratios["uniform_ratio_max"] <= SPACES["special-diag-m2"].k_O(4) + 1e-9


def test_model_facts_rejects_a_kind_without_fact_checks():
    sp = SPACES["partial-isometry-orbit"]
    with pytest.raises(ValueError, match="'partial-isometry-orbit' has no fact checks"):
        model_facts(sp, 4, trials=2)
    bare = HomSpace(sp.ambient, "coset", sp.ambient.identity(), sp.isotropy, 1.0, lambda p: 1.0)
    with pytest.raises(ValueError, match="model kind '' has no fact checks"):
        model_facts(bare, 4, trials=2)


def test_special_diag_facts_tolerance_only_tightens():
    # the special-diag-m2 slack is min(tol, 1e-10): a looser tol gives the
    # 1e-10 report bit for bit, a tighter one lowers the two margins that
    # carry it and leaves the Q = E agreement margin alone
    sp = SPACES["special-diag-m2"]
    at = {tol: model_facts(sp, 4, trials=30, seed=3, tol=tol) for tol in (1e-6, 1e-10, 1e-12)}
    assert at[1e-6] == at[1e-10]
    loose, tight = at[1e-10].checks, at[1e-12].checks
    assert [c.name for c in tight] == ["shifted-difference-inequality", "expectation-contractive-on-patterns",
                                       "projection-matches-expectation-on-patterns"]
    assert tight[0].worst_margin < loose[0].worst_margin and tight[1].worst_margin < loose[1].worst_margin
    assert tight[2] == loose[2] and at[1e-12].ratios == at[1e-10].ratios


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


# ---------------------------------------------------------------------------
# stacked checks against per-sample loops
# ---------------------------------------------------------------------------
# The references below are the per-sample loops the stacked checks replaced:
# one draw, one solve and one norm at a time.  The stacked checks must draw
# the same samples and give the same reports, bit for bit.


def _loop_validate_space(space, trials, seed):
    models._structural_checks(space)
    alg = space.ambient
    rng = np.random.default_rng(seed)
    worst_c_ratio = c_width = 0.0
    c_p = {p: 1.0 for p in (2, 4)}
    for k in range(trials):
        z = core.random_skew(alg, rng)
        nz = operator_norm(z)
        if nz < 1e-12:
            continue
        horiz = operator_norm(space.horizontal_project(z))
        worst_c_ratio = max(worst_c_ratio, horiz / nz)
        if k < 10:
            lower, upper = quotient_norm(z, space.isotropy, np.inf)
            if lower > 1e-12:
                worst_c_ratio = max(worst_c_ratio, horiz / lower)
            if upper > 0.0:
                c_width = max(c_width, (upper - lower) / upper)
        y = space.isotropy.project(z)
        ny = operator_norm(y)
        if ny > 1e-12:
            for p in c_p:
                c_p[p] = min(c_p[p], p_norm(y, p, alg) / ny)
    return {"c_ratio": worst_c_ratio, "c_p": c_p, "c_width": c_width}


def _loop_center_facts(space, p, trials, seed, tol=1e-8):
    alg = space.ambient
    rng = np.random.default_rng(seed)
    pos_bad = bound_bad = three_bad = jordan_bad = 0
    w_pos, w_bound, w_three, w_jordan = math.inf, math.inf, math.inf, math.inf
    for _ in range(trials):
        h = core.random_hermitian(alg, rng)
        x = h - min(float(np.min(core._block_eigvalsh(h, alg))) - 0.05, 0.0) * alg.identity()
        qx = hermitian_best_approximant(x, space.isotropy, p, tol=1e-11).projection
        eigs = core._block_eigvalsh((qx + qx.conj().T) / 2, alg)
        m = float(np.min(eigs))
        w_pos = min(w_pos, m + tol)
        pos_bad += m < -tol
        gap = operator_norm(x) + tol - float(np.max(eigs))
        w_bound = min(w_bound, gap)
        bound_bad += gap < 0
        z = core.random_skew(alg, rng)
        qz = best_approximant(z, space.isotropy, p, tol=1e-11).projection
        margin3 = 3.0 * operator_norm(z) + tol - operator_norm(qz)
        w_three = min(w_three, margin3)
        three_bad += margin3 < 0
        u = core.random_unitary(alg, rng)
        a = np.abs(rng.standard_normal(alg.dim))
        b = rng.standard_normal(alg.dim)
        x_c = u @ np.diag(a.astype(complex)) @ u.conj().T
        y_c = u @ np.diag(b.astype(complex)) @ u.conj().T
        y_plus = u @ np.diag(np.maximum(b, 0.0).astype(complex)) @ u.conj().T
        margin_j = p_norm(x_c - y_c, p, alg) + 1e-10 - p_norm(x_c - y_plus, p, alg)
        w_jordan = min(w_jordan, margin_j)
        jordan_bad += margin_j < 0
    one = alg.identity()
    unit_ok = operator_norm(hermitian_best_approximant(one, space.isotropy, p).projection - one) <= 1e-8
    return models.ModelReport(space.model_kind, p, [
        CheckResult("positivity-preserved", trials, pos_bad, w_pos),
        CheckResult("squeeze-0-to-norm", trials, bound_bad, w_bound),
        CheckResult("uniform-bound-3", trials, three_bad, w_three),
        CheckResult("jordan-inequality", trials, jordan_bad, w_jordan),
        CheckResult("unit-fixed", 1, 0 if unit_ok else 1, 0.0),
    ])


def _loop_diag_facts(space, p, trials, seed, tol=1e-8):
    alg = space.ambient
    rng = np.random.default_rng(seed)
    trunc_bad = off_bad = 0
    w_trunc, w_off = math.inf, math.inf
    for _ in range(trials):
        z = core.random_skew(alg, rng)
        q = best_approximant(z, space.isotropy, p, tol=1e-11).projection
        m_t = tol - p_norm(q - conditional_expectation(z, space), p, alg)
        w_trunc = min(w_trunc, m_t)
        trunc_bad += m_t < 0
        h = core.random_hermitian(alg, rng)
        m_o = p_norm(h, p, alg) + 1e-10 - p_norm(h - conditional_expectation(h, space), p, alg)
        w_off = min(w_off, m_o)
        off_bad += m_o < 0
    z_diag = conditional_expectation(core.random_skew(alg, rng), space)
    fixed_ok = p_norm(best_approximant(z_diag, space.isotropy, p).residual, p, alg) <= 1e-8
    z_off = core.random_skew(alg, rng)
    z_off = z_off - conditional_expectation(z_off, space)
    killed_ok = p_norm(best_approximant(z_off, space.isotropy, p).projection, p, alg) <= 1e-8
    return models.ModelReport(space.model_kind, p, [
        CheckResult("projection-is-truncation", trials, trunc_bad, w_trunc),
        CheckResult("offdiagonal-contraction", trials, off_bad, w_off),
        CheckResult("diagonal-fixed", 1, 0 if fixed_ok else 1, 0.0),
        CheckResult("offdiagonal-annihilated", 1, 0 if killed_ok else 1, 0.0),
    ])


def _loop_special_diag_facts(space, p, trials, seed, tol=1e-10):
    alg = space.ambient
    m = alg.dim // 2
    inner = TracialAlgebra.full(m)
    embed = models._embed_blocks
    rng = np.random.default_rng(seed)
    ineq_bad = contract_bad = agree_bad = 0
    w_ineq, w_contract, w_agree = math.inf, math.inf, math.inf
    ratios = []
    for k in range(trials):
        a, b, c = (core.random_hermitian(inner, rng) for _ in range(3))
        if k % 2:
            d = core.random_hermitian(inner, rng)
        else:
            d = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        lhs = p_norm(embed((a - c) / 2, b, (c - a) / 2, m), p, alg)
        shifted = embed(a, b, c, m)
        shifted[:m, :m] += d
        shifted[m:, m:] += d
        margin = p_norm(shifted, p, alg) + tol - lhs
        w_ineq = min(w_ineq, margin)
        ineq_bad += margin < 0
        sym = embed(a, b, c, m)
        e_sym = conditional_expectation(sym, space)
        m_c = p_norm(sym, p, alg) + tol - p_norm(e_sym, p, alg)
        w_contract = min(w_contract, m_c)
        contract_bad += m_c < 0
        q_sym = hermitian_best_approximant(sym, space.isotropy, p, tol=1e-11).projection
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        offd = np.zeros((2 * m, 2 * m), dtype=complex)
        offd[:m, m:] = g
        offd[m:, :m] = g.conj().T
        q_off = hermitian_best_approximant(offd, space.isotropy, p, tol=1e-11).projection
        m_a = 1e-8 - max(p_norm(q_sym - e_sym, p, alg), p_norm(q_off, p, alg))
        w_agree = min(w_agree, m_a)
        agree_bad += m_a < 0
        z = core.random_skew(alg, rng)
        nz = operator_norm(z)
        if nz > 1e-12:
            ratios.append(operator_norm(best_approximant(z, space.isotropy, p, tol=1e-10).projection) / nz)
    return models.ModelReport(space.model_kind, p, [
        CheckResult("shifted-difference-inequality", trials, ineq_bad, w_ineq),
        CheckResult("expectation-contractive-on-patterns", trials, contract_bad, w_contract),
        CheckResult("projection-matches-expectation-on-patterns", trials, agree_bad, w_agree),
    ], {
        "uniform_ratio_max": float(np.max(ratios)) if ratios else 0.0,
        "uniform_ratio_mean": float(np.mean(ratios)) if ratios else 0.0,
    })


def _same_report(rep, ref):
    assert [(c.name, c.trials, c.violations) for c in rep.checks] == [(c.name, c.trials, c.violations)
                                                                       for c in ref.checks]
    assert [c.worst_margin for c in rep.checks] == [c.worst_margin for c in ref.checks]
    assert rep.ratios == ref.ratios


_FAMILIES = [
    (_loop_center_facts, "center-quotient"),
    (_loop_diag_facts, "diag-m2"),
    (_loop_diag_facts, "projection-orbit"),
    (_loop_special_diag_facts, "special-diag-m2"),
]


@pytest.mark.parametrize("reference, name", _FAMILIES, ids=[f[1] for f in _FAMILIES])
@pytest.mark.parametrize("p", [2, 4, 6])
def test_check_families_match_per_sample_loops(reference, name, p):
    for seed, trials in ((0, 0), (1, 1), (2, 13)):
        _same_report(model_facts(SPACES[name], p, trials=trials, seed=seed), reference(SPACES[name], p, trials, seed))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_validate_space_matches_per_sample_loop(name):
    sp = SPACES[name]
    for seed, trials in ((3, 4), (4, 25)):
        assert validate_space(sp, trials=trials, seed=seed) == _loop_validate_space(sp, trials, seed)
    assert validate_space(sp, trials=0) == {"c_ratio": 0.0, "c_p": {2: 1.0, 4: 1.0}, "c_width": 0.0}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_validate_space_makes_one_newton_solve_and_no_norm_per_poll(name, newton_stack_sizes, monkeypatch):
    # the quotient norms of the c_O check are one stacked p = 64 solve of the
    # first 10 samples; no search polls the operator norm, so its calls are
    # four stacks (samples, horizontal parts, starting residuals, isotropy
    # parts) whatever the sample count
    calls = []
    norms = core._operator_norms
    monkeypatch.setattr(core, "_operator_norms", lambda x: calls.append(len(x)) or norms(x))
    for trials in (12, 40):
        calls.clear()
        newton_stack_sizes.clear()
        validate_space(SPACES[name], trials=trials, seed=5)
        assert newton_stack_sizes == [10]
        assert calls == [trials, trials, 10, trials]


def test_checks_solve_no_sample_in_a_loop():
    # the stacked checks must not slide back into per-sample solves: no for
    # or while body (nor comprehension) of validate_space or of a kind's
    # facts verifier calls a best-approximant, quotient-norm or single-matrix norm
    banned = {"best_approximant", "hermitian_best_approximant", "quotient_norm", "p_norm", "operator_norm"}
    tree = ast.parse(inspect.getsource(models))
    names = {"validate_space"} | {kind.facts.__name__ for kind in MODELS.values() if kind.facts is not None}
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert {f.name for f in functions} == names
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for fn in functions:
        for loop in (n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While, *comprehensions))):
            body = loop.body + loop.orelse if isinstance(loop, (ast.For, ast.While)) else [loop]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    assert called not in banned, f"{fn.name}:{node.lineno} calls {called} in a loop"
