"""Distances, curves, the lifting ODE, almost-isometric lifts, geodesics,
and the convexity and minimality probes."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from ncgeo import core, projection
from ncgeo.core import TracialAlgebra, operator_norm, p_norm, principal_log, unitary_exp
from ncgeo.geometry import (
    _FD_INTERIOR,
    _FD_LEFT,
    HomSpace,
    ProbeReport,
    _check_unitary_nodes,
    _constant_speed_params,
    _differentiate_nodes,
    _geodesic_resample,
    _fd_matrix,
    _loop_deformed_nodes,
    _magnus_affine,
    _prefix_products,
    _simpson,
    SampledCurve,
    convexity_probe,
    curve_length_p,
    epsilon_isometric_lift,
    exp_curve,
    lift_ode_solve,
    loop_deformed_exp_curve,
    minimal_geodesic,
    minimality_probe,
    orbit_gap,
    quotient_distance,
    quotient_distances,
    quotient_length,
    quotient_uniform_length,
    rectifiable_path_length,
    reparametrized_exp_curve,
    unitary_distance,
)
from ncgeo.models import ModelSpec, build_model_space
from ncgeo.projection import SkewSubspace, best_approximant, quotient_norm
from ncgeo.rng import trial_stream
from ncgeo.suites import default_model_specs

M3 = TracialAlgebra.full(3)
M4 = TracialAlgebra.full(4)

SPACES = {
    "center-quotient": build_model_space(ModelSpec("center-quotient", blocks=(2, 2))),
    "diag-m2": build_model_space(ModelSpec("diag-m2", blocks=(2,))),
    "partial-isometry-orbit": build_model_space(ModelSpec("partial-isometry-orbit", blocks=(3,))),
}


def _trivial_isotropy_space(alg):
    iso = SkewSubspace(alg, [])
    return HomSpace(alg, "coset", alg.identity(), iso, 1.0, lambda p: 1e-9)


def _minimal_symbol(space, rng, p=4, scale=0.3):
    z = space.horizontal_project(core.random_skew(space.ambient, rng, scale))
    return best_approximant(z, space.isotropy, p, tol=1e-12).residual


# ---------------------------------------------------------------------------
# unitary distance
# ---------------------------------------------------------------------------


def test_distance_to_self_and_symmetry(rng):
    for _ in range(10):
        u = core.random_unitary(M4, rng)
        v = core.random_unitary(M4, rng)
        assert unitary_distance(u, u, 4, M4) < 1e-12
        assert unitary_distance(u, v, 4, M4) == pytest.approx(unitary_distance(v, u, 4, M4), abs=1e-9)


def test_distance_one_to_minus_one_is_pi():
    one = np.eye(4, dtype=complex)
    for p in (1, 2, 4, 6, np.inf):
        assert unitary_distance(one, -one, p, M4) == pytest.approx(np.pi, abs=1e-12)


def test_triangle_inequality(rng):
    for _ in range(60):
        u, v, w = (core.random_unitary(M4, rng) for _ in range(3))
        duv = unitary_distance(u, v, 4, M4)
        duw = unitary_distance(u, w, 4, M4)
        dwv = unitary_distance(w, v, 4, M4)
        assert duv <= duw + dwv + 1e-9


def test_left_invariance(rng):
    for _ in range(20):
        u, v, w = (core.random_unitary(M4, rng) for _ in range(3))
        assert unitary_distance(w @ u, w @ v, 4, M4) == pytest.approx(
            unitary_distance(u, v, 4, M4), abs=1e-10
        )


@pytest.mark.parametrize("p", [2, 4, 6])
def test_distance_sandwich(p, rng):
    lo = math.sqrt(1.0 - np.pi**2 / 12.0)
    for _ in range(300):
        u = core.random_unitary(M4, rng)
        v = core.random_unitary(M4, rng)
        d = unitary_distance(u, v, p, M4)
        gap = p_norm(u - v, p, M4)
        assert lo * d <= gap + 1e-9
        assert gap <= d + 1e-9


@pytest.mark.parametrize("p", [2, 4, 3.0, np.inf])
def test_stacked_unitary_distance_is_each_pair_bit_for_bit(p, rng):
    # Haar pairs, an equal pair, an antipodal pair and a near-identity pair,
    # on one block and on two weighted blocks
    for alg in (M4, TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))):
        one = alg.identity()
        us = np.array([core.random_unitary(alg, rng) for _ in range(5)] + [one, one, one])
        vs = np.array([core.random_unitary(alg, rng) for _ in range(5)]
                      + [one, -one, unitary_exp(core.random_skew(alg, rng, 1e-6))])
        d = unitary_distance(us, vs, p, alg)
        assert d.shape == (8,)
        assert d.tolist() == [unitary_distance(u, v, p, alg) for u, v in zip(us, vs)]
    assert isinstance(unitary_distance(us[0], vs[0], p, alg), float)
    with pytest.raises(ValueError, match="does not match algebra dim"):
        unitary_distance(us, vs, p, M4)


def test_diameter_is_pi(rng):
    worst = 0.0
    for _ in range(500):
        u = core.random_unitary(M4, rng)
        v = core.random_unitary(M4, rng)
        worst = max(worst, unitary_distance(u, v, 4, M4))
    assert worst <= np.pi + 1e-9


# ---------------------------------------------------------------------------
# curve lengths
# ---------------------------------------------------------------------------


def test_constant_curve_has_zero_length():
    u = np.eye(3, dtype=complex)
    c = SampledCurve(np.linspace(0, 1, 9), np.repeat(u[None], 9, axis=0), target="unitary")
    assert curve_length_p(c, 4, M3) < 1e-12


def test_exp_curve_length_is_symbol_norm(rng):
    for _ in range(10):
        z = core.random_skew(M4, rng)
        z = z * (rng.uniform(0.1, 1.0) * np.pi / max(operator_norm(z), 1e-12))
        c = exp_curve(z, 33)
        for p in (2, 4):
            assert curve_length_p(c, p, M4) == pytest.approx(p_norm(z, p, M4), abs=1e-11)


def test_exp_curve_beats_unitary_competitors(rng):
    # one-parameter curves minimize length among curves joining 1 to e^z
    for _ in range(15):
        z = core.random_skew(M4, rng)
        z = z * (rng.uniform(0.1, 1.0) * np.pi / max(operator_norm(z), 1e-12))
        base = p_norm(z, 4, M4)
        xi = core.random_skew(M4, rng)
        comp = loop_deformed_exp_curve(z, xi, rng.uniform(0.1, 0.8), n_nodes=65)
        assert curve_length_p(comp, 4, M4) >= base - 1e-6
        # two-leg geodesic detours obey the same bound through the triangle rule
        mid = core.random_unitary(M4, rng)
        detour = unitary_distance(np.eye(4, dtype=complex), mid, 4, M4) + unitary_distance(
            mid, unitary_exp(z), 4, M4
        )
        assert detour >= base - 1e-9


def test_finite_difference_length_order(rng):
    z = core.random_skew(M4, rng, 0.7)
    xi = core.random_skew(M4, rng, 0.5)
    lengths = {}
    for n in (17, 33, 65):
        c = loop_deformed_exp_curve(z, xi, 0.6, n_nodes=n)
        bare = SampledCurve(c.grid, c.nodes, target="unitary")  # drop exact velocities
        lengths[n] = curve_length_p(bare, 4, M4)
    ref = curve_length_p(loop_deformed_exp_curve(z, xi, 0.6, n_nodes=129), 4, M4)
    e1, e2 = abs(lengths[17] - ref), abs(lengths[33] - ref)
    assert e2 <= 0.5 * e1 + 1e-12


def test_curve_validation_rejects_coarse_grids():
    z = principal_log(-np.eye(2, dtype=complex))
    nodes = np.array([np.eye(2, dtype=complex), unitary_exp(z)])
    c = SampledCurve(np.linspace(0, 1, 2), nodes, target="unitary")
    with pytest.raises(ValueError):
        c.validate_unitary()


# ---------------------------------------------------------------------------
# quotient lengths
# ---------------------------------------------------------------------------


def test_curve_inside_isotropy_has_zero_quotient_length(rng):
    sp = SPACES["diag-m2"]
    y = sp.isotropy.combine(0.4 * rng.standard_normal(sp.isotropy.dim))
    c = exp_curve(y, 17)
    assert quotient_length(c, sp, 4) < 1e-9


def test_horizontal_exp_curve_quotient_length(rng):
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng)
    c = exp_curve(z, 33)
    assert quotient_length(c, sp, 4) == pytest.approx(p_norm(z, 4, sp.ambient), abs=1e-9)


@pytest.mark.parametrize("p", [4.5, math.inf])
def test_quotient_length_takes_even_p_only(p, rng):
    # a fractional p is not truncated to the even p below it, and p = inf
    # (whose quotient norm is a bracket) is no OverflowError
    sp = SPACES["diag-m2"]
    with pytest.raises(ValueError, match="even"):
        quotient_length(exp_curve(_minimal_symbol(sp, rng), 9), sp, p)


@pytest.mark.parametrize("p", [4.5, math.inf])
def test_space_bounds_take_even_p_only(p):
    sp = SPACES["diag-m2"]
    for bound in (sp.k_O, sp.epsilon_band, sp.radius):
        with pytest.raises(ValueError, match="even"):
            bound(p)


def test_quotient_speeds_match_cold_solves(rng):
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    gamma = loop_deformed_exp_curve(core.random_skew(alg, rng, 0.5), core.random_skew(alg, rng, 0.3), 0.5, n_nodes=17)
    vel = gamma.left_velocities()
    speeds, projections = quotient_norm(vel, sp.isotropy, 4, return_witness=True)
    for v, q, s in zip(vel, projections, speeds):
        cold = best_approximant(v, sp.isotropy, 4)
        assert operator_norm(q - cold.projection) < 1e-9
        assert s == pytest.approx(p_norm(cold.residual, 4, alg), abs=1e-12)
    assert quotient_length(gamma, sp, 4) == float(scipy.integrate.simpson(speeds, x=gamma.grid))


def test_quotient_length_independent_of_lift(rng):
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    z = core.random_skew(alg, rng, 0.5)
    xi = core.random_skew(alg, rng, 0.3)
    gamma = loop_deformed_exp_curve(z, xi, 0.5, n_nodes=33)
    y0 = sp.isotropy.combine(0.6 * rng.standard_normal(sp.isotropy.dim))
    # second lift: right-translate by a vertical curve u(t) = e^{phi(t) y0}
    cy = core.Eigenframe(y0)
    nodes = np.empty_like(gamma.nodes)
    vel = np.empty_like(gamma.nodes)
    for k, t in enumerate(gamma.grid):
        phi = math.sin(math.pi * t)
        dphi = math.pi * math.cos(math.pi * t)
        u = cy.exp(phi)
        nodes[k] = gamma.nodes[k] @ u
        vel[k] = u.conj().T @ gamma.velocities[k] @ u + dphi * y0
    lifted = SampledCurve(gamma.grid, nodes, target="unitary", velocities=vel)
    l1 = quotient_length(gamma, sp, 4)
    l2 = quotient_length(lifted, sp, 4)
    assert l1 == pytest.approx(l2, abs=1e-6)


# ---------------------------------------------------------------------------
# quotient distance
# ---------------------------------------------------------------------------


def test_quotient_distance_trivial_isotropy(rng):
    sp = _trivial_isotropy_space(M3)
    u, v = core.random_unitary(M3, rng), core.random_unitary(M3, rng)
    qd = quotient_distance(sp, u, v, 4)
    assert qd.value == pytest.approx(unitary_distance(u, v, 4, M3), abs=1e-12)


def test_quotient_distance_same_fiber_is_zero(rng):
    sp = SPACES["diag-m2"]
    u = core.random_unitary(sp.ambient, rng)
    g = unitary_exp(sp.isotropy.combine(0.5 * rng.standard_normal(sp.isotropy.dim)))
    qd = quotient_distance(sp, u, u @ g, 4, multistarts=4)
    assert qd.value < 1e-6


def _center_oracle(u, v, p, alg):
    # separable oracle: after reducing to the block phases, the coset
    # distance splits into independent one-dimensional minimizations
    base = u.conj().T @ v
    total = 0.0
    for sl, d, wb in zip(alg.block_slices(), alg.block_dims, alg.trace_weights):
        th = np.angle(np.linalg.eigvals(base[sl, sl]))
        grid = np.linspace(-np.pi, np.pi, 400001)
        shifted = (th[None, :] + grid[:, None] + np.pi) % (2 * np.pi) - np.pi
        total += np.min(np.sum(np.abs(shifted) ** p, axis=1)) * (wb / d)
    return total ** (1.0 / p)


def test_quotient_distance_center_oracle(rng):
    sp = SPACES["center-quotient"]
    alg = sp.ambient
    for trial in range(12):
        p = (4, 6)[trial % 2]
        u = core.random_unitary(alg, rng)
        v = core.random_unitary(alg, rng)
        qd = quotient_distance(sp, u, v, p, multistarts=16, seed=trial)
        assert qd.value == pytest.approx(_center_oracle(u, v, p, alg), abs=1e-4)
        assert qd.stationarity_residual < 1e-9


def test_quotient_distance_partial_isometry_oracle(rng):
    # the isotropy algebra is one-dimensional: sweep the circle exactly
    sp = SPACES["partial-isometry-orbit"]
    alg = sp.ambient
    q = sp.basepoint @ sp.basepoint.conj().T
    corner = np.eye(3, dtype=complex) - q
    thetas = np.linspace(-np.pi, np.pi, 20001)
    gs = np.eye(3, dtype=complex)[None] + (np.exp(1j * thetas)[:, None, None] - 1.0) * corner[None]
    for trial in range(8):
        p = (4, 6)[trial % 2]
        u = core.random_unitary(alg, rng)
        v = core.random_unitary(alg, rng)
        angles = np.angle(np.linalg.eigvals((u.conj().T @ v)[None] @ gs))
        vals = np.mean(np.abs(angles) ** p, axis=1) ** (1.0 / p)
        qd = quotient_distance(sp, u, v, p, multistarts=6, seed=trial)
        assert qd.value <= vals.min() + 1e-6
        assert qd.value >= vals.min() - 1e-4
        assert qd.stationarity_residual <= 1e-9


def _seeded_starts(G, alg, base, rng, draws):
    """The coset starts drawn one at a time: the identity, the undone isotropy
    part of log(base), then ``draws`` seeded points, alternately a box point
    and an isotropy direction of norm uniform in [0.2 pi, 0.8 pi]."""
    m = G.dim
    starts = [np.zeros(m), -G.coords(principal_log(base))]
    for j in range(draws):
        if j % 2 == 0:
            starts.append(rng.uniform(-np.pi, np.pi, size=m))
        else:
            y = G.project(core.random_skew(alg, rng))
            nrm = operator_norm(y)
            if nrm > 1e-12:
                y = y * (rng.uniform(0.2, 0.8) * np.pi / nrm)
            starts.append(G.coords(y))
    return starts


def lbfgs_quotient_distance(space, u, v, p, multistarts=6, seed=0, tol=1e-9):
    """The coset distance by an independent optimizer, as a reference
    oracle: scipy L-BFGS-B from each start in turn (the identity, the
    undone isotropy part of log(u* v), then seeded box points and isotropy
    directions, alternately) on the box [-pi - 0.5, pi + 0.5]^m with the
    exact gradient, one retry from jittered starts when the best run ends on
    the cut locus, and a one-instance Newton polish.  Returns (value,
    certificate)."""
    alg, G = space.ambient, space.isotropy
    base = u.conj().T @ v
    m, sign = G.dim, (-1) ** (p // 2)
    rng = np.random.default_rng(seed)
    starts = _seeded_starts(G, alg, base, rng, max(0, multistarts - 2))

    def value_and_grad(c):
        # the gradient (-1)^(p/2) p tau(w^{p-1} F(ad B) b_k) with F(ad B)
        # transposed to G(ad B) on w^{p-1}
        calc = core.Eigenframe(G.combine(c))
        w = principal_log(base @ calc.exp())
        f = float(np.real(sign * core.trace_tau(np.linalg.matrix_power(w, p), alg)))
        pulled = calc.apply(lambda x: core._sym_F(-x), np.linalg.matrix_power(w, p - 1))
        return f, sign * p * np.real(core._tau_stack(pulled, G.onb(), alg))

    def sweep(points):
        runs = [
            scipy.optimize.minimize(
                value_and_grad, np.clip(c0, -np.pi, np.pi), jac=True, method="L-BFGS-B",
                bounds=[(-np.pi - 0.5, np.pi + 0.5)] * m,
                options={"maxiter": 300, "ftol": 1e-16, "gtol": 1e-12},
            )
            for c0 in points
        ]
        return min(runs, key=lambda r: r.fun)

    best = sweep(starts)
    g = unitary_exp(G.combine(best.x))
    if operator_norm(np.eye(alg.dim) - base @ g) >= 2.0 - 1e-6:
        retry = sweep([c + rng.uniform(-0.3, 0.3, size=m) for c in starts])
        if retry.fun < best.fun:
            g = unitary_exp(G.combine(retry.x))

    def retract(ids, g, d):
        g_try = g[0] @ unitary_exp(G.combine(d[0]))
        if operator_norm(np.eye(alg.dim) - base @ g_try) >= 2.0 - 1e-6:
            return g, np.full_like(g, np.nan)
        return g_try[None], principal_log(base @ g_try)[None]

    def left(ids, frame, bt):
        return bt / frame.ad_symbol(core._sym_F)[:, None]

    _, f, resid, _ = projection._newton(g[None], principal_log(base @ g)[None], retract, left, G.onb(), p, alg, tol)
    return max(float(f[0]), 0.0) ** (1.0 / p), float(resid[0])


def test_quotient_distance_matches_the_lbfgs_oracle():
    # a fixed pool at the suites' radii over the five default model kinds:
    # the stacked Newton multistart never ends above the L-BFGS-B optimizer
    spaces = [build_model_space(spec) for spec in default_model_specs()]
    gen = np.random.default_rng(11)
    for k in range(20):
        sp = spaces[k % 5]
        p, scale, multistarts = (4, 6)[k // 5 % 2], (0.25, 0.5, 0.8)[k % 3], (4, 6, 8)[k % 3]
        u = unitary_exp(core.random_skew(sp.ambient, gen, scale))
        v = unitary_exp(core.random_skew(sp.ambient, gen, scale))
        qd = quotient_distance(sp, u, v, p, multistarts=multistarts, seed=k)
        ref, _ = lbfgs_quotient_distance(sp, u, v, p, multistarts, seed=k)
        assert qd.value <= ref + 1e-12
        assert qd.stationarity_residual <= 1e-9


def test_quotient_distance_is_one_newton_stack(rng, newton_stack_sizes):
    # every start is one instance of one lockstep Newton solve per stage (at
    # p = 2, then for p > 2 at p from there): the identity, the undone
    # isotropy part of log(u* v), and three seeded points for each further start
    sp = SPACES["diag-m2"]
    u, v = core.random_unitary(sp.ambient, rng), core.random_unitary(sp.ambient, rng)
    for multistarts, size in ((1, 2), (2, 2), (4, 8), (6, 14)):
        for p, stages in ((2, 1), (4, 2)):
            newton_stack_sizes.clear()
            qd = quotient_distance(sp, u, v, p, multistarts=multistarts)
            assert newton_stack_sizes == [size] * stages and qd.starts == size


@pytest.mark.parametrize("kind", ["center-quotient", "diag-m2", "partial-isometry-orbit", "trivial"])
def test_quotient_distances_match_per_query_calls(kind, rng, newton_stack_sizes):
    # the starts of all queries run in one lockstep Newton stack per stage,
    # and each query gets the value, minimizer, certificate and start count
    # of its own call, bit for bit
    sp = _trivial_isotropy_space(M3) if kind == "trivial" else SPACES[kind]
    alg = sp.ambient
    us = np.array([unitary_exp(core.random_skew(alg, rng, s)) for s in (0.3, 0.8, 1.5, 0.8)])
    vs = np.array([unitary_exp(core.random_skew(alg, rng, s)) for s in (0.3, 0.8, 1.5, 0.8)])
    vs[3] = us[3]
    for p, multistarts in ((4, 6), (6, 3)):
        newton_stack_sizes.clear()
        batch = quotient_distances(sp, us, vs, p, multistarts=multistarts, seeds=[5, 6, 7, 8])
        assert newton_stack_sizes == ([] if kind == "trivial" else [4 * (3 * multistarts - 4)] * 2)
        for u, v, seed, res in zip(us, vs, (5, 6, 7, 8), batch):
            ref = quotient_distance(sp, u, v, p, multistarts=multistarts, seed=seed)
            assert res.value == ref.value and np.array_equal(res.g_opt, ref.g_opt)
            assert res.stationarity_residual == ref.stationarity_residual and res.starts == ref.starts
    with pytest.raises(ValueError):
        quotient_distances(sp, us, vs, 4, 6, seeds=[1, 2])


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: spec.kind)
def test_coset_pairs_are_independent_of_their_stack(spec):
    # a pair in a stack of pairs at mixed separations (one with u = v) gets
    # the value and minimizer of its own call, bit for bit: no number of an
    # instance depends on the other rows of its Newton stack
    sp = build_model_space(spec)
    alg, gen = sp.ambient, np.random.default_rng(31)
    for p in (2, 4, 6):
        us = np.array([core.random_unitary(alg, gen) for _ in range(6)])
        vs = np.array([u @ unitary_exp(core.random_skew(alg, gen, s)) for u, s in zip(us, (0, 1e-3, 0.05, 0.3, 0.8, 1.5))])
        for multistarts in (1, 2, 4, 6):
            seeds = [10 * p + multistarts + j for j in range(6)]
            batch = quotient_distances(sp, us, vs, p, multistarts, seeds)
            for u, v, seed, res in zip(us, vs, seeds, batch):
                ref = quotient_distance(sp, u, v, p, multistarts=multistarts, seed=seed)
                assert res.value == ref.value and np.array_equal(res.g_opt, ref.g_opt)


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: spec.kind)
@pytest.mark.parametrize("p", [4, 6])
def test_coset_distance_is_exact_at_small_separations(spec, p):
    # v = e^z g with z a minimal horizontal symbol and g in the isotropy
    # group: the coset distance of 1 and v is ||z||_p, to 1e-9 relative at
    # every scale, though ||z||_p^p lies far below the absolute 1e-9
    sp = build_model_space(spec)
    alg, iso = sp.ambient, sp.isotropy
    for size in (1e-3, 1e-2, 1e-1):
        gen = np.random.default_rng([p, round(-math.log10(size))])
        z = _minimal_symbol(sp, gen, p)
        z = z * (size / p_norm(z, p, alg))
        y = iso.combine(gen.standard_normal(iso.dim))
        v = unitary_exp(z) @ unitary_exp(y * (0.4 / operator_norm(y)))
        res = quotient_distance(sp, np.eye(alg.dim), v, p)
        assert abs(res.value - size) <= 1e-9 * size and res.stationarity_residual <= 1e-9


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda spec: spec.kind)
def test_coset_trial_budget_at_small_separations(spec, monkeypatch):
    # from u = v up to a separation of 1e-2, every instance certifies in at
    # most 6 trials per stage, whatever the scale: the p stage's tol sits
    # above roundoff, and its Newton steps are undamped at every scale (an
    # absolute damping made them crawl for up to 10,000 trials at p = 8)
    sp = build_model_space(spec)
    alg, iso = sp.ambient, sp.isotropy
    runs, newton = [], projection._newton

    def spy(state, w, retract, left, onb, p, alg, tol, **kw):
        runs.append((np.broadcast_to(tol, len(state)), newton(state, w, retract, left, onb, p, alg, tol, **kw)))
        return runs[-1][1]

    monkeypatch.setattr(projection, "_newton", spy)
    gen = np.random.default_rng(47)
    for p in (4, 6, 8):
        for size in (0.0, 1e-8, 1e-6, 1e-4, 4e-4, 1e-3, 2e-3, 1e-2):
            u = core.random_unitary(alg, gen)
            z = sp.horizontal_project(core.random_skew(alg, gen))
            y = iso.combine(gen.standard_normal(iso.dim))
            v = u @ unitary_exp(z * (size / p_norm(z, p, alg))) @ unitary_exp(y * (0.4 / operator_norm(y)))
            runs.clear()
            res = quotient_distance(sp, u, v, p, multistarts=2)
            assert len(runs) == 2
            for tol, (_, _, certificates, trials) in runs:
                assert np.all(certificates <= tol) and trials.max() <= 6
            assert res.value <= size * (1 + 1e-12) + 1e-15


def _principal_log_route(space, us, vs, p, g0):
    """Coset values by the route of the principal logarithm, as a reference
    for the eigenframe retract: from the starts g0 (consecutive per pair), a
    p = 2 stage and then a p stage with the per-instance certificate tol and
    Hessian scale of ``quotient_distances``; each trial's
    w = principal_log(u* v g) with the cut-locus guard from the operator norm
    of 1 - u* v g, and the Newton loop's own frame of w and matrix powers for
    f and w^{p-1}."""
    alg, G = space.ambient, space.isotropy
    bases = us.conj().mT @ vs
    per = len(g0) // len(bases)
    owner = np.repeat(np.arange(len(bases)), per)
    scale = np.ones(len(owner))

    def retract(ids, g, d):
        g = g @ unitary_exp(G.combine(d / scale[ids, None]))
        ug = bases[owner[ids]] @ g
        w = principal_log(ug)
        w[~(core._operator_norms(np.eye(alg.dim) - ug) < 2.0 - 1e-6)] = np.nan
        return g, w

    def left(ids, frame, bt):
        return bt / (scale[ids, None, None] * frame.ad_symbol(core._sym_F))[:, None]

    g = projection._newton(g0, principal_log(bases[owner] @ g0), retract, left, G.onb(), 2, alg, 1e-9)[0]
    w = principal_log(bases[owner] @ g)
    c = np.minimum(core._p_norms(w, p, alg), 1.0)
    tol = 1e-9 * c ** (p - 2) * np.maximum(c, 1e-2)
    scale = 2.0 ** np.rint(np.log2(np.maximum(c ** (p - 2), 1e-300)))
    _, f, resid, _ = projection._newton(g, w, retract, left, G.onb(), p, alg, tol)
    values = []
    for lo in range(0, len(owner), per):
        k = lo + np.lexsort((f[lo : lo + per], ~(resid[lo : lo + per] <= tol[lo : lo + per])))[0]
        values.append(max(f[k], 0.0) ** (1.0 / p))
    return values


@pytest.mark.parametrize("spec", default_model_specs() + [ModelSpec("center-quotient", blocks=(3, 3)),
                                                          ModelSpec("diag-m2", blocks=(3,))],
                         ids=lambda spec: f"{spec.kind}{spec.blocks}")
def test_frame_retract_matches_the_principal_log_route(spec, monkeypatch):
    # the coset values of the retract that reads f, w^{p-1} and the guard
    # off one blockwise eigenframe per trial equal those of the principal
    # logarithm route from the same starts
    sp = build_model_space(spec)
    gen = np.random.default_rng(41)
    starts, newton = [], projection._newton

    def spy(state, w, *args, **kw):
        starts.append(state.copy())
        return newton(state, w, *args, **kw)

    monkeypatch.setattr(projection, "_newton", spy)
    for p in (4, 6):
        us = np.array([unitary_exp(core.random_skew(sp.ambient, gen, s)) for s in (0.3, 0.8, 1.5)])
        vs = np.array([unitary_exp(core.random_skew(sp.ambient, gen, s)) for s in (0.3, 0.8, 1.5)])
        starts.clear()
        results = quotient_distances(sp, us, vs, p, multistarts=4, seeds=[1, 2, 3])
        reference = _principal_log_route(sp, us, vs, p, starts[0])
        for res, ref in zip(results, reference):
            assert res.stationarity_residual <= 1e-9
            assert res.value == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("kind", ["center-quotient", "diag-m2", "partial-isometry-orbit"])
def test_stacked_starts_match_per_draw_starts(kind, rng, monkeypatch):
    # the starts drawn in each pair's rng order and then projected, normed
    # and scaled as one stack are those drawn one at a time, bit for bit
    sp = SPACES[kind]
    alg, G = sp.ambient, sp.isotropy
    states, newton = [], projection._newton

    def spy(state, w, *args, **kw):
        states.append(state.copy())
        return newton(state, w, *args, **kw)

    monkeypatch.setattr(projection, "_newton", spy)
    us = np.array([core.random_unitary(alg, rng) for _ in range(3)])
    vs = np.array([core.random_unitary(alg, rng) for _ in range(3)])
    for multistarts in (2, 3, 6):
        states.clear()
        quotient_distances(sp, us, vs, 4, multistarts, seeds=[4, 5, 6])
        draws = 3 * max(0, multistarts - 2)
        ref = [c for u, v, seed in zip(us, vs, (4, 5, 6))
               for c in _seeded_starts(G, alg, u.conj().T @ v, np.random.default_rng(seed), draws)]
        assert np.array_equal(states[0], unitary_exp(G.combine(np.array(ref))))


def test_coset_retract_guards_the_cut_locus(rng, monkeypatch):
    # a trial with ||1 - u* v g|| within 1e-6 of 2 gets NaN angles, which the
    # line search halves; one with a top angle pi - 3e-3 is evaluated
    sp = SPACES["center-quotient"]
    alg = sp.ambient
    retracts, newton = [], projection._newton

    def spy(state, w, retract, *args, **kw):
        retracts.append(retract)
        return newton(state, w, retract, *args, **kw)

    monkeypatch.setattr(projection, "_newton", spy)
    q, one = core.random_unitary(alg, rng), np.eye(alg.dim, dtype=complex)
    for eps, cut in ((1e-3, True), (3e-3, False)):
        angles = rng.uniform(-2.5, 2.5, alg.dim)
        angles[0] = np.pi - eps
        v = q @ np.diag(np.exp(1j * angles)) @ q.conj().T
        assert (operator_norm(one - v) >= 2.0 - 1e-6) == cut
        retracts.clear()
        quotient_distance(sp, one, v, 4, multistarts=1)
        # the first instance starts at g = 1, so its zero step is the trial u* v
        _, frame = retracts[0](np.array([0]), one[None], np.zeros((1, sp.isotropy.dim)))
        assert np.isnan(frame.lam).all() == cut and np.isnan(frame.lam).any() == cut


def test_one_frame_per_coset_trial(rng, monkeypatch):
    # each trial unitary is diagonalized once (one eigvals and one blockwise
    # frame beside the eigh of its step's exponential), the Newton loop builds
    # no frame of its own, and the only eigvalsh is the one stacked norm of
    # the seeded start directions; at p = 4 the p = 2 stage's last iterates
    # are diagonalized once more, to start the p stage
    sp = SPACES["center-quotient"]
    alg = sp.ambient
    calls = {"eigvalsh": 0, "eigvals": 0, "eigh": 0, "frames": [], "logs": [], "exps": 0}
    for name in ("eigvalsh", "eigvals", "eigh"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    init, from_unitary, exp = core.Eigenframe.__init__, core.Eigenframe.from_unitary.__func__, core.Eigenframe.exp

    def spy_init(self, w, alg=None):
        calls["frames"].append(alg)
        init(self, w, alg)

    def spy_from_unitary(cls, u, alg=None):
        calls["logs"].append(alg)
        return from_unitary(cls, u, alg)

    def spy_exp(self, t=1.0):
        calls["exps"] += 1
        return exp(self, t)

    monkeypatch.setattr(core.Eigenframe, "__init__", spy_init)
    monkeypatch.setattr(core.Eigenframe, "from_unitary", classmethod(spy_from_unitary))
    monkeypatch.setattr(core.Eigenframe, "exp", spy_exp)
    us = np.array([core.random_unitary(alg, rng) for _ in range(3)])
    vs = np.array([core.random_unitary(alg, rng) for _ in range(3)])
    results = quotient_distances(sp, us, vs, 4, multistarts=6, seeds=[1, 2, 3])
    assert all(r.stationarity_residual <= 1e-9 for r in results)
    assert calls["eigvalsh"] == 1
    # principal_log(u* v) for the starts, then one blockwise log per trial
    # (the starts', each line-search trial's and the p stage's start), each
    # after one exponential but the p stage's start
    trials = calls["logs"].count(alg)
    assert calls["logs"] == [None] + [alg] * trials and calls["exps"] == trials - 1 > 1
    frames = calls["frames"]
    (restart,) = [k for k in range(2, len(frames)) if frames[k - 1] == frames[k] == alg]
    assert frames[:restart] + frames[restart + 1 :] == [None] + [None, alg] * (trials - 1)
    assert calls["eigvals"] == 1 + trials
    assert calls["eigh"] == trials * (1 + len(alg.block_dims))


@pytest.mark.parametrize("kind", ["center-quotient", "diag-m2", "partial-isometry-orbit"])
def test_quotient_distance_from_a_start_on_the_cut_locus(kind, rng):
    # u* v has the eigenvalue -1, so the identity start lies on the cut locus,
    # where the principal logarithm is total but not smooth; the start is
    # kept, and the answer certifies and matches the oracles
    sp = SPACES[kind]
    alg = sp.ambient
    q = core.random_unitary(alg, rng)
    angles = rng.uniform(-2.5, 2.5, alg.dim)
    angles[0] = np.pi
    base = q @ np.diag(np.exp(1j * angles)) @ q.conj().T
    u = core.random_unitary(alg, rng)
    v = u @ base
    assert operator_norm(np.eye(alg.dim) - base) == pytest.approx(2.0, abs=1e-12)
    for p in (4, 6):
        qd = quotient_distance(sp, u, v, p)
        assert qd.stationarity_residual <= 1e-9
        assert qd.value <= lbfgs_quotient_distance(sp, u, v, p)[0] + 1e-12
        if kind == "center-quotient":
            assert qd.value == pytest.approx(_center_oracle(u, v, p, alg), abs=1e-4)


@pytest.mark.parametrize("trial, p", [(0, 4), (1, 6)])
def test_quotient_distance_certifies_far_from_the_identity(trial, p):
    # minimizers with ||w|| above 0.45 pi used to get only normalized
    # gradient steps in the polish and stalled near residual 1e-7 without
    # raising; the eigenframe Newton step applies wherever F(ad w) is
    # invertible, which is every principal logarithm
    from ncgeo.rng import trial_stream

    sp = build_model_space(ModelSpec("center-quotient", blocks=(3, 3)))
    rng = trial_stream(7, "coset", trial)
    u = unitary_exp(core.random_skew(sp.ambient, rng, 0.8))
    v = unitary_exp(core.random_skew(sp.ambient, rng, 0.8))
    qd = quotient_distance(sp, u, v, p, multistarts=6, seed=trial)
    w = principal_log(u.conj().T @ v @ qd.g_opt)
    assert operator_norm(w) > 0.5 * np.pi
    assert qd.stationarity_residual <= 1e-9
    assert qd.value == pytest.approx(p_norm(w, p, sp.ambient), abs=1e-12)


def test_quotient_distance_rejects_unitaries_outside_the_algebra(rng):
    sp = SPACES["center-quotient"]
    swap = np.eye(4, dtype=complex)[[2, 1, 0, 3]]
    with pytest.raises(ValueError):
        quotient_distance(sp, np.eye(4, dtype=complex), swap, 4)


def test_quotient_distance_metric_axioms(rng):
    sp = SPACES["center-quotient"]
    alg = sp.ambient
    us = [core.random_unitary(alg, rng) for _ in range(3)]
    d01 = quotient_distance(sp, us[0], us[1], 4).value
    d10 = quotient_distance(sp, us[1], us[0], 4).value
    d02 = quotient_distance(sp, us[0], us[2], 4).value
    d21 = quotient_distance(sp, us[2], us[1], 4).value
    assert d01 == pytest.approx(d10, abs=1e-8)
    assert d01 <= d02 + d21 + 1e-8


def test_quotient_distance_positive_on_distinct_points(rng):
    # separation: the coset distance of genuinely different points stays positive
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng, scale=0.4)
    v = unitary_exp(z)
    qd = quotient_distance(sp, np.eye(4, dtype=complex), v, 4)
    assert qd.value > 1e-6
    assert sp.isotropy_defect(v) > 1e-8  # v is not in the coset of the identity


def test_quotient_distance_bounded_by_fiber_joining_curves(rng):
    # the coset distance is the infimum of lengths of unitary curves joining
    # the fibers: every sampled such curve dominates it
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    u = core.random_unitary(alg, rng)
    v = core.random_unitary(alg, rng)
    qd = quotient_distance(sp, u, v, 4, multistarts=10).value
    for _ in range(10):
        g1 = unitary_exp(sp.isotropy.combine(0.5 * rng.standard_normal(sp.isotropy.dim)))
        g2 = unitary_exp(sp.isotropy.combine(0.5 * rng.standard_normal(sp.isotropy.dim)))
        chord = principal_log((u @ g1).conj().T @ (v @ g2))
        xi = core.random_skew(alg, rng)
        curve = loop_deformed_exp_curve(chord, xi, rng.uniform(0.0, 0.5), n_nodes=65)
        assert qd <= curve_length_p(curve, 4, alg) + 1e-8


def test_quotient_distance_cauchy_completeness_probe(rng):
    # d-Cauchy sequences of orbit points settle on an orbit point
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng, scale=0.5)
    points = [unitary_exp((1.0 - 2.0**-k) * z) for k in range(1, 6)]
    limit = unitary_exp(z)
    gaps = [quotient_distance(sp, pk, limit, 4).value for pk in points]
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * gaps[0]


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def test_action_identity_and_axiom(rng):
    sp = SPACES["partial-isometry-orbit"]
    one = np.eye(3, dtype=complex)
    assert operator_norm(sp.act(one, sp.basepoint) - sp.basepoint) == 0.0
    spc = build_model_space(ModelSpec("projection-orbit", blocks=(2,)))
    u = core.random_unitary(spc.ambient, rng)
    v = core.random_unitary(spc.ambient, rng)
    lhs = spc.orbit_point(u @ v)
    rhs = spc.act(u, spc.orbit_point(v))
    assert operator_norm(lhs - rhs) < 1e-12


def test_action_isotropy_fixes_basepoint(rng):
    for sp in SPACES.values():
        y = sp.isotropy.combine(0.5 * rng.standard_normal(sp.isotropy.dim))
        g = unitary_exp(y)
        assert sp.isotropy_defect(g) < 1e-9


# ---------------------------------------------------------------------------
# the lifting ODE
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 15, 16, 17, 256, 1000])
def test_prefix_products_match_the_sequential_loop(count):
    # the blocked running product of Haar steps (blocks of ceil(sqrt(count)),
    # the last one padded) against u_{i+1} = steps[i] u_i one step at a time
    steps = core._random_unitaries(M4, np.random.default_rng(count), count)
    loop = [np.eye(4, dtype=complex)]
    for step in steps:
        loop.append(step @ loop[-1])
    got = _prefix_products(steps)
    assert got.shape == (count + 1, 4, 4)
    assert np.max(np.abs(got - np.array(loop))) <= 1e-14


#: Gauss-Legendre points of the 6th-order Magnus step on [0, 1]
_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


def _two_product_magnus6(a1, a2, a3, h):
    """The general Magnus step from the field at its three Gauss points, with
    every bracket as xy - yx: the reference of the affine-step generator."""
    b1 = h * a2
    b2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = b1 @ b2 - b2 @ b1
    x = 2.0 * b3 + c1
    c2 = -(b1 @ x - x @ b1) / 60.0
    x, y = -20.0 * b1 - b3 + c1, b2 + c2
    return b1 + b3 / 12.0 + (x @ y - y @ x) / 240.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_affine_magnus_step_matches_the_gauss_point_step(n):
    # on random affine skew fields mid + (t - 1/2) h slope over each step the
    # general step, fed the field at its Gauss points, has b3 = 0 up to
    # roundoff; the midpoint-and-slope generator stays within a few ulps of
    # it and is exactly skew-Hermitian, each bracket xy - (xy)* being so
    # (xy - yx is not where xy and yx round differently)
    gen = np.random.default_rng(n)
    x = gen.standard_normal((2, 256, n, n)) + 1j * gen.standard_normal((2, 256, n, n))
    mid, slope = x - x.conj().mT
    for h in (1.0 / 256, 0.1, 1.0):
        omega = _magnus_affine(mid, slope, h)
        ref = _two_product_magnus6(*(mid + ((g - 0.5) * h) * slope for g in _GAUSS3), h)
        assert np.array_equal(omega, -omega.conj().mT)
        assert np.max(np.abs(omega - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


def _stencil_loop(nodes, grid):
    """The finite differences the stencil matrix replaced: five shifted
    slices inside, the one-sided stencils at both ends."""
    m, h = len(grid), grid[1] - grid[0]
    x = np.moveaxis(nodes, -3, 0)
    du = np.empty_like(x)
    du[2 : m - 2] = sum(c * x[j : m - 4 + j] for j, c in enumerate(_FD_INTERIOR)) / h
    for row, c in enumerate(_FD_LEFT):
        du[row] = np.tensordot(c, x[:5], axes=1) / h
        du[m - 1 - row] = -np.tensordot(c, x[m - 5 :][::-1], axes=1) / h
    return np.moveaxis(du, 0, -3)


@pytest.mark.parametrize("m", [5, 6, 9, 65])
def test_stencil_matrix_matches_the_stencil_loop(m):
    # one curve and a (K, m, n, n) stack, on the unit grid and a short one,
    # within 4 ulps of the largest stencil term, 48/12 max|x| / h
    gen = np.random.default_rng(m)
    for grid in (np.linspace(0.0, 1.0, m), np.linspace(0.2, 0.3, m)):
        for shape in ((m, 3, 3), (4, m, 3, 3)):
            x = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
            got, ref = _differentiate_nodes(x, grid), _stencil_loop(x, grid)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps * np.max(np.abs(x)) / (grid[1] - grid[0])
    assert _fd_matrix(m) is _fd_matrix(m) and not _fd_matrix(m).flags.writeable


@pytest.mark.parametrize("m", [5, 6, 9, 65])
def test_stencil_matrix_is_exact_on_quartics(m):
    # matrix polynomials of degree <= 4 are differentiated to roundoff
    gen = np.random.default_rng(m)
    grid = np.linspace(0.0, 1.0, m)
    for degree in range(5):
        c = gen.standard_normal((degree + 1, 3, 3)) + 1j * gen.standard_normal((degree + 1, 3, 3))
        nodes = sum(ck * grid[:, None, None] ** k for k, ck in enumerate(c))
        exact = sum(k * ck * grid[:, None, None] ** (k - 1) for k, ck in enumerate(c) if k)
        err = np.max(np.abs(_differentiate_nodes(nodes, grid) - exact), initial=0.0)
        assert err <= 16 * np.finfo(float).eps * np.max(np.abs(nodes)) * (m - 1)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 16, 17, 64, 65, 128, 129, 256, 257])
def test_simpson_is_scipys_bit_for_bit(N):
    # the numpy transcription of scipy.integrate.simpson: odd and even node
    # counts, uniform and random grids, one row and a stack of rows
    gen = np.random.default_rng(N)
    for grid in (np.linspace(0.0, 1.0, N), np.sort(gen.uniform(0.0, 1.0, N)), np.cumsum(gen.uniform(0.01, 1.0, N))):
        for _ in range(20):
            y = gen.standard_normal(N) * 10.0 ** gen.integers(-6, 6)
            ys = gen.standard_normal((20, N))
            got = _simpson(y, grid)
            assert type(got) is float and got == float(scipy.integrate.simpson(y, x=grid))
            assert np.array_equal(_simpson(ys, grid), scipy.integrate.simpson(ys, x=grid))


def test_lift_zero_field():
    sp = SPACES["diag-m2"]
    grid = np.linspace(0, 1, 9)
    w = SampledCurve(grid, np.zeros((9, 4, 4), dtype=complex), target="algebra")
    lift = lift_ode_solve(w, sp)
    assert max(operator_norm(zk) for zk in lift.z.nodes) < 1e-14
    assert max(operator_norm(uk - np.eye(4)) for uk in lift.u.nodes) < 1e-14


def test_lift_constant_field_is_exact(rng):
    sp = SPACES["diag-m2"]
    w0 = sp.isotropy.combine(0.3 * rng.standard_normal(sp.isotropy.dim))
    grid = np.linspace(0, 1, 9)
    w = SampledCurve(grid, np.repeat(w0[None], 9, axis=0), target="algebra")
    lift = lift_ode_solve(w, sp)
    for k, t in enumerate(lift.z.grid):
        assert operator_norm(lift.z.nodes[k] - t * w0) < 1e-12
        assert operator_norm(lift.u.nodes[k] - unitary_exp(t * w0)) < 1e-12


def test_lift_polygonal_field_defect(rng):
    sp = SPACES["diag-m2"]
    for _ in range(5):
        nodes = np.array(
            [sp.isotropy.combine(0.35 * rng.standard_normal(sp.isotropy.dim)) for _ in range(9)]
        )
        w = SampledCurve(np.linspace(0, 1, 9), nodes, target="algebra")
        lift = lift_ode_solve(w, sp)
        assert lift.defect < 1e-6
        assert lift.projection_drift < 1e-9
        # solution stays in the isotropy group
        for uk in lift.u.nodes[:: len(lift.u.nodes) // 8]:
            assert sp.isotropy_defect(uk) < 1e-8


def test_lift_rejects_field_outside_isotropy(rng):
    sp = SPACES["diag-m2"]
    bad = core.random_skew(sp.ambient, rng)  # generic skew: not vertical
    w = SampledCurve(np.linspace(0, 1, 5), np.repeat(bad[None], 5, axis=0), target="algebra")
    with pytest.raises(ValueError):
        lift_ode_solve(w, sp)


def _interpolate(w_curve, t):
    """The polygonal field through the nodes of w_curve at parameter t."""
    k = min(int(t * w_curve.n_intervals), w_curve.n_intervals - 1)
    s = t * w_curve.n_intervals - k
    return (1.0 - s) * w_curve.nodes[k] + s * w_curve.nodes[k + 1]


def _rk4_nodes(w_curve, G, n_steps):
    """Per-step RK4 for dz/dt = G(ad z)^{-1} w(t), u = e^z: an Eigenframe field
    per stage, an SVD restart test at 0.45 pi and a unitary_exp per node.
    Returns the z and u nodes and the largest projection jump."""
    n = G.ambient.dim
    h = 1.0 / n_steps
    grid = np.linspace(0.0, 1.0, n_steps + 1)

    def field(t, zz):
        return core.Eigenframe(zz).apply(lambda x: 1.0 / core._sym_F(-x), _interpolate(w_curve, t))

    z = np.zeros((n, n), dtype=complex)
    u_base = np.eye(n, dtype=complex)
    restarts = 0
    drift = 0.0
    z_nodes = np.empty((n_steps + 1, n, n), dtype=complex)
    u_nodes = np.empty_like(z_nodes)
    z_nodes[0], u_nodes[0] = z, u_base
    for i in range(n_steps):
        t0 = grid[i]
        k1 = field(t0, z)
        k2 = field(t0 + h / 2, z + (h / 2) * k1)
        k3 = field(t0 + h / 2, z + (h / 2) * k2)
        k4 = field(t0 + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        zp = G.project(z)
        drift = max(drift, operator_norm(z - zp))
        z = zp
        if operator_norm(z) >= 0.45 * math.pi:
            u_base = unitary_exp(z) @ u_base
            z = np.zeros_like(z)
            restarts += 1
        u_nodes[i + 1] = unitary_exp(z) @ u_base
        z_nodes[i + 1] = z if restarts == 0 else principal_log(u_nodes[i + 1])
    return z_nodes, u_nodes, drift


def _defect_and_velocities(w_curve, u_nodes):
    """The finite-difference defect max ||du u* - w|| (stencils within each
    segment of w) and the velocities u* w u of a lift's nodes, node by node."""
    n_steps = len(u_nodes) - 1
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    seg = n_steps // w_curve.n_intervals
    du = np.empty_like(u_nodes)
    for s in range(w_curve.n_intervals):
        lo, hi = s * seg, (s + 1) * seg
        du[lo : hi + 1] = _differentiate_nodes(u_nodes[lo : hi + 1], grid[lo : hi + 1])
    w = [_interpolate(w_curve, t) for t in grid]
    defect = max(operator_norm(du[i] @ u_nodes[i].conj().T - w[i]) for i in range(n_steps + 1))
    vel = np.array([u_nodes[i].conj().T @ w[i] @ u_nodes[i] for i in range(n_steps + 1)])
    return defect, (vel - np.conj(np.swapaxes(vel, 1, 2))) / 2.0


def _reference_lift(w_curve, space, defect_tol=1e-6, drift_tol=1e-9, max_refinements=6, min_nodes=65):
    """The per-step RK4 lifting solver the Magnus one replaced, with the same
    step doubling on the defect and the drift."""
    n_steps = w_curve.n_intervals * max(4, math.ceil((min_nodes - 1) / w_curve.n_intervals))
    for refinement in range(max_refinements + 1):
        _, u_nodes, drift = _rk4_nodes(w_curve, space.isotropy, n_steps)
        defect = _defect_and_velocities(w_curve, u_nodes)[0]
        if defect <= defect_tol and drift <= drift_tol:
            break
        n_steps *= 2
    return dict(drift=drift, refinements=refinement)


def _random_field(sp, rng, n_nodes=9, scale=0.35):
    nodes = np.array([sp.isotropy.combine(scale * rng.standard_normal(sp.isotropy.dim)) for _ in range(n_nodes)])
    return SampledCurve(np.linspace(0, 1, n_nodes), nodes, target="algebra")


def _constant_field(sp, rng, norm):
    w0 = sp.isotropy.combine(rng.standard_normal(sp.isotropy.dim))
    w0 *= norm / operator_norm(w0)
    return SampledCurve(np.linspace(0, 1, 9), np.repeat(w0[None], 9, axis=0), target="algebra")


@pytest.mark.parametrize(
    "case",
    ["diag-m2", "center-quotient", "partial-isometry-orbit", "two-restarts", "tight-defect", "drifting-field"],
)
def test_lift_matches_per_step_reference(case):
    rng = np.random.default_rng(31)
    kwargs = {}
    if case == "two-restarts":
        # a field of uniform norm 3: z reaches norm 3, past the pi/2 bound
        # of G(ad z)^{-1}, and the RK4 oracle restarts twice
        sp = SPACES["diag-m2"]
        w = _constant_field(sp, rng, 3.0)
    elif case == "tight-defect":
        sp = SPACES["diag-m2"]
        w = _random_field(sp, rng)
        kwargs = {"defect_tol": 1e-8}
    elif case == "drifting-field":
        # a field 5e-9 off the isotropy algebra (inside the 1e-8 admission
        # tolerance) makes the projection drift measurable above roundoff
        sp = SPACES["diag-m2"]
        w = _random_field(sp, rng)
        off = sp.horizontal_project(core.random_skew(sp.ambient, rng))
        w.nodes += 5e-9 * off / p_norm(off, 2, sp.ambient)
    else:
        sp = SPACES[case]
        w = _random_field(sp, rng)
    lift = lift_ode_solve(w, sp, **kwargs)
    ref = _reference_lift(w, sp, **kwargs)
    assert lift.refinements == ref["refinements"]
    # RK4 at the solver's own step count is ~3e-11 from the exact solution,
    # so the 6th-order solver is held against RK4 at 4x the steps, taken at
    # the solver's nodes
    z_fine, u_fine, _ = _rk4_nodes(w, sp.isotropy, 4 * lift.u.n_intervals)
    defect, vel = _defect_and_velocities(w, u_fine[::4])
    assert np.max(np.abs(lift.z.nodes - z_fine[::4])) <= 1e-12
    assert np.max(np.abs(lift.u.nodes - u_fine[::4])) <= 1e-12
    assert np.max(np.abs(lift.u.velocities - vel)) <= 1e-12
    assert abs(lift.defect - defect) <= 1e-12
    assert abs(lift.projection_drift - ref["drift"]) <= 1e-12
    if case == "drifting-field":
        assert lift.projection_drift > 1e-12
    if case == "tight-defect":
        assert lift.refinements > lift_ode_solve(w, sp).refinements


@pytest.mark.parametrize("name", ["diag-m2", "center-quotient", "partial-isometry-orbit"])
def test_lift_converges_to_a_refined_solve(name):
    # the 6th-order steps at the returned grid against 16x as many steps
    sp = SPACES[name]
    w = _random_field(sp, np.random.default_rng(31))
    lift = lift_ode_solve(w, sp)
    fine = lift_ode_solve(w, sp, min_nodes=16 * lift.u.n_intervals + 1)
    assert fine.u.n_intervals == 16 * lift.u.n_intervals
    assert np.max(np.abs(lift.u.nodes - fine.u.nodes[::16])) <= 1e-12
    assert np.max(np.abs(lift.z.nodes - fine.z.nodes[::16])) <= 1e-12
    assert fine.defect < lift.defect


def test_exp_curves_match_per_node_exponentials(rng):
    z = core.random_skew(M4, rng, 0.6)
    xi = core.random_skew(M4, rng, 0.4)
    grid = np.linspace(0.0, 1.0, 33)
    phi = grid - 0.35 * np.sin(2 * np.pi * grid) / (2 * np.pi)
    loop = 0.3 * grid * (1.0 - grid)
    expected = {
        "exp": [unitary_exp(t * z) for t in grid],
        "reparam": [unitary_exp(f * z) for f in phi],
        "loop": [unitary_exp(t * z) @ unitary_exp(f * xi) for t, f in zip(grid, loop)],
    }
    curves = {
        "exp": exp_curve(z, 33),
        "reparam": reparametrized_exp_curve(z, 0.35, 33),
        "loop": loop_deformed_exp_curve(z, xi, 0.3, 33),
    }
    for name, curve in curves.items():
        assert np.max(np.abs(curve.nodes - np.array(expected[name]))) <= 1e-14, name
    vel = [unitary_exp(-f * xi) @ z @ unitary_exp(f * xi) + 0.3 * (1 - 2 * t) * xi for t, f in zip(grid, loop)]
    assert np.max(np.abs(curves["loop"].velocities - np.array(vel))) <= 1e-14


# ---------------------------------------------------------------------------
# almost isometric lifts
# ---------------------------------------------------------------------------


def test_lift_of_horizontal_curve_is_identity_correction(rng):
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng, scale=0.4)
    gamma = exp_curve(z, 65)
    res = epsilon_isometric_lift(gamma, sp, 4, 1e-2)
    # Q(Gamma* dGamma) = 0, so beta = Gamma
    for k in range(0, 65, 16):
        assert operator_norm(res.beta.nodes[k] - gamma.nodes[k]) < 1e-8
    assert res.excess <= 1e-10


def test_lift_commuting_pair_recovers_symbol_norm(rng):
    # Gamma = e^{tz} e^{ty} with y vertical and central: beta recovers e^{tz}
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    z = _minimal_symbol(sp, rng, scale=0.4)
    y = 0.3j * np.eye(4)
    cz, cy = core.Eigenframe(z), core.Eigenframe(y)
    grid = np.linspace(0, 1, 65)
    nodes = np.array([cz.exp(t) @ cy.exp(t) for t in grid])
    vel = np.array([cy.exp(-t) @ z @ cy.exp(t) + y for t in grid])
    gamma = SampledCurve(grid, nodes, target="unitary", velocities=vel)
    for eps in (1e-2, 1e-3):
        res = epsilon_isometric_lift(gamma, sp, 4, eps)
        assert abs(res.length_p - p_norm(z, 4, alg)) < eps
        assert res.quotient_length_p == pytest.approx(p_norm(z, 4, alg), abs=1e-9)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_lift_excess_bound_random_curves(eps, rng):
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    for _ in range(5):
        z = core.random_skew(alg, rng, 0.4)
        xi = core.random_skew(alg, rng, 0.3)
        gamma = loop_deformed_exp_curve(z, xi, 0.4, n_nodes=65)
        res = epsilon_isometric_lift(gamma, sp, 4, eps)
        assert res.length_p < res.quotient_length_p + eps + 1e-5
        assert res.band_sup < eps
        # the stacked velocities u* (v + w) u and length against a node loop
        stride = res.lift.u.n_intervals // gamma.n_intervals
        loop = [
            uk.conj().T @ vk @ uk + wk
            for uk, vk, wk in zip(res.lift.u.nodes[::stride], gamma.velocities, res.lift.u.velocities[::stride])
        ]
        assert np.max(np.abs(res.beta.velocities - np.array(loop))) <= 1e-14
        speeds = [p_norm(v, 4, alg) for v in res.beta.velocities]
        assert res.length_p == pytest.approx(scipy.integrate.simpson(speeds, x=gamma.grid), rel=1e-14)
        # the corrected curve is still a lift of the same orbit curve
        for k in range(0, 65, 16):
            assert sp.isotropy_defect(res.beta.nodes[k].conj().T @ gamma.nodes[k]) <= 1e-7


def test_lift_solves_nodes_and_bands_in_one_stacked_call(rng, newton_stack_sizes):
    # the 65 nodal speeds and the 64 midpoint bands are one lockstep solve
    # of 129 instances, not a per-node loop nor two stacks
    sp = SPACES["diag-m2"]
    gamma = loop_deformed_exp_curve(core.random_skew(sp.ambient, rng, 0.4), core.random_skew(sp.ambient, rng, 0.3), 0.4)
    epsilon_isometric_lift(gamma, sp, 4, 1e-2)
    assert newton_stack_sizes == [129]


#: matrices np.linalg.eigh diagonalizes over the ten lifts below: 5,062 when
#: every p = 4 Newton iterate diagonalized its residual, 3,200 since the
#: product-form Hessian (projection._quartic_hessian)
_LIFT_EIGH_MATRICES = 3_200


def test_lift_eigendecompositions_stay_within_their_count(monkeypatch):
    # the ten configurations of the perfbench `lift` workload, drawn as it
    # draws them at seed 1 (five default spaces x epsilon 1e-2, 1e-3, p = 4)
    spaces = [build_model_space(spec) for spec in default_model_specs()]
    lifts = []
    for i, (k, eps) in enumerate((k, eps) for eps in (1e-2, 1e-3) for k in range(5)):
        rng = trial_stream(1, "lift", i)
        z = core.random_skew(spaces[k].ambient, rng, 0.35)
        xi = core.random_skew(spaces[k].ambient, rng, 0.3)
        lifts.append((loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65), spaces[k], eps))
    matrices, eigh = [0], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: matrices.append(math.prod(np.shape(a)[:-2]))
                        or eigh(a, *args, **kw))
    for curve, sp, eps in lifts:
        epsilon_isometric_lift(curve, sp, 4, eps)
    assert sum(matrices) <= _LIFT_EIGH_MATRICES


def test_lift_rejects_coarse_grid_for_tiny_epsilon(rng):
    sp = SPACES["diag-m2"]
    alg = sp.ambient
    z = core.random_skew(alg, rng, 0.8)
    xi = core.random_skew(alg, rng, 0.8)
    gamma = loop_deformed_exp_curve(z, xi, 1.2, n_nodes=9)
    with pytest.raises(ValueError):
        epsilon_isometric_lift(gamma, sp, 4, 1e-6)


# ---------------------------------------------------------------------------
# minimal geodesics
# ---------------------------------------------------------------------------


def test_geodesic_to_basepoint_is_trivial():
    sp = SPACES["diag-m2"]
    res = minimal_geodesic(sp, np.eye(4, dtype=complex), 4)
    assert res.length_p < 1e-8
    assert operator_norm(res.symbol) < 1e-6


def test_geodesic_trivial_isotropy_is_principal_log(rng):
    sp = _trivial_isotropy_space(M3)
    v = core.random_unitary(M3, rng)
    res = minimal_geodesic(sp, v, 4)
    assert operator_norm(res.symbol - principal_log(v)) < 1e-9


def test_geodesic_reaches_target_with_certificate(rng):
    for name in ("center-quotient", "diag-m2", "partial-isometry-orbit"):
        sp = SPACES[name]
        z = _minimal_symbol(sp, rng, scale=0.25)
        target = unitary_exp(z)
        res = minimal_geodesic(sp, target, 4)
        assert res.endpoint_error < 1e-7
        assert res.minimality_certificate < 1e-8
        assert res.length_p == pytest.approx(p_norm(z, 4, sp.ambient), abs=1e-8)


def test_geodesic_value_matches_quotient_distance(rng):
    sp = SPACES["center-quotient"]
    v = core.random_unitary(sp.ambient, rng)
    res = minimal_geodesic(sp, v, 4)
    qd = quotient_distance(sp, np.eye(sp.ambient.dim, dtype=complex), v, 4)
    assert res.length_p == pytest.approx(qd.value, abs=1e-8)


# ---------------------------------------------------------------------------
# rectifiable length
# ---------------------------------------------------------------------------


def test_rectifiable_constant_curve():
    sp = SPACES["diag-m2"]
    nodes = np.repeat(np.eye(4, dtype=complex)[None], 9, axis=0)
    c = SampledCurve(np.linspace(0, 1, 9), nodes, target="orbit")
    ell, _ = rectifiable_path_length(c, sp, 4)
    assert ell < 1e-9


def test_rectifiable_dominates_endpoint_distance(rng):
    sp = SPACES["diag-m2"]
    z = core.random_skew(sp.ambient, rng, 0.5)
    c = exp_curve(z, 17, target="orbit")
    ell, sums = rectifiable_path_length(c, sp, 4)
    end = quotient_distance(sp, c.nodes[0], c.nodes[-1], 4).value
    assert ell >= end - 1e-8
    assert sums[0] == pytest.approx(end, abs=1e-8)


def test_rectifiable_matches_quotient_length_on_smooth_curves(rng):
    sp = SPACES["center-quotient"]
    z = core.random_skew(sp.ambient, rng, 0.5)
    c = exp_curve(z, 17, target="orbit")
    ell, _ = rectifiable_path_length(c, sp, 4)
    lq = quotient_length(exp_curve(z, 65), sp, 4)
    assert ell == pytest.approx(lq, abs=1e-4)


# ---------------------------------------------------------------------------
# convexity probe
# ---------------------------------------------------------------------------


def _small_triple(rng, alg, su=0.25, sv=0.2, sw=0.2):
    v = unitary_exp(core.random_skew(alg, rng, sv))
    w = v @ unitary_exp(core.random_skew(alg, rng, sw))
    u = unitary_exp(core.random_skew(alg, rng, su))
    return u, v, w


def test_convexity_probe_random_triples(rng):
    done = 0
    while done < 25:
        u, v, w = _small_triple(rng, M3)
        if operator_norm(u - v) >= math.sqrt(2) or operator_norm(w - v) >= math.sqrt(2) - operator_norm(u - v):
            continue
        rep = convexity_probe(u, v, w, 4, M3)
        done += 1
        if not rep.collinear:
            assert rep.min_second_difference >= -1e-8
            assert rep.mean_second_difference > 0.0


def test_convexity_probe_flags_collinear(rng):
    v = unitary_exp(core.random_skew(M3, rng, 0.2))
    z = core.random_skew(M3, rng, 0.3)
    w = v @ unitary_exp(z)
    u = v @ unitary_exp(-0.5 * z)
    rep = convexity_probe(u, v, w, 4, M3)
    assert rep.collinear


def test_convexity_probe_commuting_scalar_oracle():
    # commuting diagonal unitaries: f_2 reduces to wrapped scalar angles
    alg = TracialAlgebra.full(3)
    zeta = np.array([0.3, 0.5, -0.2])
    psi = np.array([-0.2, 0.25, 0.15])
    u = np.diag(np.exp(1j * psi))
    v = np.eye(3, dtype=complex)
    w = np.diag(np.exp(1j * zeta))
    rep = convexity_probe(u, v, w, 2, alg)
    oracle = np.array(
        [np.mean(np.abs((-psi + t * zeta + np.pi) % (2 * np.pi) - np.pi) ** 2) for t in rep.s_grid]
    )
    assert np.allclose(rep.values, oracle, atol=1e-10)
    assert rep.min_second_difference >= -1e-10


def test_convexity_probe_rejects_large_radii():
    one = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        convexity_probe(-one, one, one, 4, M3)


# ---------------------------------------------------------------------------
# minimality probe
# ---------------------------------------------------------------------------


def test_minimality_probe_runs_clean(rng):
    for name in ("center-quotient", "diag-m2"):
        sp = SPACES[name]
        z = _minimal_symbol(sp, rng, scale=1.0)
        z = z * (0.4 * sp.epsilon_band(4) / operator_norm(z))
        z = best_approximant(z, sp.isotropy, 4, tol=1e-12).residual
        rep = minimality_probe(sp, z, 4, trials=10, seed=3, n_nodes=33)
        assert rep.violations == 0
        assert rep.uniform_band <= rep.epsilon
        assert rep.uniqueness_violations == 0
        assert rep.uniqueness_checked >= 2  # the minimal curve and its reparametrization


def _serial_minimality_probe(space, z, p, trials, seed, n_nodes, length_slack=1e-6):
    """The probe with one quotient_length solve per competitor, as it is
    drawn, and a second speeds solve for each tied competitor."""
    alg = space.ambient
    eps, len_delta = space.epsilon_band(p), p_norm(z, p, alg)
    delta_curve = exp_curve(z, n_nodes=n_nodes)
    rng = np.random.default_rng(seed)
    violations = vacuous = uniq_checked = uniq_violations = 0
    worst, details = math.inf, []
    for trial in range(trials):
        if trial < 2:
            kind = ("delta", "reparam")[trial]
            comp = exp_curve(z, n_nodes) if trial == 0 else reparametrized_exp_curve(z, 0.35, n_nodes)
            band = quotient_uniform_length(comp, space)
        else:
            kind, comp = "loop", None
            xi = core.random_skew(alg, rng)
            nxi = operator_norm(xi)
            if nxi <= 1e-14:
                vacuous += 1
                continue
            amp = 0.5 * eps
            for _ in range(40):
                cand = loop_deformed_exp_curve(z, xi / nxi, amp, n_nodes=n_nodes)
                band = quotient_uniform_length(cand, space)
                if band <= 0.95 * eps:
                    comp = cand
                    break
                amp *= 0.6
            if comp is None:
                vacuous += 1
                continue
        if band > eps:
            vacuous += 1
            continue
        length = quotient_length(comp, space, p)
        margin = length - (len_delta - length_slack)
        worst = min(worst, margin)
        violations += margin < 0
        if abs(length - len_delta) <= 1e-7:
            uniq_checked += 1
            speeds = quotient_norm(comp.left_velocities(), space.isotropy, p)
            renodes = _geodesic_resample(comp, _constant_speed_params(comp, speeds))
            uniq_violations += orbit_gap(space, renodes, delta_curve.nodes) > 1e-4
        details.append((kind, band, length, margin))
    return ProbeReport(trials, violations, worst if details else math.inf, vacuous, eps,
                       max(d[1] for d in details) if details else 0.0, uniq_checked, uniq_violations, details)


@pytest.mark.parametrize("spec", default_model_specs(), ids=lambda s: s.kind)
def test_minimality_probe_is_one_stacked_solve(spec, rng, newton_stack_sizes):
    # every competitor's nodes go into one Newton stack, and the report is
    # the serial per-competitor probe's, bit for bit
    sp = build_model_space(spec)
    z = _minimal_symbol(sp, rng, scale=1.0)
    z = best_approximant(z * (0.4 * sp.epsilon_band(4) / operator_norm(z)), sp.isotropy, 4, tol=1e-12).residual
    newton_stack_sizes.clear()
    rep = minimality_probe(sp, z, 4, trials=10, seed=7, n_nodes=33)
    assert newton_stack_sizes == [len(rep.details) * 33]
    assert rep.uniqueness_checked >= 2
    assert rep == _serial_minimality_probe(sp, z, 4, trials=10, seed=7, n_nodes=33)


def test_minimality_probe_without_competitors_makes_no_solve(rng, newton_stack_sizes):
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng, scale=0.1)
    newton_stack_sizes.clear()
    rep = minimality_probe(sp, z, 4, trials=0, n_nodes=33)
    assert newton_stack_sizes == [] and rep.details == [] and rep.worst_margin == math.inf


def test_minimality_probe_rejects_nonminimal_symbol(rng):
    sp = SPACES["diag-m2"]
    z = core.random_skew(sp.ambient, rng, 0.1)
    z = z + sp.isotropy.combine(0.5 * np.ones(sp.isotropy.dim))
    with pytest.raises(ValueError):
        minimality_probe(sp, z, 4, trials=2)


def test_reparametrized_curve_length_is_invariant(rng):
    sp = SPACES["diag-m2"]
    z = _minimal_symbol(sp, rng, scale=0.3)
    base = p_norm(z, 4, sp.ambient)
    for warp in (0.2, 0.5):
        c = reparametrized_exp_curve(z, warp, n_nodes=65)
        assert quotient_length(c, sp, 4) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("kind", ["diag-m2", "partial-isometry-orbit", "projection-orbit"])
def test_node_stacks_match_per_node_loops(kind, rng):
    # reference: the per-node loops the stacked calls replaced, bit for bit
    sp = SPACES.get(kind) or build_model_space(next(s for s in default_model_specs() if s.kind == kind))
    alg = sp.ambient
    c = loop_deformed_exp_curve(core.random_skew(alg, rng, 0.5), core.random_skew(alg, rng, 0.3), 0.4, n_nodes=33)
    c.velocities = None
    du = _differentiate_nodes(c.nodes, c.grid)
    vel = c.left_velocities()
    for k in range(len(c.grid)):
        v = c.nodes[k].conj().T @ du[k]
        assert np.array_equal(vel[k], (v - v.conj().T) / 2.0)
    for p in (4, np.inf):
        speeds = [p_norm(v, p, alg) for v in vel]
        assert curve_length_p(c, p, alg) == float(scipy.integrate.simpson(speeds, x=c.grid))
    speeds = [operator_norm(sp.horizontal_project(v)) for v in vel]
    assert quotient_uniform_length(c, sp) == float(scipy.integrate.simpson(speeds, x=c.grid))
    other = c.nodes @ unitary_exp(core.random_skew(alg, rng, 0.1))
    assert orbit_gap(sp, c.nodes, other) == max(orbit_gap(sp, u, v) for u, v in zip(c.nodes, other))


def test_loop_competitor_stacks_match_single_curves(rng):
    # a stack of loop directions builds, checks and measures every curve as
    # loop_deformed_exp_curve, validate_unitary and curve_length_p do, bit for bit
    alg = TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))
    z = core.random_skew(alg, rng, 0.7)
    xis = np.array([core.random_skew(alg, rng) for _ in range(6)])
    amps = rng.uniform(0.05, 0.8, 6)
    grid = np.linspace(0.0, 1.0, 65)
    nodes, vel = _loop_deformed_nodes(z, xis, amps, grid)
    _check_unitary_nodes(nodes)
    for p in (2, 4, np.inf):
        lengths = scipy.integrate.simpson(core._p_norms(vel, p, alg), x=grid)
        for k in range(6):
            curve = loop_deformed_exp_curve(z, xis[k], float(amps[k]), n_nodes=65)
            assert np.array_equal(curve.nodes, nodes[k]) and np.array_equal(curve.velocities, vel[k])
            assert curve_length_p(curve, p, alg) == lengths[k]
    nodes[2, 7] *= 1.01
    with pytest.raises(ValueError, match="curve node 7 is not unitary"):
        _check_unitary_nodes(nodes)
    with pytest.raises(ValueError, match="grid too coarse"):
        _check_unitary_nodes(np.array([[np.eye(5), -np.eye(5)]]))


def test_coarse_grid_check_measures_only_past_the_frobenius_bound(monkeypatch):
    # 1 and e^{i theta} 1 in M_2 with |e^{i theta} - 1| = 1.5: Frobenius gap
    # 2.12, uniform gap 1.5, so they pass; 1 and -1 (uniform gap 2) do not
    one = np.eye(2, dtype=complex)
    turned = np.exp(2j * np.arcsin(0.75)) * one
    assert np.linalg.norm(turned - one) > 2.12 and operator_norm(turned - one) == pytest.approx(1.5, abs=1e-15)
    _check_unitary_nodes(np.array([one, turned]))
    with pytest.raises(ValueError, match="grid too coarse"):
        _check_unitary_nodes(np.array([one, -one]))
    # below the Frobenius bound no uniform norm is measured
    monkeypatch.setattr(core, "_max_operator_norm", None)
    _check_unitary_nodes(exp_curve(core.random_skew(M4, np.random.default_rng(3))).nodes)


def test_orbit_gap_separates_points(rng):
    sp = SPACES["diag-m2"]
    u = core.random_unitary(sp.ambient, rng)
    g = unitary_exp(sp.isotropy.combine(0.4 * rng.standard_normal(sp.isotropy.dim)))
    assert orbit_gap(sp, u, u @ g) < 1e-10
    z = _minimal_symbol(sp, rng, scale=0.4)
    assert orbit_gap(sp, u, u @ unitary_exp(z)) > 1e-3
