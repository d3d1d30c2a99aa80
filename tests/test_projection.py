"""Subspaces, conditional expectations, and the certified best approximant."""

import tracemalloc

import numpy as np
import pytest

from ncgeo import core
from ncgeo.core import TracialAlgebra, operator_norm, p_norm
from ncgeo.projection import (
    ConvergenceError,
    SkewSubspace,
    _first_variation,
    best_approximant,
    best_approximants,
    conditional_expectation,
    hermitian_best_approximant,
    minimal_lifting,
    orthonormal_basis,
    quotient_norm,
    standard_skew_basis,
)
from ncgeo.suites import _LATTICE_SLAB_ROWS, _lattice_search

M3 = TracialAlgebra.full(3)
M4 = TracialAlgebra.full(4)
T2 = TracialAlgebra.tensor_square(2)


def _random_subspace(alg, rng, dim):
    return SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(dim)])


# ---------------------------------------------------------------------------
# orthonormalization
# ---------------------------------------------------------------------------


def test_standard_basis_is_orthonormal():
    for alg in (M3, TracialAlgebra.direct_sum((2, 3), (0.4, 0.6))):
        basis = standard_skew_basis(alg)
        assert len(basis) == sum(d * d for d in alg.block_dims)
        gram = np.array([[core.inner_tau(a, b, alg) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)


def test_orthonormal_basis_gram_is_identity(rng):
    S = _random_subspace(M4, rng, 5)
    out = orthonormal_basis(S)
    gram = np.array([[core.inner_tau(a, b, M4) for b in out.basis] for a in out.basis])
    assert np.allclose(gram, np.eye(5), atol=1e-10)
    # same span: every original element reconstructs from the output
    for b in S.basis:
        assert out.contains(b, tol=1e-9)


def test_orthonormal_basis_fixes_orthonormal_input(rng):
    S = orthonormal_basis(_random_subspace(M3, rng, 3))
    again = orthonormal_basis(S)
    for a, b in zip(S.basis, again.basis):
        assert operator_norm(a - b) < 1e-10


def test_orthonormal_basis_single_element(rng):
    b = core.random_skew(M3, rng)
    out = orthonormal_basis(SkewSubspace(M3, [b]))
    norm2 = core.inner_tau(b, b, M3)
    assert operator_norm(out.basis[0] - b / np.sqrt(norm2)) < 1e-12


def test_orthonormal_basis_rejects_rank_deficiency(rng):
    b = core.random_skew(M3, rng)
    with pytest.raises(ValueError):
        orthonormal_basis(SkewSubspace(M3, [b, 2.0 * b]))


def modified_gram_schmidt(basis, alg):
    """Reference: modified Gram-Schmidt in the trace inner product."""
    out = []
    for b in basis:
        r = b.astype(complex)
        for g in out:
            r = r - core.inner_tau(r, g, alg) * g
        out.append(r / np.sqrt(core.inner_tau(r, r, alg)))
    return np.array(out)


@pytest.mark.parametrize(
    "alg",
    [M4, T2, TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))],
    ids=["m4", "m2xm2", "m2+m3"],
)
def test_orthonormal_basis_matches_modified_gram_schmidt(alg, rng):
    basis = [core.random_skew(alg, rng) for _ in range(6)]
    onb = SkewSubspace(alg, basis).onb()
    assert np.max(np.abs(onb - modified_gram_schmidt(basis, alg))) < 1e-12
    z = core.random_skew(alg, rng)
    coords = [core.inner_tau(z, b, alg) for b in onb]
    assert np.allclose(SkewSubspace(alg, basis).coords(z), coords, atol=1e-13)


def test_orthonormal_basis_rejects_too_many_elements(rng):
    basis = [core.random_skew(M3, rng) for _ in range(10)]
    with pytest.raises(ValueError):
        orthonormal_basis(SkewSubspace(M3, basis))
    # nine generic elements span the whole skew part of M3
    assert orthonormal_basis(SkewSubspace(M3, basis[:9])).dim == 9


def test_subspace_and_best_approximant_reject_off_block_entries(rng):
    alg = TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))
    off = np.zeros((5, 5), dtype=complex)
    off[0, 4], off[4, 0] = 1.0, -1.0
    with pytest.raises(ValueError):
        SkewSubspace(alg, [core.random_skew(alg, rng), off])
    S = SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(3)])
    with pytest.raises(ValueError):
        best_approximant(core.random_skew(alg, rng) + 0.2 * off, S, 4)


def test_subspace_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewSubspace(M3, [np.eye(3, dtype=complex)])


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def test_expectation_center_blocks(rng):
    alg = TracialAlgebra.direct_sum((2, 3), (0.4, 0.6))
    S = SkewSubspace(alg, [], kind="center-blocks")
    x = core.random_hermitian(alg, rng)
    ex = conditional_expectation(x, S)
    assert operator_norm(ex[:2, :2] - np.trace(x[:2, :2]) / 2 * np.eye(2)) < 1e-12
    assert abs(core.trace_tau(ex, alg) - core.trace_tau(x, alg)) < 1e-13
    assert operator_norm(conditional_expectation(alg.identity(), S) - alg.identity()) < 1e-13


def test_expectation_diag_m2_is_block_truncation(rng):
    S = SkewSubspace(T2, [], kind="diag-m2")
    x = core.random_hermitian(T2, rng) + 1j * core.random_hermitian(T2, rng)
    ex = conditional_expectation(x, S)
    assert operator_norm(ex[:2, :2] - x[:2, :2]) < 1e-14
    assert operator_norm(ex[2:, 2:] - x[2:, 2:]) < 1e-14
    assert operator_norm(ex[:2, 2:]) == 0.0


def test_expectation_special_diag(rng):
    S = SkewSubspace(T2, [], kind="special-diag-m2")
    x = core.random_hermitian(T2, rng)
    ex = conditional_expectation(x, S)
    avg = (x[:2, :2] + x[2:, 2:]) / 2
    assert operator_norm(ex[:2, :2] - avg) < 1e-14
    assert operator_norm(ex[2:, 2:] - avg) < 1e-14
    assert abs(core.trace_tau(ex, T2) - core.trace_tau(x, T2)) < 1e-13


def test_expectation_is_positive(rng):
    for kind, alg in (("diag-m2", T2), ("special-diag-m2", T2), ("center-blocks", M3)):
        S = SkewSubspace(alg, [], kind=kind)
        for _ in range(20):
            h = core.random_hermitian(alg, rng)
            x = h @ h.conj().T
            ex = conditional_expectation(x, S)
            assert np.min(np.linalg.eigvalsh((ex + ex.conj().T) / 2)) > -1e-12


def test_expectation_commutant_of_projection(rng):
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    S = SkewSubspace(M4, [], kind="commutant-of-projection", aux=e)
    x = core.random_hermitian(M4, rng)
    ex = conditional_expectation(x, S)
    assert operator_norm(ex @ e - e @ ex) < 1e-12
    assert abs(core.trace_tau(ex, M4) - core.trace_tau(x, M4)) < 1e-13


def test_expectation_rejects_unknown_kind(rng):
    S = SkewSubspace(M3, [core.random_skew(M3, rng)], kind="basis")
    with pytest.raises(ValueError):
        conditional_expectation(core.random_hermitian(M3, rng), S)


# ---------------------------------------------------------------------------
# best approximant: trivial cases and identities
# ---------------------------------------------------------------------------


def test_best_approximant_empty_subspace(rng):
    z = core.random_skew(M3, rng)
    res = best_approximant(z, SkewSubspace(M3, []), 4)
    assert operator_norm(res.projection) == 0.0
    assert operator_norm(res.residual - z) == 0.0


def test_combine_sums_the_orthonormal_basis(rng):
    S = _random_subspace(M4, rng, 3)
    c = rng.standard_normal(3)
    assert np.allclose(S.combine(c), sum(ck * bk for ck, bk in zip(c, S.onb())), rtol=0, atol=1e-14)
    empty = SkewSubspace(M3, []).combine(np.zeros(0))
    assert empty.shape == (3, 3)
    assert not empty.any()


def test_best_approximant_reports_non_convergence(rng):
    S = _random_subspace(M4, rng, 5)
    z = core.random_skew(M4, rng)
    with pytest.raises(ConvergenceError, match=r"certificate \d\.\d{3}e[-+]\d+ above tol 1\.0e-10 after 1 line-search trials"):
        best_approximant(z, S, 6, max_iter=1)


def test_best_approximant_of_member_is_itself(rng):
    S = _random_subspace(M4, rng, 3)
    c = rng.standard_normal(3)
    z = orthonormal_basis(S).combine(c)
    res = best_approximant(z, S, 4)
    assert p_norm(res.residual, 4, M4) < 1e-9
    assert operator_norm(res.projection - z) < 1e-8


def test_best_approximant_rejects_odd_p(rng):
    S = _random_subspace(M3, rng, 2)
    with pytest.raises(ValueError):
        best_approximant(core.random_skew(M3, rng), S, 3)


def test_best_approximant_rejects_hermitian_input(rng):
    S = _random_subspace(M3, rng, 2)
    with pytest.raises(ValueError):
        best_approximant(core.random_hermitian(M3, rng), S, 4)


@pytest.mark.parametrize("p", [2, 4, 6])
def test_projection_identities(p, rng):
    S = _random_subspace(M4, rng, 4)
    for _ in range(40):
        z = core.random_skew(M4, rng)
        res = best_approximant(z, S, p)
        assert res.optimality_residual <= 1e-10
        # projection lies in the span
        assert S.contains(res.projection, tol=1e-9)
        # idempotence of the complement: Q(z - Q(z)) = 0
        res2 = best_approximant(res.residual, S, p)
        assert p_norm(res2.projection, p, M4) < 1e-8
        # factor-2 bound
        assert p_norm(res.projection, p, M4) <= 2.0 * p_norm(z, p, M4) + 1e-10
        # Q applied twice fixes the projection
        res3 = best_approximant(res.projection, S, p)
        assert p_norm(res3.residual, p, M4) < 1e-8


def test_projection_homogeneity(rng):
    S = _random_subspace(M4, rng, 3)
    for _ in range(10):
        z = core.random_skew(M4, rng)
        q = best_approximant(z, S, 4).projection
        for lam in (-2.0, 0.5):
            q_lam = best_approximant(lam * z, S, 4).projection
            assert p_norm(q_lam - lam * q, 4, M4) < 1e-8


def test_residual_beats_sampled_competitors(rng):
    S = _random_subspace(M4, rng, 3)
    for _ in range(10):
        z = core.random_skew(M4, rng)
        res = best_approximant(z, S, 4)
        base = p_norm(res.residual, 4, M4)
        for _ in range(20):
            y = orthonormal_basis(S).combine(rng.standard_normal(3))
            assert base <= p_norm(z - y, 4, M4) + 1e-10


def test_p2_matches_linear_projection(rng):
    S = _random_subspace(M4, rng, 4)
    for _ in range(25):
        z = core.random_skew(M4, rng)
        newton = best_approximant(z, S, 2)
        assert p_norm(newton.projection - S.project(z), 2, M4) < 1e-10


def test_minimal_lifting_criterion_and_perturbations(rng):
    # residual certificate agrees with direct convexity perturbations
    S = _random_subspace(M4, rng, 3)
    onb = orthonormal_basis(S)
    for _ in range(30):
        z = core.random_skew(M4, rng)
        z0 = minimal_lifting(z, S, 4)
        base = p_norm(z0, 4, M4)
        for eps in (1e-2, -1e-2, 1e-4, -1e-4):
            y = onb.combine(rng.standard_normal(3))
            assert base <= p_norm(z0 + eps * y, 4, M4) + 1e-8


def test_continuity_probe(rng):
    # ||Q(z) - Q(z')||_p shrinks along z' -> z (trend, not a modulus)
    S = _random_subspace(M4, rng, 3)
    z = core.random_skew(M4, rng)
    d = core.random_skew(M4, rng)
    q = best_approximant(z, S, 4).projection
    gaps = []
    for t in (0.1, 0.01, 0.001):
        qt = best_approximant(z + t * d, S, 4).projection
        gaps.append(p_norm(qt - q, 4, M4))
    assert gaps[2] <= gaps[0] + 1e-12
    assert gaps[2] < 1e-2


def test_phi_bijection_identities(rng):
    # with the orthogonal supplement F: P_F(f - Q(f)) = f and Q(f - Q(f)) = 0
    S = _random_subspace(M4, rng, 4)
    F = S.complement()
    for _ in range(15):
        f = F.combine(rng.standard_normal(F.dim))
        res = best_approximant(f, S, 4)
        img = f - res.projection
        assert p_norm(F.project(img) - f, 4, M4) < 1e-8
        assert p_norm(best_approximant(img, S, 4).projection, 4, M4) < 1e-8


def power_sum_hessian(w, onb, p, alg, left_factors=None):
    """Reference Hessian H_w(l_j, b_l) by the explicit power-sum formula
    (l_j = b_j unless left factors are given)."""
    powers = [np.linalg.matrix_power(w, k) for k in range(p - 1)]
    left_factors = onb if left_factors is None else left_factors
    out = np.empty((len(left_factors), len(onb)))
    for j, bj in enumerate(left_factors):
        left = sum(powers[p - 2 - k] @ bj @ powers[k] for k in range(p - 1))
        for l, bl in enumerate(onb):
            out[j, l] = np.real((-1) ** (p // 2) * p * core.trace_tau(left @ bl, alg))
    return out


@pytest.mark.parametrize("p", [2, 4, 6, 8])
@pytest.mark.parametrize(
    "alg",
    [M3, TracialAlgebra.full(6), T2, TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))],
    ids=["m3", "m6", "m2xm2", "m2+m3"],
)
def test_hessian_matches_power_sum_oracle(alg, p, rng):
    # the Newton loop's Hessian H_w(l_j, b_k) from the eigenframe of w, with
    # the left factors of the best approximant (l = b) and of the coset
    # polish (l = F(ad w)^{-1} b), and its first variation tau(w^{p-1} b_k)
    S = _random_subspace(alg, rng, min(7, alg.dim**2))
    onb = S.onb()
    for _ in range(3):
        w = core.random_skew(alg, rng)
        ref = power_sum_hessian(w, onb, p, alg)
        frame = core.Eigenframe(w, alg)
        bt = frame.transform(onb)
        hess = frame.h_matrix(bt, bt, p)
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))
        wp1 = np.linalg.matrix_power(w, p - 1)
        t = _first_variation(wp1, onb, alg)
        t_ref = np.array([np.real(core._tau_product(wp1, bk, alg)) for bk in onb])
        assert np.allclose(t, t_ref, rtol=1e-12, atol=1e-13)

        # F(ad w)^{-1} exists for ||w|| < pi/2
        w = w / operator_norm(w)
        left = [core.apply_analytic_ad(w, "F_inv", bk) for bk in onb]
        ref = power_sum_hessian(w, onb, p, alg, left)
        frame = core.Eigenframe(w, alg)
        bt = frame.transform(onb)
        hess = frame.h_matrix(bt / frame.ad_symbol(core._sym_F), bt, p)
        assert np.max(np.abs(hess - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the stacked solve against the serial one-instance Newton loop
# ---------------------------------------------------------------------------


def serial_best_approximant(z, S, p, tol=1e-10, max_iter=10_000):
    """The one-instance damped Newton + Armijo loop that best_approximants
    stacks, kept here as its oracle: (coefficients, certificate, trials,
    Newton steps).  It stops on roundoff stagnation: an accepted trial that
    lowered f by roundoff at most, followed by a certificate that did not fall."""
    alg, onb, sign = S.ambient, S.onb(), (-1) ** (p // 2)

    def objective(w):
        return float(np.real(sign * core.trace_tau(np.linalg.matrix_power(w, p), alg)))

    c = S.coords(z)
    w = z - S.combine(c)
    f, trials, steps = objective(w), 0, 0
    flat, prev = False, np.inf
    while True:
        t = np.real(core._tau_stack(np.linalg.matrix_power(w, p - 1), onb, alg))
        resid = float(np.max(np.abs(t)))
        if resid <= tol or trials >= max_iter or (flat and resid >= prev):
            return c, resid, trials, steps
        prev = resid
        steps += 1
        grad = sign * p * t
        frame = core.Eigenframe(w, alg)
        bt = frame.transform(onb)
        hess = frame.h_matrix(bt, bt, p)
        damp = 1e-12 * max(1.0, float(np.trace(hess)) / len(onb))
        try:
            step = np.linalg.solve(hess + damp * np.eye(len(onb)), -grad)
            if not np.isfinite(step).all() or float(step @ grad) >= 0.0:
                step = None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = -grad / max(float(np.linalg.norm(grad)), 1e-300)
        slope = float(step @ grad)
        roundoff = 64.0 * np.finfo(float).eps * (abs(f) + 1.0)
        scale, accepted = 1.0, False
        while scale >= 1e-14:
            trials += 1
            c_new = c - scale * step
            w_new = z - S.combine(c_new)
            f_new = objective(w_new)
            if f_new <= f + 1e-4 * scale * slope + roundoff:
                accepted = True
                break
            scale *= 0.5
            if trials >= max_iter:
                break
        if not accepted:
            return c, resid, trials, steps
        flat = f - f_new <= roundoff
        c, w, f = c_new, w_new, f_new


def _check_against_serial(zs, S, p, tol=1e-10):
    res = best_approximants(zs, S, p, tol=tol)
    assert res.projection.shape == res.residual.shape == zs.shape
    assert res.coefficients.shape == (len(zs), S.dim)
    backtracked = 0
    for k, z in enumerate(zs):
        c, resid, trials, steps = serial_best_approximant(z, S, p, tol)
        assert np.max(np.abs(res.coefficients[k] - c), initial=0.0) <= 1e-12
        assert res.iterations[k] == trials
        assert res.optimality_residual[k] == resid and resid <= tol
        assert np.max(np.abs(res.residual[k] - (z - res.projection[k]))) == 0.0
        backtracked += trials > steps
    return res, backtracked


@pytest.mark.parametrize("n, dim", [(4, 5), (6, 12)])
@pytest.mark.parametrize("p", [4, 6])
def test_best_approximants_match_serial_solves(n, dim, p, rng):
    alg = TracialAlgebra.full(n)
    S = _random_subspace(alg, rng, dim)
    zs = np.array([core.random_skew(alg, rng, scale) for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 1.0, 0.3)])
    _check_against_serial(zs, S, p)
    # the one-instance case
    single = best_approximant(zs[2], S, p)
    c, _, trials, _ = serial_best_approximant(zs[2], S, p)
    assert np.max(np.abs(single.coefficients - c)) <= 1e-12 and single.iterations == trials


def test_best_approximants_weighted_shared_eigenvalue(rng):
    # M2 (+) M3 with weights (0.3, 0.7): the two blocks of w share the
    # eigenvalue 0.7i, so a full eigendecomposition could mix them
    alg = TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))
    S = _random_subspace(alg, rng, 6)
    zs = []
    for _ in range(4):
        w = np.zeros((5, 5), dtype=complex)
        for sl, lam in zip(alg.block_slices(), ([0.7, -0.4], [0.7, 0.2, -1.1])):
            q = core.random_unitary(TracialAlgebra.full(len(lam)), rng)
            w[sl, sl] = (q * (1j * np.array(lam))) @ q.conj().T
        zs.append(w + S.combine(0.05 * rng.standard_normal(S.dim)))
    zs.append(core.random_skew(alg, rng))
    for p in (4, 6):
        _check_against_serial(np.array(zs), S, p)


def test_best_approximants_mixes_zero_and_many_step_instances():
    # members of S certify at 0 trials; at p = 8 several of the others
    # backtrack, so the lockstep line searches hold instances at different
    # scales and positions
    gen = np.random.default_rng(6)
    S = _random_subspace(M4, gen, 8)
    zs = [core.random_skew(M4, gen, (0.5, 1.0, 2.0)[i % 3]) for i in range(24)]
    members = [orthonormal_basis(S).combine(gen.standard_normal(8)) for _ in range(2)]
    zs = np.array(members[:1] + zs[:10] + members[1:] + zs[10:])
    res, backtracked = _check_against_serial(zs, S, 8)
    assert res.iterations[0] == res.iterations[11] == 0
    assert res.iterations.max() >= 5 and backtracked >= 3


def test_best_approximants_empty_stack_and_empty_subspace(rng):
    S = _random_subspace(M3, rng, 2)
    res = best_approximants(np.zeros((0, 3, 3), dtype=complex), S, 4)
    assert res.projection.shape == (0, 3, 3) and res.coefficients.shape == (0, 2)
    assert res.iterations.shape == res.optimality_residual.shape == (0,)
    zs = np.array([core.random_skew(M3, rng) for _ in range(3)])
    res = best_approximants(zs, SkewSubspace(M3, []), 4)
    assert not res.projection.any() and np.array_equal(res.residual, zs)
    assert res.coefficients.shape == (3, 0) and not res.iterations.any()
    with pytest.raises(ValueError):
        best_approximants(zs[0], S, 4)


def test_best_approximants_names_the_failing_instance(rng):
    S = _random_subspace(M4, rng, 5)
    member = orthonormal_basis(S).combine(rng.standard_normal(5))
    zs = np.array([member, core.random_skew(M4, rng), core.random_skew(M4, rng)])
    with pytest.raises(ConvergenceError, match=r"after 1 line-search trials \(instance 1 of 3\)"):
        best_approximants(zs, S, 6, max_iter=1)


def test_best_approximants_quotes_the_certificate_of_the_failing_instance():
    # the member of S certifies at once and leaves; z's full Newton step is
    # rejected, so z runs out of budget inside the line search and leaves
    # with its own certificate, not the member's
    gen = np.random.default_rng(2)
    S = _random_subspace(M4, gen, 5)
    z = core.random_skew(M4, gen, 3.0)
    member = orthonormal_basis(S).combine(gen.standard_normal(5))
    _, resid, trials, steps = serial_best_approximant(z, S, 8, max_iter=1)
    assert (trials, steps) == (1, 1) and resid > 1.0
    with pytest.raises(ConvergenceError) as err:
        best_approximants(np.array([member, z]), S, 8, max_iter=1)
    assert str(err.value) == (
        f"best approximant certificate {resid:.3e} above tol 1.0e-10 "
        "after 1 line-search trials (instance 1 of 2)"
    )


def test_best_approximant_stops_on_roundoff_stagnation():
    # at ||z|| = 17.9 and p = 8 the absolute certificate tol is below the
    # roundoff of tau(w^7 b_k), and every roundoff-level trial is accepted:
    # without the stagnation stop the loop spends its whole 10,000-trial
    # budget (about 1.7 s per solve) before it raises
    stalled = []
    for s in range(10):
        gen = np.random.default_rng(s)
        S = SkewSubspace(M4, [core.random_skew(M4, gen) for _ in range(2)])
        z = core.random_skew(M4, gen)
        z = z * (17.9 / operator_norm(z))
        c, resid, trials, _ = serial_best_approximant(z, S, 8)
        assert trials <= 20
        if resid <= 1e-10:
            res = best_approximant(z, S, 8)
            assert res.iterations == trials and np.max(np.abs(res.coefficients - c)) <= 1e-12
            continue
        stalled.append(s)
        with pytest.raises(ConvergenceError, match=f"^best approximant certificate {resid:.3e} .* after {trials} "):
            best_approximant(z, S, 8)
        # in a stack the stalled instance leaves on its own schedule too
        with pytest.raises(ConvergenceError, match=rf"after {trials} line-search trials \(instance 1 of 2\)"):
            best_approximants(np.array([0.1 * z, z]), S, 8)
    assert len(stalled) >= 5


# ---------------------------------------------------------------------------
# the lattice oracle
# ---------------------------------------------------------------------------


def _lattice_oracle(z, S, p, alg):
    """Exhaustive minimization of ||z - c1 b1 - c2 b2||_p^p over a coefficient
    lattice: pitch 1e-3 around the linear projection, then two 10x
    refinements around the incumbent.  Independent of the Newton path."""
    onb = orthonormal_basis(S)
    b = np.array(onb.basis)
    center = onb.coords(z)
    wvec = core._diag_weights(alg)
    sign = (-1) ** (p // 2)

    def sweep(c0, half_width, pitch):
        g1 = np.arange(c0[0] - half_width, c0[0] + half_width + pitch / 2, pitch)
        g2 = np.arange(c0[1] - half_width, c0[1] + half_width + pitch / 2, pitch)
        # the objective grid is filled in slabs of rows to bound its memory
        vals = np.empty((len(g1), len(g2)))
        for lo in range(0, len(g1), _LATTICE_SLAB_ROWS):
            cc1, cc2 = np.meshgrid(g1[lo : lo + _LATTICE_SLAB_ROWS], g2, indexing="ij")
            w = (
                z[None, None]
                - cc1[..., None, None] * b[0][None, None]
                - cc2[..., None, None] * b[1][None, None]
            )
            w2 = w @ w
            wp = w2
            for _ in range(p // 2 - 1):
                wp = wp @ w2
            vals[lo : lo + len(cc1)] = sign * np.einsum("...ii,i->...", wp, wvec).real
        k = np.unravel_index(np.argmin(vals), vals.shape)
        interior = 0 < k[0] < len(g1) - 1 and 0 < k[1] < len(g2) - 1
        return np.array([g1[k[0]], g2[k[1]]]), interior

    c, interior = sweep(center, 0.55, 1e-3)
    assert interior, "oracle window clipped the optimum"
    for pitch in (1e-4, 1e-5):
        c, _ = sweep(c, 12 * pitch * 10, pitch)
    return c


@pytest.mark.parametrize("instance", range(4))
def test_best_approximant_against_lattice_oracle(instance):
    gen = np.random.default_rng(100 + instance)
    S = SkewSubspace(M3, [core.random_skew(M3, gen) for _ in range(2)])
    z = core.random_skew(M3, gen, 0.6)
    res = best_approximant(z, S, 4)
    c_oracle = _lattice_oracle(z, S, 4, M3)
    assert np.max(np.abs(res.coefficients - c_oracle)) < 1e-4
    q_oracle = orthonormal_basis(S).combine(c_oracle)
    assert p_norm(res.projection - q_oracle, 4, M3) < 1e-4


def test_diag_m2_truncation_against_expectation(rng):
    # closed-form stationarity: E(z) satisfies the optimality criterion,
    # so strict convexity makes it the unique best approximant
    from ncgeo.models import ModelSpec, build_model_space

    sp = build_model_space(ModelSpec("diag-m2", blocks=(2,), p_list=(4, 6)))
    for p in (4, 6):
        for _ in range(10):
            z = core.random_skew(T2, rng)
            ez = conditional_expectation(z, sp.isotropy)
            w = z - ez
            wp1 = np.linalg.matrix_power(w, p - 1)
            for bk in sp.isotropy.onb():
                assert abs(core._tau_product(wp1, bk, T2)) < 1e-12
            res = best_approximant(z, sp.isotropy, p)
            assert p_norm(res.projection - ez, p, T2) < 1e-8


# ---------------------------------------------------------------------------
# quotient norms
# ---------------------------------------------------------------------------


def test_quotient_norm_even_p(rng):
    S = _random_subspace(M4, rng, 3)
    for _ in range(10):
        z = core.random_skew(M4, rng)
        qn = quotient_norm(z, S, 4)
        assert qn <= p_norm(z, 4, M4) + 1e-12
        res = best_approximant(z, S, 4)
        assert qn == pytest.approx(p_norm(res.residual, 4, M4), abs=1e-12)


def test_quotient_norm_orthogonal_case(rng):
    S = orthonormal_basis(_random_subspace(M4, rng, 1))
    z = core.random_skew(M4, rng)
    z_perp = z - S.project(z)
    assert quotient_norm(z_perp, S, 2) == pytest.approx(p_norm(z_perp, 2, M4), abs=1e-10)


def test_quotient_norm_inf_is_upper_bound(rng):
    S = _random_subspace(M4, rng, 2)
    onb = orthonormal_basis(S)
    for _ in range(5):
        z = core.random_skew(M4, rng)
        val, witness = quotient_norm(z, S, np.inf, return_witness=True)
        assert val <= operator_norm(z) + 1e-12
        assert operator_norm(z - witness) == pytest.approx(val, abs=1e-12)
        # no sampled competitor beats the reported value meaningfully
        for _ in range(50):
            y = onb.combine(rng.standard_normal(2))
            assert operator_norm(z - y) >= val - 1e-4


def test_quotient_norm_rejects_odd_p(rng):
    S = _random_subspace(M3, rng, 1)
    with pytest.raises(ValueError):
        quotient_norm(core.random_skew(M3, rng), S, 3)


def test_hermitian_wrapper_round_trip(rng):
    S = _random_subspace(M4, rng, 3)
    x = core.random_hermitian(M4, rng)
    res = hermitian_best_approximant(x, S, 4)
    assert core.is_hermitian(res.projection, tol=1e-10)
    skew = best_approximant(1j * x, S, 4)
    assert operator_norm(res.projection - (-1j) * skew.projection) < 1e-12


def test_suite_lattice_oracle_memory_is_bounded():
    # the suite's reference oracle sweeps a 1101 x 1101 coefficient grid
    gen = np.random.default_rng(104)
    S = SkewSubspace(M3, [core.random_skew(M3, gen) for _ in range(2)])
    z = core.random_skew(M3, gen, 0.6)
    tracemalloc.start()
    try:
        c = _lattice_search(z, S, 4, M3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.max(np.abs(best_approximant(z, S, 4).coefficients - c)) < 1e-4
