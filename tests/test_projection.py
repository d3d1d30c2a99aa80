"""Subspaces, conditional expectations, and the certified best approximant."""

import tracemalloc

import numpy as np
import pytest

from ncgeo import core, geometry, projection, suites
from ncgeo.core import TracialAlgebra, operator_norm, p_norm
from ncgeo.geometry import HomSpace
from ncgeo.models import ModelSpec, build_model_space, conditional_expectation, validate_space
from ncgeo.projection import (
    ConvergenceError,
    SkewSubspace,
    best_approximant,
    best_approximants,
    hermitian_best_approximant,
    orthonormal_basis,
    quotient_norm,
    standard_skew_basis,
)
from ncgeo.suites import _lattice_search, _trace_polynomial

M3 = TracialAlgebra.full(3)
M4 = TracialAlgebra.full(4)
T2 = TracialAlgebra.full(4)


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


def test_subspace_holds_its_basis_as_one_array(rng):
    basis = [core.random_skew(M3, rng) for _ in range(2)]
    for given in (basis, np.array(basis)):
        S = SkewSubspace(M3, given)
        assert S.basis.shape == (2, 3, 3) and np.array_equal(S.basis, np.array(basis))
    assert SkewSubspace(M3, []).basis.shape == (0, 3, 3)
    with pytest.raises(ValueError, match="basis element shape does not match the ambient algebra"):
        SkewSubspace(M3, [basis[0], np.zeros((2, 2), dtype=complex)])


# ---------------------------------------------------------------------------
# complement, membership and Lie closure
# ---------------------------------------------------------------------------

_SUBSPACE_ALGEBRAS = pytest.mark.parametrize(
    "alg",
    [M3, TracialAlgebra.direct_sum((2, 3), (0.3, 0.7)), T2],
    ids=["m3", "m2+m3", "m2xm2"],
)


def _skew_dim(alg):
    return sum(d * d for d in alg.block_dims)


@_SUBSPACE_ALGEBRAS
@pytest.mark.parametrize("dim", [0, 1, 3, "full"])
def test_complement_is_an_orthonormal_skew_supplement(alg, dim, rng):
    dim = _skew_dim(alg) if dim == "full" else dim
    S = _random_subspace(alg, rng, dim)
    F = S.complement()
    assert F.dim == _skew_dim(alg) - dim
    assert core.is_skew_hermitian(F.basis, tol=0)
    assert core.in_algebra(F.basis, alg, tol=0)
    gram = np.array([[core.inner_tau(a, b, alg) for b in F.basis] for a in F.basis]).reshape(F.dim, F.dim)
    assert np.max(np.abs(gram - np.eye(F.dim)), initial=0.0) < 1e-13
    # trace-orthogonal to S, and S + F is the whole skew part
    assert np.max(np.abs(S.coords(F.basis)), initial=0.0) < 1e-13
    z = core.random_skew(alg, rng)
    assert operator_norm(S.project(z) + F.project(z) - z) < 1e-12


@_SUBSPACE_ALGEBRAS
@pytest.mark.parametrize("dim", [0, 1, 3, "full"])
def test_contains_one_matrix_and_a_stack(alg, dim, rng):
    dim = _skew_dim(alg) if dim == "full" else dim
    S = _random_subspace(alg, rng, dim)
    members = S.combine(rng.standard_normal((4, dim)))
    assert all(S.contains(y) for y in members)
    assert S.contains(members)
    assert S.contains(members[:0])
    if dim < _skew_dim(alg):
        outside = S.complement().basis[0]
        assert not S.contains(outside)
        assert not S.contains(np.concatenate([members, outside[None]]))


@_SUBSPACE_ALGEBRAS
@pytest.mark.parametrize("dim", [0, 1, "full"])
def test_trivial_and_full_subspaces_are_lie_closed(alg, dim, rng):
    dim = _skew_dim(alg) if dim == "full" else dim
    assert _random_subspace(alg, rng, dim).lie_closed()


def test_random_plane_of_m3_is_not_lie_closed(rng):
    assert not _random_subspace(M3, rng, 2).lie_closed()


@pytest.mark.parametrize("spec", suites.default_model_specs(), ids=lambda s: s.kind)
def test_default_isotropy_algebras_are_lie_closed(spec):
    assert build_model_space(spec).isotropy.lie_closed()


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def _space(kind, **kw):
    return build_model_space(ModelSpec(kind, **kw))


def test_expectation_center_blocks(rng):
    sp = _space("center-quotient", blocks=(2, 3), weights=(0.4, 0.6))
    alg = sp.ambient
    x = core.random_hermitian(alg, rng)
    ex = conditional_expectation(x, sp)
    assert operator_norm(ex[:2, :2] - np.trace(x[:2, :2]) / 2 * np.eye(2)) < 1e-12
    assert abs(core.trace_tau(ex, alg) - core.trace_tau(x, alg)) < 1e-13
    assert operator_norm(conditional_expectation(alg.identity(), sp) - alg.identity()) < 1e-13


def test_expectation_diag_m2_is_block_truncation(rng):
    sp = _space("diag-m2", blocks=(2,))
    x = core.random_hermitian(T2, rng) + 1j * core.random_hermitian(T2, rng)
    ex = conditional_expectation(x, sp)
    assert operator_norm(ex[:2, :2] - x[:2, :2]) < 1e-14
    assert operator_norm(ex[2:, 2:] - x[2:, 2:]) < 1e-14
    assert operator_norm(ex[:2, 2:]) == 0.0


def test_expectation_special_diag(rng):
    sp = _space("special-diag-m2", blocks=(2,))
    x = core.random_hermitian(T2, rng)
    ex = conditional_expectation(x, sp)
    avg = (x[:2, :2] + x[2:, 2:]) / 2
    assert operator_norm(ex[:2, :2] - avg) < 1e-14
    assert operator_norm(ex[2:, 2:] - avg) < 1e-14
    assert abs(core.trace_tau(ex, T2) - core.trace_tau(x, T2)) < 1e-13


def test_expectation_is_positive(rng):
    for sp in (_space("diag-m2", blocks=(2,)), _space("special-diag-m2", blocks=(2,)),
               _space("center-quotient", blocks=(3,))):
        for _ in range(20):
            h = core.random_hermitian(sp.ambient, rng)
            x = h @ h.conj().T
            ex = conditional_expectation(x, sp)
            assert np.min(np.linalg.eigvalsh((ex + ex.conj().T) / 2)) > -1e-12


def test_expectation_commutant_of_projection(rng):
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    sp = _space("projection-orbit", e=e)
    x = core.random_hermitian(M4, rng)
    ex = conditional_expectation(x, sp)
    assert operator_norm(ex @ e - e @ ex) < 1e-12
    assert abs(core.trace_tau(ex, sp.ambient) - core.trace_tau(x, sp.ambient)) < 1e-13


def test_expectation_rejects_unknown_kind(rng):
    # a space over a generic span carries no expectation
    S = SkewSubspace(M3, [core.random_skew(M3, rng)])
    sp = HomSpace(M3, "coset", M3.identity(), S, 1.0, lambda p: 1.0)
    with pytest.raises(ValueError):
        conditional_expectation(core.random_hermitian(M3, rng), sp)


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


@pytest.mark.parametrize("p, scale", [(16, 1e35), (8, 1e60), (4, 1e150)])
def test_overflowing_certificate_is_not_a_certificate(rng, p, scale):
    # w^{p-1} overflows, so the certificate is NaN from the start: that is
    # non-convergence, not an answer
    S = _random_subspace(M4, rng, 3)
    z = scale * core.random_skew(M4, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="certificate nan above tol"):
            best_approximant(z, S, p)


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
        z0 = best_approximant(z, S, 4).residual
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
        t = core._tau_stack(wp1, onb, alg).real
        t_ref = np.array([np.real(core._tau_product(wp1, bk, alg)) for bk in onb])
        assert np.allclose(t, t_ref, rtol=1e-12, atol=1e-13)

        # F(ad w)^{-1} exists for ||w|| < pi/2
        w = w / operator_norm(w)
        left = [core.Eigenframe(w).apply(lambda x: 1.0 / core._sym_F(x), bk) for bk in onb]
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
    lowered f by roundoff at most, followed by a certificate that did not fall.
    Its Hessian is the stack's: the product form at p = 4, the eigenframe form
    otherwise (test_quartic_hessian_is_the_eigenframe_h_form ties the two)."""
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
        if p == 4:
            hess = projection._quartic_hessian(w[None], onb, alg)[0]
        else:
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


def _check_against_solo(res, zs, S, p):
    # each instance of the stacked result ends as its solo solve, bit for bit
    for k, z in enumerate(zs):
        one = best_approximant(z, S, p)
        assert np.array_equal(one.coefficients, res.coefficients[k])
        assert (one.optimality_residual, one.iterations) == (res.optimality_residual[k], res.iterations[k])


@pytest.mark.parametrize("n, dim", [(4, 5), (6, 12)])
@pytest.mark.parametrize("p", [4, 6])
def test_best_approximants_match_serial_solves(n, dim, p, rng, monkeypatch):
    alg = TracialAlgebra.full(n)
    S = _random_subspace(alg, rng, dim)
    zs = np.array([core.random_skew(alg, rng, scale) for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 1.0, 0.3)]
                  + [S.combine(rng.standard_normal(dim))])
    # _newton takes one _tau_stack per iterate, of its live rows; the member
    # of S leaves at the first, the other rows later
    sizes, tau_stack = [], core._tau_stack
    monkeypatch.setattr(core, "_tau_stack", lambda x, *a: sizes.append(len(x)) or tau_stack(x, *a))
    res = best_approximants(zs, S, p)
    monkeypatch.undo()
    assert sizes[0] == 8 and sizes[1] == 7 and res.iterations[-1] == 0
    _check_against_solo(res, zs, S, p)
    _check_against_serial(zs, S, p)
    # the one-instance case
    single = best_approximant(zs[2], S, p)
    c, _, trials, _ = serial_best_approximant(zs[2], S, p)
    assert np.max(np.abs(single.coefficients - c)) <= 1e-12 and single.iterations == trials


def _shared_eigenvalue_element(alg, rng):
    # in M2 (+) M3 the two blocks share the eigenvalue 0.7i, so a full
    # eigendecomposition could mix them
    w = np.zeros((5, 5), dtype=complex)
    for sl, lam in zip(alg.block_slices(), ([0.7, -0.4], [0.7, 0.2, -1.1])):
        q = core.random_unitary(TracialAlgebra.full(len(lam)), rng)
        w[sl, sl] = (q * (1j * np.array(lam))) @ q.conj().T
    return w


def test_best_approximants_weighted_shared_eigenvalue(rng):
    # M2 (+) M3 with weights (0.3, 0.7), residuals near a shared eigenvalue
    alg = TracialAlgebra.direct_sum((2, 3), (0.3, 0.7))
    S = _random_subspace(alg, rng, 6)
    zs = [_shared_eigenvalue_element(alg, rng) + S.combine(0.05 * rng.standard_normal(S.dim)) for _ in range(4)]
    zs.append(core.random_skew(alg, rng))
    for p in (4, 6):
        _check_against_serial(np.array(zs), S, p)


_QUARTIC_ALGEBRAS = [TracialAlgebra.full(n) for n in (2, 3, 4, 8)] + [
    TracialAlgebra.direct_sum(dims, (0.3, 0.7)) for dims in ((2, 2), (2, 3))]


@pytest.mark.parametrize("K", [1, 7])
@pytest.mark.parametrize("alg", _QUARTIC_ALGEBRAS, ids=lambda a: "+".join(map(str, a.block_dims)))
def test_quartic_hessian_is_the_eigenframe_h_form(alg, K, rng):
    # the p = 4 product form against the eigenframe form, the independent
    # reference, per instance; at K = 1 also against core.h_form entry by entry
    onb = _random_subspace(alg, rng, min(6, sum(d * d for d in alg.block_dims))).onb()
    ws = [core.random_skew(alg, rng, scale) for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 1.0, 0.3)[:K]]
    if alg.block_dims == (2, 3):
        ws[-1] = _shared_eigenvalue_element(alg, rng)
    ws = np.array(ws)
    frame = core.Eigenframe(ws, alg)
    bt = frame.transform(onb)
    ref = frame.h_matrix(bt, bt, 4)
    got = projection._quartic_hessian(ws, onb, alg)
    assert got.shape == ref.shape == (K, len(onb), len(onb))
    assert np.all(np.abs(got - ref).max(axis=(1, 2)) <= 1e-13 * np.abs(ref).max(axis=(1, 2)))
    if K == 1:
        form = np.array([[core.h_form(ws[0], b, c, 4, alg) for c in onb] for b in onb])
        assert np.abs(got[0] - form).max() <= 1e-13 * np.abs(form).max()


def _eigh_calls(monkeypatch):
    """The shapes of the arrays np.linalg.eigh is called on from now on."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(np.shape(a)) or eigh(a, *args, **kw))
    return calls


@pytest.mark.parametrize("K", [1, 129])
def test_quartic_best_approximants_diagonalize_nothing(K, rng, monkeypatch):
    # at p = 4 every Newton iterate takes the product-form Hessian; at p = 6
    # each iterate takes one frame of the rows that pass its certificate test,
    # which are the rows of the next iterate's one _tau_stack
    S = _random_subspace(M4, rng, 5)
    zs = np.array([core.random_skew(M4, rng) for _ in range(K)])
    calls = _eigh_calls(monkeypatch)
    res = best_approximants(zs, S, 4)
    assert calls == [] and res.iterations.min() > 0
    iterates, tau_stack = [], core._tau_stack
    monkeypatch.setattr(core, "_tau_stack", lambda x, *a: iterates.append(len(x)) or tau_stack(x, *a))
    best_approximants(zs, S, 6)
    assert [shape[0] for shape in calls] == iterates[1:] and len(iterates) > 1


#: np.linalg.eigh calls of the coset distance below: its count from before
#: the product form, whose Hessians all came from eigenframes
_COSET_EIGH_CALLS = 30


def test_quartic_coset_distance_keeps_its_frames(monkeypatch):
    # the coset's residuals are eigenframes with a left factor: the product
    # form never serves it, and its eigendecompositions are those of the
    # eigenframe Hessian (the count before the product form existed)
    sp = build_model_space(ModelSpec("special-diag-m2", blocks=(2,)))
    gen = np.random.default_rng(7)
    u, v = (core.unitary_exp(core.random_skew(sp.ambient, gen, 0.8)) for _ in range(2))
    monkeypatch.setattr(projection, "_quartic_hessian", None)
    calls = _eigh_calls(monkeypatch)
    res = geometry.quotient_distance(sp, u, v, 4)
    assert res.stationarity_residual <= 1e-9 and len(calls) == _COSET_EIGH_CALLS


def test_lifting_certificate_checks_its_input(rng):
    # a Hermitian z used to read 0.0 ("already minimal") and a wrong shape
    # raised numpy's broadcast error
    S = build_model_space(ModelSpec("diag-m2", blocks=(2,))).isotropy
    with pytest.raises(ValueError, match="lifting_certificate requires a skew-Hermitian input"):
        projection.lifting_certificate(np.eye(4), S, 4)
    with pytest.raises(ValueError, match=r"lifting_certificate takes one \(4, 4\) matrix, got shape \(3, 3\)"):
        projection.lifting_certificate(np.eye(3), S, 4)
    center = build_model_space(ModelSpec("center-quotient", blocks=(2, 2)))
    off_block = core.random_skew(center.ambient, rng)
    off_block[0, 3], off_block[3, 0] = 0.5, -0.5
    with pytest.raises(ValueError, match="no off-block entries"):
        projection.lifting_certificate(off_block, center.isotropy, 4)
    z = core.random_skew(S.ambient, rng)
    assert projection.lifting_certificate(z - best_approximant(z, S, 4).projection, S, 4) <= 1e-10


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


def test_stacked_solves_are_the_solo_solves_bit_for_bit(monkeypatch):
    # at p = 8 from mixed scales some line searches are taken at the first
    # trial by every live instance (the stack becomes the trial's) and some
    # by only a part (their rows are copied); a solo solve takes every
    # accepted trial whole.  Either way each instance ends with the
    # coefficients, certificate and trial count of its solo solve.
    gen = np.random.default_rng(6)
    S = _random_subspace(M4, gen, 8)
    zs = np.array([core.random_skew(M4, gen, (0.5, 1.0, 2.0)[i % 3]) for i in range(12)])
    # _newton takes one _tau_stack per iterate, then one _objective per trial:
    # the stack size of each trial, per line search (first, the starting f)
    searches, objective, tau_stack = [[]], projection._objective, core._tau_stack
    monkeypatch.setattr(core, "_tau_stack", lambda x, *a: searches.append([]) or tau_stack(x, *a))
    monkeypatch.setattr(projection, "_objective", lambda w, *a: searches[-1].append(len(w)) or objective(w, *a))
    res = best_approximants(zs, S, 8)
    monkeypatch.undo()
    assert any(len(s) == 1 for s in searches[1:])  # every live instance took the first trial
    assert any(len(s) > 1 and s[1] < s[0] for s in searches[1:])  # some took it, some backtracked
    _check_against_solo(res, zs, S, 8)


def test_conditional_expectation_stack_leaves_at_zero_steps():
    # Q_p is the conditional expectation onto the diag-m2 isotropy, so each
    # row of a 129-row stack certifies at its trace-orthogonal projection:
    # the whole stack leaves at the first certificate test, unmoved
    S = _space("diag-m2", blocks=(2,)).isotropy
    gen = np.random.default_rng(129)
    zs = np.array([core.random_skew(S.ambient, gen) for _ in range(129)])
    res = best_approximants(zs, S, 4)
    assert np.array_equal(res.iterations, np.zeros(129, dtype=int))
    assert np.array_equal(res.coefficients, S.coords(zs))


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


def test_failed_line_search_leaves_through_the_stagnation_test():
    # every trial of instance 0 has a NaN w, so its first line search halves
    # 47 times, to a scale below 1e-14, and fails; it leaves at the next
    # certificate test with its start state, f and certificate, and the other
    # two instances certify as they do when solved alone
    gen = np.random.default_rng(22)
    S = _random_subspace(M3, gen, 4)
    zs = np.array([core.random_skew(M3, gen) for _ in range(3)])
    onb, c0 = S.onb(), S.coords(zs)
    w0 = zs - S.combine(c0)

    def solve(ids):
        def retract(live, c, s):
            c = c - s
            w = zs[ids][live] - S.combine(c)
            w[ids[live] == 0] = np.nan
            return c, w

        return projection._newton(c0[ids], w0[ids], retract, lambda ids, frame, bt: bt, onb, 4, M3, 1e-10)

    c, f, resid, trials = solve(np.arange(3))
    assert trials.tolist() == [47, 4, 4]
    f0, wp1 = projection._objective(w0, 4, M3)
    assert np.array_equal(c[0], c0[0]) and f[0] == f0[0]
    assert resid[0] == np.abs(core._tau_stack(wp1[0], onb, M3).real).max() > 1e-10
    for k in (1, 2):
        alone = solve(np.array([k]))
        assert np.array_equal(alone[0][0], c[k]) and alone[1][0] == f[k]
        assert alone[2][0] == resid[k] <= 1e-10 and alone[3][0] == trials[k]


def test_newton_takes_one_tol_per_instance():
    # a scalar tol and an array of it run alike, bit for bit, and an instance
    # of a stack with one tol per instance runs as it does alone at its tol
    gen = np.random.default_rng(23)
    S = _random_subspace(M3, gen, 4)
    zs = np.array([core.random_skew(M3, gen) for _ in range(3)])
    onb, c0 = S.onb(), S.coords(zs)
    w0 = zs - S.combine(c0)

    def solve(ids, tol):
        def retract(live, c, s):
            c = c - s
            return c, zs[ids][live] - S.combine(c)

        return projection._newton(c0[ids], w0[ids], retract, lambda ids, frame, bt: bt, onb, 4, M3, tol)

    for a, b in zip(solve(np.arange(3), 1e-10), solve(np.arange(3), np.full(3, 1e-10))):
        assert np.array_equal(a, b)
    tols = np.array([1e-4, 1e-13, 1e-8])
    stacked = solve(np.arange(3), tols)
    assert np.all(stacked[2] <= tols)
    for k in range(3):
        alone = solve(np.array([k]), float(tols[k]))
        assert all(np.array_equal(x[k], y[0]) for x, y in zip(stacked, alone))


def test_eigenframe_objective_is_row_wise():
    # f of each frame of a stack is that of the frame alone, bit for bit,
    # whatever the stack size, so a coset instance's f does not depend on
    # the rows beside it
    gen = np.random.default_rng(24)
    for alg in (M3, TracialAlgebra((2, 2), (0.3, 0.7))):
        w = np.array([core.random_skew(alg, gen) for _ in range(13)])
        frame = core.Eigenframe(w, alg)
        for p in (2, 4, 6):
            f = projection._objective(frame, p, alg)[0]
            assert f == [projection._objective(frame[k : k + 1], p, alg)[0][0] for k in range(len(w))]


# ---------------------------------------------------------------------------
# the lattice oracle
# ---------------------------------------------------------------------------


#: grid rows of one matrix-power slab of the reference oracle (bounds its memory)
_SLAB_ROWS = 64


def _matrix_power_objective(z, b, g1, g2, p, alg):
    """(-1)^(p/2) tau((z - c1 b0 - c2 b1)^p) on the grid g1 x g2, one matrix
    power per grid point."""
    cc1, cc2 = np.meshgrid(g1, g2, indexing="ij")
    w = z[None, None] - cc1[..., None, None] * b[0][None, None] - cc2[..., None, None] * b[1][None, None]
    w2 = w @ w
    wp = w2
    for _ in range(p // 2 - 1):
        wp = wp @ w2
    return (-1) ** (p // 2) * np.einsum("...ii,i->...", wp, core._diag_weights(alg)).real


def _lattice_oracle(z, S, p, alg):
    """Exhaustive minimization of ||z - c1 b1 - c2 b2||_p^p over a coefficient
    lattice: pitch 1e-3 around the linear projection, then two 10x
    refinements around the incumbent.  Independent of the Newton path, and
    of the suite's trace polynomial: every grid point is a matrix power."""
    onb = orthonormal_basis(S)
    b = np.array(onb.basis)
    center = onb.coords(z)

    def sweep(c0, half_width, pitch):
        g1 = np.arange(c0[0] - half_width, c0[0] + half_width + pitch / 2, pitch)
        g2 = np.arange(c0[1] - half_width, c0[1] + half_width + pitch / 2, pitch)
        vals = np.concatenate(
            [_matrix_power_objective(z, b, g1[lo : lo + _SLAB_ROWS], g2, p, alg) for lo in range(0, len(g1), _SLAB_ROWS)]
        )
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
    # the suite's trace-polynomial oracle lands on the same lattice point
    np.testing.assert_array_equal(_lattice_search(z, S, 4, M3), c_oracle)


@pytest.mark.parametrize("p", [4, 6])
def test_trace_polynomial_matches_matrix_powers(p):
    gen = np.random.default_rng(200 + p)
    S = SkewSubspace(M3, [core.random_skew(M3, gen) for _ in range(2)])
    z = core.random_skew(M3, gen, 0.6)
    onb = orthonormal_basis(S)
    b = np.array(onb.basis)
    c0 = onb.coords(z)
    A = _trace_polynomial(z - c0[0] * b[0] - c0[1] * b[1], b, p, M3)
    powers = np.arange(p + 1)
    # sampled points of the coarsest (pitch 1e-3) and the finest (1e-5) sweep
    for half, pitch in ((550, 1e-3), (120, 1e-5)):
        d1, d2 = gen.integers(-half, half + 1, size=(2, 12)) * pitch
        poly = (d1[:, None] ** powers) @ A @ (d2[:, None] ** powers).T
        ref = _matrix_power_objective(z, b, c0[0] + d1, c0[1] + d2, p, M3)
        assert np.max(np.abs(poly - ref) / np.abs(ref)) < 1e-13


def test_diag_m2_truncation_against_expectation(rng):
    # closed-form stationarity: E(z) satisfies the optimality criterion,
    # so strict convexity makes it the unique best approximant
    sp = build_model_space(ModelSpec("diag-m2", blocks=(2,)))
    for p in (4, 6):
        for _ in range(10):
            z = core.random_skew(T2, rng)
            ez = conditional_expectation(z, sp)
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
        (_, val), witness = quotient_norm(z, S, np.inf, return_witness=True)
        assert val <= operator_norm(z) + 1e-12
        assert operator_norm(z - witness) == pytest.approx(val, abs=1e-12)
        # no sampled competitor beats the reported value meaningfully
        for _ in range(50):
            y = onb.combine(rng.standard_normal(2))
            assert operator_norm(z - y) >= val - 1e-4


def test_quotient_norm_inf_bracket_holds_against_random_competitors(rng):
    # the lower end is below ||z - y|| for every y in S, not only at the witness
    sp = build_model_space(ModelSpec("special-diag-m2", blocks=(2,)))
    for S in (_random_subspace(M4, rng, 3), sp.isotropy):
        onb = orthonormal_basis(S)
        scales = (0.01, 0.5, 1.0, 2.0, 100.0)
        zs = np.array([core.random_skew(S.ambient, rng, scale) for scale in scales])
        lower, upper = quotient_norm(zs, S, np.inf)
        assert np.all(lower <= upper) and np.all(lower > 0.0)
        for z, lo, scale in zip(zs, lower, scales):
            ys = onb.combine(scale * rng.standard_normal((50, S.dim)))
            assert np.all(lo <= core._operator_norms(z - ys) * (1.0 + 1e-12))


@pytest.mark.parametrize("spec", suites.default_model_specs(), ids=lambda spec: spec.kind)
def test_quotient_norm_inf_bracket_is_narrow_on_the_model_spaces(spec):
    # at the samples of validate_space's c_O check the bracket is within 1%
    sp = build_model_space(spec)
    for seed in range(1000, 1010):
        assert validate_space(sp, trials=20, seed=seed)["c_width"] <= 1e-2


def test_quotient_norm_inf_edge_cases(rng):
    S = _random_subspace(M4, rng, 3)
    z = core.random_skew(M4, rng)
    # no matrices
    (lower, upper), witness = quotient_norm(np.zeros((0, 4, 4), dtype=complex), S, np.inf, return_witness=True)
    assert lower.shape == upper.shape == (0,) and witness.shape == (0, 4, 4)
    # the zero subspace: the bracket closes on the operator norm
    (lower, upper), witness = quotient_norm(z, SkewSubspace(M4, []), np.inf, return_witness=True)
    assert lower == upper == operator_norm(z) and not witness.any()
    # z in S: the bracket closes on 0 (exactly for z = 0), the witness is z
    (lower, upper), witness = quotient_norm(np.zeros((4, 4), dtype=complex), S, np.inf, return_witness=True)
    assert lower == upper == 0.0 and not witness.any()
    y = orthonormal_basis(S).combine(rng.standard_normal(3))
    (lower, upper), witness = quotient_norm(y, S, np.inf, return_witness=True)
    assert 0.0 <= lower <= upper < 1e-14 and operator_norm(witness - y) < 1e-14


@pytest.mark.parametrize("p", [np.inf, 4, 6])
def test_stacked_quotient_norm_matches_single_calls(p, rng):
    # the value and the witness of each matrix of a stack are those of its own call, bit for bit
    sp = build_model_space(ModelSpec("center-quotient", blocks=(2, 3), weights=(0.3, 0.7)))
    for S in (_random_subspace(M4, rng, 3), sp.isotropy, SkewSubspace(M3, [])):
        alg = S.ambient
        zs = np.array([core.random_skew(alg, rng, scale) for scale in (0.2, 1.0, 3.0, 1.0, 0.5)])
        vals, witnesses = quotient_norm(zs, S, p, return_witness=True)
        # at p = inf the value is the bracket (lower, upper), compared end by end
        ends = np.array(vals if p == np.inf else [vals])
        assert ends.shape[1:] == (5,) and witnesses.shape == zs.shape
        for k, z in enumerate(zs):
            single, single_witness = quotient_norm(z, S, p, return_witness=True)
            single_ends = single if p == np.inf else (single,)
            assert all(isinstance(v, float) for v in single_ends) and list(single_ends) == ends[:, k].tolist()
            assert np.array_equal(single_witness, witnesses[k])
            assert quotient_norm(z, S, p) == single
        assert np.shape(quotient_norm(zs[:0], S, p))[-1] == 0


@pytest.mark.parametrize("p", [np.inf, 4])
def test_quotient_norm_checks_its_input(p, rng):
    # p = inf used to measure a non-skew or off-block z; every p rejects it
    # with the best approximant's messages, one matrix or a stack
    sp = build_model_space(ModelSpec("center-quotient", blocks=(2, 2)))
    z = core.random_skew(sp.ambient, rng)
    off_block = z.copy()
    off_block[0, 3], off_block[3, 0] = 0.5, -0.5
    for bad, message in ((core.random_hermitian(sp.ambient, rng), "skew-Hermitian input"),
                         (off_block, "no off-block entries")):
        for arg in (bad, np.array([z, bad])):
            with pytest.raises(ValueError, match=message):
                quotient_norm(arg, sp.isotropy, p)


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
    # the suite's oracle evaluates a 1101 x 1101 coefficient grid from its
    # trace polynomial, in blocks of rows: no grid of matrices, and at most
    # 128 rows of values at once
    gen = np.random.default_rng(104)
    S = SkewSubspace(M3, [core.random_skew(M3, gen) for _ in range(2)])
    z = core.random_skew(M3, gen, 0.6)
    tracemalloc.start()
    try:
        c = _lattice_search(z, S, 4, M3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.max(np.abs(best_approximant(z, S, 4).coefficients - c)) < 1e-4


def test_lattice_row_blocks_keep_the_full_grid_argmin(monkeypatch):
    # the first minimum over the row blocks is the first minimum of the whole
    # grid, including ties between blocks
    gen = np.random.default_rng(105)
    cases = [(SkewSubspace(M3, [core.random_skew(M3, gen) for _ in range(2)]), core.random_skew(M3, gen, 0.6))
             for _ in range(4)]
    blocked = [_lattice_search(z, S, 4, M3) for S, z in cases]
    monkeypatch.setattr(suites, "_LATTICE_BLOCK_ROWS", 10**6)
    assert all(np.array_equal(c, _lattice_search(z, S, 4, M3)) for c, (S, z) in zip(blocked, cases))
    monkeypatch.setattr(suites, "_trace_polynomial", lambda w0, b, p, alg: np.zeros((p + 1, p + 1)))
    monkeypatch.setattr(suites, "_LATTICE_BLOCK_ROWS", 7)
    S, z = cases[0]
    # a constant polynomial: every point ties, and the first grid point wins
    c0 = orthonormal_basis(S).coords(z)
    assert np.array_equal(_lattice_search(z, S, 4, M3), c0 - 0.55 - 120 * 1e-4 - 120 * 1e-5)
