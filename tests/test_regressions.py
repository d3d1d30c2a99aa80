"""Known-hard inputs, each replayed with its expected outcome."""

import numpy as np
import pytest

from ncgeo import core, geometry, projection, suites
from ncgeo.models import ModelSpec, build_model_space
from ncgeo.projection import quotient_norm
from ncgeo.rng import trial_stream

# The value the compass search reached on the sample below, before the p = inf
# quotient norm became a bracket: it stopped 7% above the infimum, the
# optimistic side of the c_O check of validate_space.
_COMPASS_SPECIAL_DIAG_M2 = 1.5397626346631013


def test_special_diag_m2_sample_where_the_compass_search_stopped_high():
    # sample 6 of validate_space(special-diag-m2, trials=20, seed=1028)
    sp = build_model_space(ModelSpec("special-diag-m2", blocks=(2,)))
    z = 1j * core._random_hermitians(sp.ambient, np.random.default_rng(1028), 20)[6]
    lower, upper = quotient_norm(z, sp.isotropy, np.inf)
    assert upper < _COMPASS_SPECIAL_DIAG_M2
    assert lower <= _COMPASS_SPECIAL_DIAG_M2
    assert upper - lower <= 1e-2 * upper


def test_horizontal_bijection_trial_with_a_small_complement_residual():
    # a report at seed 6025 with trials=1: the complement of trial 15's
    # subspace keeps a residual of norm 1.6e-5, whose normalized roundoff
    # Hermitian part (1.1e-9) used to fail the skew check of SkewSubspace,
    # so verify raised instead of writing its report
    cfg = suites.SuiteConfig(seed=6025, trials=1)
    label = "projection:horizontal-bijection"
    assert suites.RECORDS[label][1](cfg, 15, trial_stream(cfg.seed, label, 15)) >= 0.0


# ROADMAP item 9's guard query: from the p = 2 optima every start certifies,
# where two starts of a p = 4 run from the starts themselves crawled along the
# cut-locus guard for 651 and 643 trials
_GUARD_VALUE = 0.43705553617655984
_GUARD_CERTIFICATE = 9.367506770274758e-16
_GUARD_TRIALS = ([1, 0, 1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2], [3] * 14)


def test_coset_guard_query_certifies_every_start(monkeypatch):
    # center-quotient (3,3) at p = 4: the p = 2 stage takes 0-2 trials per
    # start and the p stage 3, and all 14 starts certify at their own tol
    sp = build_model_space(ModelSpec("center-quotient", blocks=(3, 3)))
    alg, iso = sp.ambient, sp.isotropy
    rng = np.random.default_rng(14004)
    z = core.random_skew(alg, rng)
    z = z * (rng.uniform(0.2, 2.8) / core.operator_norm(z))
    v = core.unitary_exp(z) @ core.unitary_exp(iso.combine(rng.standard_normal(iso.dim)))
    runs, newton = [], projection._newton

    def spy(state, w, retract, left, onb, p, alg, tol, **kw):
        runs.append((p, np.broadcast_to(tol, len(state)), newton(state, w, retract, left, onb, p, alg, tol, **kw)))
        return runs[-1][2]

    monkeypatch.setattr(projection, "_newton", spy)
    res = geometry.quotient_distance(sp, np.eye(alg.dim), v, 4, multistarts=6, seed=14)
    assert (res.value, res.stationarity_residual, res.starts) == (_GUARD_VALUE, _GUARD_CERTIFICATE, 14)
    assert [p for p, _, _ in runs] == [2, 4]
    assert tuple(out[3].tolist() for _, _, out in runs) == _GUARD_TRIALS
    for _, tol, (_, _, certificates, _) in runs:
        assert np.all(tol <= 1e-9) and np.all(certificates <= tol)


def test_lift_of_nodes_whose_chords_fail_the_unitarity_check():
    # nodes scaled by 1 + 0.45e-9 n have a unitarity defect of 9.0e-10 n and
    # pass validate_unitary (1e-9 n), but their chords Gamma_k* Gamma_{k+1}
    # have 1.8e-9 n, and principal_log refused them when it took the chord logs
    sp = build_model_space(ModelSpec("diag-m2", blocks=(2,)))
    n, rng = sp.ambient.dim, np.random.default_rng(3)
    z, xi = core.random_skew(sp.ambient, rng, 0.35), core.random_skew(sp.ambient, rng, 0.3)
    gamma = geometry.loop_deformed_exp_curve(z, xi, 0.35, n_nodes=65)
    gamma.nodes = gamma.nodes * (1.0 + 0.45e-9 * n)
    gamma.validate_unitary()
    with pytest.raises(ValueError, match="requires a unitary argument"):
        core.principal_log(gamma.nodes[:-1].conj().mT @ gamma.nodes[1:])
    res = geometry.epsilon_isometric_lift(gamma, sp, 4, 1e-2)
    assert res.excess < res.epsilon
