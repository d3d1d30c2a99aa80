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


# ROADMAP item 9's guard query; item 9 updates the trial counts when it stops at the guard
_GUARD_VALUE = 0.43705553617655984
_GUARD_CERTIFICATE = 7.172040739078511e-14
_GUARD_TRIALS = [6, 3, 8, 8, 651, 8, 7, 643, 9, 8, 7, 7, 6, 9]


def test_coset_guard_query_where_two_starts_crawl(monkeypatch):
    # center-quotient (3,3) at p = 4: starts 4 and 7 crawl along the cut-locus
    # guard for about 650 trials each and leave uncertified through the
    # stagnation test; the other 12 certify in 3-9 trials
    sp = build_model_space(ModelSpec("center-quotient", blocks=(3, 3)))
    alg, iso = sp.ambient, sp.isotropy
    rng = np.random.default_rng(14004)
    z = core.random_skew(alg, rng)
    z = z * (rng.uniform(0.2, 2.8) / core.operator_norm(z))
    v = core.unitary_exp(z) @ core.unitary_exp(iso.combine(rng.standard_normal(iso.dim)))
    runs, newton = [], projection._newton

    def spy(*args, **kw):
        runs.append(newton(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(projection, "_newton", spy)
    res = geometry.quotient_distance(sp, np.eye(alg.dim), v, 4, multistarts=6, seed=14)
    assert (res.value, res.stationarity_residual, res.starts) == (_GUARD_VALUE, _GUARD_CERTIFICATE, 14)
    ((_, _, certificates, trials),) = runs
    assert trials.tolist() == _GUARD_TRIALS
    assert [k for k, r in enumerate(certificates) if not r <= 1e-9] == [4, 7]


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
