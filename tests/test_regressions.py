"""Known-hard inputs, each replayed with its expected outcome."""

import numpy as np

from ncgeo import core, suites
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
