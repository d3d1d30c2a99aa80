"""The record table of the verification suites: order, replay, pickling
and the coset Newton work of a report."""

import functools
import math
import pickle
import sys

import numpy as np
import pytest

from ncgeo import core, projection, suites
from ncgeo.rng import trial_stream
from ncgeo.suites import RECORDS, SuiteConfig, run_verification_suite

#: (suite, anchor, trials) of every record of a SuiteConfig(trials=1) report,
#: in report order: 41 records, 216 trials
ONE_TRIAL_RECORDS = [
    ("core", "clarkson-inequalities", 6),
    ("core", "unitary-invariance", 1),
    ("core", "exponential-log-roundtrip", 1),
    ("core", "exponential-differential", 20),
    ("core", "inverse-symbol-bound", 20),
    ("core", "spectral-scale-identity", 1),
    ("core", "fold-symbol", 1),
    ("core", "h-form-identities", 1),
    ("projection", "best-approximant-identities", 1),
    ("projection", "minimal-lifting-criterion", 1),
    ("projection", "p2-linear-agreement", 1),
    ("projection", "horizontal-bijection", 20),
    ("projection", "lattice-oracle-agreement", 2),
    ("geometry", "metric-axioms", 1),
    ("geometry", "distance-sandwich", 2),
    ("geometry", "antipode-at-pi", 4),
    ("geometry", "diameter-bound", 20),
    ("geometry", "unitary-minimality", 10),
    ("geometry", "coset-metric-axioms", 6),
    ("geometry", "lifting-ode-constant", 5),
    ("geometry", "lifting-ode-defect", 10),
    ("geometry", "epsilon-isometric-lifts", 10),
    ("geometry", "coset-vs-curve-infimum", 8),
    ("geometry", "coset-separation", 8),
    ("geometry", "local-convexity", 1),
    ("geometry", "geodesic-minimality-band", 5),
    ("models", "center-quotient-structure", 3),
    ("models", "center-quotient-facts", 2),
    ("models", "center-quotient-geodesics", 5),
    ("models", "diag-m2-structure", 3),
    ("models", "diag-m2-facts", 2),
    ("models", "diag-m2-geodesics", 5),
    ("models", "partial-isometry-orbit-structure", 3),
    ("models", "partial-isometry-orbit-facts", 2),
    ("models", "partial-isometry-orbit-geodesics", 5),
    ("models", "projection-orbit-structure", 3),
    ("models", "projection-orbit-facts", 2),
    ("models", "projection-orbit-geodesics", 5),
    ("models", "special-diag-m2-structure", 3),
    ("models", "special-diag-m2-facts", 2),
    ("models", "special-diag-m2-geodesics", 5),
]


@pytest.mark.parametrize("names", [suites.SUITE_NAMES, ("models", "core")])
def test_records_run_in_suite_then_table_order(names, monkeypatch):
    # the runner takes the selected suites in config order and each suite's
    # records in table order; the trials themselves are not run here
    monkeypatch.setattr(suites, "_run_trials", lambda seed, label, n, fn: (0, 1.0))
    report = run_verification_suite(SuiteConfig(seed=1000, trials=1, suites=names))
    expected = [rec for name in names for rec in ONE_TRIAL_RECORDS if rec[0] == name]
    assert [(r.suite, r.anchor, r.trials) for r in report.records] == expected
    assert len(ONE_TRIAL_RECORDS) == 41 and sum(n for _, _, n in ONE_TRIAL_RECORDS) == 216


def test_every_trial_replays_from_its_key():
    # one trial at a time from (seed, label, trial) alone: the least replayed
    # margin is the record's worst margin, NaN included
    cfg = SuiteConfig(seed=1000, trials=1)
    report = run_verification_suite(cfg)
    assert [f"{r.suite}:{r.anchor}" for r in report.records] == list(RECORDS)
    for rec in report.records:
        label = f"{rec.suite}:{rec.anchor}"
        count, trial = RECORDS[label]
        margins = [trial(cfg, k, trial_stream(cfg.seed, label, k)) for k in range(count(cfg))]
        assert len(margins) == rec.trials, label
        worst = min(margins, key=lambda m: -math.inf if math.isnan(m) else m)
        assert worst == rec.worst_margin or (math.isnan(worst) and math.isnan(rec.worst_margin)), label


def test_every_trial_pickles_by_reference():
    # a process pool sends each trial by import path, so a trial must be a
    # module-level function or a functools.partial of one, never a closure
    # or a lambda
    for label, (_, trial) in RECORDS.items():
        fn = trial.func if isinstance(trial, functools.partial) else trial
        assert "<" not in fn.__qualname__, label
        assert getattr(sys.modules[fn.__module__], fn.__qualname__) is fn, label
        back = pickle.loads(pickle.dumps(trial))
        if isinstance(trial, functools.partial):
            assert (back.func, back.args, back.keywords) == (trial.func, trial.args, trial.keywords), label
        else:
            assert back is trial, label


@pytest.mark.parametrize("field, value, name", [
    ("dims", (2.7,), r"dims\[0\]"),
    ("dims", (2, math.inf), r"dims\[1\]"),
    ("trials", 1.5, "trials"),
    ("seed", 2026.5, "seed"),
])
def test_config_rejects_non_integral_numbers(field, value, name):
    # never truncated: dims=(2.7,) is not dims=(2,), and trials=1.5 is no
    # TypeError deep inside a record
    with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
        SuiteConfig(**{field: value})


def test_config_takes_integral_numbers_as_ints():
    cfg = SuiteConfig(seed=np.int64(7), dims=(np.int32(2), 4.0), trials=np.uint8(3))
    assert (cfg.seed, cfg.dims, cfg.trials) == (7, (2, 4), 3)
    assert all(type(x) is int for x in (cfg.seed, *cfg.dims, cfg.trials))


def test_taylor_expm_oracle_matches_scipy():
    # the exp-differential record's oracle on its Van Loan blocks, at the
    # record's radii and beyond (several squarings), and at zero
    import scipy.linalg

    gen = np.random.default_rng(20)
    assert np.array_equal(suites._taylor_expm(np.zeros((4, 4), complex)), np.eye(4))
    for k in range(60):
        alg = core.TracialAlgebra.full((2, 4)[k % 2])
        a, b = (core.random_skew(alg, gen, gen.uniform(0.0, 1.5 + 6 * (k >= 50))) for _ in range(2))
        x = np.block([[a, b], [np.zeros_like(a), a]])
        assert core.operator_norm(suites._taylor_expm(x) - scipy.linalg.expm(x)) < 1e-13


#: coset Newton trials, summed over the instances, of the one-trial seed-1000
#: report: 5,511 when every start ran at p from the start itself, 2,451 with
#: the p = 2 stage first
_COSET_TRIALS_SEED_1000 = 2451


def test_coset_newton_work_of_a_report(monkeypatch):
    # a count, not a time: the ratchet fails when the coset work grows by 10%
    counts, newton = [], projection._newton

    def spy(state, w, *args, **kw):
        out = newton(state, w, *args, **kw)
        if isinstance(w, core.Eigenframe):  # a coset stack; best approximants iterate on residuals
            counts.append(int(out[3].sum()))
        return out

    monkeypatch.setattr(projection, "_newton", spy)
    assert run_verification_suite(SuiteConfig(seed=1000, trials=1)).passed
    assert len(counts) > 0 and sum(counts) <= 1.1 * _COSET_TRIALS_SEED_1000
