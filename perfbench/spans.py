"""In-memory span tracing of ncgeo's public functions, installed from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper
that records a span: name, start, end, parent span and operation id.
Module-level functions are rebound in every ``ncgeo`` module that holds
them, because ``from .core import principal_log`` copies the binding;
methods are wrapped once on their class.  Spans stay in per-thread arrays
until ``write()`` dumps them once, at the end of the run.

A span's self time is its duration minus the time covered by its direct
children, which are the wrapped calls it made on the same thread.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from array import array

import numpy as np
import scipy.optimize

from ncgeo import core, geometry, models, projection


def _count_best_approximant(counts, res, bound):
    counts["projection.best_approximant.linesearch_trials"] += res.iterations
    counts["projection.best_approximant.zero_steps"] += res.iterations == 0


def _count_quotient_distance(counts, res, bound):
    # quotient_distance starts from max(2, multistarts) points and doubles
    # them when its jitter retry fires
    counts["geometry.quotient_distance.starts"] += res.starts
    counts["geometry.quotient_distance.retries"] += res.starts > max(2, bound.arguments["multistarts"])


def _count_lift(counts, res, bound):
    counts["geometry.lift_ode_solve.refinements"] += res.refinements
    counts["geometry.lift_ode_solve.restarts"] += res.restarts


def _count_lbfgs(counts, res, bound):
    counts["geometry.lbfgs.nfev"] += res.nfev


#: (span name, owner, attribute, counter hook reading the returned value).
#: scipy.optimize.minimize is called only by geometry.quotient_distance.
TARGETS = [
    ("core.principal_log", core, "principal_log", None),
    ("core.unitary_exp", core, "unitary_exp", None),
    ("core.AdAnalytic.init", core.AdAnalytic, "__init__", None),
    ("core.AdAnalytic.apply", core.AdAnalytic, "apply", None),
    ("core.AdAnalytic.exp", core.AdAnalytic, "exp", None),
    ("core.p_norm", core, "p_norm", None),
    ("core.operator_norm", core, "operator_norm", None),
    ("core.h_form", core, "h_form", None),
    ("projection.best_approximant", projection, "best_approximant", _count_best_approximant),
    ("projection.lifting_certificate", projection, "lifting_certificate", None),
    ("projection.SkewSubspace.project", projection.SkewSubspace, "project", None),
    ("projection.SkewSubspace.combine", projection.SkewSubspace, "combine", None),
    ("projection.orthonormal_basis", projection, "orthonormal_basis", None),
    ("projection.quotient_norm", projection, "quotient_norm", None),
    ("geometry.quotient_distance", geometry, "quotient_distance", _count_quotient_distance),
    ("geometry.lift_ode_solve", geometry, "lift_ode_solve", _count_lift),
    ("geometry.epsilon_isometric_lift", geometry, "epsilon_isometric_lift", None),
    ("geometry.minimal_geodesic", geometry, "minimal_geodesic", None),
    ("geometry.quotient_length", geometry, "quotient_length", None),
    ("models.build_model_space", models, "build_model_space", None),
    ("geometry.lbfgs", scipy.optimize, "minimize", _count_lbfgs),
]

SPAN_NAMES = [t[0] for t in TARGETS]


class _ThreadLog:
    """Spans of one thread, in columns; a span's row is its index."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")
        self.stack = []
        self.op_id = -1
        self.paused = False
        self.counts = collections.defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._ops = {}
        self._restore = []

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread().name)
            with self._logs_lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def set_op(self, op) -> None:
        """Tag the calling thread's next spans with operation ``op``."""
        with self._logs_lock:
            op_id = self._ops.setdefault(op, len(self._ops))
        self._log().op_id = op_id

    @contextlib.contextmanager
    def paused(self):
        log = self._log()
        was, log.paused = log.paused, True
        try:
            yield
        finally:
            log.paused = was

    def _wrap(self, name_id, fn, hook):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            if log.paused:
                return fn(*args, **kwargs)
            idx = len(log.name)
            parent = log.stack[-1] if log.stack else -1
            log.name.append(name_id)
            log.parent.append(parent)
            log.op.append(log.op_id)
            log.end.append(0.0)
            log.child_s.append(0.0)
            log.stack.append(idx)
            t0 = time.perf_counter()
            log.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                log.stack.pop()
                log.end[idx] = t1
                if parent >= 0:
                    log.child_s[parent] += t1 - t0
            if hook is not None:
                hook(log.counts, result, sig.bind(*args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; ``uninstall()`` puts the originals back."""
        ncgeo_modules = [m for k, m in sorted(sys.modules.items()) if k == "ncgeo" or k.startswith("ncgeo.")]
        for name_id, (name, owner, attr, hook) in enumerate(TARGETS):
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name_id, orig, hook)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [m for m in ncgeo_modules if m is not owner and m.__dict__.get(attr) is orig]
            for o in owners:
                setattr(o, attr, wrapper)
                self._restore.append((o, attr, orig))

    def uninstall(self) -> None:
        for o, attr, orig in reversed(self._restore):
            setattr(o, attr, orig)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """``<span>.calls`` and ``<span>.self_s`` for every target, plus the
        counters read from returned values, summed over threads."""
        calls = np.zeros(len(TARGETS))
        self_s = np.zeros(len(TARGETS))
        counts = collections.defaultdict(int)
        for log in self._logs:
            if not log.name:
                continue
            names = np.frombuffer(log.name, dtype=np.int32)
            own = np.frombuffer(log.end) - np.frombuffer(log.start) - np.frombuffer(log.child_s)
            calls += np.bincount(names, minlength=len(TARGETS))
            self_s += np.bincount(names, weights=own, minlength=len(TARGETS))
            for k, v in log.counts.items():
                counts[k] += v
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        n_ba = out["projection.best_approximant.calls"]
        n_qd = out["geometry.quotient_distance.calls"]
        for k in (
            "projection.best_approximant.linesearch_trials",
            "geometry.quotient_distance.starts",
            "geometry.lbfgs.nfev",
            "geometry.lift_ode_solve.refinements",
            "geometry.lift_ode_solve.restarts",
        ):
            out[k] = int(counts[k])
        out["projection.best_approximant.zero_step_ratio"] = counts["projection.best_approximant.zero_steps"] / max(n_ba, 1)
        out["geometry.quotient_distance.retry_ratio"] = counts["geometry.quotient_distance.retries"] / max(n_qd, 1)
        return out

    def write(self, path) -> int:
        """Write every span as one JSON array per line and return the count:
        [name, start, end, parent line or -1, op given to set_op or null,
        thread]."""
        ops = {v: k for k, v in self._ops.items()}
        n = 0
        with open(path, "w") as fh:
            for log in self._logs:
                for i in range(len(log.name)):
                    parent = log.parent[i]
                    row = [SPAN_NAMES[log.name[i]], log.start[i], log.end[i],
                           parent + n if parent >= 0 else -1, ops.get(log.op[i]), log.thread_name]
                    fh.write(json.dumps(row) + "\n")
                n += len(log.name)
        return n


class NullTracer:
    """Stands in for a Tracer when a run measures with tracing off."""

    def set_op(self, op) -> None:
        pass

    def paused(self):
        return contextlib.nullcontext()
