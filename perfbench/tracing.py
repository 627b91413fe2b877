"""Per-layer tracing of switchsim from outside its source.

`Tracer.install` replaces layer functions at the module attributes their
callers look up (for example `switchsim.trajectory.survival_function`,
which the sampler calls, or `switchsim.tomography.least_squares`, which
`fit` calls) and `uninstall` puts the originals back.  Each wrapped call
records a span (id, name, start, end, parent id, job id) in memory;
`write_spans` saves them when the run ends.

Calls that happen hundreds of thousands of times per job are aggregated
instead of stored one by one: detector evaluator calls (count, time and
points, still nested in the span stack so their parent's self time is
right), the S-curve separation objective and `mat2.hermitian_eig` (counts
only).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

FACTORIES = ("survival_function", "switch_density_function", "propagator")

# the module attributes the wrappers sit at, by layer
TARGETS = {
    "cli": ("main",),
    "trajectory": (
        "sample_switch_times", "bin_switch_times", "write_histogram_csv",
        "read_histogram_csv", "chi2_vs_analytic", "survival_function", "propagator",
    ),
    "detector": FACTORIES + ("u_ns", "u_s"),
    "tomography": ("fit", "identifiability", "least_squares", "survival_function", "switch_density_function"),
    "measurement": ("overall_fidelity_numeric", "decompose", "propagator"),
    "scurves": ("max_fidelity_vs_beta", "scurve", "grid_then_golden_max"),
    "coherent": ("rates_dominant_coupling", "rates_large_bias"),
    "mat2": ("hermitian_eig",),
}

_EVALUATORS = [f"{m}.{f}" for m in ("detector", "trajectory", "tomography", "measurement") for f in FACTORIES]

# per-layer metric -> the wrapped names it is measured at (any one suffices)
NEEDS = {
    "cli.self_s": ["cli.main"],
    "trajectory.sample_s": ["trajectory.sample_switch_times"],
    "trajectory.ns_per_traj": ["trajectory.sample_switch_times"],
    "trajectory.surv_points_per_traj": ["trajectory.survival_function"],
    "trajectory.sample_peak_mb": ["trajectory.sample_switch_times"],
    "trajectory.io_s": ["trajectory.write_histogram_csv", "trajectory.read_histogram_csv"],
    "trajectory.chi2_s": ["trajectory.chi2_vs_analytic"],
    "detector.eval_s": _EVALUATORS,
    "detector.points": _EVALUATORS,
    "detector.ns_per_point": _EVALUATORS,
    "detector.setup_calls": [f"detector.{f}" for f in TARGETS["detector"]],
    "detector.setup_us": [f"detector.{f}" for f in FACTORIES],
    "tomography.fit_s": ["tomography.fit"],
    "tomography.starts": ["tomography.least_squares"],
    "tomography.starts_failed": ["tomography.least_squares"],
    "tomography.nfev": ["tomography.least_squares"],
    "tomography.useful_nfev_frac": ["tomography.least_squares"],
    "tomography.identifiability_s": ["tomography.identifiability"],
    "tomography.identifiability_calls": ["tomography.identifiability"],
    "measurement.fidelity_s": ["measurement.overall_fidelity_numeric"],
    "measurement.integrand_evals": ["measurement.propagator"],
    "measurement.decompose_us": ["measurement.decompose"],
    "scurves.sweep_s": ["scurves.max_fidelity_vs_beta"],
    "scurves.objective_evals": ["scurves.grid_then_golden_max"],
    "coherent.sweep_s": ["coherent.rates_dominant_coupling", "coherent.rates_large_bias"],
    "mat2.eig_calls": ["mat2.hermitian_eig"],
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Evaluator:
    """Stands in for an evaluator returned by a detector factory: times each
    call and counts its time points; other attributes pass through."""

    __slots__ = ("_fn", "_tracer", "_integrand")

    def __init__(self, fn, tracer: "Tracer", integrand: bool):
        self._fn = fn
        self._tracer = tracer
        self._integrand = integrand

    def __call__(self, t):
        tracer = self._tracer
        frame = tracer._push("detector.eval")
        try:
            return self._fn(t)
        finally:
            tracer._pop(frame, record=False)
            n = int(np.size(t))
            tracer.count["detector.points"] += n
            if tracer._active["trajectory.sample_switch_times"]:
                tracer.count["trajectory.sample_points"] += n
            if self._integrand:
                tracer.count["measurement.integrand_evals"] += 1

    def __getattr__(self, name):
        return getattr(self._fn, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job id)
        self.job = None
        self.time = defaultdict(float)  # name -> summed duration
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.count = Counter()
        self.sample_peak = 0
        self.absent = []
        self._stack = []  # frames [id, name, start, child seconds]
        self._active = Counter()
        self._next_id = 0
        self._detector_depth = 0
        self._starts = None  # (evaluations, deviance or None) per start of the current fit
        self._patched = []

    # ---------------------------------------------------------------- spans

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _pop(self, frame: list, record: bool = True) -> float:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        self.time[name] += dur
        self.calls[name] += 1
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if record:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.job))
        return dur

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Make one job the root of the spans recorded inside it."""
        self.job = job
        frame = self._push("job")
        try:
            yield
        finally:
            self._pop(frame)
            self.job = None

    # ---------------------------------------------------------------- wrappers

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(frame)

        return wrapper

    def _detector(self, name, fn, integrand=False):
        """A detector factory or u_ns/u_s: counts calls entering the layer
        from outside it, and hands back traced evaluators."""
        attr = name.split(".")[-1]
        factory = attr in FACTORIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = self._detector_depth == 0
            self._detector_depth += 1
            frame = self._push("detector." + attr)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._pop(frame)
                self._detector_depth -= 1
                if top:
                    self.count["detector.setup_calls"] += 1
                    if factory:
                        self.count["detector.factory_calls"] += 1
                        self.time["detector.factory"] += dur
            return _Evaluator(result, self, integrand) if factory else result

        return wrapper

    def _sampler(self, fn):
        timed = self._timed("trajectory.sample_switch_times", fn)

        @functools.wraps(fn)
        def wrapper(p, rho0, cfg):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return timed(p, rho0, cfg)
            finally:
                self.sample_peak = max(self.sample_peak, tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()
                self.count["trajectory.n_traj"] += cfg.n_traj

        return wrapper

    def _fit(self, fn):
        timed = self._timed("tomography.fit", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self._starts = self._starts, []
            try:
                return timed(*args, **kwargs)
            finally:
                starts, self._starts = self._starts, outer
                best = None  # lowest deviance, earliest index on ties, as fit picks
                for evals, dev in starts:
                    if dev is not None and (best is None or dev < best[1] - 1e-12):
                        best = (evals, dev)
                self.count["tomography.fits"] += 1
                self.count["tomography.useful_nfev"] += best[0] if best else 0

        return wrapper

    def _least_squares(self, fn):
        timed = self._timed("tomography.least_squares", fn)

        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            evals = [0]

            def counted(x, *a, **k):
                evals[0] += 1
                return fun(x, *a, **k)

            dev = None
            try:
                res = timed(counted, x0, *args, **kwargs)
                if np.all(np.isfinite(res.x)):
                    dev = float(np.sum(res.fun**2))
                return res
            except Exception:
                self.count["tomography.starts_failed"] += 1
                raise
            finally:
                self.count["tomography.starts"] += 1
                self.count["tomography.nfev"] += evals[0]
                if self._starts is not None:
                    self._starts.append((evals[0], dev))

        return wrapper

    def _optimizer(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.count["scurves.beta_points"] += 1
                self.count["scurves.objective_evals"] += evals[0]

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every name in TARGETS; a missing name is recorded as absent."""
        for layer, attrs in TARGETS.items():
            module = modules[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                if attr in FACTORIES or layer == "detector":
                    wrapped = self._detector(name, fn, integrand=layer == "measurement")
                elif name == "trajectory.sample_switch_times":
                    wrapped = self._sampler(fn)
                elif name == "tomography.fit":
                    wrapped = self._fit(fn)
                elif name == "tomography.least_squares":
                    wrapped = self._least_squares(fn)
                elif name == "scurves.grid_then_golden_max":
                    wrapped = self._optimizer(fn)
                elif name == "mat2.hermitian_eig":
                    wrapped = self._counted("mat2.eig_calls", fn)
                else:
                    wrapped = self._timed(name, fn)
                setattr(module, attr, wrapped)
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # ---------------------------------------------------------------- results

    def metrics(self, n_jobs: int) -> tuple[dict, list[str]]:
        """Per-layer metrics (per job unless the name says otherwise) and the
        names of those whose wrapped functions are all absent."""
        t, c = self.time, self.count
        eval_s = t["detector.eval"]
        values = {
            "cli.self_s": (self.self_time["job"] + self.self_time["cli.main"]) / n_jobs,
            "trajectory.sample_s": t["trajectory.sample_switch_times"] / n_jobs,
            "trajectory.ns_per_traj": 1e9 * _ratio(t["trajectory.sample_switch_times"], c["trajectory.n_traj"]),
            "trajectory.surv_points_per_traj": _ratio(c["trajectory.sample_points"], c["trajectory.n_traj"]),
            "trajectory.sample_peak_mb": self.sample_peak / 1e6,
            "trajectory.io_s": (t["trajectory.write_histogram_csv"] + t["trajectory.read_histogram_csv"]) / n_jobs,
            "trajectory.chi2_s": t["trajectory.chi2_vs_analytic"] / n_jobs,
            "detector.eval_s": eval_s / n_jobs,
            "detector.points": c["detector.points"] / n_jobs,
            "detector.ns_per_point": 1e9 * _ratio(eval_s, c["detector.points"]),
            "detector.setup_calls": c["detector.setup_calls"] / n_jobs,
            "detector.setup_us": 1e6 * _ratio(t["detector.factory"], c["detector.factory_calls"]),
            "tomography.fit_s": t["tomography.fit"] / n_jobs,
            "tomography.starts": _ratio(c["tomography.starts"], c["tomography.fits"]),
            "tomography.starts_failed": _ratio(c["tomography.starts_failed"], c["tomography.fits"]),
            "tomography.nfev": _ratio(c["tomography.nfev"], c["tomography.fits"]),
            "tomography.useful_nfev_frac": _ratio(c["tomography.useful_nfev"], c["tomography.nfev"]),
            "tomography.identifiability_s": t["tomography.identifiability"] / n_jobs,
            "tomography.identifiability_calls": self.calls["tomography.identifiability"] / n_jobs,
            "measurement.fidelity_s": t["measurement.overall_fidelity_numeric"] / n_jobs,
            "measurement.integrand_evals": _ratio(
                c["measurement.integrand_evals"], self.calls["measurement.overall_fidelity_numeric"]
            ),
            "measurement.decompose_us": 1e6 * _ratio(t["measurement.decompose"], self.calls["measurement.decompose"]),
            "scurves.sweep_s": t["scurves.max_fidelity_vs_beta"] / n_jobs,
            "scurves.objective_evals": _ratio(c["scurves.objective_evals"], c["scurves.beta_points"]),
            "coherent.sweep_s": (t["coherent.rates_dominant_coupling"] + t["coherent.rates_large_bias"]) / n_jobs,
            "mat2.eig_calls": c["mat2.eig_calls"] / n_jobs,
        }
        absent = [m for m, needs in NEEDS.items() if all(n in self.absent for n in needs)]
        return values, absent

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
