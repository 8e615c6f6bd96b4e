"""Per-layer tracing of kindiff from outside the package.

`Tracer.installed()` replaces the functions and methods the workloads reach
with timing wrappers, at every name a caller looks them up under, and puts
the originals back on exit.  Nothing inside src/kindiff is edited.

A span is one call of a wrapped function.  The traced run uses a single
process, so spans nest on one stack: a span's self time is its duration
minus the durations of the spans it directly contains, and the self times of
all spans add up to the time the outermost spans cover.  Spans are kept as
per-name totals (calls, total seconds, self seconds), not one by one.

Counts are taken at the same boundaries.  Two quantities are derived rather
than wrapped: kinetic pieces are steps plus noise jumps (every jump inside a
step splits it once), and harness chunks are the job lists handed to the
pool.  `NoisePath.segments_between` is a generator and is not timed.
"""

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from kindiff import cli, config, generator, harness, kinetic, spde, stats, velocity
from kindiff.grid import TorusGrid
from kindiff.noise import NoiseModel

LAYERS = ("config", "noise", "kinetic", "grid", "velocity", "generator", "spde",
          "stats", "harness", "cli")


def _n_steps(scfg) -> int:
    """Macroscopic step count, computed as kinetic.solve_trajectory does."""
    dt = scfg.dt_factor * scfg.epsilon ** 2
    n = int(round(scfg.final_time / dt))
    if n <= 0 or abs(n * dt - scfg.final_time) > 1e-9 * scfg.final_time:
        n = max(1, int(np.ceil(scfg.final_time / dt - 1e-12)))
    return n


class Tracer:
    def __init__(self):
        self.spans = {}              # span name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.margin_max = None       # largest TrajectoryResult.gronwall_margin seen
        self._stack = []             # per open span: seconds covered by its children
        self._path_jumps = 0

    # ---- wrappers ------------------------------------------------------

    def _timed(self, span, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - children[0]
        return wrapper

    def _counted(self, key, fn, amount=lambda args, out: 1):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += amount(args, out)
            return out
        return wrapper

    def _fft(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(grid, arr):
            counts["grid.fft_calls"] += 1
            counts["grid.fft_points"] += np.size(arr)
            return fn(grid, arr)
        return self._timed("grid.fft", wrapper)

    def _simulate_path(self, fn):
        def wrapper(model, horizon, rng):
            path = fn(model, horizon, rng)
            self.counts["noise.paths"] += 1
            self.counts["noise.jumps"] += path.n_jumps
            self._path_jumps = path.n_jumps
            return path
        return self._timed("noise.path", functools.wraps(fn)(wrapper))

    def _solve_trajectory(self, fn):
        failures = (kinetic.TrajectoryOverflowError, kinetic.GronwallViolationError)

        def wrapper(f0, scfg, *args, **kwargs):
            self._path_jumps = 0
            try:
                res = fn(f0, scfg, *args, **kwargs)
            except failures:
                self.counts["kinetic.failures"] += 1
                raise
            steps = _n_steps(scfg)
            self.counts["kinetic.trajectories"] += 1
            self.counts["kinetic.steps"] += steps
            self.counts["kinetic.pieces"] += steps + self._path_jumps
            m = res.gronwall_margin
            self.margin_max = m if self.margin_max is None else max(self.margin_max, m)
            return res
        return self._timed("kinetic.solve", functools.wraps(fn)(wrapper))

    def _spde_batch(self, fn):
        @functools.wraps(fn)
        def wrapper(rho0, final_time, n_steps, coeffs, increments, output_steps):
            self.counts["spde.traj_steps"] += increments.shape[0] * n_steps
            return fn(rho0, final_time, n_steps, coeffs, increments, output_steps)
        return self._timed("spde.batch", wrapper)

    def _patches(self):
        """(owner, attribute, replacement) for every traced name."""
        t = self._timed
        parse = config.parse_config
        from_models = spde.LimitCoefficients.__dict__["from_models"].__func__
        return [
            # harness imports parse_config by name, so both names are patched
            (config, "parse_config", t("config.parse", parse)),
            (harness, "parse_config", t("config.parse", harness.parse_config)),
            (NoiseModel, "__init__", t("noise.build", NoiseModel.__init__)),
            (NoiseModel, "simulate_path", self._simulate_path(NoiseModel.simulate_path)),
            (kinetic, "solve_trajectory", self._solve_trajectory(kinetic.solve_trajectory)),
            (TorusGrid, "fft", self._fft(TorusGrid.fft)),
            (TorusGrid, "ifft", self._fft(TorusGrid.ifft)),
            (velocity, "average", t("velocity.average", velocity.average)),
            (velocity, "inner_xv", t("velocity.inner_xv", velocity.inner_xv)),
            # PerturbedTestFunction and GeneratorInstrument are the same class
            # objects under harness's names, so patching the class covers both
            (generator.PerturbedTestFunction, "__init__",
             t("generator.bundle_build", generator.PerturbedTestFunction.__init__)),
            (generator.GeneratorInstrument, "observe",
             t("generator.observe", generator.GeneratorInstrument.observe)),
            (generator, "martingale_residual",
             t("generator.martingale", generator.martingale_residual)),
            (spde.LimitCoefficients, "from_models",
             classmethod(t("spde.coeffs_build", from_models))),
            (spde, "solve_spde_batch", self._spde_batch(spde.solve_spde_batch)),
            (stats.RunningStats, "update", t("stats.update", stats.RunningStats.update)),
            (stats.RunningStats, "update_batch",
             t("stats.update", stats.RunningStats.update_batch)),
            (stats.RunningStats, "merge", t("stats.merge", stats.RunningStats.merge)),
            (harness, "run_ensemble", t("harness.run", harness.run_ensemble)),
            (harness.EpsEnsemble, "merge", t("harness.merge", harness.EpsEnsemble.merge)),
            (harness, "weak_error_table", t("harness.analysis", harness.weak_error_table)),
            (harness, "mean_field_distances",
             t("harness.analysis", harness.mean_field_distances)),
            (harness, "uniform_moment_check",
             t("harness.analysis", harness.uniform_moment_check)),
            (harness, "make_stream", self._counted("harness.streams", harness.make_stream)),
            (harness, "_run_chunked",
             self._counted("harness.chunks", harness._run_chunked,
                           lambda args, out: len(args[1]))),
            (cli, "main", t("cli.main", cli.main)),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, new in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # ---- results -------------------------------------------------------

    def _calls(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def _total(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def layer_self(self, layer):
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.split(".")[0] == layer)

    @property
    def self_total(self):
        return sum(rec[2] for rec in self.spans.values())

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, calls, total = self.counts, self._calls, self._total
        steps, pieces = c["kinetic.steps"], c["kinetic.pieces"]
        out = {
            "config.parse_calls": (calls("config.parse"), "count"),
            "config.parse_s": (total("config.parse"), "s"),
            "noise.build_s": (total("noise.build"), "s"),
            "noise.paths": (c["noise.paths"], "count"),
            "noise.jumps": (c["noise.jumps"], "count"),
            "noise.path_s": (total("noise.path"), "s"),
            "kinetic.trajectories": (c["kinetic.trajectories"], "count"),
            "kinetic.steps": (steps, "count"),
            "kinetic.pieces": (pieces, "count"),
            "kinetic.pieces_per_step": (pieces / steps if steps else 0.0, "ratio"),
            "kinetic.solve_s": (total("kinetic.solve"), "s"),
            "kinetic.failures": (c["kinetic.failures"], "count"),
            "kinetic.gronwall_margin_max": (
                self.margin_max if self.margin_max is not None else 0.0, "log"),
            "grid.fft_calls": (c["grid.fft_calls"], "count"),
            "grid.fft_points": (c["grid.fft_points"], "count"),
            "grid.fft_s": (total("grid.fft"), "s"),
            "velocity.calls": (calls("velocity.average") + calls("velocity.inner_xv"), "count"),
            "velocity.s": (total("velocity.average") + total("velocity.inner_xv"), "s"),
            "generator.bundle_build_s": (total("generator.bundle_build"), "s"),
            "generator.observe_calls": (calls("generator.observe"), "count"),
            "generator.observe_s": (total("generator.observe"), "s"),
            "generator.martingale_s": (total("generator.martingale"), "s"),
            "spde.coeffs_build_s": (total("spde.coeffs_build"), "s"),
            "spde.batch_calls": (calls("spde.batch"), "count"),
            "spde.traj_steps": (c["spde.traj_steps"], "count"),
            "spde.batch_s": (total("spde.batch"), "s"),
            "stats.update_calls": (calls("stats.update"), "count"),
            "stats.update_s": (total("stats.update"), "s"),
            "stats.merge_s": (total("stats.merge"), "s"),
            "harness.chunks": (c["harness.chunks"], "count"),
            "harness.streams": (c["harness.streams"], "count"),
            "harness.merge_calls": (calls("harness.merge"), "count"),
            "harness.merge_s": (total("harness.merge"), "s"),
            "harness.run_s": (total("harness.run"), "s"),
            "harness.analysis_s": (total("harness.analysis"), "s"),
            "cli.main_s": (total("cli.main"), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        return out

    def counts_only(self) -> dict:
        """The metrics that are exact counts; they repeat for a given seed."""
        return {k: v for k, (v, unit) in self.metrics().items() if unit == "count"}
