"""Experiment configuration: one strict JSON file drives every subcommand.

Unknown keys are rejected at every level so that typos fail fast rather than
silently running a different experiment.
"""

import json
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from . import noise as nz
from . import spde
from . import velocity as vel
from .generator import TestFunctional
from .grid import TorusGrid
from .kinetic import OVERFLOW_NORM, SolverConfig
from .noise import ChainSpec, NoiseModel
from .velocity import VelocityModel


MAX_GRID_POINTS = 2 ** 14
MAX_RING_VELOCITIES = 256
MAX_OUTPUT_TIMES = 10 ** 5
# one member's density record, output times x grid points doubles: 16 MiB,
# and 512 MiB for a 32-member chunk
MAX_RECORD_VALUES = 2 ** 21
# the harness lists every chunk's members before any work
MAX_ENSEMBLE_SIZE = 10 ** 6
# expected jumps of one noise path (horizon x summed largest chain exit
# rates); a chain path is drawn one jump at a time
MAX_PATH_JUMPS = 10 ** 6
# steps per trajectory, kinetic or limit.  A limit job takes several chunks
# only while their increments fit in harness.LIMIT_JOB_INCREMENTS (2 MiB), so
# at the cap a limit job is one 32-member chunk, and with 16 modes it holds
# 410 MB of increments
MAX_STEPS = 10 ** 5


class ConfigError(ValueError):
    """Malformed configuration; mapped to exit code 2 by the CLI."""


def _number(value, context) -> float:
    """A finite JSON number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = np.inf
    if not np.isfinite(out):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return out


def _integer(value, context) -> int:
    """A JSON integer; an integral float such as 64.0 is accepted, 4.7 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return int(value)


def _string(value, context) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _list(value, context) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list, got {value!r}")
    return value


def _take(section: dict, allowed: dict, context: str) -> dict:
    """Check keys of a config section against {name: required} and fill defaults."""
    if not isinstance(section, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = [k for k, req in allowed.items() if req and k not in section]
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")
    return section


MODE_KEYS = {"label": False, "amplitude": False, "fourier": False}


def _mode(raw, context, grid: TorusGrid, allowed=MODE_KEYS) -> np.ndarray:
    """A spatial mode on the grid, from exactly one of 'label' or 'fourier'."""
    _take(raw, allowed, context)
    if ("label" in raw) == ("fourier" in raw):
        raise ConfigError(f"{context}: give exactly one of 'label' or 'fourier'")
    amplitude = _number(raw.get("amplitude", 1.0), context + ".amplitude")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if "fourier" in raw:
                terms = _list(raw["fourier"], context + ".fourier")
                mode = amplitude * nz.mode_from_fourier(grid, terms)
            else:
                mode = nz.make_mode(grid, _string(raw["label"], context + ".label"), amplitude)
    except (ValueError, TypeError, IndexError, OverflowError) as exc:  # malformed Fourier rows
        raise ConfigError(str(exc)) from exc
    if not np.all(np.isfinite(mode)):
        raise ConfigError(f"{context}: the mode overflows on the grid; rescale its "
                          f"amplitude or Fourier coefficients")
    return mode


def _parse_chain(raw, context) -> ChainSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object")
    if "kind" in raw:
        _take(raw, {"kind": True, "sigma": False, "rate": False}, context)
        if raw["kind"] != "telegraph":
            raise ConfigError(f"{context}: unknown chain kind {raw['kind']!r}")
        sigma = _number(raw.get("sigma", 1.0), context + ".sigma")
        rate = _number(raw.get("rate", 1.0), context + ".rate")
        try:
            return nz.telegraph(sigma, rate)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    _take(raw, {"states": True, "rates": True}, context)
    try:
        return ChainSpec(np.asarray(raw["states"], float), np.asarray(raw["rates"], float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _grid(raw) -> TorusGrid:
    _take(raw, {"dim": True, "n": True}, "grid")
    dim = _integer(raw["dim"], "grid.dim")
    n = _integer(raw["n"], "grid.n")
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2")
    if n ** dim > MAX_GRID_POINTS:
        raise ConfigError(f"grid: at most {MAX_GRID_POINTS} points are supported")
    try:
        return TorusGrid(dim, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _velocity(raw, dim: int) -> VelocityModel:
    _take(raw, {"model": False, "velocities": False, "weights": False}, "velocity")
    try:
        if "model" in raw:
            name = _string(raw["model"], "velocity.model")
            if name == "two_speed":
                vm = vel.two_speed()
            elif re.fullmatch(r"ring:[0-9]+", name):
                m = int(name.split(":")[1])
                if m > MAX_RING_VELOCITIES:
                    raise ConfigError(f"velocity: at most {MAX_RING_VELOCITIES} "
                                      f"ring velocities are supported")
                vm = vel.ring(m)
            else:
                raise ConfigError(f"velocity: unknown model {name!r}")
        else:
            vm = VelocityModel(dim, np.asarray(raw["velocities"], float),
                               np.asarray(raw["weights"], float))
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"velocity: {exc}") from exc
    if vm.dim != dim:
        raise ConfigError("velocity: dimension disagrees with the grid")
    bad = vel.validate(vm)
    if bad:
        raise ConfigError("velocity: " + "; ".join(bad))
    return vm


def _noise(raw, grid: TorusGrid) -> NoiseModel:
    _take(raw, {"modes": False}, "noise")
    chains, modes = [], []
    for i, m in enumerate(_list(raw.get("modes", []), "noise.modes")):
        ctx = f"noise.modes[{i}]"
        modes.append(_mode(m, ctx, grid, {**MODE_KEYS, "chain": True}))
        chains.append(_parse_chain(m["chain"], ctx + ".chain"))
    mode_arr = np.stack(modes) if modes else np.zeros((0,) + grid.shape)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            nm = NoiseModel(grid, tuple(chains), mode_arr)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    if not (np.all(np.isfinite(nm.coefficients)) and np.isfinite(nm.bound)):
        raise ConfigError("noise: chain statistics overflow; rescale states or rates")
    with np.errstate(over="ignore", invalid="ignore"):
        trace = nm.trace_field()
    if not np.all(np.isfinite(trace)):
        raise ConfigError("noise.modes: F = sum_j c_j eta_j^2 overflows; rescale the mode "
                          "amplitudes or the chain states")
    return nm


def _initial_density(raw, grid: TorusGrid) -> np.ndarray:
    _take(raw, {"mean": False, "modes": False}, "initial")
    rho = np.full(grid.shape, _number(raw.get("mean", 0.0), "initial.mean"))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, m in enumerate(_list(raw.get("modes", []), "initial.modes")):
            rho = rho + _mode(m, f"initial.modes[{i}]", grid)
        norm = grid.norm(rho)
    # both solvers fail a member whose L2 norm passes OVERFLOW_NORM; a start
    # beyond it (or not finite) would fail every member
    if not norm <= OVERFLOW_NORM:
        raise ConfigError(f"initial: the density's L2 norm {norm:.3g} is not finite or exceeds "
                          f"{OVERFLOW_NORM:g} (kinetic.OVERFLOW_NORM); rescale its mean or modes")
    rho.flags.writeable = False  # shared by every consumer of the config
    return rho


def _functionals(items, grid: TorusGrid) -> list:
    out = []
    for i, raw in enumerate(_list(items, "functionals")):
        ctx = f"functionals[{i}]"
        _take(raw, {"kind": True, "weight": True, "name": False}, ctx)
        if raw["kind"] not in ("linear", "quadratic"):
            raise ConfigError(f"{ctx}: kind must be linear or quadratic")
        weight = _mode(raw["weight"], ctx + ".weight", grid)
        # |(rho, w)| <= ||rho|| ||w||, and a member stops at ||rho|| = OVERFLOW_NORM
        with np.errstate(over="ignore", invalid="ignore"):
            top = 0.5 * np.square(OVERFLOW_NORM * np.float64(grid.norm(weight)))
        if not np.isfinite(top):
            raise ConfigError(f"{ctx}.weight: (1/2)(rho, w)^2 overflows at ||rho|| = "
                              f"{OVERFLOW_NORM:g} (kinetic.OVERFLOW_NORM); rescale the weight")
        name = _string(raw.get("name", f"{raw['kind']}_{i}"), ctx + ".name")
        out.append(TestFunctional(raw["kind"], weight, name))
    names = [t.name for t in out]
    if len(set(names)) != len(names):
        raise ConfigError("functionals: names must be unique")
    return out


@dataclass
class ExperimentConfig:
    """A validated experiment: the models it runs on and its run parameters.

    `parse_config` is the only reader of the JSON schema; every field except
    ``raw`` (the JSON document, echoed into run manifests and sent to worker
    processes) holds a validated value or a built model.
    """

    grid: TorusGrid
    velocity: VelocityModel
    noise: NoiseModel
    rho0: np.ndarray            # initial density, read-only
    functionals: list           # TestFunctional per configured functional
    dt_factor: float
    spde_steps: int
    epsilons: list
    ensemble_size: int
    final_time: float
    output_times: list
    base_seed: int
    output_dir: str
    moment_p2_factor: float
    moment_p4_factor: float
    raw: dict = field(default=None, repr=False)

    # ---- accessors of the built models --------------------------------
    # benchmark/workloads.py still calls these; new code reads the fields.

    def build_grid(self) -> TorusGrid:
        """The stored grid (kept for benchmark/workloads.py)."""
        return self.grid

    def build_velocity(self) -> VelocityModel:
        """The stored velocity model (kept for benchmark/workloads.py)."""
        return self.velocity

    def build_noise(self, grid: TorusGrid) -> NoiseModel:
        """The stored noise model; ``grid`` is ignored (kept for benchmark/workloads.py)."""
        return self.noise

    def build_functionals(self, grid: TorusGrid) -> list:
        """The stored functionals; ``grid`` is ignored (kept for benchmark/workloads.py)."""
        return self.functionals

    def initial_density(self, grid: TorusGrid) -> np.ndarray:
        """The stored initial density; ``grid`` is ignored (kept for benchmark/workloads.py)."""
        return self.rho0


def _parse_output_times(raw, final_time) -> list:
    ctx = "experiment.output_times"
    if isinstance(raw, dict):
        _take(raw, {"count": True}, ctx)
        count = _integer(raw["count"], ctx + ".count")
        if not 2 <= count <= MAX_OUTPUT_TIMES:
            raise ConfigError(f"{ctx}: count must lie in [2, {MAX_OUTPUT_TIMES}]")
        return list(np.linspace(0.0, final_time, count))
    times = [_number(t, ctx) for t in _list(raw, ctx)]
    if not times or any(t < 0 or t > final_time * (1 + 1e-12) for t in times):
        raise ConfigError("experiment.output_times must lie in [0, final_time]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("experiment.output_times must be strictly increasing")
    return times


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config document once and build its models, in dependency order."""
    _take(data, {"grid": True, "velocity": True, "noise": True, "solver": False,
                 "initial": True, "functionals": False, "experiment": True}, "config")
    grid = _grid(data["grid"])
    velocity = _velocity(data["velocity"], grid.dim)
    noise = _noise(data["noise"], grid)
    rho0 = _initial_density(data["initial"], grid)
    functionals = _functionals(data.get("functionals", []), grid)

    solver = _take(data.get("solver", {}), {"dt_factor": False, "spde_steps": False}, "solver")
    exp = _take(data["experiment"], {
        "epsilons": True, "ensemble_size": True, "final_time": True,
        "output_times": True, "base_seed": True, "output_dir": False,
        "moment_p2_factor": False, "moment_p4_factor": False,
    }, "experiment")

    epsilons = [_number(e, "experiment.epsilons")
                for e in _list(exp["epsilons"], "experiment.epsilons")]
    if not epsilons or any(not 0 < e <= 1 for e in epsilons):
        raise ConfigError("experiment.epsilons must lie in (0, 1]")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigError("experiment.epsilons must be strictly decreasing")
    final_time = _number(exp["final_time"], "experiment.final_time")
    if final_time <= 0:
        raise ConfigError("experiment.final_time must be positive")
    dt_factor = _number(solver.get("dt_factor", 0.1), "solver.dt_factor")
    if not 0 < dt_factor <= 1:
        raise ConfigError("solver.dt_factor must lie in (0, 1]")
    for e in epsilons:
        try:
            n_steps = SolverConfig(e, dt_factor, final_time).n_steps
        except ValueError as exc:
            raise ConfigError(f"experiment.epsilons: {exc}") from exc
        if n_steps > MAX_STEPS:
            raise ConfigError(f"experiment.epsilons: {n_steps} kinetic steps at eps={e} "
                              f"exceed the limit of {MAX_STEPS} per trajectory")
    # the kinetic horizon is final_time / eps^2, longest at the smallest eps
    jumps = final_time / epsilons[-1] ** 2 * sum(float(ch.exit_rates.max()) for ch in noise.chains)
    if not jumps <= MAX_PATH_JUMPS:
        raise ConfigError(f"noise: a path at eps={epsilons[-1]} expects {jumps:.3g} jumps "
                          f"(final_time / eps^2 x the summed chain exit rates), more than "
                          f"{MAX_PATH_JUMPS}")
    ensemble = _integer(exp["ensemble_size"], "experiment.ensemble_size")
    if not 1 <= ensemble <= MAX_ENSEMBLE_SIZE:
        raise ConfigError(f"experiment.ensemble_size must lie in [1, {MAX_ENSEMBLE_SIZE}]")
    output_times = _parse_output_times(exp["output_times"], final_time)
    if len(output_times) * grid.npoints > MAX_RECORD_VALUES:
        raise ConfigError(f"experiment.output_times: {len(output_times)} output times x "
                          f"{grid.npoints} grid points exceed {MAX_RECORD_VALUES} recorded "
                          f"values per trajectory")
    spde_steps = _integer(solver.get("spde_steps", spde.DEFAULT_STEPS), "solver.spde_steps")
    if not 1 <= spde_steps <= MAX_STEPS:
        raise ConfigError(f"solver.spde_steps must lie in [1, {MAX_STEPS}]")
    base_seed = _integer(exp["base_seed"], "experiment.base_seed")
    if base_seed < 0:
        raise ConfigError("experiment.base_seed must be nonnegative")
    moments = {}
    for key, default in (("moment_p2_factor", 4.0), ("moment_p4_factor", 16.0)):
        moments[key] = _number(exp.get(key, default), f"experiment.{key}")
        if moments[key] <= 0:
            raise ConfigError(f"experiment.{key} must be positive")

    return ExperimentConfig(
        grid=grid,
        velocity=velocity,
        noise=noise,
        rho0=rho0,
        functionals=functionals,
        dt_factor=dt_factor,
        spde_steps=spde_steps,
        epsilons=epsilons,
        ensemble_size=ensemble,
        final_time=final_time,
        output_times=output_times,
        base_seed=base_seed,
        output_dir=_string(exp.get("output_dir", "out"), "experiment.output_dir"),
        raw=data,
        **moments,
    )


def load_config(path, base_seed=None) -> ExperimentConfig:
    """Read and parse a config file; ``base_seed`` replaces experiment.base_seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    experiment = data.get("experiment") if isinstance(data, dict) else None
    if base_seed is not None and isinstance(experiment, dict) and "base_seed" in experiment:
        experiment["base_seed"] = int(base_seed)
    return parse_config(data)
