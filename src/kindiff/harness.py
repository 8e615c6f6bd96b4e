"""Reproducible ensembles, convergence tables, and metric diagnostics.

Randomness contract: trajectory i of the kinetic ensemble at epsilon index e
uses the Philox stream keyed by SeedSequence(base_seed, spawn_key=(0, e, i));
limit trajectories use namespace 1, noise statistics 2, generator
diagnostics 3.  Streams are counter-derived, so results are independent of
scheduling and worker count.

An ensemble is cut into fixed chunks of CHUNK members, the unit of reduction:
each chunk becomes one `EpsEnsemble` part, and the parts of an ensemble are
merged in chunk order, which makes outputs bitwise reproducible.  A job, the
unit of work one pool runs, steps up to `job_chunks(cfg)` consecutive kinetic
chunks of one epsilon, or up to `limit_job_chunks(cfg)` consecutive limit
chunks, as one batch, since a step costs NumPy dispatch rather than
arithmetic, and returns one part per chunk; `_job` runs both kinds, cutting
the batch into its chunks in one loop.  A kinetic member's records are
independent of the batch it runs in, so a kinetic part is the same whatever
job it came from.  A limit member's records depend on its batch width to
rounding (about 2e-15 relative, see spde), so a limit part agrees with its
chunk run alone to 1e-12; with noise modes that are all constant in x the
limit equation is solved in closed form, and then bitwise.  The jobs are cut
from the ensemble size and the job budgets alone, never from the worker
count, so the outputs are bitwise the same for any number of workers.  A job
carries the run's built `ExperimentConfig`, the object itself with one worker
and a pickled copy in a pool worker, so no job parses the JSON again and a
run's members come from the config object it was given.  With
diagnostics on, one `GeneratorInstrument` observes every functional of a
kinetic job.  A functional's value at a density is `TestFunctional.value`.
`kinetic_batch` and `limit_batch` set up every simulated member, so member i
of an ensemble is also what `simulate-kinetic` / `simulate-spde --trajectory
i` write (the limit member to 1e-12); both return each failed member's
exception by its batch row, and a failed member is left out of the statistics.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from . import kinetic, spde
from . import velocity as vel
# parse_config is unused here, but benchmark/tracing.py counts calls through this name
from .config import ConfigError, ExperimentConfig, parse_config  # noqa: F401
from .generator import GeneratorInstrument, PerturbedTestFunction
from .grid import TorusGrid
from .stats import RunningStats

CHUNK = 32
# a job holds at most MAX_JOB_CHUNKS chunks; a kinetic job's density record
# (members x output times x grid points doubles) at most JOB_RECORD_BUDGET
# values, and a limit job's increments (members x spde_steps x noise modes
# doubles) at most LIMIT_JOB_INCREMENTS values, 2 MiB
MAX_JOB_CHUNKS = 8
JOB_RECORD_BUDGET = 2 ** 20
LIMIT_JOB_INCREMENTS = 2 ** 18
KIN_NS, LIM_NS, NOISE_NS, DIAG_NS = 0, 1, 2, 3
MAX_FAILURE_FRACTION = 0.01


class TooManyFailuresError(RuntimeError):
    """More than MAX_FAILURE_FRACTION of the trajectories of one ensemble failed."""


def make_stream(base_seed: int, namespace: int, major: int, minor: int):
    """Counter-keyed Philox stream; the key identifies the trajectory uniquely."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(namespace, major, minor))
    return np.random.Generator(np.random.Philox(ss))


def _chunks(n: int):
    return [list(range(a, min(a + CHUNK, n))) for a in range(0, n, CHUNK)]


def _job_groups(n: int, per_job: int):
    """The chunks of an n-member ensemble in consecutive jobs of up to per_job chunks."""
    chunks = _chunks(n)
    return [chunks[a:a + per_job] for a in range(0, len(chunks), per_job)]


def _chunks_within(budget: int, per_chunk: int) -> int:
    return min(MAX_JOB_CHUNKS, max(1, budget // max(1, per_chunk)))


def job_chunks(cfg: ExperimentConfig) -> int:
    """How many consecutive kinetic chunks of one epsilon a job steps as one batch."""
    return _chunks_within(JOB_RECORD_BUDGET, CHUNK * len(cfg.output_times) * cfg.grid.npoints)


def limit_job_chunks(cfg: ExperimentConfig) -> int:
    """How many consecutive limit chunks a job steps as one batch."""
    return _chunks_within(LIMIT_JOB_INCREMENTS, CHUNK * cfg.spde_steps * cfg.noise.n_modes)


def _functional_values(functionals, grid, rho_series):
    """phi(rho(t)) per functional: (..., n_times, *shape) -> (..., n_functionals, n_times)."""
    flat = rho_series.reshape(rho_series.shape[:rho_series.ndim - grid.dim] + (-1,))
    out = np.empty(flat.shape[:-2] + (len(functionals), flat.shape[-2]))
    for k, tf in enumerate(functionals):
        out[..., k, :] = tf.value(flat @ tf.weight.reshape(-1) * grid.cell_volume)
    return out


@dataclass
class EpsEnsemble:
    """Reduced statistics of one ensemble (one epsilon, or the limit)."""

    times: np.ndarray
    functional_names: list
    functional_stats: list                  # one RunningStats (vector over times) per functional
    rho_mean: RunningStats                  # field-valued, (n_times, *shape)
    norm2: RunningStats = None              # ||f||^2 over times (kinetic only)
    norm4: RunningStats = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    gronwall_margin_max: float = -np.inf         # largest margin of a finished trajectory
    samples: dict = field(default_factory=dict)   # name -> per-trajectory phi at final time
    diagnostics: dict = field(default_factory=dict)  # name -> dict of (n_traj, n_times) arrays

    def merge(self, other: "EpsEnsemble") -> "EpsEnsemble":
        out = EpsEnsemble(
            times=self.times,
            functional_names=self.functional_names,
            functional_stats=[a.merge(b) for a, b in
                              zip(self.functional_stats, other.functional_stats)],
            rho_mean=self.rho_mean.merge(other.rho_mean),
            attempted=self.attempted + other.attempted,
            failures=self.failures + other.failures,
            gronwall_margin_max=max(self.gronwall_margin_max, other.gronwall_margin_max),
        )
        for name in ("norm2", "norm4"):
            a, b = getattr(self, name), getattr(other, name)
            setattr(out, name, a.merge(b) if a is not None and b is not None else None)
        out.samples = {k: np.concatenate([self.samples[k], other.samples[k]])
                       for k in self.samples}
        out.diagnostics = {
            k: {kk: np.concatenate([self.diagnostics[k][kk], other.diagnostics[k][kk]])
                for kk in self.diagnostics[k]}
            for k in self.diagnostics
        }
        return out


def _empty_eps_ensemble(times, functionals, kinetic_side, diag_names):
    out = EpsEnsemble(
        times=np.asarray(times, dtype=float),
        functional_names=[t.name for t in functionals],
        functional_stats=[RunningStats() for _ in functionals],
        rho_mean=RunningStats(),
    )
    if kinetic_side:
        out.norm2 = RunningStats()
        out.norm4 = RunningStats()
    out.samples = {t.name: np.zeros(0) for t in functionals}
    out.diagnostics = {
        name: {"values": np.zeros((0, len(times))), "gens": np.zeros((0, len(times))),
               "brackets": np.zeros((0, len(times)))}
        for name in diag_names
    }
    return out


def kinetic_batch(cfg: ExperimentConfig, eps_index: int, indices, observer=None):
    """Kinetic ensemble members ``indices`` at epsilon index eps_index, as one batch.

    Member i runs on its own stream, so it is the same trajectory in any
    chunk, in any batch and as `simulate-kinetic --trajectory i`.
    """
    scfg = kinetic.SolverConfig(epsilon=cfg.epsilons[eps_index], dt_factor=cfg.dt_factor,
                                final_time=cfg.final_time)
    rngs = [make_stream(cfg.base_seed, KIN_NS, eps_index, i) for i in indices]
    return kinetic.solve_batch(vel.lift(cfg.velocity, cfg.rho0), scfg, cfg.velocity,
                               cfg.grid, cfg.noise, rngs, cfg.output_times,
                               observer=observer)


def limit_batch(cfg: ExperimentConfig, indices):
    """Limit ensemble members ``indices`` as one batch: (times, series, failures).

    ``series`` is (B, n_times, *shape), and ``failures`` maps the batch row
    of each member with a record whose L2 norm exceeds kinetic.OVERFLOW_NORM
    or is not finite to its LimitOverflowError, the kinetic overflow rule.
    Member i draws its increments from its own stream, so it is the same
    trajectory in any batch and as `simulate-spde --trajectory i`, up to the
    rounding that depends on the batch width (records agree to 1e-12).  When
    every noise mode is constant in x, solve_spde_batch takes its closed form,
    which mixes no members, and the records are bitwise equal instead.
    """
    coeffs = spde.LimitCoefficients.from_models(cfg.velocity, cfg.noise, cfg.grid)
    n_steps = cfg.spde_steps
    dt = cfg.final_time / n_steps
    out_steps = kinetic.snap_steps(cfg.output_times, dt, n_steps)
    # step-major, so that each step of the batch reads one contiguous (J, B) block
    dw = np.empty((n_steps, coeffs.n_modes, len(indices)))
    for row, i in enumerate(indices):
        rng = make_stream(cfg.base_seed, LIM_NS, 0, i)
        dw[..., row] = rng.normal(0.0, np.sqrt(dt), size=(n_steps, coeffs.n_modes))
    series = spde.solve_spde_batch(cfg.rho0, cfg.final_time, n_steps, coeffs,
                                   dw.transpose(2, 0, 1), out_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        flat = series.reshape(series.shape[:2] + (cfg.grid.npoints,))
        norm2 = np.sum(flat * flat, axis=-1) * cfg.grid.cell_volume
        bad = np.flatnonzero(~np.all(norm2 <= kinetic.OVERFLOW_NORM ** 2, axis=1))
    failures = {int(b): spde.LimitOverflowError(
        f"||rho||_L2 exceeded {kinetic.OVERFLOW_NORM:g} or is not finite") for b in bad}
    return np.asarray(out_steps) * dt, series, failures


def _job(cfg: ExperimentConfig, eps_index, chunks, with_diag: bool):
    """Step the members of ``chunks`` as one batch; one EpsEnsemble per chunk, in order.

    The members are kinetic at epsilon index ``eps_index``, or limit members
    when it is None; ``with_diag`` observes every functional of a kinetic
    batch with one `GeneratorInstrument`.  A chunk's failed members are left
    out of its statistics.  The parts are not merged here: merge is not
    bitwise associative, so they are folded into the ensemble one chunk at a
    time, like any other part.
    """
    grid, functionals = cfg.grid, cfg.functionals
    indices = [i for chunk in chunks for i in chunk]
    ins = None
    if eps_index is None:
        times, rho, failures = limit_batch(cfg, indices)
    else:
        if with_diag:
            ins = GeneratorInstrument(
                [PerturbedTestFunction(t, cfg.velocity, cfg.noise, grid) for t in functionals],
                cfg.epsilons[eps_index], len(cfg.output_times), len(indices))
        res = kinetic_batch(cfg, eps_index, indices, ins)
        times, rho, failures = res.times, res.rho, res.failures
    diag_names = [t.name for t in functionals] if ins is not None else []
    parts, hi = [], 0
    for chunk in chunks:
        lo, hi = hi, hi + len(chunk)
        acc = _empty_eps_ensemble(times, functionals, eps_index is not None, diag_names)
        parts.append(acc)
        acc.attempted = len(chunk)
        failed = [b for b in range(lo, hi) if b in failures]
        acc.failures = [(indices[b], f"{type(failures[b]).__name__}: {failures[b]}")
                        for b in failed]
        if len(failed) == len(chunk):
            continue
        # a slice takes no copy
        rows = [b for b in range(lo, hi) if b not in failures] if failed else slice(lo, hi)
        series = rho[rows]
        vals = _functional_values(functionals, grid, series)
        for k, tf in enumerate(functionals):
            acc.functional_stats[k].update_batch(vals[:, k])
            acc.samples[tf.name] = vals[:, k, -1].copy()
        acc.rho_mean.update_batch(series)
        if eps_index is None:
            continue
        acc.norm2.update_batch(res.norm2[rows])
        acc.norm4.update_batch(res.norm2[rows] ** 2)
        acc.gronwall_margin_max = float(res.gronwall_margin[rows].max())
        for k, name in enumerate(diag_names):
            acc.diagnostics[name] = {"values": ins.values[k][rows], "gens": ins.gens[k][rows],
                                     "brackets": ins.brackets[k][rows]}
    return parts


def _chunk_job(args):
    """One job of run_ensemble: its list of chunks' EpsEnsemble parts, in chunk order.

    ``args`` is (config, eps_index, chunks, with_diag): the run's built
    `ExperimentConfig`, itself with one worker and a pickled copy in a pool
    worker; the chunks are consecutive kinetic chunks of one epsilon, or
    consecutive limit chunks when eps_index is None.
    """
    return _job(*args)


@dataclass
class EnsembleResult:
    config: ExperimentConfig
    kinetic: dict          # eps -> EpsEnsemble, in config.epsilons order
    limit: EpsEnsemble

    @property
    def failure_counts(self) -> dict:
        """Failed trajectories per epsilon, and under "limit" in the limit ensemble."""
        out = {eps: len(ens.failures) for eps, ens in self.kinetic.items()}
        if self.limit is not None:
            out["limit"] = len(self.limit.failures)
        return out


def _run_chunked(worker, jobs, workers: int):
    """Yield worker(job) for each job, in job order, as the results arrive.

    With one worker a job runs only when its result is taken.
    """
    if workers <= 1 or len(jobs) <= 1:
        yield from map(worker, jobs)
        return
    # a fork-started pool forks all its workers at the first submit
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        yield from pool.map(worker, jobs)


def run_ensemble(cfg: ExperimentConfig, workers: int = 1,
                 diagnostics: bool = False, kinetic_only: bool = False,
                 limit_size: int = None) -> EnsembleResult:
    """Kinetic ensembles for every epsilon plus one limit-equation ensemble.

    Results are a deterministic function of (config, base_seed) and identical
    for any worker count.  Per-trajectory failures are recorded and excluded;
    more than MAX_FAILURE_FRACTION failures at one epsilon or in the limit
    ensemble raise TooManyFailuresError after all jobs.
    """
    sizes = {e_idx: cfg.ensemble_size for e_idx in range(len(cfg.epsilons))}
    if not kinetic_only:
        sizes[None] = cfg.ensemble_size if limit_size is None else limit_size
        if sizes[None] < 1:
            raise ValueError(f"limit_size must be at least 1, got {limit_size}")
    jobs = [(cfg, key, group, diagnostics) for key, size in sizes.items()
            for group in _job_groups(size, limit_job_chunks(cfg) if key is None
                                     else job_chunks(cfg))]
    folded = {}  # each ensemble reduced in chunk order, one part at a time
    for (_, key, _, _), parts in zip(jobs, _run_chunked(_chunk_job, jobs, workers)):
        for part in parts:
            folded[key] = folded[key].merge(part) if key in folded else part
    for key, acc in folded.items():
        if len(acc.failures) > MAX_FAILURE_FRACTION * acc.attempted:
            where = "in the limit ensemble" if key is None else f"at epsilon={cfg.epsilons[key]}"
            raise TooManyFailuresError(
                f"too many trajectory failures {where}: {len(acc.failures)}/{acc.attempted}")
    kin = {eps: folded[e_idx] for e_idx, eps in enumerate(cfg.epsilons)}
    return EnsembleResult(cfg, kin, folded.get(None))


# ---------------------------------------------------------------------------
# convergence metrics


def sobolev_distance(rho1, rho2, eta: float, grid: TorusGrid) -> float:
    """Negative-order Sobolev distance, spectral: sum (1+4pi^2|xi|^2)^{-eta} |dc|^2."""
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if rho1.shape != grid.shape or rho2.shape != grid.shape:
        raise ValueError("fields must live on the given grid")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    diff = grid.fft(rho1 - rho2) / grid.npoints
    weight = (1.0 + 4.0 * np.pi ** 2 * grid.freq_sq) ** (-eta)
    return float(np.sqrt(np.sum(weight * np.abs(diff) ** 2)))


@dataclass
class WeakErrorRow:
    functional: str
    epsilon: float
    error: float
    ci: float              # 3 combined standard errors
    ratio: float           # error at previous (larger) epsilon / this error
    kin_mean: float
    kin_stderr: float
    lim_mean: float
    lim_stderr: float


def check_comparison_time(cfg: ExperimentConfig):
    """Raise ConfigError unless every ensemble records the last output time at one time.

    The limit ensemble snaps its output times to the spde_steps grid and each
    kinetic ensemble to its own step times k * dt.  Works from the config
    alone, so that converge can refuse a config before any trajectory is run.
    """
    dt = cfg.final_time / cfg.spde_steps
    t_lim = kinetic.snap_steps(cfg.output_times, dt, cfg.spde_steps)[-1] * dt
    for eps in cfg.epsilons:
        scfg = kinetic.SolverConfig(eps, cfg.dt_factor, cfg.final_time)
        t_kin = kinetic.snap_steps(cfg.output_times, scfg.dt, scfg.n_steps)[-1] * scfg.dt
        if abs(t_kin - t_lim) > 1e-9 * cfg.final_time:
            raise ConfigError(f"output time {cfg.output_times[-1]} is recorded at "
                              f"t={t_kin} at epsilon={eps} but at t={t_lim} in the limit "
                              f"ensemble; choose a time on both step grids")


def weak_error_table(result: EnsembleResult):
    """Per-functional weak errors |E phi(rho_eps) - E phi(rho)| at the last output time."""
    if len(result.config.epsilons) < 2:
        raise ValueError("need at least two epsilon values")
    check_comparison_time(result.config)
    rows, verdicts = [], {}
    names = result.limit.functional_names
    for k, name in enumerate(names):
        lim_stat = result.limit.functional_stats[k]
        lm = float(np.asarray(lim_stat.mean)[-1])
        ls = float(np.asarray(lim_stat.stderr)[-1])
        errors, cis = [], []
        prev_err = None
        for eps in result.config.epsilons:
            stat = result.kinetic[eps].functional_stats[k]
            km = float(np.asarray(stat.mean)[-1])
            ks = float(np.asarray(stat.stderr)[-1])
            err = abs(km - lm)
            ci = 3.0 * float(np.hypot(ks, ls))
            ratio = np.nan if prev_err is None else (prev_err / err if err > 0 else np.inf)
            rows.append(WeakErrorRow(name, eps, err, ci, ratio, km, ks, lm, ls))
            errors.append(err)
            cis.append(ci)
            prev_err = err
        if errors[0] - cis[0] > errors[-1] + cis[-1]:
            verdicts[name] = "consistent with convergence"
        else:
            verdicts[name] = "inconclusive, increase ensemble"
    return rows, verdicts


def mean_field_distances(result: EnsembleResult, eta: float = 1.0) -> dict:
    """H^{-eta} distance between kinetic and limit ensemble-mean densities at the last output."""
    check_comparison_time(result.config)
    grid = result.config.grid
    ref = np.asarray(result.limit.rho_mean.mean)[-1]
    return {
        eps: sobolev_distance(np.asarray(ens.rho_mean.mean)[-1], ref, eta, grid)
        for eps, ens in result.kinetic.items()
    }


@dataclass
class MomentReport:
    sup_p2: dict           # eps -> sup_t E ||f||^2
    sup_p4: dict
    bound_p2: float
    bound_p4: float
    ok: bool               # boundedness is asserted ...
    trend_nonincreasing: bool = True  # ... the trend in eps is only reported
    offender: tuple = None  # (eps, t, value) of the first violation


def uniform_moment_check(result: EnsembleResult, f0_norm2: float) -> MomentReport:
    """Check sup_{eps, t} E||f||^p against the configured thresholds (p = 2, 4)."""
    cfg = result.config
    bound2 = cfg.moment_p2_factor * f0_norm2
    bound4 = cfg.moment_p4_factor * f0_norm2 ** 2
    sup2, sup4 = {}, {}
    offender = None
    for eps, ens in result.kinetic.items():
        m2 = np.asarray(ens.norm2.mean)
        m4 = np.asarray(ens.norm4.mean)
        sup2[eps] = float(m2.max())
        sup4[eps] = float(m4.max())
        if offender is None and sup2[eps] > bound2:
            t = float(ens.times[int(np.argmax(m2))])
            offender = (eps, t, sup2[eps])
        if offender is None and sup4[eps] > bound4:
            t = float(ens.times[int(np.argmax(m4))])
            offender = (eps, t, sup4[eps])
    seq = [sup2[e] for e in result.config.epsilons]
    trend = all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))
    return MomentReport(sup2, sup4, bound2, bound4, offender is None,
                        trend, offender)
