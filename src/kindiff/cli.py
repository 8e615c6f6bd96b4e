"""Command-line interface.

Subcommands: coeffs, noise-stats, simulate-kinetic, simulate-spde, converge,
diagnose-generator.  Every run writes CSV files with a header row plus a
run_manifest.json (config echo, seed, versions, failure counts) into the
output directory.  Exit codes: 0 success, 2 config error, 3 acceptance-check
failure or failed run (the simulated trajectory of simulate-kinetic or
simulate-spde failed, or too many trajectories of one converge ensemble did).
"""

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from . import harness, kinetic, spde
from . import velocity as vel
from .config import MAX_PATH_JUMPS, ConfigError, load_config
from .generator import PerturbedTestFunction, random_smooth_field, residual_scaling
from .noise import empirical_autocovariance

# a run that raises one of these is reported as failed, not as a crash
RUN_FAILURES = (kinetic.TrajectoryOverflowError, kinetic.GronwallViolationError,
                spde.LimitOverflowError, harness.TooManyFailuresError)
RATIO_BAND = (1.5, 2.5)  # accepted residual-halving band for eps -> eps/2
# normalised residuals below this are rounding of an exact cancellation, so
# their ratio carries no scaling information
RESIDUAL_FLOOR = 1e-12
# flag bounds, checked before any work: noise-stats paths, and the doubles
# held by the diagnose-generator states (--states x grid points x velocities);
# a noise-stats path (--horizon x the largest chain exit rate) expects at most
# config.MAX_PATH_JUMPS jumps
MAX_NOISE_PATHS = 10 ** 6
MAX_STATE_VALUES = 10 ** 7
# a converge pool forks min(--workers, jobs) processes at its first submit,
# and a large ensemble has tens of thousands of jobs
MAX_WORKERS = 64


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def _write_manifest(out_dir, command, cfg, extra=None):
    manifest = {
        "command": command,
        "seed": cfg.base_seed,
        "config": cfg.raw,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kindiff": __version__,
        },
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_coeffs(cfg, args):
    grid, nm = cfg.grid, cfg.noise
    K = vel.diffusion_matrix(cfg.velocity)
    _write_csv(os.path.join(args.out, "diffusion_matrix.csv"),
               ["row", "col", "value"],
               [(p, q, K[p, q]) for p in range(grid.dim) for q in range(grid.dim)])
    _write_csv(os.path.join(args.out, "mode_coefficients.csv"),
               ["j", "c"],
               [(j, c) for j, c in enumerate(nm.coefficients)])
    coords = grid.coords()
    trace = nm.trace_field().reshape(-1)
    flat_coords = [c.reshape(-1) for c in coords]
    _write_csv(os.path.join(args.out, "kernel_trace.csv"),
               ["index"] + [f"x{d}" for d in range(grid.dim)] + ["F"],
               [(i, *(fc[i] for fc in flat_coords), trace[i]) for i in range(grid.npoints)])
    _write_manifest(args.out, "coeffs", cfg)
    print(f"K = {K.tolist()}")
    print(f"c = {nm.coefficients.tolist()}")
    print(f"F: min {trace.min():.6g} max {trace.max():.6g}")
    return 0


def cmd_noise_stats(cfg, args):
    nm = cfg.noise
    if not 100 <= args.paths <= MAX_NOISE_PATHS:
        raise ConfigError(f"noise-stats needs between 100 and {MAX_NOISE_PATHS} paths")
    if not 0 < args.horizon < np.inf:
        raise ConfigError("noise-stats needs a positive, finite --horizon")
    rate = max([float(ch.exit_rates.max()) for ch in nm.chains], default=0.0)
    if args.horizon * rate > MAX_PATH_JUMPS:
        raise ConfigError(f"noise-stats: --horizon {args.horizon:g} at exit rate {rate:g} "
                          f"expects more than {MAX_PATH_JUMPS} jumps per path")
    rows = []
    for j, ch in enumerate(nm.chains):
        rng = harness.make_stream(cfg.base_seed, harness.NOISE_NS, j, 0)
        emp, se = empirical_autocovariance(ch, args.horizon, args.paths, rng)
        rows.append((j, nm.coefficients[j], emp, se))
    _write_csv(os.path.join(args.out, "noise_stats.csv"),
               ["j", "c_analytic", "c_empirical", "stderr"], rows)
    trace = nm.trace_field().reshape(-1)
    _write_csv(os.path.join(args.out, "kernel_trace.csv"),
               ["index", "F"], list(enumerate(trace)))
    _write_manifest(args.out, "noise-stats", cfg,
                    {"paths": args.paths, "horizon": args.horizon})
    bad = [abs(r[1] - r[2]) > 3 * r[3] for r in rows]
    for j, r in enumerate(rows):
        print(f"mode {j}: c={r[1]:.6g} empirical={r[2]:.6g} +- {r[3]:.3g}"
              + ("  (outside 3 stderr)" if bad[j] else ""))
    return 3 if any(bad) else 0


def _write_trajectory(cfg, args, command, times, series, failures, extra):
    """Raise row 0's failure, else write its <kind>_series.csv and the manifest."""
    if failures:
        raise failures[0]
    if args.functionals_only:
        vals = harness._functional_values(cfg.functionals, cfg.grid, series[0])
        header = ["time"] + [t.name for t in cfg.functionals]
    else:
        vals = series[0].reshape(len(times), -1).T
        header = ["time"] + [f"rho_{i}" for i in range(vals.shape[0])]
    name = command.replace("simulate-", "") + "_series.csv"
    _write_csv(os.path.join(args.out, name), header,
               [(t, *vals[:, i]) for i, t in enumerate(times)])
    _write_manifest(args.out, command, cfg, {**extra, "trajectory": args.trajectory})


def cmd_simulate_kinetic(cfg, args):
    if args.trajectory < 0:
        raise ConfigError("--trajectory must be nonnegative")
    if not 0 <= args.eps_index < len(cfg.epsilons):
        raise ConfigError(f"--eps-index must lie in [0, {len(cfg.epsilons) - 1}]")
    eps = cfg.epsilons[args.eps_index]
    res = harness.kinetic_batch(cfg, args.eps_index, [args.trajectory])
    _write_trajectory(cfg, args, "simulate-kinetic", res.times, res.rho, res.failures,
                      {"epsilon": eps})
    print(f"kinetic trajectory at epsilon={eps}: "
          f"{len(res.times)} records, sup ||f||^2 = {res.sup_norm2[0]:.6g}")
    return 0


def cmd_simulate_spde(cfg, args):
    if args.trajectory < 0:
        raise ConfigError("--trajectory must be nonnegative")
    times, series, failures = harness.limit_batch(cfg, [args.trajectory])
    _write_trajectory(cfg, args, "simulate-spde", times, series, failures, {})
    print(f"limit trajectory: {len(times)} records")
    return 0


def cmd_converge(cfg, args):
    if cfg.ensemble_size < 100:
        raise ConfigError("converge needs ensemble_size >= 100")
    if not 0 <= args.eta < np.inf:
        raise ConfigError("--eta must be nonnegative and finite")
    if len(cfg.epsilons) < 2:
        raise ConfigError("converge needs at least two epsilons")
    harness.check_comparison_time(cfg)
    result = harness.run_ensemble(cfg, workers=args.workers)
    rows, verdicts = harness.weak_error_table(result)
    _write_csv(os.path.join(args.out, "weak_error.csv"),
               [f.name for f in dataclasses.fields(harness.WeakErrorRow)],
               [dataclasses.astuple(r) for r in rows])

    stat_rows = []
    ensembles = [(_fmt(eps), ens) for eps, ens in result.kinetic.items()]
    for label, ens in ensembles + [("limit", result.limit)]:
        for name, st in zip(ens.functional_names, ens.functional_stats):
            for i, t in enumerate(ens.times):
                stat_rows.append((label, name, t, np.asarray(st.mean)[i],
                                  np.asarray(st.variance)[i], st.count,
                                  np.asarray(st.stderr)[i]))
    _write_csv(os.path.join(args.out, "ensemble_stats.csv"),
               ["epsilon", "functional", "time", "mean", "variance", "count", "stderr"],
               stat_rows)

    dists = harness.mean_field_distances(result, eta=args.eta)
    _write_csv(os.path.join(args.out, "mean_field_distance.csv"),
               ["epsilon", "h_minus_eta"],
               [(eps, dists[eps]) for eps in cfg.epsilons])

    f0 = vel.lift(cfg.velocity, cfg.rho0)
    f0n2 = vel.inner_xv(cfg.velocity, cfg.grid, f0, f0)
    moments = harness.uniform_moment_check(result, f0n2)
    _write_csv(os.path.join(args.out, "moment_bounds.csv"),
               ["epsilon", "sup_E_norm2", "sup_E_norm4", "bound_p2", "bound_p4"],
               [(eps, moments.sup_p2[eps], moments.sup_p4[eps],
                 moments.bound_p2, moments.bound_p4) for eps in cfg.epsilons])

    dist_monotone = all(dists[a] > dists[b] for a, b in zip(cfg.epsilons, cfg.epsilons[1:]))
    ok = all(v == "consistent with convergence" for v in verdicts.values())
    _write_manifest(args.out, "converge", cfg, {
        "verdicts": verdicts,
        "mean_field_distance_monotone": dist_monotone,
        "moment_bound_ok": moments.ok,
        "moment_trend_nonincreasing": moments.trend_nonincreasing,
        "failure_counts": {k if k == "limit" else _fmt(k): v
                           for k, v in result.failure_counts.items()},
        "gronwall_margin_max": {
            _fmt(eps): float(ens.gronwall_margin_max)
            if np.isfinite(ens.gronwall_margin_max) else None
            for eps, ens in result.kinetic.items()
        },
    })
    for name, v in verdicts.items():
        print(f"{name}: {v}")
    print(f"H^-{args.eta} mean-field distances: "
          + ", ".join(f"eps={e:g}: {dists[e]:.3e}" for e in cfg.epsilons)
          + ("  (monotone)" if dist_monotone else "  (not monotone)"))
    print(f"moment bounds: {'ok' if moments.ok else 'violated at ' + str(moments.offender)}")
    return 0 if ok and moments.ok and dist_monotone else 3


def cmd_diagnose_generator(cfg, args):
    grid, vm, nm = cfg.grid, cfg.velocity, cfg.noise
    if len(cfg.epsilons) < 2:
        raise ConfigError("diagnose-generator needs at least two epsilons")
    if args.states < 2:
        raise ConfigError("diagnose-generator needs --states >= 2")
    if args.states * grid.npoints * vm.n_velocities > MAX_STATE_VALUES:
        raise ConfigError(f"diagnose-generator: --states x grid points x velocities must be "
                          f"at most {MAX_STATE_VALUES}")
    rng = harness.make_stream(cfg.base_seed, harness.DIAG_NS, 0, 0)
    states = []
    for _ in range(args.states):
        f = random_smooth_field(grid, vm.n_velocities, rng) + 1.0
        states.append((f, nm.sample_stationary(rng)))
    rows = []
    ok = True
    for tf in cfg.functionals:
        try:
            bundle = PerturbedTestFunction(tf, vm, nm, grid)
        except ValueError as exc:  # e.g. a mode pair over noise.MAX_PAIR_STATES
            raise ConfigError(f"diagnose-generator: {exc}") from exc
        res = residual_scaling(bundle, states, cfg.epsilons)
        for k, eps in enumerate(cfg.epsilons):
            mean = float(res[:, k].mean())
            stderr = float(res[:, k].std(ddof=1) / np.sqrt(res.shape[0]))
            if k == 0:
                ratio = np.nan
            else:
                per_state = res[:, k - 1] / np.maximum(res[:, k], 1e-300)
                ratio = float(np.median(per_state))
                scale = cfg.epsilons[k - 1] / eps
                exact = max(mean, float(res[:, k - 1].mean())) < RESIDUAL_FLOOR
                if not exact and not (RATIO_BAND[0] <= ratio / (scale / 2.0) <= RATIO_BAND[1]):
                    # band is stated for eps halving; rescale for other spacings
                    ok = False
            rows.append((eps, tf.name, mean, stderr, ratio))
    _write_csv(os.path.join(args.out, "generator_residuals.csv"),
               ["epsilon", "functional_id", "residual_mean", "residual_stderr",
                "scaling_ratio"], rows)
    _write_manifest(args.out, "diagnose-generator", cfg,
                    {"states": args.states, "ratio_ok": ok})
    for row in rows:
        print(f"eps={row[0]:g} {row[1]}: residual {row[2]:.3e} +- {row[3]:.1e}"
              + ("" if np.isnan(row[4]) else f"  ratio {row[4]:.3f}"))
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kindiff",
        description="Numerical laboratory for the diffusion limit of a "
                    "randomly forced kinetic equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("coeffs", help="print effective coefficients K, c_j, F")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("noise-stats", help="analytic vs empirical autocovariances")
    common(p)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=50.0)
    p.set_defaults(func=cmd_noise_stats)

    p = sub.add_parser("simulate-kinetic", help="one kinetic trajectory to CSV")
    common(p)
    p.add_argument("--trajectory", type=int, default=0)
    p.add_argument("--eps-index", type=int, default=0)
    p.add_argument("--functionals-only", action="store_true",
                   help="write functional values instead of full densities")
    p.set_defaults(func=cmd_simulate_kinetic)

    p = sub.add_parser("simulate-spde", help="one limit trajectory to CSV")
    common(p)
    p.add_argument("--trajectory", type=int, default=0)
    p.add_argument("--functionals-only", action="store_true")
    p.set_defaults(func=cmd_simulate_spde)

    p = sub.add_parser("converge", help="full epsilon sweep with weak-error table")
    common(p)
    p.add_argument("--eta", type=float, default=1.0,
                   help="order of the negative Sobolev metric")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnose-generator", help="corrector residual scaling in epsilon")
    common(p)
    p.add_argument("--states", type=int, default=200)
    p.set_defaults(func=cmd_diagnose_generator)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ConfigError(f"--workers must lie in [1, {MAX_WORKERS}]")
        cfg = load_config(args.config, base_seed=args.seed)
        args.out = args.out or cfg.output_dir
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: "
                              f"{exc.strerror or exc}") from exc
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RUN_FAILURES as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
