"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The statistical criteria use the shipped configs in configs/ and the
fixed seeds recorded there, so the whole suite is deterministic.
"""

import os

import numpy as np
import pytest

from kindiff import harness, kinetic, spde
from kindiff import noise as nz
from kindiff import velocity as vel
from kindiff.config import load_config
from kindiff.generator import (GeneratorInstrument, PerturbedTestFunction,
                               martingale_residual, random_smooth_field,
                               residual_scaling)
from kindiff.harness import make_stream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
WORKERS = min(2, os.cpu_count() or 1)


def _cfg(name):
    return load_config(os.path.join(CONFIG_DIR, name))


def report(num, name, ok, detail):
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} "
          f"{name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared ensemble runs


@pytest.fixture(scope="module")
def standard_result():
    cfg = _cfg("standard.json")
    return harness.run_ensemble(cfg, workers=WORKERS, limit_size=10000)


@pytest.fixture(scope="module")
def martingale_run():
    cfg = _cfg("martingale.json")
    return cfg, harness.run_ensemble(cfg, workers=WORKERS, diagnostics=True,
                                     kinetic_only=True)


@pytest.fixture(scope="module")
def scalar_run():
    cfg = _cfg("scalar_mode.json")
    return cfg, harness.run_ensemble(cfg, workers=WORKERS, limit_size=10000)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_deterministic_diffusion_limit():
    cfg = _cfg("deterministic.json")
    grid, vm, nm = cfg.grid, cfg.velocity, cfg.noise
    f0 = vel.lift(vm, cfg.rho0)
    T = cfg.final_time
    x = grid.coords()[0]
    exact = 1.0 + 0.5 * np.exp(-4 * np.pi ** 2 * T) * np.cos(2 * np.pi * x)
    errors = []
    for e_idx, eps in enumerate(cfg.epsilons):
        scfg = kinetic.SolverConfig(eps, cfg.dt_factor, T)
        res = kinetic.solve_trajectory(f0, scfg, vm, grid, nm,
                                       make_stream(cfg.base_seed, 0, e_idx, 0), [T])
        errors.append(grid.norm(res.rho[-1] - exact))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] < 2e-2
    report(1, "deterministic diffusion limit", ok,
           "L2 errors " + ", ".join(f"{e:.3e}" for e in errors))


def test_criterion_02_Q_positivity():
    cfg = _cfg("standard.json")
    grid, nm = cfg.grid, cfg.noise
    rng = make_stream(cfg.base_seed, harness.DIAG_NS, 2, 0)
    worst = np.inf
    for _ in range(100):
        f = rng.standard_normal(grid.shape)
        worst = min(worst, grid.inner(nm.apply_Q(f), f) / grid.inner(f, f))
    ok = worst >= -1e-12
    report(2, "covariance operator positivity", ok,
           f"min (Qf,f)/||f||^2 over 100 fields = {worst:.3e}")


def test_criterion_03_telegraph_autocovariance():
    chain = nz.telegraph(1.0, 1.0)
    c = nz.integrated_autocovariance(chain)
    exact_ok = abs(c - 1.0) <= 1e-12
    rng = make_stream(424242, harness.NOISE_NS, 0, 0)
    emp, se = nz.empirical_autocovariance(chain, horizon=50.0, n_paths=1000, rng=rng)
    emp_ok = abs(emp - c) <= 3 * se
    report(3, "telegraph autocovariance", exact_ok and emp_ok,
           f"analytic {c:.15f}, empirical {emp:.4f} +- {se:.4f}")


def test_criterion_04_drift_identity():
    worst = 0.0
    for name in ("standard.json", "deterministic.json", "scalar_mode.json",
                 "martingale.json"):
        cfg = _cfg(name)
        coeffs = spde.LimitCoefficients.from_models(cfg.velocity, cfg.noise, cfg.grid)
        worst = max(worst, spde.drift_consistency(coeffs, cfg.noise.trace_field()))
    ok = worst < 1e-14
    report(4, "Ito-Stratonovich drift identity", ok,
           f"max gap over shipped configs = {worst:.3e}")


def test_criterion_05_scalar_limit_mean(scalar_run):
    cfg, result = scalar_run
    grid = cfg.grid
    F = float(cfg.noise.trace_field()[tuple([0] * grid.dim)])
    target = np.exp(F * cfg.final_time / 2) * grid.inner(cfg.rho0, np.ones(grid.shape))
    lim = result.limit.samples["mass"]
    kin = result.kinetic[0.05].samples["mass"]
    lim_mean, lim_se = lim.mean(), lim.std(ddof=1) / np.sqrt(lim.size)
    kin_mean, kin_se = kin.mean(), kin.std(ddof=1) / np.sqrt(kin.size)
    lim_ok = abs(lim_mean - target) <= 3 * lim_se and lim.size == 10000
    kin_ok = abs(kin_mean - target) <= 3 * kin_se and kin.size == 1000
    report(5, "scalar limit mean", lim_ok and kin_ok,
           f"target {target:.4f}; limit {lim_mean:.4f}+-{lim_se:.4f} (n=10^4), "
           f"kinetic {kin_mean:.4f}+-{kin_se:.4f} (n=10^3)")


def test_criterion_06_generator_consistency():
    cfg = _cfg("standard.json")
    grid, vm, nm = cfg.grid, cfg.velocity, cfg.noise
    rng = make_stream(cfg.base_seed, harness.DIAG_NS, 6, 0)
    states = [(random_smooth_field(grid, vm.n_velocities, rng) + 1.0,
               nm.sample_stationary(rng)) for _ in range(200)]
    medians = {}
    for tf in cfg.functionals:
        bundle = PerturbedTestFunction(tf, vm, nm, grid)
        res = residual_scaling(bundle, states, [0.1, 0.05])
        medians[tf.name] = float(np.median(res[:, 0] / res[:, 1]))
    ok = all(1.5 <= m <= 2.5 for m in medians.values())
    report(6, "generator consistency", ok,
           "median residual ratios " +
           ", ".join(f"{k}={v:.3f}" for k, v in medians.items()))


def test_criterion_07_martingale_zero_mean(martingale_run):
    cfg, result = martingale_run
    ens = result.kinetic[0.1]
    times = ens.times
    checkpoints = [len(times) // 4, len(times) // 2, len(times) - 1]
    ok = True
    details = []
    for name in ens.functional_names:
        diag = ens.diagnostics[name]
        rep = martingale_residual(times, diag["values"], diag["gens"],
                                  diag["brackets"])
        for idx in checkpoints:
            z = abs(rep.mean[idx]) / max(rep.stderr[idx], 1e-300)
            ok = ok and z <= 3.0
            details.append(f"{name}@t={times[idx]:.3g}: |mean|/se={z:.2f}")
    report(7, "martingale zero mean", ok, "; ".join(details))


def test_criterion_08_uniform_moment_bound(standard_result):
    cfg = standard_result.config
    f0 = vel.lift(cfg.velocity, cfg.rho0)
    f0n2 = vel.inner_xv(cfg.velocity, cfg.grid, f0, f0)
    rep = harness.uniform_moment_check(standard_result, f0n2)
    sups = ", ".join(f"eps={e:g}: {rep.sup_p2[e] / f0n2:.3f}"
                     for e in standard_result.epsilons)
    report(8, "uniform moment bound", rep.ok,
           f"sup E||f||^2 / ||f0||^2 = {sups} (bound {cfg.moment_p2_factor}); "
           f"p4 bound {cfg.moment_p4_factor} also enforced")


def test_criterion_09_gronwall_zero_violations(standard_result, martingale_run,
                                               scalar_run):
    total, violations = 0, []
    for result in (standard_result, martingale_run[1], scalar_run[1]):
        for eps, ens in result.kinetic.items():
            total += ens.attempted
            violations.extend(ens.failures)
    ok = not violations and total >= 8000
    report(9, "pathwise energy bound", ok,
           f"{total} trajectories simulated, {len(violations)} violations")


def test_criterion_10_weak_convergence_trend(standard_result):
    rows, verdicts = harness.weak_error_table(standard_result)
    dists = harness.mean_field_distances(standard_result, eta=1.0)
    eps = standard_result.epsilons
    monotone = all(dists[a] > dists[b] for a, b in zip(eps, eps[1:]))
    consistent = all(v == "consistent with convergence" for v in verdicts.values())
    err_txt = "; ".join(
        f"{r.functional}@eps={r.epsilon:g}: {r.error:.2e}+-{r.ci:.1e}" for r in rows)
    dist_txt = ", ".join(f"{dists[e]:.2e}" for e in eps)
    report(10, "weak convergence trend", consistent and monotone,
           f"{err_txt}; H^-1 mean-field distances [{dist_txt}]")
