import csv
import json
import os
import re
import warnings

import numpy as np
import pytest

from kindiff import harness
from kindiff.cli import main
from kindiff.config import load_config
from kindiff.noise import NoiseModel

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, **overrides):
    data = {
        "grid": {"dim": 1, "n": 32},
        "velocity": {"model": "two_speed"},
        "noise": {"modes": [
            {"label": "cos:1", "amplitude": 1.0,
             "chain": {"kind": "telegraph", "sigma": 1.0, "rate": 1.0}},
        ]},
        "solver": {"dt_factor": 0.1, "spde_steps": 64},
        "initial": {"mean": 1.0, "modes": [{"label": "cos:1", "amplitude": 0.5}]},
        "functionals": [
            {"name": "mass", "kind": "linear", "weight": {"label": "const"}},
        ],
        "experiment": {
            "epsilons": [0.4, 0.2],
            "ensemble_size": 8,
            "final_time": 0.048,
            "output_times": {"count": 5},
            "base_seed": 7,
            "output_dir": str(tmp_path / "out"),
        },
    }
    for key, val in overrides.items():
        section, _, name = key.partition(".")
        if name:
            data[section][name] = val
        else:
            data[section] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_coeffs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["coeffs", "--config", cfg]) == 0
    out = tmp_path / "out"
    header, rows = read_csv(out / "diffusion_matrix.csv")
    assert header == ["row", "col", "value"]
    assert float(rows[0][2]) == pytest.approx(1.0)
    header, rows = read_csv(out / "mode_coefficients.csv")
    assert header == ["j", "c"]
    assert float(rows[0][1]) == pytest.approx(1.0)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "coeffs"
    assert manifest["seed"] == 7
    assert "numpy" in manifest["versions"]


def test_noise_stats(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["noise-stats", "--config", cfg, "--paths", "200",
                 "--horizon", "30"]) == 0
    header, rows = read_csv(tmp_path / "out" / "noise_stats.csv")
    assert header == ["j", "c_analytic", "c_empirical", "stderr"]
    c_ana, c_emp, se = (float(rows[0][i]) for i in (1, 2, 3))
    assert abs(c_ana - c_emp) <= 3 * se


def test_simulate_kinetic_full_and_functionals(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate-kinetic", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "kinetic_series.csv")
    assert header[0] == "time" and len(header) == 1 + 32
    assert len(rows) == 5
    assert main(["simulate-kinetic", "--config", cfg, "--functionals-only"]) == 0
    header, rows = read_csv(tmp_path / "out" / "kinetic_series.csv")
    assert header == ["time", "mass"]


def test_simulate_spde(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate-spde", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "spde_series.csv")
    assert len(rows) == 5
    # mass stays positive along the geometric flow
    masses = [np.mean([float(c) for c in r[1:]]) for r in rows]
    assert all(m > 0 for m in masses)


def test_converge_writes_tables(tmp_path):
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 128})
    code = main(["converge", "--config", cfg, "--workers", "2"])
    out = tmp_path / "out"
    header, rows = read_csv(out / "weak_error.csv")
    assert header[:5] == ["functional", "epsilon", "error", "ci", "ratio"]
    assert len(rows) == 2  # one functional, two epsilons
    header, _ = read_csv(out / "ensemble_stats.csv")
    assert header == ["epsilon", "functional", "time", "mean", "variance",
                      "count", "stderr"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "verdicts" in manifest and "failure_counts" in manifest
    margins = manifest["gronwall_margin_max"]
    assert set(margins) == {"0.40000000000000002", "0.20000000000000001"}
    assert all(m <= 0.0 for m in margins.values())
    assert code in (0, 3)  # tiny ensembles may be inconclusive


def test_converge_requires_statistical_ensemble(tmp_path):
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 20})
    assert main(["converge", "--config", cfg]) == 2


def test_converge_refuses_mismatched_output_time_before_running(tmp_path):
    # the last output time 0.012 is step 16 of the limit grid (dt 0.00075) but
    # is recorded at 0.016, the first kinetic step, at eps 0.4
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 128,
                                    "experiment.output_times": [0.0, 0.012]})
    assert main(["converge", "--config", cfg]) == 2
    assert not (tmp_path / "out" / "weak_error.csv").exists()


def test_diagnose_generator(tmp_path):
    cfg = write_config(tmp_path, **{"experiment.epsilons": [0.2, 0.1]})
    assert main(["diagnose-generator", "--config", cfg, "--states", "40"]) == 0
    header, rows = read_csv(tmp_path / "out" / "generator_residuals.csv")
    assert header == ["epsilon", "functional_id", "residual_mean",
                      "residual_stderr", "scaling_ratio"]
    ratios = [float(r[4]) for r in rows if r[4] != "nan"]
    assert all(1.5 <= r <= 2.5 for r in ratios)


def test_diagnose_generator_exact_cancellation(tmp_path):
    # without noise every residual is rounding (about 1e-16), so its ratios
    # are noise and the pair counts as an exact cancellation
    config = os.path.join(CONFIG_DIR, "deterministic.json")
    out = tmp_path / "det"
    assert main(["diagnose-generator", "--config", config, "--states", "40",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "generator_residuals.csv")
    assert all(float(r[2]) < 1e-12 for r in rows)
    assert json.loads((out / "run_manifest.json").read_text())["ratio_ok"] is True


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["coeffs", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, **{"experiment.epsilons": [0.1, 0.2]})
    assert main(["coeffs", "--config", cfg]) == 2


# at mode amplitude 300 every kinetic trajectory overflows; at 1e6 the first
# step's noise multiplier overflows too, and no RuntimeWarning may escape
FAILED_RUNS = [
    ("simulate-kinetic", "scalar_mode.json", 300.0, None,
     r"run failed: TrajectoryOverflowError: \|\|f\|\|_L2 exceeded"),
    ("converge", "standard.json", 300.0, 100,
     r"run failed: TooManyFailuresError: too many trajectory failures at epsilon=0\.2: 100/100"),
    ("simulate-kinetic", "standard.json", 1e6, None,
     r"run failed: TrajectoryOverflowError: \|\|f\|\|_L2 exceeded"),
]


# a row's id leaves out its amplitude
@pytest.mark.parametrize("command,shipped,amplitude,size,message", FAILED_RUNS,
                         ids=[f"{c}-{s}-{n}-{m}" for c, s, _, n, m in FAILED_RUNS])
def test_failed_run_exit_code(tmp_path, capsys, command, shipped, amplitude, size, message):
    with open(os.path.join(CONFIG_DIR, shipped)) as fh:
        raw = json.load(fh)
    for mode in raw["noise"]["modes"]:
        mode["amplitude"] = amplitude
    if size is not None:
        raw["experiment"]["ensemble_size"] = size
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(message, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("solver.dt_factor", 0),
    ("experiment.ensemble_size", "abc"),
    ("grid.n", 4.7),
    ("velocity.model", "ring:4:junk"),
    ("velocity.model", "ring: 4"),
    ("experiment.epsilons", [1e-5]),
    ("solver.spde_steps", 10 ** 12),
    # finite modes whose trace F = sum_j c_j eta_j^2 overflows
    ("noise.modes", [{"label": "cos:1", "amplitude": 1e200, "chain": {"kind": "telegraph"}}]),
])
def test_malformed_scalar_exit_code(tmp_path, capsys, key, value):
    section, _, name = key.partition(".")
    cfg = write_config(tmp_path)
    with open(cfg) as fh:
        data = json.load(fh)
    data[section][name] = value
    with open(cfg, "w") as fh:
        json.dump(data, fh)
    assert main(["converge", "--config", cfg]) == 2
    # the message names what is wrong: a loose ring:<m> parse would instead
    # fail later, on the 1-d grid of this config
    err = capsys.readouterr().err
    assert key in err or repr(value) in err


@pytest.mark.parametrize("argv,path,value,where", [
    # the mean plus the mode overflows to inf in the initial density
    (["simulate-spde"], ("initial",),
     {"mean": 1e308, "modes": [{"label": "const", "amplitude": 1e308}]}, "initial:"),
    # a finite weight whose quadratic value (1/2)(rho, w)^2 overflows
    (["simulate-kinetic", "--functionals-only"], ("functionals", 1, "weight"),
     {"label": "cos:1", "amplitude": 1e200}, "functionals[1].weight:"),
])
def test_overflowing_shipped_config_exits_2_without_warning(tmp_path, capsys, argv, path,
                                                            value, where):
    with open(os.path.join(CONFIG_DIR, "standard.json")) as fh:
        raw = json.load(fh)
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


# config leaves set in turn to extreme values by the execution fuzz below
FUZZ_LEAVES = {
    "noise_amplitude": ("noise", "modes", 0, "amplitude"),
    "chain_sigma": ("noise", "modes", 0, "chain", "sigma"),
    "chain_rate": ("noise", "modes", 0, "chain", "rate"),
    "initial_mean": ("initial", "mean"),
    "initial_mode_amplitude": ("initial", "modes", 0, "amplitude"),
    "weight_amplitude": ("functionals", 0, "weight", "amplitude"),
}


@pytest.mark.parametrize("value", [1e308, 1e200, 1e6, 1e-308, 0, -1])
@pytest.mark.parametrize("leaf", list(FUZZ_LEAVES))
@pytest.mark.parametrize("shipped", ["standard.json", "scalar_mode.json"])
def test_extreme_leaf_exits_cleanly(tmp_path, shipped, leaf, value):
    """Every command exits 0, 2 or 3 without a RuntimeWarning; exit 0 writes finite cells."""
    with open(os.path.join(CONFIG_DIR, shipped)) as fh:
        raw = json.load(fh)
    raw["experiment"]["ensemble_size"] = 2
    *path, last = FUZZ_LEAVES[leaf]
    section = raw
    for key in path:
        section = section[key]
    section[last] = value
    cfg = tmp_path / "mutant.json"
    cfg.write_text(json.dumps(raw))
    for argv in (["coeffs"], ["simulate-kinetic", "--functionals-only"],
                 ["simulate-spde", "--functionals-only"]):
        out = tmp_path / argv[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert rc in (0, 2, 3), argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if rc == 0:
            for table in out.glob("*.csv"):
                _, rows = read_csv(table)
                cells = [float(c) for row in rows for c in row]
                assert np.all(np.isfinite(cells)), (argv, table.name)


@pytest.mark.parametrize("command,key,value", [
    ("simulate-kinetic", "experiment.epsilons", [1e-5]),   # 4.8e9 steps
    ("simulate-spde", "solver.spde_steps", 10 ** 12),
    ("converge", "experiment.ensemble_size", 10 ** 12),
    # 10^5 output times x 32 grid points > config.MAX_RECORD_VALUES per member
    ("simulate-kinetic", "experiment.output_times", {"count": 10 ** 5}),
])
def test_unrunnable_step_count_exits_before_simulating(tmp_path, capsys, monkeypatch,
                                                       command, key, value):
    def refuse(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(harness, "kinetic_batch", refuse)
    monkeypatch.setattr(harness, "limit_batch", refuse)
    monkeypatch.setattr(harness, "run_ensemble", refuse)  # lists every chunk first
    assert main([command, "--config", write_config(tmp_path, **{key: value})]) == 2
    assert key in capsys.readouterr().err


def test_unfinishable_noise_path_exits_before_simulating(tmp_path, capsys, monkeypatch):
    # one chain at rate 1e9 expects 3.2e10 jumps per path at eps = 0.05
    def refuse(*args):
        raise AssertionError("noise path simulation started")

    monkeypatch.setattr(NoiseModel, "simulate_path", refuse)
    with open(os.path.join(CONFIG_DIR, "standard.json")) as fh:
        raw = json.load(fh)
    raw["noise"]["modes"][0]["chain"]["rate"] = 1e9
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(raw))
    assert main(["converge", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "a path at eps=0.05 expects 3.2e+10 jumps" in err
    assert "Traceback" not in err


def test_converge_refuses_an_off_grid_last_time_before_simulating(tmp_path, capsys,
                                                                   monkeypatch):
    # eps 0.4 steps by 0.016 and records the output time 0.012 at 0.016; the
    # limit grid 0.048 / 64 records it at 0.012
    def refuse(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(harness, "kinetic_batch", refuse)
    monkeypatch.setattr(harness, "limit_batch", refuse)
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 128,
                                    "experiment.output_times": [0.0, 0.012]})
    assert main(["converge", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "epsilon=0.4" in err and "choose a time on both step grids" in err


@pytest.mark.parametrize("argv", [
    ["simulate-kinetic", "--eps-index", "5"],
    ["simulate-kinetic", "--eps-index", "-1"],
    ["simulate-kinetic", "--trajectory", "-1"],
    ["simulate-spde", "--trajectory", "-1"],
    ["noise-stats", "--horizon", "0"],
    ["noise-stats", "--horizon", "-1"],
    ["noise-stats", "--horizon", "inf"],
    ["noise-stats", "--paths", "10000000000000"],
    ["noise-stats", "--horizon", "1e12"],
    ["diagnose-generator", "--states", "0"],
    ["diagnose-generator", "--states", "1"],
    ["diagnose-generator", "--states", "100000000000"],
    ["converge", "--eta", "-1"],
    ["converge", "--eta", "nan"],
    ["converge", "--workers", "0"],
    ["coeffs", "--workers", "-1"],
    # above cli.MAX_WORKERS: refused before any pool forks a process
    ["converge", "--workers", "65"],
    ["converge", "--workers", str(10 ** 9)],
], ids=" ".join)
def test_malformed_flag_exit_code(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 128})
    assert main(argv + ["--config", cfg]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "weak_error.csv").exists()


def test_seed_override_changes_manifest(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["coeffs", "--config", cfg, "--seed", "123"]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["seed"] == 123


@pytest.mark.parametrize("seed_args", [[], ["--seed", "123"]])
def test_config_builds_each_model_once(tmp_path, monkeypatch, seed_args):
    built = []
    init = NoiseModel.__post_init__
    monkeypatch.setattr(NoiseModel, "__post_init__",
                        lambda self: (built.append(self), init(self)))
    cfg = write_config(tmp_path)
    assert main(["coeffs", "--config", cfg] + seed_args) == 0
    assert len(built) == 1


@pytest.mark.parametrize("content", [b'{"grid": \xff}', b"[" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_config_that_is_not_json_text(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["coeffs", "--config", str(bad)]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


def test_diagnose_generator_refuses_an_over_budget_mode_pair(tmp_path, capsys):
    # two 70-state chains: their product chain has 4900 > noise.MAX_PAIR_STATES states
    n = 70
    rates = np.roll(np.eye(n), 1, axis=1) - np.eye(n)  # cycle i -> i + 1 at rate 1
    chain = {"states": np.linspace(-1.0, 1.0, n).tolist(), "rates": rates.tolist()}
    modes = [{"label": label, "amplitude": 1.0, "chain": chain} for label in ("cos:1", "sin:1")]
    cfg = write_config(tmp_path, **{"noise.modes": modes})
    assert main(["diagnose-generator", "--config", cfg, "--states", "2"]) == 2
    assert "mode pair (0, 1)" in capsys.readouterr().err


def test_seed_override_keeps_json_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["coeffs", "--config", str(bad), "--seed", "3"]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert main(["coeffs", "--config", missing, "--seed", "3"]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_output_directory_that_cannot_be_created(tmp_path, capsys, below):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "x" if below else blocker
    assert main(["coeffs", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("trajectory", [0, 21])
def test_trajectory_flag_is_the_ensemble_member(tmp_path, trajectory):
    # the randomness contract: member i of a 32-trajectory chunk is the run of
    # simulate-kinetic / simulate-spde --trajectory i
    path = write_config(tmp_path)
    cfg = load_config(path)
    chunk = list(range(harness.CHUNK))
    kin = harness.kinetic_batch(cfg, 1, chunk)
    lim_times, lim, _ = harness.limit_batch(cfg, chunk)
    for argv, name, times, want in (
            (["simulate-kinetic", "--eps-index", "1"], "kinetic_series.csv",
             kin.times, kin.rho[trajectory]),
            (["simulate-spde"], "spde_series.csv", lim_times, lim[trajectory])):
        out = tmp_path / name
        assert main(argv + ["--config", path, "--trajectory", str(trajectory),
                            "--out", str(out)]) == 0
        _, rows = read_csv(out / name)
        got = np.array(rows, dtype=float)
        assert np.array_equal(got[:, 0], times)
        flat = want.reshape(len(times), -1)
        assert np.max(np.abs(got[:, 1:] - flat)) <= 1e-12 * np.max(np.abs(flat))
    # simulate-kinetic steps the member as a batch of one, and its norms are
    # bitwise those of the member in its chunk
    solo = harness.kinetic_batch(cfg, 1, [trajectory])
    for name in ("norm2", "sup_norm2", "gronwall_margin"):
        assert np.array_equal(getattr(solo, name)[0], getattr(kin, name)[trajectory])


def test_simulate_spde_reports_an_overflowing_member(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "standard.json")) as fh:
        data = json.load(fh)
    for mode in data["noise"]["modes"]:
        mode["amplitude"] = 300.0  # every limit member overflows
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(data))
    assert main(["simulate-spde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert ("run failed: LimitOverflowError: ||rho||_L2 exceeded 1e+12 or is not finite"
            in capsys.readouterr().err)


def test_out_flag_overrides_directory(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "elsewhere"
    assert main(["coeffs", "--config", cfg, "--out", str(target)]) == 0
    assert (target / "run_manifest.json").exists()


def test_worker_invariance_bitwise(tmp_path):
    cfg = write_config(tmp_path, **{"experiment.ensemble_size": 128})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["converge", "--config", cfg, "--workers", "1", "--out", str(out1)])
    main(["converge", "--config", cfg, "--workers", "2", "--out", str(out2)])
    for name in ("weak_error.csv", "ensemble_stats.csv", "mean_field_distance.csv",
                 "moment_bounds.csv", "run_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
