import copy
import json
import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindiff import cli, harness, kinetic, spde
from kindiff import noise as nz
from kindiff import velocity as vel
from kindiff.config import ConfigError, parse_config
from kindiff.grid import TorusGrid
from kindiff.noise import NoiseModel
from kindiff.stats import RunningStats


def small_config(ensemble=8, epsilons=(0.4, 0.2), n=16, noise=True, seed=99,
                 final_time=0.048, spde_steps=64, mode="cos:1"):
    modes = [{"label": mode, "amplitude": 1.0,
              "chain": {"kind": "telegraph", "sigma": 1.0, "rate": 1.0}}] if noise else []
    return parse_config({
        "grid": {"dim": 1, "n": n},
        "velocity": {"model": "two_speed"},
        "noise": {"modes": modes},
        "solver": {"dt_factor": 0.1, "spde_steps": spde_steps},
        "initial": {"mean": 1.0, "modes": [{"label": "cos:1", "amplitude": 0.5}]},
        "functionals": [
            {"name": "mass", "kind": "linear", "weight": {"label": "const"}},
            {"name": "quad", "kind": "quadratic", "weight": {"label": "const"}},
        ],
        "experiment": {
            "epsilons": list(epsilons),
            "ensemble_size": ensemble,
            "final_time": final_time,
            "output_times": {"count": 5},
            "base_seed": seed,
            "output_dir": "out",
        },
    })


class TestRunningStats:
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
           st.integers(0, 38))
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_concatenation(self, xs, cut):
        cut = min(cut, len(xs) - 1)
        whole = RunningStats()
        for x in xs:
            whole.update(x)
        a, b = RunningStats(), RunningStats()
        for x in xs[:cut]:
            a.update(x)
        for x in xs[cut:]:
            b.update(x)
        merged = a.merge(b)
        scale = max(1.0, float(np.max(np.abs(xs))))
        assert merged.count == whole.count
        assert abs(merged.mean - whole.mean) <= 1e-12 * scale
        assert abs(merged.m2 - whole.m2) <= 1e-9 * scale ** 2

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_merge_commutative(self, xs):
        half = len(xs) // 2
        a, b = RunningStats(), RunningStats()
        for x in xs[:half]:
            a.update(x)
        for x in xs[half:]:
            b.update(x)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        assert ab.mean == pytest.approx(ba.mean, rel=1e-12, abs=1e-12)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-9, abs=1e-9)

    def test_array_valued(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((10, 3))
        stats = RunningStats()
        for row in xs:
            stats.update(row)
        assert stats.mean == pytest.approx(xs.mean(axis=0))
        assert stats.variance == pytest.approx(xs.var(axis=0, ddof=1))
        assert stats.stderr == pytest.approx(xs.std(axis=0, ddof=1) / np.sqrt(10))

    def test_batch_update(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(20)
        a = RunningStats()
        a.update_batch(xs)
        b = RunningStats()
        for x in xs:
            b.update(x)
        assert a.count == b.count
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.m2 == pytest.approx(b.m2, rel=1e-10)


class TestRunEnsemble:
    def test_zero_noise_zero_variance(self):
        cfg = small_config(noise=False, ensemble=4)
        res = harness.run_ensemble(cfg)
        for ens in res.kinetic.values():
            for stat in ens.functional_stats:
                assert np.max(np.asarray(stat.variance)) < 1e-24

    def test_deterministic_across_runs(self):
        cfg = small_config()
        r1 = harness.run_ensemble(cfg)
        r2 = harness.run_ensemble(cfg)
        for eps in r1.config.epsilons:
            a = np.asarray(r1.kinetic[eps].functional_stats[0].mean)
            b = np.asarray(r2.kinetic[eps].functional_stats[0].mean)
            assert np.array_equal(a, b)
        assert np.array_equal(np.asarray(r1.limit.rho_mean.mean),
                              np.asarray(r2.limit.rho_mean.mean))

    # a constant mode takes the closed form of the limit equation
    @pytest.mark.parametrize("mode", ["cos:1", "const"], ids=["cos", "const"])
    def test_worker_count_invariance(self, mode):
        cfg = small_config(ensemble=70, mode=mode)  # forces multiple chunks
        r1 = harness.run_ensemble(cfg, workers=1)
        r2 = harness.run_ensemble(cfg, workers=2)
        for eps in r1.config.epsilons:
            for s1, s2 in zip(r1.kinetic[eps].functional_stats,
                              r2.kinetic[eps].functional_stats):
                assert np.array_equal(np.asarray(s1.mean), np.asarray(s2.mean))
                assert np.array_equal(np.asarray(s1.m2), np.asarray(s2.m2))
        assert np.array_equal(np.asarray(r1.limit.rho_mean.mean),
                              np.asarray(r2.limit.rho_mean.mean))

    def test_stderr_halves_with_quadrupled_ensemble(self):
        # CLT scaling via jackknife over sub-ensembles of the sample store
        cfg = small_config(ensemble=256, epsilons=(0.4,), final_time=0.032)
        res = harness.run_ensemble(cfg, kinetic_only=True)
        samples = res.kinetic[0.4].samples["mass"]
        s_small = samples[:64].std(ddof=1) / np.sqrt(64)
        s_big = samples.std(ddof=1) / np.sqrt(256)
        assert s_big == pytest.approx(s_small / 2, rel=0.35)

    def test_failure_accounting(self):
        cfg = small_config()
        res = harness.run_ensemble(cfg)
        assert res.failure_counts == {0.4: 0, 0.2: 0, "limit": 0}

    def test_times_are_the_solver_step_times(self):
        # dt = 0.1 * 0.4^2 = 0.016 does not divide the output spacing 0.012
        cfg = small_config(ensemble=3, epsilons=(0.4, 0.2))
        res = harness.run_ensemble(cfg, kinetic_only=True)
        grid, vm, nm = cfg.grid, cfg.velocity, cfg.noise
        for e_idx, eps in enumerate(cfg.epsilons):
            scfg = kinetic.SolverConfig(eps, cfg.dt_factor, cfg.final_time)
            solo = kinetic.solve_trajectory(
                np.ones(grid.shape + (2,)), scfg, vm, grid, nm,
                harness.make_stream(cfg.base_seed, harness.KIN_NS, e_idx, 0), cfg.output_times)
            assert np.array_equal(res.kinetic[eps].times, solo.times)
        assert not np.array_equal(res.kinetic[0.4].times, cfg.output_times)

    def test_each_chunk_builds_each_model_once(self, monkeypatch):
        built = []
        init = NoiseModel.__post_init__
        monkeypatch.setattr(NoiseModel, "__post_init__",
                            lambda self: (built.append(self), init(self)))
        cfg = small_config(ensemble=4)
        built.clear()
        harness._chunk_job((cfg.raw, 0, [[0, 1], [2, 3]], True))
        assert len(built) == 1
        harness._chunk_job((cfg.raw, None, [[0, 1]], False))
        assert len(built) == 2

    def test_pool_never_larger_than_the_job_list(self, monkeypatch):
        # a fake executor records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert list(harness._run_chunked(abs, [-1, -2, -3], workers=8)) == [1, 2, 3]
        assert list(harness._run_chunked(abs, [-1, -2, -3], workers=2)) == [1, 2, 3]
        assert sizes == [3, 2]

    def test_serial_parts_are_computed_as_they_are_taken(self):
        ran = []

        def worker(job):
            ran.append(job)
            return -job

        parts = harness._run_chunked(worker, [1, 2, 3], workers=1)
        assert next(parts) == -1
        assert ran == [1]
        assert list(parts) == [-2, -3]
        assert ran == [1, 2, 3]

    def test_one_pool_per_run(self, monkeypatch):
        # every chunk of every ensemble goes to one executor; the fake starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_config(ensemble=40)  # one job per epsilon and one limit job
        res = harness.run_ensemble(cfg, workers=2)
        assert sizes == [2]
        assert res.limit.attempted == 40
        assert all(ens.attempted == 40 for ens in res.kinetic.values())

    def test_too_many_failures_abort_the_run(self, monkeypatch):
        monkeypatch.setattr(kinetic, "OVERFLOW_NORM", 1e-30)  # every trajectory fails
        with pytest.raises(RuntimeError, match=r"failures at epsilon=0\.4: 4/4"):
            harness.run_ensemble(small_config(ensemble=4), workers=1)

    def test_limit_size_below_one_raises_before_any_chunk(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "kinetic_batch", lambda *args: ran.append(args))
        cfg = small_config(ensemble=4)
        with pytest.raises(ValueError, match="limit_size must be at least 1"):
            harness.run_ensemble(cfg, limit_size=0)
        assert ran == []

    def test_gronwall_margin_kept_and_merged_by_max(self):
        cfg = small_config(ensemble=40)  # two chunks
        res = harness.run_ensemble(cfg, kinetic_only=True)
        grid, vm, nm = cfg.grid, cfg.velocity, cfg.noise
        f0 = vel.lift(vm, cfg.rho0)
        for e_idx, eps in enumerate(cfg.epsilons):
            scfg = kinetic.SolverConfig(eps, cfg.dt_factor, cfg.final_time)
            streams = [harness.make_stream(cfg.base_seed, harness.KIN_NS, e_idx, i)
                       for i in range(40)]
            margins = [kinetic.solve_trajectory(f0, scfg, vm, grid, nm, rng,
                                                cfg.output_times).gronwall_margin[0]
                       for rng in streams]
            assert res.kinetic[eps].gronwall_margin_max == pytest.approx(max(margins), abs=1e-12)
            assert res.kinetic[eps].gronwall_margin_max <= 0.0


def assert_parts_equal(a, b):
    assert (a.attempted, a.failures) == (b.attempted, b.failures)
    assert a.gronwall_margin_max == b.gronwall_margin_max
    for x, y in zip(a.functional_stats + [a.rho_mean, a.norm2, a.norm4],
                    b.functional_stats + [b.rho_mean, b.norm2, b.norm4]):
        assert x.count == y.count
        assert np.array_equal(x.mean, y.mean) and np.array_equal(x.m2, y.m2)
    assert a.samples.keys() == b.samples.keys()
    for name in a.samples:
        assert np.array_equal(a.samples[name], b.samples[name])
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for name, diag in a.diagnostics.items():
        for key in ("values", "gens", "brackets"):
            assert np.array_equal(diag[key], b.diagnostics[name][key])


def dim2_config(ensemble, n=16, output_count=4):
    chain = {"kind": "telegraph", "sigma": 0.8, "rate": 2.0}
    return parse_config({
        "grid": {"dim": 2, "n": n},
        "velocity": {"model": "ring:4"},
        "noise": {"modes": [
            {"label": "cos:1,0", "amplitude": 1.0,
             "chain": {"kind": "telegraph", "sigma": 1.0, "rate": 1.0}},
            {"label": "sin:0,1", "amplitude": 0.7, "chain": chain}]},
        "solver": {"dt_factor": 0.1, "spde_steps": 64},
        "initial": {"mean": 1.0, "modes": [{"label": "cos:1,0", "amplitude": 0.3}]},
        "functionals": [
            {"name": "mass", "kind": "linear", "weight": {"label": "const"}},
            {"name": "quad", "kind": "quadratic", "weight": {"label": "cos:1,0"}}],
        "experiment": {"epsilons": [0.4], "ensemble_size": ensemble, "final_time": 0.048,
                       "output_times": {"count": output_count}, "base_seed": 5,
                       "output_dir": "out"},
    })


class TestKineticJobs:
    """A job steps several chunks as one batch and returns one part per chunk."""

    @pytest.mark.parametrize("cfg", [small_config(ensemble=100, epsilons=(0.4,)),
                                     dim2_config(ensemble=100)], ids=["1d", "2d"])
    def test_each_part_equals_its_chunk_run_alone(self, cfg):
        chunks = harness._chunks(100)  # three chunks and a tail of 4
        parts = harness._chunk_job((cfg.raw, 0, chunks, True))
        assert len(parts) == len(chunks) == 4
        for chunk, part in zip(chunks, parts):
            alone, = harness._chunk_job((cfg.raw, 0, [chunk], True))
            assert_parts_equal(part, alone)

    @pytest.mark.parametrize("cfg", [small_config(ensemble=97, epsilons=(0.4,), n=32),
                                     dim2_config(ensemble=97)], ids=["1d", "2d"])
    def test_a_tail_of_one_member_equals_its_chunk_run_alone(self, cfg):
        # the Parseval norm is one product per member, so a one-row batch rounds
        # its norms like the same row in a batch of 97
        chunks = harness._chunks(97)
        parts = harness._chunk_job((cfg.raw, 0, chunks, False))
        alone, = harness._chunk_job((cfg.raw, 0, chunks[-1:], False))
        assert_parts_equal(parts[-1], alone)

    def test_a_failure_stays_in_its_chunk(self, monkeypatch):
        # at this seed the loudest member is 33, row 1 of the second chunk
        cfg = small_config(ensemble=40, epsilons=(0.1,), seed=104)
        chunks = harness._chunks(40)
        sup = harness.kinetic_batch(cfg, 0, range(40)).sup_norm2
        loud = int(np.argmax(sup))
        assert loud == 33
        # the chunks run alone under the shipped overflow guard
        clean = [harness._chunk_job((cfg.raw, 0, [c], False))[0] for c in chunks]
        # an overflow guard between the loudest member and all the others
        monkeypatch.setattr(kinetic, "OVERFLOW_NORM",
                            np.sqrt(0.5 * (sup[loud] + np.max(np.delete(sup, loud)))))
        parts = harness._chunk_job((cfg.raw, 0, chunks, False))
        assert_parts_equal(parts[0], clean[0])
        assert_parts_equal(parts[1], harness._chunk_job((cfg.raw, 0, [chunks[1]], False))[0])
        (index, message), = parts[1].failures
        assert index == 33
        assert message.startswith("TrajectoryOverflowError: ||f||_L2 exceeded")
        assert parts[1].attempted == 8 and parts[1].rho_mean.count == 7
        assert np.array_equal(parts[1].samples["mass"], np.delete(clean[1].samples["mass"], 1))

    def test_job_sizes(self):
        shipped = {name: harness.job_chunks(parse_config(SHIPPED[name])) for name in
                   ("martingale.json", "standard.json", "scalar_mode.json")}
        assert shipped == {"martingale.json": 7, "standard.json": 8, "scalar_mode.json": 8}
        assert harness.job_chunks(dim2_config(ensemble=1, n=128, output_count=65)) == 1
        # a last chunk of one member shares its job like any other chunk
        assert [[c[0] for c in g] for g in harness._job_groups(97, 8)] == [[0, 32, 64, 96]]
        assert [[c[0] for c in g] for g in harness._job_groups(100, 7)] == [[0, 32, 64, 96]]
        assert [len(g) for g in harness._job_groups(290, 8)] == [8, 2]


def assert_parts_close(a, b, rtol=1e-12):
    """Two limit parts with the same members, statistics equal to rtol of their scale."""
    assert (a.attempted, a.failures) == (b.attempted, b.failures)
    for x, y in zip(a.functional_stats + [a.rho_mean], b.functional_stats + [b.rho_mean]):
        assert x.count == y.count
        for u, v in ((x.mean, y.mean), (x.m2, y.m2)):
            assert np.max(np.abs(u - v)) <= rtol * np.max(np.abs(v))
    assert a.samples.keys() == b.samples.keys()
    for name, v in b.samples.items():
        assert np.max(np.abs(a.samples[name] - v)) <= rtol * np.max(np.abs(v))


class TestLimitJobs:
    """A limit job steps several chunks as one batch and returns one part per chunk.

    The parts agree with the chunks run alone to rounding only: the points-major
    heat and noise products round a member by the batch width (see spde).
    """

    @pytest.mark.parametrize("cfg", [
        small_config(ensemble=100),
        small_config(ensemble=100, n=2 * spde.DENSE_HEAT_MAX_N, spde_steps=16),
        dim2_config(ensemble=100)], ids=["dense", "fft", "2d"])
    def test_each_part_matches_its_chunk_run_alone(self, cfg):
        chunks = harness._chunks(100)  # three chunks and a tail of 4
        assert harness.limit_job_chunks(cfg) >= len(chunks)
        parts = harness._chunk_job((cfg.raw, None, chunks, False))
        assert len(parts) == len(chunks) == 4
        for chunk, part in zip(chunks, parts):
            alone, = harness._chunk_job((cfg.raw, None, [chunk], False))
            assert part.attempted == len(chunk) and part.rho_mean.count == len(chunk)
            assert_parts_close(part, alone)

    def test_constant_mode_members_are_their_solo_runs(self):
        # scalar_mode.json's constant mode takes the closed form, which mixes
        # no members, so each row has the bits of `simulate-spde --trajectory i`
        cfg = parse_config(SHIPPED["scalar_mode.json"])
        members = list(range(37))
        _, series, _ = harness.limit_batch(cfg, members)
        for row, i in enumerate(members):
            assert np.array_equal(series[row], harness.limit_batch(cfg, [i])[1][0])

    def test_a_failure_stays_in_its_chunk(self, monkeypatch):
        # member 33 is row 33 of the job and row 1 of its second chunk
        cfg = small_config(ensemble=70)
        chunks = harness._chunks(70)
        clean = harness._chunk_job((cfg.raw, None, chunks, False))
        TestLimitFailures._poison(monkeypatch, 70, 33, np.nan)
        parts = harness._chunk_job((cfg.raw, None, chunks, False))
        assert [p.failures for p in parts] == [[], [(33, TestLimitFailures.MESSAGE)], []]
        # the same job, so the other chunks' parts are bitwise the clean ones
        assert_parts_close(parts[0], clean[0], rtol=0.0)
        assert_parts_close(parts[2], clean[2], rtol=0.0)
        assert parts[1].attempted == 32 and parts[1].rho_mean.count == 31
        for name, samples in clean[1].samples.items():
            assert np.array_equal(parts[1].samples[name], np.delete(samples, 1))

    def test_job_sizes(self, monkeypatch):
        shipped = {name: harness.limit_job_chunks(parse_config(raw))
                   for name, raw in SHIPPED.items()}
        # 2048 steps of one mode are 2^16 increments per chunk, of two modes 2^17
        assert shipped == {"deterministic.json": 8, "martingale.json": 4,
                           "scalar_mode.json": 4, "standard.json": 2}
        assert harness.limit_job_chunks(small_config(spde_steps=4096)) == 2
        assert harness.limit_job_chunks(small_config(spde_steps=4097)) == 1
        assert harness.limit_job_chunks(small_config(spde_steps=10 ** 5)) == 1
        assert harness.limit_job_chunks(small_config(noise=False)) == harness.MAX_JOB_CHUNKS

        # the job list run_ensemble builds, taken before any job runs
        class Stop(Exception):
            pass

        def record(worker, jobs, workers):
            seen.extend(jobs)
            raise Stop

        monkeypatch.setattr(harness, "_run_chunked", record)
        for ensemble, want in ((100, [[32, 32, 32, 4]]), (290, [[32] * 4, [32] * 4, [32, 2]])):
            seen = []
            with pytest.raises(Stop):
                harness.run_ensemble(small_config(ensemble=ensemble, spde_steps=2048))
            groups = [group for _, key, group, _ in seen if key is None]
            assert [[len(c) for c in g] for g in groups] == want
            assert [i for g in groups for c in g for i in c] == list(range(ensemble))


class TestSobolevDistance:
    grid = TorusGrid(1, 64)

    def test_identical_fields(self):
        rho = np.random.default_rng(2).standard_normal(64)
        assert harness.sobolev_distance(rho, rho, 1.0, self.grid) == 0.0

    def test_eta_zero_is_l2(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        assert harness.sobolev_distance(a, b, 0.0, self.grid) == pytest.approx(
            self.grid.norm(a - b), rel=1e-12)

    def test_single_mode_closed_form(self):
        x = self.grid.coords()[0]
        diff = np.cos(2 * np.pi * x)
        d = harness.sobolev_distance(diff, np.zeros(64), 1.0, self.grid)
        expected = (1 + 4 * np.pi ** 2) ** -0.5 * self.grid.norm(diff)
        assert d == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            harness.sobolev_distance(np.zeros(32), np.zeros(64), 1.0, self.grid)


class TestWeakErrorTable:
    def _result_with_errors(self, errors, stderr=1e-6):
        """Fabricate an EnsembleResult with prescribed kinetic means."""
        cfg = small_config(epsilons=tuple(0.4 / 2 ** i for i in range(len(errors))))
        res = harness.run_ensemble(cfg, kinetic_only=True)
        limit = harness._empty_eps_ensemble(res.kinetic[0.4].times, cfg.functionals,
                                            False, [])
        n_times = len(res.kinetic[0.4].times)
        for st_ in limit.functional_stats:
            st_.update_batch(np.zeros((400, n_times)))
        res.limit = limit
        for eps, err in zip(res.config.epsilons, errors):
            ens = res.kinetic[eps]
            for st_ in ens.functional_stats:
                st_.count = 400
                st_.mean = np.full(n_times, err)
                st_.m2 = np.full(n_times, stderr ** 2 * 400 * 399)
        return res

    def test_duplicated_epsilon_gives_unit_ratio(self):
        res = self._result_with_errors([0.1, 0.1])
        rows, _ = harness.weak_error_table(res)
        assert rows[1].ratio == pytest.approx(1.0)

    def test_consistent_verdict(self):
        res = self._result_with_errors([0.2, 0.1, 0.05])
        _, verdicts = harness.weak_error_table(res)
        assert set(verdicts.values()) == {"consistent with convergence"}

    def test_inconclusive_verdict_with_large_cis(self):
        res = self._result_with_errors([0.2, 0.1, 0.05], stderr=0.2)
        _, verdicts = harness.weak_error_table(res)
        assert set(verdicts.values()) == {"inconclusive, increase ensemble"}

    def test_needs_two_epsilons(self):
        cfg = small_config(epsilons=(0.4,))
        res = harness.run_ensemble(cfg)
        with pytest.raises(ValueError):
            harness.weak_error_table(res)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = {}
for _name in sorted(os.listdir(CONFIG_DIR)):
    with open(os.path.join(CONFIG_DIR, _name)) as _fh:
        SHIPPED[_name] = json.load(_fh)


class TestComparisonTimes:
    def test_mismatched_last_time_rejected(self):
        # kinetic steps of 0.016 and 0.004 against the limit grid of 0.00075:
        # the output time 0.012 is recorded at 0.016 at eps 0.4, the final time
        # 0.048 is hit exactly on every side
        res = harness.run_ensemble(small_config(ensemble=4))
        assert res.kinetic[0.4].times[1] != pytest.approx(res.limit.times[1])
        harness.weak_error_table(res)
        harness.mean_field_distances(res)
        harness.check_comparison_time(res.config)
        raw = json.loads(json.dumps(res.config.raw))
        raw["experiment"]["output_times"] = [0.0, 0.012]
        off = harness.run_ensemble(parse_config(raw))
        assert off.kinetic[0.4].times[-1] != pytest.approx(off.limit.times[-1])
        # the analyses make the config-level check, which converge makes before any run
        for check in (harness.weak_error_table, harness.mean_field_distances):
            with pytest.raises(ConfigError, match="epsilon=0.4"):
                check(off)
        with pytest.raises(ConfigError, match="epsilon=0.4"):
            harness.check_comparison_time(off.config)

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_configs_compare_at_final_time(self, name):
        harness.check_comparison_time(parse_config(SHIPPED[name]))


def test_exact_mass_identity_with_a_constant_mode():
    # with one constant mode, transport and relaxation conserve mass and the
    # multiplier scales it: mass(t) = mass0 exp(eps eta int_0^{t/eps^2} m), the
    # integral taken exactly from member i's own jump record.  This checks the
    # piece lengths, the jump times, the eps scaling and the output snapping.
    cfg = parse_config(SHIPPED["scalar_mode.json"])
    eps, (chain,) = cfg.epsilons[0], cfg.noise.chains
    eta = cfg.noise.modes[0].flat[0]
    assert np.all(cfg.noise.modes == eta)
    members = list(range(harness.CHUNK))
    res = harness.kinetic_batch(cfg, 0, members)
    horizon = kinetic.SolverConfig(eps, cfg.dt_factor, cfg.final_time).n_steps * cfg.dt_factor
    mass0 = cfg.rho0.mean()
    gaps = []
    for i in members:
        path = cfg.noise.simulate_path(
            horizon, harness.make_stream(cfg.base_seed, harness.KIN_NS, 0, i))
        jt, js = path.jump_times[0], path.jump_states[0]
        for k, t in enumerate(res.times):
            micro = t / eps ** 2
            before = jt < micro
            integral = nz.chain_integral(chain, path.initial[0], jt[before], js[before], micro)
            gaps.append(res.rho[i, k].mean() / (mass0 * np.exp(eps * eta * integral)) - 1.0)
    assert len(res.times) == 6 and res.failures == {}
    assert np.max(np.abs(gaps)) <= 1e-12


class TestMomentCheck:
    def test_zero_noise_dissipative(self):
        cfg = small_config(noise=False, ensemble=2)
        res = harness.run_ensemble(cfg, kinetic_only=True)
        f0n2 = None
        from kindiff import velocity as vel
        f0 = vel.lift(cfg.velocity, cfg.rho0)
        f0n2 = vel.inner_xv(cfg.velocity, cfg.grid, f0, f0)
        rep = harness.uniform_moment_check(res, f0n2)
        assert rep.ok
        for eps in res.config.epsilons:
            assert rep.sup_p2[eps] <= f0n2 * (1 + 1e-12)

    def test_threshold_violation_reported(self):
        cfg = small_config(ensemble=4)
        res = harness.run_ensemble(cfg, kinetic_only=True)
        rep = harness.uniform_moment_check(res, 1e-9)
        assert not rep.ok
        assert rep.offender is not None


def _scalar_paths(node, prefix=()):
    """Key paths of every scalar leaf of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix
        return
    for key, child in items:
        yield from _scalar_paths(child, prefix + (key,))


SCALAR_MUTANTS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12),
    st.sampled_from([0, -1, 1, 2, 3, 4.7, 64.0, 1e-300, 1e308, 10 ** 400, "abc", "",
                     "ring:4", "cos:1", "telegraph", "quadratic"]),
)


class TestConfigValidation:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_scalar_mutation_gives_valid_config_or_config_error(self, data):
        name = data.draw(st.sampled_from(sorted(SHIPPED)))
        raw = copy.deepcopy(SHIPPED[name])
        path = data.draw(st.sampled_from(list(_scalar_paths(raw))))
        value = data.draw(SCALAR_MUTANTS)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            parse_config(raw)
        except ConfigError:
            pass

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "dt_factor", 0),
        ("experiment", "ensemble_size", "abc"),
        ("experiment", "ensemble_size", 10 ** 12),
        ("grid", "n", 4.7),
        ("experiment", "epsilons", [1e-5]),
        ("solver", "spde_steps", 10 ** 12),
        # a weight whose Fourier sum is finite but overflows at the amplitude
        ("functionals", 0, {"name": "first_mode", "kind": "linear",
                            "weight": {"fourier": [[1, 1e308, 1e308]], "amplitude": 10}}),
        # finite modes whose trace F = sum_j c_j eta_j^2 overflows
        ("noise", "modes", [{"label": "cos:1", "amplitude": 1e200,
                             "chain": {"kind": "telegraph"}}]),
    ])
    def test_malformed_scalars_raise_config_error(self, section, key, value):
        raw = copy.deepcopy(SHIPPED["standard.json"])
        raw[section][key] = value
        with pytest.raises(ConfigError):
            parse_config(raw)

    def base(self):
        return json.loads(json.dumps(small_config().raw))

    def test_unknown_key_rejected(self):
        raw = self.base()
        raw["experiment"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(raw)

    def test_unknown_section_rejected(self):
        raw = self.base()
        raw["plotting"] = {}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_final_time_off_the_step_grid(self):
        # the whole-step rule and its message belong to kinetic.SolverConfig
        raw = self.base()
        raw["experiment"]["epsilons"] = [0.2]
        raw["experiment"]["final_time"] = 0.05
        with pytest.raises(ValueError) as solver:
            kinetic.SolverConfig(0.2, 0.1, 0.05)
        with pytest.raises(ConfigError) as parsed:
            parse_config(raw)
        assert str(parsed.value) == f"experiment.epsilons: {solver.value}"

    def test_epsilons_must_decrease(self):
        raw = self.base()
        raw["experiment"]["epsilons"] = [0.1, 0.2]
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(raw)

    def test_grid_power_of_two(self):
        raw = self.base()
        raw["grid"]["n"] = 48
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(raw)

    def test_output_times_in_range(self):
        raw = self.base()
        raw["experiment"]["output_times"] = [0.0, 2.0]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_bad_chain_rates(self):
        raw = self.base()
        raw["noise"]["modes"][0]["chain"] = {"states": [-1.0, 1.0],
                                             "rates": [[-1.0, 1.0], [0.5, -1.0]]}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_mode_label_or_fourier_exclusive(self):
        raw = self.base()
        raw["noise"]["modes"][0]["fourier"] = [[1, 1.0, 0.0]]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_velocity_dimension_checked(self):
        raw = self.base()
        raw["velocity"] = {"velocities": [[1.0, 0.0], [-1.0, 0.0]],
                           "weights": [0.5, 0.5]}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_custom_chain_accepted(self):
        raw = self.base()
        raw["noise"]["modes"][0]["chain"] = {
            "states": [1.0, 0.0, -1.0],
            "rates": [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]],
        }
        cfg = parse_config(raw)
        nm = cfg.noise
        assert nm.chains[0].n_states == 3
        assert nm.coefficients[0] >= 0

    def test_accessors_return_the_built_models(self):
        cfg = small_config()
        assert cfg.build_grid() is cfg.grid
        assert cfg.build_velocity() is cfg.velocity
        assert cfg.build_noise(cfg.grid) is cfg.noise
        assert cfg.build_functionals(cfg.grid) is cfg.functionals
        assert cfg.initial_density(cfg.grid) is cfg.rho0
        assert [t.name for t in cfg.functionals] == ["mass", "quad"]
        assert cfg.rho0 == pytest.approx(1.0 + 0.5 * np.cos(2 * np.pi * cfg.grid.coords()[0]))
        assert not cfg.rho0.flags.writeable

    def test_chain_key_only_in_noise_modes(self):
        raw = self.base()
        raw["initial"]["modes"][0]["chain"] = {"kind": "telegraph"}
        with pytest.raises(ConfigError, match=r"initial.modes\[0\]: unknown keys \['chain'\]"):
            parse_config(raw)

    def test_fourier_overflow_is_config_error(self):
        raw = self.base()
        raw["functionals"][0]["weight"] = {"fourier": [[1, 10 ** 400, 0.0]]}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_custom_velocity_table_accepted(self):
        raw = self.base()
        raw["velocity"] = {"velocities": [[-2.0], [1.0], [1.0]],
                           "weights": [1 / 3, 1 / 3, 1 / 3]}
        cfg = parse_config(raw)
        vm = cfg.velocity
        assert vm.n_velocities == 3


class TestChainTables:
    """The generator's chain tables are built once per noise model, and only for diagnostics."""

    @staticmethod
    def _count(monkeypatch):
        calls = Counter()
        for name in ("solve_poisson_pair", "resolvent_solve"):
            def counted(*args, _fn=getattr(nz, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(nz, name, counted)
        return calls

    def test_built_once_per_noise_model(self, monkeypatch):
        calls = self._count(monkeypatch)
        cfg = dim2_config(ensemble=4)  # two modes, two functionals
        once = {"solve_poisson_pair": 2, "resolvent_solve": 4}
        harness.run_ensemble(cfg, kinetic_only=True)
        assert calls == {}
        for _ in range(2):  # two jobs' worth of bundles on one noise model
            harness._job(cfg, 0, [[0, 1], [2, 3]], True)
        assert calls == once
        calls.clear()
        harness._chunk_job((cfg.raw, 0, [[0, 1]], True))  # a job parses its own model
        assert calls == once

    def test_an_over_budget_mode_pair_runs_without_diagnostics(self):
        n = 70  # two 70-state chains: a product chain over noise.MAX_PAIR_STATES
        chain = {"states": np.linspace(-1.0, 1.0, n).tolist(),
                 "rates": (np.roll(np.eye(n), 1, axis=1) - np.eye(n)).tolist()}
        raw = copy.deepcopy(small_config().raw)
        raw["noise"]["modes"] = [{"label": label, "amplitude": 1.0, "chain": chain}
                                 for label in ("cos:1", "sin:1")]
        cfg = parse_config(raw)
        res = harness.run_ensemble(cfg, workers=1)
        assert res.failure_counts == {0.4: 0, 0.2: 0, "limit": 0} and res.limit.attempted == 8
        with pytest.raises(ValueError, match=r"mode pair \(0, 1\)"):
            harness._job(cfg, 0, [[0]], True)


def shipped_with_amplitude(name, amplitude):
    raw = copy.deepcopy(SHIPPED[name])
    for mode in raw["noise"]["modes"]:
        mode["amplitude"] = amplitude
    return parse_config(raw)


class TestLimitFailures:
    """A limit member fails when one of its records has an L2 norm above the
    overflow guard or one that is not finite; it is excluded from the statistics."""

    MESSAGE = (f"LimitOverflowError: ||rho||_L2 exceeded {kinetic.OVERFLOW_NORM:g} "
               "or is not finite")

    @staticmethod
    def _poison(monkeypatch, batch, row, value):
        """Write value into a record of the given row of every limit batch of that size."""
        solve = spde.solve_spde_batch

        def poisoned(*args):
            series = solve(*args)
            if series.shape[0] == batch:
                series[row, -1, 0] = value
            return series

        monkeypatch.setattr(spde, "solve_spde_batch", poisoned)

    def test_an_overflowing_chunk_fails_every_member(self):
        cfg = shipped_with_amplitude("standard.json", 300.0)
        acc, = harness._job(cfg, None, [list(range(8))], False)
        assert acc.failures == [(i, self.MESSAGE) for i in range(8)]
        assert acc.attempted == 8 and acc.rho_mean.count == 0
        assert all(st.count == 0 for st in acc.functional_stats)

    def test_a_huge_finite_chunk_fails_every_member(self):
        # at amplitude 100 every record is finite, up to about 1e148, and the
        # squares of the functionals would overflow the variance to inf
        cfg = shipped_with_amplitude("standard.json", 100.0)
        _, series, failures = harness.limit_batch(cfg, list(range(8)))
        assert np.all(np.isfinite(series)) and np.max(np.abs(series)) > 1e100
        assert sorted(failures) == list(range(8))
        acc, = harness._job(cfg, None, [list(range(8))], False)
        assert acc.failures == [(i, self.MESSAGE) for i in range(8)]
        assert all(st.count == 0 for st in acc.functional_stats + [acc.rho_mean])
        clean, = harness._job(parse_config(SHIPPED["standard.json"]), None,
                              [list(range(8))], False)
        for st in clean.merge(acc).functional_stats:
            assert st.count == 8 and np.all(np.isfinite(st.m2))

    def test_only_the_member_that_is_not_finite_is_dropped(self, monkeypatch):
        cfg = small_config(ensemble=8)
        clean, = harness._job(cfg, None, [list(range(8))], False)
        self._poison(monkeypatch, 8, 3, np.nan)
        acc, = harness._job(cfg, None, [list(range(8))], False)
        assert acc.failures == [(3, self.MESSAGE)]
        assert acc.rho_mean.count == 7
        assert np.all(np.isfinite(acc.rho_mean.mean))
        for name, samples in clean.samples.items():
            assert np.array_equal(acc.samples[name], np.delete(samples, 3))

    def test_too_many_limit_failures_abort_the_run(self, monkeypatch):
        # both limit chunks of 40 members run as one job, and member 37 is its row 37
        self._poison(monkeypatch, 40, 37, np.inf)
        cfg = small_config(ensemble=40)
        assert harness.limit_job_chunks(cfg) > 1
        with pytest.raises(harness.TooManyFailuresError,
                           match="failures in the limit ensemble: 1/40"):
            harness.run_ensemble(cfg, workers=1)

    @staticmethod
    def _stepped_failures(args):
        """Batch rows that fail the overflow rule when the limit equation
        (1-d) is stepped literally: the complex FFT heat step, then the noise."""
        rho0, final_time, n_steps, coeffs, increments, out_steps = args
        grid = coeffs.grid
        dt = final_time / n_steps
        mult = np.exp(coeffs.heat_exponent * dt)
        factors = coeffs.root_factors.reshape(coeffs.n_modes, -1)
        rho = np.tile(rho0, (increments.shape[0], 1))
        ok = np.ones(len(rho), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                if k in out_steps:
                    norm2 = np.sum(rho * rho, axis=1) * grid.cell_volume
                    ok &= norm2 <= kinetic.OVERFLOW_NORM ** 2
                if k < n_steps:
                    rho = np.fft.ifft(np.fft.fft(rho, axis=1) * mult, axis=1).real
                    rho = rho * np.exp(increments[:, k] @ factors)
        return np.flatnonzero(~ok).tolist()

    # (amplitude, failed members of 256, members with an infinite record)
    @pytest.mark.parametrize("amplitude, n_failed, n_inf", [
        (45.0, 44, 0), (100.0, 114, 0), (300.0, 169, 0), (1000.0, 186, 33)])
    def test_constant_mode_fails_the_stepped_members(self, monkeypatch, amplitude, n_failed,
                                                     n_inf):
        # scalar_mode.json's constant mode takes the closed form; at 20 steps
        # it must fail the members that stepping the equation fails, with no
        # RuntimeWarning when the exponential overflows
        raw = copy.deepcopy(SHIPPED["scalar_mode.json"])
        raw["noise"]["modes"][0]["amplitude"] = amplitude
        raw["solver"]["spde_steps"] = 20
        cfg = parse_config(raw)
        calls = []
        solve = spde.solve_spde_batch
        monkeypatch.setattr(spde, "solve_spde_batch",
                            lambda *args: (calls.append(args), solve(*args))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, series, failures = harness.limit_batch(cfg, list(range(256)))
        assert sorted(failures) == self._stepped_failures(calls[0])
        assert len(failures) == n_failed
        assert np.count_nonzero(np.isinf(series).any(axis=(1, 2))) == n_inf

    def test_limit_failures_reach_the_manifest(self, tmp_path):
        # at amplitude 45 and this seed one limit member of 100 overflows, within
        # MAX_FAILURE_FRACTION; the energy bound keeps every kinetic member far
        # below the guard
        raw = copy.deepcopy(small_config(ensemble=100, seed=1).raw)
        raw["noise"]["modes"][0]["amplitude"] = 45.0
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["converge", "--config", str(path), "--out", str(out)]) in (0, 3)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["failure_counts"] == {"0.40000000000000002": 0,
                                              "0.20000000000000001": 0, "limit": 1}
