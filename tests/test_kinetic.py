import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindiff import kinetic
from kindiff import noise as nz
from kindiff import velocity as vel
from kindiff.config import parse_config
from kindiff.grid import TorusGrid
from kindiff.harness import kinetic_batch, make_stream

import oracles

GRID = TorusGrid(1, 64)
VM = vel.two_speed()
X = GRID.coords()[0]
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _no_noise():
    return nz.NoiseModel(GRID, (), np.zeros((0, 64)))


def _const_noise(sigma=1.0, rate=1.0):
    return nz.NoiseModel(GRID, (nz.telegraph(sigma, rate),),
                         nz.make_mode(GRID, "const")[None])


def smooth_field(rng, amplitude=1.0):
    white = rng.standard_normal((64, 2))
    filt = (1.0 + GRID.freq_sq) ** (-1.5)
    filt[np.abs(GRID.freqs[0]) == 32] = 0.0  # band-limit below Nyquist
    f = GRID.ifft(GRID.fft(white) * filt[..., None])
    return amplitude * f / np.max(np.abs(f))


class TestTransport:
    def test_zero_time_identity(self):
        f = np.random.default_rng(0).standard_normal((64, 2))
        assert oracles.step_transport(f, 0.0, 0.1, VM, GRID) == pytest.approx(f)

    def test_cosine_quarter_shift(self):
        # with v = +1 and tau/eps = 1/4: cos(2 pi x) -> cos(2 pi (x - 1/4))
        f = np.zeros((64, 2))
        f[:, 1] = np.cos(2 * np.pi * X)
        out = oracles.step_transport(f, 0.25, 1.0, VM, GRID)
        assert np.max(np.abs(out[:, 1] - np.cos(2 * np.pi * (X - 0.25)))) < 1e-12

    def test_grid_shift_equals_roll(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((64, 2))
        out = oracles.step_transport(f, 1.0 / 64, 1.0, VM, GRID)
        # speed -1 shifts left, speed +1 shifts right by one cell
        assert out[:, 0] == pytest.approx(np.roll(f[:, 0], -1), abs=1e-12)
        assert out[:, 1] == pytest.approx(np.roll(f[:, 1], 1), abs=1e-12)

    def test_unitarity_on_smooth_fields(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = smooth_field(rng)
            out = oracles.step_transport(f, rng.uniform(0, 0.3), 0.2, VM, GRID)
            assert oracles.norm_xv(VM, GRID, out) == pytest.approx(
                oracles.norm_xv(VM, GRID, f), abs=1e-12)


class TestCollision:
    def test_velocity_independent_fixed_point(self):
        f = vel.lift(VM, 1.0 + np.sin(2 * np.pi * X))
        out = oracles.step_collision(f, 0.7, 0.3, VM)
        assert out == pytest.approx(f)

    def test_projection_limit(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((64, 2))
        rho = vel.average(VM, f)
        out = oracles.step_collision(f, 1e4, 0.1, VM)
        assert out == pytest.approx(vel.lift(VM, rho), abs=1e-13)

    def test_explicit_half_life(self):
        # f(x, +-1) = 1 +- h(x) and tau/eps^2 = ln 2 halves the odd part
        h = 0.3 * np.cos(2 * np.pi * X)
        f = np.stack([1.0 - h, 1.0 + h], axis=1)
        out = oracles.step_collision(f, np.log(2.0), 1.0, VM)
        expected = np.stack([1.0 - h / 2, 1.0 + h / 2], axis=1)
        assert out == pytest.approx(expected, abs=1e-14)

    def test_dissipativity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((64, 2))
        out = oracles.step_collision(f, 0.05, 0.2, VM)
        assert oracles.norm_xv(VM, GRID, out) < oracles.norm_xv(VM, GRID, f)


class TestNoiseMultiplication:
    def test_zero_field_identity(self):
        f = np.random.default_rng(5).standard_normal((64, 2))
        out = oracles.step_noise_multiplication(f, 0.3, 0.1, np.zeros(64))
        assert out == pytest.approx(f)

    def test_scalar_exponential(self):
        f = np.random.default_rng(6).standard_normal((64, 2))
        out = oracles.step_noise_multiplication(f, np.log(3.0), 1.0, np.ones(64))
        assert out == pytest.approx(3.0 * f)

    def test_sign_monotone(self):
        rng = np.random.default_rng(7)
        f = np.abs(rng.standard_normal((64, 2))) + 0.1
        m = np.sin(2 * np.pi * X)
        out = oracles.step_noise_multiplication(f, 0.2, 0.5, m)
        ratio = np.log(out / f)
        mask = np.abs(m) > 1e-12
        assert np.all(np.sign(ratio[mask]) == np.sign(m)[mask, None])


class TestAdvance:
    def test_global_equilibrium_is_stationary(self):
        nm = _no_noise()
        path = nm.simulate_path(1.0, make_stream(1, 0, 0, 0))
        f = vel.lift(VM, np.full(GRID.shape, 2.5))
        out = oracles.advance(f, 0.004, 0.2, VM, GRID, nm, path)
        assert out == pytest.approx(f, abs=1e-14)

    def test_strang_self_convergence_order(self):
        # m = 0, eps = 1: Richardson ratios against a dt/8 reference
        nm = _no_noise()
        path = nm.simulate_path(2.0, make_stream(1, 0, 0, 0))
        rho0 = 1.0 + 0.5 * np.cos(2 * np.pi * X)
        f0 = np.stack([rho0 * 0.8, rho0 * 1.2], axis=1)
        T = 1.0

        def run(n_steps):
            f = f0.copy()
            dt = T / n_steps
            for k in range(n_steps):
                f = oracles.advance(f, dt, 1.0, VM, GRID, nm, path, t_start=k * dt)
            return f

        ref = run(64)
        errs = [oracles.norm_xv(VM, GRID, run(n) - ref) for n in (8, 16, 32)]
        rate1 = np.log2(errs[0] / errs[1])
        rate2 = np.log2(errs[1] / errs[2])
        assert rate1 > 1.8 and rate2 > 1.8

    def test_energy_inequality_per_step(self):
        nm = _const_noise()
        path = nm.simulate_path(0.5, make_stream(2, 0, 0, 0))
        rng = np.random.default_rng(8)
        f = smooth_field(rng) + 2.0
        eps, dt = 0.2, 0.004
        out = oracles.advance(f, dt, eps, VM, GRID, nm, path)
        lhs = vel.inner_xv(VM, GRID, out, out)
        rhs = np.exp(2 * nm.bound * dt / eps) * vel.inner_xv(VM, GRID, f, f)
        assert lhs <= rhs * (1 + 1e-12)

    def test_path_too_short(self):
        nm = _const_noise()
        path = nm.simulate_path(0.05, make_stream(3, 0, 0, 0))
        f = vel.lift(VM, np.ones(64))
        with pytest.raises(ValueError):
            oracles.advance(f, 1.0, 0.1, VM, GRID, nm, path, t_start=0.0)


class TestSolveTrajectory:
    def test_zero_noise_heat_limit(self):
        nm = _no_noise()
        rho0 = 1.0 + 0.5 * np.cos(2 * np.pi * X)
        f0 = vel.lift(VM, rho0)
        T = 0.1
        cfg = kinetic.SolverConfig(epsilon=0.05, dt_factor=0.1, final_time=T)
        res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                       make_stream(4, 0, 0, 0), [T])
        exact = 1.0 + 0.5 * np.exp(-4 * np.pi ** 2 * T) * np.cos(2 * np.pi * X)
        assert GRID.norm(res.rho[0, -1] - exact) < 2e-2

    def test_zero_initial_data(self):
        nm = _const_noise()
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=0.048)
        res = kinetic.solve_trajectory(np.zeros((64, 2)), cfg, VM, GRID, nm,
                                       make_stream(5, 0, 0, 0), [0.0, 0.048])
        assert not res.rho.any()

    def test_mass_conservation_zero_noise(self):
        nm = _no_noise()
        rho0 = 1.0 + 0.5 * np.cos(2 * np.pi * X) + 0.2 * np.sin(4 * np.pi * X)
        f0 = vel.lift(VM, rho0)
        cfg = kinetic.SolverConfig(epsilon=0.1, dt_factor=0.1, final_time=0.1)
        res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                       make_stream(6, 0, 0, 0), [0.0, 0.05, 0.1])
        masses = res.rho[0].mean(axis=1)
        assert np.max(np.abs(masses - masses[0])) < 1e-10

    def test_positivity_smooth_data(self):
        nm = _const_noise()
        rho0 = 1.0 + 0.9 * np.cos(2 * np.pi * X)
        f0 = vel.lift(VM, rho0)
        cfg = kinetic.SolverConfig(epsilon=0.1, dt_factor=0.1, final_time=0.2)
        res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                       make_stream(7, 0, 0, 0), [0.1, 0.2])
        assert np.min(res.rho) > -1e-12

    def test_gronwall_margin_negative(self):
        nm = _const_noise()
        f0 = vel.lift(VM, 1.0 + 0.5 * np.cos(2 * np.pi * X))
        cfg = kinetic.SolverConfig(epsilon=0.1, dt_factor=0.1, final_time=0.3)
        res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                       make_stream(8, 0, 0, 0), [0.3])
        assert res.gronwall_margin[0] <= 0.0

    def test_determinism(self):
        nm = _const_noise()
        f0 = vel.lift(VM, 1.0 + 0.5 * np.cos(2 * np.pi * X))
        cfg = kinetic.SolverConfig(epsilon=0.1, dt_factor=0.1, final_time=0.1)
        r1 = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                      make_stream(9, 0, 0, 0), [0.1])
        r2 = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                      make_stream(9, 0, 0, 0), [0.1])
        assert np.array_equal(r1.rho, r2.rho)

    def test_overflow_guard(self):
        # a hand-built path frozen at a huge state forces the guard
        grid = TorusGrid(1, 16)
        big = 60.0
        chain = nz.ChainSpec(np.array([-big, big]),
                             np.array([[-1e-9, 1e-9], [1e-9, -1e-9]]))
        nm = nz.NoiseModel(grid, (chain,), np.ones((1, 16)))
        path = nz.NoisePath(horizon=1000.0, initial=np.array([1]),
                            jump_times=(np.zeros(0),), jump_states=(np.zeros(0, int),))
        f0 = vel.lift(VM, np.ones(16))
        cfg = kinetic.SolverConfig(epsilon=0.05, dt_factor=0.1, final_time=1.0)
        with pytest.raises(kinetic.TrajectoryOverflowError):
            kinetic.solve_trajectory(f0, cfg, VM, grid, nm,
                                     make_stream(10, 0, 0, 0), [1.0], path=path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            kinetic.SolverConfig(epsilon=0.0, dt_factor=0.1, final_time=1.0)
        with pytest.raises(ValueError):
            kinetic.SolverConfig(epsilon=0.5, dt_factor=1.5, final_time=1.0)

    def test_final_time_must_be_whole_steps(self):
        # 0.05 is 12.5 steps of 0.004: refused, not rounded up to 13 steps
        with pytest.raises(ValueError, match="nearest valid values are 0.048 and 0.052"):
            kinetic.SolverConfig(0.2, 0.1, 0.05)
        with pytest.raises(ValueError, match="overflows at eps=1e-200"):
            kinetic.SolverConfig(1e-200, 0.1, 1.0)
        cfg = kinetic.SolverConfig(0.2, 0.1, 0.052)
        assert cfg.n_steps == 13 and cfg.dt == 0.1 * 0.2 * 0.2


def _scripted_path(noise, horizon, jump_times):
    """Chain 0 flips at the given microscopic times; other chains stay put."""
    n = noise.n_modes
    times = (np.asarray(jump_times, dtype=float),) + (np.zeros(0),) * (n - 1)
    states = (np.arange(1, len(jump_times) + 1) % 2,) + (np.zeros(0, int),) * (n - 1)
    return nz.NoisePath(horizon, np.zeros(n, dtype=int), times, states)


def _two_chains(grid):
    modes = [nz.make_mode(grid, "cos:1"), nz.make_mode(grid, "sin:2")] if grid.dim == 1 else \
        [nz.make_mode(grid, "cos:1,0"), nz.make_mode(grid, "sin:0,1", 0.7)]
    return nz.NoiseModel(grid, (nz.telegraph(1.0, 3.0), nz.telegraph(0.8, 2.0)), np.stack(modes))


def _const_chains(grid, n_chains):
    """Telegraph chains at different rates on modes constant in x."""
    chains = (nz.telegraph(1.0, 3.0), nz.telegraph(0.8, 2.0))[:n_chains]
    modes = [nz.make_mode(grid, "const"), nz.make_mode(grid, "const", 0.7)][:n_chains]
    return nz.NoiseModel(grid, chains, np.stack(modes))


def _plan_always(monkeypatch):
    """Step noise constant in x with planned propagators whatever V and the jump rate."""
    monkeypatch.setattr(kinetic, "PLAN_MAX_VELOCITIES", np.inf)
    monkeypatch.setattr(kinetic, "PLAN_MAX_JUMPS", np.inf)


def _tie_path(horizon):
    """Two telegraph chains that both flip at 0.35; chain 0 flips back on the
    step edge 0.4, the second jump of that step."""
    times = (np.array([0.35, 4 * 0.1]), np.array([0.35]))
    return nz.NoisePath(horizon, np.zeros(2, dtype=int), times, (np.array([1, 0]), np.array([1])))


@st.composite
def _scripted_pair(draw):
    """A 2-chain telegraph path on [0, 1.2]: jumps on the step grid k * 0.1 and
    off it, ties between the chains, and jumps past an 8-step run's 0.8."""
    on_grid = st.integers(1, 11).map(lambda k: k * 0.1)
    off_grid = st.floats(1e-3, 1.19)
    first = sorted(set(draw(st.lists(st.one_of(on_grid, off_grid), max_size=6))))
    shared = [st.sampled_from(first)] if first else []
    second = sorted(set(draw(st.lists(st.one_of(on_grid, off_grid, *shared), max_size=6))))
    times = (np.array(first, dtype=float), np.array(second, dtype=float))
    return nz.NoisePath(1.2, np.zeros(2, dtype=int), times,
                        tuple(np.arange(1, t.size + 1) % 2 for t in times))


def _check_rows(f0, cfg, vm, grid, nm, paths):
    """Each row of the batch is bitwise its solo run and matches `advance` to 1e-12;
    the state recorded at step k is the path's state at k beta, after a jump there."""
    dt, n_steps, eps = cfg.dt, cfg.n_steps, cfg.epsilon
    times = [k * dt for k in range(n_steps + 1)]
    res = kinetic.solve_batch(f0, cfg, vm, grid, nm, None, times, paths=paths)
    assert res.failures == {}
    edges = np.arange(n_steps + 1) * cfg.dt_factor
    for b, path in enumerate(paths):
        rows = np.searchsorted(path.seg_times[1:-1], edges, side="right")
        assert np.array_equal(res.state_indices[b], path.seg_states[rows])
        f = f0[b]
        for k in range(n_steps):
            f = oracles.advance(f, dt, eps, vm, grid, nm, path, t_start=k * dt)
            assert np.max(np.abs(res.rho[b, k + 1] - vel.average(vm, f))) <= 1e-12
        assert res.norm2[b, -1] == pytest.approx(vel.inner_xv(vm, grid, f, f), rel=1e-12)
        solo = kinetic.solve_trajectory(f0[b], cfg, vm, grid, nm, None, times, path=path)
        assert np.array_equal(solo.rho[0], res.rho[b])
        assert np.array_equal(solo.norm2[0], res.norm2[b])
        assert np.array_equal(solo.state_indices[0], res.state_indices[b])


class TestBatchStepper:
    """The batched spectral stepper against the literal sub-flow composition."""

    # beta = 0.1: no jump in step 0, one in step 1, three in step 2, one on the
    # right edge of step 4 and one more in step 6
    JUMPS = [0.13, 0.21, 0.24, 0.27, 0.5, 0.61]

    def _compare_with_advance(self, grid, vm, nm):
        eps = 0.2
        cfg = kinetic.SolverConfig(epsilon=eps, dt_factor=0.1, final_time=8 * 0.1 * eps ** 2)
        horizon = cfg.n_steps * 0.1
        paths = [
            _scripted_path(nm, horizon, self.JUMPS),
            # past the run: the jump on its last edge stays, the later ones go
            _scripted_path(nm, 2.0, [0.05, 0.3, 0.8, 1.2, 1.9]),
            _scripted_path(nm, horizon, []),
        ]
        if nm.n_modes == 2:
            paths.append(_tie_path(horizon))
        paths += [nm.simulate_path(horizon, make_stream(11, 0, 0, i)) for i in range(3)]
        rng = np.random.default_rng(12)
        # white noise, so the Nyquist bins carry content
        f0 = rng.standard_normal((len(paths),) + grid.shape + (vm.n_velocities,)) + 2.0
        _check_rows(f0, cfg, vm, grid, nm, paths)

    def test_matches_advance_dim1(self):
        nm = nz.NoiseModel(GRID, (nz.telegraph(1.0, 3.0),), nz.make_mode(GRID, "cos:1")[None])
        self._compare_with_advance(GRID, VM, nm)

    def test_matches_advance_dim1_two_chains(self):
        self._compare_with_advance(GRID, VM, _two_chains(GRID))

    def test_matches_advance_dim2(self):
        grid = TorusGrid(2, 16)
        self._compare_with_advance(grid, vel.ring(4), _two_chains(grid))

    # noise constant in x: the multiplier is one number per member, applied
    # to the half-spectrum

    def test_matches_advance_dim1_const(self):
        self._compare_with_advance(GRID, VM, _const_chains(GRID, 1))

    def test_matches_advance_dim1_two_const_chains(self):
        self._compare_with_advance(GRID, VM, _const_chains(GRID, 2))

    def test_matches_advance_dim2_const(self):
        grid = TorusGrid(2, 16)
        self._compare_with_advance(grid, vel.ring(4), _const_chains(grid, 2))

    # the same paths stepped with planned propagators, which the default
    # selection takes only for two velocities and rare jumps

    @pytest.mark.parametrize("dim,n_chains", [(1, 1), (1, 2), (2, 2)])
    def test_matches_advance_planned(self, monkeypatch, dim, n_chains):
        _plan_always(monkeypatch)
        grid, vm = (GRID, VM) if dim == 1 else (TorusGrid(2, 16), vel.ring(4))
        self._compare_with_advance(grid, vm, _const_chains(grid, n_chains))

    def test_many_velocities_step_by_pieces(self, monkeypatch):
        # ring:32 with noise constant in x: a planned propagator would be
        # 32 x 32 per frequency, so the pieces step it, scaling the spectrum
        # of every velocity by the member's number
        grid = TorusGrid(2, 8)
        nm = _const_chains(grid, 2)
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=8 * 0.1 * 0.2 ** 2)
        assert not kinetic.KineticStepper(vel.ring(32), grid, nm, cfg).planned

        def no_plan(*args):
            raise AssertionError("planned a many-velocity model")
        monkeypatch.setattr(kinetic.KineticStepper, "_plan_steps", no_plan)
        self._compare_with_advance(grid, vel.ring(32), nm)

    def test_zero_length_pieces_are_dropped(self, monkeypatch):
        calls = []
        for name in ("piece", "_jump_step"):
            method = getattr(kinetic.KineticStepper, name)
            monkeypatch.setattr(kinetic.KineticStepper, name,
                                lambda self, *args, name=name, method=method:
                                calls.append(name) or method(self, *args))

        def counts(run):
            calls.clear()
            run()
            return calls.count("piece"), calls.count("_jump_step")
        self._check_piece_counts(_two_chains(GRID), counts)

    def test_zero_length_pieces_are_dropped_const(self, monkeypatch):
        # the plan takes one phase per piece it composes, in one array call
        # per round, and one propagator per (member, step) with a jump; each
        # step without a jump is one full piece
        _plan_always(monkeypatch)
        seen = {"pieces": 0, "pairs": 0}
        phase, plan = kinetic.KineticStepper.phase, kinetic.KineticStepper._plan

        def counted_phase(self, delta):
            seen["pieces"] += np.size(delta) if np.ndim(delta) else 0
            return phase(self, delta)

        def counted_plan(self, first, *args):
            seen["pairs"] += first.size
            return plan(self, first, *args)
        monkeypatch.setattr(kinetic.KineticStepper, "phase", counted_phase)
        monkeypatch.setattr(kinetic.KineticStepper, "_plan", counted_plan)

        def counts(run):
            seen.update(pieces=0, pairs=0)
            n_steps = run().n_steps
            return n_steps - seen["pairs"] + seen["pieces"], seen["pairs"]
        self._check_piece_counts(_const_chains(GRID, 2), counts)

    def _check_piece_counts(self, nm, counts):
        # 8 steps, one piece each, plus one per jump inside a step: JUMPS adds
        # 5 (its jump on step 4's right edge leaves no tail), the tie at 0.35
        # adds 1 and the jump on the edge 0.4 none.  Only the steps with a
        # jump (1, 2, 4 and 6 of JUMPS, 3 of the tie) take more than one piece
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=8 * 0.1 * 0.2 ** 2)
        f0 = vel.lift(VM, np.ones(64))
        for path, pieces, jump_steps in ((_scripted_path(nm, 0.8, self.JUMPS), 13, 4),
                                         (_tie_path(0.8), 9, 1),
                                         (_scripted_path(nm, 0.8, []), 8, 0)):
            def run():
                kinetic.solve_trajectory(f0, cfg, VM, GRID, nm, None, [cfg.final_time],
                                         path=path)
                return cfg
            assert counts(run) == (pieces, jump_steps)

    @pytest.mark.parametrize("label", ["const", "cos:1"])
    def test_fft_pairs_only_where_the_noise_varies_in_x(self, monkeypatch, label):
        # set-up transforms f0 once and each of the two output steps once; a
        # cos:1 mode adds an irfft -> rfft pair to each of the 13 pieces
        nm = nz.NoiseModel(GRID, (nz.telegraph(1.0, 3.0),), nz.make_mode(GRID, label)[None])
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=8 * 0.1 * 0.2 ** 2)
        calls = {"to_fields": 0, "to_spectrum": 0}
        for name in calls:
            method = getattr(kinetic.KineticStepper, name)
            monkeypatch.setattr(kinetic.KineticStepper, name,
                                lambda self, x, name=name, method=method:
                                calls.__setitem__(name, calls[name] + 1) or method(self, x))
        kinetic.solve_trajectory(vel.lift(VM, np.ones(64)), cfg, VM, GRID, nm, None,
                                 [0.0, cfg.final_time], path=_scripted_path(nm, 0.8, self.JUMPS))
        pairs = 0 if label == "const" else 13
        assert calls == {"to_fields": 2 + pairs, "to_spectrum": 1 + pairs}

    @given(st.lists(_scripted_pair(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_solo_runs_on_scripted_paths(self, paths):
        grid = TorusGrid(1, 16)
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=8 * 0.1 * 0.2 ** 2)
        f0 = np.random.default_rng(15).standard_normal((len(paths), 16, 2)) + 2.0
        _check_rows(f0, cfg, VM, grid, _two_chains(grid), paths)

    def test_recorded_times_are_the_step_grid(self):
        cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=0.08)
        res = kinetic.solve_trajectory(vel.lift(VM, np.ones(64)), cfg, VM, GRID, _no_noise(),
                                       make_stream(13, 0, 0, 0), [0.0, 0.005, 0.01, 0.08])
        assert cfg.n_steps == 20 and cfg.dt == pytest.approx(0.004, rel=1e-12)
        assert np.array_equal(res.times, np.array([0, 1, 2, 20]) * cfg.dt)

    def test_failure_is_isolated(self):
        # member 1 sits in the huge state and overflows; the others decay
        grid = TorusGrid(1, 16)
        big = 60.0
        chain = nz.ChainSpec(np.array([-big, big]),
                             np.array([[-1e-9, 1e-9], [1e-9, -1e-9]]))
        nm = nz.NoiseModel(grid, (chain,), np.ones((1, 16)))

        def frozen(state):
            return nz.NoisePath(horizon=1000.0, initial=np.array([state]),
                                jump_times=(np.zeros(0),), jump_states=(np.zeros(0, int),))

        paths = [frozen(0), frozen(1), frozen(0), frozen(0)]
        f0 = vel.lift(VM, 1.0 + 0.5 * np.cos(2 * np.pi * grid.coords()[0]))
        cfg = kinetic.SolverConfig(epsilon=0.05, dt_factor=0.1, final_time=1.0)
        times = [0.0, 0.5, 1.0]
        res = kinetic.solve_batch(f0, cfg, VM, grid, nm, None, times, paths=paths)
        assert list(res.failures) == [1]
        assert isinstance(res.failures[1], kinetic.TrajectoryOverflowError)
        assert oracles.finished(res) == [0, 2, 3]
        for b in oracles.finished(res):
            solo = kinetic.solve_trajectory(f0, cfg, VM, grid, nm, None, times, path=paths[b])
            assert np.max(np.abs(solo.rho[0] - res.rho[b])) <= 1e-12
            assert solo.gronwall_margin[0] == res.gronwall_margin[b]
        with pytest.raises(kinetic.TrajectoryOverflowError):
            kinetic.solve_trajectory(f0, cfg, VM, grid, nm, None, times, path=paths[1])


@pytest.mark.parametrize("shipped,t_fail", [("standard.json", "0.004"),
                                             ("scalar_mode.json", "0.00125")])
def test_a_failed_member_is_not_failed_again(shipped, t_fail):
    # at amplitude 1e6 a member's multiplier is inf once its chain state is
    # positive, and its norm nan; the zeroed member must keep that failure,
    # not be failed again by 0 x inf at every later step
    with open(os.path.join(CONFIG_DIR, shipped)) as fh:
        raw = json.load(fh)
    raw["noise"]["modes"][0]["amplitude"] = 1e6
    cfg = parse_config(raw)
    res = kinetic_batch(cfg, 0, [0, 1])
    assert sorted(res.failures) == [0, 1]
    assert all(isinstance(exc, kinetic.TrajectoryOverflowError)
               for exc in res.failures.values())
    # member 0 is `simulate-kinetic`'s trajectory 0; the final time is 0.08 or 0.25
    assert str(res.failures[0]).endswith(f"at t={t_fail}")
    # the values up to the failure: a member that fails at step 1 has margin -inf
    assert not np.any(np.isnan(res.sup_norm2)) and not np.any(np.isnan(res.gronwall_margin))
    assert not np.any(res.norm2[:, 1:]) and not np.any(res.rho[:, 1:])


def test_plan_selection():
    # planned: noise constant in x, at most two velocities, and at most
    # PLAN_MAX_JUMPS stationary jumps per member and step (a telegraph chain
    # at rate r jumps r beta times a step)
    cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=8 * 0.1 * 0.2 ** 2)
    grid = TorusGrid(2, 8)

    def planned(vm, grid, rates, label="const"):
        nm = nz.NoiseModel(grid, tuple(nz.telegraph(1.0, r) for r in rates),
                           np.stack([nz.make_mode(grid, label) for _ in rates]))
        return kinetic.KineticStepper(vm, grid, nm, cfg).planned
    assert planned(VM, GRID, [1.0])
    assert planned(VM, GRID, [0.5, 0.5])
    assert kinetic.KineticStepper(VM, GRID, _no_noise(), cfg).planned
    assert not planned(VM, GRID, [1.0, 0.5])
    assert not planned(VM, GRID, [3.0])
    assert not planned(VM, GRID, [1.0], "cos:1")
    assert not planned(vel.ring(4), grid, [1.0])
    assert not planned(vel.ring(256), grid, [1.0])


def test_constant_in_space_predicate():
    assert _no_noise().constant_in_space
    assert _const_chains(GRID, 2).constant_in_space
    modes = np.stack([nz.make_mode(GRID, "const"), nz.make_mode(GRID, "const", 0.7)])
    modes[1, 40] = np.nextafter(0.7, 1.0)
    nm = nz.NoiseModel(GRID, (nz.telegraph(1.0, 3.0), nz.telegraph(0.8, 2.0)), modes)
    assert not nm.constant_in_space
