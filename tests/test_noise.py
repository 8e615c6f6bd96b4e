import contextlib
import signal

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kindiff import noise as nz
from kindiff.grid import TorusGrid
from kindiff.harness import make_stream

import oracles


def random_chain(rng, n_states=4):
    """Random irreducible centered chain for property tests."""
    g = rng.uniform(0.2, 2.0, size=(n_states, n_states))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    pi = nz.stationary_law(g)
    s = rng.uniform(-1.0, 1.0, size=n_states)
    s = s - pi @ s
    return nz.ChainSpec(s, g)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging if the body runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestChainSpec:
    def test_telegraph_stationary_law(self):
        ch = nz.telegraph(1.0, 3.0)
        # oracle: solve pi G = 0 directly for the symmetric 2-state chain
        assert ch.stationary == pytest.approx([0.5, 0.5])

    def test_three_state_cyclic_uniform(self):
        g = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        s = np.array([1.0, 0.0, -1.0])
        ch = nz.ChainSpec(s, g)
        # oracle: linear solve confirms the uniform law
        pi = np.linalg.lstsq(np.vstack([g.T, np.ones(3)]),
                             np.array([0, 0, 0, 1.0]), rcond=None)[0]
        assert ch.stationary == pytest.approx(pi)
        assert ch.stationary == pytest.approx(np.full(3, 1 / 3))

    def test_zero_chain_accepted(self):
        ch = oracles.zero_chain()
        assert ch.n_states == 1

    def test_uncentered_single_state_rejected(self):
        with pytest.raises(ValueError):
            nz.ChainSpec(np.array([1.0]), np.array([[0.0]]))

    def test_reducible_rejected(self):
        g = np.array([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(nz.ReducibleChainError):
            nz.ChainSpec(np.array([-1.0, 1.0]), g)

    def test_uncentered_rejected(self):
        g = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            nz.ChainSpec(np.array([0.0, 1.0]), g)

    def test_exit_rates_stored_read_only(self):
        g = np.array([[-1.0, 1.0, 0.0], [0.5, -2.0, 1.5], [1.0, 0.0, -1.0]])
        s = np.array([1.0, 0.0, -1.0])
        ch = nz.ChainSpec(s - nz.stationary_law(g) @ s, g)
        assert ch.exit_rates is ch.exit_rates
        assert np.array_equal(ch.exit_rates, [1.0, 2.0, 1.0])
        assert not ch.exit_rates.flags.writeable

    def test_jump_cdf_rows(self):
        g = np.array([[-1.0, 1.0, 0.0], [0.5, -2.0, 1.5], [1.0, 0.0, -1.0]])
        s = np.array([1.0, 0.0, -1.0])
        ch = nz.ChainSpec(s - nz.stationary_law(g) @ s, g)
        assert not ch.jump_cdf.flags.writeable
        for i in range(3):
            cdf = np.minimum(ch.jump_cdf[i], 1.0)
            prob = np.diff(np.concatenate([[0.0], cdf]))
            want = np.where(np.arange(3) == i, 0.0, g[i] / ch.exit_rates[i])
            assert prob == pytest.approx(want, abs=1e-15)


class TestSamplingAndPaths:
    def test_stationary_frequency(self):
        model = _single_mode_model(nz.telegraph(1.0, 1.0))
        rng = make_stream(11, 2, 0, 0)
        n = 10 ** 5
        hits = sum(int(model.sample_stationary(rng)[0]) for _ in range(n))
        freq = hits / n
        assert abs(freq - 0.5) <= 3 * 0.5 / np.sqrt(n)

    def test_holding_time_mean(self):
        lam = 2.5
        ch = nz.telegraph(1.0, lam)
        model = _single_mode_model(ch)
        rng = make_stream(12, 2, 0, 0)
        holds = []
        while len(holds) < 10 ** 4:
            path = model.simulate_path(200.0, rng)
            t = np.concatenate([[0.0], path.jump_times[0]])
            holds.extend(np.diff(t))
        holds = np.asarray(holds[: 10 ** 4])
        assert abs(holds.mean() - 1 / lam) <= 3 * (1 / lam) / np.sqrt(len(holds))

    def test_zero_horizon_path(self):
        model = _single_mode_model(nz.telegraph(1.0, 1.0))
        path = model.simulate_path(0.0, make_stream(13, 2, 0, 0))
        assert path.n_jumps == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_jumps_match_a_sequential_scan(self, seed):
        # reference: scan the normalised rate row left to right, skipping the
        # diagonal, and jump at the first partial sum above the uniform
        ch = random_chain(np.random.default_rng(seed), n_states=5)

        def scan(start, horizon, rng):
            t, i, times, states = 0.0, start, [], []
            while True:
                t += rng.exponential(1.0 / ch.exit_rates[i])
                if t >= horizon:
                    return times, states
                row, u, cdf = ch.rates[i] / ch.exit_rates[i], rng.random(), 0.0
                for j in range(ch.n_states):
                    if j != i:
                        cdf += row[j]
                        if u < cdf:
                            i = j
                            break
                times.append(t)
                states.append(i)

        want_t, want_s = scan(seed % 5, 200.0, make_stream(seed, 2, 0, 0))
        got_t, got_s = nz.simulate_chain(ch, seed % 5, 200.0, make_stream(seed, 2, 0, 0))
        assert len(want_s) > 100
        assert got_t.tolist() == want_t
        assert got_s.tolist() == want_s

    @pytest.mark.parametrize("start, target", [(0, 2), (1, 2), (2, 1)])
    def test_largest_uniform_never_self_jumps(self, start, target):
        # row 0 normalises to 0.25 + 0.7499999999999999 = 1 - 2^-53, which is
        # the largest value rng.random() returns; the jump must still leave the
        # state, for the last reachable one
        g = np.array([[-0.4, 0.1, 0.3], [0.5, -1.0, 0.5], [0.3, 0.3, -0.6]])
        s = np.array([-1.0, 0.5, 1.5])
        ch = nz.ChainSpec(s - nz.stationary_law(g) @ s, g)

        class StubRng:
            holds = iter([0.1, 1e9])

            def exponential(self, scale):
                return next(self.holds)

            def random(self):
                return 1.0 - 2.0 ** -53

        times, states = nz.simulate_chain(ch, start, 1.0, StubRng())
        assert times.tolist() == [0.1]
        assert states.tolist() == [target]

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        model = _single_mode_model(nz.telegraph(1.0, 1.0))
        with _deadline(5), pytest.raises(ValueError):
            model.simulate_path(horizon, make_stream(13, 2, 0, 0))

    def test_ergodic_time_average(self):
        # time average of m(t)(x0) over a long horizon -> pi-average = 0
        ch = nz.telegraph(1.0, 1.0)
        model = _single_mode_model(ch)
        rng = make_stream(14, 2, 0, 0)
        n_paths, horizon = 200, 50.0
        avgs = np.empty(n_paths)
        for i in range(n_paths):
            path = model.simulate_path(horizon, rng)
            avgs[i] = nz.chain_integral(ch, path.initial[0], path.jump_times[0],
                                        path.jump_states[0], horizon) / horizon
        stderr = avgs.std(ddof=1) / np.sqrt(n_paths)
        assert abs(avgs.mean()) <= 3 * stderr

    def test_path_reproducible(self):
        model = _single_mode_model(nz.telegraph(1.0, 1.0))
        p1 = model.simulate_path(20.0, make_stream(15, 2, 0, 0))
        p2 = model.simulate_path(20.0, make_stream(15, 2, 0, 0))
        assert np.array_equal(p1.seg_times, p2.seg_times)
        assert np.array_equal(p1.seg_states, p2.seg_states)

    @pytest.mark.parametrize("n_states", [2, 3, 4, 5])
    def test_paths_are_bitwise_the_array_search_sampler(self, n_states):
        # the stationary CDF and the Python-float loop take the same draws as
        # rng.choice and the array searches, and land on the same states
        rng = np.random.default_rng(20 + n_states)
        chains = (random_chain(rng, n_states), nz.telegraph(0.5, 3.0),
                  random_chain(rng, int(rng.integers(2, 6))), oracles.zero_chain())
        model = nz.NoiseModel(TorusGrid(1, 8), chains, np.ones((4, 8)))
        for stream in range(50):
            got_rng, want_rng = make_stream(17, 2, n_states, stream), \
                make_stream(17, 2, n_states, stream)
            got = model.simulate_path(30.0, got_rng)
            want = oracles.simulate_path_by_search(model, 30.0, want_rng)
            assert np.array_equal(got.initial, want.initial)
            for a, b in zip(got.jump_times + got.jump_states, want.jump_times + want.jump_states):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got_rng.random() == want_rng.random()

    def test_path_boundedness(self):
        grid = TorusGrid(1, 32)
        modes = np.stack([nz.make_mode(grid, "const"),
                          nz.make_mode(grid, "cos:1", 0.5)])
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0), nz.telegraph(0.5, 2.0)),
                              modes)
        path = model.simulate_path(30.0, make_stream(16, 2, 0, 0))
        sup_m, sup_inv = oracles.sup_bounds(path, model)
        assert sup_m <= model.bound + 1e-12
        assert sup_inv <= model.bound + 1e-12


def _tuple_merge(path):
    """Reference segment table: sort (time, chain, state) tuples, copy the state row per jump."""
    n_chains = len(path.jump_times)
    merged = [(float(t), j, int(s)) for j in range(n_chains)
              for t, s in zip(path.jump_times[j], path.jump_states[j])]
    merged.sort(key=lambda r: r[0])
    cur = np.asarray(path.initial, dtype=np.int64).copy()
    rows = [cur.copy()]
    for _, j, s in merged:
        cur[j] = s
        rows.append(cur.copy())
    times = np.array([0.0] + [r[0] for r in merged] + [path.horizon])
    return times, np.array(rows, dtype=np.int64).reshape(len(rows), n_chains)


def _flips(times, start):
    """Jump record of a two-state chain flipping at ``times`` from ``start``."""
    times = np.asarray(times, dtype=float)
    return times, (start + 1 + np.arange(times.size)) % 2


class TestNoisePath:
    @pytest.mark.parametrize("case", ["no_chains", "one_chain", "three_chains_with_ties",
                                      "all_jumps_tied", "simulated"])
    def test_merge_matches_the_tuple_sort(self, case):
        if case == "no_chains":
            path = nz.NoisePath(5.0, np.zeros(0, dtype=int), (), ())
        elif case == "one_chain":
            t, s = _flips([0.3, 1.1, 2.5, 4.0], 1)
            path = nz.NoisePath(5.0, np.array([1]), (t,), (s,))
        elif case == "three_chains_with_ties":
            # chain 1 never jumps; chains 0 and 2 jump together at 1.0 and 2.0
            t0, s0 = _flips([0.5, 1.0, 2.0], 0)
            t2, s2 = np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1])
            path = nz.NoisePath(4.0, np.array([0, 1, 1]),
                                (t0, np.zeros(0), t2), (s0, np.zeros(0, dtype=int), s2))
        elif case == "all_jumps_tied":
            # long enough that an unstable sort reorders the tied jumps
            ts = [_flips(np.arange(1.0, 41.0), start) for start in (0, 1, 0)]
            path = nz.NoisePath(41.0, np.array([0, 1, 0]),
                                tuple(t for t, _ in ts), tuple(s for _, s in ts))
        else:
            grid = TorusGrid(1, 8)
            chains = (nz.telegraph(1.0, 2.0), random_chain(np.random.default_rng(3)),
                      oracles.zero_chain())
            model = nz.NoiseModel(grid, chains, np.ones((3, 8)))
            path = model.simulate_path(20.0, make_stream(17, 2, 0, 0))
            assert path.n_jumps > 20
        want_times, want_states = _tuple_merge(path)
        assert np.array_equal(path.seg_times, want_times)
        assert np.array_equal(path.seg_states, want_states)
        assert path.seg_states.dtype == np.int64
        assert path.n_jumps == want_states.shape[0] - 1

    def test_values_read_each_chains_states(self):
        grid = TorusGrid(1, 8)
        chains = (nz.telegraph(0.5, 1.0), random_chain(np.random.default_rng(4), n_states=3),
                  oracles.zero_chain(), nz.telegraph(2.0, 1.0))
        model = nz.NoiseModel(grid, chains, np.ones((4, 8)))
        idx = np.array([[[i % 2, i % 3, 0, (i + 1) % 2] for i in range(6)]])  # (1, 6, 4)
        want = np.array([[[ch.states[i] for ch, i in zip(chains, row)] for row in idx[0]]])
        assert np.array_equal(model.values(idx), want)
        empty = nz.NoiseModel(grid, (), np.zeros((0, 8)))
        assert empty.values(np.zeros((3, 0), dtype=int)).shape == (3, 0)


def _single_mode_model(chain):
    grid = TorusGrid(1, 4)
    return nz.NoiseModel(grid, (chain,), np.ones((1, 4)))


class TestPoisson:
    def test_telegraph_closed_form(self):
        sigma, lam = 1.3, 0.7
        ch = nz.telegraph(sigma, lam)
        phi = nz.solve_poisson(ch, ch.states)
        assert phi == pytest.approx(-ch.states / (2 * lam))

    def test_matches_semigroup_integral(self):
        # phi = -int_0^inf P_t theta dt, via expm quadrature
        rng = np.random.default_rng(5)
        ch = random_chain(rng)
        theta = rng.uniform(-1, 1, ch.n_states)
        theta -= ch.stationary @ theta
        phi = nz.solve_poisson(ch, theta)
        integral = -scipy.integrate.quad_vec(
            lambda t: scipy.linalg.expm(ch.rates * t) @ theta, 0.0, 60.0)[0]
        assert phi == pytest.approx(integral - ch.stationary @ integral, abs=1e-8)

    def test_zero_observable(self):
        ch = nz.telegraph(1.0, 1.0)
        assert nz.solve_poisson(ch, np.zeros(2)) == pytest.approx(np.zeros(2))

    def test_residual_random_four_state(self):
        rng = np.random.default_rng(9)
        ch = random_chain(rng)
        theta = rng.uniform(-1, 1, 4)
        theta -= ch.stationary @ theta
        phi = nz.solve_poisson(ch, theta)
        assert np.max(np.abs(ch.rates @ phi - theta)) < 1e-10
        assert abs(ch.stationary @ phi) < 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_generator_recovers_observable(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_chain(rng, n_states=int(rng.integers(2, 6)))
        theta = rng.uniform(-2, 2, ch.n_states)
        theta_c = theta - ch.stationary @ theta
        phi = nz.solve_poisson(ch, theta)
        assert np.max(np.abs(ch.rates @ phi - theta_c)) < 1e-10


    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_pair_solve_with_a_zero_chain(self, seed):
        # both solves share one core; G (+) 0 is G and pi x (1) is pi exactly
        rng = np.random.default_rng(300 + seed)
        chains = [random_chain(rng, n_states=int(rng.integers(3, 8))),
                  nz.telegraph(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))]
        for ch in chains:
            theta = rng.uniform(-2, 2, ch.n_states)
            pair = nz.solve_poisson_pair(ch, oracles.zero_chain(), theta[:, None])
            assert np.array_equal(nz.solve_poisson(ch, theta), pair[:, 0])


class TestCombine:
    """`NoiseModel.combine` maps each row of chain values to its field alone."""

    @pytest.mark.parametrize("n_modes", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_equal_each_row_combined_alone(self, dim, n_modes):
        grid = TorusGrid(dim, 8)
        rng = np.random.default_rng(10 * dim + n_modes)
        modes = rng.standard_normal((n_modes,) + grid.shape)
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),) * n_modes, modes)
        values = rng.standard_normal((37, 3, n_modes))
        fields = model.combine(values)
        assert fields.shape == (37, 3) + grid.shape
        for idx in np.ndindex(37, 3):
            assert np.array_equal(fields[idx], model.combine(values[idx]))
            assert np.array_equal(fields[idx], model.combine(values[idx][None])[0])
        want = np.tensordot(values, modes, axes=1)
        assert np.allclose(fields, want, rtol=1e-14, atol=1e-14)
        assert oracles.field(model, np.zeros(n_modes, dtype=int)).shape == grid.shape


class TestAutocovariance:
    def test_telegraph_formula(self):
        sigma, lam = 1.4, 2.2
        c = nz.integrated_autocovariance(nz.telegraph(sigma, lam))
        assert c == pytest.approx(sigma ** 2 / lam, rel=1e-12)
        # independent oracle: integrate sigma^2 e^{-2 lam |t|} over R
        quad = scipy.integrate.quad(
            lambda t: sigma ** 2 * np.exp(-2 * lam * abs(t)), -40, 40)[0]
        assert c == pytest.approx(quad, rel=1e-8)

    def test_zero_states(self):
        assert nz.integrated_autocovariance(oracles.zero_chain()) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_chain(rng, n_states=int(rng.integers(2, 6)))
        assert nz.integrated_autocovariance(ch) >= -1e-12

    def test_empirical_estimator(self):
        ch = nz.telegraph(1.0, 1.0)
        rng = make_stream(21, 2, 0, 0)
        emp, se = nz.empirical_autocovariance(ch, horizon=50.0, n_paths=400, rng=rng)
        assert abs(emp - 1.0) <= 3 * se

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0])
    def test_empirical_estimator_bad_horizon_rejected(self, horizon):
        with _deadline(5), pytest.raises(ValueError):
            nz.empirical_autocovariance(nz.telegraph(1.0, 1.0), horizon, 100,
                                        make_stream(21, 2, 0, 0))


class TestKernelAndQ:
    def test_single_constant_mode(self):
        grid = TorusGrid(1, 8)
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),), np.ones((1, 8)))
        k, trace = oracles.kernel_and_trace(model)
        assert k == pytest.approx(np.ones((8, 8)))
        assert trace == pytest.approx(np.ones(8))

    def test_zero_modes(self):
        grid = TorusGrid(1, 8)
        model = nz.NoiseModel(grid, (), np.zeros((0, 8)))
        k, trace = oracles.kernel_and_trace(model)
        assert not k.any() and not trace.any()

    def test_cos_sin_pair_constant_trace(self):
        grid = TorusGrid(1, 32)
        modes = np.stack([nz.make_mode(grid, "cos:1"), nz.make_mode(grid, "sin:1")])
        chains = (nz.telegraph(1.0, 2.0), nz.telegraph(1.0, 2.0))
        model = nz.NoiseModel(grid, chains, modes)
        c = model.coefficients[0]
        assert model.trace_field() == pytest.approx(np.full(32, c))

    def test_kernel_symmetry(self):
        grid = TorusGrid(1, 16)
        modes = np.stack([nz.make_mode(grid, "cos:1"), nz.make_mode(grid, "sin:2", 0.4)])
        model = nz.NoiseModel(grid, (nz.telegraph(1, 1), nz.telegraph(0.5, 2)), modes)
        k, _ = oracles.kernel_and_trace(model)
        assert np.array_equal(k, k.T)

    def test_apply_Q_orthogonal_field(self):
        grid = TorusGrid(1, 32)
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),),
                              nz.make_mode(grid, "cos:1")[None])
        f = nz.make_mode(grid, "cos:2")  # orthogonal to cos:1
        assert np.max(np.abs(oracles.apply_Q(model, f))) < 1e-14

    def test_apply_Q_eigenmode(self):
        grid = TorusGrid(1, 32)
        eta = nz.make_mode(grid, "cos:1", np.sqrt(2.0))  # grid-normalized mode
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),), eta[None])
        c = model.coefficients[0]
        qf = oracles.apply_Q(model, eta)
        assert qf == pytest.approx(c * eta)

    def test_Q_positivity_hundred_random_fields(self):
        grid = TorusGrid(1, 32)
        modes = np.stack([nz.make_mode(grid, "const"), nz.make_mode(grid, "cos:1")])
        model = nz.NoiseModel(grid, (nz.telegraph(1, 1), nz.telegraph(1, 2)), modes)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(grid.shape)
            quad_form = grid.inner(oracles.apply_Q(model, f), f)
            assert quad_form >= -1e-12 * grid.inner(f, f)


class TestMInverseField:
    def test_telegraph_constant_mode(self):
        grid = TorusGrid(1, 8)
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),), np.ones((1, 8)))
        # phi(s) = -s/2; at state +1 the field is -1/2 everywhere
        field = oracles.m_inverse_field(model, [1])
        assert field == pytest.approx(np.full(8, -0.5))

    def test_stationary_average_vanishes(self):
        grid = TorusGrid(1, 8)
        model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),), np.ones((1, 8)))
        rng = make_stream(22, 2, 0, 0)
        n = 4000
        samples = np.array([oracles.m_inverse_field(model, model.sample_stationary(rng))[0]
                            for _ in range(n)])
        stderr = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean()) <= 3 * stderr

    def test_zero_states_give_zero_field(self):
        grid = TorusGrid(1, 8)
        model = nz.NoiseModel(grid, (oracles.zero_chain(),), np.ones((1, 8)))
        assert oracles.m_inverse_field(model, [0]) == pytest.approx(np.zeros(8))


def test_spatial_autocovariance_matches_kernel():
    # E[(int m(x0)) (int m(y0))]/T -> k(x0, y0) at a fixed grid point pair
    grid = TorusGrid(1, 16)
    modes = np.stack([nz.make_mode(grid, "const"), nz.make_mode(grid, "cos:1")])
    model = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0), nz.telegraph(1.0, 2.0)), modes)
    k, _ = oracles.kernel_and_trace(model)
    ix, iy = 0, 5
    rng = make_stream(23, 2, 0, 0)
    horizon, n_paths = 40.0, 1000
    samples = np.empty(n_paths)
    for i in range(n_paths):
        path = model.simulate_path(horizon, rng)
        ints = [nz.chain_integral(ch, path.initial[j], path.jump_times[j],
                                  path.jump_states[j], horizon)
                for j, ch in enumerate(model.chains)]
        mx = sum(ints[j] * model.modes[j].reshape(-1)[ix] for j in range(2))
        my = sum(ints[j] * model.modes[j].reshape(-1)[iy] for j in range(2))
        samples[i] = mx * my / horizon
    stderr = samples.std(ddof=1) / np.sqrt(n_paths)
    assert abs(samples.mean() - k[ix, iy]) <= 3 * stderr


def test_mode_budget_enforced():
    grid = TorusGrid(1, 8)
    chains = tuple(nz.telegraph(1.0, 1.0) for _ in range(17))
    modes = np.ones((17, 8))
    with pytest.raises(ValueError):
        nz.NoiseModel(grid, chains, modes)


def test_mode_labels():
    grid = TorusGrid(1, 16)
    x = grid.coords()[0]
    assert nz.make_mode(grid, "const", 2.0) == pytest.approx(np.full(16, 2.0))
    assert nz.make_mode(grid, "cos:2") == pytest.approx(np.cos(4 * np.pi * x))
    assert nz.make_mode(grid, "sin:1", 0.5) == pytest.approx(0.5 * np.sin(2 * np.pi * x))
    with pytest.raises(ValueError):
        nz.make_mode(grid, "tan:1")
    table = nz.mode_from_fourier(grid, [[1, 0.25, -0.5]])
    assert table == pytest.approx(0.25 * np.cos(2 * np.pi * x) - 0.5 * np.sin(2 * np.pi * x))
