import numpy as np
import pytest
import scipy.integrate

from kindiff import noise as nz
from kindiff import spde
from kindiff import velocity as vel
from kindiff.grid import TorusGrid
from kindiff.harness import make_stream

GRID = TorusGrid(1, 64)
X = GRID.coords()[0]


def _coeffs(labels_chains):
    chains = tuple(c for _, c in labels_chains)
    modes = np.stack([nz.make_mode(GRID, lab) for lab, _ in labels_chains]) \
        if labels_chains else np.zeros((0, 64))
    nm = nz.NoiseModel(GRID, chains, modes)
    return spde.LimitCoefficients.from_models(vel.two_speed(), nm, GRID), nm


def _heat(rho, dt, K, grid=GRID):
    """One noiseless step of solve_spde_batch: the exact heat flow of div(K grad rho)."""
    coeffs = spde.LimitCoefficients(grid, np.atleast_2d(K), np.zeros(0),
                                    np.zeros((0,) + grid.shape))
    return spde.solve_spde_batch(rho, dt, 1, coeffs, np.zeros((1, 1, 0)), [1])[0, 0]


class TestHeatStep:
    def test_zero_time_identity(self):
        rho = np.random.default_rng(0).standard_normal(64)
        assert _heat(rho, 0.0, np.array([[1.0]])) == pytest.approx(rho)

    def test_cosine_eigenfunction(self):
        rho = np.cos(2 * np.pi * X)
        dt = 0.037
        out = _heat(rho, dt, np.array([[1.0]]))
        assert out == pytest.approx(np.exp(-4 * np.pi ** 2 * dt) * rho, abs=1e-13)

    def test_constant_preserved(self):
        rho = np.full(64, 3.3)
        out = _heat(rho, 0.5, np.array([[1.0]]))
        assert out == pytest.approx(rho)

    def test_l2_contraction_and_mean(self):
        rng = np.random.default_rng(1)
        rho = rng.standard_normal(64)
        out = _heat(rho, 0.01, np.array([[1.0]]))
        assert GRID.norm(out) <= GRID.norm(rho)
        assert out.mean() == pytest.approx(rho.mean(), abs=1e-14)

    def test_anisotropic_2d(self):
        grid = TorusGrid(2, 16)
        xs = grid.coords()
        K = np.array([[0.5, 0.1], [0.1, 0.3]])
        rho = np.cos(2 * np.pi * (xs[0] + 2 * xs[1]))
        xi = np.array([1.0, 2.0])
        rate = 4 * np.pi ** 2 * xi @ K @ xi
        out = _heat(rho, 0.02, K, grid)
        assert out == pytest.approx(np.exp(-rate * 0.02) * rho, abs=1e-12)


class TestSpdeStep:
    def test_zero_increments_pure_heat(self):
        coeffs, _ = _coeffs([("const", nz.telegraph(1.0, 1.0))])
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * X)
        dt = 0.01
        out = spde.solve_spde_batch(rho, dt, 1, coeffs, np.zeros((1, 1, 1)), [1])[0, 0]
        heat = 1.0 + 0.4 * np.exp(-4 * np.pi ** 2 * coeffs.K[0, 0] * dt) * np.cos(2 * np.pi * X)
        assert out == pytest.approx(heat, abs=1e-13)

    def test_lognormal_mean_single_step(self):
        # K = 0, one constant mode: E[rho'] = rho * e^{F dt / 2} exactly;
        # oracle: Gauss quadrature of exp(sqrt(c) z) against the normal density
        chain = nz.telegraph(1.0, 1.0)
        nm = nz.NoiseModel(GRID, (chain,), nz.make_mode(GRID, "const")[None])
        coeffs = spde.LimitCoefficients(GRID, np.zeros((1, 1)), nm.coefficients, nm.modes)
        c = nm.coefficients[0]
        dt = 0.125
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * X)
        mean_mult = scipy.integrate.quad(
            lambda z: np.exp(np.sqrt(c * dt) * z) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi),
            -12, 12)[0]
        assert mean_mult == pytest.approx(np.exp(c * dt / 2), rel=1e-9)
        rng = make_stream(40, 1, 0, 0)
        n = 20000
        dw = rng.normal(0.0, np.sqrt(dt), size=(n, 1))
        steps = spde.solve_spde_batch(rho, dt, 1, coeffs, dw[:, None], [1])[:, 0]
        mc = steps.sum(axis=0) / n
        target = rho * np.exp(c * dt / 2)
        stderr = np.abs(rho) * np.sqrt((np.exp(2 * c * dt) - np.exp(c * dt)) / n)
        assert np.all(np.abs(mc - target) <= 3 * stderr + 1e-12)

    def test_mass_expectation_monte_carlo(self):
        # K = 0, constant mode: E[int rho(T)] = e^{FT/2} int rho0 within 3 stderr
        chain = nz.telegraph(1.0, 1.0)
        nm = nz.NoiseModel(GRID, (chain,), nz.make_mode(GRID, "const")[None])
        coeffs = spde.LimitCoefficients(GRID, np.zeros((1, 1)), nm.coefficients, nm.modes)
        T, n_steps, n_traj = 0.2, 64, 10000
        rho0 = 1.0 + 0.5 * np.cos(2 * np.pi * X)
        dt = T / n_steps
        rng = make_stream(41, 1, 0, 0)
        dw = rng.normal(0.0, np.sqrt(dt), size=(n_traj, n_steps, 1))
        series = spde.solve_spde_batch(rho0, T, n_steps, coeffs, dw, [n_steps])
        masses = series[:, 0].mean(axis=1)
        target = np.exp(coeffs.c[0] * T / 2) * rho0.mean()
        stderr = masses.std(ddof=1) / np.sqrt(n_traj)
        assert abs(masses.mean() - target) <= 3 * stderr

    def test_increment_count_mismatch(self):
        coeffs, _ = _coeffs([("const", nz.telegraph(1.0, 1.0))])
        with pytest.raises(ValueError):
            spde.solve_spde_batch(np.ones(64), 0.01, 1, coeffs, np.zeros((1, 1, 2)), [1])

    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 5, 1), (2, 4, 0), (2, 4, 2),
                                       (4, 1), (2, 4, 1, 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_misshaped_increments_rejected_before_stepping(self, monkeypatch, shape):
        # 4 steps of one mode need increments shaped (batch, 4, 1); a short
        # array used to fail with IndexError after some steps had run.  The
        # grid is above DENSE_HEAT_MAX_N, so every step calls _heat
        n = 2 * spde.DENSE_HEAT_MAX_N
        coeffs = spde.LimitCoefficients(TorusGrid(1, n), np.array([[0.7]]), np.ones(1),
                                        np.ones((1, n)))
        heat = spde._heat
        steps = []
        monkeypatch.setattr(spde, "_heat", lambda *a: (steps.append(1), heat(*a))[1])
        with pytest.raises(ValueError, match=r"\(batch, n_steps, J\)"):
            spde.solve_spde_batch(np.ones(n), 0.04, 4, coeffs, np.zeros(shape), [4])
        assert steps == []

    def test_no_modes_reduces_to_heat(self):
        coeffs, _ = _coeffs([])
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * X)
        out = spde.solve_spde_batch(rho, 0.01, 1, coeffs, np.zeros((1, 1, 0)), [1])[0, 0]
        heat = 1.0 + 0.4 * np.exp(-4 * np.pi ** 2 * coeffs.K[0, 0] * 0.01) * np.cos(2 * np.pi * X)
        assert out == pytest.approx(heat, abs=1e-13)

    def test_negative_dt_rejected(self):
        coeffs, _ = _coeffs([("const", nz.telegraph(1.0, 1.0))])
        with pytest.raises(ValueError):
            spde.solve_spde_batch(np.ones(64), -0.04, 4, coeffs, np.zeros((2, 4, 1)), [4])
        with pytest.raises(ValueError):
            spde.solve_spde_batch(np.ones(64), -0.01, 1, coeffs, np.zeros((1, 1, 1)), [1])

    def test_positivity(self):
        coeffs, _ = _coeffs([("cos:1", nz.telegraph(1.0, 1.0))])
        rng = make_stream(42, 1, 0, 0)
        rho0 = 1.0 + 0.9 * np.cos(2 * np.pi * X)
        dw = rng.normal(0, 0.1, size=(1, 50, 1))
        series = spde.solve_spde_batch(rho0, 0.5, 50, coeffs, dw, range(1, 51))
        assert np.all(series > 0)


def _literal_batch(rho0, final_time, n_steps, coeffs, dw, output_steps):
    """Per-member, per-step composition with the complex FFT: the reference."""
    grid = coeffs.grid
    dt = final_time / n_steps
    expo = sum(grid.freqs_odd[p] * grid.freqs_odd[q] * coeffs.K[p, q]
               for p in range(grid.dim) for q in range(grid.dim))
    mult = np.exp(-4.0 * np.pi ** 2 * expo * dt)
    out = []
    for b in range(dw.shape[0]):
        rho = np.array(rho0, dtype=float)
        states = [rho]
        for k in range(n_steps):
            rho = np.fft.ifftn(np.fft.fftn(rho) * mult).real
            rho = rho * np.exp(np.tensordot(dw[b, k], coeffs.root_factors, axes=(0, 0)))
            states.append(rho)
        out.append([states[s] for s in output_steps])
    return np.array(out)


# oracle grids as dim or (dim, n), n = 16 by default: the dense 1-d heat step,
# the 1-d FFT step above DENSE_HEAT_MAX_N and the 2-d FFT step
ORACLE_GRIDS = [1, 2, pytest.param((1, 2 * spde.DENSE_HEAT_MAX_N), id="1wide")]


class TestBatchOracle:
    """solve_spde_batch against the literal composition, Nyquist bins included."""

    n_steps = 37
    output_steps = [0, 0, 5, 16, 16, n_steps]

    def _problem(self, dim, n_modes):
        dim, n = dim if isinstance(dim, tuple) else (dim, 16)
        grid = TorusGrid(dim, n)
        K = np.array([[0.7]]) if dim == 1 else np.array([[0.5, 0.1], [0.1, 0.3]])
        rng = np.random.default_rng(10 * dim + n_modes)
        # white-noise fields so that every bin, the Nyquist ones too, is excited
        modes = rng.standard_normal((n_modes,) + grid.shape)
        coeffs = spde.LimitCoefficients(grid, K, rng.uniform(0.5, 2.0, n_modes), modes)
        rho0 = 1.0 + 0.3 * rng.standard_normal(grid.shape)
        T = 0.01
        dw = rng.normal(0.0, np.sqrt(T / self.n_steps), size=(3, self.n_steps, n_modes))
        return rho0, T, coeffs, dw

    @pytest.mark.parametrize("n_modes", [0, 1, 2])
    @pytest.mark.parametrize("dim", ORACLE_GRIDS)
    def test_matches_literal_composition(self, dim, n_modes):
        rho0, T, coeffs, dw = self._problem(dim, n_modes)
        got = spde.solve_spde_batch(rho0, T, self.n_steps, coeffs, dw, self.output_steps)
        ref = _literal_batch(rho0, T, self.n_steps, coeffs, dw, self.output_steps)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_modes", [0, 2])
    @pytest.mark.parametrize("dim", ORACLE_GRIDS)
    def test_member_equals_solo_run(self, dim, n_modes):
        rho0, T, coeffs, dw = self._problem(dim, n_modes)
        batch = spde.solve_spde_batch(rho0, T, self.n_steps, coeffs, dw, self.output_steps)
        for b in range(dw.shape[0]):
            solo = spde.solve_spde_batch(rho0, T, self.n_steps, coeffs, dw[b:b + 1],
                                         self.output_steps)
            assert np.max(np.abs(batch[b] - solo[0])) <= 1e-12 * np.max(np.abs(solo))


def _no_noise(n):
    return spde.LimitCoefficients(TorusGrid(1, n), np.array([[0.7]]), np.zeros(0),
                                  np.zeros((0, n)))


def _dense_heat_matrix(coeffs, dt):
    """The heat matrix as solve_spde_batch applies it: one step of the identity rows."""
    n = coeffs.grid.n
    return spde.solve_spde_batch(np.eye(n), dt, 1, coeffs, np.zeros((n, 1, 0)), [1])[:, 0]


DENSE_SIZES = [2 ** p for p in range(1, spde.DENSE_HEAT_MAX_N.bit_length())]


class TestDenseHeat:
    """The 1-d heat step as one product with a dense circulant matrix."""

    dt = 1e-3

    @pytest.mark.parametrize("n", DENSE_SIZES)
    def test_symmetric_and_mass_preserving(self, n):
        heat = _dense_heat_matrix(_no_noise(n), self.dt)
        assert np.max(np.abs(heat - heat.T)) <= 1e-14
        assert np.max(np.abs(heat.sum(axis=1) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", DENSE_SIZES)
    def test_product_equals_fft_step(self, n):
        coeffs = _no_noise(n)
        heat = _dense_heat_matrix(coeffs, self.dt)
        mult = np.exp(coeffs.heat_exponent[:n // 2 + 1] * self.dt)
        rho = 1.0 + np.random.default_rng(n).standard_normal((3, n))
        assert np.max(np.abs(rho @ heat - spde._heat(rho, mult, coeffs.grid))) <= 1e-13

    @pytest.mark.parametrize("n, fft_calls", [(spde.DENSE_HEAT_MAX_N, 1),
                                               (2 * spde.DENSE_HEAT_MAX_N, 5)])
    def test_fft_pairs_per_call(self, monkeypatch, n, fft_calls):
        calls = []
        heat = spde._heat
        monkeypatch.setattr(spde, "_heat", lambda *a: (calls.append(1), heat(*a))[1])
        spde.solve_spde_batch(np.ones(n), 0.01, 5, _no_noise(n), np.zeros((2, 5, 0)), [5])
        assert len(calls) == fft_calls


class TestDriftConsistency:
    def test_single_constant_mode(self):
        coeffs, nm = _coeffs([("const", nz.telegraph(1.0, 1.0))])
        assert spde.drift_consistency(coeffs, nm.trace_field()) < 1e-15

    def test_cos_sin_pair(self):
        coeffs, nm = _coeffs([("cos:1", nz.telegraph(1.0, 2.0)),
                              ("sin:1", nz.telegraph(1.0, 2.0))])
        assert spde.drift_consistency(coeffs, nm.trace_field()) < 1e-15

    def test_randomized_modes(self):
        rng = np.random.default_rng(7)
        modes = rng.standard_normal((3, 64))
        chains = tuple(nz.telegraph(s, r) for s, r in
                       [(1.0, 1.0), (0.5, 2.0), (1.5, 0.7)])
        nm = nz.NoiseModel(GRID, chains, modes)
        coeffs = spde.LimitCoefficients.from_models(vel.two_speed(), nm, GRID)
        assert spde.drift_consistency(coeffs, nm.trace_field()) < 1e-14


class TestWeakSelfConvergence:
    """dt-bias of the splitting is O(dt), measured by Richardson ratios.

    For linear functionals the scheme's expectation is exact in closed form
    (the geometric multiplier has mean e^{F dt / 2} independently per step),
    so the bias curve can be computed without Monte Carlo noise.
    """

    coeffs, _ = _coeffs([("cos:1", nz.telegraph(2.0, 1.0))])
    T = 0.5
    rho0 = 1.0 + 0.5 * np.cos(2 * np.pi * X)

    def _mean_field(self, steps):
        u = self.rho0.copy()
        dt = self.T / steps
        mult = np.exp(self.coeffs.trace_field() * dt / 2)
        for _ in range(steps):
            u = _heat(u, dt, self.coeffs.K) * mult
        return u

    def test_exact_expectation_bias_is_first_order(self):
        ref = self._mean_field(8 * 64)
        w = np.ones(64)
        errs = [abs(GRID.inner(self._mean_field(n) - ref, w)) for n in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2]
        assert 1.5 < errs[0] / errs[1] < 4.5

    def test_monte_carlo_matches_exact_expectation(self):
        # 10^4 trajectories at the coarsest step agree with the closed-form mean
        steps, n_traj = 8, 10000
        dt = self.T / steps
        rng = make_stream(43, 1, 0, 0)
        dw = rng.normal(0.0, np.sqrt(dt), size=(n_traj, steps, 1))
        series = spde.solve_spde_batch(self.rho0, self.T, steps, self.coeffs,
                                       dw, [steps])
        masses = series[:, 0].mean(axis=1)
        exact = self._mean_field(steps).mean()
        stderr = masses.std(ddof=1) / np.sqrt(n_traj)
        assert abs(masses.mean() - exact) <= 3 * stderr
