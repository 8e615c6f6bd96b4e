import numpy as np
import pytest

from kindiff import generator as gen
from kindiff import kinetic
from kindiff import noise as nz
from kindiff import velocity as vel
from kindiff.generator import (GeneratorInstrument, PerturbedTestFunction,
                               TestFunctional, martingale_residual,
                               random_smooth_field, residual_scaling)
from kindiff.grid import TorusGrid
from kindiff.harness import _functional_values, make_stream

GRID = TorusGrid(1, 32)
VM = vel.two_speed()
X = GRID.coords()[0]
W_SMOOTH = 1.0 + 0.3 * np.cos(2 * np.pi * X) + 0.1 * np.sin(4 * np.pi * X)


def two_mode_model():
    modes = np.stack([nz.make_mode(GRID, "const"), nz.make_mode(GRID, "cos:1", 0.8)])
    return nz.NoiseModel(GRID, (nz.telegraph(1.0, 1.0), nz.telegraph(0.7, 2.0)), modes)


def const_mode_model():
    return nz.NoiseModel(GRID, (nz.telegraph(1.0, 1.0),),
                         nz.make_mode(GRID, "const")[None])


def no_noise_model():
    return nz.NoiseModel(GRID, (), np.zeros((0,) + GRID.shape))


def three_state_chain(rng, top=None):
    """Irreducible centered chain with three states; ``top`` sets the raw third value."""
    g = rng.uniform(0.5, 2.0, (3, 3))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    s = np.array([-1.0, 0.5, 1.5 if top is None else top])
    return nz.ChainSpec(s - nz.stationary_law(g) @ s, g)


def bundles(nm, weight=None):
    w = W_SMOOTH if weight is None else weight
    return [PerturbedTestFunction(TestFunctional(kind, w), VM, nm, GRID)
            for kind in ("linear", "quadratic")]


def rand_state(nm, rng, velocity_dependent=True):
    f = random_smooth_field(GRID, VM.n_velocities, rng,
                            velocity_dependent=velocity_dependent) + 1.0
    return f, nm.sample_stationary(rng)


class TestFunctionalBasics:
    def test_values(self):
        rho = 1.0 + 0.5 * np.cos(2 * np.pi * X)
        lin = TestFunctional("linear", np.ones(GRID.shape))
        quad = TestFunctional("quadratic", np.ones(GRID.shape))
        lin_value, quad_value = _functional_values([lin, quad], GRID, rho[None])[:, 0]
        assert lin_value == pytest.approx(1.0)
        assert quad_value == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TestFunctional("cubic", W_SMOOTH)


class TestCorrector1:
    def test_vanishes_at_flat_state(self):
        # velocity-independent f and a chain state with zero corrector value
        nm = const_mode_model()
        b = bundles(nm)[0]
        f = vel.lift(VM, np.full(GRID.shape, 2.0))
        # both states of the telegraph give phi = -s/2 != 0, so combine:
        # (bar Af) = 0 kills the transport part; pick the field with rho = 0
        # to kill the noise part as well
        assert b.phi1_value(b.state(np.zeros((1,) + GRID.shape + (2,)), [[0]]))[0] == 0.0
        # transport part vanishes, noise part is -(rho M^-1 I, w)
        st = b.state(f[None], [[0]])
        v1 = b.phi1_value(st)[0]
        expected = -GRID.inner(st.rho[0] * nm.m_inverse_field([0]), W_SMOOTH)
        assert v1 == pytest.approx(expected, rel=1e-12)

    def test_unit_weight_reduction(self):
        # w = 1: (Af, Dphi) integrates to zero, phi1 = -int f M^-1 I(n)
        nm = two_mode_model()
        b = PerturbedTestFunction(TestFunctional("linear", np.ones(GRID.shape)),
                                  VM, nm, GRID)
        rng = np.random.default_rng(1)
        f, n = rand_state(nm, rng)
        direct = -vel.inner_xv(VM, GRID, f, vel.lift(VM, nm.m_inverse_field(n)))
        assert b.phi1_value(b.state(f[None], n[None]))[0] == pytest.approx(direct, rel=1e-10)

    def test_linear_scaling(self):
        nm = two_mode_model()
        b = bundles(nm)[0]
        rng = np.random.default_rng(2)
        f, n = rand_state(nm, rng)
        doubled, single = b.phi1_value(b.state(np.stack([2 * f, f]), np.stack([n, n])))
        assert doubled == pytest.approx(2 * single, rel=1e-12)


class TestCorrector2:
    def test_explicit_part_vanishes_velocity_independent(self):
        nm = two_mode_model()
        for b in bundles(nm):
            rng = np.random.default_rng(3)
            f, n = rand_state(nm, rng, velocity_dependent=False)
            st = b.state(f[None], n[None])
            sharp, dagger = b.phi2_sharp(st)[0], b.phi2_dagger(st)[0]
            assert abs(sharp) < 1e-13
            assert abs(dagger) < 1e-13

    def test_zero_field(self):
        nm = two_mode_model()
        for b in bundles(nm):
            assert b._phi2(b.state(np.zeros((1,) + GRID.shape + (2,)), [[0, 1]]))[0] == 0.0

    def test_product_chain_solves_verify(self):
        # M psi = <theta> - theta checked by applying the chain generators to
        # the noise model's tables, read at every joint state of each pair
        nm = two_mode_model()
        tables, p_tab = nm.chain_tables, nm.poisson_identity
        for j, chj in enumerate(nm.chains):
            for l, chl in enumerate(nm.chains):
                a, c = np.meshgrid(np.arange(chj.n_states), np.arange(chl.n_states),
                                   indexing="ij")
                n = np.zeros((a.size, nm.n_modes), dtype=np.int64)
                n[:, l] = c.reshape(-1)
                n[:, j] = a.reshape(-1)
                tab = tables.at(n)[1][:, j, l].reshape(a.shape)
                mean = tables.pair_means[j, l]
                if j == l:  # n[:, j] = a: psi_jj varies along the first axis only
                    res = chj.rates @ tab[:, 0] - (mean - chj.states * p_tab[j])
                else:
                    kron = (np.kron(chj.rates, np.eye(chl.n_states))
                            + np.kron(np.eye(chj.n_states), chl.rates))
                    rhs = mean - np.outer(chj.states, p_tab[l])
                    res = kron @ tab.reshape(-1) - rhs.reshape(-1)
                assert np.max(np.abs(res)) < 1e-10

    def test_diag_mean_is_half_c(self):
        nm = two_mode_model()
        for j, c in enumerate(nm.coefficients):
            assert nm.chain_tables.pair_means[j, j] == pytest.approx(-c / 2, rel=1e-12)

    def test_pair_budget_error_names_pair(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(0.5, 1.0, (80, 80))
        np.fill_diagonal(g, 0.0)
        np.fill_diagonal(g, -g.sum(axis=1))
        pi = nz.stationary_law(g)
        s = rng.uniform(-1, 1, 80)
        s -= pi @ s
        big = nz.ChainSpec(s, g)
        nm = nz.NoiseModel(GRID, (big, big), np.ones((2,) + GRID.shape))
        with pytest.raises(ValueError, match=r"mode pair \(0, 1\)"):
            PerturbedTestFunction(TestFunctional("linear", W_SMOOTH), VM, nm, GRID)


class TestDerivatives:
    """Closed-form Frechet derivatives against central finite differences."""

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_all_pieces(self, kind):
        nm = two_mode_model()
        b = PerturbedTestFunction(TestFunctional(kind, W_SMOOTH), VM, nm, GRID)
        rng = np.random.default_rng(5)
        f, n = rand_state(nm, rng)
        h = random_smooth_field(GRID, VM.n_velocities, rng, amplitude=0.7)
        st = b.state(f[None], n[None])
        d = gen._DirData(b, h[None])
        delta = 1e-6
        # f + delta h and f - delta h as one batch of two
        shifted = b.state(np.stack([f + delta * h, f - delta * h]), np.stack([n, n]))
        pieces = [("phi_value", "d_phi"), ("phi1_value", "d_phi1"),
                  ("phi2_sharp", "d_phi2_sharp"), ("phi2_star", "d_phi2_star"),
                  ("phi2_dagger", "d_phi2_dagger")]
        for vname, dname in pieces:
            vp, vm_ = getattr(b, vname)(shifted)
            fd = (vp - vm_) / (2 * delta)
            an = getattr(b, dname)(st, d)[0]
            assert an == pytest.approx(fd, rel=2e-5, abs=2e-7), (vname, kind)


class TestOrderEquations:
    """The eps^-2 and eps^-1 brackets vanish; the O(1) bracket is L phi."""

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_brackets(self, kind):
        nm = two_mode_model()
        b = PerturbedTestFunction(TestFunctional(kind, W_SMOOTH), VM, nm, GRID)
        rng = np.random.default_rng(6)
        for _ in range(10):
            f, n = rand_state(nm, rng)
            b0, b1, b2, b3 = (part[0] for part in b.generator_parts(b.state(f[None], n[None])))
            scale = 1.0 + vel.inner_xv(VM, GRID, f, f)
            lim = b.generator_limit(f @ VM.weights)
            assert abs(b0) < 1e-13 * scale
            assert abs(b1) < 1e-11 * scale
            assert abs(b2 - lim) < 1e-11 * scale

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_brackets_on_a_batch(self, kind):
        nm = two_mode_model()
        b = PerturbedTestFunction(TestFunctional(kind, W_SMOOTH), VM, nm, GRID)
        rng = np.random.default_rng(16)
        states = [rand_state(nm, rng) for _ in range(10)]
        f = np.stack([s[0] for s in states])
        st = b.state(f, np.stack([s[1] for s in states]))
        b0, b1, b2, _ = b.generator_parts(st)
        lim = b.generator_limit(st.rho)
        assert lim.shape == (10,)
        scale = 1.0 + np.sum((f * f) @ VM.weights, axis=1) * GRID.cell_volume
        assert np.all(np.abs(b0) < 1e-13 * scale)
        assert np.all(np.abs(b1) < 1e-11 * scale)
        assert np.all(np.abs(b2 - lim) < 1e-11 * scale)

    def test_relaxation_bracket_zero_for_density_functionals(self):
        # L_L phi = 0 for every implemented functional
        nm = const_mode_model()
        rng = np.random.default_rng(7)
        for b in bundles(nm):
            f, n = rand_state(nm, rng)
            b0 = b.generator_parts(b.state(f[None], n[None]))[0][0]
            assert abs(b0) < 1e-14


class TestBatchOracle:
    """Every member of a batch equals its batch-of-one evaluation."""

    EPS = 0.07

    @staticmethod
    def _model(dim, n_modes):
        rng = np.random.default_rng(20 + n_modes)
        if dim == 1:
            grid, vm, labels = GRID, VM, ["cos:1", "sin:2"]
        else:
            grid, vm, labels = TorusGrid(2, 8), vel.ring(4), ["cos:1,0", "sin:1,1"]
        # a telegraph next to a three-state chain, so the chain tables have
        # different lengths
        chains = (nz.telegraph(1.0, 1.5), three_state_chain(rng))[:n_modes]
        modes = np.stack([nz.make_mode(grid, lab, 0.8) for lab in labels[:n_modes]]) \
            if n_modes else np.zeros((0,) + grid.shape)
        return grid, vm, nz.NoiseModel(grid, chains, modes)

    @staticmethod
    def _all_chain_states(nm, batch):
        """Chain index vectors cycling through every joint state of the model."""
        grids = np.meshgrid(*[np.arange(ch.n_states) for ch in nm.chains], indexing="ij")
        joint = np.stack([g.reshape(-1) for g in grids], axis=1) if nm.n_modes \
            else np.zeros((1, 0), dtype=np.int64)
        return joint[np.arange(batch) % joint.shape[0]]

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("n_modes", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_members_match_batch_of_one(self, dim, n_modes, kind):
        grid, vm, nm = self._model(dim, n_modes)
        x = grid.coords()
        weight = 1.0 + 0.3 * np.cos(2 * np.pi * x[0]) + 0.2 * np.sin(2 * np.pi * x[-1])
        b = PerturbedTestFunction(TestFunctional(kind, weight), vm, nm, grid)
        rng = np.random.default_rng(30 + dim)
        batch = 7
        f = np.stack([random_smooth_field(grid, vm.n_velocities, rng, amplitude=0.5) + 1.0
                      for _ in range(batch)])
        n = self._all_chain_states(nm, batch)
        st = b.state(f, n)
        got = (b.value_eps(st, self.EPS),) + b.generator_parts(st) + (b.bracket(st),)
        for part in got:
            assert part.shape == (batch,)
        for m in range(batch):
            one = b.state(f[m:m + 1], n[m:m + 1])
            solo = (b.value_eps(one, self.EPS),) + b.generator_parts(one) + (b.bracket(one),)
            for k, (part, want) in enumerate(zip(got, solo)):
                assert abs(part[m] - want[0]) <= 1e-12 * (1.0 + abs(want[0])), (m, k)

    @pytest.mark.parametrize("n_modes", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_instrument_equals_one_per_functional(self, dim, n_modes):
        grid, vm, nm = self._model(dim, n_modes)
        x = grid.coords()
        weights = [1.0 + 0.3 * np.cos(2 * np.pi * x[0]), 0.5 + 0.2 * np.sin(2 * np.pi * x[-1])]
        funcs = [TestFunctional("quadratic", weights[0]), TestFunctional("linear", weights[1]),
                 TestFunctional("quadratic", weights[1])]
        bundles_ = [PerturbedTestFunction(tf, vm, nm, grid) for tf in funcs]
        rng = np.random.default_rng(40 + dim)
        batch, n_times = 7, 3
        n = self._all_chain_states(nm, batch)
        joint = GeneratorInstrument(bundles_, self.EPS, n_times, batch)
        solo = [GeneratorInstrument(b, self.EPS, n_times, batch) for b in bundles_]
        for i in range(n_times):
            f = np.stack([random_smooth_field(grid, vm.n_velocities, rng, amplitude=0.5) + 1.0
                          for _ in range(batch)])
            for ins in [joint] + solo:
                ins.observe(i, f, n)
        for k, one in enumerate(solo):
            for name in ("values", "gens", "brackets"):
                assert np.shape(getattr(joint, name)) == (len(funcs), batch, n_times)
                assert np.array_equal(getattr(joint, name)[k], getattr(one, name)), (k, name)

    def test_state_is_the_shared_record_plus_its_pairings(self):
        grid, vm, nm = self._model(2, 2)
        x = grid.coords()
        lin = PerturbedTestFunction(TestFunctional("linear", np.cos(2 * np.pi * x[0])),
                                    vm, nm, grid)
        quad = PerturbedTestFunction(TestFunctional("quadratic", 1.0 + 0.2 * np.sin(
            2 * np.pi * x[1])), vm, nm, grid)
        rng = np.random.default_rng(50)
        f = np.stack([random_smooth_field(grid, vm.n_velocities, rng) + 1.0 for _ in range(5)])
        n = self._all_chain_states(nm, 5)
        rec = lin.record(f, n)  # the record of another functional's bundle
        st, paired = quad.state(f, n), quad.pair(rec)
        assert vars(st).keys() == vars(paired).keys() > vars(rec).keys()
        for key, value in vars(st).items():
            assert np.array_equal(value, getattr(paired, key)), key
        for key, value in vars(rec).items():
            assert np.array_equal(value, getattr(st, key)), key
        for part in (quad.value_eps(st, self.EPS), quad.bracket(st)) + quad.generator_parts(st):
            assert part.shape == (5,)

    def test_chain_tables_are_built_once_per_noise_model(self, monkeypatch):
        calls = []
        for name in ("solve_poisson_pair", "resolvent_solve"):
            def counted(*args, _fn=getattr(nz, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(nz, name, counted)
        grid, vm, nm = self._model(1, 2)
        for _ in range(2):
            bundles(nm, weight=np.ones(grid.shape))
        assert sorted(calls) == ["resolvent_solve"] * 4 + ["solve_poisson_pair"] * 2

    def test_state_rejects_bad_shapes_and_indices(self):
        nm = two_mode_model()
        b = bundles(nm)[0]
        f = np.ones((3,) + GRID.shape + (2,))
        with pytest.raises(ValueError, match="batch of kinetic fields"):
            b.state(f[0], [[0, 0]])
        with pytest.raises(ValueError, match="one chain state index per mode"):
            b.state(f, [[0, 0]] * 2)
        with pytest.raises(ValueError, match="out of range"):
            b.state(f, [[0, 0], [0, 2], [0, 0]])


class TestGeneratorEps:
    def test_flat_state_no_noise_gives_zero(self):
        # linear phi with w = 1, no noise, velocity-independent f:
        # L_eps phi_eps = (div K grad rho, 1) = 0 on the torus
        nm = no_noise_model()
        b = PerturbedTestFunction(TestFunctional("linear", np.ones(GRID.shape)),
                                  VM, nm, GRID)
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * X)
        f = vel.lift(VM, rho)
        ins = GeneratorInstrument(b, 0.1, 1)
        ins.observe(0, f[None], np.zeros((1, 0), dtype=int))
        assert abs(ins.gens[0, 0]) < 1e-12

    def test_epsilon_scaling_ratio(self):
        # residual |L_eps phi_eps - L phi| halves when eps halves
        nm = const_mode_model()
        rng = np.random.default_rng(8)
        for b in bundles(nm):
            states = [rand_state(nm, rng) for _ in range(30)]
            res = residual_scaling(b, states, [0.2, 0.1, 0.05])
            ratios = np.median(res[:, :-1] / res[:, 1:], axis=0)
            assert np.all(ratios > 1.7) and np.all(ratios < 2.3)

    def test_corrector_bounds_subquadratic(self):
        # |phi1|, |phi2| <= C (1 + ||f||^2): estimate C on a calibration set,
        # then assert with margin over 10^3 random states of varied size
        nm = two_mode_model()
        for b in bundles(nm):
            rng = np.random.default_rng(9)

            def ratio(f, n):
                denom = 1.0 + vel.inner_xv(VM, GRID, f, f)
                st = b.state(f[None], n[None])
                return max(abs(b.phi1_value(st)[0]), abs(b._phi2(st)[0])) / denom

            cal = []
            for _ in range(100):
                amp = rng.uniform(0.1, 10.0)
                f, n = rand_state(nm, rng)
                cal.append(ratio(amp * f, n))
            c_est = 1.5 * max(cal)
            for _ in range(1000):
                amp = rng.uniform(0.1, 10.0)
                f, n = rand_state(nm, rng)
                assert ratio(amp * f, n) <= c_est


class TestGeneratorLimit:
    def test_linear_closed_form(self):
        nm = const_mode_model()
        b = bundles(nm, weight=W_SMOOTH)[0]
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * X) + 0.2 * np.sin(4 * np.pi * X)
        # oracle: assemble (div K grad rho + F rho / 2, w) spectrally
        rho_hat = np.fft.fft(rho)
        k = np.fft.fftfreq(32) * 32
        k[16] = 0.0
        lap = np.fft.ifft(-(2 * np.pi * k) ** 2 * rho_hat).real
        oracle = GRID.inner(lap + 0.5 * nm.trace_field() * rho, W_SMOOTH)
        assert b.generator_limit(rho) == pytest.approx(oracle, rel=1e-12)

    def test_quadratic_unit_weight_constant_mode(self):
        # quadratic phi, w = 1, one constant mode: the transport term drops and
        # L phi = F (rho,1)^2 / 2 + c (rho,1)^2 / 2
        nm = const_mode_model()
        b = PerturbedTestFunction(TestFunctional("quadratic", np.ones(GRID.shape)),
                                  VM, nm, GRID)
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * X)
        c = nm.coefficients[0]
        mass = GRID.inner(rho, np.ones(GRID.shape))
        expected = 0.5 * c * mass ** 2 + 0.5 * c * mass ** 2
        assert b.generator_limit(rho) == pytest.approx(expected, rel=1e-12)

    def test_zero_density(self):
        nm = two_mode_model()
        for b in bundles(nm):
            assert b.generator_limit(np.zeros(GRID.shape)) == 0.0


class TestMartingale:
    def _run(self, nm, eps, n_traj, T, n_times, seed, kinds=("linear",)):
        grid = TorusGrid(1, 64)
        x = grid.coords()[0]
        vmm = vel.two_speed()
        f0 = vel.lift(vmm, 1.0 + 0.5 * np.cos(2 * np.pi * x))
        cfg = kinetic.SolverConfig(epsilon=eps, dt_factor=0.1, final_time=T)
        times = np.linspace(0.0, T, n_times)
        ins = [GeneratorInstrument(PerturbedTestFunction(
            TestFunctional(kind, np.ones(grid.shape)), vmm, nm, grid), eps, n_times, n_traj)
            for kind in kinds]
        rngs = [make_stream(seed, 0, 0, i) for i in range(n_traj)]
        res = kinetic.solve_batch(f0, cfg, vmm, grid, nm, rngs, times, instruments=ins)
        assert res.failures == {}
        values = {k: one.values for k, one in zip(kinds, ins)}
        gens = {k: one.gens for k, one in zip(kinds, ins)}
        bracks = {k: one.brackets for k, one in zip(kinds, ins)}
        return res.times, values, gens, bracks

    def test_zero_noise_reduces_to_quadrature_error(self):
        grid = TorusGrid(1, 64)
        nm = nz.NoiseModel(grid, (), np.zeros((0, 64)))
        times, values, gens, _ = self._run(nm, 0.1, 1, 0.1, 33, seed=50)
        mart = np.asarray(values["linear"]) - values["linear"][0][0] \
            - gen._cumtrapz(times, np.asarray(gens["linear"]))
        # deterministic: no martingale part, only quadrature error remains
        assert np.max(np.abs(mart)) < 1e-6

    def test_zero_mean_and_quadratic_variation(self):
        grid = TorusGrid(1, 64)
        nm = nz.NoiseModel(grid, (nz.telegraph(1.0, 1.0),),
                           nz.make_mode(grid, "const")[None])
        times, values, gens, bracks = self._run(nm, 0.1, 120, 0.25, 26, seed=51)
        rep = martingale_residual(times, np.asarray(values["linear"]),
                                  np.asarray(gens["linear"]),
                                  np.asarray(bracks["linear"]))
        mid, end = 13, 25
        for idx in (mid, end):
            assert abs(rep.mean[idx]) <= 3 * rep.stderr[idx]
            assert abs(rep.qv_gap_mean[idx]) <= 3 * rep.qv_gap_stderr[idx] + 0.05

    def test_failing_member_leaves_other_rows(self):
        # member 1 sits in a huge chain state and overflows; the others flip
        # between the two moderate states on scripted paths
        grid = TorusGrid(1, 16)
        x = grid.coords()[0]
        chain = three_state_chain(np.random.default_rng(40), top=60.0)
        nm = nz.NoiseModel(grid, (chain,), nz.make_mode(grid, "const")[None])
        horizon = 1000.0

        def path(start, jumps=()):
            states = (start + 1 + np.arange(len(jumps))) % 2
            return nz.NoisePath(horizon, np.array([start]), (np.asarray(jumps, dtype=float),),
                                (states.astype(int),))

        paths = [path(0, [3.0, 17.0]), path(2), path(1, [5.5]), path(0)]
        f0 = vel.lift(VM, 1.0 + 0.5 * np.cos(2 * np.pi * x))
        eps = 0.05
        cfg = kinetic.SolverConfig(epsilon=eps, dt_factor=0.1, final_time=0.1)
        times = np.linspace(0.0, 0.1, 9)
        weights = [TestFunctional(kind, 1.0 + 0.3 * np.cos(2 * np.pi * x))
                   for kind in ("linear", "quadratic")]
        bundles_ = [PerturbedTestFunction(tf, VM, nm, grid) for tf in weights]
        ins = [GeneratorInstrument(bd, eps, len(times), len(paths)) for bd in bundles_]
        res = kinetic.solve_batch(f0, cfg, VM, grid, nm, None, times, instruments=ins,
                                  paths=paths)
        assert list(res.failures) == [1]
        assert isinstance(res.failures[1], kinetic.TrajectoryOverflowError)
        for m in res.finished:
            solo = [GeneratorInstrument(bd, eps, len(times)) for bd in bundles_]
            kinetic.solve_trajectory(f0, cfg, VM, grid, nm, None, times, instruments=solo,
                                     path=paths[m])
            for one, batch in zip(solo, ins):
                for name in ("values", "gens", "brackets"):
                    row, want = getattr(batch, name)[m], getattr(one, name)[0]
                    assert np.all(np.isfinite(row))
                    assert np.allclose(row, want, rtol=1e-10, atol=1e-10), (m, name)

    def test_minimum_ensemble_enforced(self):
        with pytest.raises(ValueError):
            martingale_residual(np.array([0.0, 1.0]), np.zeros((5, 2)),
                                np.zeros((5, 2)), np.zeros((5, 2)))


def test_residual_scaling_shapes():
    nm = const_mode_model()
    b = bundles(nm)[0]
    rng = np.random.default_rng(10)
    states = [rand_state(nm, rng) for _ in range(4)]
    out = residual_scaling(b, states, [0.2, 0.1])
    assert out.shape == (4, 2)
    assert np.all(out >= 0)
    for row, (f, n) in zip(out, states):
        lim = b.generator_limit(f @ VM.weights)
        scale = 1.0 + vel.inner_xv(VM, GRID, f, f)
        b0, b1, b2, b3 = (part[0] for part in b.generator_parts(b.state(f[None], n[None])))
        want = [abs(b0 / (e * e) + b1 / e + b2 + e * b3 - lim) / scale for e in (0.2, 0.1)]
        assert row == pytest.approx(want, rel=1e-10, abs=1e-14)
