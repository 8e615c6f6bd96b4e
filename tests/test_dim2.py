"""Two-dimensional torus: the same contracts hold with the ring velocity set."""

import numpy as np
import pytest

from kindiff import kinetic
from kindiff import noise as nz
from kindiff import velocity as vel
from kindiff.generator import PerturbedTestFunction, TestFunctional, random_smooth_field
from kindiff.grid import TorusGrid
from kindiff.harness import make_stream

GRID = TorusGrid(2, 16)
VM = vel.ring(4)
XS = GRID.coords()


def two_mode_model():
    modes = np.stack([nz.make_mode(GRID, "cos:1,0"),
                      nz.make_mode(GRID, "sin:0,1", 0.7)])
    return nz.NoiseModel(GRID, (nz.telegraph(1.0, 1.0), nz.telegraph(0.8, 2.0)),
                         modes)


def test_generator_brackets_cancel():
    nm = two_mode_model()
    w = 1.0 + 0.3 * np.cos(2 * np.pi * XS[0]) * np.sin(2 * np.pi * XS[1])
    rng = np.random.default_rng(3)
    for kind in ("linear", "quadratic"):
        b = PerturbedTestFunction(TestFunctional(kind, w), VM, nm, GRID)
        for _ in range(4):
            f = random_smooth_field(GRID, 4, rng) + 1.0
            n = nm.sample_stationary(rng)
            b0, b1, b2, _ = (part[0] for part in b.generator_parts(b.state(f[None], n[None])))
            lim = b.generator_limit(f @ VM.weights)
            scale = 1.0 + vel.inner_xv(VM, GRID, f, f)
            assert abs(b0) < 1e-13 * scale
            assert abs(b1) < 1e-11 * scale
            assert abs(b2 - lim) < 1e-11 * scale


def test_transport_unitarity_and_diagonal_shift():
    rng = np.random.default_rng(4)
    f = random_smooth_field(GRID, 4, rng)
    out = kinetic.step_transport(f, 0.13, 0.5, VM, GRID)
    assert vel.norm_xv(VM, GRID, out) == pytest.approx(
        vel.norm_xv(VM, GRID, f), abs=1e-12)
    # one grid cell along the first axis for the (1, 0) velocity
    out = kinetic.step_transport(f, 1.0 / 16, 1.0, VM, GRID)
    assert out[..., 0] == pytest.approx(np.roll(f[..., 0], 1, axis=0), abs=1e-12)


def test_heat_limit_with_half_identity_K():
    nm = nz.NoiseModel(GRID, (), np.zeros((0, 16, 16)))
    rho0 = 1.0 + 0.3 * np.cos(2 * np.pi * XS[0])
    f0 = vel.lift(VM, rho0)
    assert vel.diffusion_matrix(VM) == pytest.approx(np.diag([0.5, 0.5]))
    T = 0.08
    errs = []
    for eps in (0.2, 0.1):
        cfg = kinetic.SolverConfig(epsilon=eps, dt_factor=0.1, final_time=T)
        res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                       make_stream(1, 0, 0, 0), [T])
        exact = 1.0 + 0.3 * np.exp(-4 * np.pi ** 2 * 0.5 * T) * np.cos(2 * np.pi * XS[0])
        errs.append(GRID.norm(res.rho[-1] - exact))
    assert errs[0] > errs[1]
    assert errs[1] < 2e-2


def test_noisy_trajectory_runs_with_mass_positivity():
    nm = two_mode_model()
    rho0 = 1.0 + 0.3 * np.cos(2 * np.pi * XS[0])
    f0 = vel.lift(VM, rho0)
    cfg = kinetic.SolverConfig(epsilon=0.2, dt_factor=0.1, final_time=0.08)
    res = kinetic.solve_trajectory(f0, cfg, VM, GRID, nm,
                                   make_stream(1, 0, 0, 1), [0.04, 0.08])
    assert np.all(np.isfinite(res.rho))
    assert np.min(res.rho) > 0
    assert res.gronwall_margin <= 0
