"""Integrator for the limit stochastic diffusion equation.

    d rho = div(K grad rho) dt + (1/2) F rho dt + rho sum_j sqrt(c_j) eta_j dbeta_j

A batch is held as real fields with a leading batch axis; a step of length dt is

    rho <- irfft(rfft(rho) * exp(-4 pi^2 xi^T K xi dt)) * exp(sum_j sqrt(c_j) eta_j dbeta_j),

the exact heat flow (its half-spectrum multiplier built once per call) and then
the geometric noise multiplier (its exponent one matrix product per step, formed
in a preallocated buffer).  On a 1-d grid of at most DENSE_HEAT_MAX_N points the
heat flow is instead one product with its n x n matrix, the same rfft map applied
to the identity once per call; it is a symmetric circulant whose rows sum to 1.
Above that size the FFT pair is cheaper, and 2-d grids always take it.
The multiplier's mean is exp(F dt / 2) since sum_j c_j eta_j^2 = F, so it carries
the Ito drift, is exact in law at frozen x, and preserves positivity.  Q^{1/2} is
never formed: beta -> sum_j sqrt(c_j) eta_j beta_j has covariance Q by construction.

`solve_spde_batch` is the only stepper: a single trajectory is its batch of one
and a single step a call with n_steps = 1.  The caller supplies the Gaussian
increments; `harness.limit_batch` draws them from each member's stream.
"""

from dataclasses import dataclass

import numpy as np

from . import velocity as vel
from .grid import TorusGrid
from .noise import NoiseModel
from .velocity import VelocityModel

DEFAULT_STEPS = 2048
# largest 1-d grid stepped with the dense heat matrix.  One heat step of a
# 32-member batch, dense product vs rfft pair (2 cores, numpy 2.4): 5 vs 23 us
# at n = 64, 26 vs 32 us at 128, 68 vs 49 us at 256
DENSE_HEAT_MAX_N = 128


class LimitOverflowError(RuntimeError):
    """A limit record's L2 norm exceeded kinetic.OVERFLOW_NORM or is not finite."""


@dataclass
class LimitCoefficients:
    """Effective coefficients (K, c_j, eta_j, F) of the limit equation."""

    grid: TorusGrid
    K: np.ndarray         # (d, d)
    c: np.ndarray         # (J,)
    modes: np.ndarray     # (J, *grid.shape)

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.modes = np.asarray(self.modes, dtype=float)
        if self.modes.shape != (self.c.shape[0],) + self.grid.shape:
            raise ValueError("mode table shape mismatch")
        # sqrt(c_j) eta_j, the noise factor applied to the increments
        self.root_factors = np.sqrt(np.clip(self.c, 0.0, None))[
            (slice(None),) + (None,) * self.grid.dim
        ] * self.modes
        # heat multiplier exponent: -4 pi^2 xi^T K xi on the odd-symmetric frequencies
        xi = np.stack(self.grid.freqs_odd)
        self.heat_exponent = -4.0 * np.pi ** 2 * np.einsum("p...,pq,q...->...", xi, self.K, xi)

    @property
    def n_modes(self) -> int:
        return self.c.shape[0]

    @classmethod
    def from_models(cls, vm: VelocityModel, nm: NoiseModel, grid: TorusGrid):
        return cls(grid=grid, K=vel.diffusion_matrix(vm), c=nm.coefficients, modes=nm.modes)

    def trace_field(self) -> np.ndarray:
        """F(x) = sum_j c_j eta_j(x)^2, recomputed from the factor form."""
        if self.n_modes == 0:
            return np.zeros(self.grid.shape)
        return np.einsum("j...,j...->...", self.root_factors, self.root_factors)


def _heat(rho, mult, grid: TorusGrid):
    """irfft(rfft(rho) * mult) for real fields (batch, *grid.shape)."""
    # rfftn/irfftn over one axis give the same bits but cost about 11/3 us more
    if grid.dim == 1:
        return np.fft.irfft(np.fft.rfft(rho) * mult, n=grid.n)
    return np.fft.irfftn(np.fft.rfftn(rho, axes=(-2, -1)) * mult, s=grid.shape, axes=(-2, -1))


def drift_consistency(coeffs: LimitCoefficients, trace_field) -> float:
    """Max-norm gap between (1/2) sum_j c_j eta_j^2 and (1/2) F.

    Both sides are built from the same coefficients, so this is a regression
    guard for the Ito-Stratonovich bookkeeping: it must vanish to rounding.
    """
    lhs = 0.5 * coeffs.trace_field()
    rhs = 0.5 * np.asarray(trace_field, dtype=float)
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0


def solve_spde_batch(rho0, final_time, n_steps, coeffs: LimitCoefficients,
                     increments, output_steps):
    """Evolve a batch of trajectories with the supplied Gaussian increments.

    ``increments`` has shape (batch, n_steps, J); ``output_steps`` lists the
    step indices at which the batch is recorded (an index may repeat).  Returns
    an array of shape (batch, n_out, *grid.shape); a member that overflows
    records inf or nan, without a warning.
    """
    grid, n_modes = coeffs.grid, coeffs.n_modes
    dt = final_time / n_steps
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[1:] != (n_steps, n_modes):
        raise ValueError(f"increments must have shape (batch, n_steps, J) = "
                         f"(batch, {n_steps}, {n_modes}), got {increments.shape}")
    # even in xi with the Nyquist bins zeroed: the rfft half spectrum is exact
    mult = np.exp(coeffs.heat_exponent[..., :grid.n // 2 + 1] * dt)
    factors = coeffs.root_factors.reshape(n_modes, grid.npoints)
    batch = increments.shape[0]
    rho = np.array(np.broadcast_to(rho0, (batch,) + grid.shape), dtype=float)
    where = np.asarray(output_steps)
    recorded = set(where.tolist())
    out = np.empty((batch, where.size) + grid.shape)
    out[:, where == 0] = rho[:, None]
    dense = grid.dim == 1 and grid.n <= DENSE_HEAT_MAX_N
    if dense:
        heat = _heat(np.eye(grid.n), mult, grid)
        spare = np.empty_like(rho)
    noise = np.empty((batch, grid.npoints))
    # a member that overflows carries inf or nan into its record, which the
    # caller counts as a failure (harness.limit_batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if dense:
                rho, spare = np.matmul(rho, heat, out=spare), rho
            else:
                rho = _heat(rho, mult, grid)
            if n_modes:
                np.dot(increments[:, k], factors, out=noise)
                rho *= np.exp(noise, out=noise).reshape(rho.shape)
            if k + 1 in recorded:
                out[:, where == k + 1] = rho[:, None]
    return out

