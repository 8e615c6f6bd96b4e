"""Integrator for the limit stochastic diffusion equation.

    d rho = div(K grad rho) dt + (1/2) F rho dt + rho sum_j sqrt(c_j) eta_j dbeta_j

A batch is held points-major, as real fields (*grid.shape, batch) with the
members on the contiguous axis; a step of length dt is

    rho <- irfft(rfft(rho) * exp(-4 pi^2 xi^T K xi dt)) * exp(sum_j sqrt(c_j) eta_j dbeta_j),

the exact heat flow over the grid axes (`TorusGrid.rfft`/`irfft` from axis 0,
its half-spectrum multiplier built once per call) and then the geometric
noise multiplier, whose (points, batch) exponent is one (points, J) @
(J, batch) product per step into a preallocated buffer.  On a 1-d grid of at most DENSE_HEAT_MAX_N points the heat flow is
instead one (n, n) @ (n, batch) product with its matrix, the same rfft map
applied to the identity once per call; it is a symmetric circulant whose rows
sum to 1.  Above that size the FFT pair is cheaper, and 2-d grids always take
it.  Step k reads the increments of every member as one contiguous (J, batch)
block of a step-major array.
The multiplier's mean is exp(F dt / 2) since sum_j c_j eta_j^2 = F, so it carries
the Ito drift, is exact in law at frozen x, and preserves positivity; the tests
check that identity with `drift_consistency` in tests/oracles.py.  Q^{1/2} is
never formed: beta -> sum_j sqrt(c_j) eta_j beta_j has covariance Q by construction.

When every noise mode is constant in x (every row of the (points, J) factor
table is the same, as on scalar_mode.json and martingale.json, and vacuously
for J = 0) the noise commutes with the heat flow, and the solution is exact:

    rho(k dt) = exp(k dt div K grad) rho0 * exp(sum_j sqrt(c_j) eta_j (dW_0 + ... + dW_{k-1})).

`solve_spde_batch` then takes no step: it builds each record from rho0 under
the half-spectrum multiplier exp(-4 pi^2 xi^T K xi k dt), one FFT pair per
call, and a running sum of the increments.  The stepped scheme is exact there
too, and the two agree to rounding: within 2.5e-13 relative, element by element,
on the limit records of the shipped configs.

`solve_spde_batch` is the only limit solver: a single trajectory is its batch
of one and a single step a call with n_steps = 1.  The caller supplies the
Gaussian increments; `harness.limit_batch` draws them from each member's stream.

Batch width: in the step loop BLAS picks its column kernels by the batch width,
so a member's record can round differently in batches of different widths, by
up to about 2e-15 relative.  Against the same members in a 300-member batch
(OpenBLAS 0.3.31), rows were bitwise equal for every width B with B % 8 = 0,
and for B <= 244 also with B % 8 in {5, 6, 7}.  Bitwise reproducible outputs
therefore need a fixed batch makeup, which `harness` derives from the ensemble
size alone.  The closed form mixes no members, so there a member's record has
the same bits in a batch of any width.
"""

from dataclasses import dataclass

import numpy as np

from . import velocity as vel
from .grid import TorusGrid
from .noise import NoiseModel
from .velocity import VelocityModel

DEFAULT_STEPS = 2048
# largest 1-d grid stepped with the dense heat matrix.  One points-major heat
# step, dense product vs rfft pair (one thread, numpy 2.4, OpenBLAS 0.3.31):
# 8 vs 48 us at n = 64, 26-28 vs 42-71 us at 128, 101-142 vs 80-113 us at 256
# for 32 members; 27 vs 120 us, 118-125 vs 211-218 us, 465-506 vs 276-404 us
# for 128 members
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


def _heat(rho, mult, grid: TorusGrid):
    """irfft(rfft(rho) * mult) over the grid axes of real fields (*grid.shape, batch)."""
    return grid.irfft(grid.rfft(rho, 0) * mult, 0)


def solve_spde_batch(rho0, final_time, n_steps, coeffs: LimitCoefficients,
                     increments, output_steps):
    """Evolve a batch of trajectories with the supplied Gaussian increments.

    ``rho0`` is one field (*grid.shape) shared by the batch or one field per
    member (batch, *grid.shape); ``increments`` has shape (batch, n_steps, J);
    ``output_steps`` lists the integer step indices in [0, n_steps] at which
    the batch is recorded (an index may repeat).  Returns an array of shape
    (batch, n_out, *grid.shape); a member that overflows records inf or nan,
    without a warning.  Noise modes that are all constant in x take the closed
    form instead of the step loop (see the module docstring).
    """
    grid, n_modes = coeffs.grid, coeffs.n_modes
    dt = final_time / n_steps
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[1:] != (n_steps, n_modes):
        raise ValueError(f"increments must have shape (batch, n_steps, J) = "
                         f"(batch, {n_steps}, {n_modes}), got {increments.shape}")
    where = np.asarray(output_steps)
    if where.size and (where.dtype.kind not in "iu" or where.min() < 0 or where.max() > n_steps):
        raise ValueError(f"output_steps must be integers in [0, {n_steps}], "
                         f"got {where.tolist()}")
    batch = increments.shape[0]
    # step-major (n_steps, J, batch): no copy when the caller drew them so
    steps = np.ascontiguousarray(increments.transpose(1, 2, 0))
    factors = coeffs.root_factors.reshape(n_modes, grid.npoints).T
    # with J = 0 the empty table passes too, so the step loop below has J >= 1
    if np.all(factors == factors[:1]):
        return _closed_form(rho0, dt, coeffs, steps, where)
    rho = np.moveaxis(np.broadcast_to(rho0, (batch,) + grid.shape), 0, -1).copy()
    # even in xi with the Nyquist bins zeroed: the rfft half spectrum is exact
    mult = np.exp(coeffs.heat_exponent[..., :grid.n // 2 + 1] * dt)[..., None]
    recorded = set(where.tolist())
    out = np.empty((batch, where.size) + grid.shape)
    out[:, where == 0] = np.moveaxis(rho, -1, 0)[:, None]
    dense = grid.dim == 1 and grid.n <= DENSE_HEAT_MAX_N
    if dense:
        heat = _heat(np.eye(grid.n), mult, grid)
        spare = np.empty_like(rho)
    noise = np.empty((grid.npoints, batch))
    # a member that overflows carries inf or nan into its record, which the
    # caller counts as a failure (harness.limit_batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if dense:
                rho, spare = np.matmul(heat, rho, out=spare), rho
            else:
                rho = _heat(rho, mult, grid)
            np.matmul(factors, steps[k], out=noise)
            rho *= np.exp(noise, out=noise).reshape(rho.shape)
            if k + 1 in recorded:
                out[:, where == k + 1] = np.moveaxis(rho, -1, 0)[:, None]
    return out


def _closed_form(rho0, dt, coeffs: LimitCoefficients, steps, where):
    """The records of solve_spde_batch in closed form, for noise modes constant in x.

    Such noise commutes with the heat flow, so the record at step k is
    exp(k dt div K grad) rho0 * exp(sum_j sqrt(c_j) eta_j (dW_0 + ... + dW_{k-1})).
    """
    grid = coeffs.grid
    n_modes, batch = steps.shape[1:]
    amplitudes = coeffs.root_factors.reshape(n_modes, grid.npoints)[:, 0]
    times, at = np.unique(where, return_inverse=True)
    # the heat flow of rho0 to each distinct output step, points-major
    # (*grid.shape, fields, times) with one field, or one per member
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != grid.shape:
        rho0 = np.broadcast_to(rho0, (batch,) + grid.shape)
    fields = np.moveaxis(rho0.reshape((-1,) + grid.shape), 0, -1)[..., None]
    mult = np.exp(coeffs.heat_exponent[..., :grid.n // 2 + 1, None, None] * (times * dt))
    heated = _heat(np.broadcast_to(fields, fields.shape[:-1] + times.shape), mult, grid)
    heated[..., times == 0] = fields
    # the noise exponent of each member at each distinct output step, from a
    # running sum of its increments in step order and a product per mode, so
    # a member's bits do not depend on the batch
    total = np.zeros((n_modes, batch))
    exponent = np.zeros((times.size, batch))
    done = 0
    for u, stop in enumerate(times):
        for k in range(done, stop):
            total += steps[k]
        done = stop
        for j in range(n_modes):
            exponent[u] += amplitudes[j] * total[j]
    # (fields, times, *grid.shape) records times (batch, times) multipliers
    heated = np.moveaxis(heated, (-2, -1), (0, 1))[:, at]
    with np.errstate(over="ignore", invalid="ignore"):
        noise = np.exp(exponent.T[:, at])
        return heated * noise[(...,) + (None,) * grid.dim]
