"""Reference oracles and helpers that only the tests call.

The kinetic oracle composes the three exact sub-flows of

    df/dt + (1/eps) a(v).grad_x f = (1/eps^2)(rho - f) + (1/eps) m(t/eps^2, x) f

literally, one sub-flow at a time on full complex spectra: transport by a
spectral phase shift, relaxation by the explicit flow rho + e^{-t}(f - rho),
and the multiplier by a pointwise exponential while the noise state is
frozen.  `advance` splits a macroscopic step Strang-style at every noise jump
inside it, and `kinetic.KineticStepper` is tested against it to 1e-12 where
the noise varies in x.  Where it is constant in x, the multiplier commutes
with the other two sub-flows, and the stepper is tested to 1e-12 against
`closed_form`: the noise-free `advance` times exp(eps I), with the path
integral I summed literally over the path's segments.

The noise-path helpers are the sampler the package used before its
Python-float loop, kept as the reference that loop must match bitwise.
The other helpers are the covariance kernel and operator of the noise, the
Poisson field M^{-1}I, pathwise sup bounds, the BGK operator, the L2_{x,v}
norm and the drift identity of the limit equation: the tests state their
assertions through them, and no command runs them.
"""

import numpy as np

from kindiff import velocity
from kindiff.grid import TorusGrid
from kindiff.kinetic import BatchResult
from kindiff.noise import ChainSpec, NoiseModel, NoisePath
from kindiff.spde import LimitCoefficients
from kindiff.velocity import VelocityModel

# ---------------------------------------------------------------------------
# noise


def zero_chain() -> ChainSpec:
    """Degenerate single-state chain frozen at 0."""
    return ChainSpec(np.array([0.0]), np.array([[0.0]]))


def sample_stationary_by_choice(model: NoiseModel, rng) -> np.ndarray:
    """Stationary state indices drawn by rng.choice, one call per chain."""
    return np.array([rng.choice(ch.n_states, p=ch.stationary) for ch in model.chains],
                    dtype=np.int64)


def simulate_chain_by_search(chain: ChainSpec, start: int, horizon: float, rng):
    """One chain path on numpy scalars: an array search of the jump CDF per jump."""
    t_list, s_list = [], []
    i = start
    t = 0.0
    while True:
        rate = chain.exit_rates[i]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        i = int(chain.jump_cdf[i].searchsorted(rng.random(), side="right"))
        t_list.append(t)
        s_list.append(i)
    return np.asarray(t_list, dtype=float), np.asarray(s_list, dtype=np.int64)


def simulate_path_by_search(model: NoiseModel, horizon: float, rng) -> NoisePath:
    """`NoiseModel.simulate_path` drawn through the two helpers above."""
    initial = sample_stationary_by_choice(model, rng)
    runs = [simulate_chain_by_search(ch, int(i0), horizon, rng)
            for ch, i0 in zip(model.chains, initial)]
    return NoisePath(horizon, initial, tuple(t for t, _ in runs), tuple(s for _, s in runs))


def field(model: NoiseModel, state_indices) -> np.ndarray:
    """m(x) for the given chain states."""
    return model.combine(model.values(state_indices))


def m_inverse_field(model: NoiseModel, state_indices) -> np.ndarray:
    """M^{-1}I(n)(x) = sum_j phi_j(n_j) eta_j(x)."""
    vals = [p[i] for p, i in zip(model.poisson_identity, state_indices)]
    return model.combine(vals)


def kernel_and_trace(model: NoiseModel):
    """Covariance kernel k(x,y) (flattened grid x grid) and its trace F(x).

    Assembled from the square-root factors sqrt(c_j) eta_j, which makes
    the symmetry k(x,y) = k(y,x) exact in floating point.
    """
    if model.n_modes == 0:
        return np.zeros((model.grid.npoints, model.grid.npoints)), model.trace_field()
    scaled = (np.sqrt(np.clip(model.coefficients, 0.0, None))[:, None]
              * model.modes.reshape(model.n_modes, -1))
    k = np.einsum("jx,jy->xy", scaled, scaled)
    return k, model.trace_field()


def apply_Q(model: NoiseModel, f) -> np.ndarray:
    """Covariance operator (Qf)(x) = sum_j c_j eta_j(x) (eta_j, f)."""
    f = np.asarray(f, dtype=float)
    if f.shape != model.grid.shape:
        raise ValueError("field does not live on the model grid")
    proj = np.array([model.grid.inner(m, f) for m in model.modes])
    return model.combine(model.coefficients * proj)


def segments_between(path: NoisePath, a: float, b: float):
    """Yield (t0, t1, segment_index) covering [a, b] with constant states."""
    if b < a or a < -1e-12 or b > path.horizon * (1 + 1e-12) + 1e-12:
        raise ValueError("window not covered by the path")
    idx = int(np.searchsorted(path.seg_times, a, side="right")) - 1
    idx = min(max(idx, 0), path.seg_states.shape[0] - 1)
    t0 = a
    while t0 < b:
        t1 = min(float(path.seg_times[idx + 1]), b)
        if t1 > t0:
            yield t0, t1, idx
        t0 = t1
        if t0 < b:
            idx += 1


def sup_bounds(path: NoisePath, model: NoiseModel):
    """Pathwise sup of |m| and |M^{-1}I(m)| over all segments (for the bound C_*)."""
    sup_m, sup_inv = 0.0, 0.0
    for row in path.seg_states:
        sup_m = max(sup_m, float(np.max(np.abs(field(model, row)))) if model.n_modes else 0.0)
        sup_inv = max(
            sup_inv,
            float(np.max(np.abs(m_inverse_field(model, row)))) if model.n_modes else 0.0,
        )
    return sup_m, sup_inv


# ---------------------------------------------------------------------------
# velocity space


def relax(model: VelocityModel, f) -> np.ndarray:
    """Relaxation (BGK) operator L f = rho - f."""
    f = np.asarray(f)
    return velocity.average(model, f)[..., None] - f


def norm_xv(model: VelocityModel, grid, f) -> float:
    return float(np.sqrt(max(velocity.inner_xv(model, grid, f, f), 0.0)))


# ---------------------------------------------------------------------------
# the literal kinetic oracle


def shift_phase(grid: TorusGrid, shifts):
    """Translation multipliers for f(x) -> f(x - shift_i) per trailing column.

    ``shifts`` has shape (m, dim); the result has shape shape + (m,) and uses
    the full frequency set so that grid-multiple shifts reproduce np.roll.
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    expo = np.zeros(grid.shape + (shifts.shape[0],), dtype=complex)
    for d in range(grid.dim):
        expo += -2j * np.pi * grid.freqs[d][..., None] * shifts[:, d]
    return np.exp(expo)


def step_transport(f, tau, eps, model: VelocityModel, grid: TorusGrid):
    """Exact free transport over macroscopic time tau: f(x,v) -> f(x - a(v) tau/eps, v)."""
    if tau == 0.0:
        return np.array(f, dtype=float, copy=True)
    shifts = model.velocities * (tau / eps)
    phase = shift_phase(grid, shifts)
    return grid.ifft(grid.fft(np.asarray(f, dtype=float)) * phase)


def step_collision(f, tau, eps, model: VelocityModel):
    """Exact relaxation flow over macroscopic tau: f -> rho + e^{-tau/eps^2}(f - rho)."""
    f = np.asarray(f, dtype=float)
    rho = velocity.average(model, f)[..., None]
    theta = np.exp(-tau / (eps * eps))
    return rho + theta * (f - rho)


def step_noise_multiplication(f, interval, eps, m_field):
    """Exact multiplier over a window where m is frozen: f -> f exp(m |interval| / eps)."""
    f = np.asarray(f, dtype=float)
    return f * np.exp(np.asarray(m_field) * (abs(interval) / eps))[..., None]


def advance(f, dt, eps, model: VelocityModel, grid: TorusGrid,
            noise: NoiseModel, path: NoisePath, t_start: float = 0.0):
    """One macroscopic step over [t_start, t_start + dt], sub-stepped at noise jumps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a_micro = t_start / (eps * eps)
    b_micro = (t_start + dt) / (eps * eps)
    out = np.asarray(f, dtype=float)
    for ta, tb, seg in segments_between(path, a_micro, b_micro):
        h = (tb - ta) * eps * eps
        m_field = field(noise, path.seg_states[seg])
        out = step_collision(out, 0.5 * h, eps, model)
        out = step_transport(out, 0.5 * h, eps, model, grid)
        out = step_noise_multiplication(out, h, eps, m_field)
        out = step_transport(out, 0.5 * h, eps, model, grid)
        out = step_collision(out, 0.5 * h, eps, model)
    return out


def path_integral(noise: NoiseModel, path: NoisePath, b: float) -> np.ndarray:
    """int_0^b m(s, x) ds, a field, summed over `segments_between`."""
    return sum(((t1 - t0) * field(noise, path.seg_states[seg])
                for t0, t1, seg in segments_between(path, 0.0, b)), np.zeros(noise.grid.shape))


def noise_free(f0, n_steps, dt, eps, model: VelocityModel, grid: TorusGrid) -> list:
    """f_det at the steps 0 .. n_steps: `advance` with no noise, one piece per step."""
    calm = NoiseModel(grid, (), np.zeros((0,) + grid.shape))
    still = NoisePath(n_steps * dt / (eps * eps), np.zeros(0, dtype=np.int64), (), ())
    out = [np.asarray(f0, dtype=float)]
    for k in range(n_steps):
        out.append(advance(out[-1], dt, eps, model, grid, calm, still, t_start=k * dt))
    return out


def closed_form(f0, n_steps, dt, eps, model: VelocityModel, grid: TorusGrid,
                noise: NoiseModel, path: NoisePath) -> list:
    """f at the steps 0 .. n_steps for noise constant in x: exp(eps I(k dt)) f_det(k dt)."""
    if not noise.constant_in_space:
        raise ValueError("the closed form needs noise constant in x")
    return [f * np.exp(eps * path_integral(noise, path, k * dt / (eps * eps)))[..., None]
            for k, f in enumerate(noise_free(f0, n_steps, dt, eps, model, grid))]


def finished(res: BatchResult) -> list:
    """Members that ran to the final time, in batch order."""
    return [b for b in range(res.sup_norm2.shape[0]) if b not in res.failures]


# ---------------------------------------------------------------------------
# the limit equation


def limit_trace_field(coeffs: LimitCoefficients) -> np.ndarray:
    """F(x) = sum_j c_j eta_j(x)^2, recomputed from the factor form."""
    if coeffs.n_modes == 0:
        return np.zeros(coeffs.grid.shape)
    return np.einsum("j...,j...->...", coeffs.root_factors, coeffs.root_factors)


def drift_consistency(coeffs: LimitCoefficients, trace_field) -> float:
    """Max-norm gap between (1/2) sum_j c_j eta_j^2 and (1/2) F.

    Both sides are built from the same coefficients, so this is a regression
    guard for the Ito-Stratonovich bookkeeping: it must vanish to rounding.
    """
    lhs = 0.5 * limit_trace_field(coeffs)
    rhs = 0.5 * np.asarray(trace_field, dtype=float)
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
