"""Pathwise split-step integrator for the scaled kinetic equation.

The three sub-flows of

    df/dt + (1/eps) a(v).grad_x f = (1/eps^2)(rho - f) + (1/eps) m(t/eps^2, x) f

are each solved exactly: transport by a spectral phase shift, relaxation by
the explicit flow rho + e^{-t}(f - rho), and the multiplier by a pointwise
exponential while the noise state is frozen.  A macroscopic step dt is split
Strang-style, relaxation - transport - multiplier - transport - relaxation
with half steps, and every noise jump inside the step partitions it exactly,
so the only scheme error is the splitting commutator.

`KineticStepper` advances a batch of trajectories together with the state
held as an rfft over space (`TorusGrid.rfft`/`irfft`, over axis 2 of the
(B, V, *grid.shape) fields): relaxation and transport act per frequency, so
each piece costs one irfft -> noise multiplier -> rfft pair, and the energy
check uses Parseval.

When every noise mode is constant in x (`NoiseModel.constant_in_space`),
the multiplier commutes with transport and relaxation, and member b's
solution is exactly exp(eps I_b(t)) f_det(t): I_b is the integral of m along
the member's path (`NoiseModel.edge_integrals`) and f_det the noise-free
solution.  The stepper then steps f_det alone, one row per distinct initial
field, and each member costs one number per step.  The noise-free full step
is linear and acts on each frequency as one V x V matrix P_r, so f_det
advances by the powers P^1..P^S of that propagator, S steps per NumPy call,
with S set by the model and the grid alone (`PROPAGATOR_BUDGET`); where S
would be below 2, f_det takes one full piece per step.

Otherwise the noise of a batch is one segment table, the members'
`NoisePath.seg_states` stacked in batch order, whose chain values are read
once through `NoiseModel.values`.  Each member keeps a cursor, its current
row, and a step splits only where a member's row closes at a jump inside
it; the earliest jump ahead of any member is kept as one number, so a step
before it reads no cursor.

Either way the stepper keeps every step's squared norms, and the overflow
and Gronwall guards check them a block of steps at a time, at each output
step and the last.  A member keeps its first failure: its later steps are
masked, so 0 x inf cannot fail it again, and its records are zero.
`solve_trajectory` is its batch of one and raises that member's failure.
The tests check the stepper against a literal composition of the three
sub-flows, `advance` in tests/oracles.py, and the closed form against
`closed_form` there.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid
from .noise import NoiseModel, NoisePath
from .velocity import VelocityModel

OVERFLOW_NORM = 1e12
GRONWALL_SLACK = 1e-8
# complex values in the powers P^1..P^S of the closed form's full-step propagator
PROPAGATOR_BUDGET = 2 ** 14


class TrajectoryOverflowError(RuntimeError):
    """The L2 norm exceeded the overflow guard (unreachable for valid configs)."""


class GronwallViolationError(RuntimeError):
    """The pathwise energy bound was violated; indicates a scheme defect."""


@dataclass
class SolverConfig:
    """One kinetic run's step grid: final_time must be n_steps whole steps dt."""

    epsilon: float
    dt_factor: float = 0.1  # macroscopic step is dt_factor * epsilon^2
    final_time: float = 1.0
    dt: float = field(init=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.dt_factor <= 1.0:
            raise ValueError("dt_factor must lie in (0, 1]")
        if self.final_time <= 0.0:
            raise ValueError("final_time must be positive")
        dt = self.dt_factor * self.epsilon * self.epsilon
        steps = self.final_time / dt if dt > 0 else np.inf
        if not np.isfinite(steps):
            raise ValueError(f"final_time / (dt_factor * eps^2) overflows at eps={self.epsilon}")
        if abs(round(steps) * dt - self.final_time) > 1e-9 * self.final_time:
            raise ValueError(
                f"final_time must be an integer number of macroscopic steps "
                f"(dt_factor * eps^2) at eps={self.epsilon}; nearest valid values are "
                f"{np.floor(steps) * dt:.6g} and {np.ceil(steps) * dt:.6g}")
        self.dt, self.n_steps = dt, int(round(steps))


@dataclass
class BatchResult:
    """Per-member records of one batch; failed members keep their exception."""

    times: np.ndarray            # (n_times,) snapped step times k * dt
    rho: np.ndarray              # (B, n_times, *grid.shape)
    norm2: np.ndarray            # (B, n_times)
    sup_norm2: np.ndarray        # (B,)
    gronwall_margin: np.ndarray  # (B,) max of log||f||^2 - bound (negative = satisfied)
    state_indices: np.ndarray    # (B, n_times, J)
    failures: dict               # member -> TrajectoryOverflowError | GronwallViolationError


def propagate(q, f):
    """Per-frequency operators q (..., W, V, R) applied to spectra f (..., W, R).

    q[..., w, v, r] is (Q_r)_{vw}.  The result is the sum over w of W
    elementwise products, so each row of f keeps its bits whatever its batch.
    """
    out = q[..., 0, :, :] * f[..., 0, None, :]
    for w in range(1, f.shape[-2]):
        out += q[..., w, :, :] * f[..., w, None, :]
    return out


def snap_steps(times, dt, n_steps):
    """Indices k of the steps k * dt at which the requested times are recorded."""
    return [min(max(int(round(t / dt)), 0), n_steps) for t in times]


class KineticStepper:
    """Strang stepper for a batch of trajectories sharing (model, grid, noise, config).

    The state is f_hat = rfft_x f with layout (B, V, R), R the flattened
    half-spectrum.  A piece of microscopic length delta with frozen noise is

        C T  rfft( M  irfft( T C f_hat ) )

    with C = exp(-delta/2) I + (1 - exp(-delta/2)) 1 mu^T the relaxation half
    step, T the transport half-step phase and M = exp(m(x) delta eps).  C is
    x-local and T is diagonal per frequency, so both act on the spectrum.  At
    bins on a Nyquist plane T is the Hermitian-symmetrised phase (cos in 1-d),
    which is what the `.real` after every complex ifft of the literal oracle
    `advance` applies.

    Two ways to step, each yielding at the output steps and the last the
    members' squared norms of every step since its last yield, which `run`
    guards, and their spectra and chain states at that step:

    - `_field_steps` (noise that varies in x): each member keeps a cursor
      into the batch's segment table, its current row.  A step without a
      jump is one full piece whose phase is cached; members with jumps take
      further pieces with their own phases, one round at a time.
    - `_closed_steps` (noise constant in x): f_det advances without M, a
      block of up to S = `block_steps` steps at a time by the powers of the
      full-step propagator (`powers`), or by one full piece per step where
      S < 2, and member b is exp(eps I_b) f_det, formed as spectra at output
      steps only.

    Every product is per member, so a member's records do not depend on its
    batch.
    """

    def __init__(self, model: VelocityModel, grid: TorusGrid, noise: NoiseModel,
                 config: SolverConfig):
        self.model, self.grid, self.noise = model, grid, noise
        self.eps, self.beta = config.epsilon, config.dt_factor
        self.dt, self.n_steps = config.dt, config.n_steps
        self.mu = model.weights
        half = grid.n // 2 + 1
        self.rshape = grid.shape[:-1] + (half,)
        # phase per unit delta: exp part off the Nyquist planes, cos part on them
        expo = np.zeros(self.rshape + (model.n_velocities,))
        nyq = np.zeros_like(expo)
        for d in range(grid.dim):
            k_odd = grid.freqs_odd[d][..., :half, None]
            k_nyq = np.abs(grid.freqs[d][..., :half, None]) * (k_odd == 0)
            expo += k_odd * model.velocities[:, d]
            nyq += k_nyq * model.velocities[:, d]
        flat = (-1, model.n_velocities)
        self._expo = (-2j * np.pi * 0.5 * self.eps) * expo.reshape(flat).T
        nyq = nyq.reshape(flat).T
        self._nyq_cols = np.flatnonzero(np.any(nyq != 0.0, axis=0))
        self._nyq = (2.0 * np.pi * 0.5 * self.eps) * nyq[:, self._nyq_cols]
        self._full_phase = self.phase(self.beta)
        self._full_theta = np.exp(-0.5 * self.beta)
        # steps per block of the closed form: from the model and the grid only
        self.block_steps = min(self.n_steps,
                               PROPAGATOR_BUDGET // (model.n_velocities ** 2 * self._expo.shape[1]))
        # Parseval: ||f||^2 = sum_{v,k} mu_v w_k |f_hat|^2 / N^2, w_k = 2 off the
        # self-conjugate planes of the last axis
        w = np.full(self.rshape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0  # n is even: the last bin is the Nyquist bin
        parseval = self.mu[:, None] * w.reshape(-1) / float(grid.npoints) ** 2
        self._parseval = np.repeat(parseval.reshape(-1), 2)  # real and imaginary parts

    # ---- spectral pieces -----------------------------------------------

    def phase(self, delta):
        """Half-step transport phase (V, R) for a scalar delta, (A, V, R) for an array."""
        d = np.asarray(delta, dtype=float)[..., None, None]
        out = np.exp(self._expo * d)
        out[..., self._nyq_cols] *= np.cos(self._nyq * d)
        return out

    def to_spectrum(self, f):
        """(B, V, *shape) real fields -> (B, V, R) half-spectra."""
        return self.grid.rfft(f, 2).reshape(f.shape[:2] + (-1,))

    def to_fields(self, fhat):
        """(B, V, R) half-spectra -> (B, V, *shape) real fields."""
        return self.grid.irfft(fhat.reshape(fhat.shape[:2] + self.rshape), 2)

    def norm2(self, fhat):
        """||f||^2_{L2_{x,v}} per member, by Parseval, each member its own product."""
        sq = fhat.view(float).reshape(fhat.shape[0], 1, -1)
        return np.matmul(sq * sq, self._parseval[:, None])[:, 0, 0]

    def piece(self, fhat, phase, theta, mult):
        """One Strang piece on (B, V, R) spectra; theta/mult broadcast, mult None skips M.

        ``mult`` is a (B, 1, *shape) field from `_multiplier`, applied in x-space.
        """
        rho = (self.mu @ fhat)[..., None, :]
        g = theta * fhat
        g += (1.0 - theta) * rho
        g *= phase
        if mult is not None:
            x = self.to_fields(g)
            x *= mult
            g = self.to_spectrum(x)
        g *= phase
        rho = (self.mu @ g)[..., None, :]
        g *= theta
        g += (1.0 - theta) * rho
        return g

    def powers(self, span):
        """P^1..P^span (span, V, V, R) of the full noise-free step, by doubling.

        Entry [j - 1, w, v, r] is (P_r^j)_{vw}: row w of P is `piece` on the
        unit spectrum of velocity w, so C and T are defined in `piece` alone.
        """
        nv, nr = self._full_phase.shape
        unit = np.repeat(np.eye(nv, dtype=complex)[:, :, None], nr, axis=2)
        out = np.empty((span, nv, nv, nr), dtype=complex)
        out[0] = self.piece(unit, self._full_phase, self._full_theta, None)
        done = 1
        while done < span:
            more = min(done, span - done)
            # P^(done + j) = P^done P^j
            out[done:done + more] = propagate(out[done - 1], out[:more])
            done += more
        return out

    # ---- noise ---------------------------------------------------------

    def _multiplier(self, values, delta):
        """exp(m delta eps) fields (A, 1, *shape) for chain values (A, J) and lengths (A,)."""
        m = self.noise.combine(values)
        d = np.asarray(delta, dtype=float).reshape((-1,) + (1,) * self.grid.dim)
        return np.exp(m * (d * self.eps))[:, None]

    # ---- driver --------------------------------------------------------

    def run(self, f0, paths, out_steps, observer) -> BatchResult:
        grid, noise = self.grid, self.noise
        batch = len(paths)
        closed = noise.constant_in_space
        x0 = np.moveaxis(f0, -1, 1)
        if not closed:
            x0 = np.broadcast_to(x0, (batch,) + x0.shape[1:])
        fhat = self.to_spectrum(np.ascontiguousarray(x0))
        # the row of each member's initial field: the closed form steps one
        # row per distinct f0
        rows = np.arange(batch) if fhat.shape[0] == batch else np.zeros(batch, dtype=np.int64)
        nrm = self.norm2(fhat)[rows]
        log_norm0 = np.log(np.maximum(nrm, np.finfo(float).tiny))
        # the energy bound's exponent 2 C_* t / eps at each step time t = k dt
        with np.errstate(over="ignore"):
            growth = 2.0 * noise.bound * (np.arange(self.n_steps + 1) * self.dt) / self.eps

        n_out = len(out_steps)
        rho_rec = np.zeros((batch, n_out) + grid.shape)
        norm2_rec = np.zeros((batch, n_out))
        state_rec = np.zeros((batch, n_out, noise.n_modes), dtype=np.int64)
        sup_norm2 = nrm.copy()
        margin = np.full(batch, -np.inf)
        failures = {}
        dead = np.zeros(batch, dtype=bool)
        rec_for_step = {}
        for i, k in enumerate(out_steps):
            rec_for_step.setdefault(int(k), []).append(i)

        def guard(k, nrm):
            """Guard steps k - S + 1 .. k from the members' squared norms (B, S) there."""
            first = k - nrm.shape[1] + 1
            if failures:
                nrm[dead] = 0.0
            gap = np.log(nrm) - (log_norm0[:, None] + growth[first:k + 1])
            # one test per guard and block; a nan max enters the exact loop too
            if not (nrm.max() <= OVERFLOW_NORM ** 2 and gap.max() <= GRONWALL_SLACK):
                over = ~(nrm <= OVERFLOW_NORM ** 2)
                nrm[over], gap[over] = 0.0, -np.inf
                bad = over | (gap > GRONWALL_SLACK)
                for b in np.flatnonzero(bad.any(axis=1)):
                    j = int(bad[b].argmax())
                    t_macro = (first + j) * self.dt
                    if over[b, j]:
                        exc = TrajectoryOverflowError(
                            f"||f||_L2 exceeded {OVERFLOW_NORM:g} at t={t_macro:.6g}")
                    else:
                        exc = GronwallViolationError(
                            f"energy bound violated by exp({gap[b, j]:.3g}) at t={t_macro:.6g}")
                    failures[int(b)], dead[b] = exc, True
                    # its later steps are those of a zeroed member
                    nrm[b, j + 1:], gap[b, j + 1:] = 0.0, -np.inf
            np.maximum(sup_norm2, nrm.max(axis=1), out=sup_norm2)
            np.maximum(margin, gap.max(axis=1), out=margin)
            return nrm[:, -1]

        def record(k, fhat, states, nrm):
            outs = rec_for_step.get(k)
            if outs is None:
                return
            # a failed member records zeros; its stepped rows may be inf or nan
            fhat[dead] = 0.0
            f = np.moveaxis(self.to_fields(fhat), 1, -1)
            rho = f @ self.mu
            if observer is not None:
                f = np.ascontiguousarray(f)
            for i in outs:
                rho_rec[:, i] = rho
                norm2_rec[:, i] = nrm
                state_rec[:, i] = states
                for rec in (rho_rec, norm2_rec, state_rec):
                    rec[dead, i] = 0
                if observer is not None:
                    observer.observe(i, f, state_rec[:, i])

        record(0, fhat[rows], np.array([p.seg_states[0] for p in paths]), nrm)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the steps at which the stepper yields: each output step and the last
            stops = sorted({k for k in rec_for_step if k > 0} | {self.n_steps})
            # an overflowing multiplier fails its member under the guards
            steps = self._closed_steps(fhat, paths, rows, stops) if closed \
                else self._field_steps(fhat, paths, stops)
            # the generator holds the only reference to the state it steps,
            # so no older spectrum stays alive while it does
            del fhat
            for k, nrm, spectra, states in steps:
                record(k, spectra, states, guard(k, nrm))
                del spectra

        return BatchResult(
            times=np.asarray(out_steps) * self.dt,
            rho=rho_rec,
            norm2=norm2_rec,
            sup_norm2=sup_norm2,
            gronwall_margin=margin,
            state_indices=state_rec,
            failures=failures,
        )

    # ---- noise constant in x: the closed form ----------------------------

    def _closed_steps(self, fhat, paths, rows, stops):
        """Yield (k, norms (B, S), spectra, states) at each step k of ``stops``.

        ``fhat`` is f_det, one row per distinct initial field.  The norms are
        exp(2 eps I_b) ||f_det[rows[b]]||^2 at the S steps since the last
        yield, and the spectra exp(eps I_b) f_det[rows[b]] at step k.

        f_det at steps k + 1 .. k + s is P^1..P^s applied to f_det at step
        k, one `propagate` and one `norm2` call per block; blocks of at most
        `block_steps` restart at each step of ``stops``.  The exponents
        eps I_b are held for the whole run, (B, n + 1), and f_det's norms
        for one yield at a time.
        """
        n = self.n_steps
        edges = np.arange(n + 1) * self.beta
        modes = self.noise.modes.reshape(self.noise.n_modes, self.grid.npoints)[:, :1]
        log_mult = np.empty((len(paths), n + 1))
        states = np.empty((len(paths), len(stops), self.noise.n_modes), dtype=np.int64)
        for b, path in enumerate(paths):
            integrals, at = self.noise.edge_integrals(path, edges)
            # eps I_b(k beta), the member's own (n + 1, J) @ (J, 1) product
            log_mult[b] = self.eps * np.matmul(integrals, modes)[:, 0]
            states[b] = at[stops]
        # below two steps a block is one `piece`, and no propagator is built
        span = max(self.block_steps, 1)
        powers = self.powers(span) if span > 1 else None
        last = 0
        for i, stop in enumerate(stops):
            det = np.empty((stop - last, fhat.shape[0]))  # ||f_det||^2 after each step
            for k in range(last, stop, span):
                s = min(span, stop - k)
                # f_det at steps k + 1 .. k + s, (s, rows, V, R)
                block = self.piece(fhat, self._full_phase, self._full_theta, None)[None] \
                    if powers is None else propagate(powers[:s, None], fhat)
                det[k - last:k - last + s] = self.norm2(
                    block.reshape((-1,) + fhat.shape[1:])).reshape(s, -1)
                fhat = block[-1]
            nrm = np.exp(2.0 * log_mult[:, last + 1:stop + 1]) * det.T[rows]
            spectra = np.exp(log_mult[:, stop])[:, None, None] * fhat[rows]
            yield stop, nrm, spectra, states[:, i]
            last = stop

    # ---- noise that varies in x: pieces, one round at a time -------------

    def _field_steps(self, fhat, paths, stops):
        """Yield (k, norms (B, S), spectra, states) at each step k of ``stops``.

        The norms are the members' squared norms at the S steps since the
        last yield.

        The batch's segment table is the members' seg_states stacked in
        batch order; seg_end[row] is the jump that closes a row, inf on a
        member's last row, and cur is each member's current row.  A step
        with jumps takes `_jump_step`.
        """
        seg_states = np.concatenate([p.seg_states for p in paths])
        seg_end = np.concatenate([np.r_[p.seg_times[1:-1], np.inf] for p in paths])
        seg_values = self.noise.values(seg_states)
        cur = np.cumsum([0] + [p.n_jumps + 1 for p in paths[:-1]])
        # the earliest jump of any member still ahead; a step that ends
        # before it is one full piece, with no look at the cursors
        next_jump = float(seg_end[cur].min())
        full_mult = self._multiplier(seg_values[cur], np.full(len(paths), self.beta))
        last = 0
        for stop in stops:
            norms = np.empty((len(paths), stop - last))
            for k in range(last, stop):
                if next_jump > (k + 1) * self.beta:
                    fhat = self.piece(fhat, self._full_phase, self._full_theta, full_mult)
                else:
                    jump = (seg_end[cur] <= (k + 1) * self.beta).nonzero()[0]
                    fhat = self._jump_step(fhat, k, jump, cur, seg_end, seg_values, full_mult)
                    full_mult[jump] = self._multiplier(
                        seg_values[cur[jump]], np.full(jump.size, self.beta))
                    next_jump = float(seg_end[cur].min())
                norms[:, k - last] = self.norm2(fhat)
            yield stop, norms, fhat, seg_states[cur]
            last = stop

    def _jump_step(self, fhat, k, sub, cur, seg_end, seg_values, full_mult):
        """Step k, in which members ``sub`` jump; advances their rows ``cur``.

        Step k owns the jumps in (k beta, (k+1) beta].  Round 0 covers the
        whole batch, members without a jump taking the cached full piece,
        and ends each of ``sub`` at its next jump.  Each later round gathers
        the members whose last piece ended at a jump, moves them to their
        next row and takes the piece up to the next jump or (k+1) beta,
        whichever comes first.  A zero-length piece (a tie between chains,
        or a jump on the step's right edge) is dropped.
        """
        end = (k + 1) * self.beta
        rows = cur[sub]
        start = seg_end[rows]
        d0 = start - k * self.beta
        phase = np.repeat(self._full_phase[None], fhat.shape[0], axis=0)
        phase[sub] = self.phase(d0)
        theta = np.full((fhat.shape[0], 1, 1), self._full_theta)
        theta[sub, 0, 0] = np.exp(-0.5 * d0)
        mult = full_mult.copy()
        mult[sub] = self._multiplier(seg_values[rows], d0)
        fhat = self.piece(fhat, phase, theta, mult)
        while sub.size:
            rows += 1
            cur[sub] = rows
            stop = seg_end[rows]
            d = np.minimum(stop, end) - start
            live = (d > 0.0).nonzero()[0]
            if live.size:
                m, d = sub[live], d[live]
                fhat[m] = self.piece(fhat[m], self.phase(d), np.exp(-0.5 * d)[:, None, None],
                                     self._multiplier(seg_values[rows[live]], d))
            more = (stop <= end).nonzero()[0]
            sub, rows, start = sub[more], rows[more], stop[more]
        return fhat


def solve_batch(f0, config: SolverConfig, model: VelocityModel, grid: TorusGrid,
                noise: NoiseModel, rngs, output_times, observer=None,
                paths=None) -> BatchResult:
    """Integrate a batch of trajectories and record the density at the requested times.

    Member b simulates its noise path from ``rngs[b]`` over the whole
    microscopic horizon first (or uses ``paths[b]``), so each member is a
    deterministic function of (f0, config, its stream) whatever the batch.
    ``f0`` is one initial field shared by all members or one per member.
    ``observer`` (a `generator.GeneratorInstrument`, which covers any
    number of functionals) observes the whole batch at every output step.
    The pathwise energy bound ||f(t)||^2 <= e^{2 C_* t / eps} ||f0||^2 is
    checked at every step; a member that violates it or overflows is
    recorded in ``failures`` and the others continue.
    """
    stepper = KineticStepper(model, grid, noise, config)
    horizon = stepper.n_steps * stepper.beta  # microscopic, an exact multiple of beta
    if paths is None:
        paths = [noise.simulate_path(horizon, rng) for rng in rngs]
    elif any(p.horizon < horizon * (1 - 1e-12) for p in paths):
        raise ValueError("supplied path does not cover the horizon")
    f0 = np.asarray(f0, dtype=float)
    if f0.shape[-grid.dim - 1:] != grid.shape + (model.n_velocities,) or \
            f0.ndim not in (grid.dim + 1, grid.dim + 2) or \
            (f0.ndim == grid.dim + 2 and f0.shape[0] != len(paths)):
        raise ValueError("initial field shape mismatch")
    if f0.ndim == grid.dim + 1:
        f0 = f0[None]
    steps = snap_steps(output_times, stepper.dt, stepper.n_steps)
    return stepper.run(f0, paths, steps, observer)


def solve_trajectory(f0, config: SolverConfig, model: VelocityModel, grid: TorusGrid,
                     noise: NoiseModel, rng, output_times, observer=None,
                     path: NoisePath = None) -> BatchResult:
    """Integrate one trajectory: the `solve_batch` of one member, whose row is 0.

    Raises TrajectoryOverflowError or GronwallViolationError if the
    trajectory fails; the exact sub-flows make the latter structurally
    impossible.
    """
    res = solve_batch(f0, config, model, grid, noise, [rng], output_times,
                      observer=observer, paths=None if path is None else [path])
    if res.failures:
        raise res.failures[0]
    return res
