"""Pathwise split-step integrator for the scaled kinetic equation.

The three sub-flows of

    df/dt + (1/eps) a(v).grad_x f = (1/eps^2)(rho - f) + (1/eps) m(t/eps^2, x) f

are each solved exactly: transport by a spectral phase shift, relaxation by
the explicit flow rho + e^{-t}(f - rho), and the multiplier by a pointwise
exponential while the noise state is frozen.  A macroscopic step dt is split
Strang-style, relaxation - transport - multiplier - transport - relaxation
with half steps, and every noise jump inside the step partitions it exactly,
so the only scheme error is the splitting commutator.

`advance` composes the three sub-flows literally and is the reference oracle.
Production runs go through `KineticStepper`, which advances a batch of
trajectories together with the state held as an rfft over space: relaxation
and transport act per frequency, so each piece costs one irfft -> noise
multiplier -> rfft pair, and the energy check uses Parseval.  The noise of a
batch is one segment table, the members' `NoisePath.seg_states` stacked in
batch order, whose chain values are read once through `NoiseModel.values`.
`solve_trajectory` is its batch of one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import velocity
from .grid import TorusGrid
from .noise import NoiseModel, NoisePath
from .velocity import VelocityModel

OVERFLOW_NORM = 1e12
GRONWALL_SLACK = 1e-8


class TrajectoryOverflowError(RuntimeError):
    """The L2 norm exceeded the overflow guard (unreachable for valid configs)."""


class GronwallViolationError(RuntimeError):
    """The pathwise energy bound was violated; indicates a scheme defect."""


@dataclass
class SolverConfig:
    epsilon: float
    dt_factor: float = 0.1  # macroscopic step is dt_factor * epsilon^2
    final_time: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.dt_factor <= 1.0:
            raise ValueError("dt_factor must lie in (0, 1]")
        if self.final_time <= 0.0:
            raise ValueError("final_time must be positive")


def step_transport(f, tau, eps, model: VelocityModel, grid: TorusGrid):
    """Exact free transport over macroscopic time tau: f(x,v) -> f(x - a(v) tau/eps, v)."""
    if tau == 0.0:
        return np.array(f, dtype=float, copy=True)
    shifts = model.velocities * (tau / eps)
    phase = grid.shift_phase(shifts)
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
    for ta, tb, seg in path.segments_between(a_micro, b_micro):
        h = (tb - ta) * eps * eps
        m_field = noise.field(path.seg_states[seg])
        out = step_collision(out, 0.5 * h, eps, model)
        out = step_transport(out, 0.5 * h, eps, model, grid)
        out = step_noise_multiplication(out, h, eps, m_field)
        out = step_transport(out, 0.5 * h, eps, model, grid)
        out = step_collision(out, 0.5 * h, eps, model)
    return out


@dataclass
class TrajectoryResult:
    times: np.ndarray          # recorded macroscopic times
    rho: np.ndarray            # (n_times, *grid.shape)
    norm2: np.ndarray          # ||f||^2_{L2_{x,v}} at recorded times
    sup_norm2: float           # sup over all steps
    gronwall_margin: float     # max of log||f||^2 - bound (negative = satisfied)
    state_indices: np.ndarray = field(default=None)  # (n_times, J) chain states


@dataclass
class BatchResult:
    """Per-member records of one batch; failed members keep their exception."""

    times: np.ndarray            # (n_times,) snapped step times k * dt
    rho: np.ndarray              # (B, n_times, *grid.shape)
    norm2: np.ndarray            # (B, n_times)
    sup_norm2: np.ndarray        # (B,)
    gronwall_margin: np.ndarray  # (B,)
    state_indices: np.ndarray    # (B, n_times, J)
    failures: dict               # member -> TrajectoryOverflowError | GronwallViolationError

    @property
    def finished(self) -> list:
        """Members that ran to the final time, in batch order."""
        return [b for b in range(self.sup_norm2.shape[0]) if b not in self.failures]

    def member(self, b: int) -> TrajectoryResult:
        """Member b as a single trajectory; re-raises its failure."""
        if b in self.failures:
            raise self.failures[b]
        return TrajectoryResult(
            times=self.times,
            rho=self.rho[b],
            norm2=self.norm2[b],
            sup_norm2=float(self.sup_norm2[b]),
            gronwall_margin=float(self.gronwall_margin[b]),
            state_indices=self.state_indices[b],
        )


def step_grid(config: SolverConfig):
    """(dt, n_steps): the macroscopic step and the step count reaching final_time."""
    dt = config.dt_factor * config.epsilon * config.epsilon
    n_steps = int(round(config.final_time / dt))
    if n_steps <= 0 or abs(n_steps * dt - config.final_time) > 1e-9 * config.final_time:
        n_steps = max(1, int(np.ceil(config.final_time / dt - 1e-12)))
    return dt, n_steps


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
    which is what the `.real` after every complex ifft in `advance` applies.
    A step without a jump is one full piece whose phase is cached; members
    with jumps take further pieces with their own phases.  `_schedule` lays
    out those pieces for the whole batch at once, and each member's noise
    state is its current row of the batch's segment table.
    """

    def __init__(self, model: VelocityModel, grid: TorusGrid, noise: NoiseModel,
                 config: SolverConfig):
        self.model, self.grid, self.noise = model, grid, noise
        self.eps, self.beta = config.epsilon, config.dt_factor
        self.dt, self.n_steps = step_grid(config)
        self.mu = model.weights
        self.axes = tuple(range(-grid.dim, 0))
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
        # Parseval: ||f||^2 = sum_{v,k} mu_v w_k |f_hat|^2 / N^2, w_k = 2 off the
        # self-conjugate planes of the last axis
        w = np.full(self.rshape, 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0  # n is even: the last bin is the Nyquist bin
        parseval = self.mu[:, None] * w.reshape(-1) / float(grid.npoints) ** 2
        self._parseval = np.repeat(parseval.reshape(-1), 2)  # real and imaginary parts
        self._modes = noise.modes.reshape(noise.n_modes, grid.npoints)

    # ---- spectral pieces -----------------------------------------------

    def phase(self, delta):
        """Half-step transport phase (V, R) for a scalar delta, (A, V, R) for an array."""
        d = np.asarray(delta, dtype=float)[..., None, None]
        out = np.exp(self._expo * d)
        out[..., self._nyq_cols] *= np.cos(self._nyq * d)
        return out

    def to_spectrum(self, f):
        """(B, V, *shape) real fields -> (B, V, R) half-spectra."""
        out = np.fft.rfftn(f, axes=self.axes) if self.grid.dim > 1 else np.fft.rfft(f)
        return out.reshape(f.shape[:2] + (-1,))

    def to_fields(self, fhat):
        """(B, V, R) half-spectra -> (B, V, *shape) real fields."""
        spec = fhat.reshape(fhat.shape[:2] + self.rshape)
        if self.grid.dim > 1:
            return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes)
        return np.fft.irfft(spec, n=self.grid.n)

    def norm2(self, fhat):
        """||f||^2_{L2_{x,v}} per member, by Parseval, each member its own product."""
        sq = fhat.view(float).reshape(fhat.shape[0], 1, -1)
        return np.matmul(sq * sq, self._parseval[:, None])[:, 0, 0]

    def piece(self, fhat, phase, theta, mult):
        """One Strang piece; theta/mult broadcast against the batch, mult None skips M."""
        rho = (self.mu @ fhat)[:, None]
        g = theta * fhat
        g += (1.0 - theta) * rho
        g *= phase
        if mult is not None:
            x = self.to_fields(g)
            x *= mult
            g = self.to_spectrum(x)
        g *= phase
        rho = (self.mu @ g)[:, None]
        g *= theta
        g += (1.0 - theta) * rho
        return g

    # ---- noise ---------------------------------------------------------

    def _multiplier(self, values, delta):
        """exp(m delta eps) for chain values (A, J) and lengths (A,) -> (A, 1, *shape).

        A member's field is its own (1, J) @ (J, npoints) product, so it does
        not depend on how many members take a piece together (see
        generator._DirData).
        """
        m = np.matmul(values[:, None], self._modes)[:, 0]
        d = np.asarray(delta, dtype=float).reshape(-1, 1)
        return np.exp(m * (d * self.eps)).reshape((-1, 1) + self.grid.shape)

    def _schedule(self, paths):
        """The pieces of every step that has jumps, as flat sorted columns.

        Step k owns the jumps in (k beta, (k+1) beta]: its pieces end at each
        of them and at (k+1) beta (a jump on that edge leaves a zero-length
        last piece, which is dropped).  Round r is each member's r-th piece.
        A row indexes the batch's segment table, the members' ``seg_states``
        stacked in batch order: member b's segment s is row s + b + (the jumps
        of the members before b).
        Returns (pieces, tails, blocks): ``pieces`` holds member, length and
        segment row sorted by (step, round, member); ``tails`` holds the
        member and the row each jumping member ends its step in, sorted by
        (step, member); ``blocks[k]`` is (one slice of ``pieces`` per round,
        the slice of ``tails``).
        """
        edges = np.arange(self.n_steps + 1) * self.beta
        jt = np.concatenate([p.seg_times[1:-1] for p in paths])
        member = np.repeat(np.arange(len(paths)), [p.n_jumps for p in paths])
        row = np.arange(jt.size) + member  # the segment that ends at the jump
        ks = np.searchsorted(edges, jt, side="left") - 1
        keep = ks < self.n_steps
        jt, ks, member, row = jt[keep], ks[keep], member[keep], row[keep]
        if jt.size == 0:
            return None, None, {}
        j = np.arange(jt.size)
        new = (ks[1:] != ks[:-1]) | (member[1:] != member[:-1])
        first, last = np.r_[True, new], np.r_[new, True]
        start = np.where(first, edges[ks], np.r_[0.0, jt[:-1]])
        rnd = j - np.maximum.accumulate(np.where(first, j, 0))
        # the pieces ending at a jump, then the tail piece of each step, which
        # starts at the step's last jump in the segment after it
        t_step, t_member, t_row = ks[last], member[last], row[last] + 1
        step = np.r_[ks, t_step]
        rnd = np.r_[rnd, rnd[last] + 1]
        member = np.r_[member, t_member]
        delta = np.r_[jt - start, edges[t_step + 1] - jt[last]]
        row = np.r_[row, t_row]
        keep = np.flatnonzero(delta > 0.0)
        order = keep[np.lexsort((member[keep], rnd[keep], step[keep]))]
        pieces = {"member": member[order], "delta": delta[order], "row": row[order]}
        step, rnd = step[order], rnd[order]
        t_order = np.lexsort((t_member, t_step))
        tails = {"member": t_member[t_order], "row": t_row[t_order]}
        t_step = t_step[t_order]

        rounds = {}
        starts = np.flatnonzero(np.r_[True, (np.diff(step) != 0) | (np.diff(rnd) != 0)])
        for lo, hi in zip(starts, np.r_[starts[1:], step.size]):
            rounds.setdefault(int(step[lo]), []).append(slice(lo, hi))
        starts = np.flatnonzero(np.r_[True, np.diff(t_step) != 0])
        blocks = {int(t_step[lo]): (rounds[int(t_step[lo])], slice(lo, hi))
                  for lo, hi in zip(starts, np.r_[starts[1:], t_step.size])}
        return pieces, tails, blocks

    # ---- driver --------------------------------------------------------

    def run(self, f0, paths, out_steps, instruments) -> BatchResult:
        grid, noise, eps = self.grid, self.noise, self.eps
        batch = len(paths)
        pieces, tails, blocks = self._schedule(paths)  # before the records: lower peak memory
        x0 = np.moveaxis(f0, -1, 1)
        fhat = self.to_spectrum(np.ascontiguousarray(
            np.broadcast_to(x0, (batch,) + x0.shape[1:])))
        nrm = self.norm2(fhat)
        log_norm0 = np.log(np.maximum(nrm, np.finfo(float).tiny))
        c_star = noise.bound

        n_out = len(out_steps)
        rho_rec = np.zeros((batch, n_out) + grid.shape)
        norm2_rec = np.zeros((batch, n_out))
        state_rec = np.zeros((batch, n_out, noise.n_modes), dtype=np.int64)
        sup_norm2 = nrm.copy()
        margin = np.full(batch, -np.inf)
        failures = {}
        rec_for_step = {}
        for i, k in enumerate(out_steps):
            rec_for_step.setdefault(int(k), []).append(i)

        # the batch's segment table (rows as in _schedule) and each member's current row
        seg_states = np.concatenate([p.seg_states for p in paths])
        seg_values = noise.values(seg_states)
        cur = np.cumsum([0] + [p.n_jumps + 1 for p in paths[:-1]])
        dead = np.zeros(batch, dtype=bool)
        full_mult = None
        if noise.n_modes:
            full_mult = self._multiplier(seg_values[cur], np.full(batch, self.beta))

        def record(step):
            outs = rec_for_step.get(step)
            if outs is None:
                return
            f = np.moveaxis(self.to_fields(fhat), 1, -1)
            rho = f @ self.mu
            states = seg_states[cur]
            if instruments:
                f = np.ascontiguousarray(f)
            for i in outs:
                rho_rec[:, i] = rho
                norm2_rec[:, i] = nrm
                state_rec[:, i] = states
                for rec in (rho_rec, norm2_rec, state_rec):
                    rec[dead, i] = 0
                for ins in instruments:
                    ins.observe(i, f, state_rec[:, i])

        def fail(b, exc):
            failures[b] = exc
            dead[b] = True
            fhat[b] = 0.0

        record(0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(self.n_steps):
                block = blocks.get(k)
                if block is None:
                    fhat = self.piece(fhat, self._full_phase, self._full_theta, full_mult)
                else:
                    fhat = self._jump_step(fhat, pieces, block[0], full_mult, seg_values)
                    tl = block[1]
                    members = tails["member"][tl]
                    cur[members] = tails["row"][tl]
                    full_mult[members] = self._multiplier(
                        seg_values[cur[members]], np.full(members.size, self.beta))
                nrm = self.norm2(fhat)
                t_macro = (k + 1) * self.dt
                for b in np.flatnonzero(~(nrm <= OVERFLOW_NORM ** 2)):
                    fail(int(b), TrajectoryOverflowError(
                        f"||f||_L2 exceeded {OVERFLOW_NORM:g} at t={t_macro:.6g}"))
                    nrm[b] = 0.0
                np.maximum(sup_norm2, nrm, out=sup_norm2)
                gap = np.log(nrm) - (log_norm0 + 2.0 * c_star * t_macro / eps)
                np.maximum(margin, gap, out=margin)
                for b in np.flatnonzero(gap > GRONWALL_SLACK):
                    fail(int(b), GronwallViolationError(
                        f"energy bound violated by exp({gap[b]:.3g}) at t={t_macro:.6g}"))
                record(k + 1)

        return BatchResult(
            times=np.asarray(out_steps) * self.dt,
            rho=rho_rec,
            norm2=norm2_rec,
            sup_norm2=sup_norm2,
            gronwall_margin=margin,
            state_indices=state_rec,
            failures=failures,
        )

    def _jump_step(self, fhat, pieces, rounds, full_mult, seg_values):
        """A step in which some members jump; ``rounds`` slice ``pieces`` by round.

        Round 0 covers the whole batch, members without a jump taking the
        cached full piece; later rounds gather only the members that still
        have pieces left.
        """
        member, delta, row = pieces["member"], pieces["delta"], pieces["row"]
        sub, d0 = member[rounds[0]], delta[rounds[0]]
        phase = np.repeat(self._full_phase[None], fhat.shape[0], axis=0)
        phase[sub] = self.phase(d0)
        theta = np.full((fhat.shape[0], 1, 1), self._full_theta)
        theta[sub, 0, 0] = np.exp(-0.5 * d0)
        mult = full_mult.copy()
        mult[sub] = self._multiplier(seg_values[row[rounds[0]]], d0)
        fhat = self.piece(fhat, phase, theta, mult)
        for sl in rounds[1:]:
            sub, d = member[sl], delta[sl]
            fhat[sub] = self.piece(fhat[sub], self.phase(d), np.exp(-0.5 * d)[:, None, None],
                                   self._multiplier(seg_values[row[sl]], d))
        return fhat


def solve_batch(f0, config: SolverConfig, model: VelocityModel, grid: TorusGrid,
                noise: NoiseModel, rngs, output_times, instruments=(),
                paths=None) -> BatchResult:
    """Integrate a batch of trajectories and record the density at the requested times.

    Member b simulates its noise path from ``rngs[b]`` over the whole
    microscopic horizon first (or uses ``paths[b]``), so each member is a
    deterministic function of (f0, config, its stream) whatever the batch.
    ``f0`` is one initial field shared by all members or one per member.
    ``instruments`` observe the whole batch at every output step; one
    `generator.GeneratorInstrument` covers any number of functionals.
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
    return stepper.run(f0, paths, steps, instruments)


def solve_trajectory(f0, config: SolverConfig, model: VelocityModel, grid: TorusGrid,
                     noise: NoiseModel, rng, output_times, instruments=(),
                     path: NoisePath = None) -> TrajectoryResult:
    """Integrate one trajectory: the batch of one of `solve_batch`.

    Raises TrajectoryOverflowError or GronwallViolationError if the
    trajectory fails; the exact sub-flows make the latter structurally
    impossible.
    """
    res = solve_batch(f0, config, model, grid, noise, [rng], output_times,
                      instruments=instruments, paths=None if path is None else [path])
    return res.member(0)
