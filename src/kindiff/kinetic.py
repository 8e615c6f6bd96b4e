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
check uses Parseval.  When every noise mode is constant in x
(`NoiseModel.constant_in_space`), exp(delta eps m) is one number per member.
A number commutes with transport and relaxation and scales every frequency
alike, so a piece multiplies the half-spectrum by it and takes no FFT
pair; it is that number times C T T C, a V x V matrix per frequency that
depends on the piece's length alone.  With few velocities and rare jumps
(PLAN_MAX_VELOCITIES, PLAN_MAX_JUMPS) a step is then one propagator per
frequency times one number per member: the full-step propagator, built
once, or, for a member with jumps in the step, the product of its pieces'
propagators, built ahead of the loop a block of (member, step) pairs at a
time.  A propagator costs V times the pieces it composes, so otherwise the
pieces are applied one at a time.  Jumps partition the step into the same
pieces either way: C and T do not commute, so the splitting error depends
on where the pieces end.  Against applying the pieces one at a time the
propagators move records by rounding only: at most 7.3e-14 relative,
elementwise, on 100 members of martingale.json and 64 of scalar_mode.json.

The noise of a batch is one segment table, the members' `NoisePath.seg_states`
stacked in batch order, whose chain values are read once through
`NoiseModel.values`.  Each member keeps a cursor, its current row, and a step
splits only where a member's row closes at a jump inside it.  Stepping by
pieces, the earliest jump ahead of any member is kept as one number, so a
step before it reads no cursor; stepping by propagators, each closing row
is assigned its step up front.  A member that fails is zeroed and stays
zero, so no later guard sees it.  `solve_trajectory` is its batch of one
and raises that member's failure.
The tests check the stepper against a literal composition of the three
sub-flows, `advance` in tests/oracles.py.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid
from .noise import NoiseModel, NoisePath
from .velocity import VelocityModel

OVERFLOW_NORM = 1e12
GRONWALL_SLACK = 1e-8
# with noise constant in x, one block of planned (member, step) propagators
# holds at most PLAN_BUDGET complex values (256 KiB), or one propagator if
# that is larger
PLAN_BUDGET = 2 ** 14
# a planned propagator composes V x V per frequency where a piece acts on V
# spectra, so the plan is used only for at most PLAN_MAX_VELOCITIES
# velocities and at most PLAN_MAX_JUMPS expected jumps per member and step
# (the measured break-even, README "How a job is stepped")
PLAN_MAX_VELOCITIES = 2
PLAN_MAX_JUMPS = 0.125


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
    `advance` applies.  Each member keeps a cursor into the batch's segment
    table, its current row; a step splits where a member's row closes at a
    jump inside it.

    Pieces (`_piece_steps`): a step without a jump is one full piece whose
    phase is cached; members with jumps take further pieces with their own
    phases, one round at a time.  With noise constant in x, M is one number
    per member and scales the half-spectrum.

    Propagators (`_plan_steps`, noise constant in x, when `planned`): a
    piece is the member's number times the per-frequency V x V propagator
    C T T C, which depends on the piece's length alone.  The full-step
    propagator is built once.  For each (member, step) with a jump, `_plan`
    builds the product Q of the step's pieces, with the partition and
    lengths of the rounds above and zero-length pieces dropped, and the
    product of their numbers; it does so a block of pairs at a time, within
    PLAN_BUDGET complex values.  A step applies the full propagator to the
    batch, Q to the rows of the members that jump, and multiplies each
    member by its number.  Building Q costs V times the pieces it composes,
    so `planned` needs at most PLAN_MAX_VELOCITIES velocities and at most
    PLAN_MAX_JUMPS stationary jumps per member and step; it depends on the
    model, noise and config alone.  Every product is elementwise, so a
    member's records do not depend on its batch.
    """

    def __init__(self, model: VelocityModel, grid: TorusGrid, noise: NoiseModel,
                 config: SolverConfig):
        self.model, self.grid, self.noise = model, grid, noise
        self.eps, self.beta = config.epsilon, config.dt_factor
        self.dt, self.n_steps = config.dt, config.n_steps
        self.mu = model.weights
        # constant in x: the modes' values at the first grid point, (J, 1)
        self._mode_values = None
        if noise.constant_in_space:
            self._mode_values = noise.modes.reshape(noise.n_modes, grid.npoints)[:, :1]
        # stationary jumps per member and step, summed over the chains
        jumps = self.beta * sum(float(ch.stationary @ ch.exit_rates) for ch in noise.chains)
        self.planned = (self._mode_values is not None and jumps <= PLAN_MAX_JUMPS
                        and model.n_velocities <= PLAN_MAX_VELOCITIES)
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
        """One Strang piece on (..., V, R) spectra; theta/mult broadcast, mult None skips M.

        ``mult`` is as `_multiplier` returns it: (B, 1, 1) numbers, which
        scale the half-spectrum, or a (B, 1, *shape) field, applied in x-space.
        """
        rho = (self.mu @ fhat)[..., None, :]
        g = theta * fhat
        g += (1.0 - theta) * rho
        g *= phase
        if mult is not None:
            if self._mode_values is not None:
                g *= mult
            else:
                x = self.to_fields(g)
                x *= mult
                g = self.to_spectrum(x)
        g *= phase
        rho = (self.mu @ g)[..., None, :]
        g *= theta
        g += (1.0 - theta) * rho
        return g

    def propagate(self, prop, fhat):
        """Apply per-frequency V x V propagators to spectra (B, V, R).

        ``prop[..., w, :, :]`` is the image of velocity w, (V, V, R) for the
        whole batch or (B, V, V, R) one per member.  Elementwise multiply-adds,
        so a member's result does not depend on its batch.
        """
        out = prop[..., 0, :, :] * fhat[:, 0, None]
        for w in range(1, fhat.shape[1]):
            out += prop[..., w, :, :] * fhat[:, w, None]
        return out

    # ---- noise ---------------------------------------------------------

    def _multiplier(self, values, delta):
        """exp(m delta eps) for chain values (A, J) and lengths (A,).

        (A, 1, 1) numbers when the noise is constant in x, each member its own
        (1, J) product as in `NoiseModel.combine`; (A, 1, *shape) fields otherwise.
        """
        if self._mode_values is not None:
            m = np.matmul(np.asarray(values, dtype=float)[:, None], self._mode_values)
            return np.exp(m * (np.asarray(delta, dtype=float)[:, None, None] * self.eps))
        m = self.noise.combine(values)
        d = np.asarray(delta, dtype=float).reshape((-1,) + (1,) * self.grid.dim)
        return np.exp(m * (d * self.eps))[:, None]

    # ---- driver --------------------------------------------------------

    def run(self, f0, paths, out_steps, observer) -> BatchResult:
        grid, noise, eps = self.grid, self.noise, self.eps
        batch = len(paths)
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

        # the batch's segment table, the members' seg_states stacked in batch
        # order; seg_end[row] is the jump that closes a row, inf on a member's
        # last row, and cur is each member's current row
        seg_states = np.concatenate([p.seg_states for p in paths])
        seg_end = np.concatenate([np.r_[p.seg_times[1:-1], np.inf] for p in paths])
        seg_values = noise.values(seg_states)
        cur = np.cumsum([0] + [p.n_jumps + 1 for p in paths[:-1]])
        dead = np.zeros(batch, dtype=bool)

        def record(step):
            outs = rec_for_step.get(step)
            if outs is None:
                return
            f = np.moveaxis(self.to_fields(fhat), 1, -1)
            rho = f @ self.mu
            states = seg_states[cur]
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

        def fail(b, exc):
            failures[b] = exc
            dead[b] = True
            fhat[b] = 0.0

        record(0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # an overflowing multiplier fails its member under the guards below
            steps = self._plan_steps if self.planned else self._piece_steps
            for k, fhat in enumerate(steps(fhat, seg_end, seg_values, cur)):
                if failures:
                    # a failed member stays zero: 0 x inf would fail it again
                    fhat[dead] = 0.0
                nrm = self.norm2(fhat)
                t_macro = (k + 1) * self.dt
                # one test per guard and step; a nan max enters the exact loop too
                if not nrm.max() <= OVERFLOW_NORM ** 2:
                    for b in np.flatnonzero(~(nrm <= OVERFLOW_NORM ** 2)):
                        fail(int(b), TrajectoryOverflowError(
                            f"||f||_L2 exceeded {OVERFLOW_NORM:g} at t={t_macro:.6g}"))
                        nrm[b] = 0.0
                np.maximum(sup_norm2, nrm, out=sup_norm2)
                gap = np.log(nrm) - (log_norm0 + 2.0 * c_star * t_macro / eps)
                np.maximum(margin, gap, out=margin)
                if not gap.max() <= GRONWALL_SLACK:
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

    # ---- pieces, one round at a time ------------------------------------

    def _piece_steps(self, fhat, seg_end, seg_values, cur):
        """Yield the batch after each step; a step with jumps takes `_jump_step`."""
        batch = fhat.shape[0]
        # the earliest jump of any member still ahead; a step that ends
        # before it is one full piece, with no look at the cursors
        next_jump = float(seg_end[cur].min())
        full_mult = None
        if self.noise.n_modes:
            full_mult = self._multiplier(seg_values[cur], np.full(batch, self.beta))
        for k in range(self.n_steps):
            if next_jump > (k + 1) * self.beta:
                fhat = self.piece(fhat, self._full_phase, self._full_theta, full_mult)
            else:
                jump = (seg_end[cur] <= (k + 1) * self.beta).nonzero()[0]
                fhat = self._jump_step(fhat, k, jump, cur, seg_end, seg_values, full_mult)
                full_mult[jump] = self._multiplier(
                    seg_values[cur[jump]], np.full(jump.size, self.beta))
                next_jump = float(seg_end[cur].min())
            yield fhat

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

    # ---- noise constant in x: propagators, planned in blocks ------------

    def _plan_steps(self, fhat, seg_end, seg_values, cur):
        """Yield the batch after each step, each step one propagator and one number.

        Every row of the segment table that closes inside the run is owned
        by the step k with k beta < seg_end <= (k+1) beta, and a (member,
        step) pair with such rows is one run of consecutive rows.  The
        pairs, sorted by step, are planned by `_plan` in blocks of at most
        PLAN_BUDGET // (V V R) pairs, at least one.
        """
        n_steps, beta = self.n_steps, self.beta
        V, R = self._expo.shape
        eye = np.zeros((V, V, R), dtype=complex)
        eye[np.arange(V), np.arange(V)] = 1.0
        full = self.piece(eye, self._full_phase, self._full_theta, None)
        full_num = self._multiplier(seg_values[cur], np.full(fhat.shape[0], beta))
        owner = np.searchsorted(np.arange(1, n_steps + 1) * beta, seg_end)
        closing = (owner < n_steps).nonzero()[0]
        # a member's last row never closes, so rows of one run are consecutive
        opens = np.ones(closing.size, dtype=bool)
        opens[1:] = (np.diff(closing) != 1) | (np.diff(owner[closing]) != 0)
        first = closing[opens]
        last = closing[np.roll(opens, -1)]
        order = np.argsort(owner[first], kind="stable")
        first, last = first[order], last[order]
        step = owner[first]
        member = np.searchsorted(cur, first, side="right") - 1
        step_ptr = np.searchsorted(step, np.arange(n_steps + 1))
        per_block = max(1, PLAN_BUDGET // (V * V * R))
        lo = hi = 0  # the pairs of the current block
        for k in range(n_steps):
            g = self.propagate(full, fhat)
            a, b = step_ptr[k], step_ptr[k + 1]
            mult = full_num.copy() if b > a else full_num
            while a < b:
                if a == hi:
                    lo, hi = hi, min(first.size, hi + per_block)
                    props, nums = self._plan(first[lo:hi], last[lo:hi], step[lo:hi],
                                             seg_end, seg_values, eye)
                    after = self._multiplier(seg_values[last[lo:hi] + 1],
                                             np.full(hi - lo, beta))
                c = min(b, hi)
                m, s = member[a:c], slice(a - lo, c - lo)
                g[m] = self.propagate(props[s], fhat[m])
                mult[m] = nums[s]
                full_num[m] = after[s]
                cur[m] = last[a:c] + 1
                a = c
            if self.noise.n_modes:
                g *= mult
            fhat = g
            yield fhat

    def _plan(self, first, last, step, seg_end, seg_values, eye):
        """Propagators (P, V, V, R) and numbers (P, 1, 1) of P (member, step) pairs.

        Pair p owns rows first[p] .. last[p] in step step[p]: its pieces end
        at each of their jumps and at the step's right edge, with the lengths
        and chain values of `_jump_step`, and its zero-length pieces are
        dropped.  Round j composes the j-th piece of every pair that has one,
        with the phases of that round.
        """
        count = last - first + 2
        pair = np.repeat(np.arange(first.size), count)
        pos = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
        rows = first[pair] + pos
        k = step[pair]
        start = np.where(pos == 0, k * self.beta, seg_end[rows - 1])
        d = np.minimum(seg_end[rows], (k + 1) * self.beta) - start
        live = (d > 0.0).nonzero()[0]
        pair, rows, d = pair[live], rows[live], d[live]
        pos = np.arange(pair.size) - np.searchsorted(pair, pair)
        theta = np.exp(-0.5 * d)[:, None, None, None]
        mult = self._multiplier(seg_values[rows], d)
        at = (pos == 0).nonzero()[0]  # every pair, in order
        props = self.piece(eye, self.phase(d[at])[:, None], theta[at], None)
        nums = mult[at]
        for j in range(1, int(pos.max(initial=0)) + 1):
            at = (pos == j).nonzero()[0]
            p = pair[at]
            props[p] = self.piece(props[p], self.phase(d[at])[:, None], theta[at], None)
            nums[p] *= mult[at]
        return props, nums


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
