"""Driving random field m(t,x) = sum_j m_j(t) eta_j(x).

Each m_j is an independent, stationary, centered, finite-state jump Markov
chain; eta_j is a bounded spatial mode on the torus.  All effective statistics
of the noise reduce to finite linear algebra on the chains:

* the stationary law pi solves pi^T G = 0;
* the Poisson equation G phi = theta - <theta> has a unique centered solution
  on an irreducible chain, and equals -int_0^inf P_t theta dt;
* the integrated autocovariance of a centered chain is
  c = int_R E[m(0) m(t)] dt = -2 sum_k pi_k s_k phi_k  with  G phi = s;
* the spatial covariance kernel is k(x,y) = sum_j c_j eta_j(x) eta_j(y) and
  F(x) = k(x,x) its trace.

`NoiseModel` owns the layout of the chain states: chain j's state i is entry
``state_offsets[j] + i`` of one flat table, and `NoiseModel.values` reads
chain values for any array of state indices, and the generator's
`ChainTables`, built at their first use, are read the same way.  A
`NoisePath` holds the jumps of every chain and merges them into segments on
which all states are frozen.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import TorusGrid

MAX_MODES = 16
MAX_PAIR_STATES = 4096
CENTERING_TOL = 1e-12
POISSON_RESIDUAL_TOL = 1e-10


class ReducibleChainError(ValueError):
    """The rate matrix does not define a single communicating class."""


def _strongly_connected(rates: np.ndarray) -> bool:
    n = rates.shape[0]
    if n == 1:
        return True
    adj = rates > 0.0

    def reach(transpose):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[:, i] if transpose else adj[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return seen

    return bool(reach(False).all() and reach(True).all())


def stationary_law(rates: np.ndarray) -> np.ndarray:
    """Solve pi^T G = 0, sum pi = 1 by least squares (scale-invariant in G)."""
    n = rates.shape[0]
    scale = np.max(np.abs(rates))
    scaled = rates / scale if scale > 0 else rates
    a = np.vstack([scaled.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.any(pi < -1e-10):
        raise ReducibleChainError("stationary law has negative entries")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


@dataclass
class ChainSpec:
    """Finite-state jump chain: state values, rate matrix, stationary law."""

    states: np.ndarray
    rates: np.ndarray
    stationary: np.ndarray = field(default=None)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        g = np.asarray(self.rates, dtype=float)
        n = s.shape[0]
        if g.shape != (n, n):
            raise ValueError("rate matrix shape must match the state count")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(g))):
            raise ValueError("states and rates must be finite")
        off = g - np.diag(np.diag(g))
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        rowsum = np.abs(g.sum(axis=1))
        if np.max(rowsum) > 1e-9 * max(1.0, np.max(np.abs(g))):
            raise ValueError("rate matrix rows must sum to zero")
        if not _strongly_connected(g):
            raise ReducibleChainError("chain is not irreducible")
        if self.stationary is None:
            pi = stationary_law(g)
        else:
            pi = np.asarray(self.stationary, dtype=float)
            if np.max(np.abs(pi @ g)) > 1e-9 * max(1.0, np.max(np.abs(g))):
                raise ValueError("supplied stationary law is not invariant")
        mean = float(pi @ s)
        if abs(mean) > CENTERING_TOL * max(1.0, np.max(np.abs(s))):
            raise ValueError("chain is not centered under its stationary law")
        exit_rates = -np.diag(g)
        # jump_cdf[i, j]: probability that a jump from i lands at or before j,
        # summed left to right; inf from the last reachable state on, so that a
        # uniform above the rounded row total still lands on a real jump
        jump_cdf = np.full((n, n), np.inf)
        for i in np.nonzero(exit_rates > 0.0)[0]:
            row = off[i] / exit_rates[i]
            last = np.nonzero(row > 0.0)[0][-1]
            jump_cdf[i, :last] = np.cumsum(row[:last])
        for a in (s, g, pi, exit_rates, jump_cdf):
            a.flags.writeable = False
        self.states = s
        self.rates = g
        self.stationary = pi
        self.exit_rates = exit_rates
        self.jump_cdf = jump_cdf

    @property
    def n_states(self) -> int:
        return self.states.shape[0]


def telegraph(sigma: float, rate: float) -> ChainSpec:
    """Two-state chain on {-sigma, +sigma} flipping at the given rate."""
    g = np.array([[-rate, rate], [rate, -rate]], dtype=float)
    return ChainSpec(np.array([-sigma, sigma]), g)


def zero_chain() -> ChainSpec:
    """Degenerate single-state chain frozen at 0."""
    return ChainSpec(np.array([0.0]), np.array([[0.0]]))


def solve_poisson(chain: ChainSpec, observable) -> np.ndarray:
    """Centered solution of G phi = theta - <theta>_pi.

    The observable is centered first if needed; the returned phi satisfies
    sum_k pi_k phi_k = 0 and equals -int_0^inf P_t theta dt.
    """
    theta = np.asarray(observable, dtype=float)
    if theta.shape != (chain.n_states,):
        raise ValueError("observable must assign one value per state")
    theta_c = theta - float(chain.stationary @ theta)
    phi, *_ = np.linalg.lstsq(chain.rates, theta_c, rcond=None)
    scale = max(1.0, float(np.max(np.abs(theta_c))))
    if np.max(np.abs(chain.rates @ phi - theta_c)) > POISSON_RESIDUAL_TOL * scale:
        raise ReducibleChainError("Poisson equation is singular beyond constants")
    return phi - float(chain.stationary @ phi)


def resolvent_solve(chain: ChainSpec, observable) -> np.ndarray:
    """(I - G)^{-1} observable; preserves pi-centering."""
    theta = np.asarray(observable, dtype=float)
    return np.linalg.solve(np.eye(chain.n_states) - chain.rates, theta)


def carre_du_champ(chain: ChainSpec, phi) -> np.ndarray:
    """Gamma(phi)(i) = sum_k G[i,k] (phi_k - phi_i)^2, the jump variance rate."""
    phi = np.asarray(phi, dtype=float)
    diff = phi[None, :] - phi[:, None]
    return np.sum(chain.rates * diff * diff, axis=1)


def integrated_autocovariance(chain: ChainSpec) -> float:
    """c = E int_R m(0) m(t) dt = -2 sum pi s phi with G phi = s."""
    phi = solve_poisson(chain, chain.states)
    return float(-2.0 * np.sum(chain.stationary * chain.states * phi))


def solve_poisson_pair(chain_a: ChainSpec, chain_b: ChainSpec, observable) -> np.ndarray:
    """Centered Poisson solve on the product chain (generator = Kronecker sum).

    ``observable`` is a (n_a, n_b) table; returns psi with the same shape so
    that (G_a (+) G_b) psi = observable - <observable>.
    """
    theta = np.asarray(observable, dtype=float)
    na, nb = chain_a.n_states, chain_b.n_states
    if theta.shape != (na, nb):
        raise ValueError("observable table shape mismatch")
    gen = np.kron(chain_a.rates, np.eye(nb)) + np.kron(np.eye(na), chain_b.rates)
    pi = np.kron(chain_a.stationary, chain_b.stationary)
    rhs = theta.reshape(-1) - float(pi @ theta.reshape(-1))
    psi, *_ = np.linalg.lstsq(gen, rhs, rcond=None)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if np.max(np.abs(gen @ psi - rhs)) > POISSON_RESIDUAL_TOL * scale:
        raise ReducibleChainError("product-chain Poisson equation is singular")
    psi = psi - float(pi @ psi)
    return psi.reshape(na, nb)


# ---------------------------------------------------------------------------
# spatial modes


def make_mode(grid: TorusGrid, label: str, amplitude: float = 1.0) -> np.ndarray:
    """Closed-form mode from a label: "const", "cos:k" or "sin:k".

    The wavevector k is an integer for dim 1, or comma-separated integers
    for dim 2, e.g. "cos:1,0".
    """
    if label == "const":
        return np.full(grid.shape, amplitude)
    try:
        kind, kstr = label.split(":")
        kvec = [int(p) for p in kstr.split(",")]
    except ValueError as exc:
        raise ValueError(f"unrecognized mode label {label!r}") from exc
    if kind not in ("cos", "sin") or len(kvec) != grid.dim:
        raise ValueError(f"unrecognized mode label {label!r}")
    coords = grid.coords()
    phase = sum(2 * np.pi * k * x for k, x in zip(kvec, coords))
    return amplitude * (np.cos(phase) if kind == "cos" else np.sin(phase))


def mode_from_fourier(grid: TorusGrid, terms) -> np.ndarray:
    """Mode from a table of (wavevector, cos_coefficient, sin_coefficient) rows."""
    out = np.zeros(grid.shape)
    coords = grid.coords()
    for row in terms:
        kvec, ccos, csin = row[0], float(row[1]), float(row[2])
        kvec = [kvec] if np.isscalar(kvec) else list(kvec)
        if len(kvec) != grid.dim:
            raise ValueError("wavevector dimension mismatch in Fourier table")
        phase = sum(2 * np.pi * int(k) * x for k, x in zip(kvec, coords))
        out += ccos * np.cos(phase) + csin * np.sin(phase)
    return out


def simulate_chain(chain: ChainSpec, start: int, horizon: float, rng):
    """One exact chain path: exponential holding times, embedded jump draws.

    Returns (jump_times, new_states) strictly inside (0, horizon).
    """
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
        # the method form: np.searchsorted's dispatch costs more than the search
        i = int(chain.jump_cdf[i].searchsorted(rng.random(), side="right"))
        t_list.append(t)
        s_list.append(i)
    return np.asarray(t_list, dtype=float), np.asarray(s_list, dtype=np.int64)


def chain_integral(chain: ChainSpec, start: int, jump_times, jump_states,
                   horizon: float) -> float:
    """int_0^horizon m(t) dt, computed exactly from one chain's jump record."""
    t = np.concatenate([[0.0], jump_times, [horizon]])
    idx = np.concatenate([[start], jump_states]).astype(np.int64)
    return float(np.sum(chain.states[idx] * np.diff(t)))


# ---------------------------------------------------------------------------
# the assembled noise model


class ChainTables:
    """Per-state tables of the generator's correctors, on a noise model's state layout.

    Per chain: s, M^{-1}I, (I - G)^{-1} M^{-1}I, (I - G)^{-1} s and Gamma(M^{-1}I).
    Per pair: psi_jl, solving M psi_jl = <theta_jl> - theta_jl for theta_jl(n) =
    s_j(n_j) M^{-1}I_l(n_l) on the product chain (chain j alone when j = l).
    """

    def __init__(self, model: "NoiseModel"):
        chains, J, p_tab = model.chains, model.n_modes, model.poisson_identity
        self._offsets = model.state_offsets
        self._sizes = np.array([ch.n_states for ch in chains], dtype=np.int64)
        tabs = [np.stack([ch.states, p, resolvent_solve(ch, p),
                          resolvent_solve(ch, ch.states), carre_du_champ(ch, p)])
                for ch, p in zip(chains, p_tab)]
        self._rows = np.concatenate([np.zeros((5, 0))] + tabs, axis=1)
        self.pair_means = np.zeros((J, J))
        parts = []
        for j, chj in enumerate(chains):
            for l, chl in enumerate(chains):
                if j == l:
                    theta = chj.states * p_tab[j]
                    mean = float(chj.stationary @ theta)  # equals -c_j / 2
                    tab = solve_poisson(chj, mean - theta)
                else:
                    if chj.n_states * chl.n_states > MAX_PAIR_STATES:
                        raise ValueError(
                            f"product-chain solve budget exceeded for mode pair ({j}, {l})")
                    theta = np.outer(chj.states, p_tab[l])
                    mean = float(chj.stationary @ theta @ chl.stationary)
                    tab = solve_poisson_pair(chj, chl, mean - theta)
                self.pair_means[j, l] = mean
                parts.append(tab.reshape(-1))
        # every psi_jl in one flat table: entry (j, l) at off + sj * n_j + sl * n_l
        self._pair = np.concatenate([np.zeros(0)] + parts)
        self._pair_off = np.cumsum([0] + [t.size for t in parts])[:-1].reshape(J, J)
        self._pair_sl = 1 - np.eye(J, dtype=np.int64)
        self._pair_sj = np.where(self._pair_sl == 1, self._sizes, 1)

    def at(self, state_indices):
        """The rows (5, ..., J) and psi (..., J, J) at chain state indices (..., J)."""
        n = np.asarray(state_indices, dtype=np.int64)
        if np.any(n < 0) or np.any(n >= self._sizes):
            raise ValueError("chain state index out of range")
        psi = self._pair[self._pair_off + self._pair_sj * n[..., :, None]
                         + self._pair_sl * n[..., None, :]]
        return self._rows[:, self._offsets + n], psi


@dataclass
class NoiseModel:
    """Independent chains attached to spatial modes, with derived statistics."""

    grid: TorusGrid
    chains: tuple
    modes: np.ndarray  # (J, *grid.shape)

    def __post_init__(self):
        self.chains = tuple(self.chains)
        modes = np.asarray(self.modes, dtype=float)
        if modes.size == 0:
            modes = np.zeros((0,) + self.grid.shape)
        if modes.shape != (len(self.chains),) + self.grid.shape:
            raise ValueError("need one mode per chain, each on the model grid")
        if len(self.chains) > MAX_MODES:
            raise ValueError(f"at most {MAX_MODES} modes are supported")
        modes.flags.writeable = False
        self.modes = modes
        # per-chain Poisson solution for the identity observable
        self.poisson_identity = tuple(solve_poisson(ch, ch.states) for ch in self.chains)
        self.coefficients = np.array(
            [integrated_autocovariance(ch) for ch in self.chains]
        )
        # certified W^{1,inf}-type bound C_* for both m and M^{-1}I(m)
        sup_mode = np.array([np.max(np.abs(m)) for m in self.modes])
        grad_sup = np.array([max(float(np.max(np.abs(g))) for g in self.grid.grad(m))
                             for m in self.modes])
        s_sup = np.array([np.max(np.abs(ch.states)) for ch in self.chains])
        p_sup = np.array([np.max(np.abs(p)) for p in self.poisson_identity])
        self.bound = max(float(np.sum(sup_mode * s_sup)), float(np.sum(grad_sup * s_sup)),
                         float(np.sum(sup_mode * p_sup)), float(np.sum(grad_sup * p_sup)))
        # every chain's state values in one flat table: chain j's state i is
        # entry state_offsets[j] + i
        self.state_offsets = np.cumsum([0] + [ch.n_states for ch in self.chains])[:-1]
        self._state_values = np.concatenate([np.zeros(0)] + [ch.states for ch in self.chains])

    @property
    def n_modes(self) -> int:
        return len(self.chains)

    @functools.cached_property
    def chain_tables(self) -> ChainTables:
        """The generator's chain tables, built at the first use and then kept."""
        return ChainTables(self)

    # ---- fields -----------------------------------------------------

    def _combine(self, values) -> np.ndarray:
        return np.tensordot(np.asarray(values, dtype=float), self.modes, axes=1)

    def values(self, state_indices) -> np.ndarray:
        """Chain values (..., J) of the chain state indices (..., J)."""
        return self._state_values[self.state_offsets + np.asarray(state_indices, dtype=np.int64)]

    def field(self, state_indices) -> np.ndarray:
        """m(x) for the given chain states."""
        return self._combine(self.values(state_indices))

    def m_inverse_field(self, state_indices) -> np.ndarray:
        """M^{-1}I(n)(x) = sum_j phi_j(n_j) eta_j(x)."""
        vals = [p[i] for p, i in zip(self.poisson_identity, state_indices)]
        return self._combine(vals)

    def kernel_and_trace(self):
        """Covariance kernel k(x,y) (flattened grid x grid) and its trace F(x).

        Assembled from the square-root factors sqrt(c_j) eta_j, which makes
        the symmetry k(x,y) = k(y,x) exact in floating point.
        """
        if self.n_modes == 0:
            return np.zeros((self.grid.npoints, self.grid.npoints)), self.trace_field()
        scaled = (np.sqrt(np.clip(self.coefficients, 0.0, None))[:, None]
                  * self.modes.reshape(self.n_modes, -1))
        k = np.einsum("jx,jy->xy", scaled, scaled)
        return k, self.trace_field()

    def trace_field(self) -> np.ndarray:
        """F(x) = k(x,x) = sum_j c_j eta_j(x)^2."""
        return np.einsum("j,j...,j...->...", self.coefficients, self.modes, self.modes)

    def apply_Q(self, f) -> np.ndarray:
        """Covariance operator (Qf)(x) = sum_j c_j eta_j(x) (eta_j, f)."""
        f = np.asarray(f, dtype=float)
        if f.shape != self.grid.shape:
            raise ValueError("field does not live on the model grid")
        proj = np.array([self.grid.inner(m, f) for m in self.modes])
        return self._combine(self.coefficients * proj)

    # ---- sampling ---------------------------------------------------

    def sample_stationary(self, rng) -> np.ndarray:
        """One stationary state index per chain, independent across chains."""
        return np.array(
            [rng.choice(ch.n_states, p=ch.stationary) for ch in self.chains], dtype=np.int64
        )

    def simulate_path(self, horizon: float, rng) -> "NoisePath":
        """Exact event-driven simulation of all chains over [0, horizon]."""
        if not 0 <= horizon < np.inf:
            raise ValueError("horizon must be nonnegative and finite")
        initial = self.sample_stationary(rng)
        times, states = [], []
        for ch, i0 in zip(self.chains, initial):
            t_arr, s_arr = simulate_chain(ch, int(i0), horizon, rng)
            times.append(t_arr)
            states.append(s_arr)
        return NoisePath(horizon, initial, tuple(times), tuple(states))


@dataclass
class NoisePath:
    """Exact jump record of all chains on [0, horizon] (microscopic time)."""

    horizon: float
    initial: np.ndarray
    jump_times: tuple  # per chain, strictly increasing within (0, horizon)
    jump_states: tuple  # per chain, state index after each jump

    def __post_init__(self):
        runs = []  # per chain: its initial state, then the state after each jump
        for j, (t, s) in enumerate(zip(self.jump_times, self.jump_states)):
            if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] >= self.horizon):
                raise ValueError("jump times must be strictly increasing inside the horizon")
            if t.shape != s.shape:
                raise ValueError("jump time/state records disagree")
            seq = np.concatenate([[self.initial[j]], s])
            if np.any(np.diff(seq) == 0):
                raise ValueError("the state must change at every jump")
            runs.append(seq)
        # merge the chains' jumps by time; the stable sort keeps chain order on a tie
        times = np.concatenate([np.zeros(0), *self.jump_times])
        chain = np.repeat(np.arange(len(runs)), [t.size for t in self.jump_times])
        order = np.argsort(times, kind="stable")
        self.seg_times = np.concatenate([[0.0], times[order], [self.horizon]])
        # seen[k, j]: jumps of chain j among the first k merged jumps, which
        # index chain j's run in segment k
        seen = np.zeros((order.size + 1, len(runs)), dtype=np.int64)
        seen[np.arange(1, order.size + 1), chain[order]] = 1
        np.cumsum(seen, axis=0, out=seen)
        table = np.concatenate([np.zeros(0, dtype=np.int64), *runs]).astype(np.int64)
        self.seg_states = table[np.cumsum([0] + [r.size for r in runs])[:-1] + seen]

    @property
    def n_jumps(self) -> int:
        return self.seg_states.shape[0] - 1

    def segments_between(self, a: float, b: float):
        """Yield (t0, t1, segment_index) covering [a, b] with constant states."""
        if b < a or a < -1e-12 or b > self.horizon * (1 + 1e-12) + 1e-12:
            raise ValueError("window not covered by the path")
        idx = int(np.searchsorted(self.seg_times, a, side="right")) - 1
        idx = min(max(idx, 0), self.seg_states.shape[0] - 1)
        t0 = a
        while t0 < b:
            t1 = min(float(self.seg_times[idx + 1]), b)
            if t1 > t0:
                yield t0, t1, idx
            t0 = t1
            if t0 < b:
                idx += 1

    def sup_bounds(self, model: NoiseModel):
        """Pathwise sup of |m| and |M^{-1}I(m)| over all segments (for the bound C_*)."""
        sup_m, sup_inv = 0.0, 0.0
        for row in self.seg_states:
            sup_m = max(sup_m, float(np.max(np.abs(model.field(row)))) if model.n_modes else 0.0)
            sup_inv = max(
                sup_inv,
                float(np.max(np.abs(model.m_inverse_field(row)))) if model.n_modes else 0.0,
            )
        return sup_m, sup_inv


def empirical_autocovariance(chain: ChainSpec, horizon: float, n_paths: int, rng):
    """Monte Carlo estimate of c via the variance of time integrals.

    For a stationary mixing chain, E[(int_0^T m)^2] / T -> c as T grows; each
    stationary path contributes one sample of (int_0^T m)^2 / T, the integral
    computed exactly from the jump record.
    """
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    samples = np.empty(n_paths)
    for i in range(n_paths):
        start = int(rng.choice(chain.n_states, p=chain.stationary))
        times, states = simulate_chain(chain, start, horizon, rng)
        samples[i] = chain_integral(chain, start, times, states, horizon) ** 2 / horizon
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(n_paths))
    return mean, stderr
