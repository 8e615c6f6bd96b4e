"""Test functionals on the density, their correctors, and generator actions.

The observables are functionals of the density rho = int f dmu,

    linear:     phi(rho) = (rho, w)
    quadratic:  phi(rho) = (rho, w)^2 / 2

for a smooth grid weight w.  Both have closed-form first and second Frechet
derivatives and vanishing third derivative, which makes every generator
action below exact finite-dimensional algebra.

For the pair process (f, n) the generator splits into a fast relaxation part
and a transport/multiplication part,

    L_L psi(f,n) = (Lf, Dpsi) + M psi(f,n),
    L_A psi(f,n) = (-Af + f n, Dpsi),

with A f = a(v).grad_x f applied spectrally and M the product-chain
generator.  The corrected functional phi_eps = phi + eps phi1 + eps^2 phi2
is built so that the singular orders cancel identically:

    phi1(f,n) = -(bar(Af), u) - (rho b, u),     u = Dphi(rho), b = M^{-1}I(n),

and phi2 is the mixing integral of the fluctuation of L_A phi1 along the
joint relaxation/noise semigroup.  It splits into three groups:

    explicit:        (bar(A^2 f) - div K grad rho, u) + H(bar(Af), bar(Af))/2
    noise-quadratic: M^{-1}(<q> - q) with q(rho,n) = (rho n, D phi1^*(rho,n)),
                     solved chain by chain and on product chains
    noise-linear:    resolvent terms (I - G)^{-1} pairing the velocity
                     fluctuation of f with first-order noise statistics

The noise-linear group vanishes at velocity-independent f but is required
for the O(eps) generator residual at general kinetic states; dropping it
leaves an O(1) defect proportional to bar(Af).  All groups are polynomial of
degree <= 2 in f, so directional derivatives and chain-generator images are
evaluated in closed form, and

    L_eps phi_eps = eps^{-2} L_L phi + eps^{-1}(L_A phi + L_L phi1)
                    + (L_A phi1 + L_L phi2) + eps L_A phi2

collapses to  L phi + eps L_A phi2  with the first two brackets vanishing to
rounding and the third equal to the limit generator

    L phi(rho) = (div K grad rho, u) + (F rho, u)/2 + sum_j c_j H(rho eta_j, rho eta_j)/2.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid
from .noise import NoiseModel
from .velocity import VelocityModel


@dataclass
class TestFunctional:
    """Linear or quadratic functional of the density with grid weight w."""

    __test__ = False  # domain object, not a pytest suite

    kind: str
    weight: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValueError("kind must be 'linear' or 'quadratic'")
        self.weight = np.asarray(self.weight, dtype=float)
        if not self.name:
            self.name = self.kind


class _DirData:
    """Pairings of a batch of kinetic fields h (B, *shape, V) with the functional's weights.

    One product with the bundle's projection matrix gives every pairing the
    pieces below need, for a direction h and for the state f itself.  The
    product is taken one row at a time, a stack of (1, K) @ (K, P) products:
    a single (B, K) @ (K, P) product lets BLAS pick a blocking from B, which
    changes the rounding of every row, so a member's pairings would depend on
    how many members share its batch.
    """

    __slots__ = ("w", "cAw", "bAw", "A2w", "eta", "Aeta", "mAw", "pairs")

    def __init__(self, owner: "PerturbedTestFunction", h: np.ndarray):
        J = owner.J
        p = np.matmul(h.reshape(h.shape[0], 1, -1), owner._proj)[:, 0]
        self.w = p[:, 0]                             # (bar h, w)
        self.cAw = p[:, 1]                           # (bar h, div K grad w)
        self.bAw = -p[:, 2]                          # (bar(Ah), w) by skew-adjointness
        self.A2w = p[:, 3]                           # (bar(A^2 h), w)
        self.eta = p[:, 4:4 + J]                     # (bar h, w eta_j)
        self.Aeta = p[:, 4 + J:4 + 2 * J]            # (h, A(w eta_j))
        self.mAw = p[:, 4 + 2 * J:4 + 3 * J]         # (h eta_j, Aw)
        self.pairs = p[:, 4 + 3 * J:].reshape(p.shape[0], J, J)  # (bar h, w eta_j eta_l)


class _EvalState:
    """Evaluation record of a batch (f, n): the shared `record` plus one bundle's pairings."""


class PerturbedTestFunction:
    """A test functional bundled with its correctors and generator actions.

    Every piece acts on a batch: ``state`` takes f of shape (B, *grid.shape, V)
    and chain indices n of shape (B, J) and returns the evaluation record, and
    every piece evaluated on that record is a (B,) array.  A single state is
    the batch of one, ``state(f[None], n[None])``.  Every row is computed
    alone, so a member's values do not depend on the size of its batch.
    """

    def __init__(self, functional: TestFunctional, vm: VelocityModel,
                 nm: NoiseModel, grid: TorusGrid):
        if functional.weight.shape != grid.shape:
            raise ValueError("weight must live on the grid")
        self.phi = functional
        self.vm = vm
        self.nm = nm
        self.grid = grid
        self.quad = functional.kind == "quadratic"
        self.J = J = nm.n_modes
        self._fshape = grid.shape + (vm.n_velocities,)
        self._axes = tuple(range(1, grid.dim + 1))
        self.tables = nm.chain_tables

        mu = vm.weights
        a = vm.velocities
        # first-derivative multiplier of A per velocity, Nyquist zeroed
        m1 = np.zeros(self._fshape, dtype=complex)
        for d in range(grid.dim):
            m1 = m1 + 2j * np.pi * grid.freqs_odd[d][..., None] * a[:, d]
        self._m1_half = m1[..., :grid.n // 2 + 1, :]  # the rfft half of the last axis
        multA2bar = ((m1 * m1) @ mu).real  # Fourier symbol of div(K grad .)

        def apply_A(g):
            return grid.ifft(m1 * grid.fft(g)[..., None])

        w = functional.weight
        self.w = w
        self.Aw = apply_A(w)                               # (a_i . grad w) per velocity
        self.A2w = grid.ifft(m1 * m1 * grid.fft(w)[..., None])  # (a_i . grad)^2 w
        self.curlyAw = grid.ifft(multA2bar * grid.fft(w))  # div(K grad w)
        self.Fw = nm.trace_field() * w
        modes = nm.modes
        self._modes_flat = modes.reshape(J, grid.npoints)
        weta = w[None] * modes

        # projection matrix of _DirData: kinetic columns g(x, v) mu_v dx
        def lift(g):
            return np.broadcast_to(g[..., None], self._fshape)

        cols = [lift(w), lift(self.curlyAw), self.Aw, self.A2w]
        cols += [lift(g) for g in weta]
        cols += [apply_A(g) for g in weta]
        cols += [m[..., None] * self.Aw for m in modes]
        cols += [lift(g * m) for g in weta for m in modes]
        self._proj = (np.stack([c * mu for c in cols], axis=-1)
                      .reshape(grid.npoints * vm.n_velocities, -1) * grid.cell_volume)
        # density columns of generator_limit
        self._dens = (np.stack([w, self.curlyAw, self.Fw] + list(weta), axis=-1)
                      .reshape(grid.npoints, -1) * grid.cell_volume)

    # ---- evaluation record ---------------------------------------------

    def _dalpha(self, st, d: _DirData):
        # derivative of alpha(rho): 0 for linear phi, (bar h, w) for quadratic
        return d.w if self.quad else np.zeros_like(d.w)

    def record(self, f, n) -> _EvalState:
        """The fields of the evaluation record that no functional enters.

        ``f`` is (B, *grid.shape, V) and ``n`` holds the (B, J) chain state
        indices.  Every field carries the batch axis, and every bundle on the
        same velocity model, noise model and grid builds the same record.
        """
        f = np.asarray(f, dtype=float)
        n = np.asarray(n, dtype=np.int64)
        if f.shape[1:] != self._fshape:
            raise ValueError("f must be a batch of kinetic fields on the grid")
        if n.shape != (f.shape[0], self.J):
            raise ValueError("one chain state index per mode is required")
        rec = _EvalState()
        rec.f = f
        rec.chain, rec.psiq = self.tables.at(n)  # (5, B, J) and (B, J, J)
        rec.sv, rec.pv, rec.Bv, rec.Nv, rec.Gv = rec.chain
        rec.rho = f @ self.vm.weights
        spec = np.fft.rfftn(f, axes=self._axes) * self._m1_half
        rec.Af = np.fft.irfftn(spec, s=self.grid.shape, axes=self._axes)
        rec.nf = np.matmul(rec.sv[:, None], self._modes_flat).reshape(rec.rho.shape)
        rec.h_L = rec.rho[..., None] - f  # the direction of L_L
        rec.h_A = f * rec.nf[..., None]   # the direction of L_A, f n.eta - A f
        rec.h_A -= rec.Af
        return rec

    def pair(self, rec: _EvalState) -> _EvalState:
        """This functional's evaluation record: ``rec`` from `record` plus its pairings."""
        st = copy.copy(rec)
        pf = _DirData(self, st.f)
        st.mw = pf.w
        st.alpha = st.mw if self.quad else np.ones(st.f.shape[0])
        st.r = pf.eta
        st.rP = pf.pairs
        st.fmAw = pf.mAw
        st.S_A2 = pf.A2w
        st.S_cA = pf.cAw
        paf = _DirData(self, st.Af)
        st.S_A = paf.w
        st.aw = paf.eta
        st.S_n, st.S_b, st.S_B, st.S_N = np.einsum("kbj,bj->kb", st.chain[:4], st.r)
        return st

    def state(self, f, n) -> _EvalState:
        """The evaluation record of a batch of kinetic states, ``pair(record(f, n))``."""
        return self.pair(self.record(f, n))

    # ---- phi ----------------------------------------------------------

    def phi_value(self, st: _EvalState):
        return 0.5 * st.mw * st.mw if self.quad else st.mw

    def d_phi(self, st, d: _DirData):
        return st.alpha * d.w

    # ---- phi1 ----------------------------------------------------------

    def phi1_value(self, st: _EvalState):
        return -st.alpha * (st.S_A + st.S_b)

    def d_phi1(self, st, d: _DirData):
        base = d.bAw + np.sum(st.pv * d.eta, axis=1)
        return -st.alpha * base - self._dalpha(st, d) * (st.S_A + st.S_b)

    def m_phi1(self, st: _EvalState):
        return -st.alpha * st.S_n

    # ---- phi2: explicit part --------------------------------------------

    def phi2_sharp(self, st: _EvalState):
        out = st.alpha * (st.S_A2 - st.S_cA)
        if self.quad:
            out = out + 0.5 * st.S_A * st.S_A
        return out

    def d_phi2_sharp(self, st, d: _DirData):
        out = st.alpha * (d.A2w - d.cAw) + self._dalpha(st, d) * (st.S_A2 - st.S_cA)
        if self.quad:
            out = out + d.bAw * st.S_A
        return out

    # ---- phi2: noise-quadratic part ---------------------------------------

    def _beta(self, st):
        out = -st.alpha[:, None, None] * st.rP
        if self.quad:
            out = out - st.r[:, :, None] * st.r[:, None, :]
        return out

    def phi2_star(self, st: _EvalState):
        return np.sum(self._beta(st) * st.psiq, axis=(1, 2))

    def d_phi2_star(self, st, d: _DirData):
        dbeta = (-self._dalpha(st, d)[:, None, None] * st.rP
                 - st.alpha[:, None, None] * d.pairs)
        if self.quad:
            dbeta = dbeta - d.eta[:, :, None] * st.r[:, None, :] \
                - st.r[:, :, None] * d.eta[:, None, :]
        return np.sum(dbeta * st.psiq, axis=(1, 2))

    def m_phi2_star(self, st: _EvalState):
        gap = self.tables.pair_means - st.sv[:, :, None] * st.pv[:, None, :]
        return np.sum(self._beta(st) * gap, axis=(1, 2))

    # ---- phi2: noise-linear resolvent part ---------------------------------

    def _phi2_dagger_terms(self, st, Bv, Nv, S_B, S_N):
        t1 = st.alpha * np.sum(Bv * st.aw, axis=1)
        t2 = st.alpha * np.sum(Nv * st.fmAw, axis=1)  # (f Nf, Aw), Nf = Nv . eta
        if self.quad:
            return t1 + t2 + (S_B - S_N) * st.S_A
        return t1 + t2

    def phi2_dagger(self, st: _EvalState):
        return self._phi2_dagger_terms(st, st.Bv, st.Nv, st.S_B, st.S_N)

    def m_phi2_dagger(self, st: _EvalState):
        return self._phi2_dagger_terms(st, st.Bv - st.pv, st.Nv - st.sv,
                                       st.S_B - st.S_b, st.S_N - st.S_n)

    def d_phi2_dagger(self, st, d: _DirData):
        da = self._dalpha(st, d)
        # (bar(Ah), Bf w) = -(h, A(Bf w)) by skew-adjointness
        t1 = -st.alpha * np.sum(st.Bv * d.Aeta, axis=1) + da * np.sum(st.Bv * st.aw, axis=1)
        t2 = (st.alpha * np.sum(st.Nv * d.mAw, axis=1)
              + da * np.sum(st.Nv * st.fmAw, axis=1))
        if self.quad:
            hBN = np.sum((st.Bv - st.Nv) * d.eta, axis=1)
            return t1 + t2 + hBN * st.S_A + (st.S_B - st.S_N) * d.bAw
        return t1 + t2

    # ---- assembled correctors and generators --------------------------------

    def _phi2(self, st):
        return self.phi2_sharp(st) + self.phi2_star(st) + self.phi2_dagger(st)

    def value_eps(self, st, eps: float):
        """phi_eps = phi + eps phi1 + eps^2 phi2, each (B,)."""
        return self.phi_value(st) + eps * self.phi1_value(st) + eps * eps * self._phi2(st)

    def _d_phi2(self, st, d: _DirData):
        return (self.d_phi2_sharp(st, d) + self.d_phi2_star(st, d)
                + self.d_phi2_dagger(st, d))

    def generator_parts(self, st):
        """The four brackets of L_eps phi_eps ordered by power of eps, each (B,).

        b0 = L_L phi (vanishes), b1 = L_A phi + L_L phi1 (vanishes),
        b2 = L_A phi1 + L_L phi2 (equals the limit generator), b3 = L_A phi2.
        """
        dL = _DirData(self, st.h_L)
        dA = _DirData(self, st.h_A)
        b0 = self.d_phi(st, dL)
        b1 = self.d_phi(st, dA) + self.d_phi1(st, dL) + self.m_phi1(st)
        b2 = (self.d_phi1(st, dA) + self._d_phi2(st, dL)
              + self.m_phi2_star(st) + self.m_phi2_dagger(st))
        b3 = self._d_phi2(st, dA)
        return b0, b1, b2, b3

    def bracket(self, st):
        """Bracket integrand M|phi1|^2 - 2 phi1 M phi1 = sum_j (alpha r_j)^2 Gamma_j(n_j)."""
        gamma = st.alpha[:, None] * st.r
        return np.sum(gamma * gamma * st.Gv, axis=1)

    def generator_limit(self, rho):
        """L phi(rho) = (div K grad rho, u) + (F rho, u)/2 + sum c_j H(rho eta_j, rho eta_j)/2.

        ``rho`` is one density or a batch (B, *grid.shape); the result is a
        float or a (B,) array.
        """
        rho = np.asarray(rho, dtype=float)
        p = rho.reshape(rho.shape[:rho.ndim - self.grid.dim] + (-1,)) @ self._dens
        mw, s_ca, s_f, r = p[..., 0], p[..., 1], p[..., 2], p[..., 3:]
        alpha = mw if self.quad else 1.0
        out = alpha * s_ca + 0.5 * alpha * s_f
        if self.quad:
            out = out + 0.5 * ((r * r) @ self.nm.coefficients)
        return out


# ---------------------------------------------------------------------------
# random smooth states and residual scaling diagnostics


def random_smooth_field(grid: TorusGrid, n_velocities: int, rng,
                        decay: float = 3.0, amplitude: float = 1.0,
                        velocity_dependent: bool = True) -> np.ndarray:
    """Random band-limited kinetic state with spectral decay (1+|xi|^2)^{-decay/2}."""
    shape = grid.shape + (n_velocities,)
    white = rng.standard_normal(shape)
    if not velocity_dependent:
        white = np.repeat(white[..., :1], n_velocities, axis=-1)
    filt = (1.0 + grid.freq_sq) ** (-decay / 2.0)
    for k in grid.freqs:
        filt[np.abs(k) == grid.n // 2] = 0.0  # band-limit below Nyquist
    f = grid.ifft(grid.fft(white) * filt[..., None])
    sup = float(np.max(np.abs(f)))
    return f * (amplitude / max(sup, np.finfo(float).tiny))


def residual_scaling(bundle: PerturbedTestFunction, states, eps_list):
    """Normalized generator residuals |L_eps phi_eps - L phi| / (1 + ||f||^2).

    ``states`` is a sequence of (f, n) pairs, evaluated as one batch; returns
    an array of shape (n_states, n_eps) of normalized residuals.
    """
    if not len(states):
        return np.empty((0, len(eps_list)))
    f = np.stack([np.asarray(s[0], dtype=float) for s in states])
    n = np.stack([np.asarray(s[1], dtype=np.int64).reshape(-1) for s in states])
    st = bundle.state(f, n)
    lim = bundle.generator_limit(st.rho)
    sq = (f * f) @ bundle.vm.weights
    nrm2 = np.sum(sq.reshape(sq.shape[0], -1), axis=1) * bundle.grid.cell_volume
    b0, b1, b2, b3 = (b[:, None] for b in bundle.generator_parts(st))
    eps = np.asarray(eps_list, dtype=float)[None]
    geps = b0 / (eps * eps) + b1 / eps + b2 + eps * b3
    return np.abs(geps - lim[:, None]) / (1.0 + nrm2[:, None])


# ---------------------------------------------------------------------------
# martingale diagnostics along simulated trajectories


class GeneratorInstrument:
    """Batch observer recording phi_eps, L_eps phi_eps and the bracket rate.

    ``bundles`` is one PerturbedTestFunction, or a sequence of F of them on one
    velocity model, noise model and grid, which share one record per output.
    ``values``, ``gens`` and ``brackets`` are (batch, n_times) arrays for one
    bundle and lists of F of them for a sequence: row b is member b, column i
    output i.
    """

    def __init__(self, bundles, eps: float, n_times: int, batch: int = 1):
        one = isinstance(bundles, PerturbedTestFunction)
        self.bundles = [bundles] if one else list(bundles)
        self.eps = eps
        self._records = [[np.zeros((batch, n_times)) for _ in self.bundles] for _ in range(3)]
        self.values, self.gens, self.brackets = (r[0] for r in self._records) if one \
            else self._records

    def observe(self, i, f, state_indices):
        """Record output i of the batch (f, state_indices) for every bundle."""
        rec = self.bundles[0].record(f, state_indices)
        e = self.eps
        for bundle, values, gens, brackets in zip(self.bundles, *self._records):
            st = bundle.pair(rec)
            values[:, i] = bundle.value_eps(st, e)
            b0, b1, b2, b3 = bundle.generator_parts(st)
            gens[:, i] = b0 / (e * e) + b1 / e + b2 + e * b3
            brackets[:, i] = bundle.bracket(st)


def _cumtrapz(times, samples):
    dt = np.diff(times)
    avg = 0.5 * (samples[..., 1:] + samples[..., :-1])
    out = np.zeros(samples.shape)
    np.cumsum(avg * dt, axis=-1, out=out[..., 1:])
    return out


@dataclass
class MartingaleReport:
    times: np.ndarray
    mean: np.ndarray        # ensemble mean of M_eps(t)
    stderr: np.ndarray
    qv_gap_mean: np.ndarray   # mean of M^2 - quadrature of the bracket
    qv_gap_stderr: np.ndarray
    martingales: np.ndarray   # (n_traj, n_times)


def martingale_residual(times, values, gens, brackets,
                        min_trajectories: int = 100) -> MartingaleReport:
    """Ensemble statistics of M_eps(t) = phi_eps(t) - phi_eps(0) - int L_eps phi_eps.

    ``values``/``gens``/``brackets`` are (n_traj, n_times) arrays sampled at
    ``times``; the integral uses trapezoid quadrature on that time grid.
    """
    values = np.asarray(values, dtype=float)
    gens = np.asarray(gens, dtype=float)
    times = np.asarray(times, dtype=float)
    n_traj = values.shape[0]
    if n_traj < min_trajectories:
        raise ValueError(f"need at least {min_trajectories} trajectories")
    mart = values - values[:, :1] - _cumtrapz(times, gens)
    mean = mart.mean(axis=0)
    stderr = mart.std(axis=0, ddof=1) / np.sqrt(n_traj)
    gap = mart ** 2 - _cumtrapz(times, np.asarray(brackets, dtype=float))
    qv_mean = gap.mean(axis=0)
    qv_stderr = gap.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return MartingaleReport(times, mean, stderr, qv_mean, qv_stderr, mart)
