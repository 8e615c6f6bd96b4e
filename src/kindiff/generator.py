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

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from . import velocity as vel
from .grid import TorusGrid
from .noise import MAX_PAIR_STATES, NoiseModel
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

    def value(self, rho, grid: TorusGrid) -> float:
        mw = grid.inner(rho, self.weight)
        return mw if self.kind == "linear" else 0.5 * mw * mw

    def grad(self, rho, grid: TorusGrid) -> np.ndarray:
        """D phi(rho) as a grid function."""
        if self.kind == "linear":
            return self.weight.copy()
        return grid.inner(rho, self.weight) * self.weight

    def hess(self, p, q, grid: TorusGrid) -> float:
        """D^2 phi applied to two grid functions (constant in rho)."""
        if self.kind == "linear":
            return 0.0
        return grid.inner(p, self.weight) * grid.inner(q, self.weight)


class _DirData:
    """Directional data for one full kinetic direction h."""

    __slots__ = ("h", "bar", "w", "eta", "pairs", "bAw", "A2w", "cAw")

    def __init__(self, owner: "PerturbedTestFunction", h: np.ndarray):
        cell = owner.grid.cell_volume
        self.h = h
        self.bar = h @ owner.vm.weights
        flat = self.bar.reshape(-1)
        self.w = float(flat @ owner._w_flat) * cell
        if owner.J:
            self.eta = owner._weta_flat @ flat * cell
            self.pairs = (owner._wpair_flat @ flat * cell).reshape(owner.J, owner.J)
        else:
            self.eta = owner._empty
            self.pairs = owner._empty2
        self.bAw = -owner._inner_xv(h, owner.Aw)   # (bar(Ah), w) by skew-adjointness
        self.A2w = owner._inner_xv(h, owner.A2w)   # (bar(A^2 h), w)
        self.cAw = float(flat @ owner._cAw_flat) * cell  # (bar h, div K grad w)


class _EvalState:
    """Per-(f, n) derived quantities shared by all functional pieces."""

    __slots__ = (
        "f", "n", "rho", "Af", "barAf", "sv", "pv", "Bv", "Nv", "Gv",
        "nf", "b", "Bf", "Nf", "mw", "alpha",
        "r", "rP", "S_A", "S_A2", "S_cA", "S_b", "S_n", "S_B", "S_N",
        "rFw", "aw", "dir_L", "dir_A",
    )


class PerturbedTestFunction:
    """A test functional bundled with its correctors and generator actions."""

    def __init__(self, functional: TestFunctional, vm: VelocityModel,
                 nm: NoiseModel, grid: TorusGrid):
        if functional.weight.shape != grid.shape:
            raise ValueError("weight must live on the grid")
        self.phi = functional
        self.vm = vm
        self.nm = nm
        self.grid = grid
        self.quad = functional.kind == "quadratic"
        self.J = nm.n_modes
        self._empty = np.zeros(0)
        self._empty2 = np.zeros((0, 0))

        mu = vm.weights
        a = vm.velocities
        # first-derivative multiplier of A per velocity, Nyquist zeroed
        m1 = np.zeros(grid.shape + (vm.n_velocities,), dtype=complex)
        for d in range(grid.dim):
            m1 = m1 + 2j * np.pi * grid.freqs_odd[d][..., None] * a[:, d]
        self._m1 = m1
        self._multA2bar = ((m1 * m1) @ mu).real  # Fourier symbol of div(K grad .)

        w = functional.weight
        what = grid.fft(w)
        self.w = w
        self.Aw = grid.ifft(m1 * what[..., None])          # (a_i . grad w) per velocity
        self.A2w = grid.ifft(m1 * m1 * what[..., None])    # (a_i . grad)^2 w
        self.curlyAw = grid.ifft(self._multA2bar * what)   # div(K grad w)
        self._w_flat = w.reshape(-1)
        self._cAw_flat = self.curlyAw.reshape(-1)

        modes = nm.modes
        self.c = nm.coefficients
        if self.J:
            self._weta = w[None] * modes
            self._weta_flat = self._weta.reshape(self.J, -1)
            pair = modes[:, None] * modes[None, :]
            self._wpair_flat = (w[None, None] * pair).reshape(self.J * self.J, -1)
            self._gradweta = np.stack(
                [np.stack(grid.grad(self._weta[j])) for j in range(self.J)]
            )  # (J, dim, *shape)
        else:
            self._weta_flat = np.zeros((0, grid.npoints))
            self._wpair_flat = np.zeros((0, grid.npoints))
            self._gradweta = np.zeros((0, grid.dim) + grid.shape)
        self.Fw = nm.trace_field() * w

        # chain tables: identity Poisson solution, resolvents, jump variance rate
        self.s_tab = [ch.states for ch in nm.chains]
        self.p_tab = list(nm.poisson_identity)
        self.B_tab = [noise_mod.resolvent_solve(ch, p)
                      for ch, p in zip(nm.chains, self.p_tab)]
        self.N_tab = [noise_mod.resolvent_solve(ch, ch.states) for ch in nm.chains]
        self.G_tab = [noise_mod.carre_du_champ(ch, p)
                      for ch, p in zip(nm.chains, self.p_tab)]
        # Poisson solves for the noise-quadratic observables theta_{jl}(n) = s_j(n_j) phi_l(n_l)
        self.psiQ = {}
        self.thetaQ_mean = {}
        for j, chj in enumerate(nm.chains):
            for l, chl in enumerate(nm.chains):
                if j == l:
                    theta = chj.states * self.p_tab[j]
                    mean = float(chj.stationary @ theta)  # equals -c_j / 2
                    self.psiQ[(j, j)] = noise_mod.solve_poisson(chj, mean - theta)
                else:
                    if chj.n_states * chl.n_states > MAX_PAIR_STATES:
                        raise ValueError(
                            f"product-chain solve budget exceeded for mode pair ({j}, {l})"
                        )
                    theta = np.outer(chj.states, self.p_tab[l])
                    mean = float(chj.stationary @ theta @ chl.stationary)
                    self.psiQ[(j, l)] = noise_mod.solve_poisson_pair(chj, chl, mean - theta)
                self.thetaQ_mean[(j, l)] = mean

    # ---- low-level helpers -------------------------------------------

    def _inner_xv(self, f, g) -> float:
        return float(np.sum((f * g) @ self.vm.weights) * self.grid.cell_volume)

    def _gi(self, f, g) -> float:
        return float(f.reshape(-1) @ g.reshape(-1)) * self.grid.cell_volume

    def _dalpha(self, st, d: _DirData) -> float:
        # derivative of alpha(rho): 0 for linear phi, (bar h, w) for quadratic
        return d.w if self.quad else 0.0

    def state(self, f, n) -> _EvalState:
        """Assemble the shared evaluation record for a kinetic state (f, n)."""
        f = np.asarray(f, dtype=float)
        n = np.asarray(n, dtype=np.int64).reshape(-1)
        if n.shape[0] != self.J:
            raise ValueError("one chain state index per mode is required")
        cell = self.grid.cell_volume
        st = _EvalState()
        st.f = f
        st.n = n
        st.rho = f @ self.vm.weights
        spec = self._m1 * self.grid.fft(f)
        st.Af = self.grid.ifft(spec)
        st.barAf = self.grid.ifft(spec @ self.vm.weights)
        J = self.J
        st.sv = np.array([self.s_tab[j][n[j]] for j in range(J)])
        st.pv = np.array([self.p_tab[j][n[j]] for j in range(J)])
        st.Bv = np.array([self.B_tab[j][n[j]] for j in range(J)])
        st.Nv = np.array([self.N_tab[j][n[j]] for j in range(J)])
        st.Gv = np.array([self.G_tab[j][n[j]] for j in range(J)])
        zero = np.zeros(self.grid.shape)
        st.nf = np.tensordot(st.sv, self.nm.modes, axes=1) if J else zero
        st.b = np.tensordot(st.pv, self.nm.modes, axes=1) if J else zero
        st.Bf = np.tensordot(st.Bv, self.nm.modes, axes=1) if J else zero
        st.Nf = np.tensordot(st.Nv, self.nm.modes, axes=1) if J else zero
        rho_flat = st.rho.reshape(-1)
        st.mw = float(rho_flat @ self._w_flat) * cell
        st.alpha = st.mw if self.quad else 1.0
        st.r = self._weta_flat @ rho_flat * cell if J else self._empty
        st.rP = (self._wpair_flat @ rho_flat * cell).reshape(J, J) if J else self._empty2
        st.S_A = self._gi(st.barAf, self.w)
        st.S_A2 = self._inner_xv(f, self.A2w)
        st.S_cA = float(rho_flat @ self._cAw_flat) * cell
        st.S_b = float(st.pv @ st.r) if J else 0.0
        st.S_n = float(st.sv @ st.r) if J else 0.0
        st.S_B = float(st.Bv @ st.r) if J else 0.0
        st.S_N = float(st.Nv @ st.r) if J else 0.0
        st.rFw = float(rho_flat @ self.Fw.reshape(-1)) * cell
        st.aw = self._weta_flat @ st.barAf.reshape(-1) * cell if J else self._empty
        st.dir_L = None
        st.dir_A = None
        return st

    def _dir(self, st: _EvalState, which: str) -> _DirData:
        if which == "L":
            if st.dir_L is None:
                st.dir_L = _DirData(self, st.rho[..., None] - st.f)
            return st.dir_L
        if st.dir_A is None:
            st.dir_A = _DirData(self, -st.Af + st.f * st.nf[..., None])
        return st.dir_A

    # ---- phi ----------------------------------------------------------

    def phi_value(self, st: _EvalState) -> float:
        return 0.5 * st.mw * st.mw if self.quad else st.mw

    def d_phi(self, st, d: _DirData) -> float:
        return st.alpha * d.w

    # ---- phi1 ----------------------------------------------------------

    def phi1_value(self, st: _EvalState) -> float:
        return -st.alpha * (st.S_A + st.S_b)

    def d_phi1(self, st, d: _DirData) -> float:
        base = d.bAw + (float(st.pv @ d.eta) if self.J else 0.0)
        return -st.alpha * base - self._dalpha(st, d) * (st.S_A + st.S_b)

    def m_phi1(self, st: _EvalState) -> float:
        return -st.alpha * st.S_n

    # ---- phi2: explicit part --------------------------------------------

    def phi2_sharp(self, st: _EvalState) -> float:
        out = st.alpha * (st.S_A2 - st.S_cA)
        if self.quad:
            out += 0.5 * st.S_A * st.S_A
        return out

    def d_phi2_sharp(self, st, d: _DirData) -> float:
        out = st.alpha * (d.A2w - d.cAw) + self._dalpha(st, d) * (st.S_A2 - st.S_cA)
        if self.quad:
            out += d.bAw * st.S_A
        return out

    # ---- phi2: noise-quadratic part ---------------------------------------

    def _beta(self, st) -> np.ndarray:
        out = -st.alpha * st.rP
        if self.quad:
            out = out - np.outer(st.r, st.r)
        return out

    def _psiq_values(self, n) -> np.ndarray:
        J = self.J
        vals = np.zeros((J, J))
        for j in range(J):
            for l in range(J):
                tab = self.psiQ[(j, l)]
                vals[j, l] = tab[n[j]] if j == l else tab[n[j], n[l]]
        return vals

    def phi2_star(self, st: _EvalState) -> float:
        if not self.J:
            return 0.0
        return float(np.sum(self._beta(st) * self._psiq_values(st.n)))

    def d_phi2_star(self, st, d: _DirData) -> float:
        if not self.J:
            return 0.0
        dbeta = -self._dalpha(st, d) * st.rP - st.alpha * d.pairs
        if self.quad:
            dbeta = dbeta - np.outer(d.eta, st.r) - np.outer(st.r, d.eta)
        return float(np.sum(dbeta * self._psiq_values(st.n)))

    def m_phi2_star(self, st: _EvalState) -> float:
        if not self.J:
            return 0.0
        beta = self._beta(st)
        out = 0.0
        for j in range(self.J):
            for l in range(self.J):
                out += beta[j, l] * (self.thetaQ_mean[(j, l)] - st.sv[j] * st.pv[l])
        return out

    # ---- phi2: noise-linear resolvent part ---------------------------------

    def _a_of_weta_combo(self, coeff_vec) -> np.ndarray:
        """A applied to sum_k coeff_k (w eta_k), per velocity."""
        g = np.tensordot(coeff_vec, self._gradweta, axes=1)   # (dim, *shape)
        return np.tensordot(np.moveaxis(g, 0, -1), self.vm.velocities, axes=([-1], [1]))

    def _phi2_dagger_terms(self, st, Bv, Nv, Nf, S_B, S_N) -> float:
        t1 = st.alpha * float(Bv @ st.aw)
        t2 = st.alpha * self._inner_xv(st.f * Nf[..., None], self.Aw)
        t34 = (S_B - S_N) * st.S_A if self.quad else 0.0
        return t1 + t2 + t34

    def phi2_dagger(self, st: _EvalState) -> float:
        if not self.J:
            return 0.0
        return self._phi2_dagger_terms(st, st.Bv, st.Nv, st.Nf, st.S_B, st.S_N)

    def m_phi2_dagger(self, st: _EvalState) -> float:
        if not self.J:
            return 0.0
        return self._phi2_dagger_terms(
            st, st.Bv - st.pv, st.Nv - st.sv, st.Nf - st.nf,
            st.S_B - st.S_b, st.S_N - st.S_n,
        )

    def d_phi2_dagger(self, st, d: _DirData) -> float:
        if not self.J:
            return 0.0
        da = self._dalpha(st, d)
        ABfw = self._a_of_weta_combo(st.Bv)
        # (bar(Ah), Bf w) = -(h, A(Bf w)) by skew-adjointness
        t1 = -st.alpha * self._inner_xv(d.h, ABfw) + da * float(st.Bv @ st.aw)
        t2 = (st.alpha * self._inner_xv(d.h * st.Nf[..., None], self.Aw)
              + da * self._inner_xv(st.f * st.Nf[..., None], self.Aw))
        t34 = 0.0
        if self.quad:
            hB = float(st.Bv @ d.eta)
            hN = float(st.Nv @ d.eta)
            t34 = (hB - hN) * st.S_A + (st.S_B - st.S_N) * d.bAw
        return t1 + t2 + t34

    # ---- assembled correctors and generators --------------------------------

    def corrector1(self, f, n) -> float:
        return self.phi1_value(self.state(f, n))

    def corrector2(self, f, n) -> float:
        st = self.state(f, n)
        return self.phi2_sharp(st) + self.phi2_star(st) + self.phi2_dagger(st)

    def corrector2_parts(self, f, n):
        st = self.state(f, n)
        return self.phi2_sharp(st), self.phi2_star(st), self.phi2_dagger(st)

    def value_eps(self, f, n, eps: float) -> float:
        st = self.state(f, n)
        return self._value_eps_state(st, eps)

    def _value_eps_state(self, st, eps: float) -> float:
        phi2 = self.phi2_sharp(st) + self.phi2_star(st) + self.phi2_dagger(st)
        return self.phi_value(st) + eps * self.phi1_value(st) + eps * eps * phi2

    def _d_phi2(self, st, d: _DirData) -> float:
        return (self.d_phi2_sharp(st, d) + self.d_phi2_star(st, d)
                + self.d_phi2_dagger(st, d))

    def generator_parts(self, f, n):
        """The four brackets of L_eps phi_eps ordered by power of eps.

        Returns (b0, b1, b2, b3) with
        b0 = L_L phi (vanishes), b1 = L_A phi + L_L phi1 (vanishes),
        b2 = L_A phi1 + L_L phi2 (equals the limit generator), b3 = L_A phi2.
        """
        st = self.state(f, n)
        return self._generator_parts_state(st)

    def _generator_parts_state(self, st):
        dL = self._dir(st, "L")
        dA = self._dir(st, "A")
        b0 = self.d_phi(st, dL)
        b1 = self.d_phi(st, dA) + self.d_phi1(st, dL) + self.m_phi1(st)
        b2 = (self.d_phi1(st, dA) + self._d_phi2(st, dL)
              + self.m_phi2_star(st) + self.m_phi2_dagger(st))
        b3 = self._d_phi2(st, dA)
        return b0, b1, b2, b3

    def generator_eps(self, f, n, eps: float) -> float:
        b0, b1, b2, b3 = self.generator_parts(f, n)
        return b0 / (eps * eps) + b1 / eps + b2 + eps * b3

    def generator_limit(self, rho) -> float:
        """L phi(rho) = (div K grad rho, u) + (F rho, u)/2 + sum c_j H(rho eta_j, rho eta_j)/2."""
        rho = np.asarray(rho, dtype=float)
        cell = self.grid.cell_volume
        flat = rho.reshape(-1)
        mw = float(flat @ self._w_flat) * cell
        alpha = mw if self.quad else 1.0
        s_ca = float(flat @ self._cAw_flat) * cell
        s_f = float(flat @ self.Fw.reshape(-1)) * cell
        out = alpha * s_ca + 0.5 * alpha * s_f
        if self.quad and self.J:
            r = self._weta_flat @ flat * cell
            out += 0.5 * float(self.c @ (r * r))
        return out

    def carre_du_champ1(self, f, n) -> float:
        """Bracket integrand M|phi1|^2 - 2 phi1 M phi1 = sum_j (alpha r_j)^2 Gamma_j(n_j)."""
        st = self.state(f, n)
        return self._bracket_state(st)

    def _bracket_state(self, st) -> float:
        if not self.J:
            return 0.0
        gamma = st.alpha * st.r
        return float(np.sum(gamma * gamma * st.Gv))


# ---------------------------------------------------------------------------
# module-level operation wrappers


def corrector1(bundle: PerturbedTestFunction, f, n) -> float:
    return bundle.corrector1(f, n)


def corrector2(bundle: PerturbedTestFunction, f, n) -> float:
    return bundle.corrector2(f, n)


def generator_eps(bundle: PerturbedTestFunction, f, n, eps: float) -> float:
    return bundle.generator_eps(f, n, eps)


def generator_limit(bundle: PerturbedTestFunction, rho) -> float:
    return bundle.generator_limit(rho)


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

    ``states`` is a sequence of (f, n) pairs; returns an array of shape
    (n_states, n_eps) of normalized residuals.
    """
    out = np.empty((len(states), len(eps_list)))
    for i, (f, n) in enumerate(states):
        st = bundle.state(f, n)
        lim = bundle.generator_limit(st.rho)
        nrm2 = vel.inner_xv(bundle.vm, bundle.grid, st.f, st.f)
        b0, b1, b2, b3 = bundle._generator_parts_state(st)
        for k, eps in enumerate(eps_list):
            geps = b0 / (eps * eps) + b1 / eps + b2 + eps * b3
            out[i, k] = abs(geps - lim) / (1.0 + nrm2)
    return out


# ---------------------------------------------------------------------------
# martingale diagnostics along simulated trajectories


class GeneratorInstrument:
    """Trajectory observer recording phi_eps, L_eps phi_eps and the bracket rate."""

    def __init__(self, bundle: PerturbedTestFunction, eps: float, n_times: int):
        self.bundle = bundle
        self.eps = eps
        self.values = np.zeros(n_times)
        self.gens = np.zeros(n_times)
        self.brackets = np.zeros(n_times)

    def observe(self, i, t, f, state_indices):
        st = self.bundle.state(f, state_indices)
        self.values[i] = self.bundle._value_eps_state(st, self.eps)
        b0, b1, b2, b3 = self.bundle._generator_parts_state(st)
        e = self.eps
        self.gens[i] = b0 / (e * e) + b1 / e + b2 + e * b3
        self.brackets[i] = self.bundle._bracket_state(st)


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


def martingale_residual(times, values, gens, brackets=None,
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
    if brackets is not None:
        qv = _cumtrapz(times, np.asarray(brackets, dtype=float))
        gap = mart ** 2 - qv
        qv_mean = gap.mean(axis=0)
        qv_stderr = gap.std(axis=0, ddof=1) / np.sqrt(n_traj)
    else:
        qv_mean = np.zeros_like(mean)
        qv_stderr = np.zeros_like(mean)
    return MartingaleReport(times, mean, stderr, qv_mean, qv_stderr, mart)
