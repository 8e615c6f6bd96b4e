"""Finite velocity measure space (V, mu), its moment structure, and velocity averages."""

from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12
FIRST_MOMENT_TOL = 1e-12
SPD_RTOL = 1e-10  # smallest eigenvalue of K must exceed SPD_RTOL * largest


@dataclass
class VelocityModel:
    """Atomic velocity measure: points a(v_i) with probability weights mu_i.

    ``velocities`` is (n_v, dim); ``weights`` is (n_v,) and nonnegative.
    """

    dim: int
    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        w = np.asarray(self.weights, dtype=float)
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise ValueError("velocities must have shape (n_v, dim)")
        if w.shape != (v.shape[0],):
            raise ValueError("weights must match the number of velocities")
        if v.shape[0] < 1:
            raise ValueError("need at least one velocity")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("velocities and weights must be finite")
        v.flags.writeable = False
        w.flags.writeable = False
        self.velocities = v
        self.weights = w

    @property
    def n_velocities(self) -> int:
        return self.velocities.shape[0]

    @property
    def speed_sup(self) -> float:
        return float(np.max(np.abs(self.velocities)))


def two_speed() -> VelocityModel:
    """d=1 model with speeds -1, +1 and equal weights."""
    return VelocityModel(1, np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))


def ring(m: int) -> VelocityModel:
    """d=2 model with m equispaced unit velocities; m=4 gives the axis set."""
    if m < 3:
        raise ValueError("need at least three velocities on the circle")
    theta = 2 * np.pi * np.arange(m) / m
    v = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return VelocityModel(2, np.round(v, 15), np.full(m, 1.0 / m))


def second_moment(model: VelocityModel) -> np.ndarray:
    """K = sum_i mu_i a_i (x) a_i, no validity check."""
    return np.einsum("i,ip,iq->pq", model.weights, model.velocities, model.velocities)


def validate(model: VelocityModel) -> list:
    """Return descriptions of violated structural hypotheses (empty iff valid)."""
    violations = []
    if abs(float(model.weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
        violations.append("weights do not sum to 1")
    first = model.weights @ model.velocities
    scale = max(1.0, model.speed_sup)
    if np.max(np.abs(first)) > FIRST_MOMENT_TOL * scale:
        violations.append("first moment nonzero")
    eigs = np.linalg.eigvalsh(second_moment(model))
    if eigs[0] <= SPD_RTOL * max(eigs[-1], np.finfo(float).tiny):
        violations.append("K singular")
    return violations


def diffusion_matrix(model: VelocityModel) -> np.ndarray:
    """Effective diffusion matrix K; raises if the model violates the hypotheses."""
    bad = validate(model)
    if bad:
        raise ValueError("invalid velocity model: " + "; ".join(bad))
    return second_moment(model)


def average(model: VelocityModel, f) -> np.ndarray:
    """Velocity average rho(x) = sum_i mu_i f(x, v_i); f has the velocity index last."""
    f = np.asarray(f)
    if f.shape[-1] != model.n_velocities:
        raise ValueError("field velocity dimension mismatch")
    return f @ model.weights


def lift(model: VelocityModel, rho) -> np.ndarray:
    """Extend a density to a velocity-independent kinetic field."""
    rho = np.asarray(rho, dtype=float)
    return np.repeat(rho[..., None], model.n_velocities, axis=-1)


def inner_xv(model: VelocityModel, grid, f, g) -> float:
    """Inner product on the product space, mu-weighted in v, Riemann sum in x."""
    return float(np.sum((f * g) @ model.weights) * grid.cell_volume)

