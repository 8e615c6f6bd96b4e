import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kindiff import velocity as vel
from kindiff.grid import TorusGrid

import oracles


def test_two_speed_is_valid():
    assert vel.validate(vel.two_speed()) == []


def test_single_velocity_violates_first_moment():
    model = vel.VelocityModel(1, np.array([[1.0]]), np.array([1.0]))
    assert "first moment nonzero" in vel.validate(model)


def test_colinear_2d_has_singular_K():
    model = vel.VelocityModel(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              np.array([0.5, 0.5]))
    bad = vel.validate(model)
    assert "K singular" in bad
    # oracle: direct 2x2 eigenvalues of K = diag(1, 0)
    eigs = np.linalg.eigvalsh(vel.second_moment(model))
    assert eigs[0] == pytest.approx(0.0, abs=1e-15)


def test_weights_must_sum_to_one():
    model = vel.VelocityModel(1, np.array([[-1.0], [1.0]]), np.array([0.4, 0.5]))
    assert "weights do not sum to 1" in vel.validate(model)


def test_negative_weights_rejected_at_construction():
    with pytest.raises(ValueError):
        vel.VelocityModel(1, np.array([[-1.0], [1.0]]), np.array([-0.5, 1.5]))


def test_diffusion_matrix_two_speed():
    assert vel.diffusion_matrix(vel.two_speed()) == pytest.approx(np.array([[1.0]]))


def test_diffusion_matrix_axis_ring():
    # four velocities (+-1,0),(0,+-1) with quarter weights
    model = vel.ring(4)
    K = vel.diffusion_matrix(model)
    # oracle: brute-force sum of four rank-1 terms
    brute = sum(w * np.outer(a, a) for w, a in zip(model.weights, model.velocities))
    assert K == pytest.approx(brute)
    assert K == pytest.approx(np.diag([0.5, 0.5]))


def test_diffusion_matrix_rejects_uncentered():
    model = vel.VelocityModel(1, np.array([[2.0], [1.0], [1.0]]),
                              np.array([1 / 3, 1 / 3, 1 / 3]))
    assert "first moment nonzero" in vel.validate(model)
    with pytest.raises(ValueError):
        vel.diffusion_matrix(model)


def test_centered_three_speed_set_is_valid():
    # {-2, +1, +1} with uniform weights has vanishing first moment
    model = vel.VelocityModel(1, np.array([[-2.0], [1.0], [1.0]]),
                              np.array([1 / 3, 1 / 3, 1 / 3]))
    assert vel.validate(model) == []
    assert vel.diffusion_matrix(model) == pytest.approx(np.array([[2.0]]))


@given(st.permutations(range(4)))
@settings(max_examples=24, deadline=None)
def test_diffusion_matrix_permutation_invariant(perm):
    model = vel.ring(4)
    K = vel.diffusion_matrix(model)
    permuted = vel.VelocityModel(
        2, model.velocities[list(perm)], model.weights[list(perm)])
    assert vel.diffusion_matrix(permuted) == pytest.approx(K)


class TestAverage:
    grid = TorusGrid(1, 16)
    model = vel.two_speed()

    def test_constant_field(self):
        f = np.ones(self.grid.shape + (2,))
        assert vel.average(self.model, f) == pytest.approx(np.ones(16))

    def test_velocity_field_cancels(self):
        # f(x, v) = a(v): first-moment cancellation gives rho = 0
        f = np.broadcast_to(self.model.velocities[:, 0], (16, 2)).copy()
        assert vel.average(self.model, f) == pytest.approx(np.zeros(16))

    def test_linear_combination(self):
        # f = g(x) (1 + a(v)) averages back to g
        x = self.grid.coords()[0]
        g = np.sin(2 * np.pi * x) + 2.0
        f = g[:, None] * (1.0 + self.model.velocities[:, 0])
        # oracle: direct summation over the two velocities
        direct = 0.5 * f[:, 0] + 0.5 * f[:, 1]
        rho = vel.average(self.model, f)
        assert rho == pytest.approx(direct)
        assert rho == pytest.approx(g)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vel.average(self.model, np.ones((16, 3)))


@st.composite
def random_fields(draw):
    vals = draw(st.lists(st.floats(-5, 5), min_size=32, max_size=32))
    return np.asarray(vals).reshape(16, 2)


@given(random_fields())
@settings(max_examples=40, deadline=None)
def test_relaxation_projection_identity(f):
    # L(Lf) = -Lf pointwise
    model = vel.two_speed()
    lf = oracles.relax(model, f)
    llf = oracles.relax(model, lf)
    assert np.max(np.abs(llf + lf)) < 1e-12 * max(1.0, np.max(np.abs(f)))


@given(random_fields())
@settings(max_examples=40, deadline=None)
def test_relaxation_dissipativity(f):
    # (Lf, f) = -||Lf||^2
    model = vel.two_speed()
    grid = TorusGrid(1, 16)
    lf = oracles.relax(model, f)
    lhs = vel.inner_xv(model, grid, lf, f)
    rhs = -vel.inner_xv(model, grid, lf, lf)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
