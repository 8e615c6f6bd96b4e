"""The real transform over the grid axes of a batch, `TorusGrid.rfft` and `irfft`."""

import numpy as np
import pytest

from kindiff.grid import TorusGrid


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_rfft_is_rfftn_over_the_grid_axes(dim, axis):
    grid = TorusGrid(dim, 16)
    rng = np.random.default_rng(10 * dim + axis)
    # batch axes before the grid axes and one axis after them
    f = rng.standard_normal((3,) * axis + grid.shape + (5,))
    axes = tuple(range(axis, axis + dim))
    fhat = grid.rfft(f, axis)
    expected = np.fft.rfftn(f, axes=axes)
    assert fhat.shape == expected.shape and fhat.tobytes() == expected.tobytes()
    back = grid.irfft(fhat, axis)
    expected = np.fft.irfftn(fhat, s=grid.shape, axes=axes)
    assert back.shape == f.shape and back.tobytes() == expected.tobytes()
    assert np.max(np.abs(back - f)) <= 1e-15 * np.max(np.abs(f))
