"""Uniform periodic grids on the unit torus and the spectral helpers shared by all solvers.

Conventions used throughout the package:

* the torus is [0,1)^dim sampled at n points per axis, n a power of two;
* integrals are plain Riemann sums, cell volume 1/n^dim;
* Fourier frequencies are the integers returned by fftfreq(n)*n;
* first-derivative multipliers zero the Nyquist frequency so that the
  discrete derivative matrix is exactly skew-symmetric for the grid
  inner product (integration by parts holds to machine precision).
"""

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass
class TorusGrid:
    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        if not _is_power_of_two(self.n):
            raise ValueError("grid size must be a power of two")
        self.shape = (self.n,) * self.dim
        self.npoints = self.n ** self.dim
        self.cell_volume = 1.0 / self.npoints
        self.axis = np.arange(self.n) / self.n
        k = np.fft.fftfreq(self.n) * self.n  # integer frequencies
        k_odd = k.copy()
        k_odd[self.n // 2] = 0.0  # Nyquist has no odd-symmetric partner
        grids = np.meshgrid(*([k] * self.dim), indexing="ij")
        grids_odd = np.meshgrid(*([k_odd] * self.dim), indexing="ij")
        self.freqs = [g.copy() for g in grids]
        self.freqs_odd = [g.copy() for g in grids_odd]
        self.freq_sq = sum(g * g for g in self.freqs)

    # ---- quadrature -------------------------------------------------

    def coords(self):
        """Coordinate arrays (one per axis), each of shape ``self.shape``."""
        return [c.copy() for c in np.meshgrid(*([self.axis] * self.dim), indexing="ij")]

    def inner(self, f, g) -> float:
        return float(np.sum(f * g) * self.cell_volume)

    def norm(self, f) -> float:
        return float(np.sqrt(np.sum(f * f) * self.cell_volume))

    # ---- spectral transforms ----------------------------------------

    @property
    def _axes(self):
        return tuple(range(self.dim))

    def fft(self, f):
        """FFT over the spatial axes; trailing axes (velocity index) pass through."""
        if self.dim == 1:
            return np.fft.fft(f, axis=0)
        return np.fft.fftn(f, axes=self._axes)

    def ifft(self, fhat):
        if self.dim == 1:
            return np.fft.ifft(fhat, axis=0).real
        return np.fft.ifftn(fhat, axes=self._axes).real

    def rfft(self, f, axis):
        """Real FFT over the grid axes axis .. axis + dim - 1, halving the last of them."""
        # in 1-d, rfftn over one axis gives the same bits as rfft but costs
        # about 11/3 us more per call at n = 64, and a job makes thousands
        if self.dim == 1:
            return np.fft.rfft(f, axis=axis)
        return np.fft.rfftn(f, axes=(axis, axis + 1))

    def irfft(self, fhat, axis):
        """Inverse of `rfft`: real fields over the grid axes axis .. axis + dim - 1."""
        if self.dim == 1:
            return np.fft.irfft(fhat, n=self.n, axis=axis)
        return np.fft.irfftn(fhat, s=self.shape, axes=(axis, axis + 1))

    def grad(self, g):
        """Spectral gradient of a real grid function; returns list of dim arrays."""
        gh = self.fft(g)
        return [self.ifft(2j * np.pi * k * gh) for k in self.freqs_odd]

