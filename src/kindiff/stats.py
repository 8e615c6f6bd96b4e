"""Streaming mean/variance accumulators with an associative merge."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RunningStats:
    """Welford accumulator; works elementwise for array-valued samples.

    Merging two accumulators (Chan's formula) agrees with accumulating the
    concatenated sample up to rounding, so ensemble reductions can be chunked
    in any fixed order.
    """

    count: int = 0
    mean: np.ndarray = field(default=None)
    m2: np.ndarray = field(default=None)

    def update(self, x):
        x = np.asarray(x, dtype=float)
        if self.count == 0:
            self.mean = np.zeros_like(x)
            self.m2 = np.zeros_like(x)
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (x - self.mean)

    def update_batch(self, xs):
        """Accumulate a batch with the leading axis as the sample axis."""
        xs = np.asarray(xs, dtype=float)
        mean = xs.mean(axis=0)
        m2 = np.zeros_like(mean)
        for x in xs:  # one sample at a time: no batch-sized temporary
            d = x - mean
            m2 += d * d
        other = RunningStats(count=xs.shape[0], mean=mean, m2=m2)
        merged = self.merge(other)
        self.count, self.mean, self.m2 = merged.count, merged.mean, merged.m2

    def merge(self, other: "RunningStats") -> "RunningStats":
        if self.count == 0:
            return RunningStats(other.count, np.copy(other.mean), np.copy(other.m2))
        if other.count == 0:
            return RunningStats(self.count, np.copy(self.mean), np.copy(self.m2))
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return RunningStats(n, mean, m2)

    @property
    def variance(self):
        if self.count < 2:
            return np.zeros_like(self.mean) if self.mean is not None else 0.0
        return self.m2 / (self.count - 1)

    @property
    def stderr(self):
        if self.count < 1:
            return 0.0
        return np.sqrt(self.variance / self.count)
