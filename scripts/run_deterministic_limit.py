#!/usr/bin/env python3
"""Deterministic diffusion-limit experiment.

Integrates the noiseless kinetic equation for a sweep of epsilons and prints
the L2 distance to the exact heat-equation profile at the final time.  Exits
1 unless that distance falls strictly as epsilon decreases.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from kindiff.config import load_config  # noqa: E402
from kindiff.harness import kinetic_batch  # noqa: E402

if __name__ == "__main__":
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "deterministic.json"))
    grid = cfg.grid
    T = cfg.final_time
    x = grid.coords()[0]
    exact = 1.0 + 0.5 * np.exp(-4 * np.pi ** 2 * T) * np.cos(2 * np.pi * x)
    print(f"T = {T}, exact profile 1 + 0.5 e^{{-4 pi^2 T}} cos(2 pi x)")
    errors = []
    for e_idx, eps in enumerate(cfg.epsilons):
        res = kinetic_batch(cfg, e_idx, [0])
        if res.failures:
            raise res.failures[0]
        errors.append(grid.norm(res.rho[0, -1] - exact))
        print(f"eps = {eps:5.3f}:  L2 error = {errors[-1]:.6e}")
    if not all(b < a for a, b in zip(errors, errors[1:])):
        print("L2 error does not fall strictly with eps", file=sys.stderr)
        sys.exit(1)
