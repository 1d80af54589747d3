"""Shared samplers for probing vector fields on the non-negative orthant.

The hypothesis checkers and the weight search all quantify over all
non-negative states.  The desk-scale surrogate is sampling: log-uniform
componentwise draws at a ladder of doubling radii, plus draws pinned to
each coordinate face.  Everything is seeded and deterministic.  A sampled
upper bound holds when its ratio stops growing as the radius doubles
(`plateau`).
"""

from __future__ import annotations

import numpy as np

DEFAULT_RADII = (10.0, 20.0, 40.0, 80.0)
DEFAULT_SAMPLES_PER_RADIUS = 10_000
DEFAULT_SEED = 0

# decades spanned below the radius by the log-uniform draws
_DECADES = 6.0

_PLATEAU_RTOL = 0.05
_PLATEAU_FLOOR = 1e-9


def orthant_samples(rng: np.random.Generator, m: int, radius: float, size: int) -> np.ndarray:
    """Draw `size` points in the non-negative orthant with sup-norm <= radius.

    Components are log-uniform over [radius * 10^-6, radius] so that both
    small and order-radius magnitudes are exercised.  Returns shape (m, size).
    """
    expo = rng.uniform(-_DECADES, 0.0, size=(m, size))
    return radius * 10.0**expo


def face_samples(rng: np.random.Generator, m: int, radius: float, size: int) -> np.ndarray:
    """Draw points on the coordinate faces {u_i = 0}, all faces stacked.

    Returns shape (m, m * size): for each species index i, `size` draws with
    the i-th component zeroed.
    """
    blocks = []
    for i in range(m):
        u = orthant_samples(rng, m, radius, size)
        u[i, :] = 0.0
        blocks.append(u)
    return np.concatenate(blocks, axis=1)


def plateau(ratios) -> bool:
    """Whether the last ratio of a radius ladder has stopped growing.

    The sampled hypotheses are upper bounds, so only upward drift under
    radius doubling is evidence of divergence: the ladder plateaus when its
    last ratio is at most 1e-9 (the bound holds with constant zero) or
    exceeds the one before by at most 5% of that ratio's magnitude.
    """
    prev, last = ratios[-2], ratios[-1]
    return last <= _PLATEAU_FLOOR or last <= prev + _PLATEAU_RTOL * max(abs(prev), _PLATEAU_FLOOR)
