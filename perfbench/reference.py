"""Independent references the benchmark checks raclab's outputs against."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def infinite_snr_delay(total_rate: float) -> float:
    """Two-user deadline-ARQ mean delay in the infinite-SNR limit (criterion 5)."""
    return 1.5 + total_rate / (2.0 * (2.0 - total_rate))


def draw_gains(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian gains."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def first_decodable_round(gains: np.ndarray, snr: float, rate: float, never: int) -> np.ndarray:
    """Per-epoch first decodable round, one ``slogdet`` per user subset.

    ``gains`` has shape (epochs, k, rx, tx).  For every nonempty subset S the
    mutual information is log2 det(I + (snr/tx) * sum_{i in S} H_i H_i^H);
    the round count is the ceiling of the worst demand |S|*rate / I_S after
    the same 1e-12 shave the package applies, and ``never`` where some
    subset carries no information.
    """
    n, k, rx, tx = gains.shape
    if rate <= 0:
        return np.ones(n, dtype=np.int64)
    worst = np.zeros(n)
    dead = np.zeros(n, dtype=bool)
    eye = np.eye(rx)
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            # columns of all subset users side by side: stacked @ stacked^H = sum of Grams
            stacked = gains[:, list(subset)].transpose(0, 2, 1, 3).reshape(n, rx, size * tx)
            gram = stacked @ stacked.conj().transpose(0, 2, 1)
            _, logdet = np.linalg.slogdet(eye + (snr / tx) * gram)
            info = logdet / math.log(2.0)
            dead |= info <= 0.0
            worst = np.maximum(worst, size * rate / np.where(info > 0.0, info, 1.0))
    rounds = np.maximum(np.ceil(worst * (1.0 - 1e-12)), 1.0).astype(np.int64)
    rounds[dead] = never
    return rounds
