"""Signal helpers that only the tests use: the spectral entropy the
truncation criterion is judged by, and the mirror extension that removes
edge effects from the decomposition tests."""
from __future__ import annotations

import numpy as np


def spectral_entropy(spectrum: np.ndarray) -> float:
    """Shannon entropy (nats) of a spectrum's normalized power profile."""
    x = np.asarray(spectrum).ravel()
    if x.size == 0:
        raise ValueError("empty spectrum")
    p = np.abs(x) ** 2 / x.size
    total = p.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("spectrum carries no finite energy")
    p = p / total
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def mirror_extend(samples: np.ndarray) -> np.ndarray:
    """Reflect each channel about its endpoints, doubling its length.

    The classic edge treatment for variational decompositions: the first
    half is prepended reversed and the second half appended reversed, so
    the extension is continuous and the interesting content sits in the
    middle.  Use :func:`crop_mirrored` to undo it on the modes.
    """
    s = np.asarray(samples)
    n = s.shape[-1]
    h = n // 2
    return np.concatenate(
        [s[..., :h][..., ::-1], s, s[..., h:][..., ::-1]], axis=-1)


def crop_mirrored(modes: np.ndarray, n_original: int) -> np.ndarray:
    """Cut the center ``n_original`` samples back out of mirrored output."""
    h = n_original // 2
    return modes[..., h:h + n_original]
