"""Array-processing helpers that only the tests use.

:func:`spatial_covariance` estimates one covariance from a snapshot
matrix, loaded exactly as the package's heatmap loads every range bin's;
:func:`spatial_fft_spectrum` is the conventional beamscan baseline the
MVDR resolution tests compare against; :func:`resolved` is their test of
whether a spectrum separates two sources.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radarvitals import aoa


def spatial_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Diagonally loaded sample covariance from (K, S) snapshots.

    The estimate is Hermitian-symmetrized, then loaded with
    ``aoa.DEFAULT_LOADING * trace/K`` plus a tiny absolute floor so it
    stays invertible even for rank-one snapshot sets.
    """
    x = np.asarray(snapshots)
    if x.ndim != 2:
        raise ValueError("snapshots must be a (num_elements, num_snapshots) array")
    if x.shape[1] < 1:
        raise ValueError("need at least one snapshot")
    return aoa._loaded(x @ x.conj().T / x.shape[1])


@dataclass
class AngleSpectrum:
    angles_deg: np.ndarray
    power: np.ndarray


def spatial_fft_spectrum(snapshots: np.ndarray, spacing: float,
                         wavelength: float, size: int = 512) -> AngleSpectrum:
    """Zero-padded ``size``-point FFT across the array, averaged over
    snapshots.

    FFT bins are mapped back to azimuth through sin(theta) = f * lambda / d;
    bins falling outside visible space are discarded.  This is the
    conventional beamscan baseline whose resolution is fixed by the
    physical aperture regardless of padding.
    """
    x = np.asarray(snapshots)
    if x.ndim == 1:
        x = x[:, None]
    k = x.shape[0]
    if size < k:
        raise ValueError("size must be at least the element count")
    spec = np.fft.fft(x, n=size, axis=0)
    power = np.mean(np.abs(spec) ** 2, axis=1)
    sin_theta = np.fft.fftfreq(size) * wavelength / spacing
    visible = np.abs(sin_theta) <= 1.0
    angles = np.rad2deg(np.arcsin(sin_theta[visible]))
    order = np.argsort(angles)
    return AngleSpectrum(angles_deg=angles[order], power=power[visible][order])


def _peaks(power):
    return [i for i in range(1, len(power) - 1)
            if power[i] >= power[i - 1] and power[i] > power[i + 1]]


def resolved(angles, power, a1, a2, dip_db=3.0, slack=4.0) -> bool:
    """Two peaks near a1/a2 with a valley at least dip_db below the lower."""
    sel = (angles >= min(a1, a2) - slack) & (angles <= max(a1, a2) + slack)
    q = np.asarray(power)[sel]
    peaks = sorted(_peaks(q), key=lambda i: -q[i])[:2]
    if len(peaks) < 2:
        return False
    i1, i2 = sorted(peaks)
    if i2 - i1 < 2:
        return False
    valley = q[i1 + 1:i2].min()
    return 10 * np.log10(min(q[i1], q[i2]) / valley) >= dip_db
