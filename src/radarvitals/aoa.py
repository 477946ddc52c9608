"""Angle-of-arrival estimation across the virtual receive array.

The main tool is an MVDR (Capon) spectrum evaluated per range bin, giving a
range-angle heatmap; a zero-padded spatial FFT is included as the
conventional low-resolution baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rangefft import RangeProfiles

DEFAULT_NUM_ANGLE_BINS = 121


def default_angle_grid(num_bins: int = DEFAULT_NUM_ANGLE_BINS) -> np.ndarray:
    """Uniform azimuth grid over [-60, +60] degrees."""
    return np.linspace(-60.0, 60.0, num_bins)


def steering_matrix(angles_deg, num_elements: int, spacing: float,
                    wavelength: float) -> np.ndarray:
    """Array response vectors, one column per angle: shape (K, A)."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    phase = (2.0 * np.pi * spacing / wavelength
             * np.outer(np.arange(num_elements), np.sin(np.deg2rad(angles))))
    return np.exp(1j * phase)


def _loaded(cov: np.ndarray, loading: float) -> np.ndarray:
    """Hermitian-symmetrize a (..., K, K) covariance stack and load its
    diagonal with ``loading * trace/K`` plus a tiny absolute floor."""
    k = cov.shape[-1]
    cov = 0.5 * (cov + np.conj(np.swapaxes(cov, -1, -2)))
    tr = np.trace(cov, axis1=-2, axis2=-1).real
    return cov + (loading * tr / k + 1e-12)[..., None, None] * np.eye(k)


def spatial_covariance(snapshots: np.ndarray,
                       loading: float = 1e-3) -> np.ndarray:
    """Diagonally loaded sample covariance from (K, S) snapshots.

    The estimate is Hermitian-symmetrized, then loaded with
    ``loading * trace/K`` plus a tiny absolute floor so it stays invertible
    even for rank-one snapshot sets.
    """
    x = np.asarray(snapshots)
    if x.ndim != 2:
        raise ValueError("snapshots must be a (num_elements, num_snapshots) array")
    if x.shape[1] < 1:
        raise ValueError("need at least one snapshot")
    return _loaded(x @ x.conj().T / x.shape[1], loading)


def snapshots_at(profiles: RangeProfiles, range_bin: int,
                 start: int = 0, count: int | None = None) -> np.ndarray:
    """Slice slow-time snapshots at one range bin: shape (K, count)."""
    n_slow = profiles.data.shape[1]
    if count is None:
        count = n_slow - start
    if not (0 <= range_bin < profiles.num_bins):
        raise ValueError("range_bin outside profile")
    if start < 0 or count < 1 or start + count > n_slow:
        raise ValueError("snapshot slice outside slow-time extent")
    return profiles.data[range_bin, start:start + count, :].T


def mvdr_spectrum(cov: np.ndarray, spacing: float, wavelength: float,
                  angles_deg=None) -> np.ndarray:
    """Capon pseudo-spectrum 1 / (a^H R^-1 a) on an angle grid.

    ``cov`` is one (K, K) covariance or a (..., K, K) stack of them; the
    result has shape (..., A).
    """
    if angles_deg is None:
        angles_deg = default_angle_grid()
    a = steering_matrix(angles_deg, cov.shape[-1], spacing, wavelength)
    sol = np.linalg.solve(cov, np.broadcast_to(a, cov.shape[:-2] + a.shape))
    denom = np.einsum("ka,...ka->...a", a.conj(), sol).real
    if np.any(denom <= 0):
        raise np.linalg.LinAlgError(
            "covariance is not positive definite; increase diagonal loading")
    return 1.0 / denom


@dataclass
class Heatmap:
    """MVDR power over the (range bin) x (angle bin) grid."""

    power: np.ndarray
    range_axis: np.ndarray
    angle_axis: np.ndarray


def range_angle_heatmap(
    profiles: RangeProfiles,
    angles_deg=None,
    loading: float = 1e-3,
    start: int = 0,
    count: int | None = None,
) -> Heatmap:
    """MVDR spectrum at every range bin, covariances batched in one pass.

    ``start``/``count`` select the slow-time snapshots entering the
    covariance of every bin (all of them by default).
    """
    if angles_deg is None:
        angles_deg = default_angle_grid()
    angles_deg = np.asarray(angles_deg, dtype=float)
    cfg = profiles.config
    n_slow = profiles.data.shape[1]
    if count is None:
        count = n_slow - start
    if start < 0 or count < 1 or start + count > n_slow:
        raise ValueError("snapshot slice outside slow-time extent")
    x = profiles.data[:, start:start + count, :]
    cov = _loaded(np.einsum("rsk,rsl->rkl", x, x.conj()) / count, loading)
    power = mvdr_spectrum(cov, cfg.rx_spacing, cfg.wavelength, angles_deg)
    return Heatmap(power=power, range_axis=profiles.range_axis.copy(),
                   angle_axis=angles_deg)


@dataclass
class AngleSpectrum:
    angles_deg: np.ndarray
    power: np.ndarray


def spatial_fft_spectrum(snapshots: np.ndarray, spacing: float,
                         wavelength: float, n_fft: int = 512) -> AngleSpectrum:
    """Zero-padded FFT across the array, averaged over snapshots.

    FFT bins are mapped back to azimuth through sin(theta) = f * lambda / d;
    bins falling outside visible space are discarded.  This is the
    conventional beamscan baseline whose resolution is fixed by the
    physical aperture regardless of padding.
    """
    x = np.asarray(snapshots)
    if x.ndim == 1:
        x = x[:, None]
    k = x.shape[0]
    if n_fft < k:
        raise ValueError("n_fft must be at least the element count")
    spec = np.fft.fft(x, n=n_fft, axis=0)
    power = np.mean(np.abs(spec) ** 2, axis=1)
    sin_theta = np.fft.fftfreq(n_fft) * wavelength / spacing
    visible = np.abs(sin_theta) <= 1.0
    angles = np.rad2deg(np.arcsin(sin_theta[visible]))
    order = np.argsort(angles)
    return AngleSpectrum(angles_deg=angles[order], power=power[visible][order])


def write_heatmap_csv(heatmap: Heatmap, path) -> None:
    """Matrix CSV: first column range (m), header row angles (deg)."""
    with open(path, "w") as fh:
        fh.write("range_m," + ",".join(f"{a:.4f}" for a in heatmap.angle_axis))
        fh.write("\n")
        for r, row in zip(heatmap.range_axis, heatmap.power):
            fh.write(f"{r:.6f}," + ",".join(f"{v:.8e}" for v in row))
            fh.write("\n")
