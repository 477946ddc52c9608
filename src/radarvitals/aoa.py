"""Angle-of-arrival estimation across the virtual receive array.

Every array response is :func:`steering_matrix`, at the radar's one
carrier wavelength.  An MVDR (Capon) spectrum evaluated per range bin gives
the range-angle heatmap the localizer searches, over :data:`HEATMAP_BINS`,
the bins at or below :data:`MAX_RANGE_M`: the rows the pipeline renders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RadarConfig
from .rangefft import RANGE_BIN_WIDTH, RangeProfiles

DEFAULT_NUM_ANGLE_BINS = 121
# Half-span (degrees) of the angle grid, which is also the camera's
# half field of view: image columns map linearly onto the grid.
MAX_ANGLE_DEG = 60.0
# Diagonal loading of every MVDR covariance, as a fraction of trace/K.
DEFAULT_LOADING = 1e-3
# Farthest range (m) the heatmap computes, and so the localizer searches.
MAX_RANGE_M = 10.0
# The range bins the heatmap computes: 0-33, those at or below MAX_RANGE_M.
HEATMAP_BINS = range(int(np.count_nonzero(
    np.arange(RadarConfig.num_range_bins) * RANGE_BIN_WIDTH <= MAX_RANGE_M)))


def default_angle_grid() -> np.ndarray:
    """Uniform azimuth grid of :data:`DEFAULT_NUM_ANGLE_BINS` over
    [-:data:`MAX_ANGLE_DEG`, +:data:`MAX_ANGLE_DEG`]."""
    return np.linspace(-MAX_ANGLE_DEG, MAX_ANGLE_DEG, DEFAULT_NUM_ANGLE_BINS)


def steering_matrix(angles_deg, num_elements: int,
                    spacing: float) -> np.ndarray:
    """Array response vectors of ``num_elements`` elements ``spacing`` (m)
    apart at the carrier wavelength, one column per angle: shape (K, A).

    The one uniform-linear-array response of the package: the simulator's
    transmit and receive ramps and the beam weights and patterns use it
    too."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    phase = (2.0 * np.pi * spacing / RadarConfig.wavelength
             * np.outer(np.arange(num_elements), np.sin(np.deg2rad(angles))))
    return np.exp(1j * phase)


def _loaded(cov: np.ndarray) -> np.ndarray:
    """Hermitian-symmetrize a (..., K, K) covariance stack and load its
    diagonal with ``DEFAULT_LOADING * trace/K`` plus a tiny absolute floor,
    so it stays invertible even for rank-one snapshot sets."""
    k = cov.shape[-1]
    cov = 0.5 * (cov + np.conj(np.swapaxes(cov, -1, -2)))
    tr = np.trace(cov, axis1=-2, axis2=-1).real
    return cov + (DEFAULT_LOADING * tr / k + 1e-12)[..., None, None] * np.eye(k)


def mvdr_spectrum(cov: np.ndarray) -> np.ndarray:
    """Capon pseudo-spectrum 1 / (a^H R^-1 a) on :func:`default_angle_grid`
    of a K-element array at the virtual array's spacing.

    ``cov`` is one (K, K) covariance or a (..., K, K) stack of them; the
    result has shape (..., A).
    """
    a = steering_matrix(default_angle_grid(), cov.shape[-1],
                        RadarConfig.rx_spacing)
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


def range_angle_heatmap(profiles: RangeProfiles) -> Heatmap:
    """MVDR spectrum of every range bin of :data:`HEATMAP_BINS`, each bin's
    covariance over all its slow-time snapshots (in a run, one snapshot
    per frame over the still window).

    ``profiles`` holds its rows from bin 0 on: a whole ``range_fft``
    profile, or the rows :func:`simulate.render_profiles` rendered at
    :data:`HEATMAP_BINS`.  Only those rows are computed, so the localizer
    pays for nothing it does not search.
    """
    x = profiles.data[:len(HEATMAP_BINS)]
    cov = _loaded(x.transpose(0, 2, 1) @ x.conj() / x.shape[1])
    return Heatmap(power=mvdr_spectrum(cov),
                   range_axis=profiles.range_axis[:len(HEATMAP_BINS)],
                   angle_axis=default_angle_grid())
