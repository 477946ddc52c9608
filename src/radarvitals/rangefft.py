"""Range profiles: the fast-time FFT of a raw cube, and range-bin arithmetic.

The range transform is always one chirp long (``samples_per_chirp``
points, no zero padding), so the one front end's profile has
``RadarConfig.num_range_bins`` one-sided bins, :data:`RANGE_BIN_WIDTH`
meters apart.  :func:`range_fft` transforms a whole cube;
:func:`simulate.render_profiles` renders the same profiles directly at the
bins and frames a run reads, one snapshot per frame, without a cube.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import RadarConfig

if TYPE_CHECKING:
    from .simulate import RadarCube

# Meters spanned by one FFT bin: 1 / (N * T_f * alpha).
RANGE_BIN_WIDTH = 1.0 / (RadarConfig.samples_per_chirp
                         * RadarConfig.adc_interval
                         * RadarConfig.chirp_slope_factor)


@dataclass
class RangeProfiles:
    """Range spectra over slow time: shape (range_bin, slow, virtual).

    ``data`` holds consecutive rows of the ``RadarConfig.num_range_bins``-bin
    one-sided profile, from bin ``first_bin`` on (every row of it when made
    by :func:`range_fft`).  Its slow axis holds the same number of
    snapshots for each frame of ``frame_timestamps``: every chirp of a
    cube, or one (the first chirp) when rendered.  ``frame_rate`` is the
    capture's frames per second.
    """

    data: np.ndarray
    frame_rate: float
    frame_timestamps: np.ndarray
    first_bin: int = 0

    @property
    def range_axis(self) -> np.ndarray:
        """The range (m) of each row held."""
        return ((self.first_bin + np.arange(self.data.shape[0]))
                * RANGE_BIN_WIDTH)


def range_fft(cube: RadarCube) -> RangeProfiles:
    """FFT along fast time, keeping the non-negative-beat half spectrum.

    No taper is applied.  ``data`` owns its memory: the discarded negative
    half of the transform is not kept alive by it.
    """
    spectra = np.fft.fft(cube.data, axis=0)[: RadarConfig.num_range_bins]
    return RangeProfiles(data=spectra.copy(), frame_rate=cube.frame_rate,
                         frame_timestamps=cube.frame_timestamps)


def range_bin_of(range_m: float) -> int:
    """FFT bin whose beat frequency is closest to a nominal range."""
    limit = RadarConfig.max_unambiguous_range
    if not 0 <= range_m < limit:
        raise ValueError(f"range {range_m} m outside [0, {limit:.2f}) m")
    return int(round(RadarConfig.chirp_slope_factor * range_m
                     * RadarConfig.samples_per_chirp
                     * RadarConfig.adc_interval))
