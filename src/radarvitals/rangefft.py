"""Range profiles: the fast-time FFT of a raw cube, and range-bin arithmetic.

The range transform is always one chirp long (``samples_per_chirp``
points, no zero padding).  :func:`range_fft` transforms a whole cube;
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


@dataclass
class RangeProfiles:
    """Range spectra over slow time: shape (range_bin, slow, virtual).

    ``data`` holds consecutive rows of the ``samples_per_chirp // 2 +
    1``-bin one-sided profile, from bin ``first_bin`` on (every row of it
    when made by :func:`range_fft`); ``range_axis`` gives the range of each
    row held.  Its slow axis holds the same number of snapshots for each
    frame of ``frame_timestamps``: every chirp of a cube, or one (the
    first chirp) when rendered.
    """

    data: np.ndarray
    range_axis: np.ndarray
    config: RadarConfig
    frame_timestamps: np.ndarray
    first_bin: int = 0

    @property
    def num_bins(self) -> int:
        """Bins of the full one-sided profile, held in ``data`` or not."""
        return self.config.samples_per_chirp // 2 + 1


def range_bin_width(cfg: RadarConfig) -> float:
    """Meters spanned by one FFT bin: 1 / (N * T_f * alpha)."""
    return 1.0 / (cfg.samples_per_chirp * cfg.adc_interval
                  * cfg.chirp_slope_factor)


def range_fft(cube: RadarCube) -> RangeProfiles:
    """FFT along fast time, keeping the non-negative-beat half spectrum.

    No taper is applied.  ``data`` owns its memory: the discarded negative
    half of the transform is not kept alive by it.
    """
    cfg = cube.config
    spectra = np.fft.fft(cube.data, axis=0)[: cfg.samples_per_chirp // 2 + 1]
    axis = np.arange(spectra.shape[0]) * range_bin_width(cfg)
    return RangeProfiles(data=spectra.copy(), range_axis=axis, config=cfg,
                         frame_timestamps=cube.frame_timestamps)


def range_bin_of(range_m: float, cfg: RadarConfig) -> int:
    """FFT bin whose beat frequency is closest to a nominal range."""
    if not 0 <= range_m < cfg.max_unambiguous_range:
        raise ValueError(
            f"range {range_m} m outside [0, {cfg.max_unambiguous_range:.2f}) m")
    return int(round(cfg.chirp_slope_factor * range_m * cfg.samples_per_chirp
                     * cfg.adc_interval))
