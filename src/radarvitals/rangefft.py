"""Range profiles: the fast-time FFT of a raw cube, and range-bin arithmetic.

:func:`range_fft` transforms a whole cube; :func:`simulate.range_profiles`
renders the same profiles directly at their first bins, without a cube.
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

    ``data`` holds the first rows of the ``n_fft // 2 + 1``-bin one-sided
    profile (every row of it when made by :func:`range_fft`);
    ``range_axis`` gives the range of each row held.
    """

    data: np.ndarray
    range_axis: np.ndarray
    n_fft: int
    config: RadarConfig
    frame_timestamps: np.ndarray

    @property
    def num_bins(self) -> int:
        """Bins of the full one-sided profile, held in ``data`` or not."""
        return self.n_fft // 2 + 1


def range_bin_width(cfg: RadarConfig, n_fft: int) -> float:
    """Meters spanned by one FFT bin: 1 / (n_fft * T_f * alpha)."""
    return 1.0 / (n_fft * cfg.adc_interval * cfg.chirp_slope_factor)


def check_n_fft(cfg: RadarConfig, n_fft: int | None) -> int:
    """The FFT size: ``n_fft``, or samples_per_chirp when None.

    The transform may zero-pad, never truncate, so a size below
    samples_per_chirp raises ValueError.
    """
    n_s = cfg.samples_per_chirp
    n_fft = n_s if n_fft is None else int(n_fft)
    if n_fft < n_s:
        raise ValueError(f"n_fft ({n_fft}) must be >= samples_per_chirp ({n_s})")
    return n_fft


def range_fft(cube: RadarCube, n_fft: int | None = None) -> RangeProfiles:
    """FFT along fast time, keeping the non-negative-beat half spectrum.

    ``n_fft`` defaults to samples_per_chirp (see :func:`check_n_fft`).  No
    taper is applied.
    """
    cfg = cube.config
    n_fft = check_n_fft(cfg, n_fft)
    spectra = np.fft.fft(cube.data, n=n_fft, axis=0)[: n_fft // 2 + 1]
    axis = np.arange(spectra.shape[0]) * range_bin_width(cfg, n_fft)
    return RangeProfiles(data=spectra, range_axis=axis, n_fft=n_fft,
                         config=cfg, frame_timestamps=cube.frame_timestamps)


def range_bin_of(range_m: float, cfg: RadarConfig, n_fft: int) -> int:
    """FFT bin whose beat frequency is closest to a nominal range."""
    if not 0 <= range_m < cfg.max_unambiguous_range:
        raise ValueError(
            f"range {range_m} m outside [0, {cfg.max_unambiguous_range:.2f}) m")
    return int(round(cfg.chirp_slope_factor * range_m * n_fft
                     * cfg.adc_interval))
