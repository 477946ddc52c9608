"""Camera-box / radar-heatmap fusion.

The camera side of the system is reduced to its essentials: the horizontal
pixel extent of every person's box in every frame, one :class:`Detections`
record per capture, whose columns are the identities.  This module keeps
the record's columns for the people in view at the last frame, cuts the
record to its still window and keeps the columns that have stopped moving,
converts a box's horizontal pixel extent into a window of angle bins, and
picks the strongest range-angle cell inside that window.  The camera's
field of view is the angle grid's, +-:data:`aoa.MAX_ANGLE_DEG`: the
image's columns span the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aoa import DEFAULT_NUM_ANGLE_BINS

# Width (pixels) of the camera image; its columns span the angle grid.
IMAGE_WIDTH_PX = 1920
# Trailing time (s) over which a box must stay still to count as stationary.
STATIONARY_WINDOW_S = 3.0
# Largest max-minus-min span of a still box's x and of its width over that
# window, as a fraction of the image width.
STILL_SPAN_FRACTION = 0.02


@dataclass
class Detections:
    """Every camera box of a capture, or of the tracks cut from it.

    ``times`` (F,) are the frame times; ``xs`` and ``ws`` (F, E) are the
    left edge and width in pixels of entity ``ids[e]``'s box in each frame,
    NaN where the entity is out of view.  Its length is its number of
    identities.
    """

    times: np.ndarray
    ids: list[str]
    xs: np.ndarray
    ws: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def columns(self, cols) -> Detections:
        """The record of the identities at column indices ``cols``."""
        return Detections(times=self.times, ids=[self.ids[e] for e in cols],
                          xs=self.xs[:, cols], ws=self.ws[:, cols])


def build_tracks(detections: Detections) -> Detections:
    """The columns of the identities in view in the capture's last frame,
    sorted by id; a capture with no frames has none.

    A person who has left the view is not tracked, so every track ends at
    the capture's last frame, where the radar's still window ends too.
    """
    in_view = (~np.isnan(detections.xs[-1:])).any(axis=0)
    return detections.columns(sorted(np.flatnonzero(in_view),
                                     key=detections.ids.__getitem__))


def still_frames(frame_rate: float) -> int:
    """Frames in the still window that ends a capture at ``frame_rate``
    frames per second, the last :data:`STATIONARY_WINDOW_S` seconds (at
    least one): the camera tests stillness over them and the radar renders
    its heatmap's rows at them."""
    return max(int(round(STATIONARY_WINDOW_S * frame_rate)), 1)


def filter_stationary(tracks: Detections, frame_rate: float) -> Detections:
    """The still window's rows of the tracks whose box barely moved over
    it.

    The still window is the last :func:`still_frames` frames of a capture
    at ``frame_rate``.  A track counts as stationary when, over its boxes
    in the window (NaN rows are out of view), both the horizontal position
    and the width stay inside a max-minus-min span of
    :data:`STILL_SPAN_FRACTION` of :data:`IMAGE_WIDTH_PX`.  Tracks with
    fewer than two boxes in the window are dropped (no evidence of
    stillness).
    """
    def span(a):  # max minus min of each column's boxes; -inf if none
        return (np.fmax.reduce(a, axis=0, initial=-np.inf)
                - np.fmin.reduce(a, axis=0, initial=np.inf))

    threshold = STILL_SPAN_FRACTION * IMAGE_WIDTH_PX
    rows = slice(-still_frames(frame_rate), None)
    window = Detections(times=tracks.times[rows], ids=tracks.ids,
                        xs=tracks.xs[rows], ws=tracks.ws[rows])
    still = ((np.count_nonzero(~np.isnan(window.xs), axis=0) >= 2)
             & (span(window.xs) <= threshold)
             & (span(window.ws) <= threshold))
    return window.columns(np.flatnonzero(still))


def pixel_to_angle_window(x: float, w: float) -> tuple[int, int]:
    """Map a box's horizontal pixel span to an inclusive angle-bin window.

    Columns [0, :data:`IMAGE_WIDTH_PX`] correspond linearly to the angle
    grid's bins [0, :data:`aoa.DEFAULT_NUM_ANGLE_BINS`]; the window is
    widened outward to whole bins (floor on the left edge, ceil on the
    right) and clamped to the grid.
    """
    if w <= 0:
        raise ValueError("box width must be positive")
    n = DEFAULT_NUM_ANGLE_BINS
    lo = math.floor(x * n / IMAGE_WIDTH_PX)
    hi = math.ceil((x + w) * n / IMAGE_WIDTH_PX)
    lo = max(0, min(lo, n - 1))
    hi = max(0, min(hi, n - 1))
    return lo, hi


@dataclass(frozen=True)
class TargetLocation:
    range_bin: int
    angle_bin: int
    range_m: float
    angle_deg: float
    power: float


def localize(heatmap, window: tuple[int, int]) -> TargetLocation:
    """Strongest heatmap cell inside an angle window.

    Ties resolve to the smaller range bin, then the smaller angle bin.
    ``heatmap`` needs ``power`` (R x A), ``range_axis`` and ``angle_axis``
    attributes (see :func:`radarvitals.aoa.range_angle_heatmap`, whose rows
    stop at :data:`radarvitals.aoa.MAX_RANGE_M`).
    """
    lo, hi = window
    power = np.asarray(heatmap.power)
    n_a = power.shape[1]
    if not (0 <= lo <= hi < n_a):
        raise ValueError("angle window lies outside the heatmap grid")
    sub = power[:, lo:hi + 1]
    flat = int(np.argmax(sub))            # first occurrence: row-major order
    rbin, ai = divmod(flat, sub.shape[1])  # -> smaller range, then angle
    abin = lo + ai
    return TargetLocation(
        range_bin=rbin, angle_bin=abin,
        range_m=float(heatmap.range_axis[rbin]),
        angle_deg=float(heatmap.angle_axis[abin]),
        power=float(power[rbin, abin]),
    )
