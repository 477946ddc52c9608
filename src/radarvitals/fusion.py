"""Camera-box / radar-heatmap fusion.

The camera side of the system is reduced to its essentials: the horizontal
pixel extent of every person's box in every frame, one :class:`Detections`
record per capture.  This module splits the record into per-identity
tracks, keeps the ones that have stopped moving, converts their horizontal
pixel extent into a window of angle bins, and picks the strongest
range-angle cell inside that window.  The image's columns span the angle
grid, so the camera's field of view is +-:data:`aoa.MAX_ANGLE_DEG`.
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
    """Every camera box of a capture.

    ``times`` (F,) are the frame times; ``xs`` and ``ws`` (F, E) are the
    left edge and width in pixels of entity ``ids[e]``'s box in each frame,
    NaN where the entity is out of view.
    """

    times: np.ndarray
    ids: list[str]
    xs: np.ndarray
    ws: np.ndarray


@dataclass
class TrackedBox:
    """Time series of one identity-tracked box."""

    id: str
    times: np.ndarray
    xs: np.ndarray
    ws: np.ndarray


def build_tracks(detections: Detections) -> list[TrackedBox]:
    """One track per identity in view in the capture's last frame, sorted
    by id, holding the frames that show its box.

    A person who has left the view is not tracked, so every track ends at
    the capture's last frame, where the radar's still window ends too.
    """
    times, xs, ws = detections.times, detections.xs, detections.ws
    tracks = []
    for bid, e in sorted(zip(detections.ids, range(xs.shape[1]))):
        seen = ~np.isnan(xs[:, e])
        if seen.size and seen[-1]:
            tracks.append(TrackedBox(id=bid, times=times[seen],
                                     xs=xs[seen, e], ws=ws[seen, e]))
    return tracks


def still_frames(frame_rate: float) -> int:
    """Frames in the still window that ends a capture at ``frame_rate``
    frames per second, the last :data:`STATIONARY_WINDOW_S` seconds (at
    least one): the camera tests stillness over them and the radar renders
    its heatmap's rows at them."""
    return max(int(round(STATIONARY_WINDOW_S * frame_rate)), 1)


def filter_stationary(tracks: list[TrackedBox],
                      frame_rate: float) -> list[TrackedBox]:
    """The tracks whose box barely moved over the still window, each cut to
    that window.

    The still window is the last :func:`still_frames` frames of a capture
    at ``frame_rate``; its edge lies half a frame before its first frame,
    clear of every frame time.  A track counts as stationary when, over its
    samples in the window, both the horizontal position and the width stay
    inside a max-minus-min span of :data:`STILL_SPAN_FRACTION` of
    :data:`IMAGE_WIDTH_PX`.  Tracks with fewer than two samples in the
    window are dropped (no evidence of stillness).
    """
    threshold = STILL_SPAN_FRACTION * IMAGE_WIDTH_PX
    span = (still_frames(frame_rate) - 0.5) / frame_rate
    out = []
    for tr in tracks:
        sel = tr.times > tr.times[-1] - span
        if np.count_nonzero(sel) < 2:
            continue
        still = TrackedBox(id=tr.id, times=tr.times[sel], xs=tr.xs[sel],
                           ws=tr.ws[sel])
        if np.ptp(still.xs) <= threshold and np.ptp(still.ws) <= threshold:
            out.append(still)
    return out


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
