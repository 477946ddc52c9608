"""Camera-box / radar-heatmap fusion.

The camera side of the system is reduced to its essentials: per-frame 2-D
bounding boxes in pixel coordinates.  This module tracks boxes over time,
keeps only the ones that have stopped moving, converts their horizontal
pixel extent into a window of angle bins, and picks the strongest
range-angle cell inside that window.  The image's columns span the angle
grid, so the camera's field of view is +-:data:`aoa.MAX_ANGLE_DEG`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class Box:
    """Axis-aligned detection box; ``x``/``y`` is the top-left corner."""

    id: str
    x: float
    y: float
    w: float
    h: float


@dataclass
class DetectionFrame:
    timestamp: float
    boxes: list[Box] = field(default_factory=list)


@dataclass
class TrackedBox:
    """Time series of one identity-tracked box."""

    id: str
    times: np.ndarray
    xs: np.ndarray
    ws: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def build_tracks(frames: list[DetectionFrame]) -> list[TrackedBox]:
    """Group boxes by identity across frames (ids come from the detector)."""
    acc: dict[str, list[tuple[float, float, float]]] = {}
    for fr in frames:
        for b in fr.boxes:
            acc.setdefault(b.id, []).append((fr.timestamp, b.x, b.w))
    tracks = []
    for bid in sorted(acc):
        rows = np.asarray(acc[bid], dtype=float)
        tracks.append(TrackedBox(id=bid, times=rows[:, 0], xs=rows[:, 1],
                                 ws=rows[:, 2]))
    return tracks


def filter_stationary(tracks: list[TrackedBox]) -> list[TrackedBox]:
    """Keep tracks whose box barely moved over the trailing time window.

    A track counts as stationary when, over the last
    :data:`STATIONARY_WINDOW_S` seconds of its samples, both the horizontal
    position and the width stay inside a max-minus-min span of
    :data:`STILL_SPAN_FRACTION` of :data:`IMAGE_WIDTH_PX`.  Tracks with fewer
    than two samples in the window are dropped (no evidence of stillness).
    """
    threshold = STILL_SPAN_FRACTION * IMAGE_WIDTH_PX
    out = []
    for tr in tracks:
        if len(tr) < 2:
            continue
        t_end = tr.times[-1]
        sel = tr.times >= t_end - STATIONARY_WINDOW_S
        if np.count_nonzero(sel) < 2:
            continue
        x_span = float(np.ptp(tr.xs[sel]))
        w_span = float(np.ptp(tr.ws[sel]))
        if x_span <= threshold and w_span <= threshold:
            out.append(tr)
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
    if hi < lo:
        lo, hi = hi, lo
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
