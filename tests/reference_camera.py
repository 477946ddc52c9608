"""The camera's scalar reference: one box at a time, as a loop.

:func:`synthesize_detections` is the per-frame, per-entity loop that
:func:`radarvitals.simulate.synthesize_detections` vectorizes: it
interpolates each mover's azimuth one frame at a time and draws each box's
x jitter, then its y jitter, with one scalar ``rng.normal`` call each.  It
fills the same :class:`radarvitals.fusion.Detections` record, which the
tests compare entry by entry.

:func:`build_tracks` and :func:`filter_stationary` are the per-identity
loops that :func:`radarvitals.fusion.build_tracks` and
:func:`radarvitals.fusion.filter_stationary` do on the record's columns:
each track is a :class:`TrackedBox` holding only the frames that show its
box, and the still window is cut by time, half a frame before its first
frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radarvitals.aoa import MAX_ANGLE_DEG
from radarvitals.config import Scene
from radarvitals.fusion import (IMAGE_WIDTH_PX, STILL_SPAN_FRACTION,
                                Detections, still_frames)
from radarvitals.simulate import BOX_WIDTH_PX, JITTER_PX, target_track_ids


def synthesize_detections(scene: Scene, frame_rate: float,
                          seed=None) -> Detections:
    """Boxes of every vital target and mover in view, frame by frame."""
    rng = np.random.default_rng(seed)
    n_frames = int(round(scene.duration * frame_rate))
    ids = [*target_track_ids(scene),
           *(f"mover-{i}" for i in range(len(scene.movers)))]
    times = np.empty(n_frames)
    xs = np.full((n_frames, len(ids)), np.nan)
    ws = np.full((n_frames, len(ids)), np.nan)
    for f in range(n_frames):
        t = f / frame_rate
        times[f] = t
        angles = [*(tgt.angle_deg for tgt in scene.targets),
                  *(float(mv.angle_at(t)) for mv in scene.movers)]
        for e, angle in enumerate(angles):
            if not (-MAX_ANGLE_DEG <= angle <= MAX_ANGLE_DEG):
                continue
            cx = ((angle + MAX_ANGLE_DEG) / (2.0 * MAX_ANGLE_DEG)
                  * IMAGE_WIDTH_PX)
            x = cx - 0.5 * BOX_WIDTH_PX + rng.normal(0.0, JITTER_PX)
            rng.normal(0.0, JITTER_PX)  # the box's y jitter
            xs[f, e] = min(max(x, 0.0), IMAGE_WIDTH_PX - BOX_WIDTH_PX)
            ws[f, e] = BOX_WIDTH_PX
    return Detections(times=times, ids=ids, xs=xs, ws=ws)


@dataclass
class TrackedBox:
    """Time series of one identity-tracked box."""

    id: str
    times: np.ndarray
    xs: np.ndarray
    ws: np.ndarray


def build_tracks(detections: Detections) -> list[TrackedBox]:
    """One track per identity in view in the capture's last frame, sorted
    by id, holding the frames that show its box."""
    times, xs, ws = detections.times, detections.xs, detections.ws
    tracks = []
    for bid, e in sorted(zip(detections.ids, range(xs.shape[1]))):
        seen = ~np.isnan(xs[:, e])
        if seen.size and seen[-1]:
            tracks.append(TrackedBox(id=bid, times=times[seen],
                                     xs=xs[seen, e], ws=ws[seen, e]))
    return tracks


def filter_stationary(tracks: list[TrackedBox],
                      frame_rate: float) -> list[TrackedBox]:
    """The tracks whose x and width spans over their samples in the still
    window stay within the threshold, each cut to that window; tracks with
    fewer than two samples there are dropped."""
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
