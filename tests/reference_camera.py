"""The camera's scalar reference: one box at a time, as a loop.

:func:`synthesize_detections` is the per-frame, per-entity loop that
:func:`radarvitals.simulate.synthesize_detections` vectorizes: it
interpolates each mover's azimuth one frame at a time and draws each box's
x jitter, then its y jitter, with one scalar ``rng.normal`` call each.  It
fills the same :class:`radarvitals.fusion.Detections` record, which the
tests compare entry by entry.
"""
from __future__ import annotations

import numpy as np

from radarvitals.aoa import MAX_ANGLE_DEG
from radarvitals.config import Scene
from radarvitals.fusion import IMAGE_WIDTH_PX, Detections
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
