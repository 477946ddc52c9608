"""The camera's scalar reference: one box at a time, as a loop.

:func:`synthesize_detections` is the per-frame, per-entity loop that
:func:`radarvitals.simulate.synthesize_detections` vectorizes: it
interpolates each mover's azimuth one frame at a time and draws each box's
x jitter, then its y jitter, with one scalar ``rng.normal`` call each.  The
tests compare the two frame by frame and box by box.
"""
from __future__ import annotations

import numpy as np

from radarvitals.aoa import MAX_ANGLE_DEG
from radarvitals.config import Scene
from radarvitals.fusion import IMAGE_WIDTH_PX, Box, DetectionFrame
from radarvitals.simulate import (BOX_HEIGHT_PX, BOX_WIDTH_PX,
                                  IMAGE_HEIGHT_PX, JITTER_PX,
                                  target_track_ids)


def synthesize_detections(scene: Scene, frame_rate: float,
                          seed=None) -> list[DetectionFrame]:
    """Per-frame boxes of every vital target and mover in view."""
    rng = np.random.default_rng(seed)
    n_frames = int(round(scene.duration * frame_rate))
    y_base = 0.5 * (IMAGE_HEIGHT_PX - BOX_HEIGHT_PX)

    def make_box(bid: str, angle: float) -> Box | None:
        if not (-MAX_ANGLE_DEG <= angle <= MAX_ANGLE_DEG):
            return None
        cx = (angle + MAX_ANGLE_DEG) / (2.0 * MAX_ANGLE_DEG) * IMAGE_WIDTH_PX
        x = cx - 0.5 * BOX_WIDTH_PX + rng.normal(0.0, JITTER_PX)
        y = y_base + rng.normal(0.0, JITTER_PX)
        x = float(min(max(x, 0.0), IMAGE_WIDTH_PX - BOX_WIDTH_PX))
        y = float(min(max(y, 0.0), IMAGE_HEIGHT_PX - BOX_HEIGHT_PX))
        return Box(id=bid, x=x, y=y, w=BOX_WIDTH_PX, h=BOX_HEIGHT_PX)

    targets = target_track_ids(scene)
    frames = []
    for f in range(n_frames):
        t = f / frame_rate
        boxes = []
        for bid, tgt in targets.items():
            b = make_box(bid, tgt.angle_deg)
            if b is not None:
                boxes.append(b)
        for i, mv in enumerate(scene.movers):
            b = make_box(f"mover-{i}", float(mv.angle_at(t)))
            if b is not None:
                boxes.append(b)
        frames.append(DetectionFrame(timestamp=t, boxes=boxes))
    return frames
