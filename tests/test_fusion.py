import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radarvitals import fusion
from radarvitals.aoa import Heatmap


def _frame(t, boxes):
    return fusion.DetectionFrame(timestamp=t, boxes=boxes)


def _box(bid, x, w=150.0, y=300.0, h=500.0):
    return fusion.Box(id=bid, x=x, y=y, w=w, h=h)


class TestWindow:
    def test_frozen_mapping(self):
        """x=480, w=240 on a 1920-px image against 121 angle bins."""
        assert fusion.pixel_to_angle_window(480, 240) == (30, 46)

    def test_full_width_box_covers_grid(self):
        assert fusion.pixel_to_angle_window(0, 1920) == (0, 120)

    def test_clamps_overhanging_box(self):
        lo, hi = fusion.pixel_to_angle_window(1900, 200)
        assert hi == 120 and lo <= hi

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            fusion.pixel_to_angle_window(100, 0)

    @given(st.floats(0, 1919), st.floats(1, 500))
    def test_window_always_valid(self, x, w):
        lo, hi = fusion.pixel_to_angle_window(x, w)
        assert 0 <= lo <= hi <= 120

    def test_window_contains_box_center_bin(self):
        for x, w in ((0, 10), (960, 5), (1300, 321)):
            lo, hi = fusion.pixel_to_angle_window(x, w)
            center_bin = (x + w / 2) * 121 / 1920
            assert lo <= center_bin <= hi + 1


class TestTracks:
    def test_grouping_by_identity(self):
        frames = [
            _frame(0.0, [_box("a", 10), _box("b", 500)]),
            _frame(0.1, [_box("b", 501), _box("a", 11)]),
        ]
        tracks = fusion.build_tracks(frames)
        assert [t.id for t in tracks] == ["a", "b"]
        assert np.allclose(tracks[0].xs, [10, 11])
        assert np.allclose(tracks[1].times, [0.0, 0.1])

    def test_stationary_keeps_still_box(self):
        frames = [_frame(0.1 * i, [_box("still", 800 + (i % 2))])
                  for i in range(50)]
        tracks = fusion.build_tracks(frames)
        kept = fusion.filter_stationary(tracks)
        assert [t.id for t in kept] == ["still"]

    def test_stationary_drops_walker(self):
        frames = [_frame(0.1 * i, [_box("walk", 300 + 20 * i)])
                  for i in range(50)]
        kept = fusion.filter_stationary(fusion.build_tracks(frames))
        assert kept == []

    def test_only_trailing_window_matters(self):
        """A box that walked early but stood still for the last 3 s counts."""
        xs = [300 + 20 * i for i in range(30)] + [900.0] * 40
        frames = [_frame(0.1 * i, [_box("settled", x)])
                  for i, x in enumerate(xs)]
        kept = fusion.filter_stationary(fusion.build_tracks(frames))
        assert [t.id for t in kept] == ["settled"]

    def test_width_changes_disqualify(self):
        frames = [_frame(0.1 * i, [_box("zoom", 800, w=150 + 3 * i)])
                  for i in range(50)]
        kept = fusion.filter_stationary(fusion.build_tracks(frames))
        assert kept == []

    def test_threshold_is_two_percent_by_default(self):
        span = 0.02 * 1920
        frames_ok = [_frame(0.5 * i, [_box("edge", 800 + (span * (i % 2)))])
                     for i in range(8)]
        frames_bad = [_frame(0.5 * i, [_box("edge", 800 + (span + 1) * (i % 2))])
                      for i in range(8)]
        assert fusion.filter_stationary(fusion.build_tracks(frames_ok))
        assert not fusion.filter_stationary(fusion.build_tracks(frames_bad))

    def test_single_sample_tracks_are_dropped(self):
        kept = fusion.filter_stationary(
            fusion.build_tracks([_frame(0.0, [_box("blip", 100)])]))
        assert kept == []


def _heatmap(power):
    power = np.asarray(power, dtype=float)
    return Heatmap(power=power,
                   range_axis=np.arange(power.shape[0]) * 0.3,
                   angle_axis=np.linspace(-60, 60, power.shape[1]))


class TestLocalize:
    def test_finds_peak_inside_window(self):
        p = np.zeros((40, 121))
        p[7, 90] = 5.0
        p[20, 10] = 50.0            # stronger, but outside the window
        loc = fusion.localize(_heatmap(p), (86, 96))
        assert (loc.range_bin, loc.angle_bin) == (7, 90)
        assert loc.power == 5.0

    def test_ties_break_to_smaller_range_then_angle(self):
        p = np.zeros((40, 121))
        p[9, 50] = p[9, 48] = p[12, 48] = 3.0
        loc = fusion.localize(_heatmap(p), (40, 60))
        assert (loc.range_bin, loc.angle_bin) == (9, 48)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            fusion.localize(_heatmap(np.ones((10, 121))), (100, 200))
