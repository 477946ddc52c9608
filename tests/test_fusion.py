import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radarvitals import fusion
from radarvitals.aoa import Heatmap


def _record(times, xs, ws=150.0, ids=("box",)):
    """Detections at ``times``: box x and width per frame, one column per
    id in ``ids``; a NaN x is out of view."""
    shape = (len(times), len(ids))
    xs = np.reshape(np.asarray(xs, dtype=float), shape)
    ws = np.where(np.isnan(xs), np.nan,
                  np.reshape(np.asarray(ws, dtype=float), (-1, 1)))
    return fusion.Detections(times=np.asarray(times, dtype=float),
                             ids=list(ids), xs=xs, ws=ws)


def _t(n, dt=0.1):
    return dt * np.arange(n)


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
        tracks = fusion.build_tracks(
            _record([0.0, 0.1], [[500, 10], [501, 11]], ids=("b", "a")))
        assert [t.id for t in tracks] == ["a", "b"]
        assert np.allclose(tracks[0].xs, [10, 11])
        assert np.allclose(tracks[1].times, [0.0, 0.1])

    def test_track_holds_only_frames_in_view(self):
        """A person who walks in late is tracked from their first box."""
        nan = np.nan
        (tr,) = fusion.build_tracks(_record(_t(4), [nan, nan, 700, 701]))
        assert np.allclose(tr.times, [0.2, 0.3])
        assert np.allclose(tr.xs, [700, 701]) and np.allclose(tr.ws, 150)

    def test_person_gone_by_the_last_frame_is_not_tracked(self):
        """A box still for 5 s that left the view before the last frame
        was still over its own last 3 s, not over the capture's."""
        xs = [[800.0, 300.0]] * 50 + [[800.0, np.nan]] * 40
        tracks = fusion.build_tracks(_record(_t(90), xs,
                                             ids=("stays", "left")))
        assert [t.id for t in tracks] == ["stays"]
        assert [t.id for t in fusion.filter_stationary(tracks, 10.0)] == [
            "stays"]

    def test_stationary_keeps_still_box(self):
        tracks = fusion.build_tracks(
            _record(_t(50), [800 + (i % 2) for i in range(50)]))
        kept = fusion.filter_stationary(tracks, 10.0)
        assert [t.id for t in kept] == ["box"]

    def test_stationary_track_is_cut_to_the_still_window(self):
        """The still window is the last 3 s, 30 frames at 10 fps."""
        assert fusion.still_frames(10.0) == 30
        (tr,) = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [800 + (i % 2) for i in range(50)])), 10.0)
        assert np.array_equal(tr.times, _t(50)[-30:])
        assert np.array_equal(tr.xs, [800 + (i % 2) for i in range(20, 50)])
        assert tr.ws.shape == tr.times.shape

    def test_stationary_drops_walker(self):
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [300 + 20 * i for i in range(50)])), 10.0)
        assert kept == []

    def test_only_trailing_window_matters(self):
        """A box that walked early but stood still for the last 3 s counts."""
        xs = [300 + 20 * i for i in range(30)] + [900.0] * 40
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(70), xs, ids=("settled",))), 10.0)
        assert [t.id for t in kept] == ["settled"]

    def test_width_changes_disqualify(self):
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [800] * 50, ws=[150 + 3 * i for i in range(50)])),
            10.0)
        assert kept == []

    def test_threshold_is_two_percent_by_default(self):
        span = 0.02 * 1920
        ok = _record(_t(8, 0.5), [800 + span * (i % 2) for i in range(8)])
        bad = _record(_t(8, 0.5),
                      [800 + (span + 1) * (i % 2) for i in range(8)])
        assert fusion.filter_stationary(fusion.build_tracks(ok), 2.0)
        assert not fusion.filter_stationary(fusion.build_tracks(bad), 2.0)

    def test_single_sample_tracks_are_dropped(self):
        kept = fusion.filter_stationary(
            fusion.build_tracks(_record([0.0], [100])), 10.0)
        assert kept == []

    def test_no_frame_no_track(self):
        assert fusion.build_tracks(_record([], [])) == []


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
