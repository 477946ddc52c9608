import numpy as np
import pytest
import reference_camera
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


def _boxes(record, track_id):
    """Times, x and width of the frames that show ``track_id``'s box."""
    e = record.ids.index(track_id)
    seen = ~np.isnan(record.xs[:, e])
    return record.times[seen], record.xs[seen, e], record.ws[seen, e]


@st.composite
def _captures(draw):
    """A record at regular frame times and its frame rate.  Each person
    walks in at some frame and may walk out before the last, drops out of
    view for a few frames, and drifts and changes width at a steady rate
    (often not at all)."""
    fps = draw(st.sampled_from([1.0, 2.0, 10.0, 20.0]))
    n = draw(st.integers(0, 80))
    ids = draw(st.lists(st.sampled_from("abcdef"), max_size=4, unique=True))
    xs = np.full((n, len(ids)), np.nan)
    ws = np.full((n, len(ids)), np.nan)
    for e in range(len(ids)):
        enter = draw(st.integers(0, n))
        leave = draw(st.one_of(st.just(n), st.integers(enter, n)))
        shown = np.arange(enter, leave)
        xs[shown, e] = (draw(st.floats(0, 1700))
                        + draw(st.sampled_from([0.0, 0.5, 2.0, 20.0]))
                        * (shown - enter))
        ws[shown, e] = (draw(st.floats(50, 200))
                        + draw(st.sampled_from([0.0, 0.5, 3.0]))
                        * (shown - enter))
        gaps = draw(st.lists(st.integers(0, max(n - 1, 0)),
                             max_size=min(n, 5)))
        xs[gaps, e] = ws[gaps, e] = np.nan
    times = draw(st.sampled_from([0.0, 100.0])) + np.arange(n) / fps
    return fusion.Detections(times=times, ids=ids, xs=xs, ws=ws), fps


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
        assert tracks.ids == ["a", "b"]
        assert np.allclose(tracks.xs[:, 0], [10, 11])
        assert np.allclose(_boxes(tracks, "b")[0], [0.0, 0.1])

    def test_track_holds_only_frames_in_view(self):
        """A person who walks in late is tracked from their first box."""
        nan = np.nan
        tracks = fusion.build_tracks(_record(_t(4), [nan, nan, 700, 701]))
        assert tracks.ids == ["box"]
        times, xs, ws = _boxes(tracks, "box")
        assert np.allclose(times, [0.2, 0.3])
        assert np.allclose(xs, [700, 701]) and np.allclose(ws, 150)

    def test_person_gone_by_the_last_frame_is_not_tracked(self):
        """A box still for 5 s that left the view before the last frame
        was still over its own last 3 s, not over the capture's."""
        xs = [[800.0, 300.0]] * 50 + [[800.0, np.nan]] * 40
        tracks = fusion.build_tracks(_record(_t(90), xs,
                                             ids=("stays", "left")))
        assert tracks.ids == ["stays"]
        assert fusion.filter_stationary(tracks, 10.0).ids == ["stays"]

    def test_stationary_keeps_still_box(self):
        tracks = fusion.build_tracks(
            _record(_t(50), [800 + (i % 2) for i in range(50)]))
        kept = fusion.filter_stationary(tracks, 10.0)
        assert kept.ids == ["box"]

    def test_stationary_track_is_cut_to_the_still_window(self):
        """The still window is the last 3 s, 30 frames at 10 fps."""
        assert fusion.still_frames(10.0) == 30
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [800 + (i % 2) for i in range(50)])), 10.0)
        assert kept.ids == ["box"]
        assert np.array_equal(kept.times, _t(50)[-30:])
        assert np.array_equal(kept.xs[:, 0],
                              [800 + (i % 2) for i in range(20, 50)])
        assert kept.ws.shape == kept.xs.shape == (30, 1)

    def test_stationary_drops_walker(self):
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [300 + 20 * i for i in range(50)])), 10.0)
        assert kept.ids == []

    def test_only_trailing_window_matters(self):
        """A box that walked early but stood still for the last 3 s counts."""
        xs = [300 + 20 * i for i in range(30)] + [900.0] * 40
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(70), xs, ids=("settled",))), 10.0)
        assert kept.ids == ["settled"]

    def test_width_changes_disqualify(self):
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), [800] * 50, ws=[150 + 3 * i for i in range(50)])),
            10.0)
        assert kept.ids == []

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
        assert kept.ids == []

    def test_no_frame_no_track(self):
        assert fusion.build_tracks(_record([], [])).ids == []

    def test_length_is_the_track_count(self):
        """A record's length is its number of identities: three in view,
        two of them still."""
        xs = [[800.0 + (i % 2), 300.0 + 20 * i, 500.0] for i in range(50)]
        tracks = fusion.build_tracks(_record(_t(50), xs,
                                             ids=("c", "walks", "a")))
        kept = fusion.filter_stationary(tracks, 10.0)
        assert (len(tracks), len(kept)) == (3, 2)
        assert kept.ids == ["a", "c"]

    def test_gap_in_the_window_keeps_the_track_and_its_rows(self):
        """A box missing for some frames of the still window leaves NaN
        rows; the track is judged on the boxes it has."""
        xs = [800.0] * 45 + [np.nan] * 3 + [830.0, 800.0]
        kept = fusion.filter_stationary(fusion.build_tracks(
            _record(_t(50), xs)), 10.0)
        assert kept.ids == ["box"]
        assert np.isnan(kept.xs[-5:-2, 0]).all()
        assert np.nanmax(kept.xs) == 830.0

    @given(_captures())
    def test_columns_match_the_per_track_reference(self, capture):
        """The record's columns hold the per-track reference's ids, and
        each column's boxes are the reference track's frames and boxes,
        before and after the still window's cut."""
        record, fps = capture
        tracks = fusion.build_tracks(record)
        want = reference_camera.build_tracks(record)
        for got, ref in ((tracks, want), (
                fusion.filter_stationary(tracks, fps),
                reference_camera.filter_stationary(want, fps))):
            assert got.ids == [tr.id for tr in ref]
            for tr in ref:
                times, xs, ws = _boxes(got, tr.id)
                assert np.array_equal(times, tr.times)
                assert np.array_equal(xs, tr.xs)
                assert np.array_equal(ws, tr.ws)


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
