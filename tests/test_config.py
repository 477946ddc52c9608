import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals.config import MAX_AMPLITUDE, SPEED_OF_LIGHT, Record


class TestRadarConfig:
    def test_derived_quantities(self, cfg):
        assert cfg.wavelength == pytest.approx(SPEED_OF_LIGHT / 77e9)
        assert cfg.chirp_slope_factor == pytest.approx(
            2 * 0.5e9 / (SPEED_OF_LIGHT * 50e-6))
        assert cfg.num_virtual == cfg.num_tx * cfg.num_rx
        assert cfg.num_range_bins == cfg.samples_per_chirp // 2 + 1
        assert cfg.beat_nyquist == pytest.approx(0.5 / cfg.adc_interval)
        # beat frequency at the max unambiguous range hits Nyquist exactly
        assert (cfg.chirp_slope_factor * cfg.max_unambiguous_range
                == pytest.approx(cfg.beat_nyquist))

    def test_is_a_plain_class_of_constants(self):
        """The chirp, the frame's chirps and the array are class constants:
        no record, no field a scenario could set."""
        assert not dataclasses.is_dataclass(rv.RadarConfig)
        assert not issubclass(rv.RadarConfig, Record)
        assert rv.RadarConfig.chirps_per_frame == 4

    def test_rejects_frame_overrun(self):
        """A scenario's frame must hold the front end's 4 chirps, 60 us
        apart, so its frame rate is at most 1 / 240 us = 4166.67 fps."""
        assert rv.ScenarioSpec(name="x", frame_rate=4166).frame_rate == 4166
        with pytest.raises(ValueError,
                           match="^ScenarioSpec: frame_rate must be at most"):
            rv.ScenarioSpec(name="x", frame_rate=4167)


class TestVitalParams:
    def test_defaults_are_plausible(self):
        v = rv.VitalParams()
        assert 0 < v.breath_freq < v.heart_freq
        assert v.heart_amp < v.breath_amp

    def test_rejects_band_inversion(self):
        with pytest.raises(ValueError):
            rv.VitalParams(breath_freq=2.0, heart_freq=1.0)

    def test_rejects_heart_stronger_than_breath(self):
        with pytest.raises(ValueError):
            rv.VitalParams(breath_amp=1e-4, heart_amp=5e-4)

    def test_body_motion_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            rv.BodyMotion(freq=1.0, amp=1e-3, start=5.0, stop=5.0)


class TestScene:
    def test_round_trip_through_json(self, small_scene):
        blob = json.dumps(small_scene.to_dict())
        again = rv.Scene.from_dict(json.loads(blob))
        assert again.to_dict() == small_scene.to_dict()

    def test_mover_interpolation_clamps_at_ends(self):
        m = rv.MovingReflector(
            waypoints=((1.0, 2.0, -30.0), (3.0, 4.0, 10.0)))
        assert m.range_at(0.0) == pytest.approx(2.0)
        assert m.range_at(2.0) == pytest.approx(3.0)
        assert m.range_at(99.0) == pytest.approx(4.0)
        assert m.angle_at(2.0) == pytest.approx(-10.0)

    def test_mover_amplitude_profile(self):
        m = rv.MovingReflector(
            waypoints=((0.0, 2.0, 0.0),),
            amplitude=((0.0, 1.0), (10.0, 3.0)))
        assert m.amplitude_at(5.0) == pytest.approx(2.0)

    def test_mover_requires_sorted_waypoints(self):
        with pytest.raises(ValueError):
            rv.MovingReflector(waypoints=((2.0, 1.0, 0.0), (1.0, 2.0, 0.0)))

    @pytest.mark.parametrize("amplitude, message", [
        ((), "amplitude needs at least one"),
        (((10.0, 1.0), (0.0, 3.0)), "amplitude times must be sorted"),
    ], ids=["empty", "unsorted"])
    def test_mover_refuses_unreadable_amplitude_pairs(self, amplitude,
                                                      message):
        """No pair at all, or pairs out of time order (where ``np.interp``
        would read 1.0 at t = 0 here), are refused like bad waypoints."""
        with pytest.raises(ValueError, match=f"^MovingReflector: {message}"):
            rv.MovingReflector(waypoints=((0.0, 2.0, 0.0),),
                               amplitude=amplitude)

    def test_mover_single_amplitude_pair_is_held(self):
        m = rv.MovingReflector(waypoints=((0.0, 2.0, 0.0),),
                               amplitude=((3.0, 2.5),))
        assert np.array_equal(m.amplitude_at(np.array([0.0, 3.0, 9.0])),
                              [2.5, 2.5, 2.5])

    def test_rejects_out_of_plane_angles(self):
        with pytest.raises(ValueError):
            rv.PointReflector(2.0, 120.0)

    def test_mover_range_follows_waypoints(self):
        m = rv.MovingReflector(
            waypoints=((0.0, 1.0, 0.0), (5.0, 6.0, 0.0), (10.0, 2.0, 0.0)))
        assert m.range_at(5.0) == pytest.approx(6.0)
        assert m.range_at(7.5) == pytest.approx(4.0)
        assert m.range_at(12.0) == pytest.approx(2.0)


class TestAmplitudeCeiling:
    """Every scatterer amplitude lies within +-MAX_AMPLITUDE, far inside
    the range whose squares the heatmap's covariances can hold."""

    MAKERS = {
        "static": (lambda a: rv.PointReflector(2.0, 0.0, a),
                   "PointReflector"),
        "target": (lambda a: rv.VitalTarget(2.0, 0.0, a), "VitalTarget"),
        "mover": (lambda a: rv.MovingReflector(((0.0, 2.0, 0.0),), a),
                  "MovingReflector"),
        "mover_pairs": (lambda a: rv.MovingReflector(
            ((0.0, 2.0, 0.0),), ((0.0, 1.0), (1.0, a))), "MovingReflector"),
    }

    @pytest.mark.parametrize("amplitude", [1e200, -1e200, 1.000001e6])
    @pytest.mark.parametrize("kind", MAKERS)
    def test_refused_above_the_ceiling(self, kind, amplitude):
        make, record = self.MAKERS[kind]
        with pytest.raises(ValueError,
                           match=f"^{record}: amplitude must be within"):
            make(amplitude)

    @pytest.mark.parametrize("kind", MAKERS)
    def test_admitted_up_to_the_ceiling(self, kind):
        make, _ = self.MAKERS[kind]
        for amplitude in (MAX_AMPLITUDE, -MAX_AMPLITUDE, 0.0):
            make(amplitude)


@given(st.floats(0.05, 0.5), st.floats(0.8, 3.0))
def test_vitals_accept_any_ordered_bands(fb, fh):
    v = rv.VitalParams(breath_freq=fb, heart_freq=fh)
    d = rv.VitalParams.from_dict(v.to_dict())
    assert d.breath_freq == v.breath_freq
    assert d.heart_freq == v.heart_freq


class TestFieldTypes:
    def test_wrong_type_names_record_and_field(self):
        with pytest.raises(ValueError,
                           match="^ScenarioSpec: frame_rate must be"):
            rv.ScenarioSpec(name="x", frame_rate="fast")
        with pytest.raises(ValueError,
                           match="^PointReflector: amplitude must be"):
            rv.PointReflector(2.0, 0.0, float("nan"))

    def test_dicts_and_lists_become_records_and_tuples(self):
        target = rv.VitalTarget(2.0, 0.0, vitals={"body_motion": [
            {"freq": 1.0, "amp": 1e-3, "start": 0.0, "stop": 1.0}]})
        assert target.vitals.body_motion == (
            rv.BodyMotion(1.0, 1e-3, 0.0, 1.0),)
        assert rv.Scene(statics=[rv.PointReflector(2.0, 0.0)]).statics == (
            rv.PointReflector(2.0, 0.0),)

    def test_numpy_numbers_become_python_numbers(self):
        """A numpy integer or float is stored as the Python number, so the
        record stays writable as JSON."""
        spec = rv.ScenarioSpec(name="x", seed=np.int64(1),
                            snr_db=np.float32(12.5))
        assert (type(spec.seed), type(spec.snr_db)) == (int, float)
        assert json.loads(json.dumps(spec.to_dict()))["seed"] == 1
        assert type(rv.Scene(duration=np.int32(3)).duration) is int

    def test_numpy_bool_is_refused_for_a_bool(self):
        with pytest.raises(ValueError,
                           match="^ScenarioSpec: beamforming must be"):
            rv.ScenarioSpec(name="x", beamforming=np.True_)

    @pytest.mark.parametrize("make, pattern", [
        (lambda: rv.Scene(duration=float("inf")),
         "^Scene: duration must be .*finite"),
        (lambda: rv.Scene(duration=0.0), "^Scene: duration must be > 0"),
    ], ids=["duration=inf", "duration=0"])
    def test_rejects_non_finite_or_non_positive_times(self, make, pattern):
        with pytest.raises(ValueError, match=pattern):
            make()

