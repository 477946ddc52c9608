from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import aoa, fusion, simulate, vitals
from radarvitals.beamform import tx_weights
from radarvitals.pipeline import ScenarioSpec
from radarvitals.rangefft import range_bin_of, range_fft


def test_chest_displacement_frozen_value():
    v = rv.VitalParams(breath_freq=0.25, breath_amp=4e-3,
                       heart_freq=1.2, heart_amp=3e-4)
    assert simulate.chest_displacement(0.7, v) == pytest.approx(
        0.0033107277191028665, abs=1e-18)


def test_chest_displacement_zero_at_origin():
    assert simulate.chest_displacement(0.0, rv.VitalParams()) == 0.0


def test_motion_burst_windowing():
    bursts = (rv.BodyMotion(freq=1.0, amp=2e-3, start=1.0, stop=2.0),)
    t = np.array([0.5, 1.25, 2.5])
    d = simulate.motion_displacement(t, bursts)
    assert d[0] == 0.0 and d[2] == 0.0
    assert d[1] == pytest.approx(2e-3 * np.sin(2 * np.pi * 0.25))


class TestCubeGeometry:
    def test_shape_and_timestamps(self, cfg, small_scene):
        cube = simulate.synthesize_cube(small_scene, cfg)
        frames = round(small_scene.duration * cfg.frame_rate)
        assert cube.data.shape == (cfg.samples_per_chirp,
                                   frames * cfg.chirps_per_frame,
                                   cfg.num_virtual)
        assert cube.frame_timestamps[1] == pytest.approx(cfg.frame_period)

    def test_static_beat_frequency_lands_on_expected_bin(self, cfg):
        scene = rv.Scene(statics=(rv.PointReflector(5.0, 0.0),), duration=0.5)
        cube = simulate.synthesize_cube(scene, cfg)
        prof = range_fft(cube)
        peak = int(np.argmax(np.abs(prof.data[:, 0, 0])))
        assert peak == range_bin_of(5.0, cfg)

    def test_antenna_phase_ramp_matches_steering(self, cfg):
        angle = 25.0
        scene = rv.Scene(statics=(rv.PointReflector(3.0, angle),),
                         duration=0.5)
        cube = simulate.synthesize_cube(scene, cfg)
        snap = cube.data[0, 0, :]
        step = np.angle(snap[1:] * snap[:-1].conj())
        expected = (2 * np.pi * cfg.rx_spacing / cfg.wavelength
                    * np.sin(np.deg2rad(angle)))
        assert np.allclose(step, expected, atol=1e-9)

    def test_vital_target_phase_amplitude(self, cfg):
        """Slow-time phase swings by 4*pi*A/lambda around the breath cycle."""
        vit = rv.VitalParams(breath_freq=0.25, breath_amp=4e-3,
                             heart_freq=1.2, heart_amp=0.0)
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 0.0, 1.0, vit),),
                         duration=8.0)
        cube = simulate.synthesize_cube(scene, cfg)
        prof = range_fft(cube)
        rb = range_bin_of(2.0, cfg)
        idx = np.arange(len(cube.frame_timestamps)) * cfg.chirps_per_frame
        phase = np.unwrap(np.angle(prof.data[rb, idx, 0]))
        swing = phase.max() - phase.min()
        expected = 2 * 4 * np.pi * 4e-3 / cfg.wavelength
        assert swing == pytest.approx(expected, rel=0.02)

    def test_mover_sweeps_range_bins(self, cfg):
        mover = rv.MovingReflector(
            waypoints=((0.0, 2.0, 0.0), (2.0, 8.0, 0.0)))
        scene = rv.Scene(movers=(mover,), duration=2.0)
        cube = simulate.synthesize_cube(scene, cfg)
        prof = range_fft(cube)
        first = int(np.argmax(np.abs(prof.data[:, 0, 0])))
        last = int(np.argmax(np.abs(prof.data[:, -1, 0])))
        t_last = ((len(cube.frame_timestamps) - 1) * cfg.frame_period
                  + (cfg.chirps_per_frame - 1) * cfg.pri)
        assert first == range_bin_of(2.0, cfg)
        assert last == range_bin_of(float(mover.range_at(t_last)), cfg)


class TestNoiseAndLimits:
    def test_snr_sets_noise_power(self, cfg):
        scene = rv.Scene(duration=0.5)        # empty: pure noise
        cube = simulate.synthesize_cube(scene, cfg, snr_db=20.0, seed=0)
        measured = np.mean(np.abs(cube.data) ** 2)
        assert measured == pytest.approx(10 ** (-20 / 10), rel=0.05)

    def test_noiseless_without_snr(self, cfg):
        cube = simulate.synthesize_cube(rv.Scene(duration=0.5), cfg)
        assert np.all(cube.data == 0)

    def test_same_seed_same_cube(self, cfg, small_scene):
        a = simulate.synthesize_cube(small_scene, cfg, snr_db=10.0, seed=42)
        b = simulate.synthesize_cube(small_scene, cfg, snr_db=10.0, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_rejects_range_beyond_beat_nyquist(self, cfg):
        bad = rv.Scene(statics=(rv.PointReflector(
            cfg.max_unambiguous_range + 1.0, 0.0),), duration=0.5)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate.synthesize_cube(bad, cfg)

    def test_rejects_mover_leaving_unambiguous_range(self, cfg):
        bad = rv.Scene(movers=(rv.MovingReflector(
            waypoints=((0.0, 2.0, 0.0),
                       (0.5, cfg.max_unambiguous_range + 2.0, 0.0))),),
            duration=0.5)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate.synthesize_cube(bad, cfg)

    def test_tx_weights_length_checked(self, cfg, small_scene):
        with pytest.raises(ValueError, match="num_tx"):
            simulate.synthesize_cube(small_scene, cfg,
                                     tx_weights=np.ones(5))


SCENARIOS = Path(__file__).parents[1] / "scenarios"


def test_illumination_gain_scales_scatterer(cfg):
    """Steering the transmit pair at the scatterer doubles its amplitude."""
    scene = rv.Scene(statics=(rv.PointReflector(3.0, 20.0),), duration=0.5)
    plain = simulate.synthesize_cube(scene, cfg)
    tx = tx_weights(20.0, cfg.wavelength, num_elements=cfg.num_tx,
                    spacing=cfg.tx_spacing)
    boosted = simulate.synthesize_cube(scene, cfg, tx_weights=tx)
    ratio = np.abs(boosted.data[0, 0, 0]) / np.abs(plain.data[0, 0, 0])
    assert ratio == pytest.approx(cfg.num_tx, rel=1e-9)


def test_mover_follows_its_angle_and_amplitude(cfg):
    """At the first and last slow sample a mover's antenna phase step is
    2*pi*d_r/lambda*sin(theta(t)), its magnitude is amplitude_at(t), and
    transmit weights scale that magnitude by |w^H a_tx(theta(t))|."""
    mover = rv.MovingReflector(
        waypoints=((0.0, 2.0, -30.0), (1.0, 3.0, 40.0)),
        amplitude=((0.0, 0.5), (1.0, 2.0)))
    scene = rv.Scene(movers=(mover,), duration=1.0)
    tx = tx_weights(10.0, cfg.wavelength, num_elements=cfg.num_tx,
                    spacing=cfg.tx_spacing)
    plain = simulate.synthesize_cube(scene, cfg).data
    steered = simulate.synthesize_cube(scene, cfg, tx_weights=tx).data
    _, slow_t = simulate._slow_times(cfg, scene.duration)
    for s in (0, -1):
        sin_t = np.sin(np.deg2rad(mover.angle_at(slow_t[s])))
        amp = mover.amplitude_at(slow_t[s])
        snap = plain[0, s, :]
        step = np.angle(snap[1:] * snap[:-1].conj())
        assert np.allclose(step, 2 * np.pi * cfg.rx_spacing / cfg.wavelength
                           * sin_t, atol=1e-9)
        assert np.allclose(np.abs(plain[:, s, :]), amp, rtol=1e-12)
        a_tx = np.exp(2j * np.pi * cfg.tx_spacing / cfg.wavelength * sin_t
                      * np.arange(cfg.num_tx))
        gain = abs(np.vdot(tx.weights, a_tx))
        assert 0.1 < gain < cfg.num_tx - 0.1
        assert np.allclose(np.abs(steered[:, s, :]), gain * amp, rtol=1e-9)


class TestSteeringCorrection:
    """The renderer with the gain offset by one: what steering adds."""

    def test_zero_without_steering(self, cfg, small_scene):
        corr = simulate.render_profiles(small_scene, cfg, range(3, 6),
                                        np.arange(8), gain_offset=1.0)
        assert corr.shape == (3, 8, cfg.num_virtual)
        assert np.all(corr == 0)

    @pytest.mark.parametrize("bins", [[-1, 0, 1], [63, 64, 65]])
    def test_rejects_bins_off_the_profile(self, cfg, small_scene, bins):
        tx = np.ones(cfg.num_tx)
        with pytest.raises(ValueError,
                           match=r"range bins must lie in \[0, 64\]"):
            simulate.render_profiles(small_scene, cfg, bins, np.arange(8),
                                     tx_weights=tx, gain_offset=1.0)


@pytest.fixture(scope="module", params=["clean", "range_overlap",
                                        "fusion_stress", "bench"])
def noiseless_cubes(request):
    """A bundled scenario with its noiseless cubes, unsteered and steered
    at its target, and the range bins a run of it reads."""
    spec = ScenarioSpec.from_json(SCENARIOS / f"{request.param}.json")
    cfg = spec.radar
    tx = tx_weights(spec.scene.targets[0].angle_deg, cfg.wavelength,
                    num_elements=cfg.num_tx, spacing=cfg.tx_spacing)
    plain = simulate.synthesize_cube(spec.scene, cfg)
    steered = simulate.synthesize_cube(spec.scene, cfg, tx_weights=tx)
    bins = np.arange(simulate.range_profiles(spec.scene, cfg).data.shape[0])
    return spec, tx, plain, steered, bins


class TestRenderProfiles:
    """The range-domain renderer against ``range_fft`` of the cube."""

    @pytest.mark.parametrize("steer, gain_offset", [(False, 0.0),
                                                    (True, 0.0),
                                                    (True, 1.0)])
    def test_matches_the_cube_fft_at_the_rendered_bins(
            self, noiseless_cubes, steer, gain_offset):
        spec, tx, plain, steered, bins = noiseless_cubes
        cfg = spec.radar
        want = range_fft(steered if steer else plain).data
        if gain_offset:
            want = want - range_fft(plain).data
        want = want[bins]
        got = simulate.render_profiles(spec.scene, cfg, bins, slice(None),
                                       tx_weights=tx if steer else None,
                                       gain_offset=gain_offset)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_range_profiles_wrap_the_read_rows(self, cfg, small_scene):
        """The rows at or below the localizer's range, plus half a phase
        window beyond them: 34 + 2 of the 65 bins here."""
        prof = simulate.range_profiles(small_scene, cfg)
        ref = range_fft(simulate.synthesize_cube(small_scene, cfg))
        near = int(np.count_nonzero(ref.range_axis <= aoa.MAX_RANGE_M))
        rows = near + vitals.PHASE_CHANNELS // 2
        assert (near, rows) == (34, 36)
        assert prof.data.shape == (rows,) + ref.data.shape[1:]
        assert prof.num_bins == ref.num_bins == 65
        assert np.array_equal(prof.range_axis, ref.range_axis[:rows])
        assert np.array_equal(prof.frame_timestamps, ref.frame_timestamps)
        err = np.abs(prof.data - ref.data[:rows]).max()
        assert err <= 1e-12 * np.abs(ref.data).max()

    def test_bin_domain_noise_is_white(self, cfg):
        """Every bin carries N = samples_per_chirp times the per-sample
        noise power, uncorrelated across bins and antennas."""
        snr_db, n_bins = 10.0, 6
        noise = simulate.render_profiles(
            rv.Scene(duration=2.0), cfg, np.arange(n_bins), slice(None),
            snr_db=snr_db, seed=np.random.SeedSequence(3))
        power = cfg.samples_per_chirp * 10.0 ** (-snr_db / 10.0)
        # Each statistic below is a mean of m unit-variance terms, so five
        # standard errors are 5 / sqrt(m).
        for rows in (noise.reshape(n_bins, -1),
                     noise.transpose(2, 0, 1).reshape(cfg.num_virtual, -1)):
            m = rows.shape[1]
            cov = rows @ rows.conj().T / m / power
            assert np.abs(np.diag(cov) - 1.0).max() <= 5.0 / np.sqrt(m)
            off = cov[~np.eye(len(rows), dtype=bool)]
            assert np.abs(off).max() <= 5.0 / np.sqrt(m)
            # circular: no correlation between real and imaginary parts
            assert np.abs(np.mean(rows ** 2, axis=1) / power).max() <= (
                5.0 / np.sqrt(m))


class TestDetections:
    # Five standard deviations of the simulated box jitter.
    TOL_PX = 5 * simulate.JITTER_PX

    def test_center_mapping_is_linear(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 30.0),), duration=1.0)
        frames = simulate.synthesize_detections(scene, 20.0, seed=0)
        box = frames[0].boxes[0]
        expected_center = (30.0 + 60.0) / 120.0 * 1920
        assert box.x + box.w / 2 == pytest.approx(expected_center,
                                                   abs=self.TOL_PX)
        assert box.id == "target-0"

    def test_out_of_view_scatterers_make_no_boxes(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 30.0),),
                         movers=(rv.MovingReflector(
                             waypoints=((0.0, 3.0, 80.0),)),),
                         duration=1.0)
        frames = simulate.synthesize_detections(scene, 20.0, seed=0)
        assert all(len(f.boxes) == 1 for f in frames)

    def test_mover_box_follows_trajectory(self):
        """The box moves 96 px a frame, far beyond the jitter."""
        scene = rv.Scene(movers=(rv.MovingReflector(
            waypoints=((0.0, 3.0, -30.0), (1.0, 3.0, 30.0))),), duration=1.0)
        frames = simulate.synthesize_detections(scene, 10.0, seed=0)
        xs = [f.boxes[0].x for f in frames]
        assert xs == sorted(xs)
        for f in frames:
            center = (f.timestamp * 60.0 - 30.0 + 60.0) / 120.0 * 1920
            assert f.boxes[0].x + f.boxes[0].w / 2 == pytest.approx(
                center, abs=self.TOL_PX)
        assert frames[0].boxes[0].id == "mover-0"

    def test_jitter_is_seeded(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 0.0),), duration=2.0)
        a = simulate.synthesize_detections(scene, 20.0, seed=5)
        b = simulate.synthesize_detections(scene, 20.0, seed=5)
        assert all(x.boxes[0].x == y.boxes[0].x for x, y in zip(a, b))

    def test_box_window_contains_the_target_bin_across_the_view(self):
        """The camera's field of view is the angle grid's: for a target
        anywhere in +-MAX_ANGLE_DEG, every box's angle window holds the
        grid bin nearest the target."""
        grid = aoa.default_angle_grid()
        angles = np.arange(-aoa.MAX_ANGLE_DEG, aoa.MAX_ANGLE_DEG + 0.25, 0.5)
        checked = 0
        for i, angle in enumerate(angles):
            scene = rv.Scene(targets=(rv.VitalTarget(2.0, float(angle)),),
                             duration=2.0)
            true_bin = int(np.argmin(np.abs(grid - angle)))
            for f in simulate.synthesize_detections(scene, 20.0, seed=i):
                (box,) = f.boxes
                lo, hi = fusion.pixel_to_angle_window(box.x, box.w)
                assert lo <= true_bin <= hi, (angle, f.timestamp, lo, hi)
                checked += 1
        assert checked == angles.size * 40 == 9640
