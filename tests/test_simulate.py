import dataclasses
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import aoa, fusion, simulate, vitals
from radarvitals.beamform import tx_weights
from radarvitals.pipeline import ScenarioSpec
from radarvitals.rangefft import RANGE_BIN_WIDTH, range_bin_of, range_fft
from reference_camera import synthesize_detections as scalar_detections


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
    def test_shape_and_timestamps(self, cfg, frame_rate, small_scene):
        cube = simulate.synthesize_cube(small_scene, frame_rate)
        frames = round(small_scene.duration * frame_rate)
        assert cube.data.shape == (cfg.samples_per_chirp,
                                   frames * cfg.chirps_per_frame,
                                   cfg.num_virtual)
        assert cube.frame_timestamps[1] == pytest.approx((1.0 / frame_rate))

    def test_static_beat_frequency_lands_on_expected_bin(self, frame_rate):
        scene = rv.Scene(statics=(rv.PointReflector(5.0, 0.0),), duration=0.5)
        cube = simulate.synthesize_cube(scene, frame_rate)
        prof = range_fft(cube)
        peak = int(np.argmax(np.abs(prof.data[:, 0, 0])))
        assert peak == range_bin_of(5.0)

    def test_antenna_phase_ramp_matches_steering(self, cfg, frame_rate):
        angle = 25.0
        scene = rv.Scene(statics=(rv.PointReflector(3.0, angle),),
                         duration=0.5)
        cube = simulate.synthesize_cube(scene, frame_rate)
        snap = cube.data[0, 0, :]
        step = np.angle(snap[1:] * snap[:-1].conj())
        expected = (2 * np.pi * cfg.rx_spacing / cfg.wavelength
                    * np.sin(np.deg2rad(angle)))
        assert np.allclose(step, expected, atol=1e-9)

    def test_vital_target_phase_amplitude(self, cfg, frame_rate):
        """Slow-time phase swings by 4*pi*A/lambda around the breath cycle."""
        vit = rv.VitalParams(breath_freq=0.25, breath_amp=4e-3,
                             heart_freq=1.2, heart_amp=0.0)
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 0.0, 1.0, vit),),
                         duration=8.0)
        cube = simulate.synthesize_cube(scene, frame_rate)
        prof = range_fft(cube)
        rb = range_bin_of(2.0)
        idx = np.arange(len(cube.frame_timestamps)) * cfg.chirps_per_frame
        phase = np.unwrap(np.angle(prof.data[rb, idx, 0]))
        swing = phase.max() - phase.min()
        expected = 2 * 4 * np.pi * 4e-3 / cfg.wavelength
        assert swing == pytest.approx(expected, rel=0.02)

    def test_mover_sweeps_range_bins(self, cfg, frame_rate):
        mover = rv.MovingReflector(
            waypoints=((0.0, 2.0, 0.0), (2.0, 8.0, 0.0)))
        scene = rv.Scene(movers=(mover,), duration=2.0)
        cube = simulate.synthesize_cube(scene, frame_rate)
        prof = range_fft(cube)
        first = int(np.argmax(np.abs(prof.data[:, 0, 0])))
        last = int(np.argmax(np.abs(prof.data[:, -1, 0])))
        t_last = ((len(cube.frame_timestamps) - 1) * (1.0 / frame_rate)
                  + (cfg.chirps_per_frame - 1) * cfg.pri)
        assert first == range_bin_of(2.0)
        assert last == range_bin_of(float(mover.range_at(t_last)))


class TestNoiseAndLimits:
    def test_snr_sets_noise_power(self, frame_rate):
        scene = rv.Scene(duration=0.5)        # empty: pure noise
        cube = simulate.synthesize_cube(scene, frame_rate, snr_db=20.0,
                                        seed=0)
        measured = np.mean(np.abs(cube.data) ** 2)
        assert measured == pytest.approx(10 ** (-20 / 10), rel=0.05)

    def test_noiseless_without_snr(self, frame_rate):
        cube = simulate.synthesize_cube(rv.Scene(duration=0.5), frame_rate)
        assert np.all(cube.data == 0)

    def test_same_seed_same_cube(self, frame_rate, small_scene):
        a, b = (simulate.synthesize_cube(small_scene, frame_rate, snr_db=10.0,
                                         seed=42) for _ in range(2))
        assert np.array_equal(a.data, b.data)

    def test_rejects_range_beyond_beat_nyquist(self, cfg, frame_rate):
        bad = rv.Scene(statics=(rv.PointReflector(
            cfg.max_unambiguous_range + 1.0, 0.0),), duration=0.5)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate.synthesize_cube(bad, frame_rate)

    def test_rejects_mover_leaving_unambiguous_range(self, cfg, frame_rate):
        bad = rv.Scene(movers=(rv.MovingReflector(
            waypoints=((0.0, 2.0, 0.0),
                       (0.5, cfg.max_unambiguous_range + 2.0, 0.0))),),
            duration=0.5)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate.synthesize_cube(bad, frame_rate)

    def test_tx_weights_length_checked(self, frame_rate, small_scene):
        with pytest.raises(ValueError, match="num_tx"):
            simulate.synthesize_cube(small_scene, frame_rate,
                                     tx_weights=np.ones(5))


SCENARIOS = Path(__file__).parents[1] / "scenarios"


def heatmap_rows(scene, frame_rate, **kwargs):
    """The scene stage's render: the heatmap's rows at the still window's
    frames."""
    return simulate.render_profiles(
        scene, frame_rate, aoa.HEATMAP_BINS,
        slice(-fusion.still_frames(frame_rate), None), **kwargs)


def phase_rows(scene, frame_rate, center, tx=None, **kwargs):
    """The phase stage's render: the phase window around ``center`` at
    every frame."""
    bins = vitals.channel_bins(center)
    return simulate.render_profiles(scene, frame_rate, bins, slice(None),
                                    tx, **kwargs)


def test_illumination_gain_scales_scatterer(cfg, frame_rate):
    """Steering the transmit pair at the scatterer doubles its amplitude."""
    scene = rv.Scene(statics=(rv.PointReflector(3.0, 20.0),), duration=0.5)
    plain = simulate.synthesize_cube(scene, frame_rate)
    tx = tx_weights(20.0)
    boosted = simulate.synthesize_cube(scene, frame_rate, tx_weights=tx)
    ratio = np.abs(boosted.data[0, 0, 0]) / np.abs(plain.data[0, 0, 0])
    assert ratio == pytest.approx(cfg.num_tx, rel=1e-9)


def test_mover_follows_its_angle_and_amplitude(cfg, frame_rate):
    """At the first and last slow sample a mover's antenna phase step is
    2*pi*d_r/lambda*sin(theta(t)), its magnitude is amplitude_at(t), and
    transmit weights scale that magnitude by |w^H a_tx(theta(t))|."""
    mover = rv.MovingReflector(
        waypoints=((0.0, 2.0, -30.0), (1.0, 3.0, 40.0)),
        amplitude=((0.0, 0.5), (1.0, 2.0)))
    scene = rv.Scene(movers=(mover,), duration=1.0)
    tx = tx_weights(10.0)
    plain = simulate.synthesize_cube(scene, frame_rate).data
    steered = simulate.synthesize_cube(scene, frame_rate, tx_weights=tx).data
    slow_t = (simulate._frame_times(frame_rate, scene.duration)[:, None]
              + np.arange(cfg.chirps_per_frame) * cfg.pri).ravel()
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
    """What steering adds to the renderer's rows, and its bins."""

    def test_zero_without_steering(self, cfg, frame_rate, small_scene):
        """Weights on the first transmitter alone illuminate as no weights
        do (gain ``a_tx[0] = 1``): steering adds nothing, bit for bit, noise
        included."""
        first_tx = np.eye(cfg.num_tx)[0]
        plain, steered = (simulate.render_profiles(
            small_scene, frame_rate, range(3, 6), np.arange(8), tx_weights=w,
            snr_db=20.0, seed=3).data for w in (None, first_tx))
        assert steered.shape == (3, 8, cfg.num_virtual)
        assert np.abs(plain).max() > 0
        assert np.array_equal(steered, plain)

    @pytest.mark.parametrize("bins", [range(-1, 2), range(63, 66),
                                      range(0, 6, 2)])
    def test_rejects_bins_off_the_profile(self, cfg, frame_rate, small_scene,
                                          bins):
        """Bins off the 65-bin profile, or not one step apart."""
        tx = np.ones(cfg.num_tx)
        with pytest.raises(ValueError,
                           match=r"range bins must lie in \[0, 64\]"):
            simulate.render_profiles(small_scene, frame_rate, bins,
                                     np.arange(8), tx_weights=tx)


@pytest.fixture(scope="module", params=["clean", "range_overlap",
                                        "fusion_stress", "bench"])
def cube_profiles(request):
    """A bundled scenario with the range FFTs of its noiseless cubes,
    unsteered and steered at its target, at the first chirp of every
    frame, and the range bins a run of it reads.  Only those chirps are
    held: bench's cubes are 131 MB each."""
    spec = ScenarioSpec.from_json(SCENARIOS / f"{request.param}.json")
    tx = tx_weights(spec.scene.targets[0].angle_deg)
    plain, steered = (range_fft(simulate.synthesize_cube(
        spec.scene, spec.frame_rate, tx_weights=w)).data[
            :, ::rv.RadarConfig.chirps_per_frame].copy() for w in (None, tx))
    return spec, tx, plain, steered, aoa.HEATMAP_BINS


class TestRenderProfiles:
    """The range-domain renderer against ``range_fft`` of the cube, at the
    first chirp of every frame."""

    @pytest.mark.parametrize("steer, minus_plain", [(False, 0.0),
                                                    (True, 0.0),
                                                    (True, 1.0)])
    def test_matches_the_cube_fft_at_the_rendered_bins(
            self, cube_profiles, steer, minus_plain):
        """With ``minus_plain`` 1, the steered render minus the unsteered
        one: what steering adds to the cube's FFT."""
        spec, tx, plain, steered, bins = cube_profiles

        def render(weights):
            return simulate.render_profiles(spec.scene, spec.frame_rate,
                                            bins, slice(None),
                                            tx_weights=weights).data

        want = steered if steer else plain
        got = render(tx if steer else None)
        if minus_plain:
            want = want - plain
            got = got - render(None)
        want = want[bins]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_heatmap_bins_at_the_still_window(self, cfg, frame_rate,
                                              small_scene):
        """The scene stage's render: the heatmap's rows, those at or below
        the localizer's range (34 of the 65 bins here), at the still
        window's frames, the last 3 s, 60 of the 120 frames."""
        prof = heatmap_rows(small_scene, frame_rate)
        ref = range_fft(simulate.synthesize_cube(small_scene, frame_rate))
        near = int(np.count_nonzero(ref.range_axis <= aoa.MAX_RANGE_M))
        frames = len(ref.frame_timestamps)
        still = round(fusion.STATIONARY_WINDOW_S * frame_rate)
        assert (near, frames, still) == (34, 120, 60)
        want = ref.data[:near, (frames - still) * cfg.chirps_per_frame::
                        cfg.chirps_per_frame]
        assert prof.data.shape == want.shape
        assert ref.data.shape[0] == cfg.num_range_bins == 65
        assert np.array_equal(prof.range_axis, ref.range_axis[:near])
        assert np.array_equal(prof.frame_timestamps,
                              ref.frame_timestamps[frames - still:])
        assert np.abs(prof.data - want).max() <= 1e-12 * np.abs(want).max()

    def test_phase_window_at_every_frame(self, cfg, frame_rate, small_scene):
        """The phase stage's render: the five rows around bin 7 at every
        frame, held from bin 5 on, read by the phase stage as the cube's
        FFT is read."""
        win = phase_rows(small_scene, frame_rate, 7)
        ref = range_fft(simulate.synthesize_cube(small_scene, frame_rate))
        want = ref.data[5:10, ::cfg.chirps_per_frame]
        assert (win.first_bin, win.data.shape) == (5, want.shape)
        assert np.array_equal(win.range_axis, ref.range_axis[5:10])
        assert np.array_equal(win.frame_timestamps, ref.frame_timestamps)
        assert np.abs(win.data - want).max() <= 1e-12 * np.abs(want).max()
        got = vitals.extract_phase(win, 7).samples
        assert np.allclose(got, vitals.extract_phase(ref, 7).samples,
                           atol=1e-9)
        with pytest.raises(ValueError, match=r"channels \[4, 8\] lie "
                           r"outside the rendered rows \[5, 9\] of the "
                           r"65-bin range profile"):
            vitals.extract_phase(win, 6)

    def test_bin_domain_noise_is_white(self, cfg, frame_rate):
        """Every bin carries N = samples_per_chirp times the per-sample
        noise power, uncorrelated across bins and antennas."""
        snr_db, n_bins = 10.0, 6
        noise = simulate.render_profiles(
            rv.Scene(duration=8.0), frame_rate, range(n_bins), slice(None),
            snr_db=snr_db, seed=np.random.SeedSequence(3)).data
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


@pytest.fixture(scope="module")
def overlap_scene():
    """range_overlap's scene, cut to 4 s: clutter, a target and a mover;
    its last 3 s are the still window."""
    spec = ScenarioSpec.from_json(SCENARIOS / "range_overlap.json")
    return dataclasses.replace(spec.scene, duration=4.0)


NOISY_SNR_DB = 20.0


def render_noisy(frame_rate, scene, seed, bins=range(36),
                 frames=slice(None)):
    """Range rows ``bins`` of ``scene`` at ``frames``, with noise drawn from
    ``seed``, as an array."""
    return simulate.render_profiles(scene, frame_rate, bins, frames,
                                    snr_db=NOISY_SNR_DB, seed=seed).data


class TestNoiseDraw:
    """Each range row draws its noise from a stream of its own."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_is_the_serial_stream_added_to_the_signal(self, cfg, frame_rate,
                                                       overlap_scene, seed):
        """The noiseless render plus sigma times each row's stream, bit for
        bit: row r's generator is seeded by ``SeedSequence(seed,
        spawn_key=(r,))`` and draws (real, imaginary) pairs for the still
        window's frames, then for the frames before it."""
        want = simulate.render_profiles(overlap_scene, frame_rate, range(36),
                                        slice(None)).data
        n_frames = want.shape[1]
        still = round(fusion.STATIONARY_WINDOW_S * frame_rate)
        assert (n_frames, still) == (80, 60)
        sigma = (np.sqrt(0.5 * 10.0 ** (-NOISY_SNR_DB / 10.0))
                 * np.sqrt(cfg.samples_per_chirp))
        for r, row in enumerate(want):
            rng = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(r,)))
            tail = rng.standard_normal((still, cfg.num_virtual, 2))
            head = rng.standard_normal((n_frames - still, cfg.num_virtual, 2))
            z = np.concatenate((head, tail))
            row.real += sigma * z[..., 0]
            row.imag += sigma * z[..., 1]
        assert np.array_equal(render_noisy(frame_rate, overlap_scene, seed),
                              want)

    def test_row_streams_do_not_depend_on_the_order_of_calls(
            self, frame_rate, overlap_scene):
        """Rows rendered one at a time, in any order, or as a block from
        another first bin, or only at the still window's frames, equal the
        rows of one render; spawning children of the seed in between
        changes nothing."""
        noise = np.random.SeedSequence(5).spawn(2)[0]
        bins = range(12)
        together = render_noisy(frame_rate, overlap_scene, noise, bins)
        noise.spawn(3)
        for r in (11, 3, 0, 7):
            alone = render_noisy(frame_rate, overlap_scene, noise,
                                 range(r, r + 1))
            assert np.array_equal(alone[0], together[r]), r
        assert np.array_equal(
            render_noisy(frame_rate, overlap_scene, noise, range(4, 12)),
            together[4:])
        assert np.array_equal(
            render_noisy(frame_rate, overlap_scene, noise, bins,
                         slice(20, None)),
            together[:, 20:])

    def test_concurrent_callers_get_their_serial_arrays(self, frame_rate,
                                                        overlap_scene):
        """Four threads (more than this machine's cores, at a short switch
        interval) render four seeds at once, three times over."""
        seeds = (3, 4, 5, 6)
        serial = [render_noisy(frame_rate, overlap_scene, s) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                start = threading.Barrier(len(seeds))
                got = {}

                def render(seed):
                    start.wait()
                    got[seed] = render_noisy(frame_rate, overlap_scene, seed)

                threads = [threading.Thread(target=render, args=(s,))
                           for s in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for s, want in zip(seeds, serial):
                    assert np.array_equal(got[s], want), s
        finally:
            sys.setswitchinterval(interval)

    def test_noiseless_render_does_not_draw(self, frame_rate, small_scene,
                                            monkeypatch):
        def broken(*args):
            raise AssertionError("drew noise")
        monkeypatch.setattr(simulate, "_row_noise", broken)
        out = simulate.render_profiles(small_scene, frame_rate, range(4),
                                       slice(None))
        assert np.abs(out.data).max() > 0

    def test_draw_error_is_raised_as_itself(self, frame_rate, small_scene,
                                            monkeypatch):
        def broken(*args):
            raise MemoryError("no room for the noise")
        monkeypatch.setattr(simulate, "_row_noise", broken)
        with pytest.raises(MemoryError, match="no room for the noise"):
            render_noisy(frame_rate, small_scene, 0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_draws_on_its_own_worker(self, frame_rate,
                                                  small_scene):
        """A child forked after the parent rendered draws its noise itself
        and renders the parent's array."""
        want = render_noisy(frame_rate, small_scene, 5)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            got = pool.apply_async(render_noisy, (frame_rate, small_scene, 5))
            assert np.array_equal(got.get(timeout=60), want)


class TestTones:
    """Each scatterer's range tone, in closed form at the bins and frames
    read."""

    @pytest.mark.parametrize("in_bins", [8.0, 8.0 + 1e-9, 8.37, 8.5])
    def test_static_tone_matches_the_fft(self, cfg, in_bins):
        """A scalar beat range on a bin (the limit N at d = 0), a hair off
        it, and between two bins."""
        beat_r = np.array([in_bins * RANGE_BIN_WIDTH])
        bins = np.arange(cfg.samples_per_chirp // 2 + 1)
        want = np.fft.fft(simulate._fast_time(beat_r), axis=0)[bins]
        got = simulate._tones(beat_r, bins)
        assert got.shape == (bins.size, 1)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if in_bins == 8.0:
            assert got[8, 0] == cfg.samples_per_chirp

    @pytest.mark.parametrize("name", ["range_overlap", "fusion_stress"])
    def test_mover_tone_matches_the_fft(self, name):
        """A mover's beat range at every frame, at every bin."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        frame_t = simulate._frame_times(spec.frame_rate, spec.scene.duration)
        scatterers = list(simulate._scatterers(spec.scene, frame_t))
        beat_r = scatterers[-1][0]
        assert spec.scene.movers and beat_r.shape == frame_t.shape
        bins = np.arange(rv.RadarConfig.num_range_bins)
        want = np.fft.fft(simulate._fast_time(beat_r), axis=0)[bins]
        got = simulate._tones(beat_r, bins)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _record_tones(monkeypatch) -> list:
    """Record every tone computation from here on, as ``(bins, frames,
    tones)``: the bins and the frame count asked for and the result."""
    calls = []
    tones = simulate._tones

    def recorded(beat_r, bins):
        out = tones(beat_r, bins)
        calls.append((np.asarray(bins).copy(), beat_r.size, out))
        return out
    monkeypatch.setattr(simulate, "_tones", recorded)
    return calls


def _static_at(range_m, angle_deg):
    return rv.Scene(statics=(rv.PointReflector(range_m, angle_deg, 0.8),),
                    duration=1.0)


# (first, second) (scene, frame rate) pairs whose tones differ; "radar"
# changes the radar's frame rate.
TONES_RECOMPUTED = {
    "scene": lambda s, c: ((s, c), (dataclasses.replace(s, duration=3.5), c)),
    "radar": lambda s, c: ((s, c), (s, 25.0)),
    # equal under ==, different under repr
    "zero_sign": lambda s, c: ((_static_at(4.0, 0.0), c),
                               (_static_at(4.0, -0.0), c)),
    "int_for_float": lambda s, c: ((_static_at(4, 0.0), c),
                                   (_static_at(4.0, 0.0), c)),
}
# render_profiles arguments a second render of the same scene changes.
ROWS = dict(bins=range(65), frames=slice(None), snr_db=20.0, seed=1)
TONES_REUSED = {
    "seed": dict(seed=2),
    "snr_db": dict(snr_db=5.0),
    "tx_weights": dict(tx_weights=np.array([1.0, 1j])),
    "bins": dict(bins=range(3, 65)),
    "slow_idx": dict(frames=np.arange(5, 80, 4)),
}


class TestToneSlot:
    """No tones are held between renders: each render computes its
    scatterers' tones at the bins and frames it reads, and a tone or a
    sample has one value whichever render computes it."""

    @pytest.mark.parametrize("name", ["clean", "range_overlap",
                                      "fusion_stress", "bench"])
    def test_warm_renders_equal_cold_renders(self, name):
        """The noisy heatmap rows and the target's steered phase window,
        each rendered first, equal those rendered after renders of the
        scene at another seed and at other frames."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        scene, frame_rate = spec.scene, spec.frame_rate
        tgt = scene.targets[0]
        center = range_bin_of(tgt.range_m)
        tx = tx_weights(tgt.angle_deg)
        noise = np.random.SeedSequence(spec.seed)

        def heat(seed):
            return heatmap_rows(scene, frame_rate, snr_db=spec.snr_db,
                                seed=seed).data

        def window(seed):
            return phase_rows(scene, frame_rate, center, tx,
                              snr_db=spec.snr_db, seed=seed).data

        cold_window = window(noise)
        assert np.abs(cold_window).max() > 0
        cold_heat = heat(noise)
        other = np.random.SeedSequence(spec.seed + 1)
        heat(other)
        window(other)
        assert np.array_equal(window(noise), cold_window)
        assert np.array_equal(heat(noise), cold_heat)

    @pytest.mark.parametrize("block", [256, 101, 37])
    @pytest.mark.parametrize("name", ["range_overlap", "fusion_stress"])
    def test_blocked_tones_equal_one_whole_computation(self, name, block):
        """A mover's tone, and the noisy render, computed a block of frames
        at a time equal one whole computation, bit for bit; neither scene's
        frame count is a multiple of a block."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        scene, frame_rate = spec.scene, spec.frame_rate
        frame_t = simulate._frame_times(frame_rate, scene.duration)
        assert frame_t.size % block != 0
        beat_r = list(simulate._scatterers(scene, frame_t))[-1][0]
        assert scene.movers and beat_r.shape == frame_t.shape
        bins = np.arange(36)
        whole = simulate._tones(beat_r, bins)
        blocks = range(0, frame_t.size, block)
        assert np.array_equal(np.concatenate(
            [simulate._tones(beat_r[i:i + block], bins)
             for i in blocks], axis=1), whole)
        render = render_noisy(frame_rate, scene, spec.seed, range(36))
        assert np.array_equal(np.concatenate(
            [render_noisy(frame_rate, scene, spec.seed, range(36),
                          np.arange(i, min(i + block, frame_t.size)))
             for i in blocks], axis=1), render)

    @pytest.mark.parametrize("change", TONES_RECOMPUTED)
    def test_another_scene_or_radar_recomputes(self, frame_rate,
                                               overlap_scene, monkeypatch,
                                               change):
        """Each render computes its own tones, and the second render equals
        the same render made again."""
        first, second = TONES_RECOMPUTED[change](overlap_scene, frame_rate)
        calls = _record_tones(monkeypatch)
        renders = []
        for scene_radar in (first, second, second):
            del calls[:]
            renders.append(simulate.render_profiles(
                *scene_radar, range(36), slice(None)).data)
            assert calls
        assert np.array_equal(renders[1], renders[2])
        # the last two are the same scene and frame rate to ==, not to repr
        assert (first == second) == (change in ("zero_sign",
                                                "int_for_float"))

    @pytest.mark.parametrize("change", TONES_REUSED)
    def test_other_render_arguments_reuse_the_tones(self, frame_rate,
                                                    overlap_scene,
                                                    monkeypatch, change):
        """A render with other noise, weights, bins or frames computes each
        scatterer's tones at its bins and frames with the values of a
        render of every bin and frame, bit for bit."""
        calls = _record_tones(monkeypatch)
        simulate.render_profiles(overlap_scene, frame_rate, **ROWS)
        whole = [tones for *_, tones in calls]
        assert [t.shape for t in whole] == [(65, 1), (65, 1), (65, 80)]
        del calls[:]
        second = {**ROWS, **TONES_REUSED[change]}
        simulate.render_profiles(overlap_scene, frame_rate, **second)
        frames = np.arange(80)[second["frames"]]
        assert len(calls) == len(whole)
        for (bins, n_frames, tones), want in zip(calls, whole):
            want = want[bins]
            if n_frames > 1:
                assert n_frames == frames.size
                want = want[:, frames]
            assert np.array_equal(tones, want)

    def test_beat_limit_is_checked_at_the_rendered_samples_only(
            self, cfg, frame_rate):
        """A mover that leaves the unambiguous range in its last frames
        renders at the earlier frames and fails at the later ones."""
        r_max = cfg.max_unambiguous_range
        scene = rv.Scene(movers=(rv.MovingReflector(waypoints=(
            (0.0, 2.0, 0.0), (0.5, r_max - 0.5, 0.0),
            (1.0, r_max + 2.0, 0.0))),), duration=1.0)
        early, late = np.arange(10), np.arange(10, 20)   # t < 0.5, t >= 0.5
        bins = range(8)
        assert np.abs(simulate.render_profiles(
            scene, frame_rate, bins, early).data).max() > 0
        for frames in (late, slice(None)):
            with pytest.raises(ValueError, match="Nyquist"):
                simulate.render_profiles(scene, frame_rate, bins, frames)

    def test_concurrent_renders_of_two_scenes_get_their_serial_arrays(
            self, frame_rate, overlap_scene):
        """Four threads, two per scene, render at a short switch
        interval."""
        scenes = (overlap_scene,
                  dataclasses.replace(overlap_scene, duration=3.5))
        jobs = [(scenes[i % 2], 3 + i) for i in range(4)]
        serial = [render_noisy(frame_rate, s, seed) for s, seed in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                start = threading.Barrier(len(jobs))
                got = {}

                def render(i):
                    start.wait()
                    got[i] = render_noisy(frame_rate, *jobs[i])

                threads = [threading.Thread(target=render, args=(i,))
                           for i in range(len(jobs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for i, want in enumerate(serial):
                    assert np.array_equal(got[i], want), i
        finally:
            sys.setswitchinterval(interval)
@pytest.mark.parametrize("name", ["clean", "range_overlap", "fusion_stress",
                                  "bench"])
def test_a_sample_has_one_value_whichever_render_draws_it(name):
    """The heatmap's rows and the target's unsteered phase window, rendered
    with the run's noise seed, hold the same samples at the still window's
    frames, bit for bit; the steered window carries the same noise on its
    own signal, to rounding."""
    spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
    scene, frame_rate = spec.scene, spec.frame_rate
    noise, _ = np.random.SeedSequence(spec.seed).spawn(2)
    tgt = scene.targets[0]
    center = range_bin_of(tgt.range_m)
    tx = tx_weights(tgt.angle_deg)
    heat = heatmap_rows(scene, frame_rate, snr_db=spec.snr_db, seed=noise)

    def window(weights, snr_db):
        return phase_rows(scene, frame_rate, center, weights, snr_db=snr_db,
                          seed=noise).data

    plain = window(None, spec.snr_db)
    still = heat.data.shape[1]
    assert np.array_equal(plain[:, -still:], heat.data[center - 2:center + 3])
    steered_noise = window(tx, spec.snr_db) - window(tx, None)
    plain_noise = plain - window(None, None)
    assert (np.abs(steered_noise - plain_noise).max()
            <= 1e-12 * np.abs(plain).max())


class TestDetections:
    # Five standard deviations of the simulated box jitter.
    TOL_PX = 5 * simulate.JITTER_PX

    def test_center_mapping_is_linear(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 30.0),), duration=1.0)
        det = simulate.synthesize_detections(scene, 20.0, seed=0)
        expected_center = (30.0 + 60.0) / 120.0 * 1920
        assert det.xs[0, 0] + det.ws[0, 0] / 2 == pytest.approx(
            expected_center, abs=self.TOL_PX)
        assert det.ids == ["target-0"]

    def test_out_of_view_scatterers_make_no_boxes(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 30.0),),
                         movers=(rv.MovingReflector(
                             waypoints=((0.0, 3.0, 80.0),)),),
                         duration=1.0)
        det = simulate.synthesize_detections(scene, 20.0, seed=0)
        assert det.ids == ["target-0", "mover-0"]
        assert not np.isnan(det.xs[:, 0]).any()
        assert np.isnan(det.xs[:, 1]).all() and np.isnan(det.ws[:, 1]).all()

    def test_mover_box_follows_trajectory(self):
        """The box moves 96 px a frame, far beyond the jitter."""
        scene = rv.Scene(movers=(rv.MovingReflector(
            waypoints=((0.0, 3.0, -30.0), (1.0, 3.0, 30.0))),), duration=1.0)
        det = simulate.synthesize_detections(scene, 10.0, seed=0)
        xs = det.xs[:, 0]
        assert np.all(np.diff(xs) > 0)
        center = (det.times * 60.0 - 30.0 + 60.0) / 120.0 * 1920
        assert xs + det.ws[:, 0] / 2 == pytest.approx(center,
                                                      abs=self.TOL_PX)
        assert det.ids == ["mover-0"]

    def test_jitter_is_seeded(self):
        scene = rv.Scene(targets=(rv.VitalTarget(2.0, 0.0),), duration=2.0)
        a = simulate.synthesize_detections(scene, 20.0, seed=5)
        b = simulate.synthesize_detections(scene, 20.0, seed=5)
        assert np.array_equal(a.xs, b.xs)

    @pytest.mark.parametrize("fps, still", [(20.0, 60), (50.0, 150)])
    def test_still_track_holds_the_heatmaps_frames(self, small_scene, fps,
                                                  still):
        """The camera tests stillness over the frames the heatmap's rows
        are rendered at: the last 3 s, 60 frames at 20 fps and 150 at
        50 fps."""
        rows = heatmap_rows(small_scene, fps)
        kept = fusion.filter_stationary(fusion.build_tracks(
            simulate.synthesize_detections(small_scene, fps, seed=0)), fps)
        assert len(kept) == 1
        boxed = kept.times[~np.isnan(kept.xs[:, 0])]
        assert boxed.size == rows.frame_timestamps.size == still
        assert np.allclose(boxed, rows.frame_timestamps)

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
            det = simulate.synthesize_detections(scene, 20.0, seed=i)
            for t, x, w in zip(det.times, det.xs[:, 0], det.ws[:, 0]):
                lo, hi = fusion.pixel_to_angle_window(x, w)
                assert lo <= true_bin <= hi, (angle, t, lo, hi)
                checked += 1
        assert checked == angles.size * 40 == 9640

    @staticmethod
    def assert_same_record(got, want):
        """Equal times, ids and boxes, NaN where out of view."""
        assert got.ids == want.ids
        for name in ("times", "xs", "ws"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype == np.float64
            assert np.array_equal(g, w, equal_nan=True), name

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["clean", "range_overlap",
                                      "fusion_stress", "bench"])
    def test_bundled_scenes_match_the_scalar_loop(self, name, seed):
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        args = (spec.scene, spec.frame_rate)
        self.assert_same_record(simulate.synthesize_detections(*args, seed),
                                scalar_detections(*args, seed))

    def test_mover_leaving_the_view_keeps_the_draw_order(self):
        """A mover that crosses +MAX_ANGLE_DEG mid-run drops out of later
        frames, so the draws of the frames after it shift: frame-major
        order is what keeps every box equal to the scalar loop's."""
        scene = rv.Scene(
            targets=(rv.VitalTarget(2.0, -20.0),),
            movers=(rv.MovingReflector(waypoints=(
                (0.0, 3.0, aoa.MAX_ANGLE_DEG - 10.0),
                (2.0, 3.0, aoa.MAX_ANGLE_DEG + 10.0))),),
            duration=2.0)
        got = simulate.synthesize_detections(scene, 20.0, seed=11)
        counts = np.count_nonzero(~np.isnan(got.xs), axis=1)
        assert counts[0] == 2 and counts[-1] == 1
        assert np.all(np.diff(counts) <= 0)
        self.assert_same_record(got, scalar_detections(scene, 20.0, seed=11))

    def test_draws_an_x_and_a_y_per_box(self):
        """The y column is drawn and dropped: the generator ends where two
        normals per box leave it, so the stream stays the scalar loop's."""
        spec = ScenarioSpec.from_json(SCENARIOS / "range_overlap.json")
        rng = np.random.default_rng(7)
        det = simulate.synthesize_detections(spec.scene,
                                             spec.frame_rate, seed=rng)
        boxes = np.count_nonzero(~np.isnan(det.xs))
        assert boxes > 0
        want = np.random.default_rng(7)
        want.standard_normal(2 * boxes)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_no_person_makes_no_draw(self):
        scene = rv.Scene(statics=(rv.PointReflector(3.0, 0.0),),
                         duration=1.0)
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        got = simulate.synthesize_detections(scene, 20.0, seed=rng)
        assert rng.bit_generator.state == state
        assert got.ids == [] and got.xs.shape == got.ws.shape == (20, 0)
        assert got.times.shape == (20,)
        self.assert_same_record(got, scalar_detections(scene, 20.0, seed=2))
