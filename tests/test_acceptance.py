"""Acceptance gate: ten numbered end-to-end checks.

Each criterion is one test, so ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per criterion:

 1. clean-scene rate accuracy (|RR err| <= 0.5 rpm, |HR err| <= 6 bpm,
    >= 18/20 seeded runs, < 30 s wall)
 2. beamforming recovers accuracy under range overlap; disabling it is
    measurably worse
 3. transmit grating lobe reproduced; receive combining suppresses it
 4. MVDR separates an angle pair near the aperture's resolution limit
    where the spatial FFT cannot
 5. decomposition recovers known two-tone mixtures and agrees with an
    independently coded single-channel reference
 6. adaptive channel weights: unit sum and variance optimality
 7. mode-count selection matches an explicit-SVD oracle
 8. spectral truncation preserves entropy and accelerates the
    decomposition without hurting the rates
 9. camera-window localization beats the unconstrained heatmap argmax
10. reports are byte-identical for identical seeds

All checks are seeded and deterministic.  Scenario inputs live in
``scenarios/``.
"""
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hankel

import radarvitals as rv
from radarvitals import aoa, beamform, fusion, simulate, vitals
from radarvitals.pipeline import (ScenarioSpec, bench_acceleration,
                                  run_scenario, write_run_outputs)
from radarvitals.rangefft import range_bin_of, range_fft

from reference_aoa import resolved, spatial_covariance, spatial_fft_spectrum
from reference_spectra import crop_mirrored, mirror_extend, spectral_entropy
from reference_vmd import plain_vmd

SCENARIOS = Path(__file__).parents[1] / "scenarios"


def _target_entry(report, track_id="target-0"):
    for entry in report["targets"]:
        if entry["track_id"] == track_id:
            return entry
    raise AssertionError(f"{track_id} missing from report")


def _abs_err(entry, key):
    value = entry.get(key)
    return np.inf if value is None else abs(value)


def test_criterion_01_clean_scene_rate_accuracy():
    spec = ScenarioSpec.from_json(SCENARIOS / "clean.json")
    target = spec.scene.targets[0]
    assert (target.range_m, target.angle_deg) == (2.0, 30.0)
    assert target.vitals.breath_freq * 60 == 15.0       # rpm
    assert target.vitals.heart_freq * 60 == 72.0        # bpm

    t0 = time.perf_counter()
    passes = 0
    for i in range(20):
        res = run_scenario(spec, seed=spec.seed + i)
        assert not res.failed, res.report.get("error")
        entry = _target_entry(res.report)
        passes += (_abs_err(entry, "rr_error_rpm") <= 0.5
                   and _abs_err(entry, "hr_error_bpm") <= 6.0)
    wall = time.perf_counter() - t0
    assert passes >= 18, f"only {passes}/20 runs within rate bounds"
    assert wall < 30.0, f"20 runs took {wall:.1f} s"


def test_criterion_02_beamforming_beats_no_beamforming_under_range_overlap():
    spec = ScenarioSpec.from_json(SCENARIOS / "range_overlap.json")
    assert spec.scene.movers, "scenario must contain a crossing reflector"

    bf_rr, nobf_rr = [], []
    passes = 0
    for i in range(20):
        res = run_scenario(spec, seed=spec.seed + i)
        assert not res.failed, res.report.get("error")
        entry = _target_entry(res.report)
        rr = _abs_err(entry, "rr_error_rpm")
        passes += rr <= 0.5 and _abs_err(entry, "hr_error_bpm") <= 6.0
        bf_rr.append(rr)

        res = run_scenario(spec, seed=spec.seed + i, beamforming=False)
        nobf_rr.append(np.inf if res.failed
                       else _abs_err(_target_entry(res.report),
                                     "rr_error_rpm"))
    assert passes >= 18, f"only {passes}/20 beamformed runs within bounds"
    assert np.median(nobf_rr) > np.median(bf_rr), (
        f"median RR error without steering ({np.median(nobf_rr):.3f} rpm) "
        f"should exceed the steered one ({np.median(bf_rr):.3f} rpm)")


def test_criterion_03_tx_grating_lobe_present_and_rx_suppressed():
    tx = beamform.tx_weights(30.0)   # 2 elements, spacing = lam
    pat = beamform.beam_pattern(tx)
    main_db = pat.gain_db[pat.angles_deg == 30.0][0]
    near = (pat.angles_deg >= -35.0) & (pat.angles_deg <= -25.0)
    lobe_idx = np.argmax(pat.gain_db[near])
    lobe_deg = pat.angles_deg[near][lobe_idx]
    lobe_db = pat.gain_db[near][lobe_idx]
    assert abs(lobe_deg - (-30.0)) <= 0.5, f"lobe at {lobe_deg} deg"
    assert abs(lobe_db - main_db) <= 0.5, (
        f"lobe {lobe_db:.2f} dB vs main {main_db:.2f} dB")

    rx = beamform.rx_weights(30.0)   # 8 elements, spacing = lam/2
    rx_pat = beamform.beam_pattern(rx)
    rx_main = rx_pat.gain_db[rx_pat.angles_deg == 30.0][0]
    rx_near = ((rx_pat.angles_deg >= -32.0) & (rx_pat.angles_deg <= -28.0))
    suppression = rx_main - rx_pat.gain_db[rx_near].max()
    assert suppression >= 10.0, f"only {suppression:.1f} dB below main"


def test_criterion_04_mvdr_resolves_pair_that_spatial_fft_cannot():
    """An 8-element half-wavelength array has a ~14 deg FFT beamwidth at
    broadside, so a pair 15 deg apart (+/-7.5) sits right at the limit:
    the zero-padded spatial FFT merges it while MVDR shows two peaks with
    a >= 3 dB valley.  (A pair 30 deg apart is resolved by both methods —
    covered in the unit tests — so the contrast is only visible here.)"""
    lam = rv.RadarConfig().wavelength
    rng = np.random.default_rng(5)
    angles = np.array([-7.5, 7.5])
    a = aoa.steering_matrix(angles, 8, lam / 2)
    sig = np.sqrt(0.5) * (rng.standard_normal((2, 256))
                          + 1j * rng.standard_normal((2, 256)))
    noise_amp = np.sqrt(10 ** (-20.0 / 10) / 2)
    noise = noise_amp * (rng.standard_normal((8, 256))
                         + 1j * rng.standard_normal((8, 256)))
    snapshots = a @ sig + noise

    grid = aoa.default_angle_grid()
    mv = aoa.mvdr_spectrum(spatial_covariance(snapshots))
    fft = spatial_fft_spectrum(snapshots, lam / 2, lam, size=512)
    assert resolved(grid, mv, -7.5, 7.5), "MVDR failed to separate the pair"
    assert not resolved(fft.angles_deg, fft.power, -7.5, 7.5), (
        "spatial FFT unexpectedly separated the pair")


def test_criterion_05_decomposition_matches_truth_and_reference():
    fs, n = 20.0, 600
    t = np.arange(n) / fs
    rng = np.random.default_rng(42)
    freq_errs, recon_errs, ref_gaps = [], [], []
    for _ in range(50):
        while True:
            f = np.sort(rng.uniform(0.15, 3.0, 2))
            if f[1] - f[0] >= 0.3:
                break
        amps = rng.uniform(0.5, 2.0, 2)
        phases = rng.uniform(0.0, 2 * np.pi, 2)
        s = (amps[:, None] * np.sin(2 * np.pi * f[:, None] * t
                                    + phases[:, None])).sum(axis=0)

        ext = mirror_extend(s)
        spec = vitals.analytic_spectrum(ext, fs)
        modes = vitals.multichannel_vmd(spec, 2, eta=1.0, tol=1e-7,
                                        max_iter=1000)
        got = np.sort(modes.center_freqs_hz)
        freq_errs.append(np.abs(got - f).max())
        recon = crop_mirrored(modes.modes.sum(axis=0), n)
        recon_errs.append(np.linalg.norm(recon - s) / np.linalg.norm(s))

        _, ref_f = plain_vmd(s, 2, fs, tau=1.0, max_iter=1000, init_hz=f)
        ref_gaps.append(np.abs(np.sort(ref_f) - got).max())

    assert max(freq_errs) < 0.02, f"worst center-freq error {max(freq_errs)}"
    assert max(recon_errs) < 0.05, f"worst recon error {max(recon_errs)}"
    assert max(ref_gaps) < 0.01, (
        f"worst disagreement with reference {max(ref_gaps)} Hz")


def test_criterion_06_adaptive_weights_sum_and_optimality():
    rng = np.random.default_rng(123)
    for _ in range(50):
        num_ch = int(rng.integers(2, 8))
        n = int(rng.integers(32, 257))
        s = rng.standard_normal((num_ch, n)) * rng.uniform(0.2, 5.0,
                                                           (num_ch, 1))
        s -= s.mean(axis=1, keepdims=True)
        w = vitals.adaptive_weights(s).weights
        assert abs(w.sum() - 1.0) <= 1e-12

        achieved = np.var(w @ s)
        uniform = np.var(np.full(num_ch, 1.0 / num_ch) @ s)
        assert achieved <= uniform * (1 + 1e-9) + 1e-12
        for _ in range(100):
            alt = rng.dirichlet(np.ones(num_ch))
            assert achieved <= np.var(alt @ s) * (1 + 1e-9) + 1e-12


def _svd_mode_count(signal, power_fraction=0.70, tie_ratio=0.8):
    """Independent oracle: explicit Hankel + SVD, same selection rule."""
    x = np.asarray(signal, dtype=float)
    m = x.size // 3
    traj = hankel(x[:m], x[m - 1:])
    svals = np.linalg.svd(traj, compute_uv=False)
    ev = svals ** 2
    cum = np.cumsum(ev) / ev.sum()
    k = int(np.searchsorted(cum, power_fraction)) + 1
    while (k < ev.size and ev[k] > 1e-10 * ev[0]
           and ev[k] >= tie_ratio * ev[k - 1]):
        k += 1
    return min(max(k, 2), 8)


def test_criterion_07_mode_count_matches_svd_oracle():
    t = np.arange(400) / 20.0
    single = np.sin(2 * np.pi * 1.3 * t)
    double = np.sin(2 * np.pi * 0.9 * t) + np.sin(2 * np.pi * 2.1 * t)

    assert vitals.select_mode_count(single) == 2
    assert vitals.select_mode_count(double) == 4
    assert _svd_mode_count(single) == 2
    assert _svd_mode_count(double) == 4


def test_criterion_08_entropy_preserved_and_decomposition_accelerated():
    fs, n = 20.0, 1000
    t = np.arange(n) / fs
    lam = rv.RadarConfig().wavelength
    rng = np.random.default_rng(8)
    phase = 4 * np.pi / lam * simulate.chest_displacement(t, rv.VitalParams())
    phase = phase + 0.01 * phase.std() * rng.standard_normal(n)

    full = vitals.analytic_spectrum(phase, fs)
    kept = vitals.truncate_spectrum(full, 100)
    ratio = (spectral_entropy(kept.spectra[0])
             / spectral_entropy(full.spectra[0]))
    assert ratio >= 0.95, f"entropy ratio {ratio:.3f}"

    spec = ScenarioSpec.from_json(SCENARIOS / "bench.json")
    rows = bench_acceleration(spec, n_keep_values=[100], repeats=5)
    row = {r["n_keep"]: r for r in rows}[100]
    assert row["speedup_vs_full"] >= 2.0, (
        f"speedup only {row['speedup_vs_full']:.2f}x")
    assert abs(row["rr_delta_rpm"]) <= 0.2
    assert abs(row["hr_delta_bpm"]) <= 1.0


def test_criterion_09_windowed_localization_beats_global_argmax():
    spec = ScenarioSpec.from_json(SCENARIOS / "fusion_stress.json")
    cfg, frame_rate, scene = rv.RadarConfig, spec.frame_rate, spec.scene
    target = scene.targets[0]
    noise_ss, det_ss = np.random.SeedSequence(spec.seed).spawn(2)

    cube = simulate.synthesize_cube(scene, frame_rate, snr_db=spec.snr_db,
                                    seed=noise_ss)
    profiles = range_fft(cube)
    frames = simulate.synthesize_detections(scene, frame_rate,
                                            seed=det_ss)
    tracks = fusion.build_tracks(frames)
    stationary = fusion.filter_stationary(tracks, frame_rate)
    assert stationary.ids == ["target-0"]

    tail = (stationary.times
            >= stationary.times[-1] - fusion.STATIONARY_WINDOW_S)
    window = fusion.pixel_to_angle_window(
        float(np.nanmean(stationary.xs[tail, 0])),
        float(np.nanmean(stationary.ws[tail, 0])))

    grid = aoa.default_angle_grid()
    true_rbin = range_bin_of(target.range_m)
    true_abin = int(np.argmin(np.abs(grid - target.angle_deg)))
    max_row = np.searchsorted(profiles.range_axis, aoa.MAX_RANGE_M,
                              side="right")

    num_frames = cube.data.shape[1] // cfg.chirps_per_frame
    windowed_hits = 0
    global_hits = 0
    for f in range(num_frames):
        cols = slice(f * cfg.chirps_per_frame,
                     (f + 1) * cfg.chirps_per_frame)
        hm = aoa.range_angle_heatmap(
            dataclasses.replace(profiles, data=profiles.data[:, cols]))
        loc = fusion.localize(hm, window)
        windowed_hits += (abs(loc.range_bin - true_rbin) <= 1
                          and abs(loc.angle_bin - true_abin) <= 1)
        r, a = np.unravel_index(np.argmax(hm.power[:max_row]),
                                hm.power[:max_row].shape)
        global_hits += (abs(r - true_rbin) <= 1 and abs(a - true_abin) <= 1)

    assert windowed_hits / num_frames >= 0.95, (
        f"windowed hit rate {windowed_hits}/{num_frames}")
    assert global_hits / num_frames < 0.5, (
        f"unconstrained argmax unexpectedly found the target in "
        f"{global_hits}/{num_frames} frames")


def test_criterion_10_reports_byte_identical_for_same_seed(tmp_path):
    spec = ScenarioSpec.from_json(SCENARIOS / "fusion_stress.json")
    blobs = []
    for name in ("first", "second"):
        path = write_run_outputs(run_scenario(spec), tmp_path / name)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])  # sanity: non-empty valid JSON
