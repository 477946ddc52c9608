"""Micro-benchmarks of the hot kernels, mostly on the bundled ``clean``
scenario.

Run from the repository root (not part of the Tier-1 tests, which collect
``tests/`` only)::

    PYTHONPATH=src python -m pytest benches --benchmark-only

Each kernel is timed alone on inputs built once per module, as a run
builds them: the clean scene's noisy heatmap rows at the still window's
frames, and the unsteered phase channels of its localized target.  The
pipeline's two on-demand renders (``render_profiles``), noise included,
are timed on ``clean`` and on ``range_overlap``, the scene with a mover:
the heatmap's rows (``aoa.HEATMAP_BINS``) at the still window's frames,
and the target's phase window (``vitals.channel_bins``) at every frame,
steered.
The decomposition (``multichannel_vmd`` alone, the chain's ``decompose``
stage) is timed at two sizes: the clean chain's 100 kept bins and the
bench scenario's full 1001-bin spectrum.
The camera's boxes of ``clean`` and ``range_overlap`` are timed from the
scene to the tracks, the ``Detections`` record's columns in view at the
last frame (``build_tracks(synthesize_detections(...))``).
``synthesize_cube`` and ``range_fft`` are timed as the reference path the
renderer is tested against; the pipeline never calls them.
``select_mode_count`` is timed on the clean chain's 600-sample signal and
on the bench scenario's 2000-sample one, where the whole-spectrum solve it
no longer makes is O(L^3) in the 666-sample trajectory window.  It runs
every BLAS call on one OpenBLAS thread, so no BLAS worker is woken or
waited on.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from radarvitals import (aoa, beamform, fusion, pipeline, rangefft,
                         simulate, vitals)
from radarvitals.pipeline import ScenarioSpec

SCENARIOS = Path(__file__).parents[1] / "scenarios"


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec.from_json(SCENARIOS / "clean.json")


def _render(spec):
    return simulate.synthesize_cube(spec.scene, spec.radar,
                                    snr_db=spec.snr_db, seed=spec.seed)


def _profiles(spec):
    cfg = spec.radar
    return simulate.render_profiles(
        spec.scene, cfg, aoa.HEATMAP_BINS,
        slice(-fusion.still_frames(cfg.frame_rate), None),
        snr_db=spec.snr_db, seed=spec.seed)


def _window(spec, center, tx=None):
    cfg = spec.radar
    bins = vitals.channel_bins(center)
    return simulate.render_profiles(spec.scene, cfg, bins, slice(None), tx,
                                    snr_db=spec.snr_db, seed=spec.seed)


@pytest.fixture(scope="module")
def profiles(spec):
    return _profiles(spec)


@pytest.fixture(scope="module")
def chain_inputs(spec):
    """The vitals chain (``pipeline.vitals_chain``) of the clean scene's
    target, read off its unsteered phase window."""
    res = pipeline.run_scenario(spec, beamforming=False)
    _, _, loc = res.locations[0]
    phase = vitals.extract_phase(_window(spec, loc.range_bin), loc.range_bin)
    return pipeline.vitals_chain(phase, spec.num_modes, spec.n_keep, {})


def _time_vmd(benchmark, chain):
    """Time the chain's ``decompose`` stage, ``multichannel_vmd`` alone,
    on the chain's spectra, weights, mode count and band-seeded init."""
    weights = chain.weights.weights
    init = vitals.band_seeded_init(chain.spectra, weights, chain.k)
    return benchmark(vitals.multichannel_vmd, chain.spectra, chain.k,
                     weights=weights, init=init)


def test_synthesize_cube(benchmark, spec):
    cube = benchmark(_render, spec)
    assert cube.data.shape[0] == spec.radar.samples_per_chirp


def test_range_fft(benchmark, spec):
    cube = _render(spec)
    out = benchmark(rangefft.range_fft, cube)
    assert out.data.shape[0] == spec.radar.num_range_bins


@pytest.mark.parametrize("name", ["clean", "range_overlap"])
def test_render_heatmap_rows(benchmark, name):
    """The heatmap's rows at the still window's frames, noise included."""
    scenario = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
    out = benchmark(_profiles, scenario)
    assert out.data.shape == (34, 60, scenario.radar.num_virtual)


@pytest.mark.parametrize("name", ["clean", "range_overlap"])
def test_render_phase_window(benchmark, name):
    """The target's phase window at every frame, steered, noise
    included."""
    scenario = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
    cfg, tgt = scenario.radar, scenario.scene.targets[0]
    tx = beamform.tx_weights(tgt.angle_deg)
    center = rangefft.range_bin_of(tgt.range_m)
    out = benchmark(_window, scenario, center, tx)
    assert out.data.shape == (vitals.PHASE_CHANNELS, 600, cfg.num_virtual)


@pytest.mark.parametrize("name", ["clean", "range_overlap"])
def test_camera_tracks(benchmark, name):
    """The camera's boxes of every frame, cut to the record's columns in
    view at the last frame."""
    scenario = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
    tracks = benchmark(lambda: fusion.build_tracks(
        simulate.synthesize_detections(scenario.scene,
                                       scenario.radar.frame_rate,
                                       seed=scenario.seed)))
    assert len(tracks)
    assert (np.count_nonzero(~np.isnan(tracks.xs), axis=0) == 600).all()


def test_range_angle_heatmap(benchmark, profiles):
    """The rows at or below ``aoa.MAX_RANGE_M``, every row rendered, each
    covariance over the still window's 60 snapshots."""
    hm = benchmark(aoa.range_angle_heatmap, profiles)
    assert hm.power.shape[0] == profiles.data.shape[0] == 34
    assert np.all(np.isfinite(hm.power))


def test_select_mode_count(benchmark, chain_inputs):
    combined = chain_inputs.weights.weights @ chain_inputs.phase.samples
    assert benchmark(vitals.select_mode_count, combined) == chain_inputs.k


def test_multichannel_vmd(benchmark, chain_inputs):
    """The clean chain at the scenario's ``n_keep`` (100 bins)."""
    assert chain_inputs.spectra.n_bins == 100
    assert _time_vmd(benchmark, chain_inputs).converged


@pytest.fixture(scope="module")
def bench_chain():
    """The bench scenario's vitals chain on its full spectrum (2000
    samples, 5 channels x 1001 bins, k = 4 fixed by the scenario)."""
    spec = ScenarioSpec.from_json(SCENARIOS / "bench.json")
    res = pipeline.run_scenario(dataclasses.replace(spec, n_keep=None))
    return res.chains[res.locations[0][0]]


def test_select_mode_count_long_window(benchmark, bench_chain):
    """The bench scenario's 2000-sample combined phase, a 666 x 666 Gram
    matrix; 2 is the count its whole spectrum gives."""
    combined = bench_chain.weights.weights @ bench_chain.phase.samples
    assert combined.size == 2000
    assert benchmark(vitals.select_mode_count, combined) == 2


def test_multichannel_vmd_full_spectrum(benchmark, bench_chain):
    """The bench scenario's chain on its full spectrum, as the full row of
    ``bench_acceleration`` decomposes it."""
    assert bench_chain.spectra.spectra.shape == (5, 1001)
    assert bench_chain.k == 4
    assert _time_vmd(benchmark, bench_chain).converged
