"""Micro-benchmarks of the hot kernels, mostly on the bundled ``clean``
scenario.

Run from the repository root (not part of the Tier-1 tests, which collect
``tests/`` only)::

    PYTHONPATH=src python -m pytest benches --benchmark-only

Each kernel is timed alone on inputs built once per module, as a run
builds them: the clean scene's noisy heatmap rows at the still window's
frames (``range_profiles``), and the unsteered phase channels of its
localized target.  The pipeline's two on-demand renders, noise included,
are timed on ``clean`` and on ``range_overlap``, the scene with a mover:
the heatmap's rows at the still window's frames (``range_profiles``) and
the target's phase window at every frame, steered (``window_profiles``).
The decomposition is timed at two sizes: the clean chain's 100 kept bins
and the bench scenario's full 1001-bin spectrum.
``synthesize_cube`` and ``range_fft`` are timed as the reference path the
renderer is tested against; the pipeline never calls them.  Timings of
the BLAS-backed calls (``select_mode_count``) depend on whether the BLAS
worker threads are awake, so they move with what ran just before them.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from radarvitals import aoa, beamform, pipeline, rangefft, simulate, vitals
from radarvitals.pipeline import ScenarioSpec

SCENARIOS = Path(__file__).parents[1] / "scenarios"


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec.from_json(SCENARIOS / "clean.json")


def _render(spec):
    return simulate.synthesize_cube(spec.scene, spec.radar,
                                    snr_db=spec.snr_db, seed=spec.seed)


def _profiles(spec):
    return simulate.range_profiles(spec.scene, spec.radar,
                                   snr_db=spec.snr_db, seed=spec.seed)


@pytest.fixture(scope="module")
def profiles(spec):
    return _profiles(spec)


@pytest.fixture(scope="module")
def chain_inputs(spec):
    """(phase channels, channel weights, mode count, kept spectra) of the
    clean scene's target, read off its unsteered phase window."""
    res = pipeline.run_scenario(spec, beamforming=False)
    _, _, loc = res.locations[0]
    window = simulate.window_profiles(spec.scene, spec.radar, loc.range_bin,
                                      snr_db=spec.snr_db, seed=spec.seed)
    phase = vitals.extract_phase(window, loc.range_bin)
    cw = vitals.adaptive_weights(phase.samples)
    k = vitals.select_mode_count(cw.weights @ phase.samples)
    spectra = vitals.truncate_spectrum(
        vitals.analytic_spectrum(phase.samples, phase.sample_rate),
        spec.n_keep)
    return phase, cw.weights, k, spectra


def test_synthesize_cube(benchmark, spec):
    cube = benchmark(_render, spec)
    assert cube.data.shape[0] == spec.radar.samples_per_chirp


def test_range_fft(benchmark, spec):
    cube = _render(spec)
    out = benchmark(rangefft.range_fft, cube)
    assert out.data.shape[0] == out.num_bins


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
    tx = beamform.tx_weights(tgt.angle_deg, cfg.wavelength,
                             num_elements=cfg.num_tx, spacing=cfg.tx_spacing)
    center = rangefft.range_bin_of(tgt.range_m, cfg)
    out = benchmark(simulate.window_profiles, scenario.scene, cfg, center,
                    tx, snr_db=scenario.snr_db, seed=scenario.seed)
    assert out.data.shape == (vitals.PHASE_CHANNELS, 600, cfg.num_virtual)


def test_range_angle_heatmap(benchmark, profiles):
    """The rows at or below ``aoa.MAX_RANGE_M``, every row rendered, each
    covariance over the still window's 60 snapshots."""
    hm = benchmark(aoa.range_angle_heatmap, profiles)
    assert hm.power.shape[0] == profiles.data.shape[0] == 34
    assert np.all(np.isfinite(hm.power))


def test_select_mode_count(benchmark, chain_inputs):
    phase, weights, k, _ = chain_inputs
    assert benchmark(vitals.select_mode_count, weights @ phase.samples) == k


def test_multichannel_vmd(benchmark, chain_inputs):
    """The clean chain at the scenario's ``n_keep`` (100 bins)."""
    _, weights, k, spectra = chain_inputs
    modes = benchmark(pipeline._decompose(spectra, weights, k))
    assert modes.converged


def test_multichannel_vmd_full_spectrum(benchmark):
    """The bench scenario's chain on its full spectrum (5 channels x 1001
    bins, k = 4), as the full row of ``bench_acceleration`` decomposes it."""
    spec = ScenarioSpec.from_json(SCENARIOS / "bench.json")
    res = pipeline.run_scenario(spec, n_keep=None)
    chain = res.chains[res.locations[0][0]]
    assert chain.spectra.spectra.shape == (5, 1001) and chain.k == 4
    modes = benchmark(pipeline._decompose(chain.spectra,
                                          chain.weights.weights, chain.k))
    assert modes.converged
