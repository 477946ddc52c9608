"""Micro-benchmarks of the hot kernels on the bundled ``clean`` scenario.

Run from the repository root (not part of the Tier-1 tests, which collect
``tests/`` only)::

    PYTHONPATH=src python -m pytest benches --benchmark-only

Each kernel is timed alone on inputs built once per module, as a run
builds them: the clean scene's noisy range profiles at the rows the
pipeline renders (``range_profiles`` at ``pipeline._profile_rows``), and
the unsteered phase channels of its localized target.  The decomposition
is timed at two sizes: the clean chain's 100 kept bins and the bench
scenario's full 1001-bin spectrum.
``synthesize_cube`` and ``range_fft`` are timed as the reference path the
renderer is tested against; the pipeline never calls them.  Timings of
the BLAS-backed calls (``select_mode_count``) depend on whether the BLAS
worker threads are awake, so they move with what ran just before them.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from radarvitals import aoa, pipeline, rangefft, simulate, vitals
from radarvitals.pipeline import ScenarioSpec

SCENARIOS = Path(__file__).parents[1] / "scenarios"


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec.from_json(SCENARIOS / "clean.json")


def _render(spec):
    return simulate.synthesize_cube(spec.scene, spec.radar,
                                    snr_db=spec.snr_db, seed=spec.seed)


def _profiles(spec):
    n_fft = rangefft.check_n_fft(spec.radar, spec.n_fft)
    return simulate.range_profiles(spec.scene, spec.radar,
                                   pipeline._profile_rows(spec, n_fft), n_fft,
                                   snr_db=spec.snr_db, seed=spec.seed)


@pytest.fixture(scope="module")
def profiles(spec):
    return _profiles(spec)


@pytest.fixture(scope="module")
def chain_inputs(spec, profiles):
    """(phase channels, channel weights, mode count, kept spectra) of the
    clean scene's target, read off the unsteered profiles."""
    res = pipeline.run_scenario(spec, beamforming=False)
    _, _, loc = res.locations[0]
    phase = vitals.extract_phase(profiles, loc.range_bin,
                                 num_channels=spec.num_phase_channels)
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
    out = benchmark(rangefft.range_fft, cube, n_fft=spec.n_fft)
    assert out.num_bins == out.n_fft // 2 + 1


def test_render_profiles(benchmark, spec, profiles):
    """The pipeline's render: the bins it reads, at every slow sample."""
    out = benchmark(_profiles, spec)
    assert out.data.shape == profiles.data.shape


@pytest.mark.parametrize("near", [False, True], ids=["all_bins", "near"])
def test_range_angle_heatmap(benchmark, spec, profiles, near):
    kwargs = {"max_range": spec.max_range_m} if near else {}
    hm = benchmark(aoa.range_angle_heatmap, profiles,
                   angles_deg=aoa.default_angle_grid(spec.num_angle_bins),
                   loading=spec.mvdr_loading, **kwargs)
    assert np.all(np.isfinite(hm.power))


def test_select_mode_count(benchmark, chain_inputs):
    phase, weights, k, _ = chain_inputs
    assert benchmark(vitals.select_mode_count, weights @ phase.samples) == k


def test_multichannel_vmd(benchmark, spec, chain_inputs):
    """The clean chain at the scenario's ``n_keep`` (100 bins)."""
    _, weights, k, spectra = chain_inputs
    modes = benchmark(pipeline._decompose(spec, spectra, weights, k))
    assert modes.converged


def test_multichannel_vmd_full_spectrum(benchmark):
    """The bench scenario's chain on its full spectrum (5 channels x 1001
    bins, k = 4), as the full row of ``bench_acceleration`` decomposes it."""
    spec = ScenarioSpec.from_json(SCENARIOS / "bench.json")
    res = pipeline.run_scenario(spec, n_keep=None)
    chain = res.chains[res.locations[0][0]]
    assert chain.spectra.spectra.shape == (5, 1001) and chain.k == 4
    modes = benchmark(pipeline._decompose(spec, chain.spectra,
                                          chain.weights.weights, chain.k))
    assert modes.converged
