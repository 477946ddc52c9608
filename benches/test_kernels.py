"""Micro-benchmarks of the hot kernels, mostly on the bundled ``clean``
scenario.

Run from the repository root (not part of the Tier-1 tests, which collect
``tests/`` only)::

    PYTHONPATH=src python -m pytest benches --benchmark-only

Each kernel is timed alone on inputs built once per module, as a run
builds them: the clean scene's noisy range profiles at the rows the
pipeline renders (``range_profiles``), and the unsteered phase channels
of its localized target.  The noiseless
render (the signal model without the noise draws) is also timed on
``range_overlap``, the only scene with a mover, twice: warm, with the
scene's range-domain tones held as every render after a scene's first
reads them (``simulate._tones``), and cold, with the tone slot emptied
before each round, as the first render of a scene computes them.  The
noisy render is timed warm from its second round on.  The decomposition
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
    return simulate.range_profiles(spec.scene, spec.radar,
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
    phase = vitals.extract_phase(profiles, loc.range_bin)
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


def test_render_profiles(benchmark, spec, profiles):
    """The pipeline's render: the bins it reads, at every slow sample."""
    out = benchmark(_profiles, spec)
    assert out.data.shape == profiles.data.shape


def _empty_tone_slot():
    simulate._TONES = None


@pytest.mark.parametrize("tones", ["warm", "cold"])
@pytest.mark.parametrize("name", ["clean", "range_overlap"])
def test_render_profiles_noiseless(benchmark, name, tones):
    """The pipeline's rows at every slow sample, without noise, with the
    scene's tones held (warm) or computed first (cold)."""
    scenario = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
    cfg = scenario.radar
    args = (scenario.scene, cfg)
    if tones == "warm":
        simulate.range_profiles(*args)
        out = benchmark(simulate.range_profiles, *args)
    else:
        out = benchmark.pedantic(simulate.range_profiles, args=args,
                                 setup=_empty_tone_slot, rounds=20)
    assert out.data.shape[2] == cfg.num_virtual


def test_range_angle_heatmap(benchmark, profiles):
    """The rows at or below ``aoa.MAX_RANGE_M``: 34 of the 36 rendered."""
    hm = benchmark(aoa.range_angle_heatmap, profiles)
    assert hm.power.shape[0] == 34 and profiles.data.shape[0] == 36
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
