import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import simulate
from radarvitals.rangefft import (range_bin_of, range_bin_width, range_fft)


def test_frozen_bin_formula():
    """4 GHz sweep, 50 us chirp, 100 ns sampling, 512-point FFT, 2 m."""
    cfg = rv.RadarConfig(bandwidth=4e9, chirp_duration=50e-6,
                         adc_interval=0.1e-6, samples_per_chirp=500,
                         pri=60e-6)
    assert range_bin_of(2.0, cfg, 512) == 55


def test_bin_width_matches_axis(cfg, small_profiles):
    w = range_bin_width(cfg, small_profiles.n_fft)
    assert np.allclose(np.diff(small_profiles.range_axis), w)
    assert small_profiles.range_axis[0] == 0.0


def test_half_spectrum_length(cfg, small_profiles):
    assert small_profiles.data.shape[0] == small_profiles.n_fft // 2 + 1
    assert small_profiles.num_bins == small_profiles.data.shape[0]


def test_zero_padding_refines_axis(cfg, small_scene):
    cube = simulate.synthesize_cube(small_scene, cfg)
    fine = range_fft(cube, n_fft=512)
    coarse = range_fft(cube)
    assert fine.range_axis[1] == pytest.approx(coarse.range_axis[1] / 4)
    # the same physical target peaks at four times the bin index
    pc = int(np.argmax(np.abs(coarse.data[:, 0, 0])))
    pf = int(np.argmax(np.abs(fine.data[:, 0, 0])))
    assert abs(pf - 4 * pc) <= 2


def test_rejects_truncating_fft(cfg, small_scene):
    cube = simulate.synthesize_cube(small_scene, cfg)
    with pytest.raises(ValueError, match="n_fft"):
        range_fft(cube, n_fft=cfg.samples_per_chirp // 2)


def test_range_bin_of_rejects_out_of_range(cfg):
    with pytest.raises(ValueError):
        range_bin_of(-1.0, cfg, 128)
    with pytest.raises(ValueError):
        range_bin_of(cfg.max_unambiguous_range, cfg, 128)


def test_range_bin_of_accepts_zero(cfg):
    assert range_bin_of(0.0, cfg, 128) == 0


@given(st.floats(0.1, 18.0), st.sampled_from([128, 256, 512]))
def test_bin_round_trips_within_half_width(r, n_fft):
    cfg = rv.RadarConfig()
    b = range_bin_of(r, cfg, n_fft)
    assert 0 <= b <= n_fft // 2
    assert abs(b * range_bin_width(cfg, n_fft) - r) <= \
        0.5 * range_bin_width(cfg, n_fft) * (1 + 1e-9)
