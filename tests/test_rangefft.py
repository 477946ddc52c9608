import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import simulate
from radarvitals.rangefft import RANGE_BIN_WIDTH, range_bin_of, range_fft


def test_frozen_bin_formula(cfg):
    """The fixed front end, 0.5 GHz swept in 50 us and 128 samples (the FFT
    length) 50 us / 128 apart, at 2 m:
    2 * 0.5e9 / (c * 50e-6) * 2 * 128 * 50e-6 / 128 = 6.671."""
    assert range_bin_of(2.0) == 7


def test_bin_width_matches_axis(small_profiles):
    assert RANGE_BIN_WIDTH == pytest.approx(0.2998, abs=1e-4)
    assert np.allclose(np.diff(small_profiles.range_axis), RANGE_BIN_WIDTH)
    assert small_profiles.range_axis[0] == 0.0


def test_half_spectrum_length(cfg, small_profiles):
    assert small_profiles.data.shape[0] == cfg.samples_per_chirp // 2 + 1
    assert cfg.num_range_bins == small_profiles.data.shape[0]


def test_range_fft_owns_the_kept_half(cfg, frame_rate, small_scene):
    """The profiles are a copy of the kept half, not a view that keeps the
    whole transform alive; the values are the transform's."""
    cube = simulate.synthesize_cube(small_scene, frame_rate)
    prof = range_fft(cube)
    assert prof.data.base is None
    assert np.array_equal(prof.data,
                          np.fft.fft(cube.data, axis=0)[: cfg.num_range_bins])


def test_range_bin_of_rejects_out_of_range(cfg):
    with pytest.raises(ValueError):
        range_bin_of(-1.0)
    with pytest.raises(ValueError):
        range_bin_of(cfg.max_unambiguous_range)


def test_range_bin_of_accepts_zero():
    assert range_bin_of(0.0) == 0


@given(st.floats(0.1, 18.0))
def test_bin_round_trips_within_half_width(r):
    b = range_bin_of(r)
    assert 0 <= b <= rv.RadarConfig.samples_per_chirp // 2
    assert abs(b * RANGE_BIN_WIDTH - r) <= 0.5 * RANGE_BIN_WIDTH * (1 + 1e-9)
