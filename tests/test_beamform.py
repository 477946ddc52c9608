import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import beamform
from radarvitals.aoa import steering_matrix

LAM = rv.RadarConfig().wavelength


class TestWeights:
    def test_tx_frozen_values(self):
        """The two transmit elements, one wavelength apart, steered to 30
        deg: a phase step of 2*pi*sin(30) = pi gives alternating signs."""
        bw = beamform.tx_weights(30.0)
        assert np.allclose(bw.weights, [1.0, -1.0], atol=1e-12)
        assert bw.spacing == rv.RadarConfig.tx_spacing == pytest.approx(LAM)

    def test_rx_frozen_values(self):
        """The eight virtual elements, half a wavelength apart, steered to
        30 deg: quarter-turn steps."""
        bw = beamform.rx_weights(30.0)
        assert np.allclose(bw.weights, [1.0, 1j, -1.0, -1j] * 2, atol=1e-12)
        assert bw.spacing == rv.RadarConfig.rx_spacing == pytest.approx(
            LAM / 2)

    def test_phase_only(self):
        for steer in (-50.0, 0.0, 12.3):
            w = beamform.rx_weights(steer).weights
            assert np.allclose(np.abs(w), 1.0)
            assert w[0] == pytest.approx(1.0)

    def test_rejects_bad_geometry(self):
        """A steer angle outside [-90, 90] deg, or not a number, is
        refused."""
        for weights in (beamform.tx_weights, beamform.rx_weights):
            for steer in (95.0, -90.5, np.nan):
                with pytest.raises(ValueError, match="steer angle"):
                    weights(steer)


class TestCombine:
    def test_matched_gain_is_element_count(self):
        bw = beamform.rx_weights(30.0)
        x = steering_matrix([30.0], 8, LAM / 2)[:, 0]
        assert abs(beamform.combine(x, bw)) == pytest.approx(8.0)

    def test_mismatched_frozen_value(self):
        """8-element half-wavelength array steered to 30 deg combining a
        20-deg plane wave."""
        bw = beamform.rx_weights(30.0)
        x = steering_matrix([20.0], 8, LAM / 2)[:, 0]
        assert abs(beamform.combine(x, bw)) == pytest.approx(
            3.7267380232747174, abs=1e-12)

    def test_batched_combine(self):
        bw = beamform.rx_weights(0.0)
        x = np.ones((5, 8))
        assert beamform.combine(x, bw).shape == (5,)

    def test_length_mismatch(self):
        bw = beamform.rx_weights(0.0)
        with pytest.raises(ValueError):
            beamform.combine(np.ones(4), bw)


class TestPattern:
    def test_normalized_peak_at_steer(self):
        bw = beamform.rx_weights(30.0)
        pat = beamform.beam_pattern(bw)
        assert pat.gain_db.max() == pytest.approx(0.0, abs=1e-12)
        peak_angle = pat.angles_deg[int(np.argmax(pat.gain_db))]
        assert peak_angle == pytest.approx(30.0, abs=0.25)

    def test_broadside_null_of_uniform_eight(self):
        """All-ones 8-element half-wavelength array: first null where
        sin(theta) = 1/4, i.e. 14.4775 deg."""
        bw = beamform.rx_weights(0.0)
        null = np.rad2deg(np.arcsin(0.25))
        pat = beamform.beam_pattern(bw, angles_deg=np.array([null]))
        assert pat.gain_db[0] < -100

    def test_grating_lobe_with_wavelength_spacing(self):
        """d = lambda steered to +30 deg aliases at sin(theta) = sin(30) - 1,
        an exact copy of the main lobe at -30 deg."""
        bw = beamform.tx_weights(30.0)
        pat = beamform.beam_pattern(bw)
        i = int(np.argmin(np.abs(pat.angles_deg + 30.0)))
        assert pat.gain_db[i] == pytest.approx(0.0, abs=1e-9)

    def test_grid_step(self):
        bw = beamform.rx_weights(0.0)
        pat = beamform.beam_pattern(bw, step_deg=0.25)
        assert np.allclose(np.diff(pat.angles_deg), 0.25)
        assert pat.angles_deg[0] == -90.0 and pat.angles_deg[-1] == 90.0

    def test_csv_export(self, tmp_path):
        bw = beamform.rx_weights(10.0)
        pat = beamform.beam_pattern(bw)
        path = tmp_path / "pattern.csv"
        beamform.write_pattern_csv(pat, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle_deg,gain_db"
        assert len(lines) == 1 + pat.angles_deg.size


@given(st.floats(-60, 60))
def test_pattern_bounded_and_peaks_at_steer(steer):
    bw = beamform.rx_weights(steer)
    pat = beamform.beam_pattern(bw)
    assert np.all(pat.gain_db <= 1e-9)
    peak = pat.angles_deg[int(np.argmax(pat.gain_db))]
    # half-wavelength spacing has no grating lobes inside visible space,
    # so the global peak must sit on the steering angle
    assert abs(peak - steer) <= 0.25 + 1e-9

