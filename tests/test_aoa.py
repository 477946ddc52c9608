import dataclasses
from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import aoa, fusion, simulate
from radarvitals.pipeline import ScenarioSpec
from radarvitals.rangefft import range_bin_of, range_fft
from reference_aoa import resolved, spatial_covariance, spatial_fft_spectrum

LAM = rv.RadarConfig().wavelength
SCENARIOS = Path(__file__).parents[1] / "scenarios"


def _source_snapshots(angles, powers, num_el, snr_db, n_snap, seed):
    rng = np.random.default_rng(seed)
    a = aoa.steering_matrix(angles, num_el, LAM / 2)
    sig = (np.sqrt(np.asarray(powers) / 2)[:, None]
           * (rng.standard_normal((len(angles), n_snap))
              + 1j * rng.standard_normal((len(angles), n_snap))))
    noise_amp = np.sqrt(10 ** (-snr_db / 10) / 2)
    noise = noise_amp * (rng.standard_normal((num_el, n_snap))
                         + 1j * rng.standard_normal((num_el, n_snap)))
    return a @ sig + noise


class TestCovariance:
    def test_hermitian_and_loaded(self):
        x = _source_snapshots([10.0], [1.0], 8, 20.0, 64, 0)
        cov = spatial_covariance(x)
        assert np.allclose(cov, cov.conj().T)
        evals = np.linalg.eigvalsh(cov)
        assert evals.min() > 0

    def test_rank_one_still_invertible(self):
        a = aoa.steering_matrix([5.0], 8, LAM / 2)
        cov = spatial_covariance(a)     # single snapshot, no noise
        spec = aoa.mvdr_spectrum(cov)
        assert np.all(np.isfinite(spec))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            spatial_covariance(np.ones(8))


class TestMvdr:
    def test_peak_at_single_source(self):
        x = _source_snapshots([20.0], [1.0], 8, 20.0, 128, 1)
        spec = aoa.mvdr_spectrum(spatial_covariance(x))
        grid = aoa.default_angle_grid()
        assert grid[int(np.argmax(spec))] == pytest.approx(20.0, abs=1.0)

    def test_resolves_close_pair_where_fft_cannot(self):
        x = _source_snapshots([-7.5, 7.5], [1.0, 1.0], 8, 20.0, 256, 5)
        grid = aoa.default_angle_grid()
        mv = aoa.mvdr_spectrum(spatial_covariance(x))
        fft = spatial_fft_spectrum(x, LAM / 2, LAM, size=512)
        assert resolved(grid, mv, -7.5, 7.5)
        assert not resolved(fft.angles_deg, fft.power, -7.5, 7.5)

    def test_wide_pair_resolved_by_both(self):
        """At +/-15 deg the 8-element aperture separates the pair even with
        a plain zero-padded FFT; the MVDR advantage shows up only below the
        Rayleigh limit (see test above)."""
        x = _source_snapshots([-15.0, 15.0], [1.0, 1.0], 8, 20.0, 256, 5)
        grid = aoa.default_angle_grid()
        mv = aoa.mvdr_spectrum(spatial_covariance(x))
        fft = spatial_fft_spectrum(x, LAM / 2, LAM, size=512)
        assert resolved(grid, mv, -15.0, 15.0)
        assert resolved(fft.angles_deg, fft.power, -15.0, 15.0)

    def test_grid_defaults(self):
        grid = aoa.default_angle_grid()
        assert grid.size == 121
        assert grid[0] == -60.0 and grid[-1] == 60.0
        assert np.allclose(np.diff(grid), 1.0)


class TestHeatmap:
    def test_peak_matches_scene(self, cfg, small_profiles, small_scene):
        hm = aoa.range_angle_heatmap(small_profiles)
        tgt = small_scene.targets[0]
        rb = range_bin_of(tgt.range_m)
        ab = int(np.argmin(np.abs(hm.angle_axis - tgt.angle_deg)))
        sub = hm.power[:int(np.searchsorted(hm.range_axis, 10.0))]
        peak = np.unravel_index(np.argmax(sub), sub.shape)
        assert peak == (rb, ab)

    def test_matches_per_bin_covariance(self, small_profiles):
        hm = aoa.range_angle_heatmap(small_profiles)
        rb = 7
        snaps = small_profiles.data[rb].T
        spec = aoa.mvdr_spectrum(spatial_covariance(snaps))
        assert np.allclose(hm.power[rb], spec, rtol=1e-10)

    def test_snapshot_slicing(self, small_profiles):
        """The heatmap of profiles cut to a few chirps averages over exactly
        those snapshots (criterion 9 builds per-frame heatmaps this way)."""
        part = dataclasses.replace(small_profiles,
                                   data=small_profiles.data[:, 4:8])
        hm = aoa.range_angle_heatmap(part)
        rb = 7
        spec = aoa.mvdr_spectrum(spatial_covariance(part.data[rb].T))
        assert hm.power.shape == (34, 121)
        assert np.allclose(hm.power[rb], spec, rtol=1e-10)

    @pytest.mark.parametrize("name", ["clean", "range_overlap",
                                      "fusion_stress", "bench"])
    def test_equals_the_batched_covariances_bit_for_bit(self, name):
        """The heatmap is that of the batched covariances ``x^T x* / S``
        exactly, on each bundled scenario's render: its near rows, batches
        of 1, 2, 4 and 8 rows, and strided snapshots."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        profiles = simulate.render_profiles(
            spec.scene, spec.frame_rate, aoa.HEATMAP_BINS,
            slice(-fusion.still_frames(spec.frame_rate), None),
            snr_db=spec.snr_db, seed=spec.seed)
        near = int(np.count_nonzero(profiles.range_axis <= aoa.MAX_RANGE_M))
        cases = [(rows, slice(None)) for rows in (1, 2, 4, 8, near)]
        cases.append((near, slice(None, None,
                                  rv.RadarConfig.chirps_per_frame)))
        for rows, snapshots in cases:
            x = profiles.data[:rows, snapshots]
            batched = aoa._loaded(x.transpose(0, 2, 1) @ x.conj()
                                  / x.shape[1])
            expected = aoa.mvdr_spectrum(batched)
            part = dataclasses.replace(profiles, data=x)
            got = aoa.range_angle_heatmap(part).power
            assert np.array_equal(got, expected), (name, rows, snapshots)

    def test_max_range_keeps_the_near_rows(self, small_profiles):
        """The 65-bin profile keeps its 34 rows at or below 10 m."""
        hm = aoa.range_angle_heatmap(small_profiles)
        n = int(np.count_nonzero(small_profiles.range_axis
                                 <= aoa.MAX_RANGE_M))
        assert (n, small_profiles.data.shape[0]) == (34, 65)
        assert hm.power.shape == (n, aoa.DEFAULT_NUM_ANGLE_BINS)
        assert np.array_equal(hm.range_axis, small_profiles.range_axis[:n])

    def test_heatmap_bins_are_the_rows_it_keeps(self, small_profiles):
        """``HEATMAP_BINS`` names the rows the heatmap keeps from a whole
        65-row ``range_fft`` profile: bins 0 to 33."""
        rows = aoa.HEATMAP_BINS
        hm = aoa.range_angle_heatmap(small_profiles)
        assert small_profiles.data.shape[0] == 65
        assert rows == range(hm.power.shape[0]) == range(34)
        assert np.array_equal(hm.range_axis, small_profiles.range_axis[
            rows.start:rows.stop])


class TestSpatialFft:
    def test_peak_near_source(self):
        x = _source_snapshots([30.0], [1.0], 8, 20.0, 128, 2)
        spec = spatial_fft_spectrum(x, LAM / 2, LAM, size=512)
        peak = spec.angles_deg[int(np.argmax(spec.power))]
        assert peak == pytest.approx(30.0, abs=2.0)

    def test_rejects_short_fft(self):
        with pytest.raises(ValueError):
            spatial_fft_spectrum(np.ones((8, 4)), LAM / 2, LAM, size=4)

    def test_angles_are_sorted_and_visible(self):
        spec = spatial_fft_spectrum(np.ones((8, 1)), LAM / 2, LAM)
        assert np.all(np.diff(spec.angles_deg) > 0)
        assert spec.angles_deg[0] >= -90 and spec.angles_deg[-1] <= 90


def test_steering_matrix_first_element_is_reference():
    a = aoa.steering_matrix([17.0, -40.0], 8, LAM / 2)
    assert np.allclose(a[0], 1.0)
    assert np.allclose(np.abs(a), 1.0)
