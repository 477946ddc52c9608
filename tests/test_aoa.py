import dataclasses
from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import aoa, simulate
from radarvitals.pipeline import ScenarioSpec
from radarvitals.rangefft import range_bin_of, range_fft
from reference_aoa import spatial_covariance, spatial_fft_spectrum

LAM = rv.RadarConfig().wavelength
SCENARIOS = Path(__file__).parents[1] / "scenarios"


def _source_snapshots(angles, powers, num_el, snr_db, n_snap, seed):
    rng = np.random.default_rng(seed)
    a = aoa.steering_matrix(angles, num_el, LAM / 2, LAM)
    sig = (np.sqrt(np.asarray(powers) / 2)[:, None]
           * (rng.standard_normal((len(angles), n_snap))
              + 1j * rng.standard_normal((len(angles), n_snap))))
    noise_amp = np.sqrt(10 ** (-snr_db / 10) / 2)
    noise = noise_amp * (rng.standard_normal((num_el, n_snap))
                         + 1j * rng.standard_normal((num_el, n_snap)))
    return a @ sig + noise


def _peaks(power):
    return [i for i in range(1, len(power) - 1)
            if power[i] >= power[i - 1] and power[i] > power[i + 1]]


def resolved(angles, power, a1, a2, dip_db=3.0, slack=4.0):
    """Two peaks near a1/a2 with a valley at least dip_db below the lower."""
    sel = (angles >= min(a1, a2) - slack) & (angles <= max(a1, a2) + slack)
    a, q = np.asarray(angles)[sel], np.asarray(power)[sel]
    peaks = sorted(_peaks(q), key=lambda i: -q[i])[:2]
    if len(peaks) < 2:
        return False
    i1, i2 = sorted(peaks)
    if i2 - i1 < 2:
        return False
    valley = q[i1 + 1:i2].min()
    return 10 * np.log10(min(q[i1], q[i2]) / valley) >= dip_db


class TestCovariance:
    def test_hermitian_and_loaded(self):
        x = _source_snapshots([10.0], [1.0], 8, 20.0, 64, 0)
        cov = spatial_covariance(x)
        assert np.allclose(cov, cov.conj().T)
        evals = np.linalg.eigvalsh(cov)
        assert evals.min() > 0

    def test_rank_one_still_invertible(self):
        a = aoa.steering_matrix([5.0], 8, LAM / 2, LAM)
        cov = spatial_covariance(a)     # single snapshot, no noise
        spec = aoa.mvdr_spectrum(cov, LAM / 2, LAM)
        assert np.all(np.isfinite(spec))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            spatial_covariance(np.ones(8))


class TestMvdr:
    def test_peak_at_single_source(self):
        x = _source_snapshots([20.0], [1.0], 8, 20.0, 128, 1)
        spec = aoa.mvdr_spectrum(spatial_covariance(x), LAM / 2, LAM)
        grid = aoa.default_angle_grid()
        assert grid[int(np.argmax(spec))] == pytest.approx(20.0, abs=1.0)

    def test_resolves_close_pair_where_fft_cannot(self):
        x = _source_snapshots([-7.5, 7.5], [1.0, 1.0], 8, 20.0, 256, 5)
        grid = aoa.default_angle_grid()
        mv = aoa.mvdr_spectrum(spatial_covariance(x), LAM / 2, LAM)
        fft = spatial_fft_spectrum(x, LAM / 2, LAM, size=512)
        assert resolved(grid, mv, -7.5, 7.5)
        assert not resolved(fft.angles_deg, fft.power, -7.5, 7.5)

    def test_wide_pair_resolved_by_both(self):
        """At +/-15 deg the 8-element aperture separates the pair even with
        a plain zero-padded FFT; the MVDR advantage shows up only below the
        Rayleigh limit (see test above)."""
        x = _source_snapshots([-15.0, 15.0], [1.0, 1.0], 8, 20.0, 256, 5)
        grid = aoa.default_angle_grid()
        mv = aoa.mvdr_spectrum(spatial_covariance(x), LAM / 2, LAM)
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
        rb = range_bin_of(tgt.range_m, cfg)
        ab = int(np.argmin(np.abs(hm.angle_axis - tgt.angle_deg)))
        sub = hm.power[:int(np.searchsorted(hm.range_axis, 10.0))]
        peak = np.unravel_index(np.argmax(sub), sub.shape)
        assert peak == (rb, ab)

    def test_matches_per_bin_covariance(self, small_profiles):
        hm = aoa.range_angle_heatmap(small_profiles)
        rb = 7
        snaps = small_profiles.data[rb].T
        spec = aoa.mvdr_spectrum(spatial_covariance(snaps),
                                 small_profiles.config.rx_spacing,
                                 small_profiles.config.wavelength)
        assert np.allclose(hm.power[rb], spec, rtol=1e-10)

    def test_snapshot_slicing(self, small_profiles):
        """The heatmap of profiles cut to a few chirps averages over exactly
        those snapshots (criterion 9 builds per-frame heatmaps this way)."""
        part = dataclasses.replace(small_profiles,
                                   data=small_profiles.data[:, 4:8])
        hm = aoa.range_angle_heatmap(part)
        rb = 7
        spec = aoa.mvdr_spectrum(spatial_covariance(part.data[rb].T),
                                 part.config.rx_spacing, part.config.wavelength)
        assert hm.power.shape == (34, 121)
        assert np.allclose(hm.power[rb], spec, rtol=1e-10)

    @pytest.mark.parametrize("name", ["clean", "range_overlap",
                                      "fusion_stress", "bench"])
    def test_equals_the_batched_covariances_bit_for_bit(self, name):
        """The row-at-a-time covariances give the heatmap of the batched
        ``x^T x* / S`` exactly, on each bundled scenario's render: its
        near rows, batches of 1, 2, 4 and 8 rows, and strided snapshots."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        profiles = simulate.range_profiles(spec.scene, spec.radar,
                                           snr_db=spec.snr_db, seed=spec.seed)
        cfg = profiles.config
        near = int(np.count_nonzero(profiles.range_axis <= aoa.MAX_RANGE_M))
        cases = [(rows, slice(None)) for rows in (1, 2, 4, 8, near)]
        cases.append((near, slice(None, None, cfg.chirps_per_frame)))
        for rows, snapshots in cases:
            x = profiles.data[:rows, snapshots]
            batched = aoa._loaded(x.transpose(0, 2, 1) @ x.conj()
                                  / x.shape[1])
            expected = aoa.mvdr_spectrum(batched, cfg.rx_spacing,
                                         cfg.wavelength)
            part = dataclasses.replace(
                profiles, data=x, range_axis=profiles.range_axis[:rows])
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
    a = aoa.steering_matrix([17.0, -40.0], 8, LAM / 2, LAM)
    assert np.allclose(a[0], 1.0)
    assert np.allclose(np.abs(a), 1.0)
