import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import vitals
from radarvitals.rangefft import RangeProfiles
from reference_spectra import crop_mirrored, mirror_extend, spectral_entropy
from test_acceptance import _svd_mode_count


def _profiles_with_phase(phase, cfg=None, num_bins=9):
    """Synthetic range profiles whose center-bin phase follows ``phase``."""
    cfg = cfg or rv.RadarConfig()
    frames = phase.size
    m = frames * cfg.chirps_per_frame
    data = np.full((num_bins, m, cfg.num_virtual), 0.1, dtype=complex)
    idx = np.arange(frames) * cfg.chirps_per_frame
    for b in range(num_bins):
        data[b, idx, :] = np.exp(1j * phase)[:, None]
    return RangeProfiles(
        data=data, range_axis=np.arange(num_bins) * 0.3, config=cfg,
        frame_timestamps=np.arange(frames) / cfg.frame_rate)


class TestExtractPhase:
    def test_unwraps_beyond_pi(self):
        ramp = np.linspace(0, 6 * np.pi, 80)      # wraps three times
        prof = _profiles_with_phase(ramp)
        pm = vitals.extract_phase(prof, center_bin=4)
        expected = ramp - ramp.mean()
        assert np.allclose(pm.samples[2], expected, atol=1e-9)
        assert pm.sample_rate == prof.config.frame_rate
        assert pm.range_bins == (2, 3, 4, 5, 6)

    def test_mean_removed_per_channel(self):
        prof = _profiles_with_phase(np.random.default_rng(0).uniform(
            -0.5, 0.5, 64))
        pm = vitals.extract_phase(prof, center_bin=4)
        assert np.allclose(pm.samples.mean(axis=1), 0.0, atol=1e-12)

    def test_rejects_channels_outside_profile(self):
        prof = _profiles_with_phase(np.zeros(32), num_bins=5)
        with pytest.raises(ValueError):
            vitals.extract_phase(prof, center_bin=1)

    def test_rejects_channels_past_the_rendered_rows(self):
        """A window inside the 65-bin profile but past the 9 rows held
        raises; it never reads a short slice."""
        prof = _profiles_with_phase(np.zeros(32))
        assert prof.num_bins == 65 and prof.data.shape[0] == 9
        with pytest.raises(ValueError, match=r"channels \[5, 9\] lie "
                           r"outside the rendered rows \[0, 8\] of the "
                           r"65-bin range profile"):
            vitals.extract_phase(prof, center_bin=7)
        assert vitals.extract_phase(prof, center_bin=6).range_bins == (
            4, 5, 6, 7, 8)


class TestAdaptiveWeights:
    def test_frozen_diagonal_case(self):
        s = np.array([[1.0, 1.0, -1.0, -1.0],
                      [0.5, -0.5, 0.5, -0.5]])
        w = vitals.adaptive_weights(s).weights
        assert np.allclose(w, [0.2, 0.8], atol=1e-6)

    def test_sum_is_one(self):
        rng = np.random.default_rng(1)
        w = vitals.adaptive_weights(rng.standard_normal((5, 200))).weights
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            vitals.adaptive_weights(np.zeros((3, 50)))

    def test_downweights_noisy_channel(self):
        rng = np.random.default_rng(2)
        clean = np.sin(2 * np.pi * 0.25 * np.arange(200) / 20)
        noisy = clean + 5.0 * rng.standard_normal(200)
        w = vitals.adaptive_weights(np.stack([clean, noisy])).weights
        assert w[0] > w[1]

    @given(st.integers(0, 10 ** 6), st.integers(2, 6))
    def test_fuzzed_sum_and_optimality(self, seed, n_ch):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n_ch, 64))
        w = vitals.adaptive_weights(s).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        var_w = np.sum((w @ s) ** 2)
        uniform = np.full(n_ch, 1.0 / n_ch)
        assert var_w <= np.sum((uniform @ s) ** 2) * (1 + 1e-9)


class TestModeCount:
    def test_single_sinusoid_gives_two(self):
        t = np.arange(600) / 20.0
        assert vitals.select_mode_count(np.sin(2 * np.pi * 0.25 * t)) == 2

    def test_two_equal_sinusoids_give_four(self):
        t = np.arange(600) / 20.0
        x = np.sin(2 * np.pi * 0.25 * t) + np.sin(2 * np.pi * 1.2 * t)
        assert vitals.select_mode_count(x) == 4

    def test_clamped_to_max(self):
        t = np.arange(600) / 20.0
        x = sum(np.sin(2 * np.pi * f * t)
                for f in (0.3, 0.9, 1.5, 2.1, 2.7, 3.3, 3.9, 4.5, 5.1))
        assert vitals.select_mode_count(x) == vitals.MAX_MODES == 8

    def test_clamped_to_min(self):
        assert vitals.select_mode_count(np.ones(300)) == 2

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            vitals.select_mode_count(np.zeros(300))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            vitals.select_mode_count(np.ones(4))

    @pytest.mark.parametrize("n", [200, 600, 2000])
    def test_matches_the_svd_oracle(self, n):
        t = np.arange(n) / 20.0
        x = (np.sin(2 * np.pi * 0.25 * t) + 0.3 * np.sin(2 * np.pi * 1.2 * t)
             + 0.05 * np.random.default_rng(n).standard_normal(n))
        assert vitals.select_mode_count(x) == _svd_mode_count(x)


class TestModeCountBlasThreads:
    """select_mode_count runs on one OpenBLAS thread and restores the
    count after."""

    SIGNAL = np.sin(2 * np.pi * 0.25 * np.arange(600) / 20.0)

    @pytest.fixture
    def blas_threads(self):
        api = vitals._openblas_threads()
        if api is None:
            pytest.skip("numpy's OpenBLAS exposes no thread-count setter")
        get, set_ = api
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_one_thread_inside_and_restored_after(self, blas_threads,
                                                  monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            seen.append(blas_threads())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert vitals.select_mode_count(self.SIGNAL) == 2
        assert seen == [1]
        assert blas_threads() == 2

    def test_restored_after_an_exception(self, blas_threads, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(np.linalg.LinAlgError):
            vitals.select_mode_count(self.SIGNAL)
        assert blas_threads() == 2


class TestSpectra:
    @pytest.mark.parametrize("n", [64, 65])
    def test_analytic_round_trip(self, n):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((2, n))
        spec = vitals.analytic_spectrum(s, 10.0)
        padded = np.zeros((2, n), dtype=complex)
        padded[:, :spec.n_bins] = spec.spectra
        assert np.allclose(np.fft.ifft(padded, axis=1).real, s, atol=1e-12)

    def test_interior_bins_doubled(self):
        n = 64
        t = np.arange(n)
        s = np.cos(2 * np.pi * 4 * t / n)
        spec = vitals.analytic_spectrum(s, 1.0)
        assert spec.spectra[0, 4] == pytest.approx(n)       # 2 * N/2
        assert spec.n_bins == n // 2 + 1
        assert spec.bin_hz == pytest.approx(1.0 / n)

    def test_accepts_single_channel(self):
        spec = vitals.analytic_spectrum(np.ones(32), 5.0)
        assert spec.spectra.shape == (1, 17)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            vitals.analytic_spectrum(np.ones(8), 1.0)

    def test_truncation_bounds(self):
        spec = vitals.analytic_spectrum(np.random.default_rng(0)
                                        .standard_normal(128), 10.0)
        kept = vitals.truncate_spectrum(spec, 20)
        assert kept.n_bins == 20
        assert kept.n_samples == 128
        same = vitals.truncate_spectrum(spec, spec.n_bins)
        assert np.array_equal(same.spectra, spec.spectra)
        with pytest.raises(ValueError):
            vitals.truncate_spectrum(spec, 3)
        with pytest.raises(ValueError):
            vitals.truncate_spectrum(spec, spec.n_bins + 1)


class TestSpectralEntropy:
    def test_flat_spectrum_maxes_out(self):
        assert spectral_entropy(np.ones(50)) == pytest.approx(
            np.log(50))

    def test_single_line_is_zero(self):
        x = np.zeros(50)
        x[7] = 3.0
        assert spectral_entropy(x) == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert spectral_entropy(x) == pytest.approx(
            spectral_entropy(100.0 * x))

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            spectral_entropy(np.array([]))
        with pytest.raises(ValueError):
            spectral_entropy(np.zeros(10))


class TestMirror:
    @pytest.mark.parametrize("n", [64, 65])
    def test_round_trip(self, n):
        x = np.random.default_rng(5).standard_normal(n)
        m = mirror_extend(x)
        assert m.size == 2 * n
        assert np.array_equal(crop_mirrored(m, n), x)

    def test_edges_are_reflections(self):
        x = np.arange(6.0)
        m = mirror_extend(x)
        assert np.array_equal(m[:3], [2.0, 1.0, 0.0])
        assert np.array_equal(m[-3:], [5.0, 4.0, 3.0])

    def test_two_dimensional(self):
        x = np.arange(12.0).reshape(2, 6)
        m = mirror_extend(x)
        assert m.shape == (2, 12)
        assert np.array_equal(crop_mirrored(m, 6), x)


class TestDecomposition:
    def test_recovers_exact_line(self):
        fs, n = 10.0, 400
        t = np.arange(n) / fs
        s = np.sin(2 * np.pi * 1.0 * t)          # integer number of cycles
        spec = vitals.analytic_spectrum(s, fs)
        ms = vitals.multichannel_vmd(spec, 1)
        assert ms.center_freqs_hz[0] == pytest.approx(1.0, abs=1e-3)
        assert np.allclose(ms.modes.sum(axis=0), s, atol=1e-2)
        assert ms.converged

    def test_modes_ordered_by_frequency(self):
        fs, n = 10.0, 500
        t = np.arange(n) / fs
        s = np.sin(2 * np.pi * 0.5 * t) + np.sin(2 * np.pi * 2.0 * t)
        ms = vitals.multichannel_vmd(vitals.analytic_spectrum(s, fs), 2)
        assert ms.center_freqs_hz[0] < ms.center_freqs_hz[1]
        assert ms.center_freqs_hz[0] == pytest.approx(0.5, abs=0.05)
        assert ms.center_freqs_hz[1] == pytest.approx(2.0, abs=0.05)

    def test_zero_input_converges_immediately(self):
        spec = vitals.analytic_spectrum(np.zeros(64), 10.0)
        ms = vitals.multichannel_vmd(spec, 2)
        assert ms.converged and ms.iterations == 1
        assert np.all(ms.modes == 0)

    def test_explicit_init_is_respected(self):
        fs, n = 10.0, 400
        t = np.arange(n) / fs
        s = np.sin(2 * np.pi * 0.8 * t) + 0.05 * np.sin(2 * np.pi * 3.0 * t)
        spec = vitals.analytic_spectrum(s, fs)
        ms = vitals.multichannel_vmd(spec, 2, init=[0.8, 3.0])
        assert ms.center_freqs_hz[1] == pytest.approx(3.0, abs=0.05)

    def test_weighted_channels_fuse(self):
        fs, n = 10.0, 400
        t = np.arange(n) / fs
        clean = np.sin(2 * np.pi * 1.0 * t)
        rng = np.random.default_rng(6)
        noisy = clean + 2.0 * rng.standard_normal(n)
        spec = vitals.analytic_spectrum(np.stack([clean, noisy]), fs)
        ms = vitals.multichannel_vmd(spec, 1, weights=[0.95, 0.05])
        assert ms.center_freqs_hz[0] == pytest.approx(1.0, abs=0.02)

    def test_dual_ascent_tightens_reconstruction(self):
        fs, n = 20.0, 600
        t = np.arange(n) / fs
        s = (1.3 * np.sin(2 * np.pi * 0.4 * t + 0.3)
             + 0.8 * np.sin(2 * np.pi * 1.7 * t + 1.1))
        sm = mirror_extend(s)
        spec = vitals.analytic_spectrum(sm, fs)
        loose = vitals.multichannel_vmd(spec, 2, eta=0.0)
        tight = vitals.multichannel_vmd(spec, 2, eta=1.0, max_iter=1000)
        err = lambda ms: np.linalg.norm(
            crop_mirrored(ms.modes.sum(axis=0), n) - s)
        assert err(tight) < err(loose)

    def test_divergence_raises(self):
        spec = vitals.analytic_spectrum(np.ones(64), 10.0)
        with pytest.raises(FloatingPointError):
            with np.errstate(all="ignore"):
                vitals.multichannel_vmd(spec, 2, weights=[1e200])

    def test_validates_weights_and_sizes(self):
        spec = vitals.analytic_spectrum(np.ones(64), 10.0)
        with pytest.raises(ValueError):
            vitals.multichannel_vmd(spec, 2, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            vitals.multichannel_vmd(spec, 0)
        with pytest.raises(ValueError):
            vitals.multichannel_vmd(spec, 2, weights=[np.nan])
        with pytest.raises(ValueError):
            vitals.multichannel_vmd(spec, 2, init=[1.0, 2.0, 3.0])

    def test_truncated_band_limits_modes(self):
        fs, n = 10.0, 500
        t = np.arange(n) / fs
        s = np.sin(2 * np.pi * 0.5 * t) + np.sin(2 * np.pi * 4.0 * t)
        spec = vitals.truncate_spectrum(vitals.analytic_spectrum(s, fs), 100)
        ms = vitals.multichannel_vmd(spec, 1)
        # kept band ends at 1.98 Hz: only the low line is visible
        assert ms.center_freqs_hz[0] == pytest.approx(0.5, abs=0.05)


def _reference_multichannel_vmd(spec, num_modes, weights=None,
                                alpha=2000.0, eta=0.0, tol=1e-7,
                                max_iter=500, init="uniform"):
    """The decomposition loop as written before its buffers were reused,
    kept to pin :func:`vitals.multichannel_vmd` to the same bits: ``base``
    and the previous power recomputed every iteration, fresh arrays for
    the power and the difference, a masked center-frequency update and an
    einsum for the change.

    Call it on one OpenBLAS thread: threaded, OpenBLAS splits the channel
    fusion of a 1001-bin spectrum over the threads and rounds some bins
    differently."""
    s_all = np.asarray(spec.spectra, dtype=np.complex128)
    n_ch, nb = s_all.shape
    n, fs = spec.n_samples, spec.sample_rate
    w = (np.full(n_ch, 1.0 / n_ch) if weights is None
         else np.asarray(weights, dtype=float))
    combined = w @ s_all
    nu = np.arange(nb) / n
    if isinstance(init, str):
        omega = (np.arange(1, num_modes + 1) / num_modes
                 * min(0.25, nu[-1]))
    else:
        omega = np.sort(np.asarray(init, dtype=float)) / fs

    u = np.zeros((num_modes, nb), dtype=np.complex128)
    u_prev = np.empty_like(u)
    lam = np.zeros((n_ch, nb), dtype=np.complex128)
    den = np.empty((num_modes, nb))
    total = np.zeros(nb, dtype=np.complex128)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        np.subtract(nu[None, :], omega[:, None], out=den)
        den *= den
        den *= 2.0 * alpha
        den += 1.0
        base = combined + 0.5 * lam.sum(axis=0)
        np.copyto(u_prev, u)
        u.sum(axis=0, out=total)
        for k in range(num_modes):
            total -= u[k]
            np.subtract(base, total, out=u[k])
            u[k] /= den[k]
            total += u[k]
        power = (u.real ** 2 + u.imag ** 2)
        mode_power = power.sum(axis=1)
        prev_power = (u_prev.real ** 2 + u_prev.imag ** 2).sum()
        nz = mode_power > 0
        omega[nz] = (power @ nu)[nz] / mode_power[nz]
        if eta != 0.0:
            lam += eta * (w[:, None] * s_all - total[None, :])
        if not np.isfinite(mode_power.sum()):
            raise FloatingPointError("mode decomposition diverged")
        diff = u - u_prev
        change = np.einsum("kn,kn->", diff, diff.conj()).real
        if prev_power > 0:
            if change / prev_power < tol:
                converged = True
                break
        elif change == 0.0:
            converged = True
            break

    order = np.argsort(omega, kind="stable")
    u = u[order]
    omega = omega[order]
    padded = np.zeros((num_modes, n), dtype=np.complex128)
    padded[:, :nb] = u
    modes = np.fft.ifft(padded, axis=1).real
    return vitals.ModeSet(modes=modes, center_freqs_hz=omega * fs,
                          mode_spectra=u, sample_rate=fs, iterations=it,
                          converged=converged)


def _vital_channels(num_channels, fs=25.0, n=2000, seed=0):
    """Phase-like channels: breathing, a weak heartbeat, per-channel noise."""
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    clean = np.sin(2 * np.pi * 0.27 * t) + 0.05 * np.sin(2 * np.pi * 1.2 * t)
    return clean + 0.2 * rng.standard_normal((num_channels, n))


class TestDecompositionBits:
    """multichannel_vmd gives the reference loop's bits: modes, spectra,
    center frequencies, iteration count and convergence flag."""

    FS = 25.0

    @pytest.fixture(scope="class")
    def spectra(self):
        """(full spectrum, channel weights) for 1 and 5 channels."""
        out = {}
        for channels in (1, 5):
            samples = _vital_channels(channels, fs=self.FS)
            weights = vitals.adaptive_weights(samples).weights
            out[channels] = (vitals.analytic_spectrum(samples, self.FS),
                             weights)
        return out

    @staticmethod
    def _assert_same(got, want):
        for name in ("modes", "center_freqs_hz", "mode_spectra"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.iterations, got.converged) == (want.iterations,
                                                   want.converged)

    @pytest.mark.parametrize("init", ["uniform", "bands"])
    @pytest.mark.parametrize("n_bins", [100, 1001])
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_same_bits_as_the_reference(self, spectra, eta, k, channels,
                                        n_bins, init):
        full, weights = spectra[channels]
        spec = (full if n_bins == full.n_bins
                else vitals.truncate_spectrum(full, n_bins))
        assert spec.n_bins == n_bins
        if init == "bands":
            init = vitals.band_seeded_init(spec, weights, k)
        kwargs = dict(weights=weights, eta=eta, max_iter=200, init=init)
        got = vitals.multichannel_vmd(spec, k, **kwargs)
        with vitals._one_blas_thread():
            want = _reference_multichannel_vmd(spec, k, **kwargs)
        self._assert_same(got, want)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_all_zero_input(self, eta):
        spec = vitals.analytic_spectrum(np.zeros((5, 200)), self.FS)
        got = vitals.multichannel_vmd(spec, 3, eta=eta)
        self._assert_same(got, _reference_multichannel_vmd(spec, 3, eta=eta))
        assert got.converged and got.iterations == 1


class TestDecompositionBlasThreads:
    """The channel fusion of multichannel_vmd and band_seeded_init, and the
    iteration of multichannel_vmd, run on one OpenBLAS thread; the count is
    restored after, also on an exception."""

    @pytest.fixture
    def blas_threads(self):
        api = vitals._openblas_threads()
        if api is None:
            pytest.skip("numpy's OpenBLAS exposes no thread-count setter")
        get, set_ = api
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.fixture(scope="class")
    def spec(self):
        spec = vitals.analytic_spectrum(_vital_channels(5), 25.0)
        assert spec.spectra.shape == (5, 1001)
        return spec

    def _spy_on_fusion(self, monkeypatch, blas_threads, fail=False):
        """Thread counts seen by the fusion of a 5 x 1001 spectrum."""
        seen = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if np.shape(b) == (5, 1001):
                seen.append(blas_threads())
                if fail:
                    raise FloatingPointError("spy")
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return seen

    def test_one_thread_inside_and_restored_after(self, spec, blas_threads,
                                                  monkeypatch):
        fused = self._spy_on_fusion(monkeypatch, blas_threads)
        iterated = []
        vdot = np.vdot

        def spy(a, b):
            iterated.append(blas_threads())
            return vdot(a, b)

        monkeypatch.setattr(np, "vdot", spy)
        weights = np.full(5, 0.2)
        init = vitals.band_seeded_init(spec, weights, 2)
        assert fused == [1] and blas_threads() == 2
        ms = vitals.multichannel_vmd(spec, 2, weights=weights, init=init)
        assert fused == [1, 1]
        assert iterated == [1] * ms.iterations
        assert blas_threads() == 2

    def test_restored_after_an_exception(self, spec, blas_threads,
                                         monkeypatch):
        self._spy_on_fusion(monkeypatch, blas_threads, fail=True)
        with pytest.raises(FloatingPointError, match="spy"):
            vitals.multichannel_vmd(spec, 2)
        assert blas_threads() == 2
        monkeypatch.undo()
        with pytest.raises(FloatingPointError, match="diverged"):
            with np.errstate(all="ignore"):
                vitals.multichannel_vmd(spec, 2, weights=[1e200] * 5)
        assert blas_threads() == 2


def _mode_set(freqs, amps, fs=20.0, n=600):
    t = np.arange(n) / fs
    modes = np.stack([a * np.sin(2 * np.pi * f * t)
                      for f, a in zip(freqs, amps)])
    return vitals.ModeSet(
        modes=modes, center_freqs_hz=np.asarray(freqs, dtype=float),
        mode_spectra=np.zeros((len(freqs), n // 2 + 1), dtype=complex),
        sample_rate=fs, iterations=1, converged=True)


class TestRates:
    def test_reads_rates_from_band_modes(self):
        ms = _mode_set([0.25, 1.2], [1.0, 0.2])
        r = vitals.estimate_rates(ms)
        assert r.breaths_per_min == pytest.approx(15.0, abs=0.1)
        assert r.beats_per_min == pytest.approx(72.0, abs=0.5)

    def test_missing_band_returns_none(self):
        ms = _mode_set([0.25], [1.0])
        r = vitals.estimate_rates(ms)
        assert r.breaths_per_min is not None
        assert r.beats_per_min is None

    def test_strongest_in_band_mode_wins(self):
        ms = _mode_set([1.0, 1.5], [0.1, 2.0])
        r = vitals.estimate_rates(ms)
        assert r.beats_per_min == pytest.approx(90.0, abs=0.5)

    def test_off_grid_frequency_refined(self):
        """A rate between FFT bins lands within a tenth of a cycle/min."""
        ms = _mode_set([0.287], [1.0])
        r = vitals.estimate_rates(ms)
        assert r.breaths_per_min == pytest.approx(0.287 * 60, abs=0.1)
