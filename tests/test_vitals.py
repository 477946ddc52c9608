import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import vitals
from radarvitals.pipeline import ScenarioSpec
from radarvitals.rangefft import RangeProfiles
from reference_spectra import crop_mirrored, mirror_extend, spectral_entropy
from test_acceptance import SCENARIOS, _svd_mode_count


def _profiles_with_phase(phase, num_bins=9):
    """Synthetic range profiles whose center-bin phase follows ``phase``,
    at 20 frames per second."""
    cfg, frame_rate = rv.RadarConfig, 20.0
    frames = phase.size
    m = frames * cfg.chirps_per_frame
    data = np.full((num_bins, m, cfg.num_virtual), 0.1, dtype=complex)
    idx = np.arange(frames) * cfg.chirps_per_frame
    for b in range(num_bins):
        data[b, idx, :] = np.exp(1j * phase)[:, None]
    return RangeProfiles(
        data=data, frame_rate=frame_rate,
        frame_timestamps=np.arange(frames) / frame_rate)


class TestExtractPhase:
    def test_unwraps_beyond_pi(self):
        ramp = np.linspace(0, 6 * np.pi, 80)      # wraps three times
        prof = _profiles_with_phase(ramp)
        pm = vitals.extract_phase(prof, center_bin=4)
        expected = ramp - ramp.mean()
        assert np.allclose(pm.samples[2], expected, atol=1e-9)
        assert pm.sample_rate == prof.frame_rate == 20.0
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
        assert rv.RadarConfig.num_range_bins == 65 and prof.data.shape[0] == 9
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_signal(self, value):
        x = np.sin(2 * np.pi * 0.25 * np.arange(600) / 20.0)
        x[300] = value
        with pytest.raises(ValueError, match="not finite"):
            vitals.select_mode_count(x)

    @pytest.mark.parametrize("n", [21, 48, 200, 600, 2000, 3000])
    def test_matches_the_svd_oracle(self, n):
        x = _oracle_input(f"mixture-{n}")
        assert vitals.select_mode_count(x) == _svd_mode_count(x)

    @pytest.mark.parametrize("name", [
        "equal-2", "equal-4", "white-noise",
        *(f"noise-free-{m}" for m in range(1, 10))])
    def test_matches_the_svd_oracle_on_hard_spectra(self, name):
        x = _oracle_input(name)
        assert vitals.select_mode_count(x) == _svd_mode_count(x)

    def test_matches_the_svd_oracle_on_a_corpus(self):
        """k equals the dense oracle on every signal of a seeded corpus:
        1-5 tones of random frequency, amplitude and phase in white noise
        of random level up to 1."""
        rng = np.random.default_rng(2024)
        t = np.arange(600) / 20.0
        for i in range(300):
            x = rng.uniform(0, 1) * rng.standard_normal(t.size)
            for _ in range(rng.integers(1, 6)):
                x += rng.uniform(0.2, 1) * np.sin(
                    2 * np.pi * rng.uniform(0.05, 5) * t
                    + rng.uniform(0, 2 * np.pi))
            assert vitals.select_mode_count(x) == _svd_mode_count(x), i

    @pytest.mark.parametrize("name", [
        "mixture-48", "mixture-600", "equal-4", "white-noise",
        "noise-free-1", "noise-free-3", "noise-free-9"])
    def test_ritz_values_and_slack_bracket_the_spectrum(self, name):
        """On the one Krylov read, the basis is orthonormal and each leading
        eigenvalue lies between its Ritz value and that value plus its
        slack; also on noise-free signals, whose Gram matrix is rank
        deficient, so that a block deflates."""
        x = _oracle_input(name)
        size = x.size // 3
        traj = np.lib.stride_tricks.sliding_window_view(
            x, x.size - size + 1)[:size]
        gram = traj @ traj.T
        total, square = np.trace(gram), np.vdot(gram, gram)
        ev = np.linalg.eigvalsh(gram)[::-1][:vitals.MAX_MODES]
        tol = 1e-12 * ev[0]
        basis = vitals._krylov_basis(gram)
        assert basis.shape == (vitals.MAX_MODES, size)
        assert np.allclose(basis @ basis.T, np.eye(vitals.MAX_MODES),
                           rtol=0, atol=1e-12)
        theta, slack = vitals._ritz_estimates(basis, basis @ gram, total,
                                              square)
        assert np.all(theta <= ev + tol)
        assert np.all(ev <= theta + slack + tol)


def _oracle_input(name):
    """A named test signal at 20 Hz: ``mixture-<n>`` (two tones in weak
    noise, n samples), ``equal-<m>`` (m tones of equal power),
    ``noise-free-<m>`` (m tones of random power and phase, no noise; the
    Gram matrix has rank 2m) or ``white-noise`` (600 samples)."""
    kind, _, size = name.rpartition("-")
    rng = np.random.default_rng(7)
    n = int(size) if kind == "mixture" else 600
    t = np.arange(n) / 20.0
    if kind == "mixture":
        return (np.sin(2 * np.pi * 0.25 * t)
                + 0.3 * np.sin(2 * np.pi * 1.2 * t)
                + 0.05 * np.random.default_rng(n).standard_normal(n))
    if kind == "equal":
        return sum(np.sin(2 * np.pi * f * t)
                   for f in (0.3, 0.9, 1.5, 2.1)[:int(size)])
    if kind == "noise-free":
        return sum(rng.uniform(0.2, 1) * np.sin(
            2 * np.pi * rng.uniform(0.05, 5) * t
            + rng.uniform(0, 2 * np.pi)) for _ in range(int(size)))
    return rng.standard_normal(n)


class TestModeCountBlasThreads:
    """select_mode_count runs on one OpenBLAS thread and restores the
    count after, both when the Krylov read settles the count and when the
    dense solve follows it."""

    # name: (signal, rows of each matrix eigvalsh sees): a sinusoid settles
    # at the Krylov read; two equal tones on the Fourier grid (an eigenvalue
    # cluster wider than the start block) go on to the dense Gram matrix.
    SIGNALS = {
        "sine": (np.sin(2 * np.pi * 0.25 * np.arange(600) / 20.0), [8]),
        "equal-2": (_oracle_input("equal-2"), [8, 200]),
    }

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
            seen.append((blas_threads(), a.shape[0]))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for name, (signal, rows) in self.SIGNALS.items():
            seen.clear()
            assert vitals.select_mode_count(signal) == _svd_mode_count(
                signal), name
            assert seen == [(1, r) for r in rows], name
            assert blas_threads() == 2, name

    def test_restored_after_an_exception(self, blas_threads, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def fail_last(a):
            calls.append(a.shape[0])
            if len(calls) == len(rows):
                raise np.linalg.LinAlgError("no convergence")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_last)
        for name, (signal, rows) in self.SIGNALS.items():
            calls.clear()
            with pytest.raises(np.linalg.LinAlgError):
                vitals.select_mode_count(signal)
            assert calls == rows, name
            assert blas_threads() == 2, name


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
            a, b = getattr(got, name), getattr(want, name)
            # bytes, not values: array_equal takes -0.0 for 0.0
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype,
                                                       b.tobytes()), name
        assert (got.iterations, got.converged) == (want.iterations,
                                                   want.converged)

    def _check(self, spectra, eta, k, channels, n_bins, init, max_iter):
        full, weights = spectra[channels]
        spec = (full if n_bins == full.n_bins
                else vitals.truncate_spectrum(full, n_bins))
        assert spec.n_bins == n_bins
        if init == "bands":
            init = vitals.band_seeded_init(spec, weights, k)
        kwargs = dict(weights=weights, eta=eta, max_iter=max_iter, init=init)
        got = vitals.multichannel_vmd(spec, k, **kwargs)
        with vitals._one_blas_thread():
            want = _reference_multichannel_vmd(spec, k, **kwargs)
        self._assert_same(got, want)
        return got

    # 100 bins is the pipeline's n_keep, 301 range_overlap's full spectrum
    # and 1001 bench's; 8 is vitals.MAX_MODES.
    @pytest.mark.parametrize("init", ["uniform", "bands"])
    @pytest.mark.parametrize("n_bins", [100, 301, 1001])
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_same_bits_as_the_reference(self, spectra, eta, k, channels,
                                        n_bins, init):
        self._check(spectra, eta, k, channels, n_bins, init, max_iter=200)

    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("eta, k", [(0.0, 1), (0.0, 2), (1.0, 1),
                                        (1.0, 3)])
    def test_stopped_after_either_parity(self, spectra, eta, k, max_iter):
        """Cut off after an odd or an even number of sweeps, the result is
        the latest iterate, whichever mode buffer holds it."""
        got = self._check(spectra, eta, k, 5, 100, "bands", max_iter)
        assert (got.iterations, got.converged) == (max_iter, False)

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


def _mode_set(freqs, amps, fs=20.0, n=600, centers=None):
    """One sine per mode; each mode's center frequency is its sine's unless
    ``centers`` gives it."""
    t = np.arange(n) / fs
    modes = np.stack([a * np.sin(2 * np.pi * f * t)
                      for f, a in zip(freqs, amps)])
    return vitals.ModeSet(
        modes=modes,
        center_freqs_hz=np.asarray(freqs if centers is None else centers,
                                   dtype=float),
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


def _reference_refined_peak_hz(mode, fs, band):
    """The read-out's peak search as written before it was cut to the
    band's bins: the magnitude, frequency grid and band mask over the whole
    zero-padded spectrum."""
    n_fft = mode.size * vitals.PEAK_REFINE
    spec = np.abs(np.fft.rfft(mode, n_fft))
    freqs = np.arange(spec.size) * fs / n_fft
    sel = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if sel.size == 0:
        return None
    i = sel[np.argmax(spec[sel])]
    if 0 < i < spec.size - 1:
        a, b, c = spec[i - 1], spec[i], spec[i + 1]
        denom = a - 2 * b + c
        delta = 0.0 if denom == 0 else np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    else:
        delta = 0.0
    return float((i + delta) * fs / n_fft)


def _reference_rates(modes):
    with mock.patch.object(vitals, "_refined_peak_hz",
                           _reference_refined_peak_hz):
        return vitals.estimate_rates(modes)


class TestRatesBits:
    """estimate_rates gives the bits of the whole-spectrum peak search."""

    @staticmethod
    def _assert_same(modes):
        got = vitals.estimate_rates(modes)
        want = _reference_rates(modes)
        assert (got.breaths_per_min, got.beats_per_min) == (
            want.breaths_per_min, want.beats_per_min)
        return got

    @pytest.mark.parametrize("fs", [20.0, 17.0])
    def test_peak_on_the_first_and_the_last_band_bin(self, fs):
        """Tones just outside both bands, labelled inside them: each band's
        peak is its edge bin, on the tone's main lobe.  At fs 20 and 600
        samples the edges fall on bins of the 9 600-point FFT (0.1 Hz is
        bin 48, 2.5 Hz bin 1200); at fs 17 they fall between bins."""
        ms = _mode_set([0.095, 2.505], [1.0, 0.2], fs=fs,
                       centers=[0.1, 2.5])
        r = self._assert_same(ms)
        n_fft = 600 * vitals.PEAK_REFINE
        rr_bin = r.breaths_per_min / 60.0 * n_fft / fs
        hr_bin = r.beats_per_min / 60.0 * n_fft / fs
        assert abs(rr_bin - math.ceil(0.1 * n_fft / fs)) <= 0.5 + 1e-9
        assert abs(hr_bin - math.floor(2.5 * n_fft / fs)) <= 0.5 + 1e-9

    def test_peaks_inside_the_bands(self):
        r = self._assert_same(_mode_set([0.287, 1.13], [1.0, 0.2]))
        assert r.breaths_per_min is not None and r.beats_per_min is not None

    def test_band_past_nyquist_reads_none(self):
        """At fs 1.5 the heart band starts above the 0.75 Hz Nyquist bin."""
        ms = _mode_set([0.25, 0.7], [1.0, 0.2], fs=1.5, centers=[0.25, 1.0])
        r = self._assert_same(ms)
        assert r.breaths_per_min is not None and r.beats_per_min is None

    def test_band_starting_on_the_nyquist_bin(self):
        """At fs 1.6 the heart band's only bin is the last one, 0.8 Hz,
        which has no right neighbour for the parabola."""
        ms = _mode_set([0.25, 0.7], [1.0, 0.2], fs=1.6, centers=[0.25, 1.0])
        r = self._assert_same(ms)
        assert r.beats_per_min == 0.8 * 60.0

    def test_sixteen_samples(self):
        r = self._assert_same(_mode_set([0.25, 1.2], [1.0, 0.2], n=16))
        assert r.breaths_per_min is not None and r.beats_per_min is not None

    @pytest.mark.parametrize("n_keep", [100, None])
    def test_bench_chain_modes(self, n_keep):
        """The bench scenario's 2000-sample modes, decomposed from the kept
        and from the full spectrum."""
        spec = ScenarioSpec.from_json(SCENARIOS / "bench.json")
        res = rv.run_scenario(dataclasses.replace(spec, n_keep=n_keep))
        modes = res.chains[res.locations[0][0]].modes
        assert modes.modes.shape == (4, 2000)
        r = self._assert_same(modes)
        assert r.breaths_per_min is not None and r.beats_per_min is not None

    @given(n=st.integers(16, 700), fs=st.floats(1.0, 50.0),
           seed=st.integers(0, 2**32 - 1))
    def test_noise_modes(self, n, fs, seed):
        """White-noise modes labelled in both bands: the peak lands
        anywhere in the band, edges included."""
        rng = np.random.default_rng(seed)
        ms = vitals.ModeSet(
            modes=rng.standard_normal((2, n)),
            center_freqs_hz=np.array([0.3, 1.5]),
            mode_spectra=np.zeros((2, n // 2 + 1), dtype=complex),
            sample_rate=fs, iterations=1, converged=True)
        self._assert_same(ms)
