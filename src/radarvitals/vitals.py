"""Vital-sign extraction from slow-time phase.

Stages, in the order the pipeline runs them:

1. :func:`extract_phase` - unwrap the phase of a few adjacent range bins
   around the localized target (each bin is one observation channel).
2. :func:`adaptive_weights` - minimum-variance channel weights from the
   inter-channel correlation of the phase signals.
3. :func:`select_mode_count` - pick how many oscillatory components to
   extract, from the leading eigenvalues of a trajectory (Hankel) matrix's
   Gram matrix (one block Krylov read, else the dense solve) and its
   trace.
4. :func:`analytic_spectrum` / :func:`truncate_spectrum` - one-sided
   spectra, optionally truncated to the low-frequency band that actually
   contains vital signals (this is what buys the speedup).
5. :func:`multichannel_vmd` - variational mode decomposition run on the
   weighted multi-channel spectrum, its center frequencies seeded one per
   vital band by :func:`band_seeded_init` (the pipeline seeds them in its
   ``spectrum`` stage, so its ``decompose`` stage is this call alone).
6. :func:`estimate_rates` - breathing / heart rates from the band-matched
   modes.
"""
from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import beamform
from .config import RadarConfig

DEFAULT_RR_BAND = (0.1, 0.5)
DEFAULT_HR_BAND = (0.8, 2.5)
# Adjacent range bins read around a target, one phase channel each (odd).
PHASE_CHANNELS = 5
# Mode-count rule of select_mode_count: the energy share the leading
# eigenvalues must cover, the ratio within which the next one still counts
# (keeps sinusoid pairs whole), and the clamp on the result.
MODE_POWER_FRACTION = 0.70
MODE_TIE_RATIO = 0.8
MIN_MODES = 2
MAX_MODES = 8
# Start block of select_mode_count's block Krylov space: at least two
# columns, so a sinusoid's pair of near-equal eigenvalues is one block.
LANCZOS_BLOCK = MAX_MODES // 4
# Zero-padding factor of the rate read-out's peak search.
PEAK_REFINE = 16
# Bandwidth penalty of multichannel_vmd; larger values give narrower modes.
VMD_ALPHA = 2000.0


# ---------------------------------------------------------------------------
# phase channels

@dataclass
class PhaseMatrix:
    """Zero-mean unwrapped phase, one row per range-bin channel: (L, N)."""

    samples: np.ndarray
    sample_rate: float
    range_bins: tuple[int, ...]


def channel_bins(center_bin: int) -> range:
    """The :data:`PHASE_CHANNELS` bins centered on ``center_bin``; a
    ValueError names bins that leave the ``RadarConfig.num_range_bins``-bin
    one-sided profile."""
    half = PHASE_CHANNELS // 2
    lo, hi = center_bin - half, center_bin + half
    if lo < 0 or hi >= RadarConfig.num_range_bins:
        raise ValueError(f"channels [{lo}, {hi}] fall outside the "
                         f"{RadarConfig.num_range_bins}-bin range profile")
    return range(lo, hi + 1)


def extract_phase(profiles, center_bin: int,
                  rx: beamform.BeamWeights | None = None) -> PhaseMatrix:
    """Slow-time phase of :data:`PHASE_CHANNELS` range bins centered on a
    target.

    The channels are the :func:`channel_bins` centered on ``center_bin``,
    checked before anyone indexes with them: a ValueError names channels
    that leave the full one-sided profile, or that leave the rows
    ``profiles`` holds.  One sample per frame is used (the first chirp), so
    the sample rate is the frame rate.  Each channel is combined across the
    virtual array with ``rx`` weights (:func:`beamform.combine`) when
    given, otherwise read from the first antenna; the phase is unwrapped
    along time and the per-channel mean removed.
    """
    bins = channel_bins(center_bin)
    first, held = profiles.first_bin, profiles.data.shape[0]
    if bins.start < first or bins.stop > first + held:
        raise ValueError(
            f"channels [{bins.start}, {bins.stop - 1}] lie outside the "
            f"rendered rows [{first}, {first + held - 1}] of the "
            f"{RadarConfig.num_range_bins}-bin range profile")
    per_frame = profiles.data.shape[1] // len(profiles.frame_timestamps)
    block = profiles.data[bins.start - first:bins.stop - first,
                          ::per_frame, :]                   # (L, frames, K)
    if rx is None:
        series = block[:, :, 0]
    else:
        series = beamform.combine(block, rx)
    phase = np.unwrap(np.angle(series), axis=1)
    phase -= phase.mean(axis=1, keepdims=True)
    return PhaseMatrix(samples=phase, sample_rate=profiles.frame_rate,
                       range_bins=tuple(bins))


# ---------------------------------------------------------------------------
# channel weighting

@dataclass(frozen=True)
class ChannelWeights:
    weights: np.ndarray


def adaptive_weights(samples: np.ndarray) -> ChannelWeights:
    """Minimum-variance weights over phase channels, summing to one.

    Solves ``min w^T (s s^T) w  s.t.  sum(w) = 1``; channels that mostly
    carry noise or interference get small (possibly negative) weight.  The
    correlation matrix is regularized with 1e-9 of its trace on the
    diagonal; an all-zero input is rejected.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2:
        raise ValueError("samples must be (num_channels, num_samples)")
    corr = s @ s.T
    tr = float(np.trace(corr))
    if not np.isfinite(tr) or tr <= 0:
        raise ValueError("phase channels carry no energy; cannot weight them")
    corr_reg = corr + 1e-9 * tr * np.eye(s.shape[0])
    u = np.linalg.solve(corr_reg, np.ones(s.shape[0]))
    total = u.sum()
    if not np.isfinite(total) or total == 0:
        raise ValueError("channel correlation matrix is too ill-conditioned")
    return ChannelWeights(weights=u / total)


# ---------------------------------------------------------------------------
# model-order selection

# (getter, setter) symbol pairs of OpenBLAS's thread count, by build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, looked
    up through numpy's own extension module, or None when not found."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after,
    also on an exception; without OpenBLAS's setter the block runs as is.

    A woken OpenBLAS worker keeps spinning for ~100 ms of CPU after the
    call that woke it, which costs more than a second thread gains on the
    small products of the vitals chain: the SSA Gram matrix, the Krylov
    products and the eigenvalue solves of :func:`select_mode_count`, and
    the channel fusion and the iteration of :func:`multichannel_vmd` (also
    the fusion behind :func:`band_seeded_init`).
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _ritz_estimates(basis: np.ndarray, image: np.ndarray, total: float,
                    square: float) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh-Ritz on the orthonormal rows of ``basis``, whose images
    under the Gram matrix are the rows of ``image``: the Ritz values,
    descending, and the slack of each, from the Gram matrix's trace
    ``total`` and the sum of its squared entries ``square``.

    A Ritz value never exceeds the eigenvalue of the same rank (Cauchy
    interlacing), and the eigenvalues are not negative.  So that eigenvalue
    exceeds the Ritz value by at most the trace the Ritz values leave out,
    and its square exceeds the Ritz value's square by at most the sum of
    squares they leave out; the slack is the tighter of the two.
    """
    theta = np.clip(np.linalg.eigvalsh(basis @ image.T)[::-1], 0.0, None)
    outside = max(total - theta.sum(), 0.0)
    outside_sq = max(square - np.dot(theta, theta), 0.0)
    slack = np.minimum(outside, np.sqrt(theta * theta + outside_sq) - theta)
    return theta, slack


def _krylov_basis(gram: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the :data:`MAX_MODES`-dimensional block
    Krylov space of ``gram`` (Golub & Van Loan, *Matrix Computations*,
    10.3) grown from a seeded random block of :data:`LANCZOS_BLOCK`
    columns: the QR factor of each product with ``gram``, then one QR of
    their stack.  A deflated block (a noise-free signal of few tones)
    leaves directions that need not lie in the Krylov space; the Ritz
    bounds hold on any orthonormal basis."""
    start = np.random.default_rng(0).standard_normal(
        (gram.shape[0], LANCZOS_BLOCK))
    blocks = [np.linalg.qr(start)[0]]
    while len(blocks) < MAX_MODES // LANCZOS_BLOCK:
        blocks.append(np.linalg.qr(gram @ blocks[-1])[0])
    return np.linalg.qr(np.hstack(blocks))[0].T


def _count_modes(ev: np.ndarray, total: float, slack: np.ndarray
                 ) -> tuple[int, bool]:
    """The selection rule of :func:`select_mode_count` on the descending
    eigenvalue estimates ``ev`` of a spectrum of trace ``total``, and
    whether each comparison it made holds for any spectrum whose every
    eigenvalue lies within ``[ev, ev + slack]``.  ``ev`` holds at least
    :data:`MAX_MODES` values, the most the rule reads, or the whole
    spectrum."""
    top = ev + slack
    cum = np.cumsum(ev) / total
    k = int(np.searchsorted(cum, MODE_POWER_FRACTION)) + 1
    below = min(k, MAX_MODES + 1) - 1          # shares under the fraction
    settled = (below == 0
               or np.cumsum(top)[below - 1] / total < MODE_POWER_FRACTION)
    floor = 1e-10 * ev[0]
    while k < min(ev.size, MAX_MODES):
        if ev[k] > floor and ev[k] >= MODE_TIE_RATIO * ev[k - 1]:
            settled &= bool(ev[k] > 1e-10 * top[0]
                            and ev[k] >= MODE_TIE_RATIO * top[k - 1])
            k += 1
        else:
            settled &= bool(top[k] <= floor
                            or top[k] < MODE_TIE_RATIO * ev[k - 1])
            break
    return int(np.clip(k, MIN_MODES, MAX_MODES)), bool(settled)


def select_mode_count(signal: np.ndarray) -> int:
    """Number of oscillatory components suggested by a singular-value scan.

    The signal is folded into a Hankel trajectory matrix (window length
    N//3) and the eigenvalues of its Gram matrix are accumulated until
    :data:`MODE_POWER_FRACTION` of the energy (the Gram matrix's trace) is
    covered.  Because each real sinusoid contributes a *pair* of comparable
    eigenvalues, the count is extended while the next eigenvalue is within
    :data:`MODE_TIE_RATIO` of the last one included, so pairs are never
    split.  The result is clamped to [:data:`MIN_MODES`,
    :data:`MAX_MODES`], so only the leading :data:`MAX_MODES` eigenvalues
    matter.  They are read once as Ritz values on a block Krylov space
    (:func:`_krylov_basis`); when bounds on them (:func:`_ritz_estimates`)
    settle the count (:func:`_count_modes`), it is the one the whole
    spectrum gives.  Otherwise, and when the window is at most
    :data:`MAX_MODES` long, the count is read off the whole spectrum
    (``np.linalg.eigvalsh``).  The Gram matrix is numpy's product of the
    trajectory view with itself, which allocates no copy of the trajectory
    matrix; the solves run on one OpenBLAS thread.  A signal too short for
    the window, not finite, or without energy raises ``ValueError``.
    """
    x = np.asarray(signal, dtype=float).ravel()
    n = x.size
    window_len = n // 3
    if window_len < 2 or n - window_len + 1 < 2:
        raise ValueError("signal too short for the trajectory window")
    if not np.isfinite(x).all():
        raise ValueError("signal is not finite; cannot select mode count")
    traj = np.lib.stride_tricks.sliding_window_view(
        x, n - window_len + 1)[:window_len]
    with _one_blas_thread():
        gram = traj @ traj.T
        total = np.trace(gram)
        if total <= 0:
            raise ValueError(
                "signal carries no energy; cannot select mode count")
        if window_len > MAX_MODES:
            basis = _krylov_basis(gram)
            theta, slack = _ritz_estimates(basis, basis @ gram, total,
                                           np.vdot(gram, gram))
            k, settled = _count_modes(theta, total, slack)
            if settled:
                return k
        ev = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
        return _count_modes(ev, total, np.zeros(window_len))[0]


# ---------------------------------------------------------------------------
# spectra

@dataclass
class AnalyticSpectra:
    """One-sided spectra of real channels: (L, n_bins) complex.

    Interior bins are doubled (analytic-signal convention), so the real
    part of the inverse FFT of a zero-padded row reproduces the original
    real signal.  ``n_samples`` remembers the time-domain length even after
    truncation.
    """

    spectra: np.ndarray
    n_samples: int
    sample_rate: float

    @property
    def n_bins(self) -> int:
        return self.spectra.shape[-1]

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.n_samples

    @property
    def freqs_hz(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_hz


def analytic_spectrum(samples: np.ndarray,
                      sample_rate: float) -> AnalyticSpectra:
    """One-sided FFT of real channels with doubled interior bins.

    Accepts (L, N) or a single (N,) channel; N must be at least 16.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[None, :]
    if s.ndim != 2:
        raise ValueError("samples must be 1-D or 2-D")
    n = s.shape[1]
    if n < 16:
        raise ValueError("need at least 16 samples per channel")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    spec = np.fft.fft(s, axis=1)[:, : n // 2 + 1]
    if n % 2 == 0:
        spec[:, 1:-1] *= 2.0
    else:
        spec[:, 1:] *= 2.0
    return AnalyticSpectra(spectra=spec, n_samples=n, sample_rate=sample_rate)


def truncate_spectrum(spec: AnalyticSpectra, n_keep: int) -> AnalyticSpectra:
    """Keep only the first ``n_keep`` bins (4 <= n_keep <= n_bins).

    Keeping the full spectrum is a no-op copy; keeping fewer bins discards
    everything above ``(n_keep - 1) * bin_hz`` and shrinks every array the
    decomposition iterates over.
    """
    if not 4 <= n_keep <= spec.n_bins:
        raise ValueError(
            f"n_keep must lie in [4, {spec.n_bins}], got {n_keep}")
    return AnalyticSpectra(spectra=spec.spectra[:, :n_keep].copy(),
                           n_samples=spec.n_samples,
                           sample_rate=spec.sample_rate)


# ---------------------------------------------------------------------------
# variational mode decomposition on weighted multi-channel spectra

@dataclass
class ModeSet:
    """Decomposition result, modes ordered by ascending center frequency."""

    modes: np.ndarray              # (K, N) real time series
    center_freqs_hz: np.ndarray    # (K,)
    mode_spectra: np.ndarray       # (K, n_bins) complex, one-sided
    sample_rate: float
    iterations: int
    converged: bool


def band_seeded_init(spectra: AnalyticSpectra, weights: np.ndarray,
                     num_modes: int) -> np.ndarray:
    """Center-frequency init (Hz) with one mode pinned to each band of
    interest, for :func:`multichannel_vmd`'s ``init``.

    Vital phase spectra are wildly unbalanced (breathing carries orders of
    magnitude more power than heartbeat), so a purely power-ranked init
    would spend every mode on the strongest line and its leakage skirt.
    Seeding the strongest in-band peak of the weighted channel sum in the
    breathing band, then in the heart band, guarantees each band starts
    with a dedicated mode; leftover modes spread evenly over the kept
    spectrum.
    """
    with _one_blas_thread():
        mag = np.abs(np.matmul(weights, spectra.spectra))
    freqs = spectra.freqs_hz
    seeds: list[float] = []
    for lo, hi in (DEFAULT_RR_BAND, DEFAULT_HR_BAND):
        if len(seeds) == num_modes:
            break
        sel = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        if sel.size:
            seeds.append(float(freqs[sel[np.argmax(mag[sel])]]))
    for f in np.linspace(freqs[0], freqs[-1], num_modes - len(seeds) + 2)[1:-1]:
        if len(seeds) == num_modes:
            break
        seeds.append(float(f))
    while len(seeds) < num_modes:
        seeds.append(float(freqs[-1]))
    return np.asarray(sorted(seeds))


def multichannel_vmd(
    spec: AnalyticSpectra,
    num_modes: int,
    weights=None,
    eta: float = 0.0,
    tol: float = 1e-7,
    max_iter: int = 500,
    init="uniform",
) -> ModeSet:
    """Decompose weighted multi-channel spectra into narrowband modes.

    The channel spectra are fused into a single working spectrum
    ``C = sum_l w_l S_l`` and ``num_modes`` complex modes are fitted by the
    usual alternating scheme: each mode is the Wiener-filtered residual
    ``u_k = (C + sum_l lam_l / 2 - sum_{i != k} u_i) / (1 + 2 VMD_ALPHA (nu - omega_k)^2)``
    where the sum holds the new modes before k and the current ones after it.
    A sweep reads the current modes from one buffer and writes the new ones
    into a second, and the two buffers swap roles each iteration, so the
    change between them is at hand for the convergence test.  The
    power-centroid update of the center frequencies follows each sweep.
    With ``eta > 0`` a Lagrange multiplier per channel is ascended against
    that channel's own residual ``w_l S_l - sum_k u_k``, tightening
    reconstruction on clean data; with one channel and ``eta = 0`` the
    scheme is exactly classic VMD on ``S``.  The fusion and the iteration
    run on one OpenBLAS thread.

    Parameters
    ----------
    spec : AnalyticSpectra
        One-sided (optionally truncated) channel spectra.
    num_modes : int
        Number of modes K to extract.
    weights : array-like, optional
        Channel weights (length L, expected to sum to 1); uniform when
        omitted.
    eta : float
        Dual-ascent step (0 disables the multipliers).
    tol, max_iter :
        Convergence is declared when the summed relative change of the mode
        spectra drops below ``tol``.
    init : "uniform" or array of Hz
        Center-frequency initialization.  "uniform" (default) spreads modes
        deterministically over (0, sample_rate/4], capped at the kept band;
        an explicit array gives starting frequencies in Hz (the pipeline
        seeds one mode per vital band this way).

    Returns
    -------
    ModeSet
        Real time-domain modes (length ``spec.n_samples``), their center
        frequencies in Hz, and convergence information.

    Raises
    ------
    FloatingPointError
        If the iteration produces non-finite values (e.g. pathological
        weights); nothing is returned in that case.
    """
    s_all = np.asarray(spec.spectra, dtype=np.complex128)
    n_ch, nb = s_all.shape
    n = spec.n_samples
    fs = spec.sample_rate
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    if nb < 2 * num_modes:
        raise ValueError("spectrum too short for the requested mode count")
    if weights is None:
        w = np.full(n_ch, 1.0 / n_ch)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_ch,):
            raise ValueError(f"weights must have length {n_ch}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")

    nu = np.arange(nb) / n                           # cycles per sample
    if isinstance(init, str):
        if init != "uniform":
            raise ValueError(f"unknown init {init!r}")
        omega = (np.arange(1, num_modes + 1) / num_modes
                 * min(0.25, nu[-1]))
    else:
        omega = np.sort(np.asarray(init, dtype=float)) / fs
        if omega.shape != (num_modes,):
            raise ValueError("init array must provide one frequency per mode")

    # The two mode buffers; the first holds the all-zero start.
    first = np.zeros((num_modes, nb), dtype=np.complex128)
    second = np.empty_like(first)
    # Each bin's Wiener gain 1 / (1 + 2 VMD_ALPHA (nu - omega_k)^2), twice
    # over, for the real and the imaginary part of u_k.
    nu_pairs = np.repeat(nu, 2)
    gain = np.empty((num_modes, 2 * nb))
    total = np.empty(nb, dtype=np.complex128)
    squares = np.empty((num_modes, 2 * nb))          # re^2, im^2 pairs
    re_sq, im_sq = squares[:, 0::2], squares[:, 1::2]
    power = np.empty((num_modes, nb))
    diff = np.empty_like(first)
    turns = []                                       # even, odd iterations
    for new, old in ((first, second), (second, first)):
        new_re_im = new.view(np.float64)
        # Row k: (old u_k, new u_k, its (re, im) pairs, its gains,
        # whether the running sum takes it back; the last mode's is read
        # only by the multiplier update, as each sweep re-sums the modes).
        rows = tuple(zip(old, new, new_re_im, gain,
                         [True] * (num_modes - 1) + [eta != 0.0]))
        turns.append((new, old, new_re_im, rows))
    omega_col = omega[:, None]                       # updated in place
    u = first
    prev_power = 0.0                                 # power of u_prev
    converged = False
    it = 0
    with _one_blas_thread():
        combined = np.matmul(w, s_all)               # (nb,)
        # + 0.0 as the zero multipliers' term adds it: -0.0 becomes +0.0
        base = combined + 0.0
        if eta != 0.0:
            lam = np.zeros((n_ch, nb), dtype=np.complex128)
            target = w[:, None] * s_all
        for it in range(1, max_iter + 1):
            np.subtract(nu_pairs, omega_col, out=gain)
            gain *= gain
            gain *= 2.0 * VMD_ALPHA
            gain += 1.0
            # Numpy divides a complex by a real as a multiply by the
            # reciprocal, so scaling the (re, im) pairs by the gain gives
            # the bits of dividing u_k by the denominator.
            np.divide(1.0, gain, out=gain)
            u, u_prev, u_re_im, rows = turns[it & 1]
            np.add.reduce(u_prev, axis=0, out=total)
            for old_k, uk, uk_re_im, gain_k, take_back in rows:
                total -= old_k
                np.subtract(base, total, out=uk)
                uk_re_im *= gain_k
                if take_back:
                    total += uk
            np.multiply(u_re_im, u_re_im, out=squares)
            np.add(re_sq, im_sq, out=power)
            mode_power = np.add.reduce(power, axis=1)
            if 0.0 in mode_power.tolist():   # a powerless mode stays put
                np.divide(power @ nu, mode_power, out=omega,
                          where=mode_power > 0)
            else:
                np.divide(power @ nu, mode_power, out=omega)
            if eta != 0.0:
                lam += eta * (target - total)
                base = combined + 0.5 * np.add.reduce(lam, axis=0)
            power_sum = np.add.reduce(power, axis=None)
            if not math.isfinite(power_sum):
                raise FloatingPointError(
                    "mode decomposition diverged (non-finite spectra); "
                    "check channel weights or reduce VMD_ALPHA")
            np.subtract(u, u_prev, out=diff)
            change = np.vdot(diff, diff).real
            if prev_power > 0:
                if change / prev_power < tol:
                    converged = True
                    break
            elif change == 0.0:
                converged = True
                break
            prev_power = power_sum

    order = np.argsort(omega, kind="stable")
    u = u[order]
    omega = omega[order]
    padded = np.zeros((num_modes, n), dtype=np.complex128)
    padded[:, :nb] = u
    modes = np.fft.ifft(padded, axis=1).real
    return ModeSet(modes=modes, center_freqs_hz=omega * fs, mode_spectra=u,
                   sample_rate=fs, iterations=it, converged=converged)


# ---------------------------------------------------------------------------
# rate read-out

@dataclass
class VitalRates:
    breaths_per_min: float | None
    beats_per_min: float | None


def _refined_peak_hz(mode: np.ndarray, fs: float,
                     band: tuple[float, float]) -> float | None:
    n_fft = mode.size * PEAK_REFINE
    size = n_fft // 2 + 1
    # Bins start..stop-1 hold every bin whose frequency is in the band,
    # with one neighbour each side for the parabola.
    start = max(math.floor(band[0] * n_fft / fs) - 2, 0)
    stop = min(math.floor(band[1] * n_fft / fs) + 3, size)
    if start >= stop:
        return None
    spec = np.abs(np.fft.rfft(mode, n_fft)[start:stop])
    freqs = np.arange(start, stop) * fs / n_fft
    sel = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if sel.size == 0:
        return None
    j = sel[np.argmax(spec[sel])]
    i = start + j
    if 0 < i < size - 1:
        a, b, c = spec[j - 1], spec[j], spec[j + 1]
        denom = a - 2 * b + c
        delta = 0.0 if denom == 0 else np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    else:
        delta = 0.0
    return float((i + delta) * fs / n_fft)


def estimate_rates(modes: ModeSet) -> VitalRates:
    """Breathing and heart rates from band-matched modes.

    For each of :data:`DEFAULT_RR_BAND` and :data:`DEFAULT_HR_BAND` the
    in-band mode with the greatest time-domain energy is
    chosen; its rate is the interpolated spectral peak (zero-padded FFT
    plus parabolic refinement) in cycles/min.  A band with no matching mode
    yields None.
    """
    energies = np.sum(modes.modes ** 2, axis=1)

    def band_rate(band):
        in_band = np.flatnonzero(
            (modes.center_freqs_hz >= band[0])
            & (modes.center_freqs_hz <= band[1]))
        if in_band.size == 0:
            return None
        k = in_band[np.argmax(energies[in_band])]
        f = _refined_peak_hz(modes.modes[k], modes.sample_rate, band)
        return None if f is None else f * 60.0

    return VitalRates(breaths_per_min=band_rate(DEFAULT_RR_BAND),
                      beats_per_min=band_rate(DEFAULT_HR_BAND))
