"""Synthetic FMCW radar data and camera detections.

The simulator evaluates the dechirped baseband model directly.  Every
scatterer is one tuple ``(beat range, phase range, angle, amplitude)``,
each entry a scalar or an array over slow time (``_scatterers``): a static
is all scalars; a vital target beats at its nominal range while its phase
range adds the chest micro-motion; a mover is arrays along its path.  It
contributes a complex tone across fast time (beat frequency proportional
to the beat range) times a slow-time factor carrying the amplitude, the
two-way carrier phase of the phase range and the receive-array response.
Cubes are indexed ``[fast_sample, slow_sample, virtual_antenna]``.

Transmit beamforming is modeled as a per-scatterer illumination gain: with
steering weights ``w`` the field hitting a scatterer at azimuth theta scales
by ``w^H a_tx(theta)``.  Every array response, transmit and receive, is
:func:`aoa.steering_matrix`.

Two renderers share one per-scatterer signal model (``_returns``):

* :func:`synthesize_cube` renders the raw cube, one whole-cube product
  per scatterer; the pipeline never calls it, it is the reference the
  range-domain renderer is tested against.
* :func:`render_profiles` renders the range profiles (the cube's fast-time
  FFT) directly at chosen bins and frames, one snapshot per frame (the
  frame's first chirp, the only one any stage reads), noise included.
  Each scatterer's range tone is the closed-form DFT of its fast-time
  factor, computed at those bins and frames only (:func:`_tones`).  Range
  row ``r`` draws its noise from a stream of its own, the still window's
  frames first (:func:`_row_noise`), so a sample has one value whichever
  render draws it.  The pipeline renders through two wrappers:
  :func:`range_profiles`, the heatmap's rows at the still window's frames,
  and :func:`window_profiles`, the phase window's rows at every frame,
  steered or not.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aoa import MAX_ANGLE_DEG, MAX_RANGE_M, steering_matrix
from .config import BodyMotion, RadarConfig, Scene, VitalParams, VitalTarget
from .fusion import IMAGE_WIDTH_PX, STATIONARY_WINDOW_S, Box, DetectionFrame
from .rangefft import RangeProfiles, range_bin_width
from .vitals import channel_bins


def chest_displacement(t, vitals: VitalParams):
    """Chest displacement in meters at time(s) ``t``.

    Sum of the breathing and heartbeat sinusoids plus any body-motion
    bursts; both components start at zero phase.
    """
    t = np.asarray(t, dtype=float)
    d = (vitals.breath_amp * np.sin(2.0 * np.pi * vitals.breath_freq * t)
         + vitals.heart_amp * np.sin(2.0 * np.pi * vitals.heart_freq * t))
    return d + motion_displacement(t, vitals.body_motion)


def motion_displacement(t, bursts: tuple[BodyMotion, ...]):
    """Displacement from windowed sinusoidal bursts (zero outside windows)."""
    t = np.asarray(t, dtype=float)
    d = np.zeros_like(t)
    for b in bursts:
        on = (t >= b.start) & (t < b.stop)
        d[on] += b.amp * np.sin(2.0 * np.pi * b.freq * (t[on] - b.start))
    return d


@dataclass
class RadarCube:
    """Raw dechirped samples: shape (samples_per_chirp, slow, virtual)."""

    data: np.ndarray
    config: RadarConfig
    frame_timestamps: np.ndarray


def _slow_times(cfg: RadarConfig, duration: float):
    """Global chirp-start times; chirps within a frame sit ``pri`` apart."""
    n_frames = int(round(duration * cfg.frame_rate))
    if n_frames < 1:
        raise ValueError("duration too short for a single frame")
    frame_t = np.arange(n_frames) * cfg.frame_period
    slow_t = (frame_t[:, None] + np.arange(cfg.chirps_per_frame) * cfg.pri)
    return frame_t, slow_t.ravel()


def _illumination(angles_deg, tx_weights, cfg: RadarConfig):
    """Transmit-array gain ``w^H a_tx(theta)``, one per angle (1-D)."""
    angles_deg = np.atleast_1d(angles_deg)
    if tx_weights is None:
        return np.ones(angles_deg.shape, dtype=np.complex128)
    w = np.asarray(getattr(tx_weights, "weights", tx_weights),
                   dtype=np.complex128)
    if w.shape != (cfg.num_tx,):
        raise ValueError(
            f"tx_weights must have length num_tx={cfg.num_tx}, got {w.shape}")
    return w.conj() @ steering_matrix(angles_deg, cfg.num_tx, cfg.tx_spacing,
                                      cfg.wavelength)


def _check_beat(cfg: RadarConfig, r_max: float) -> None:
    if cfg.chirp_slope_factor * r_max >= cfg.beat_nyquist:
        raise ValueError(
            f"scene range {r_max:.2f} m puts the beat frequency at or above "
            f"the fast-time Nyquist limit ({cfg.max_unambiguous_range:.2f} m)")


def _scatterers(scene: Scene, slow_t: np.ndarray):
    """``(beat range, phase range, angle, amplitude)`` of every scatterer,
    each a scalar or an array over ``slow_t``: scalars for a static; the
    nominal range as beat range and the range plus chest displacement as
    phase range for a vital target; arrays along its path for a mover."""
    for s in scene.statics:
        yield s.range_m, s.range_m, s.angle_deg, s.amplitude
    for tgt in scene.targets:
        phase_r = tgt.range_m + chest_displacement(slow_t, tgt.vitals)
        yield tgt.range_m, phase_r, tgt.angle_deg, tgt.amplitude
    for mv in scene.movers:
        r_m = mv.range_at(slow_t) + motion_displacement(slow_t, mv.body_motion)
        yield r_m, r_m, mv.angle_at(slow_t), mv.amplitude_at(slow_t)


def _fast_time(cfg: RadarConfig, beat_r: np.ndarray) -> np.ndarray:
    """The fast-time beat tones of the beat ranges ``beat_r`` (1-D), shaped
    ``(samples_per_chirp, beat_r.size)``."""
    fast_t = np.arange(cfg.samples_per_chirp) * cfg.adc_interval
    return np.exp((2j * np.pi * cfg.chirp_slope_factor)
                  * np.multiply.outer(fast_t, beat_r))


def _returns(scene: Scene, cfg: RadarConfig, slow_t: np.ndarray, tx_weights):
    """Noise-free return of every scatterer at slow times ``slow_t``.

    Yields one ``(beat_r, slow_ant)`` pair per scatterer tuple of
    :func:`_scatterers`, shaped ``(1 or S,)`` and ``(1 or S, num_virtual)``
    with ``S = slow_t.size``; the scatterer adds ``fast[:, :, None] *
    slow_ant[None, :, :]`` to the cube, where ``fast = _fast_time(cfg,
    beat_r)`` is the fast-time beat tone of the beat range, checked against
    the beat limit here.  ``slow_ant`` holds the amplitude, the carrier
    phase of the phase range, the illumination gain and the receive-array
    response (:func:`aoa.steering_matrix`).
    """
    lam = cfg.wavelength
    for beat_r, phase_r, angle, amp in _scatterers(scene, slow_t):
        beat_r = np.atleast_1d(beat_r)
        _check_beat(cfg, float(beat_r.max()))
        coef = amp * _illumination(angle, tx_weights, cfg) * np.exp((4j * np.pi / lam) * phase_r)
        ant = steering_matrix(angle, cfg.num_virtual, cfg.rx_spacing, lam)
        yield beat_r, coef[:, None] * ant.T


def synthesize_cube(
    scene: Scene,
    cfg: RadarConfig,
    tx_weights=None,
    snr_db: float | None = None,
    seed=None,
) -> RadarCube:
    """Render a scene into a radar cube.

    Parameters
    ----------
    tx_weights : array-like or BeamWeights, optional
        Transmit steering weights (length ``cfg.num_tx``); applied as an
        illumination gain on every scatterer.
    snr_db : float, optional
        Per-sample SNR of a unit-amplitude scatterer against the added
        circular complex white noise.  ``None`` leaves the cube noiseless.
    seed : int, numpy Generator, or None
        Noise randomness; ignored when ``snr_db`` is None.
    """
    frame_t, slow_t = _slow_times(cfg, scene.duration)
    cube = np.zeros((cfg.samples_per_chirp, slow_t.size, cfg.num_virtual),
                    dtype=np.complex128)
    for beat_r, slow_ant in _returns(scene, cfg, slow_t, tx_weights):
        cube += _fast_time(cfg, beat_r)[:, :, None] * slow_ant[None, :, :]

    if snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
        cube.real += sigma * rng.standard_normal(cube.shape)
        cube.imag += sigma * rng.standard_normal(cube.shape)

    return RadarCube(data=cube, config=cfg, frame_timestamps=frame_t)


def _still_frames(cfg: RadarConfig, n_frames: int) -> int:
    """Frames in the still window that ends the capture: the last
    :data:`fusion.STATIONARY_WINDOW_S` seconds, at least one frame and at
    most every frame."""
    return min(max(int(round(STATIONARY_WINDOW_S * cfg.frame_rate)), 1),
               n_frames)


def _tones(cfg: RadarConfig, beat_r: np.ndarray, bins: np.ndarray):
    """The range tones of the beat ranges ``beat_r`` (1-D) at range
    ``bins``, shaped ``(bins.size, beat_r.size)``: the DFT of the fast-time
    factor (:func:`_fast_time`) at those bins alone.

    In closed form, ``sum_n e^{2 pi i n d}`` with ``d = alpha - b/N`` the
    offset of the beat (``alpha`` cycles per sample) from bin ``b``, that
    is ``(1 - e^{2 pi i N d}) / (1 - e^{2 pi i d})``, written as
    ``e^{i pi (N-1) d} N sinc(N d) / sinc(d)`` so ``d = 0`` gives its limit
    ``N``.  Inside the beat limit ``|d| < 1``, where ``sinc(d)`` has no
    zero.
    """
    n = cfg.samples_per_chirp
    alpha = (cfg.chirp_slope_factor * cfg.adc_interval) * beat_r
    d = alpha[None, :] - bins[:, None] / n
    return (n * np.sinc(n * d) / np.sinc(d)) * np.exp((1j * np.pi * (n - 1))
                                                      * d)


def _row_noise(noise: np.random.SeedSequence, row: int, tail: int,
               out: np.ndarray) -> None:
    """Fill ``out`` (frames, antennas, 2) with standard normal (real,
    imaginary) pairs of range row ``row`` at the capture's last frames.

    The row's stream is the child of ``noise`` with spawn key ``row``, made
    directly (``SeedSequence.spawn`` counts its calls, so a second caller
    would get other streams).  It draws the last ``tail`` frames (the still
    window) first, then the frames of ``out`` before them.
    """
    rng = np.random.default_rng(np.random.SeedSequence(
        noise.entropy, spawn_key=noise.spawn_key + (row,)))
    rng.standard_normal(out=out[-tail:])
    rng.standard_normal(out=out[:-tail])


def render_profiles(scene: Scene, cfg: RadarConfig, bins, frames,
                    tx_weights=None, snr_db: float | None = None,
                    seed=None) -> np.ndarray:
    """Range profiles of a scene at range ``bins`` x ``frames``, one
    snapshot per frame (its first chirp).

    Without noise this equals ``range_fft(synthesize_cube(scene, cfg,
    tx_weights)).data`` at those bins and the frames' first chirps, up to
    rounding, shaped ``(len(bins), len(frames), num_virtual)``, but no cube
    is formed: each scatterer's range tone (:func:`_tones`) is computed at
    ``bins`` and the frames read, then multiplied by its slow-antenna
    factor (``_returns``).  The beat limit is checked at those frames only.

    ``snr_db`` adds the range transform of the cube's circular white noise.
    The DFT of i.i.d. circular Gaussian samples is i.i.d. across bins with
    ``samples_per_chirp`` times their variance, so the noise is drawn in the
    bin domain, from ``seed`` (a ``SeedSequence``, or an int or None to make
    one), one stream per range row (:func:`_row_noise`).  A sample's noise
    is then the same whichever render draws it, steered or not.
    """
    n_fast = cfg.samples_per_chirp
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size and (bins.min() < 0 or bins.max() > n_fast // 2):
        raise ValueError(f"range bins must lie in [0, {n_fast // 2}]")
    frame_t, _ = _slow_times(cfg, scene.duration)
    frames = np.arange(frame_t.size)[frames]
    out = np.zeros((bins.size, frames.size, cfg.num_virtual),
                   dtype=np.complex128)
    for beat_r, slow_ant in _returns(scene, cfg, frame_t[frames], tx_weights):
        for row, tone in zip(out, _tones(cfg, beat_r, bins)):
            row += tone[:, None] * slow_ant
    if snr_db is not None:
        sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0)) * np.sqrt(n_fast)
        noise = (seed if isinstance(seed, np.random.SeedSequence)
                 else np.random.SeedSequence(seed))
        n_frames = frame_t.size
        tail = _still_frames(cfg, n_frames)
        # Draw only the still window when no frame before it is read.
        first = (n_frames - tail
                 if frames.size and frames.min() >= n_frames - tail else 0)
        z = np.empty((bins.size, n_frames - first, cfg.num_virtual, 2))
        for z_row, b in zip(z, bins.tolist()):
            _row_noise(noise, b, tail, z_row)
        z = z[:, frames - first]
        out.real += sigma * z[..., 0]
        out.imag += sigma * z[..., 1]
    return out


def range_profiles(scene: Scene, cfg: RadarConfig, snr_db: float | None = None,
                   seed=None) -> RangeProfiles:
    """The heatmap's rows over the still window, rendered unsteered by
    :func:`render_profiles`.

    The rows are the bins at or below :data:`aoa.MAX_RANGE_M`; the frames
    are the last :data:`fusion.STATIONARY_WINDOW_S` seconds of the capture,
    the window in which the camera finds its still subjects, one snapshot
    per frame.
    """
    frame_t, _ = _slow_times(cfg, scene.duration)
    axis = np.arange(cfg.samples_per_chirp // 2 + 1) * range_bin_width(cfg)
    bins = np.arange(np.count_nonzero(axis <= MAX_RANGE_M))
    still = slice(frame_t.size - _still_frames(cfg, frame_t.size), None)
    data = render_profiles(scene, cfg, bins, still, snr_db=snr_db, seed=seed)
    return RangeProfiles(data=data, range_axis=axis[bins], config=cfg,
                         frame_timestamps=frame_t[still])


def window_profiles(scene: Scene, cfg: RadarConfig, center_bin: int,
                    tx_weights=None, snr_db: float | None = None,
                    seed=None) -> RangeProfiles:
    """The phase window's rows (:func:`vitals.channel_bins` around
    ``center_bin``) at every frame, rendered by :func:`render_profiles`
    with transmit weights ``tx_weights`` and the rows' own noise.

    A window that leaves the one-sided profile raises the ``ValueError``
    :func:`vitals.phase_window` raises, before anything is rendered.
    """
    bins = channel_bins(center_bin, cfg.samples_per_chirp // 2 + 1)
    frame_t, _ = _slow_times(cfg, scene.duration)
    data = render_profiles(scene, cfg, bins, slice(None), tx_weights,
                           snr_db=snr_db, seed=seed)
    return RangeProfiles(data=data,
                         range_axis=np.asarray(bins) * range_bin_width(cfg),
                         config=cfg, frame_timestamps=frame_t,
                         first_bin=bins.start)


# Camera image height, person box size and box corner jitter (sigma), in
# pixels; the image width and field of view are the fusion's.
IMAGE_HEIGHT_PX = 1080
BOX_WIDTH_PX = 150.0
BOX_HEIGHT_PX = 500.0
JITTER_PX = 2.0


def target_track_ids(scene: Scene) -> dict[str, VitalTarget]:
    """Each vital target by the track id its camera boxes carry."""
    return {f"target-{i}": tgt for i, tgt in enumerate(scene.targets)}


def synthesize_detections(scene: Scene, frame_rate: float,
                          seed=None) -> list[DetectionFrame]:
    """Generate per-frame bounding boxes for every person-like scatterer,
    ``frame_rate`` frames per second.

    Vital targets and movers whose azimuth falls inside the camera field of
    view (+-:data:`aoa.MAX_ANGLE_DEG`) get one box each; box centers follow
    the true azimuth through the linear angle-to-column map, with Gaussian
    pixel jitter (:data:`JITTER_PX`) on the corner coordinates.  Identities
    are stable (:func:`target_track_ids`, and ``mover-<i>``), mimicking an
    upstream tracker.  Static clutter produces no boxes.

    The jitter of all boxes is one ``(boxes, 2)`` draw of x and y in
    frame-major order, the stream of one x and one y draw per box.
    """
    rng = np.random.default_rng(seed)
    n_frames = int(round(scene.duration * frame_rate))
    times = [f / frame_rate for f in range(n_frames)]
    ids = [*target_track_ids(scene),
           *(f"mover-{i}" for i in range(len(scene.movers)))]
    # Azimuth of every entity (column) in every frame (row).
    angles = np.empty((n_frames, len(ids)))
    angles[:, :len(scene.targets)] = [t.angle_deg for t in scene.targets]
    for i, mv in enumerate(scene.movers, start=len(scene.targets)):
        angles[:, i] = mv.angle_at(np.asarray(times))
    seen = (-MAX_ANGLE_DEG <= angles) & (angles <= MAX_ANGLE_DEG)
    frame_of, entity_of = np.nonzero(seen)          # frame-major
    jitter = rng.normal(0.0, JITTER_PX, (frame_of.size, 2))
    cx = ((angles[seen] + MAX_ANGLE_DEG) / (2.0 * MAX_ANGLE_DEG)
          * IMAGE_WIDTH_PX)
    y_base = 0.5 * (IMAGE_HEIGHT_PX - BOX_HEIGHT_PX)
    xs = np.minimum(np.maximum(cx - 0.5 * BOX_WIDTH_PX + jitter[:, 0], 0.0),
                    IMAGE_WIDTH_PX - BOX_WIDTH_PX)
    ys = np.minimum(np.maximum(y_base + jitter[:, 1], 0.0),
                    IMAGE_HEIGHT_PX - BOX_HEIGHT_PX)
    frames = [DetectionFrame(timestamp=t) for t in times]
    for f, i, x, y in zip(frame_of.tolist(), entity_of.tolist(),
                          xs.tolist(), ys.tolist()):
        frames[f].boxes.append(Box(id=ids[i], x=x, y=y, w=BOX_WIDTH_PX,
                                   h=BOX_HEIGHT_PX))
    return frames
