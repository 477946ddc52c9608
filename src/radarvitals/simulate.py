"""Synthetic FMCW radar data and camera detections.

The simulator evaluates the dechirped baseband model directly.  Every
scatterer is one tuple ``(beat range, phase range, angle, amplitude)``,
each entry a scalar or an array over slow time (``_scatterers``): a static
is all scalars; a vital target beats at its nominal range while its phase
range adds the chest micro-motion; a mover is arrays along its path.  It
contributes a complex tone across fast time (beat frequency proportional
to the beat range) times a slow-time factor carrying the amplitude, the
two-way carrier phase of the phase range and the receive-array response.
Cubes are indexed ``[fast_sample, slow_sample, virtual_antenna]``.  The
chirp and the arrays are :class:`RadarConfig`'s class constants, read where
they are needed; a renderer's ``cfg`` gives only the frame timing.

Transmit beamforming is modeled as a per-scatterer illumination gain: with
steering weights ``w`` the field hitting a scatterer at azimuth theta scales
by ``w^H a_tx(theta)``.  Every array response, transmit and receive, is
:func:`aoa.steering_matrix`.

Two renderers share one per-scatterer signal model (``_returns``):

* :func:`synthesize_cube` renders the raw cube, one whole-cube product
  per scatterer; the pipeline never calls it, it is the reference the
  range-domain renderer is tested against.
* :func:`render_profiles` renders the range profiles (the cube's fast-time
  FFT) directly at a block of consecutive bins and at chosen frames, one
  snapshot per frame (the frame's first chirp, the only one any stage
  reads), noise included, as :class:`rangefft.RangeProfiles`.  Each
  scatterer's range tone is the closed-form DFT of its fast-time factor,
  computed at those bins and frames only (:func:`_tones`).  Range row ``r``
  draws its noise from a stream of its own, the still window's frames
  first (:func:`_row_noise`), so a sample has one value whichever render
  draws it.  Each pipeline stage asks for the rows and frames it reads.

The camera (:func:`synthesize_detections`) gives every person's box x and
width in every frame as one :class:`fusion.Detections` record of arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aoa import MAX_ANGLE_DEG, steering_matrix
from .config import BodyMotion, RadarConfig, Scene, VitalParams, VitalTarget
from .fusion import IMAGE_WIDTH_PX, Detections, still_frames
from .rangefft import RangeProfiles


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


def _illumination(angles_deg, tx_weights):
    """Transmit-array gain ``w^H a_tx(theta)``, one per angle (1-D)."""
    angles_deg = np.atleast_1d(angles_deg)
    if tx_weights is None:
        return np.ones(angles_deg.shape, dtype=np.complex128)
    w = np.asarray(getattr(tx_weights, "weights", tx_weights),
                   dtype=np.complex128)
    n_tx = RadarConfig.num_tx
    if w.shape != (n_tx,):
        raise ValueError(
            f"tx_weights must have length num_tx={n_tx}, got {w.shape}")
    return w.conj() @ steering_matrix(angles_deg, n_tx, RadarConfig.tx_spacing)


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


def _fast_time(beat_r: np.ndarray) -> np.ndarray:
    """The fast-time beat tones of the beat ranges ``beat_r`` (1-D), shaped
    ``(samples_per_chirp, beat_r.size)``."""
    fast_t = (np.arange(RadarConfig.samples_per_chirp)
              * RadarConfig.adc_interval)
    return np.exp((2j * np.pi * RadarConfig.chirp_slope_factor)
                  * np.multiply.outer(fast_t, beat_r))


def _returns(scene: Scene, slow_t: np.ndarray, tx_weights):
    """Noise-free return of every scatterer at slow times ``slow_t``.

    Yields one ``(beat_r, slow_ant)`` pair per scatterer tuple of
    :func:`_scatterers`, shaped ``(1 or S,)`` and ``(1 or S, num_virtual)``
    with ``S = slow_t.size``; the scatterer adds ``fast[:, :, None] *
    slow_ant[None, :, :]`` to the cube, where ``fast = _fast_time(beat_r)``
    is the fast-time beat tone of the beat range, checked against the beat
    limit here.  ``slow_ant`` holds the amplitude, the carrier
    phase of the phase range, the illumination gain and the receive-array
    response (:func:`aoa.steering_matrix`).
    """
    for beat_r, phase_r, angle, amp in _scatterers(scene, slow_t):
        beat_r = np.atleast_1d(beat_r)
        r_max = float(beat_r.max())
        if RadarConfig.chirp_slope_factor * r_max >= RadarConfig.beat_nyquist:
            raise ValueError(
                f"scene range {r_max:.2f} m puts the beat frequency at or "
                f"above the fast-time Nyquist limit "
                f"({RadarConfig.max_unambiguous_range:.2f} m)")
        coef = (amp * _illumination(angle, tx_weights)
                * np.exp((4j * np.pi / RadarConfig.wavelength) * phase_r))
        ant = steering_matrix(angle, RadarConfig.num_virtual,
                              RadarConfig.rx_spacing)
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
    for beat_r, slow_ant in _returns(scene, slow_t, tx_weights):
        cube += _fast_time(beat_r)[:, :, None] * slow_ant[None, :, :]

    if snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
        cube.real += sigma * rng.standard_normal(cube.shape)
        cube.imag += sigma * rng.standard_normal(cube.shape)

    return RadarCube(data=cube, config=cfg, frame_timestamps=frame_t)


def _tones(beat_r: np.ndarray, bins: np.ndarray):
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
    n = RadarConfig.samples_per_chirp
    alpha = ((RadarConfig.chirp_slope_factor * RadarConfig.adc_interval)
             * beat_r)
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


def render_profiles(scene: Scene, cfg: RadarConfig, bins: range, frames,
                    tx_weights=None, snr_db: float | None = None,
                    seed=None) -> RangeProfiles:
    """Range profiles of a scene at the consecutive range ``bins`` and at
    ``frames`` (an index into the capture's frames), one snapshot per frame
    (its first chirp), held from ``first_bin = bins.start`` on.

    Without noise the data equals ``range_fft(synthesize_cube(scene, cfg,
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
    if bins.step != 1 or (bins and (bins.start < 0
                                    or bins.stop > cfg.num_range_bins)):
        raise ValueError(f"range bins must lie in "
                         f"[0, {cfg.num_range_bins - 1}], one step apart")
    rows = np.arange(bins.start, bins.stop)
    frame_t, _ = _slow_times(cfg, scene.duration)
    frames = np.arange(frame_t.size)[frames]
    out = np.zeros((rows.size, frames.size, cfg.num_virtual),
                   dtype=np.complex128)
    for beat_r, slow_ant in _returns(scene, frame_t[frames], tx_weights):
        for row, tone in zip(out, _tones(beat_r, rows)):
            row += tone[:, None] * slow_ant
    if snr_db is not None:
        sigma = (np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
                 * np.sqrt(cfg.samples_per_chirp))
        noise = (seed if isinstance(seed, np.random.SeedSequence)
                 else np.random.SeedSequence(seed))
        n_frames = frame_t.size
        tail = min(still_frames(cfg.frame_rate), n_frames)
        # Draw only the still window when no frame before it is read.
        first = (n_frames - tail
                 if frames.size and frames.min() >= n_frames - tail else 0)
        z = np.empty((rows.size, n_frames - first, cfg.num_virtual, 2))
        for z_row, b in zip(z, bins):
            _row_noise(noise, b, tail, z_row)
        z = z[:, frames - first]
        out.real += sigma * z[..., 0]
        out.imag += sigma * z[..., 1]
    return RangeProfiles(out, cfg, frame_t[frames], first_bin=bins.start)


# Camera person box width and its x jitter (sigma), in pixels; the image
# width and field of view are the fusion's.
BOX_WIDTH_PX = 150.0
JITTER_PX = 2.0


def target_track_ids(scene: Scene) -> dict[str, VitalTarget]:
    """Each vital target by the track id its camera boxes carry."""
    return {f"target-{i}": tgt for i, tgt in enumerate(scene.targets)}


def synthesize_detections(scene: Scene, frame_rate: float,
                          seed=None) -> Detections:
    """Generate the bounding boxes of every person-like scatterer,
    ``frame_rate`` frames per second, as one :class:`fusion.Detections`.

    Vital targets and movers whose azimuth falls inside the camera field of
    view (+-:data:`aoa.MAX_ANGLE_DEG`) get one box each; box centers follow
    the true azimuth through the linear angle-to-column map, with Gaussian
    pixel jitter (:data:`JITTER_PX`) on the left edge.  Identities are
    stable (:func:`target_track_ids`, then ``mover-<i>``), mimicking an
    upstream tracker.  Static clutter produces no boxes.

    The jitter of all boxes is one ``(boxes, 2)`` draw in frame-major
    order, the stream of one x and one y draw per box; the y column, which
    no stage reads, is dropped.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(int(round(scene.duration * frame_rate))) / frame_rate
    ids = [*target_track_ids(scene),
           *(f"mover-{i}" for i in range(len(scene.movers)))]
    # Azimuth of every entity (column) in every frame (row).
    angles = np.empty((times.size, len(ids)))
    angles[:, :len(scene.targets)] = [t.angle_deg for t in scene.targets]
    for i, mv in enumerate(scene.movers, start=len(scene.targets)):
        angles[:, i] = mv.angle_at(times)
    seen = (-MAX_ANGLE_DEG <= angles) & (angles <= MAX_ANGLE_DEG)
    jitter = rng.normal(0.0, JITTER_PX, (np.count_nonzero(seen), 2))[:, 0]
    cx = ((angles[seen] + MAX_ANGLE_DEG) / (2.0 * MAX_ANGLE_DEG)
          * IMAGE_WIDTH_PX)
    xs = np.full(angles.shape, np.nan)
    xs[seen] = np.clip(cx - 0.5 * BOX_WIDTH_PX + jitter, 0.0,
                       IMAGE_WIDTH_PX - BOX_WIDTH_PX)
    return Detections(times=times, ids=ids, xs=xs,
                      ws=np.where(seen, BOX_WIDTH_PX, np.nan))
