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
  FFT) directly at chosen bins and slow samples, noise included, and
  :func:`range_profiles` wraps the bins a run reads as
  :class:`RangeProfiles`.  Each scatterer's range-domain tone (the FFT of
  its fast-time factor) depends on the scene and the radar only, so it is
  computed once per scene and held in one module-level slot
  (:func:`_tones`): every later render of the scene, another seed's or
  the steering correction, reuses it, byte for byte.
  Every return is linear in its gain and the noise does not depend on it,
  so the same renderer with the gain offset by one and no noise gives the
  steered-minus-unsteered difference that transmit steering adds to
  unsteered profiles.
"""
from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .aoa import MAX_ANGLE_DEG, MAX_RANGE_M, steering_matrix
from .config import BodyMotion, RadarConfig, Scene, VitalParams, VitalTarget
from .fusion import IMAGE_WIDTH_PX, Box, DetectionFrame
from .rangefft import RangeProfiles, range_bin_width
from .vitals import PHASE_CHANNELS


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


def _returns(scene: Scene, cfg: RadarConfig, slow_t: np.ndarray, tx_weights,
             gain_offset: float = 0.0):
    """Noise-free return of every scatterer at slow times ``slow_t``.

    Yields one ``(beat_r, slow_ant)`` pair per scatterer tuple of
    :func:`_scatterers`, shaped ``(1 or S,)`` and ``(1 or S, num_virtual)``
    with ``S = slow_t.size``; the scatterer adds ``fast[:, :, None] *
    slow_ant[None, :, :]`` to the cube, where ``fast = _fast_time(cfg,
    beat_r)`` is the fast-time beat tone of the beat range, checked against
    the beat limit here.  ``slow_ant`` holds the amplitude, the carrier
    phase of the phase range, the illumination gain and the receive-array
    response (:func:`aoa.steering_matrix`).  The gain is the illumination
    gain of ``tx_weights`` minus ``gain_offset``; every return is linear in
    it.
    """
    lam = cfg.wavelength
    for beat_r, phase_r, angle, amp in _scatterers(scene, slow_t):
        beat_r = np.atleast_1d(beat_r)
        _check_beat(cfg, float(beat_r.max()))
        gain = _illumination(angle, tx_weights, cfg) - gain_offset
        coef = amp * gain * np.exp((4j * np.pi / lam) * phase_r)
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


def _start_noise_worker() -> None:
    """Create :data:`_NOISE_DRAW`: one worker, since a render's noise is one
    seeded stream, drawn in order on its thread while the calling thread
    renders the signal (numpy's fill releases the GIL).  Renders from
    several threads queue their draws there.  A forked child gets a worker
    of its own; the parent's thread does not exist in it."""
    global _NOISE_DRAW
    _NOISE_DRAW = futures.ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="radarvitals-noise")


_start_noise_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_noise_worker)


def _draw_noise(rng: np.random.Generator, planes: np.ndarray,
                sigma: float) -> None:
    """Fill each plane of ``planes`` in turn with ``sigma`` times standard
    normal draws of ``rng``."""
    for plane in planes:
        rng.standard_normal(out=plane)
        plane *= sigma


# Slow samples per block when an array-valued scatterer's tones are
# computed, so no (samples_per_chirp, S) temporary is formed.
TONE_BLOCK = 256

# ``(key, tones)`` of the last scene :func:`_tones` computed.  It is read
# and replaced whole, never changed in place, so concurrent renders need no
# lock: a race costs a computation, and an entry always belongs to its key.
_TONES: tuple[str, tuple[np.ndarray, ...]] | None = None


def _tones(scene: Scene, cfg: RadarConfig) -> tuple[np.ndarray, ...]:
    """Each scatterer's range-domain tone, in :func:`_scatterers` order.

    A tone is the fast-time FFT of the scatterer's fast-time factor
    (:func:`_fast_time`) at all ``samples_per_chirp // 2 + 1`` one-sided
    bins: one column for a scalar beat range, one column per slow sample of
    the scene for an array-valued one.  It depends on the scene and the
    radar only, so the tones are held in :data:`_TONES`, keyed on
    ``repr((scene, cfg))`` (so -0.0 and 0.0, or 30 and 30.0, are different
    scenes), and every render of the scene reads them: later seeds and the
    steering correction compute none.  The arrays are read-only.  A miss
    empties the slot first and computes an array-valued tone
    :data:`TONE_BLOCK` slow samples at a time; it checks no beat limit.
    """
    global _TONES
    key = repr((scene, cfg))
    held = _TONES
    if held is not None and held[0] == key:
        return held[1]
    held = _TONES = None              # this frame's reference goes too
    n_bins = cfg.samples_per_chirp // 2 + 1
    _, slow_t = _slow_times(cfg, scene.duration)
    tones = []
    for beat_r, *_ in _scatterers(scene, slow_t):
        beat_r = np.atleast_1d(beat_r)
        tone = np.empty((n_bins, beat_r.size), dtype=np.complex128)
        for start in range(0, beat_r.size, TONE_BLOCK):
            cols = slice(start, start + TONE_BLOCK)
            tone[:, cols] = np.fft.fft(_fast_time(cfg, beat_r[cols]),
                                       axis=0)[:n_bins]
        tone.flags.writeable = False
        tones.append(tone)
    tones = tuple(tones)
    _TONES = (key, tones)
    return tones


def render_profiles(scene: Scene, cfg: RadarConfig, bins, slow_idx,
                    tx_weights=None, gain_offset: float = 0.0,
                    snr_db: float | None = None, seed=None) -> np.ndarray:
    """Range profiles of a scene at range ``bins`` x slow samples ``slow_idx``.

    Without noise this equals ``range_fft(synthesize_cube(scene, cfg,
    tx_weights)).data`` at those bins and samples, up to rounding, shaped
    ``(len(bins), S, num_virtual)``, but no cube is formed: each
    scatterer's range-domain tone (:func:`_tones`, computed once per scene)
    is read at ``bins`` and, if it varies over slow time, at ``slow_idx``,
    then multiplied by its slow-antenna factor (``_returns``), computed per
    call.  The illumination gain is that of ``tx_weights`` minus
    ``gain_offset``, so ``gain_offset=1`` gives what steering adds to the
    unsteered profiles.  The beat limit is checked at ``slow_idx`` only.

    ``snr_db`` adds the range transform of the cube's circular white noise,
    drawn from ``seed``.  The DFT of i.i.d. circular Gaussian samples is
    i.i.d. across bins with ``samples_per_chirp`` times their variance, so
    the noise is drawn in the bin domain, only at ``bins`` and
    ``slow_idx``.  It is drawn on :data:`_NOISE_DRAW`'s thread while this
    one renders the signal, then added: the same draws in the same order,
    and the same one addition per sample, as a serial draw.
    """
    n_fast = cfg.samples_per_chirp
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size and (bins.min() < 0 or bins.max() > n_fast // 2):
        raise ValueError(f"range bins must lie in [0, {n_fast // 2}]")
    _, slow_t = _slow_times(cfg, scene.duration)
    slow_t = slow_t[slow_idx]
    out = np.zeros((bins.size, slow_t.size, cfg.num_virtual),
                   dtype=np.complex128)
    draw = None
    if snr_db is not None:
        sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0)) * np.sqrt(n_fast)
        noise = np.empty((2,) + out.shape)      # real plane, imaginary plane
        draw = _NOISE_DRAW.submit(_draw_noise, np.random.default_rng(seed),
                                  noise, sigma)
    try:
        returns = _returns(scene, cfg, slow_t, tx_weights,
                           gain_offset=gain_offset)
        for tone, (_, slow_ant) in zip(_tones(scene, cfg), returns):
            tone = tone[bins]
            if tone.shape[1] > 1:
                tone = tone[:, slow_idx]
            # Row by row, so no whole-profile temporary sits beside the
            # noise planes.
            for row, t in zip(out, tone):
                row += t[:, None] * slow_ant
    finally:
        if draw is not None:
            futures.wait((draw,))
    if draw is not None:
        draw.result()
        out.real += noise[0]
        out.imag += noise[1]
    return out


def range_profiles(scene: Scene, cfg: RadarConfig, snr_db: float | None = None,
                   seed=None) -> RangeProfiles:
    """The range bins a run reads, at every slow sample, rendered by
    :func:`render_profiles`.

    These are the first bins of the one-sided profile: those at or below
    :data:`aoa.MAX_RANGE_M` (the heatmap's) plus half a phase window
    (:data:`vitals.PHASE_CHANNELS`) beyond the last, so a target localized
    there keeps its channels; at most the whole profile.  They hold the
    rows ``range_fft(synthesize_cube(scene, cfg, snr_db=snr_db,
    seed=seed))`` would hold, with the same signal up to rounding and a
    noise realisation of their own.
    """
    frame_t, _ = _slow_times(cfg, scene.duration)
    full = cfg.samples_per_chirp // 2 + 1
    axis = np.arange(full) * range_bin_width(cfg)
    near = int(np.count_nonzero(axis <= MAX_RANGE_M))
    bins = np.arange(min(near + PHASE_CHANNELS // 2, full))
    data = render_profiles(scene, cfg, bins, slice(None), snr_db=snr_db,
                           seed=seed)
    return RangeProfiles(data=data, range_axis=axis[bins], config=cfg,
                         frame_timestamps=frame_t)


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
