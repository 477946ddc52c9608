"""Configuration types for the radar vital-sign simulation pipeline.

Everything downstream (cube synthesis, range processing, angle estimation,
beamforming, vital-rate extraction) is parameterized by the small set of
frozen dataclasses defined here.  All of them derive from :class:`Record`
and round-trip through plain dicts, so scenario files can be written as
JSON: ``to_dict`` walks the fields in order, and ``from_dict`` rejects an
unknown or missing key with a ``ValueError`` naming the class and the key.
Each class's ``__post_init__`` is the one place nested dicts become records.
:func:`check_types` checks a record's fields against their annotations.
"""
from __future__ import annotations

import numbers
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def check_keys(owner: str, d, allowed, required=()) -> None:
    """Reject a non-dict ``d``, or a key of it outside ``allowed``, or a
    ``required`` key it lacks, with a ``ValueError`` naming ``owner``."""
    if not isinstance(d, dict):
        raise ValueError(f"{owner}: expected an object, not "
                         f"{type(d).__name__}")
    for key in d:
        _require(key in allowed, f"{owner}: unknown key {key!r}")
    for key in required:
        _require(key in d, f"{owner}: missing key {key!r}")


def _admits(hint, value) -> bool:
    """Whether ``value`` is of the evaluated annotation ``hint``.

    An int passes for a float; a bool passes only for a bool; NaN passes
    for nothing.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_admits(h, value) for h in typing.get_args(hint))
    if origin is typing.Literal:
        return value in typing.get_args(hint)
    if origin is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, (tuple, list)) and len(value) == len(args)
                and all(_admits(h, v) for h, v in zip(args, value)))
    if hint is type(None):
        return value is None
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return (isinstance(value, kind) and not isinstance(value, bool)
                and value == value)         # NaN != NaN
    return isinstance(value, hint)


def check_types(record) -> None:
    """Reject a field whose value is not of its annotated type with a
    ``ValueError`` naming the record and the field; no value is converted."""
    hints = typing.get_type_hints(type(record))
    for f in fields(record):
        value = getattr(record, f.name)
        _require(_admits(hints[f.name], value),
                 f"{type(record).__name__}: {f.name} must be {f.type}, "
                 f"not {value!r}")


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Record:
    """Plain-dict round trip shared by the config dataclasses."""

    def to_dict(self) -> dict:
        """Fields in order; nested records become dicts, tuples lists."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """Build from a dict with only known keys and every required one;
        a value of the wrong type also raises ``ValueError``."""
        fs = fields(cls)
        check_keys(cls.__name__, d, {f.name for f in fs},
                   [f.name for f in fs if f.default is MISSING
                    and f.default_factory is MISSING])
        try:
            return cls(**d)
        except TypeError as e:
            raise ValueError(f"{cls.__name__}: {e}") from e


def as_record(cls, value):
    return value if isinstance(value, cls) else cls.from_dict(value)


def _records(cls, values) -> tuple:
    return tuple(as_record(cls, v) for v in values)


@dataclass(frozen=True)
class RadarConfig(Record):
    """FMCW chirp and antenna-array parameters.

    Parameters
    ----------
    carrier_freq : float
        Chirp start frequency f_c in Hz.
    bandwidth : float
        Swept bandwidth B in Hz.
    chirp_duration : float
        Active chirp (sweep) time T_c in seconds.
    pri : float
        Pulse repetition interval T in seconds (chirp start to chirp start
        inside one frame); must be >= chirp_duration.
    adc_interval : float
        Fast-time sample spacing T_f in seconds.
    samples_per_chirp : int
        Number of ADC samples captured per chirp.
    chirps_per_frame : int
        Chirps transmitted back-to-back at the start of each frame.
    frame_rate : float
        Frames per second; frames are spaced 1/frame_rate apart, which sets
        the slow-time sampling rate seen by the vital-sign chain.
    num_tx, num_rx : int
        Physical transmit / receive channel counts.  The received cube is
        modeled on the idealized virtual array of num_tx * num_rx elements
        spaced rx_spacing apart.
    tx_spacing : float
        Transmit element spacing d in meters (used by transmit steering).
    rx_spacing : float
        Virtual receive element spacing d_r in meters.
    """

    carrier_freq: float = 77e9
    bandwidth: float = 0.5e9
    chirp_duration: float = 50e-6
    pri: float = 60e-6
    adc_interval: float = 50e-6 / 128
    samples_per_chirp: int = 128
    chirps_per_frame: int = 4
    frame_rate: float = 20.0
    num_tx: int = 2
    num_rx: int = 4
    tx_spacing: float = SPEED_OF_LIGHT / 77e9
    rx_spacing: float = SPEED_OF_LIGHT / 77e9 / 2

    def __post_init__(self) -> None:
        _require(self.carrier_freq > 0, "carrier_freq must be positive")
        _require(self.bandwidth > 0, "bandwidth must be positive")
        _require(self.chirp_duration > 0, "chirp_duration must be positive")
        _require(self.adc_interval > 0, "adc_interval must be positive")
        _require(self.pri >= self.chirp_duration,
                 "pri must be at least chirp_duration")
        _require(self.samples_per_chirp >= 1, "samples_per_chirp must be >= 1")
        _require(
            self.samples_per_chirp * self.adc_interval
            <= self.chirp_duration * (1 + 1e-12),
            "samples_per_chirp * adc_interval must not exceed chirp_duration",
        )
        _require(self.chirps_per_frame >= 1, "chirps_per_frame must be >= 1")
        _require(self.frame_rate > 0, "frame_rate must be positive")
        _require(
            self.chirps_per_frame * self.pri <= 1.0 / self.frame_rate,
            "chirps of one frame must fit inside the frame period",
        )
        _require(self.num_tx >= 1 and self.num_rx >= 1,
                 "antenna counts must be >= 1")
        _require(self.tx_spacing > 0 and self.rx_spacing > 0,
                 "antenna spacings must be positive")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength lambda = c / f_c in meters."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def chirp_slope_factor(self) -> float:
        """Beat-frequency-per-meter factor alpha = 2B / (c T_c) in Hz/m."""
        return 2.0 * self.bandwidth / (SPEED_OF_LIGHT * self.chirp_duration)

    @property
    def num_virtual(self) -> int:
        return self.num_tx * self.num_rx

    @property
    def beat_nyquist(self) -> float:
        """Highest unaliased beat frequency, 1 / (2 T_f)."""
        return 0.5 / self.adc_interval

    @property
    def max_unambiguous_range(self) -> float:
        """Range whose beat frequency hits the fast-time Nyquist limit."""
        return self.beat_nyquist / self.chirp_slope_factor

    @property
    def frame_period(self) -> float:
        return 1.0 / self.frame_rate


@dataclass(frozen=True)
class BodyMotion(Record):
    """One additive sinusoidal body-motion burst, active on [start, stop)."""

    freq: float
    amp: float
    start: float
    stop: float

    def __post_init__(self) -> None:
        _require(self.freq > 0, "body motion freq must be positive")
        _require(self.amp >= 0, "body motion amp must be non-negative")
        _require(self.stop > self.start, "body motion window must be non-empty")


@dataclass(frozen=True)
class VitalParams(Record):
    """Chest-displacement model: breathing + heartbeat sinusoids plus
    optional transient body-motion bursts."""

    breath_freq: float = 0.25
    breath_amp: float = 4e-3
    heart_freq: float = 1.2
    heart_amp: float = 3e-4
    body_motion: tuple[BodyMotion, ...] = ()

    def __post_init__(self) -> None:
        _require(0 < self.breath_freq < self.heart_freq,
                 "need 0 < breath_freq < heart_freq")
        _require(self.heart_amp < self.breath_amp,
                 "heart displacement must be smaller than breathing displacement")
        _require(self.breath_amp > 0 and self.heart_amp >= 0,
                 "amplitudes must be non-negative (breath_amp > 0)")
        object.__setattr__(self, "body_motion",
                           _records(BodyMotion, self.body_motion))


def _check_angle(angle: float, what: str) -> None:
    _require(-90.0 <= angle <= 90.0, f"{what} angle must lie in [-90, 90] deg")


@dataclass(frozen=True)
class PointReflector(Record):
    """Static point scatterer (wall, furniture...)."""

    range_m: float
    angle_deg: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _require(self.range_m > 0, "static reflector range must be positive")
        _check_angle(self.angle_deg, "static reflector")


@dataclass(frozen=True)
class VitalTarget(Record):
    """Stationary person: fixed range/angle, chest micro-motion from vitals."""

    range_m: float
    angle_deg: float
    amplitude: float = 1.0
    vitals: VitalParams = field(default_factory=VitalParams)

    def __post_init__(self) -> None:
        _require(self.range_m > 0, "target range must be positive")
        _check_angle(self.angle_deg, "target")
        object.__setattr__(self, "vitals", as_record(VitalParams, self.vitals))


@dataclass(frozen=True)
class MovingReflector(Record):
    """Moving interferer following a piecewise-linear (t, range, angle) path.

    ``waypoints`` is a sequence of (time, range_m, angle_deg) triples sorted
    by time; position is linearly interpolated and held constant outside the
    covered interval.  ``amplitude`` may be a constant or (time, value) pairs.
    Optional ``body_motion`` bursts ride on top of the interpolated range.
    """

    waypoints: tuple[tuple[float, float, float], ...]
    amplitude: float | tuple[tuple[float, float], ...] = 1.0
    body_motion: tuple[BodyMotion, ...] = ()

    def __post_init__(self) -> None:
        wps = tuple(tuple(float(v) for v in w) for w in self.waypoints)
        _require(len(wps) >= 1, "mover needs at least one waypoint")
        _require(all(len(w) == 3 for w in wps),
                 "waypoints must be (time, range_m, angle_deg) triples")
        times = [w[0] for w in wps]
        _require(times == sorted(times), "waypoint times must be sorted")
        for _, r, a in wps:
            _require(r > 0, "mover range must be positive")
            _check_angle(a, "mover")
        object.__setattr__(self, "waypoints", wps)
        if not isinstance(self.amplitude, (int, float)):
            amp = tuple(tuple(float(v) for v in p) for p in self.amplitude)
            _require(all(len(p) == 2 for p in amp),
                     "amplitude profile must be (time, value) pairs")
            object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "body_motion",
                           _records(BodyMotion, self.body_motion))

    def range_at(self, t):
        times = [w[0] for w in self.waypoints]
        ranges = [w[1] for w in self.waypoints]
        return np.interp(t, times, ranges)

    def angle_at(self, t):
        times = [w[0] for w in self.waypoints]
        angles = [w[2] for w in self.waypoints]
        return np.interp(t, times, angles)

    def amplitude_at(self, t):
        if isinstance(self.amplitude, (int, float)):
            return np.full_like(np.asarray(t, dtype=float), float(self.amplitude))
        times = [p[0] for p in self.amplitude]
        vals = [p[1] for p in self.amplitude]
        return np.interp(t, times, vals)


@dataclass(frozen=True)
class Scene(Record):
    """Everything standing in front of the radar plus the capture duration."""

    statics: tuple[PointReflector, ...] = ()
    targets: tuple[VitalTarget, ...] = ()
    movers: tuple[MovingReflector, ...] = ()
    duration: float = 30.0

    def __post_init__(self) -> None:
        _require(self.duration > 0, "scene duration must be positive")
        for name, cls in (("statics", PointReflector),
                          ("targets", VitalTarget),
                          ("movers", MovingReflector)):
            object.__setattr__(self, name, _records(cls, getattr(self, name)))


@dataclass(frozen=True)
class CameraConfig(Record):
    """Synthetic detection-stream geometry.

    The camera shares the radar boresight; azimuth maps linearly from
    [-afov_deg, +afov_deg] onto image columns [0, image_width].
    """

    image_width: int = 1920
    image_height: int = 1080
    afov_deg: float = 60.0
    fps: float | None = None          # default: radar frame rate
    jitter_px: float = 2.0
    box_width_px: float = 150.0
    box_height_px: float = 500.0

    def __post_init__(self) -> None:
        _require(self.image_width > 0 and self.image_height > 0,
                 "image dimensions must be positive")
        _require(0 < self.afov_deg <= 90, "afov_deg must lie in (0, 90]")
        _require(self.jitter_px >= 0, "jitter_px must be non-negative")
        _require(self.box_width_px > 0 and self.box_height_px > 0,
                 "box dimensions must be positive")
