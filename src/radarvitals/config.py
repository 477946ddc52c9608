"""Configuration types for the radar vital-sign simulation pipeline.

Everything downstream (cube synthesis, range processing, angle estimation,
beamforming, vital-rate extraction) is parameterized by the small set of
frozen dataclasses defined here.  All of them derive from :class:`Record`
and round-trip through plain dicts, so scenario files can be written as
JSON: ``to_dict`` walks the fields in order, and ``from_dict`` rejects an
unknown or missing key with a ``ValueError`` naming the class and the key.
``Record.__post_init__`` checks every field of every record, at every
level, against its annotation: a dict becomes the annotated record, a list
a tuple, and a value of the wrong type (or NaN or +-inf) raises a
``ValueError`` naming the record and the field.  Each class's own
``_check`` adds only its value checks; a failing one is raised with the
record's name in front.
"""
from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# Speed of light in vacuum, m/s: exact by the SI definition of the metre
# (the value of ``scipy.constants.c``, without scipy's import time).
SPEED_OF_LIGHT = 299_792_458.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def check_keys(owner: str, d, allowed, required=()) -> None:
    """Reject a non-dict ``d``, or a key of it outside ``allowed``, or a
    ``required`` key it lacks, with a ``ValueError`` naming ``owner``."""
    _require(isinstance(d, dict),
             f"{owner}: expected an object, not {type(d).__name__}")
    for key in d:
        _require(key in allowed, f"{owner}: unknown key {key!r}")
    for key in required:
        _require(key in d, f"{owner}: missing key {key!r}")


_REJECT = object()


def _conform(hint, value):
    """``value`` as the evaluated annotation ``hint`` admits it, else
    ``_REJECT``.  A dict becomes the annotated record (through
    ``from_dict``, so unknown and missing keys are still rejected), a list
    a tuple and a numpy number the Python number it holds (so ``json`` can
    write it); every other value is kept as written.  An int passes for a
    float; a bool (not a numpy bool) passes only for a bool; NaN and +-inf
    pass for nothing."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return next((out for out in (_conform(h, value) for h in args)
                     if out is not _REJECT), _REJECT)
    if origin is typing.Literal:
        return value if value in args else _REJECT
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return _REJECT
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        out = tuple(map(_conform, args, value))
        return (out if len(args) == len(value) and _REJECT not in out
                else _REJECT)
    if isinstance(value, dict) and issubclass(hint, Record):
        return hint.from_dict(value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        ok = (isinstance(value, kind) and not isinstance(value, bool)
              and abs(value) < math.inf)    # False for NaN too
        if ok and isinstance(value, np.generic):
            value = value.item()
    else:
        ok = isinstance(value, hint)
    return value if ok else _REJECT


# Each record class's evaluated annotations, resolved once.
_hints = functools.cache(typing.get_type_hints)


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Record:
    """Plain-dict round trip and field check shared by the config
    dataclasses."""

    def __post_init__(self) -> None:
        """Check every field against its annotation (:func:`_conform`),
        then run the record's value checks (:meth:`_check`).  A failure
        raises ``ValueError`` starting with the record's name."""
        name = type(self).__name__
        hints = _hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            out = _conform(hints[f.name], value)
            _require(out is not _REJECT, f"{name}: {f.name} must be "
                     f"{f.type} (finite), not {value!r}")
            object.__setattr__(self, f.name, out)
        try:
            self._check()
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None

    def _check(self) -> None:
        """Value checks beyond the annotations; none by default."""

    def to_dict(self) -> dict:
        """Fields in order; nested records become dicts, tuples lists."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """Build from a dict with only known keys and every required one."""
        fs = fields(cls)
        check_keys(cls.__name__, d, {f.name for f in fs},
                   [f.name for f in fs if f.default is MISSING
                    and f.default_factory is MISSING])
        return cls(**d)


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

    def _check(self) -> None:
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
                 "num_tx and num_rx must be >= 1")
        _require(self.tx_spacing > 0 and self.rx_spacing > 0,
                 "tx_spacing and rx_spacing must be positive")

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

    def _check(self) -> None:
        _require(self.freq > 0, "freq must be positive")
        _require(self.amp >= 0, "amp must be non-negative")
        _require(self.stop > self.start,
                 "window [start, stop) must be non-empty")


@dataclass(frozen=True)
class VitalParams(Record):
    """Chest-displacement model: breathing + heartbeat sinusoids plus
    optional transient body-motion bursts."""

    breath_freq: float = 0.25
    breath_amp: float = 4e-3
    heart_freq: float = 1.2
    heart_amp: float = 3e-4
    body_motion: tuple[BodyMotion, ...] = ()

    def _check(self) -> None:
        _require(0 < self.breath_freq < self.heart_freq,
                 "need 0 < breath_freq < heart_freq")
        _require(self.heart_amp < self.breath_amp,
                 "heart displacement must be smaller than breathing displacement")
        _require(self.breath_amp > 0 and self.heart_amp >= 0,
                 "amplitudes must be non-negative (breath_amp > 0)")


def _check_position(range_m: float, angle_deg: float) -> None:
    _require(range_m > 0, f"range_m must be positive, not {range_m!r}")
    _require(-90.0 <= angle_deg <= 90.0,
             f"angle_deg must lie in [-90, 90], not {angle_deg!r}")


@dataclass(frozen=True)
class PointReflector(Record):
    """Static point scatterer (wall, furniture...)."""

    range_m: float
    angle_deg: float
    amplitude: float = 1.0

    def _check(self) -> None:
        _check_position(self.range_m, self.angle_deg)


@dataclass(frozen=True)
class VitalTarget(Record):
    """Stationary person: fixed range/angle, chest micro-motion from vitals."""

    range_m: float
    angle_deg: float
    amplitude: float = 1.0
    vitals: VitalParams = field(default_factory=VitalParams)

    def _check(self) -> None:
        _check_position(self.range_m, self.angle_deg)


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

    def _check(self) -> None:
        _require(len(self.waypoints) >= 1, "needs at least one waypoint")
        times = [w[0] for w in self.waypoints]
        _require(times == sorted(times), "waypoint times must be sorted")
        for _, r, a in self.waypoints:
            _check_position(r, a)

    def range_at(self, t):
        times, ranges, _ = zip(*self.waypoints)
        return np.interp(t, times, ranges)

    def angle_at(self, t):
        times, _, angles = zip(*self.waypoints)
        return np.interp(t, times, angles)

    def amplitude_at(self, t):
        if not isinstance(self.amplitude, tuple):
            return np.full_like(np.asarray(t, dtype=float), float(self.amplitude))
        times, values = zip(*self.amplitude)
        return np.interp(t, times, values)


@dataclass(frozen=True)
class Scene(Record):
    """Everything standing in front of the radar plus the capture duration."""

    statics: tuple[PointReflector, ...] = ()
    targets: tuple[VitalTarget, ...] = ()
    movers: tuple[MovingReflector, ...] = ()
    duration: float = 30.0

    def _check(self) -> None:
        _require(self.duration > 0,
                 f"duration must be > 0, not {self.duration!r}")

