"""Phase-only transmit / receive beam steering for uniform linear arrays,
at the radar's one carrier wavelength (:func:`aoa.steering_matrix`)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aoa import steering_matrix
from .config import RadarConfig


@dataclass(frozen=True)
class BeamWeights:
    """Steering weights plus the element spacing (m) they were built for."""

    weights: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.complex128)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.allclose(np.abs(w), 1.0, atol=1e-9):
            raise ValueError("steering weights must be phase-only (unit modulus)")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


def _steer(steer_deg: float, num_elements: int, spacing: float) -> BeamWeights:
    if not -90.0 <= steer_deg <= 90.0:
        raise ValueError("steer angle must lie in [-90, 90] degrees")
    w = steering_matrix(steer_deg, num_elements, spacing)[:, 0]
    return BeamWeights(weights=w, spacing=spacing)


def tx_weights(steer_deg: float) -> BeamWeights:
    """Transmit steering of the radar's transmit array
    (``RadarConfig.num_tx`` elements one wavelength apart)."""
    return _steer(steer_deg, RadarConfig.num_tx, RadarConfig.tx_spacing)


def rx_weights(steer_deg: float) -> BeamWeights:
    """Receive steering of the radar's virtual array
    (``RadarConfig.num_virtual`` elements half a wavelength apart)."""
    return _steer(steer_deg, RadarConfig.num_virtual, RadarConfig.rx_spacing)


def combine(snapshots: np.ndarray, bw: BeamWeights) -> np.ndarray:
    """Coherent sum w^H x across the array axis (the last axis).

    Every array in this package is laid out ``[..., element]``, so a single
    snapshot ``(K,)``, a slow-time series ``(S, K)`` or a block of range bins
    ``(L, S, K)`` are all combined the same way.
    """
    x = np.asarray(snapshots)
    if x.shape[-1] != len(bw):
        raise ValueError(
            f"snapshot array last axis ({x.shape[-1]}) does not match the "
            f"{len(bw)}-element weights")
    return np.einsum("...k,k->...", x, bw.weights.conj())


@dataclass
class BeamPattern:
    angles_deg: np.ndarray
    gain_db: np.ndarray


def beam_pattern(bw: BeamWeights, angles_deg=None,
                 step_deg: float = 0.25) -> BeamPattern:
    """Array-factor magnitude in dB, 0 dB at the mainlobe peak.

    The default grid spans [-90, +90] degrees at ``step_deg`` resolution.
    Phase-only weights align perfectly at their steering angle, so the
    mainlobe peak equals the element count; normalizing by it keeps the
    scale independent of the evaluation grid.  The floor is clipped at
    -240 dB.
    """
    if angles_deg is None:
        angles_deg = np.arange(-90.0, 90.0 + 0.5 * step_deg, step_deg)
    angles_deg = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    gain = np.abs(combine(steering_matrix(angles_deg, len(bw), bw.spacing).T,
                          bw))
    gain_db = 20.0 * np.log10(np.maximum(gain / len(bw), 1e-12))
    return BeamPattern(angles_deg=angles_deg, gain_db=gain_db)


def write_pattern_csv(pattern: BeamPattern, path) -> None:
    with open(path, "w") as fh:
        fh.write("angle_deg,gain_db\n")
        for a, g in zip(pattern.angles_deg, pattern.gain_db):
            fh.write(f"{a:.4f},{g:.6f}\n")
