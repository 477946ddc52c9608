"""End-to-end scenario runner: one stage chain from scene to rates.

A :class:`ScenarioSpec` bundles the radar and scene parameters and the two
processing knobs a run varies (JSON-serializable, see ``scenarios/``);
every other setting is fixed in its stage's module, the camera's too (its
field of view is the angle grid's, :data:`aoa.MAX_ANGLE_DEG`, and it runs
at the radar frame rate).  :func:`run_scenario` executes one seeded
repetition as a single chain of timed stages:

* scene stages - ``simulate`` (the heatmap's rows, the bins at or below
  :data:`aoa.MAX_RANGE_M`, rendered directly at the still window's frames,
  the last :data:`fusion.STATIONARY_WINDOW_S` seconds, one snapshot per
  frame, see :func:`simulate.range_profiles`; and the camera boxes, their
  jitter one vectorized draw), ``heatmap`` (the MVDR covariance of each
  row from one snapshot per frame over the still window), ``localize``;
* per localized target, the vitals chain - ``beamform`` (when beamforming
  is on: transmit and receive weights steered at the target), ``phase``
  (the phase window's rows rendered at every frame, steered when
  beamforming, see :func:`simulate.window_profiles`), ``weights``,
  ``mode_count``, ``spectrum``, ``decompose``, ``rates``.

Each render reads only what its stage reads, and range row ``r`` draws its
noise from a stream of its own (the ``r``-th child of the run's noise
seed), so a sample has one value whichever stage renders it.  No raw cube
is rendered: :func:`simulate.synthesize_cube` and :func:`rangefft.range_fft`
remain the reference the renderer is tested against.

Every stage runs under :func:`_stage`, which times it and turns a failure
into a named ``failure_stage`` in the deterministic report.
:func:`run_suite` repeats the run across seeds and aggregates error CDFs;
:func:`bench_acceleration` reuses a run's vitals chain to time the
decomposition at several spectrum truncation lengths.
"""
from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import aoa, beamform, fusion, vitals
from .config import RadarConfig, Record, Scene, _require, check_keys
from .rangefft import range_bin_of
from .simulate import (range_profiles, synthesize_detections,
                       target_track_ids, window_profiles)
# Not called by the pipeline; tools that trace a run wrap the reference
# renderer and range FFT under these names.
from .rangefft import range_fft  # noqa: F401
from .simulate import synthesize_cube  # noqa: F401

_FAILURE_EXCEPTIONS = (ValueError, FloatingPointError, np.linalg.LinAlgError)

# ScenarioSpec fields stored at the top level of a scenario JSON; every other
# field is a processing knob stored under "processing".
_TOP_LEVEL_FIELDS = frozenset(
    {"name", "radar", "scene", "snr_db", "seed", "beamforming"})


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Complete description of one simulated capture and its processing.

    The processing knobs are ``num_modes`` (an int, or ``"auto"`` to pick
    the mode count per target) and ``n_keep`` (the spectrum bins the
    decomposition keeps, at least 4; None keeps the full spectrum).  On
    construction every field, and every field of the records nested in it,
    is checked against its annotation (``config.Record``): a wrong-typed,
    NaN or infinite value raises ``ValueError`` naming the record and the
    field, and a dict or list becomes the annotated record or tuple.
    """

    name: str
    radar: RadarConfig = field(default_factory=RadarConfig)
    scene: Scene = field(default_factory=Scene)
    snr_db: float | None = 20.0
    seed: int = 0
    beamforming: bool = True
    num_modes: int | Literal["auto"] = "auto"
    n_keep: int | None = 100

    def _check(self) -> None:
        _require(self.seed >= 0, f"seed must be >= 0, not {self.seed}")
        _require(self.n_keep is None or self.n_keep >= 4,
                 f"n_keep must be >= 4 or null, not {self.n_keep}")

    def to_dict(self) -> dict:
        """JSON-ready dict with the processing knobs nested under
        ``"processing"``."""
        flat = super().to_dict()
        top = {k: v for k, v in flat.items() if k in _TOP_LEVEL_FIELDS}
        return {**top, "processing": {k: v for k, v in flat.items()
                                      if k not in _TOP_LEVEL_FIELDS}}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; an unknown key at the top level or
        under ``"processing"`` raises ``ValueError`` naming it."""
        check_keys("ScenarioSpec", d, _TOP_LEVEL_FIELDS | {"processing"})
        proc = d.get("processing", {})
        check_keys("ScenarioSpec processing", proc,
                   {f.name for f in dataclasses.fields(cls)}
                   - _TOP_LEVEL_FIELDS)
        top = {k: v for k, v in d.items() if k != "processing"}
        return super().from_dict({**top, **proc})

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class VitalsChain:
    """What the vitals chain produced for one localized target."""

    weights: vitals.ChannelWeights
    k: int
    spectra: vitals.AnalyticSpectra
    modes: vitals.ModeSet
    rates: vitals.VitalRates


@dataclass
class RunResult:
    """Deterministic report plus wall-clock timings and working objects.

    ``locations`` lists ``(track_id, angle_window, Localization)`` of every
    localized target; ``chains`` maps each track id whose vitals chain
    succeeded to its :class:`VitalsChain`.
    """

    report: dict
    timings_ms: dict
    locations: list = field(default_factory=list)
    chains: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.report.get("failure_stage") is not None


class _StageFailed(Exception):
    """A stage raised one of ``_FAILURE_EXCEPTIONS``; names the stage."""

    def __init__(self, stage: str, error: Exception):
        super().__init__(str(error))
        self.stage = stage


@contextmanager
def _stage(timings: dict, name: str):
    """Add the block's wall time to ``timings[name]`` (ms), failed or not,
    and re-raise a stage failure as :class:`_StageFailed`."""
    t0 = time.perf_counter()
    try:
        yield
    except _FAILURE_EXCEPTIONS as e:
        raise _StageFailed(name, e) from e
    finally:
        timings[name] = (timings.get(name, 0.0)
                         + (time.perf_counter() - t0) * 1e3)


def _decompose(spectra: vitals.AnalyticSpectra, weights: np.ndarray,
               k: int):
    """The decomposition of ``spectra`` as a zero-argument call.

    The band-seeded init (:func:`vitals.band_seeded_init`) is computed
    here, so calling the result runs ``multichannel_vmd`` alone (which the
    benchmark times).  The call looks ``vitals.multichannel_vmd`` up when
    it runs, so a tool that wraps that attribute sees every decomposition.
    """
    init = vitals.band_seeded_init(spectra, weights, k)
    return lambda: vitals.multichannel_vmd(spectra, k, weights=weights,
                                           init=init)


def _localize(detections, heatmap: aoa.Heatmap, report: dict) -> list:
    """(track_id, angle window, Localization) of every stationary track."""
    tracks = fusion.build_tracks(detections)
    stationary = fusion.filter_stationary(tracks)
    report["num_stationary_tracks"] = len(stationary)
    if not stationary:
        raise ValueError("no stationary detection track to localize")
    located = []
    for tr in stationary:
        sel = tr.times >= tr.times[-1] - fusion.STATIONARY_WINDOW_S
        window = fusion.pixel_to_angle_window(
            float(np.mean(tr.xs[sel])), float(np.mean(tr.ws[sel])))
        loc = fusion.localize(heatmap, window)
        located.append((tr.id, window, loc))
    return located


def _kept_bins(n_keep: int, n_bins: int) -> int:
    """Spectrum bins an ``n_keep`` keeps: at most ``n_bins``."""
    return min(n_keep, n_bins)


def _vitals_chain(spec: ScenarioSpec, noise: np.random.SeedSequence, loc,
                  timings: dict) -> VitalsChain:
    """beamform -> phase -> weights -> mode_count -> spectrum -> decompose
    -> rates for one localized target.

    The phase stage renders the target's phase window at every frame
    (:func:`simulate.window_profiles`, with the capture's row noise
    ``noise``), with transmit weights steered at the target when
    beamforming, and receive-combines its channels; otherwise they are
    read off the first antenna.
    """
    cfg = spec.radar
    tx = rx = None
    if spec.beamforming:
        with _stage(timings, "beamform"):
            tx = beamform.tx_weights(loc.angle_deg, cfg.wavelength,
                                     num_elements=cfg.num_tx,
                                     spacing=cfg.tx_spacing)
            rx = beamform.rx_weights(loc.angle_deg, cfg.wavelength,
                                     num_elements=cfg.num_virtual,
                                     spacing=cfg.rx_spacing)
    with _stage(timings, "phase"):
        profiles = window_profiles(spec.scene, cfg, loc.range_bin, tx,
                                   snr_db=spec.snr_db, seed=noise)
        phase = vitals.extract_phase(profiles, loc.range_bin, rx=rx)
    with _stage(timings, "weights"):
        cw = vitals.adaptive_weights(phase.samples)
        combined_series = cw.weights @ phase.samples
    with _stage(timings, "mode_count"):
        k = (vitals.select_mode_count(combined_series)
             if spec.num_modes == "auto" else int(spec.num_modes))
    with _stage(timings, "spectrum"):
        spectra = vitals.analytic_spectrum(phase.samples, phase.sample_rate)
        if spec.n_keep is not None:
            spectra = vitals.truncate_spectrum(
                spectra, _kept_bins(spec.n_keep, spectra.n_bins))
    with _stage(timings, "decompose"):
        modes = _decompose(spectra, cw.weights, k)()
    with _stage(timings, "rates"):
        rates = vitals.estimate_rates(modes)
    return VitalsChain(weights=cw, k=k, spectra=spectra, modes=modes,
                       rates=rates)


def run_scenario(
    spec: ScenarioSpec,
    seed: int | None = None,
    beamforming: bool | None = None,
    n_keep: int | None | str = "spec",
) -> RunResult:
    """Execute one seeded end-to-end repetition of a scenario.

    ``seed`` / ``beamforming`` / ``n_keep`` override the scenario when given
    (``n_keep=None`` means keep the full spectrum), through the
    :class:`ScenarioSpec` checks: a bad value raises ``ValueError`` before
    any stage.  ``report["scenario"]`` is ``spec`` as given; identical
    inputs give byte-identical reports.
    Stage failures are recorded instead of raised: a scene stage (e.g. no
    stationary box to localize) ends the run with that stage as
    ``report["failure_stage"]``; a target whose vitals chain fails carries
    a ``"failure"`` entry and sets ``failure_stage`` to ``"vitals"``.
    """
    run = dataclasses.replace(
        spec, seed=spec.seed if seed is None else seed,
        beamforming=spec.beamforming if beamforming is None else beamforming,
        n_keep=spec.n_keep if n_keep == "spec" else n_keep)
    cfg = run.radar

    report: dict = {
        "scenario": spec.to_dict(),
        "seed": run.seed,
        "beamforming": run.beamforming,
        "n_keep": run.n_keep,
        "failure_stage": None,
        "error": None,
        "num_stationary_tracks": 0,
        "targets": [],
    }
    result = RunResult(report=report, timings_ms={})
    timings = result.timings_ms

    noise_ss, det_ss = np.random.SeedSequence(run.seed).spawn(2)
    try:
        with _stage(timings, "simulate"):
            profiles = range_profiles(run.scene, cfg, snr_db=run.snr_db,
                                      seed=noise_ss)
            detections = synthesize_detections(run.scene, cfg.frame_rate,
                                               seed=det_ss)
        with _stage(timings, "heatmap"):
            heatmap = aoa.range_angle_heatmap(profiles)
        with _stage(timings, "localize"):
            result.locations = _localize(detections, heatmap, report)
    except _StageFailed as e:
        report["failure_stage"] = e.stage
        report["error"] = str(e)
        return result

    truth = target_track_ids(run.scene)
    for track_id, window, loc in result.locations:
        entry: dict = {
            "track_id": track_id,
            "angle_window_bins": list(window),
            "range_bin": loc.range_bin,
            "angle_bin": loc.angle_bin,
            "range_m": loc.range_m,
            "angle_deg": loc.angle_deg,
        }
        tgt = truth.get(track_id)
        if tgt is not None:
            entry["true_range_m"] = tgt.range_m
            entry["true_angle_deg"] = tgt.angle_deg
            entry["true_range_bin"] = range_bin_of(tgt.range_m, cfg)
            entry["true_angle_bin"] = int(np.argmin(
                np.abs(heatmap.angle_axis - tgt.angle_deg)))
            entry["range_bin_error"] = loc.range_bin - entry["true_range_bin"]
            entry["angle_bin_error"] = loc.angle_bin - entry["true_angle_bin"]
            entry["true_breaths_per_min"] = tgt.vitals.breath_freq * 60.0
            entry["true_beats_per_min"] = tgt.vitals.heart_freq * 60.0
        report["targets"].append(entry)

        try:
            chain = _vitals_chain(run, noise_ss, loc, timings)
        except _StageFailed as e:
            entry["failure"] = str(e)
            report["failure_stage"] = report["failure_stage"] or "vitals"
            report["error"] = report["error"] or str(e)
            continue
        result.chains[track_id] = chain

        modes, rates = chain.modes, chain.rates
        entry["channel_weights"] = [float(w) for w in chain.weights.weights]
        entry["num_modes"] = chain.k
        entry["kept_band_hz"] = (chain.spectra.n_bins - 1) * chain.spectra.bin_hz
        entry["mode_center_freqs_hz"] = [float(f)
                                         for f in modes.center_freqs_hz]
        entry["iterations"] = modes.iterations
        entry["converged"] = modes.converged
        entry["breaths_per_min"] = rates.breaths_per_min
        entry["beats_per_min"] = rates.beats_per_min
        if tgt is not None:
            entry["rr_error_rpm"] = _delta(rates.breaths_per_min,
                                           entry["true_breaths_per_min"])
            entry["hr_error_bpm"] = _delta(rates.beats_per_min,
                                           entry["true_beats_per_min"])

    return result


def write_run_outputs(result: RunResult, out_dir) -> Path:
    """Write report.json (deterministic) and timings.csv (wall clock)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(result.report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "timings.csv", "w") as fh:
        fh.write("stage,milliseconds\n")
        for stage, ms in result.timings_ms.items():
            fh.write(f"{stage},{ms:.3f}\n")
    return out / "report.json"


def _percentiles(errors: list[float], pcts=(50, 80, 90)) -> dict:
    if not errors:
        return {f"p{p}": None for p in pcts}
    arr = np.abs(np.asarray(errors, dtype=float))
    return {f"p{p}": float(np.percentile(arr, p)) for p in pcts}


def run_suite(
    spec: ScenarioSpec,
    repetitions: int,
    out_dir=None,
    seed: int | None = None,
    beamforming: bool | None = None,
    n_keep: int | None | str = "spec",
) -> dict:
    """Run ``repetitions`` seeded repetitions, seeds ``seed + i`` (``seed``
    defaults to ``spec.seed``).

    Like the other overrides, ``seed`` is passed to :func:`run_scenario`,
    so run ``i`` writes the report ``run_scenario(spec, seed=seed + i)``
    writes.  Error CDFs pool the per-target absolute rate errors of successful
    runs; failed runs and missing rates are excluded from the CDFs and
    counted separately.  Writes per-run reports plus ``suite_summary.json``
    and CDF CSVs when ``out_dir`` is given.
    """
    _require(repetitions >= 1, "repetitions must be >= 1")
    rr_errors: list[float] = []
    hr_errors: list[float] = []
    failed_runs = 0
    missing_rr = 0
    missing_hr = 0
    base = spec.seed if seed is None else seed
    for i in range(repetitions):
        res = run_scenario(spec, seed=base + i,
                           beamforming=beamforming, n_keep=n_keep)
        if out_dir is not None:
            write_run_outputs(res, Path(out_dir) / f"run-{i:03d}")
        if res.failed:
            failed_runs += 1
            continue
        for entry in res.report["targets"]:
            if "true_breaths_per_min" not in entry:
                continue
            if entry.get("rr_error_rpm") is None:
                missing_rr += 1
            else:
                rr_errors.append(abs(entry["rr_error_rpm"]))
            if entry.get("hr_error_bpm") is None:
                missing_hr += 1
            else:
                hr_errors.append(abs(entry["hr_error_bpm"]))

    summary = {
        "scenario": spec.name,
        "repetitions": repetitions,
        "base_seed": base,
        "beamforming": (spec.beamforming if beamforming is None
                        else beamforming),
        "failed_runs": failed_runs,
        "missing_rr": missing_rr,
        "missing_hr": missing_hr,
        "rr_abs_error_rpm": _percentiles(rr_errors),
        "hr_abs_error_bpm": _percentiles(hr_errors),
        "num_rr_samples": len(rr_errors),
        "num_hr_samples": len(hr_errors),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "suite_summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        for name, errs in (("cdf_rr.csv", rr_errors),
                           ("cdf_hr.csv", hr_errors)):
            with open(out / name, "w") as fh:
                fh.write("abs_error,cumulative_fraction\n")
                for j, e in enumerate(sorted(errs)):
                    fh.write(f"{e:.6f},{(j + 1) / len(errs):.6f}\n")
    return summary


class ScenarioFailed(RuntimeError):
    """The run :func:`bench_acceleration` builds on ended in a failure."""

    def __init__(self, stage: str, error: str):
        super().__init__(f"scenario failed at stage {stage}: {error}")
        self.stage = stage
        self.error = error


def bench_acceleration(
    spec: ScenarioSpec,
    n_keep_values=(100, None),
    repeats: int = 5,
    out_path=None,
) -> list[dict]:
    """Time the decomposition stage at several truncation lengths.

    The pipeline runs once on the full spectrum; its first target's vitals
    chain (channel weights, mode count, spectrum) is then decomposed again
    for each ``n_keep`` value (None = full spectrum), ``repeats`` timed
    times each (best time kept), so rows differ only in spectrum length.
    Rate deltas are reported against the full-spectrum row.  A failed run
    raises :class:`ScenarioFailed`; ``repeats`` < 1, or an ``n_keep`` that
    keeps fewer than two bins per mode, raises ``ValueError`` before any
    row is timed.
    """
    _require(repeats >= 1, "repeats must be >= 1")
    res = run_scenario(spec, n_keep=None)
    if res.failed:
        raise ScenarioFailed(res.report["failure_stage"], res.report["error"])
    chain = res.chains[res.locations[0][0]]
    full = chain.spectra

    kept = set()
    for v in n_keep_values:
        if v is not None:
            keep = _kept_bins(v, full.n_bins)
            _require(keep >= 2 * chain.k,
                     f"n_keep {v} keeps {keep} spectrum bins, fewer than the "
                     f"{2 * chain.k} that {chain.k} modes need")
            kept.add(keep)

    rows = []
    baseline = None
    for keep in [None, *sorted(kept, reverse=True)]:
        spectra = (full if keep is None
                   else vitals.truncate_spectrum(full, keep))
        decompose = _decompose(spectra, chain.weights.weights, chain.k)
        best = np.inf
        modes = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            modes = decompose()
            best = min(best, time.perf_counter() - t0)
        rates = vitals.estimate_rates(modes)
        row = {
            "n_keep": "full" if keep is None else keep,
            "n_bins": spectra.n_bins,
            "wall_ms": best * 1e3,
            "iterations": modes.iterations,
            "breaths_per_min": rates.breaths_per_min,
            "beats_per_min": rates.beats_per_min,
        }
        if keep is None:
            baseline = row
            row["speedup_vs_full"] = 1.0
            row["rr_delta_rpm"] = 0.0
            row["hr_delta_bpm"] = 0.0
        else:
            row["speedup_vs_full"] = baseline["wall_ms"] / row["wall_ms"]
            row["rr_delta_rpm"] = _delta(row["breaths_per_min"],
                                         baseline["breaths_per_min"])
            row["hr_delta_bpm"] = _delta(row["beats_per_min"],
                                         baseline["beats_per_min"])
        rows.append(row)

    if out_path is not None:
        cols = ["n_keep", "n_bins", "wall_ms", "speedup_vs_full",
                "iterations", "breaths_per_min", "beats_per_min",
                "rr_delta_rpm", "hr_delta_bpm"]
        with open(out_path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")
    return rows


def _delta(value, reference):
    if value is None or reference is None:
        return None
    return value - reference


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)
