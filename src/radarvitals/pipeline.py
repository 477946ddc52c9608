"""End-to-end scenario runner: one stage chain from scene to rates.

A :class:`ScenarioSpec` bundles the frame rate, the scene, the seed, the
beamforming switch and the two processing knobs a run varies
(``num_modes``, ``n_keep``), all at the top level of one flat record
(JSON-serializable, see ``scenarios/``).  Everything else is fixed: the
radar's chirp, frame and array are :class:`RadarConfig`'s class constants,
which every stage reads itself, and every other setting is a constant of
its stage's module, the camera's too (its field of view is the angle
grid's, :data:`aoa.MAX_ANGLE_DEG`, and it runs at the radar frame rate).
:func:`run_scenario` executes one seeded repetition as a single chain of
timed stages:

* scene stages - ``simulate`` (the heatmap's rows, :data:`aoa.HEATMAP_BINS`,
  rendered at the still window's frames, the last
  :func:`fusion.still_frames`, one snapshot per frame, by
  :func:`simulate.render_profiles`; and the camera boxes, one
  :class:`fusion.Detections` record), ``heatmap`` (the MVDR covariance of
  each row over those snapshots), ``localize`` (the record's columns in
  view at the last frame, :func:`fusion.build_tracks`, cut to the still
  window and to the columns that stood still over it by
  :func:`fusion.filter_stationary`, each located at its mean box);
* per localized target, the vitals chain - ``beamform`` (when beamforming
  is on: transmit and receive weights steered at the target), ``phase``
  (the phase window's rows, :func:`vitals.channel_bins`, rendered at every
  frame, steered when beamforming), ``weights``, ``mode_count``,
  ``spectrum``, ``decompose``, ``rates``.

Every stage runs under :func:`_stage`, which times it and turns a failure
into a :class:`StageFailed` naming the stage, the report's
``failure_stage``.  :func:`vitals_chain` is the one chain from a target's
phase channels to its rates (``weights`` to ``rates``): :func:`run_scenario`
calls it for each target, and :func:`bench_acceleration` calls it again on
a run's phase channels to time the ``decompose`` stage at several spectrum
truncation lengths.  :func:`summarize_runs` pools the reports of any set of
runs, the seeds of :func:`run_suite` and of each ``scripts/accuracy.py``
cell alike, and :func:`json_text` is the one JSON text of their files.
"""
from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import aoa, beamform, fusion, vitals
from .config import RadarConfig, Record, Scene, _require
from .rangefft import range_bin_of
from .simulate import (render_profiles, synthesize_detections,
                       target_track_ids)
# Not called by the pipeline; tools that trace a run wrap the reference
# renderer and range FFT under these names.
from .rangefft import range_fft  # noqa: F401
from .simulate import synthesize_cube  # noqa: F401

_FAILURE_EXCEPTIONS = (ValueError, FloatingPointError, np.linalg.LinAlgError)
# Lowest snr_db, far inside float range: the heatmap's covariances hold the
# noise power 10^(-snr_db/10), and overflow from about -3050 dB.
MIN_SNR_DB = -300.0


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Complete description of one simulated capture and its processing.

    A plain :class:`config.Record`: a scenario file holds every field at
    its top level.  ``frame_rate`` (frames per second, the slow-time
    sampling rate of the vitals chain and the camera's rate) is positive,
    and its frame holds the front end's ``RadarConfig.chirps_per_frame``
    chirps.  The processing knobs are ``num_modes`` (an int >= 1, or
    ``"auto"`` to pick the mode count per target) and ``n_keep`` (the
    spectrum bins the decomposition keeps, at least 4; None keeps the full
    spectrum).  ``snr_db`` is at least :data:`MIN_SNR_DB`, or None for no
    noise.  On construction every field, and every field of the records
    nested in it, is checked against its annotation: a wrong-typed, NaN or
    infinite value raises ``ValueError`` naming the record and the field,
    and a dict or list becomes the annotated record or tuple.
    """

    name: str
    frame_rate: float = 20.0
    scene: Scene = field(default_factory=Scene)
    snr_db: float | None = 20.0
    seed: int = 0
    beamforming: bool = True
    num_modes: int | Literal["auto"] = "auto"
    n_keep: int | None = 100

    def _check(self) -> None:
        _require(self.frame_rate > 0,
                 f"frame_rate must be positive, not {self.frame_rate!r}")
        chirps_s = RadarConfig.chirps_per_frame * RadarConfig.pri
        _require(chirps_s <= 1.0 / self.frame_rate,
                 f"frame_rate must be at most {1.0 / chirps_s:g}, the rate "
                 f"whose frame just holds its chirps, not {self.frame_rate!r}")
        _require(self.seed >= 0, f"seed must be >= 0, not {self.seed}")
        _require(self.snr_db is None or self.snr_db >= MIN_SNR_DB, f"snr_db "
                 f"must be >= {MIN_SNR_DB:g} or null (the render overflows)")
        _require(self.n_keep is None or self.n_keep >= 4,
                 f"n_keep must be >= 4 or null, not {self.n_keep}")
        _require(self.num_modes == "auto" or self.num_modes >= 1,
                 f"num_modes must be >= 1 or 'auto', not {self.num_modes}")

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class VitalsChain:
    """What the vitals chain produced for one localized target."""

    phase: vitals.PhaseMatrix
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


class StageFailed(RuntimeError):
    """A stage raised one of ``_FAILURE_EXCEPTIONS``, or the run a bench
    builds on failed at ``stage``; ``str()`` is the ``error`` text."""

    def __init__(self, stage: str, error):
        super().__init__(str(error))
        self.stage = stage
        self.error = str(error)


@contextmanager
def _stage(timings: dict, name: str):
    """Add the block's wall time to ``timings[name]`` (ms), failed or not,
    and re-raise a stage failure as :class:`StageFailed`."""
    t0 = time.perf_counter()
    try:
        yield
    except _FAILURE_EXCEPTIONS as e:
        raise StageFailed(name, e) from e
    finally:
        timings[name] = (timings.get(name, 0.0)
                         + (time.perf_counter() - t0) * 1e3)


def _localize(detections, frame_rate: float, heatmap: aoa.Heatmap,
              report: dict) -> list:
    """(track_id, angle window, Localization) of every stationary track,
    its window from its mean box over the still window."""
    still = fusion.filter_stationary(fusion.build_tracks(detections),
                                     frame_rate)
    report["num_stationary_tracks"] = len(still)
    if not still:
        raise ValueError("no stationary detection track to localize")
    located = []
    for e, track_id in enumerate(still.ids):
        window = fusion.pixel_to_angle_window(
            float(np.nanmean(still.xs[:, e])),
            float(np.nanmean(still.ws[:, e])))
        located.append((track_id, window, fusion.localize(heatmap, window)))
    return located


def _phase(spec: ScenarioSpec, noise: np.random.SeedSequence, loc,
           timings: dict) -> vitals.PhaseMatrix:
    """beamform -> phase for one localized target.

    The phase stage renders the target's phase window at every frame (with
    the capture's row noise ``noise``), with transmit weights steered at
    the target when beamforming, and receive-combines its channels;
    otherwise they are read off the first antenna.
    """
    tx = rx = None
    if spec.beamforming:
        with _stage(timings, "beamform"):
            tx = beamform.tx_weights(loc.angle_deg)
            rx = beamform.rx_weights(loc.angle_deg)
    with _stage(timings, "phase"):
        bins = vitals.channel_bins(loc.range_bin)
        profiles = render_profiles(spec.scene, spec.frame_rate, bins,
                                   slice(None), tx, snr_db=spec.snr_db,
                                   seed=noise)
        return vitals.extract_phase(profiles, loc.range_bin, rx=rx)


def vitals_chain(phase: vitals.PhaseMatrix, num_modes: int | str,
                 n_keep: int | None, timings: dict) -> VitalsChain:
    """weights -> mode_count -> spectrum -> decompose -> rates on one
    target's phase channels, each stage's wall time added to ``timings``.

    ``num_modes`` is a mode count or ``"auto"``; ``n_keep`` bins of the
    spectrum are kept (None keeps them all).  The spectrum stage also seeds
    the modes (:func:`vitals.band_seeded_init`), so ``decompose`` is the
    ``multichannel_vmd`` call alone.  Every ``vitals`` function is looked
    up when it runs, so a tool that wraps one sees each call.  A failed
    stage raises :class:`StageFailed`.
    """
    with _stage(timings, "weights"):
        cw = vitals.adaptive_weights(phase.samples)
    with _stage(timings, "mode_count"):
        k = (vitals.select_mode_count(cw.weights @ phase.samples)
             if num_modes == "auto" else int(num_modes))
    with _stage(timings, "spectrum"):
        spectra = vitals.analytic_spectrum(phase.samples, phase.sample_rate)
        if n_keep is not None:
            spectra = vitals.truncate_spectrum(
                spectra, min(n_keep, spectra.n_bins))
        init = vitals.band_seeded_init(spectra, cw.weights, k)
    with _stage(timings, "decompose"):
        modes = vitals.multichannel_vmd(spectra, k, weights=cw.weights,
                                        init=init)
    with _stage(timings, "rates"):
        rates = vitals.estimate_rates(modes)
    return VitalsChain(phase=phase, weights=cw, k=k, spectra=spectra,
                       modes=modes, rates=rates)


def run_scenario(
    spec: ScenarioSpec,
    seed: int | None = None,
    beamforming: bool | None = None,
) -> RunResult:
    """Execute one seeded end-to-end repetition of a scenario.

    ``seed`` / ``beamforming`` override the scenario when given, through
    the :class:`ScenarioSpec` checks: a bad value raises ``ValueError``
    before any stage.  ``report["scenario"]`` is ``spec`` as given; identical
    inputs give byte-identical reports.
    Stage failures are recorded instead of raised: a scene stage (e.g. no
    stationary box to localize) ends the run with that stage as
    ``report["failure_stage"]``; a target whose vitals chain fails carries
    a ``"failure"`` entry and sets ``failure_stage`` to ``"vitals"``.
    """
    run = dataclasses.replace(
        spec, seed=spec.seed if seed is None else seed,
        beamforming=spec.beamforming if beamforming is None else beamforming)

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
            still = slice(-fusion.still_frames(run.frame_rate), None)
            profiles = render_profiles(run.scene, run.frame_rate,
                                       aoa.HEATMAP_BINS, still,
                                       snr_db=run.snr_db, seed=noise_ss)
            detections = synthesize_detections(run.scene, run.frame_rate,
                                               seed=det_ss)
        with _stage(timings, "heatmap"):
            heatmap = aoa.range_angle_heatmap(profiles)
        with _stage(timings, "localize"):
            result.locations = _localize(detections, run.frame_rate,
                                         heatmap, report)
    except StageFailed as e:
        report["failure_stage"] = e.stage
        report["error"] = e.error
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
            entry["true_range_bin"] = range_bin_of(tgt.range_m)
            entry["true_angle_bin"] = int(np.argmin(
                np.abs(heatmap.angle_axis - tgt.angle_deg)))
            entry["range_bin_error"] = loc.range_bin - entry["true_range_bin"]
            entry["angle_bin_error"] = loc.angle_bin - entry["true_angle_bin"]
            entry["true_breaths_per_min"] = tgt.vitals.breath_freq * 60.0
            entry["true_beats_per_min"] = tgt.vitals.heart_freq * 60.0
        report["targets"].append(entry)

        try:
            chain = vitals_chain(_phase(run, noise_ss, loc, timings),
                                 run.num_modes, run.n_keep, timings)
        except StageFailed as e:
            entry["failure"] = e.error
            report["failure_stage"] = report["failure_stage"] or "vitals"
            report["error"] = report["error"] or e.error
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


def json_text(record: dict) -> str:
    """The text of a report or summary file: sorted keys, two-space
    indent, one closing newline."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def write_run_outputs(result: RunResult, out_dir) -> Path:
    """Write report.json (deterministic) and timings.csv (wall clock)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json_text(result.report))
    with open(out / "timings.csv", "w") as fh:
        fh.write("stage,milliseconds\n")
        for stage, ms in result.timings_ms.items():
            fh.write(f"{stage},{ms:.3f}\n")
    return out / "report.json"


def _abs_errors(reports: list[dict], key: str) -> list[float]:
    """|``key``| of every target of ``reports`` that has one."""
    return [abs(t[key]) for r in reports for t in r["targets"]
            if t.get(key) is not None]


# (summary key, report key) of each pooled rate error, by its short name.
_RATE_ERRORS = {"rr": ("rr_abs_error_rpm", "rr_error_rpm"),
                "hr": ("hr_abs_error_bpm", "hr_error_bpm")}


def summarize_runs(reports: list[dict]) -> dict:
    """Pool :func:`run_scenario` reports: every ground-truth target of a
    report's scene counts, whether or not its run failed or the camera
    boxed it.

    Its |RR| and |HR| errors are pooled (p50, p80, p90 and max, None
    without a sample, and the sample counts) and a missing rate is counted;
    so are the failed runs, by ``failure_stage``, and the targets whose
    decomposition did not converge.
    """
    failures = Counter(r["failure_stage"] for r in reports
                       if r["failure_stage"] is not None)
    targets = [t for r in reports for t in r["targets"]]
    truths = sum(len(r["scenario"]["scene"]["targets"]) for r in reports)
    summary = {"runs": len(reports), "failed_runs": sum(failures.values()),
               "failures": dict(sorted(failures.items())),
               "non_converged": sum(t.get("converged") is False
                                    for t in targets)}
    for tag, (name, key) in _RATE_ERRORS.items():
        errors = _abs_errors(reports, key)
        summary[name] = {
            **{f"p{p}": float(np.percentile(errors, p)) if errors else None
               for p in (50, 80, 90)},
            "max": max(errors, default=None)}
        summary[f"num_{tag}_samples"] = len(errors)
        summary[f"missing_{tag}"] = truths - len(errors)
    return summary


def run_suite(
    spec: ScenarioSpec,
    repetitions: int,
    out_dir,
    seed: int | None = None,
    beamforming: bool | None = None,
) -> dict:
    """Run ``repetitions`` seeded repetitions, seeds ``seed + i`` (``seed``
    defaults to ``spec.seed``), and summarize them.

    Like the other overrides, ``seed`` is passed to :func:`run_scenario`,
    so run ``i`` writes the report ``run_scenario(spec, seed=seed + i)``
    writes.  The summary is :func:`summarize_runs` of the reports (a failed
    run's ground-truth targets count too, with their errors or as missing)
    plus ``scenario``, ``repetitions``, ``base_seed`` and ``beamforming``.
    Under ``out_dir`` it writes each run's outputs to ``run-<i>``, the
    summary to ``suite_summary.json`` and the pooled errors' CDFs to
    ``cdf_rr.csv`` / ``cdf_hr.csv``.
    """
    _require(repetitions >= 1, "repetitions must be >= 1")
    base = spec.seed if seed is None else seed
    out = Path(out_dir)
    reports = []
    for i in range(repetitions):
        res = run_scenario(spec, seed=base + i, beamforming=beamforming)
        write_run_outputs(res, out / f"run-{i:03d}")
        reports.append(res.report)

    summary = {
        "scenario": spec.name,
        "repetitions": repetitions,
        "base_seed": base,
        "beamforming": (spec.beamforming if beamforming is None
                        else beamforming),
        **summarize_runs(reports),
    }
    (out / "suite_summary.json").write_text(json_text(summary))
    for tag, (_, key) in _RATE_ERRORS.items():
        errs = sorted(_abs_errors(reports, key))
        with open(out / f"cdf_{tag}.csv", "w") as fh:
            fh.write("abs_error,cumulative_fraction\n")
            for j, e in enumerate(errs):
                fh.write(f"{e:.6f},{(j + 1) / len(errs):.6f}\n")
    return summary


def bench_acceleration(
    spec: ScenarioSpec,
    n_keep_values=(100, None),
    repeats: int = 5,
    out_path=None,
) -> list[dict]:
    """Time the decomposition stage at several truncation lengths.

    The pipeline runs once on the full spectrum (``spec`` with ``n_keep``
    None); its first target's phase channels and mode count then go
    through :func:`vitals_chain` again for each ``n_keep`` value (None =
    full spectrum), ``repeats`` times each, and a row's time is the best
    of its ``decompose`` stages, so rows differ only in spectrum length.
    Rate deltas are reported against the full-spectrum row.  A failed run
    or chain raises :class:`StageFailed`;
    ``repeats`` < 1, or an ``n_keep`` that keeps fewer than two bins per
    mode, raises ``ValueError`` before any row is timed.
    """
    _require(repeats >= 1, "repeats must be >= 1")
    res = run_scenario(dataclasses.replace(spec, n_keep=None))
    if res.failed:
        raise StageFailed(res.report["failure_stage"], res.report["error"])
    chain = res.chains[res.locations[0][0]]

    kept = set()
    for v in n_keep_values:
        if v is not None:
            keep = min(v, chain.spectra.n_bins)
            _require(keep >= 2 * chain.k,
                     f"n_keep {v} keeps {keep} spectrum bins, fewer than the "
                     f"{2 * chain.k} that {chain.k} modes need")
            kept.add(keep)

    rows = []
    baseline = None
    for keep in [None, *sorted(kept, reverse=True)]:
        best = np.inf
        for _ in range(repeats):
            stages: dict = {}
            row_chain = vitals_chain(chain.phase, chain.k, keep, stages)
            best = min(best, stages["decompose"])
        row = {
            "n_keep": "full" if keep is None else keep,
            "n_bins": row_chain.spectra.n_bins,
            "wall_ms": best,
            "iterations": row_chain.modes.iterations,
            "breaths_per_min": row_chain.rates.breaths_per_min,
            "beats_per_min": row_chain.rates.beats_per_min,
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
