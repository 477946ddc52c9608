"""End-to-end scenario runner: one stage chain from scene to rates.

A :class:`ScenarioSpec` bundles the radar, scene, camera and processing
parameters (JSON-serializable, see ``scenarios/``).  :func:`run_scenario`
executes one seeded repetition as a single chain of timed stages:

* scene stages - ``simulate``, ``range_fft``, ``heatmap``, ``localize``;
* per localized target, the vitals chain - ``beamform`` (steered re-render,
  when beamforming is on), ``phase``, ``weights``, ``mode_count``,
  ``spectrum``, ``decompose``, ``rates``.

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

import numpy as np

from . import aoa, beamform, fusion, vitals
from .config import CameraConfig, RadarConfig, Scene
from .rangefft import range_bin_of, range_fft
from .simulate import synthesize_cube, synthesize_detections

_FAILURE_EXCEPTIONS = (ValueError, FloatingPointError, np.linalg.LinAlgError)

# ScenarioSpec fields stored at the top level of a scenario JSON; every other
# field is a processing knob stored under "processing".
_TOP_LEVEL_FIELDS = frozenset(
    {"name", "radar", "scene", "camera", "snr_db", "seed", "beamforming"})


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one simulated capture and its processing."""

    name: str
    radar: RadarConfig = field(default_factory=RadarConfig)
    scene: Scene = field(default_factory=Scene)
    camera: CameraConfig = field(default_factory=CameraConfig)
    snr_db: float | None = 20.0
    seed: int = 0
    beamforming: bool = True
    n_fft: int | None = None
    num_angle_bins: int = aoa.DEFAULT_NUM_ANGLE_BINS
    mvdr_loading: float = 1e-3
    stationary_window_s: float = 3.0
    x_threshold_px: float | None = None       # default: 2% of image width
    w_threshold_px: float | None = None
    max_range_m: float = 10.0
    num_phase_channels: int = 5
    num_modes: int | str = "auto"
    alpha: float = 2000.0
    eta: float = 0.0
    tol: float = 1e-7
    max_iter: int = 500
    n_keep: int | None = 100
    rr_band: tuple[float, float] = vitals.DEFAULT_RR_BAND
    hr_band: tuple[float, float] = vitals.DEFAULT_HR_BAND

    @classmethod
    def _processing_fields(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)
                if f.name not in _TOP_LEVEL_FIELDS]

    def to_dict(self) -> dict:
        """JSON-ready dict; tuple fields (the rate bands) become lists."""
        processing = {}
        for name in self._processing_fields():
            value = getattr(self, name)
            processing[name] = list(value) if isinstance(value, tuple) else value
        return {
            "name": self.name,
            "radar": self.radar.to_dict(),
            "scene": self.scene.to_dict(),
            "camera": self.camera.to_dict(),
            "snr_db": self.snr_db,
            "seed": self.seed,
            "beamforming": self.beamforming,
            "processing": processing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        proc = d.get("processing", {})
        kw = {name: tuple(proc[name]) if isinstance(proc[name], list)
              else proc[name]
              for name in cls._processing_fields() if name in proc}
        return cls(
            name=d["name"],
            radar=RadarConfig.from_dict(d["radar"]) if "radar" in d
            else RadarConfig(),
            scene=Scene.from_dict(d["scene"]) if "scene" in d else Scene(),
            camera=CameraConfig.from_dict(d["camera"]) if "camera" in d
            else CameraConfig(),
            snr_db=d.get("snr_db", 20.0),
            seed=d.get("seed", 0),
            beamforming=d.get("beamforming", True),
            **kw,
        )

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


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


def _band_seeded_init(spectra: vitals.AnalyticSpectra, weights: np.ndarray,
                      num_modes: int,
                      bands: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Center-frequency init with one mode pinned to each band of interest.

    Vital phase spectra are wildly unbalanced (breathing carries orders of
    magnitude more power than heartbeat), so a purely power-ranked init
    would spend every mode on the strongest line and its leakage skirt.
    Seeding the strongest in-band peak per configured band guarantees each
    band starts with a dedicated mode; leftover modes spread evenly over
    the kept spectrum.
    """
    mag = np.abs(weights @ spectra.spectra)
    freqs = spectra.freqs_hz
    seeds: list[float] = []
    for lo, hi in bands:
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


def _decompose(spec: ScenarioSpec, spectra: vitals.AnalyticSpectra,
               weights: np.ndarray, k: int):
    """The decomposition of ``spectra`` as a zero-argument call.

    The band-seeded init is computed here, so calling the result runs
    ``multichannel_vmd`` alone (which the benchmark times).
    """
    init = _band_seeded_init(spectra, weights, k,
                             bands=(spec.rr_band, spec.hr_band))
    return lambda: vitals.multichannel_vmd(
        spectra, k, weights=weights, alpha=spec.alpha, eta=spec.eta,
        tol=spec.tol, max_iter=spec.max_iter, init=init)


def _localize(spec: ScenarioSpec, detections, heatmap: aoa.Heatmap,
              report: dict) -> list:
    """(track_id, angle window, Localization) of every stationary track."""
    tracks = fusion.build_tracks(detections)
    stationary = fusion.filter_stationary(
        tracks, spec.camera.image_width,
        x_threshold=spec.x_threshold_px,
        w_threshold=spec.w_threshold_px,
        window=spec.stationary_window_s)
    report["num_stationary_tracks"] = len(stationary)
    if not stationary:
        raise ValueError("no stationary detection track to localize")
    located = []
    for tr in stationary:
        sel = tr.times >= tr.times[-1] - spec.stationary_window_s
        window = fusion.pixel_to_angle_window(
            float(np.mean(tr.xs[sel])), float(np.mean(tr.ws[sel])),
            spec.camera.image_width, spec.num_angle_bins)
        loc = fusion.localize(heatmap, window, max_range=spec.max_range_m)
        located.append((tr.id, window, loc))
    return located


def _vitals_chain(spec: ScenarioSpec, profiles, noise_ss, loc,
                  beamforming: bool, n_keep: int | None,
                  timings: dict) -> VitalsChain:
    """beamform -> phase -> weights -> mode_count -> spectrum -> decompose
    -> rates for one localized target.

    With beamforming the cube is re-rendered with transmit weights steered
    at the target (same noise realisation) and the phase channels are
    receive-combined; otherwise they are read off ``profiles`` directly.
    """
    cfg = spec.radar
    rx = None
    if beamforming:
        with _stage(timings, "beamform"):
            tx = beamform.tx_weights(loc.angle_deg, cfg.wavelength,
                                     num_elements=cfg.num_tx,
                                     spacing=cfg.tx_spacing)
            cube = synthesize_cube(spec.scene, cfg, tx_weights=tx,
                                   snr_db=spec.snr_db, seed=noise_ss)
            profiles = range_fft(cube, n_fft=spec.n_fft)
            rx = beamform.rx_weights(loc.angle_deg, cfg.wavelength,
                                     num_elements=cfg.num_virtual,
                                     spacing=cfg.rx_spacing)
    with _stage(timings, "phase"):
        phase = vitals.extract_phase(profiles, loc.range_bin,
                                     num_channels=spec.num_phase_channels,
                                     rx=rx)
    with _stage(timings, "weights"):
        cw = vitals.adaptive_weights(phase.samples)
        combined_series = cw.weights @ phase.samples
    with _stage(timings, "mode_count"):
        k = (vitals.select_mode_count(combined_series)
             if spec.num_modes == "auto" else int(spec.num_modes))
    with _stage(timings, "spectrum"):
        spectra = vitals.analytic_spectrum(phase.samples, phase.sample_rate)
        if n_keep is not None:
            keep = int(np.clip(n_keep, 4, spectra.n_bins))
            spectra = vitals.truncate_spectrum(spectra, keep)
    with _stage(timings, "decompose"):
        modes = _decompose(spec, spectra, cw.weights, k)()
    with _stage(timings, "rates"):
        rates = vitals.estimate_rates(modes, rr_band=spec.rr_band,
                                      hr_band=spec.hr_band)
    return VitalsChain(weights=cw, k=k, spectra=spectra, modes=modes,
                       rates=rates)


def _true_position(track_id: str, scene: Scene):
    if track_id.startswith("target-"):
        idx = int(track_id.split("-", 1)[1])
        if idx < len(scene.targets):
            return scene.targets[idx]
    return None


def run_scenario(
    spec: ScenarioSpec,
    seed: int | None = None,
    beamforming: bool | None = None,
    n_keep: int | None | str = "spec",
) -> RunResult:
    """Execute one seeded end-to-end repetition of a scenario.

    ``seed`` / ``beamforming`` / ``n_keep`` override the scenario when given
    (``n_keep=None`` means keep the full spectrum).  The returned report is
    a plain JSON-ready dict; identical inputs give byte-identical reports.
    Stage failures are recorded instead of raised: a scene stage (e.g. no
    stationary box to localize) ends the run with that stage as
    ``report["failure_stage"]``; a target whose vitals chain fails carries
    a ``"failure"`` entry and sets ``failure_stage`` to ``"vitals"``.
    """
    eff_seed = spec.seed if seed is None else int(seed)
    eff_bf = spec.beamforming if beamforming is None else bool(beamforming)
    eff_keep = spec.n_keep if n_keep == "spec" else n_keep
    cfg = spec.radar
    noise_ss, det_ss = np.random.SeedSequence(eff_seed).spawn(2)

    report: dict = {
        "scenario": spec.to_dict(),
        "seed": eff_seed,
        "beamforming": eff_bf,
        "n_keep": eff_keep,
        "failure_stage": None,
        "error": None,
        "num_stationary_tracks": 0,
        "targets": [],
    }
    result = RunResult(report=report, timings_ms={})
    timings = result.timings_ms

    try:
        with _stage(timings, "simulate"):
            cube = synthesize_cube(spec.scene, cfg, tx_weights=None,
                                   snr_db=spec.snr_db, seed=noise_ss)
            detections = synthesize_detections(
                spec.scene, spec.camera, frame_rate=cfg.frame_rate,
                seed=det_ss)
        with _stage(timings, "range_fft"):
            profiles = range_fft(cube, n_fft=spec.n_fft)
        with _stage(timings, "heatmap"):
            heatmap = aoa.range_angle_heatmap(
                profiles, angles_deg=aoa.default_angle_grid(spec.num_angle_bins),
                loading=spec.mvdr_loading)
        with _stage(timings, "localize"):
            result.locations = _localize(spec, detections, heatmap, report)
    except _StageFailed as e:
        report["failure_stage"] = e.stage
        report["error"] = str(e)
        return result

    for track_id, window, loc in result.locations:
        entry: dict = {
            "track_id": track_id,
            "angle_window_bins": list(window),
            "range_bin": loc.range_bin,
            "angle_bin": loc.angle_bin,
            "range_m": loc.range_m,
            "angle_deg": loc.angle_deg,
        }
        tgt = _true_position(track_id, spec.scene)
        if tgt is not None:
            entry["true_range_m"] = tgt.range_m
            entry["true_angle_deg"] = tgt.angle_deg
            entry["true_range_bin"] = range_bin_of(tgt.range_m, cfg,
                                                   profiles.n_fft)
            entry["true_angle_bin"] = int(np.argmin(
                np.abs(heatmap.angle_axis - tgt.angle_deg)))
            entry["range_bin_error"] = loc.range_bin - entry["true_range_bin"]
            entry["angle_bin_error"] = loc.angle_bin - entry["true_angle_bin"]
            entry["true_breaths_per_min"] = tgt.vitals.breath_freq * 60.0
            entry["true_beats_per_min"] = tgt.vitals.heart_freq * 60.0
        report["targets"].append(entry)

        try:
            chain = _vitals_chain(spec, profiles, noise_ss, loc, eff_bf,
                                  eff_keep, timings)
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
    beamforming: bool | None = None,
    n_keep: int | None | str = "spec",
) -> dict:
    """Run ``repetitions`` seeded repetitions (seeds spec.seed + i).

    Error CDFs pool the per-target absolute rate errors of successful
    runs; failed runs and missing rates are excluded from the CDFs and
    counted separately.  Writes per-run reports plus ``suite_summary.json``
    and CDF CSVs when ``out_dir`` is given.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rr_errors: list[float] = []
    hr_errors: list[float] = []
    failed_runs = 0
    missing_rr = 0
    missing_hr = 0
    for i in range(repetitions):
        res = run_scenario(spec, seed=spec.seed + i,
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
        "base_seed": spec.seed,
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
    Rate deltas are reported against the full-spectrum row.
    """
    res = run_scenario(spec, n_keep=None)
    if res.failed:
        raise RuntimeError(
            f"scenario failed at stage {res.report['failure_stage']}: "
            f"{res.report['error']}")
    chain = res.chains[res.locations[0][0]]
    full = chain.spectra

    rows = []
    baseline = None
    values = [v if v is None else max(4, min(int(v), full.n_bins))
              for v in n_keep_values]
    if None not in values:
        values.append(None)
    for keep in sorted(set(values),
                       key=lambda v: ((full.n_bins, 1) if v is None
                                      else (v, 0)),
                       reverse=True):
        spectra = (full if keep is None
                   else vitals.truncate_spectrum(full, int(keep)))
        decompose = _decompose(spec, spectra, chain.weights.weights, chain.k)
        best = np.inf
        modes = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            modes = decompose()
            best = min(best, time.perf_counter() - t0)
        rates = vitals.estimate_rates(modes, rr_band=spec.rr_band,
                                      hr_band=spec.hr_band)
        row = {
            "n_keep": "full" if keep is None else int(keep),
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
