"""The benchmark's workloads: what one op is, and how its output is checked.

Each workload is built from the checkout root and the workload seed.
``prepare()`` is the set-up (input capture and warm-up); ``op(i)`` runs op
``i`` of the closed loop and returns the raw program output; ``check(i,
out)`` turns that output into an :class:`OpOutcome`.  Only ``op`` is timed.

The program is reached only through its public calls, always looked up as
module attributes at call time, so the tracer's wrappers see every call.
See README.md for why each workload exists and what it should move.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radarvitals import pipeline, vitals
from radarvitals.pipeline import ScenarioSpec

from spans import swapped

# Criterion-1 rate bounds (README, "Tests").
RR_BOUND_RPM = 0.5
HR_BOUND_BPM = 6.0


@dataclass
class OpOutcome:
    ok: bool
    targets: int          # ground-truth targets the op should report on
    rr_within: int
    hr_within: int
    error: str | None = None
    report_sha256: list[str] = field(default_factory=list)


def _finite_or_none(value) -> bool:
    return value is None or math.isfinite(value)


def _within(value, truth, bound) -> bool:
    return value is not None and abs(value - truth) <= bound


def _check_report(report: dict, need_bounds: bool) -> tuple[str | None, int, int, int]:
    """(error, targets, rr_within, hr_within) of one run_scenario report."""
    if report["failure_stage"] is not None:
        return (f"failure_stage={report['failure_stage']}: {report['error']}",
                0, 0, 0)
    targets = rr_in = hr_in = 0
    for entry in report["targets"]:
        if not entry.get("converged", False):
            return f"{entry['track_id']}: decomposition did not converge", 0, 0, 0
        rr, hr = entry["breaths_per_min"], entry["beats_per_min"]
        if not (_finite_or_none(rr) and _finite_or_none(hr)):
            return f"{entry['track_id']}: non-finite rate", 0, 0, 0
        if "true_breaths_per_min" not in entry:
            continue
        targets += 1
        rr_ok = _within(rr, entry["true_breaths_per_min"], RR_BOUND_RPM)
        hr_ok = _within(hr, entry["true_beats_per_min"], HR_BOUND_BPM)
        if need_bounds and not (rr_ok and hr_ok):
            return (f"{entry['track_id']}: rates {rr}, {hr} outside the "
                    "criterion-1 bounds", 0, 0, 0)
        rr_in += rr_ok
        hr_in += hr_ok
    if targets == 0:
        return "report has no ground-truth target", 0, 0, 0
    return None, targets, rr_in, hr_in


class _ScenarioWorkload:
    """Ops are whole ``run_scenario`` calls at seed ``workload_seed + i``.

    ``runs`` lists the beamforming flag of each call one op makes, and
    whether that call's target must meet the criterion-1 bounds.
    """

    scenario: str
    runs: tuple[tuple[bool, bool], ...]

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.report_dir = out_dir / "last-report"
        self.targets_per_op = len(self.runs)

    def prepare(self) -> None:
        self.spec = ScenarioSpec.from_json(self.root / "scenarios" / self.scenario)
        self.check(0, self.op(0))          # warm-up, not timed

    def input_digest(self) -> str:
        text = repr((self.spec.to_dict(), self.seed, self.runs))
        return hashlib.sha256(text.encode()).hexdigest()

    def op(self, i: int):
        return [pipeline.run_scenario(self.spec, seed=self.seed + i,
                                      beamforming=bf)
                for bf, _ in self.runs]

    def check(self, i: int, results) -> OpOutcome:
        outcome = OpOutcome(ok=True, targets=0, rr_within=0, hr_within=0)
        for res, (_, need_bounds) in zip(results, self.runs):
            path = pipeline.write_run_outputs(res, self.report_dir)
            outcome.report_sha256.append(
                hashlib.sha256(path.read_bytes()).hexdigest())
            error, targets, rr_in, hr_in = _check_report(res.report, need_bounds)
            if error is not None:
                outcome.ok = False
                outcome.error = outcome.error or error
            outcome.targets += targets
            outcome.rr_within += rr_in
            outcome.hr_within += hr_in
        outcome.targets = max(outcome.targets, self.targets_per_op)
        return outcome


class Clean(_ScenarioWorkload):
    scenario = "clean.json"
    runs = ((True, True),)


class OverlapAB(_ScenarioWorkload):
    """Beamforming ablation: steered run, then the same seed unsteered."""

    scenario = "range_overlap.json"
    runs = ((True, True), (False, False))


# (scenario, beamforming override) of each decompose input.  Each is
# captured at SEEDS_PER_INPUT seeds derived from the workload seed.
DECOMPOSE_INPUTS = (("bench.json", None),
                    ("range_overlap.json", False),
                    ("fusion_stress.json", None))
SEEDS_PER_INPUT = 2


@dataclass
class _Captured:
    name: str
    seed: int
    phase_args: tuple
    phase_kwargs: dict
    auto_k: bool
    k: int
    keep: int
    vmd_kwargs: dict          # per label ("full", "keep"), as the pipeline passed them
    rates_kwargs: dict
    expected: dict            # per label: (rr, hr, iterations)
    true_rr: float
    true_hr: float


class Decompose:
    """Replays captured ``vitals`` chains, with no renders.

    The set-up runs ``bench_acceleration`` (the ``bench`` verb) once per
    input.  It runs the pipeline and then the pipeline's vitals chain on the
    same capture, once at the scenario's ``n_keep`` and once on the full
    spectrum.  Wrappers at the public ``vitals`` boundary record the exact
    arguments of those calls, and the bench rows give the rates and
    iteration counts every replay must reproduce.

    One op replays every captured input once.  Per-input replay costs differ
    up to 2.5x, and VMD iteration counts move with the seed, so the median
    of single-input ops would jump between inputs from seed to seed.
    """

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.targets_per_op = len(DECOMPOSE_INPUTS) * SEEDS_PER_INPUT

    def prepare(self) -> None:
        self.inputs = [self._capture(name, bf, j)
                       for name, bf in DECOMPOSE_INPUTS
                       for j in range(SEEDS_PER_INPUT)]
        # The first pass after the renders runs several times slower (BLAS
        # threads parked after the large stages); it is warm-up, not timed.
        for i in range(2):
            self.check(i, self.op(i))

    def _capture(self, scenario: str, beamforming, j: int) -> _Captured:
        base = ScenarioSpec.from_json(self.root / "scenarios" / scenario)
        spec = dataclasses.replace(
            base, seed=base.seed + SEEDS_PER_INPUT * self.seed + j,
            beamforming=base.beamforming if beamforming is None else beamforming)
        seen: dict = {"vmd": {}}

        def recorder(key, fn):
            signature = inspect.signature(fn)

            def record(*args, **kwargs):
                out = fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs).arguments
                if key == "vmd":
                    seen["vmd"][bound["spec"].n_bins] = bound
                else:
                    seen[key] = (args, kwargs, bound, out)
                return out
            return record

        wrapped = {("radarvitals.pipeline", "run_scenario"): "run",
                   ("radarvitals.vitals", "extract_phase"): "phase",
                   ("radarvitals.vitals", "select_mode_count"): "k",
                   ("radarvitals.vitals", "truncate_spectrum"): "keep",
                   ("radarvitals.vitals", "multichannel_vmd"): "vmd",
                   ("radarvitals.vitals", "estimate_rates"): "rates"}
        with swapped({(m, a): recorder(key, getattr(importlib.import_module(m), a))
                      for (m, a), key in wrapped.items()}):
            rows = pipeline.bench_acceleration(
                spec, n_keep_values=(spec.n_keep,), repeats=1)
        run = seen["run"][3]
        track_id = run.locations[0][0]
        entry = next(e for e in run.report["targets"]
                     if e["track_id"] == track_id)
        by_keep = {("full" if r["n_keep"] == "full" else "keep"): r for r in rows}
        full = by_keep["full"]
        if (entry["breaths_per_min"], entry["beats_per_min"],
                entry["iterations"]) != (full["breaths_per_min"],
                                         full["beats_per_min"],
                                         full["iterations"]):
            raise RuntimeError(f"{scenario}: the bench verb's full-spectrum "
                               "rates differ from the pipeline's")
        keep = seen["keep"][2]["n_keep"]
        n_full = seen["phase"][3].samples.shape[1] // 2 + 1
        vmd_kwargs = {label: {name: value for name, value in bound.items()
                              if name not in ("spec", "num_modes", "weights")}
                      for label, bound in (("full", seen["vmd"][n_full]),
                                           ("keep", seen["vmd"][keep]))}
        rates_kwargs = {name: value
                        for name, value in seen["rates"][2].items()
                        if name != "modes"}
        return _Captured(
            name=spec.name, seed=spec.seed, phase_args=seen["phase"][0],
            phase_kwargs=seen["phase"][1], auto_k=spec.num_modes == "auto",
            k=seen["k"][3] if "k" in seen else int(spec.num_modes),
            keep=keep, vmd_kwargs=vmd_kwargs, rates_kwargs=rates_kwargs,
            expected={label: (r["breaths_per_min"], r["beats_per_min"],
                              r["iterations"])
                      for label, r in by_keep.items()},
            true_rr=entry["true_breaths_per_min"],
            true_hr=entry["true_beats_per_min"])

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for inp in self.inputs:
            profiles, center_bin = inp.phase_args[:2]
            h.update(np.ascontiguousarray(profiles.data).tobytes())
            h.update(repr((inp.name, inp.seed, center_bin, inp.phase_kwargs.get("rx"),
                           inp.k, inp.keep, inp.vmd_kwargs,
                           inp.expected)).encode())
        return h.hexdigest()

    def op(self, i: int):
        return [self._replay(inp) for inp in self.inputs]

    @staticmethod
    def _replay(inp: _Captured) -> dict:
        phase = vitals.extract_phase(*inp.phase_args, **inp.phase_kwargs)
        cw = vitals.adaptive_weights(phase.samples)
        k = (vitals.select_mode_count(cw.weights @ phase.samples)
             if inp.auto_k else inp.k)
        full = vitals.analytic_spectrum(phase.samples, phase.sample_rate)
        out = {"k": k}
        for label, spectra in (("full", full),
                               ("keep", vitals.truncate_spectrum(full, inp.keep))):
            modes = vitals.multichannel_vmd(spectra, k, weights=cw.weights,
                                            **inp.vmd_kwargs[label])
            rates = vitals.estimate_rates(modes, **inp.rates_kwargs)
            out[label] = (rates.breaths_per_min, rates.beats_per_min,
                          modes.iterations, modes.converged)
        return out

    def check(self, i: int, outs) -> OpOutcome:
        outcome = OpOutcome(ok=True, targets=len(self.inputs), rr_within=0,
                            hr_within=0)
        for inp, out in zip(self.inputs, outs):
            error = _replay_error(inp, out)
            if error is not None:
                outcome.ok = False
                outcome.error = outcome.error or error
                continue
            rr, hr = out["keep"][:2]
            outcome.rr_within += _within(rr, inp.true_rr, RR_BOUND_RPM)
            outcome.hr_within += _within(hr, inp.true_hr, HR_BOUND_BPM)
        return outcome


def _replay_error(inp: _Captured, out: dict) -> str | None:
    where = f"{inp.name} seed {inp.seed}"
    if out["k"] != inp.k:
        return f"{where}: mode count {out['k']} != captured {inp.k}"
    for label in ("full", "keep"):
        rr, hr, iterations, converged = out[label]
        if not converged:
            return f"{where}/{label}: decomposition did not converge"
        if not (_finite_or_none(rr) and _finite_or_none(hr)):
            return f"{where}/{label}: non-finite rate"
        if (rr, hr, iterations) != inp.expected[label]:
            return (f"{where}/{label}: replay gave {(rr, hr, iterations)}, "
                    f"captured run gave {inp.expected[label]}")
    return None


WORKLOADS = {"clean": Clean, "overlap_ab": OverlapAB, "decompose": Decompose}
