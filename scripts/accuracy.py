"""Accuracy trajectory: rate errors, misses and failures per scenario cell.

Usage, from the root of a checkout::

    python3 scripts/accuracy.py --label <label>

writes ``accuracy/ACC_<label>.json``.  Its cells are

* every bundled scenario (``scenarios/*.json``) x beamforming on/off x 10
  seeds (the scenario's seed + 0..9);
* a range-position sweep: ``clean.json`` with its subject at 0.0, 0.1, ...,
  0.9 bin past bins 6 and 8, x beamforming on/off x 5 seeds.

Each cell records the |RR| and |HR| errors (p50, p90, max), the targets
with a missing rate, the failed runs by ``failure_stage``, the targets
whose decomposition did not converge, and sha256 digests of the reports
and of the localizations.  No wall time is recorded, so the file is the
same on every machine and at every BLAS thread count; diff two labels to
see what a change did to accuracy.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radarvitals.pipeline import ScenarioSpec, run_scenario  # noqa: E402
from radarvitals.rangefft import range_bin_width  # noqa: E402

BUNDLED_SEEDS = 10
SWEEP_SEEDS = 5
SWEEP_BINS = (6, 8)


def _stats(errors: list[float]) -> dict:
    if not errors:
        return {"p50": None, "p90": None, "max": None}
    a = np.abs(np.asarray(errors))
    return {"p50": round(float(np.percentile(a, 50)), 6),
            "p90": round(float(np.percentile(a, 90)), 6),
            "max": round(float(a.max()), 6)}


def cell(spec: ScenarioSpec, beamforming: bool, seeds: int) -> dict:
    """Run ``seeds`` seeds of ``spec`` and summarize them."""
    rr, hr = [], []
    failures: Counter = Counter()
    missing_rr = missing_hr = non_converged = 0
    reports, locations = hashlib.sha256(), hashlib.sha256()
    for i in range(seeds):
        report = run_scenario(spec, seed=spec.seed + i,
                              beamforming=beamforming).report
        reports.update((json.dumps(report, sort_keys=True, indent=2)
                        + "\n").encode())
        locations.update(json.dumps(
            [(t["track_id"], t["range_bin"], t["angle_bin"])
             for t in report["targets"]]).encode())
        if report["failure_stage"] is not None:
            failures[report["failure_stage"]] += 1
        for t in report["targets"]:
            non_converged += t.get("converged") is False
            if "true_breaths_per_min" not in t:
                continue
            for errors, key in ((rr, "rr_error_rpm"), (hr, "hr_error_bpm")):
                if t.get(key) is not None:
                    errors.append(t[key])
            missing_rr += t.get("rr_error_rpm") is None
            missing_hr += t.get("hr_error_bpm") is None
    return {"runs": seeds, "rr_abs_error_rpm": _stats(rr),
            "hr_abs_error_bpm": _stats(hr), "missing_rr": missing_rr,
            "missing_hr": missing_hr, "failures": dict(sorted(failures.items())),
            "non_converged": non_converged,
            "report_sha256": reports.hexdigest(),
            "localization_sha256": locations.hexdigest()}


def cells():
    """``(name, spec, beamforming, seeds)`` of every cell, in file order."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        spec = ScenarioSpec.from_json(path)
        for bf in (True, False):
            yield f"{path.stem}/bf={bf}", spec, bf, BUNDLED_SEEDS
    clean = ScenarioSpec.from_json(ROOT / "scenarios" / "clean.json")
    width = range_bin_width(clean.radar)
    for b in SWEEP_BINS:
        for tenth in range(10):
            target = dataclasses.replace(clean.scene.targets[0],
                                         range_m=(b + tenth / 10) * width)
            spec = dataclasses.replace(clean, scene=dataclasses.replace(
                clean.scene, targets=(target, *clean.scene.targets[1:])))
            for bf in (True, False):
                yield f"sweep/bin={b}.{tenth}/bf={bf}", spec, bf, SWEEP_SEEDS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    out = {"label": args.label,
           "cells": {name: cell(spec, bf, seeds)
                     for name, spec, bf, seeds in cells()}}
    path = ROOT / "accuracy" / f"ACC_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
