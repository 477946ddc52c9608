"""Accuracy trajectory: rate errors, misses and failures per scenario cell.

Usage, from the root of a checkout::

    python3 scripts/accuracy.py --label <label>

writes ``accuracy/ACC_<label>.json``.  Its cells are

* every bundled scenario (``scenarios/*.json``) x beamforming on/off x 10
  seeds (the scenario's seed + 0..9);
* a range-position sweep: ``clean.json`` with its subject at 0.0, 0.1, ...,
  0.9 bin past bins 6 and 8, x beamforming on/off x 5 seeds.

Each cell is the cell's runs pooled by ``pipeline.summarize_runs`` (the
|RR| and |HR| errors' p50, p80, p90 and max, the targets with a missing
rate, the failed runs by ``failure_stage``, the targets whose
decomposition did not converge), plus sha256 digests of the reports (the
``report.json`` text, ``pipeline.json_text``) and of the localizations.
No wall time is recorded, so the file is the same on every machine and at
every BLAS thread count; diff two labels to see what a change did to
accuracy.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radarvitals.pipeline import (ScenarioSpec, json_text,  # noqa: E402
                                  run_scenario, summarize_runs)
from radarvitals.rangefft import RANGE_BIN_WIDTH  # noqa: E402

BUNDLED_SEEDS = 10
SWEEP_SEEDS = 5
SWEEP_BINS = (6, 8)


def _sha256(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def cell(spec: ScenarioSpec, beamforming: bool, seeds: int) -> dict:
    """Run ``seeds`` seeds of ``spec``: their :func:`summarize_runs` plus
    sha256 digests of the reports and of the localizations."""
    reports = [run_scenario(spec, seed=spec.seed + i,
                            beamforming=beamforming).report
               for i in range(seeds)]
    return {**summarize_runs(reports),
            "report_sha256": _sha256(json_text(r) for r in reports),
            "localization_sha256": _sha256(
                json.dumps([(t["track_id"], t["range_bin"], t["angle_bin"])
                            for t in r["targets"]]) for r in reports)}


def cells():
    """``(name, spec, beamforming, seeds)`` of every cell, in file order."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        spec = ScenarioSpec.from_json(path)
        for bf in (True, False):
            yield f"{path.stem}/bf={bf}", spec, bf, BUNDLED_SEEDS
    clean = ScenarioSpec.from_json(ROOT / "scenarios" / "clean.json")
    for b in SWEEP_BINS:
        for tenth in range(10):
            range_m = (b + tenth / 10) * RANGE_BIN_WIDTH
            target = dataclasses.replace(clean.scene.targets[0],
                                         range_m=range_m)
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
