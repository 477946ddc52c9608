"""Command-line harness.

Verbs
-----
run      one seeded end-to-end scenario repetition -> report.json
suite    repeated runs pooled into error percentiles, CDFs and failure counts
bench    decomposition timing at several spectrum truncation lengths
pattern  the radar's steered transmit or receive array factor -> CSV

Examples
--------
radarvitals run --scenario scenarios/clean.json --out out/run0 --seed 7
radarvitals suite --scenario scenarios/clean.json --out out/suite --repetitions 20
radarvitals bench --scenario scenarios/bench.json --out out/bench --n-keep 100,full
radarvitals pattern --role rx --steer 30 --out pattern.csv
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import beamform
from .pipeline import ScenarioSpec, StageFailed, bench_acceleration, \
    run_scenario, run_suite, write_run_outputs


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(kind, ok, what: str):
    """An argparse ``type=`` that parses with ``kind`` and admits only the
    values ``ok`` holds for."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
    return parse


_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_ANGLE = _checked(float, lambda v: -90 <= v <= 90,
                  "an angle in [-90, 90] degrees")
# At most 180 001 angles in a beam pattern's grid.
_ANGLE_STEP = _checked(float, lambda v: 0.001 <= v < math.inf,
                       "a finite step >= 0.001 degrees")
_N_KEEP = _checked(int, lambda v: v >= 4, "an integer >= 4 or 'full'")


def _parse_n_keep(text: str):
    if text.lower() in ("full", "none", "all"):
        return None
    return _N_KEEP(text)


def _parse_n_keep_list(text: str) -> list:
    """``bench --n-keep``: comma-separated :func:`_parse_n_keep` values."""
    try:
        return [_parse_n_keep(v) for v in text.split(",") if v]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must list integers >= 4 or 'full', not {text!r}") from None


def _add_common(p: argparse.ArgumentParser,
                scenario_help: str = "scenario JSON file") -> None:
    p.add_argument("--scenario", required=True, type=Path,
                   help=scenario_help)
    p.add_argument("--out", required=True, type=Path,
                   help="output directory")
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=None,
                   help="override the scenario seed")
    p.add_argument("--no-beamforming", action="store_true",
                   help="skip transmit/receive steering; read phase from "
                        "the first virtual antenna")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radarvitals",
        description="Simulated FMCW radar vital-sign sensing pipeline")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario repetition")
    _add_common(p_run)

    p_suite = sub.add_parser("suite", help="run repeated seeded repetitions")
    _add_common(p_suite,
                scenario_help="scenario JSON file, or a directory of them")
    p_suite.add_argument("--repetitions", type=_POSITIVE_INT, default=20)

    p_bench = sub.add_parser("bench", help="time the decomposition stage")
    p_bench.add_argument("--scenario", required=True, type=Path)
    p_bench.add_argument("--out", required=True, type=Path)
    p_bench.add_argument("--n-keep", type=_parse_n_keep_list,
                         default="100,full",
                         help="comma-separated truncation lengths "
                              "(integers or 'full')")
    p_bench.add_argument("--repeats", type=_POSITIVE_INT, default=5,
                         help="timing repetitions per row (best kept)")

    p_pat = sub.add_parser("pattern",
                           help="export the radar's steered beam pattern")
    p_pat.add_argument("--role", choices=("tx", "rx"), required=True,
                       help="the transmit or the virtual receive array")
    p_pat.add_argument("--steer", type=_ANGLE, required=True,
                       help="steering angle in degrees")
    p_pat.add_argument("--step", type=_ANGLE_STEP, default=0.25,
                       help="angle grid step in degrees")
    p_pat.add_argument("--out", required=True, type=Path,
                       help="output CSV file")
    return parser


def _load(path: Path) -> ScenarioSpec | None:
    """The scenario at ``path``, or None after one stderr line saying why
    it does not load."""
    try:
        return ScenarioSpec.from_json(path)
    except (OSError, ValueError) as e:
        print(f"{path}: invalid scenario: {e}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    spec = _load(args.scenario)
    if spec is None:
        return 2
    res = run_scenario(spec, seed=args.seed,
                       beamforming=False if args.no_beamforming else None)
    path = write_run_outputs(res, args.out)
    if res.failed:
        print(f"FAILED at stage {res.report['failure_stage']}: "
              f"{res.report['error']}", file=sys.stderr)
        print(f"report: {path}")
        return 1
    for t in res.report["targets"]:
        rr = t.get("breaths_per_min")
        hr = t.get("beats_per_min")
        print(f"{t['track_id']}: range {t['range_m']:.2f} m, "
              f"angle {t['angle_deg']:.1f} deg, "
              f"RR {'-' if rr is None else f'{rr:.2f}'} rpm, "
              f"HR {'-' if hr is None else f'{hr:.2f}'} bpm")
    print(f"report: {path}")
    return 0


def _cmd_suite(args) -> int:
    if args.scenario.is_dir():
        paths = sorted(args.scenario.glob("*.json"))
        if not paths:
            print(f"no scenario JSON files in {args.scenario}",
                  file=sys.stderr)
            return 2
    else:
        paths = [args.scenario]
    specs = [_load(path) for path in paths]
    if None in specs:
        return 2
    rc = 0
    for path, spec in zip(paths, specs):
        out = args.out / path.stem if len(paths) > 1 else args.out
        summary = run_suite(
            spec, repetitions=args.repetitions, out_dir=out, seed=args.seed,
            beamforming=False if args.no_beamforming else None)
        stages = ", ".join(f"{stage}: {n}"
                           for stage, n in summary["failures"].items())
        print(f"{spec.name}: {summary['repetitions']} runs, "
              f"{summary['failed_runs']} failed"
              f"{f' ({stages})' if stages else ''}, "
              f"{summary['non_converged']} non-converged")
        for metric, tag, unit in (("rr_abs_error_rpm", "rr", "rpm"),
                                  ("hr_abs_error_bpm", "hr", "bpm")):
            line = ", ".join(
                f"{k}={'-' if v is None else f'{v:.3f}'}"
                for k, v in summary[metric].items())
            print(f"  {metric} [{unit}]: {line} "
                  f"({summary[f'num_{tag}_samples']} samples, "
                  f"{summary[f'missing_{tag}']} missing)")
        rc = max(rc, 1 if summary["failed_runs"] else 0)
    return rc


def _cmd_bench(args) -> int:
    spec = _load(args.scenario)
    if spec is None:
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        rows = bench_acceleration(spec, n_keep_values=args.n_keep,
                                  repeats=args.repeats,
                                  out_path=args.out / "bench.csv")
    except StageFailed as e:
        print(f"FAILED at stage {e.stage}: {e.error}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"{args.scenario}: cannot bench: {e}", file=sys.stderr)
        return 2
    print(f"{'n_keep':>8} {'bins':>6} {'ms':>10} {'speedup':>8} "
          f"{'RR rpm':>8} {'HR bpm':>8}")
    for row in rows:
        rr = row["breaths_per_min"]
        hr = row["beats_per_min"]
        print(f"{str(row['n_keep']):>8} {row['n_bins']:>6} "
              f"{row['wall_ms']:>10.2f} {row['speedup_vs_full']:>8.2f} "
              f"{'-' if rr is None else f'{rr:8.2f}'} "
              f"{'-' if hr is None else f'{hr:8.2f}'}")
    print(f"table: {args.out / 'bench.csv'}")
    return 0


def _cmd_pattern(args) -> int:
    weights = beamform.tx_weights if args.role == "tx" else beamform.rx_weights
    bw = weights(args.steer)
    pattern = beamform.beam_pattern(bw, step_deg=args.step)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    beamform.write_pattern_csv(pattern, args.out)
    # The highest gain nearest the steer: a grating lobe ties the mainlobe.
    nearest = np.argsort(np.abs(pattern.angles_deg - args.steer),
                         kind="stable")
    peak = pattern.angles_deg[nearest[pattern.gain_db[nearest].argmax()]]
    print(f"{args.role} pattern steered to {args.steer:+.1f} deg "
          f"({len(bw)} elements, d={bw.spacing:.4g} m): "
          f"peak at {peak:+.2f} deg")
    print(f"csv: {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "run":
        return _cmd_run(args)
    if args.verb == "suite":
        return _cmd_suite(args)
    if args.verb == "bench":
        return _cmd_bench(args)
    return _cmd_pattern(args)


if __name__ == "__main__":
    sys.exit(main())
