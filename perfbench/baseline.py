"""Record a baseline: every workload at several seeds, into BENCH_<label>.json.

Run from the checkout root::

    python3 perfbench/baseline.py --label seed

For each workload it runs ``run.py`` untraced once per seed, one after
another, then once traced at the first seed.  It writes every result line
as printed, and the median and quartile spread of each end-to-end metric,
to ``perfbench/BENCH_<label>.json``.  The spread is the distance between
the first and third quartile as a share of the median; the bound beside it
is the one ``BENCHMARK.json`` fixes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": bound}
    return out


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="0-9",
                   help="first-last seed, inclusive (default 0-9)")
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in contract["workloads"]))
    args = p.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    record = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        traced = run_once(workload, first, seconds, 1)
        summary = summarize(runs, bounds)
        for name, s in summary.items():
            print(f"{workload:11s} {name:15s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} bound {s['bound']}", flush=True)
        record["workloads"][workload] = {
            "summary": summary, "untraced": runs, "traced": traced}
    path = ROOT / "perfbench" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
