"""radarvitals benchmark: one workload, one process, a closed loop of ops.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean --seed 0 --seconds 30 --trace 0

One client runs op after op, each starting when the previous one returned,
until ``--seconds`` have passed.  Every op's output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The line before it is a detail record (environment, tail
percentile, failure causes, digests).  Spans and per-op records are written
to ``perfbench/out/``.  See README.md.

The benchmark starts no threads or processes and sets no BLAS or OpenMP
thread variable; it imports radarvitals only from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("clean", "overlap_ab", "decompose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import radarvitals from this checkout's ``src/``, or refuse to run."""
    if not (ROOT / "src" / "radarvitals" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {ROOT} is not a radarvitals checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import radarvitals
    if Path(radarvitals.__file__).resolve().parent != ROOT / "src" / "radarvitals":
        raise SystemExit(f"perfbench: imported radarvitals from "
                         f"{radarvitals.__file__}, not from this checkout")
    import workloads
    return workloads


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes, or ``unknown``."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; with 10 or fewer samples there is none, so the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds``.

    With a tracer every other op is traced, and the loop runs at least one
    traced and one untraced op.
    """
    from workloads import OpOutcome
    records = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        error = None
        out = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(i):
                    out = workload.op(i)
            else:
                out = workload.op(i)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if error is None:
            try:
                outcome = workload.check(i, out)
            except Exception as exc:
                outcome = None
                error = f"check: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
        if error is not None:
            outcome = OpOutcome(ok=False, targets=workload.targets_per_op,
                                rr_within=0, hr_within=0, error=error)
        records.append({"op": i, "traced": traced, "ms": (t1 - t0) * 1e3,
                        "cpu_ms": (c1 - c0) * 1e3, "ok": outcome.ok,
                        "error": outcome.error,
                        "targets": outcome.targets,
                        "rr_within": outcome.rr_within,
                        "hr_within": outcome.hr_within,
                        "report_sha256": outcome.report_sha256})
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i >= 2):
            break
    return {"records": records, "wall_s": time.perf_counter() - t_start,
            "t_start": t_start}


def end_to_end(records, wall_s: float, setup_s: float) -> dict:
    ms = [r["ms"] for r in records]
    failed = sum(not r["ok"] for r in records)
    targets = sum(r["targets"] for r in records)
    tail_ms, _ = tail(ms)
    values = {
        "op_ms_p50": ("ms", statistics.median(ms)),
        "op_ms_tail": ("ms", tail_ms),
        "ops_per_s": ("1/s", len(records) / wall_s),
        "cpu_ms_per_op": ("ms", statistics.fmean(r["cpu_ms"] for r in records)),
        "peak_rss_mb": ("MB", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "setup_s": ("s", setup_s),
        "ok_frac": ("frac", 1.0 - failed / len(records)),
        "rr_within_frac": ("frac", sum(r["rr_within"] for r in records) / targets),
        "hr_within_frac": ("frac", sum(r["hr_within"] for r in records) / targets),
    }
    return {name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    workloads = import_program()
    import spans
    import_s = time.perf_counter() - t_import

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(ROOT, args.seed, OUT_DIR)
        workload.prepare()
        setup_times.append(time.perf_counter() - t0)
        digests.append(workload.input_digest())
    if len(set(digests)) != 1:
        raise SystemExit("perfbench: repeated set-ups captured different inputs")
    setup_s = import_s + statistics.median(setup_times)

    tracer = spans.Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    records = run["records"]
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}-ops.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")

    if tracer is None:
        metrics = end_to_end(records, run["wall_s"], setup_s)
    else:
        tracer.write_jsonl(f"{stem}-spans.jsonl", run["t_start"])
        traced = [r["ms"] for r in records if r["traced"]]
        untraced = [r["ms"] for r in records if not r["traced"]]
        metrics = spans.layer_metrics(
            tracer.spans, len(traced),
            statistics.median(traced) - statistics.median(untraced))

    ms = [r["ms"] for r in records]
    failed = sum(not r["ok"] for r in records)
    tail_ms, tail_pct = tail(ms)
    errors: dict[str, int] = {}
    for r in records:
        if r["error"] is not None:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "ops": len(records), "traced_ops": sum(r["traced"] for r in records),
        "failed_frac": failed / len(records),
        "failure_causes": errors,
        "op_ms_tail_percentile": tail_pct, "op_ms_tail_samples": len(ms),
        "import_s": import_s, "setup_runs_s": setup_times,
        "input_sha256": digests[0],
        "reports_sha256": _digest(r["report_sha256"] for r in records),
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _digest(sha_lists) -> str:
    h = hashlib.sha256()
    for shas in sha_lists:
        for sha in shas:
            h.update(sha.encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
