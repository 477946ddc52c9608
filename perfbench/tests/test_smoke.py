"""Smoke test of the benchmark itself, at a tiny run length.

Run from the checkout root::

    python3 -m pytest -q perfbench/tests

It runs every workload once untraced and once traced for about a second
(about a minute in all) and checks the printed result against
BENCHMARK.json, the failure accounting, and that the workload seed reaches
the inputs.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SECONDS = "1"


def _run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


_cache = {}


def run_ok(workload, seed, trace):
    """(detail, result) of a run, cached per argument set."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = _run(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    detail, result = run_ok(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    assert detail["failed_frac"] == 0.0
    for key in ("cpu_count", "python", "numpy", "scipy", "blas",
                "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "blas_threads"):
        assert key in detail["environment"]


@pytest.mark.parametrize("workload", ["clean", "overlap_ab", "decompose"])
def test_self_times_add_up_to_traced_op_time(workload):
    _, result = run_ok(workload, 0, 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    parts = [value for name, value in m.items()
             if name.endswith((".ms", ".self_ms"))
             and name not in ("bench.op.ms", "beamform.steered_render.ms")]
    assert sum(parts) == pytest.approx(m["bench.op.ms"], rel=1e-9)


def test_render_counts_follow_beamforming():
    clean = run_ok("clean", 0, 1)[1]["metrics"]
    ab = run_ok("overlap_ab", 0, 1)[1]["metrics"]
    dec = run_ok("decompose", 0, 1)[1]["metrics"]
    assert clean["simulate.synthesize_cube.calls"]["value"] == 2.0
    assert ab["simulate.synthesize_cube.calls"]["value"] == 3.0
    assert dec["simulate.synthesize_cube.calls"]["value"] == 0.0
    assert dec["beamform.steered_render.ms"]["value"] == 0.0
    assert clean["beamform.steered_render.ms"]["value"] > 0.0


def test_workload_seed_changes_the_inputs():
    d0, _ = run_ok("decompose", 0, 0)
    d1, _ = run_ok("decompose", 1, 0)
    d0_traced, _ = run_ok("decompose", 0, 1)
    assert d0["input_sha256"] != d1["input_sha256"]
    assert d0["input_sha256"] == d0_traced["input_sha256"]
    c0, _ = run_ok("clean", 0, 0)
    c1, _ = run_ok("clean", 1, 0)
    assert c0["input_sha256"] != c1["input_sha256"]
    assert c0["reports_sha256"] != c1["reports_sha256"]


def test_injected_failing_op_counts_as_failed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    run.import_program()
    import workloads

    class FailingClean(workloads.Clean):
        def op(self, i):
            if i == 1:
                raise RuntimeError("injected failure")
            return super().op(i)

    monkeypatch.setitem(workloads.WORKLOADS, "clean", FailingClean)
    assert run.main(["--workload", "clean", "--seed", "0",
                     "--seconds", "2", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert result["attempted"] >= 2 and result["failed"] == 1
    assert result["correct"] is False
    assert detail["failed_frac"] == 1 / result["attempted"]
    assert detail["failure_causes"] == {"RuntimeError: injected failure": 1}
    metrics = result["metrics"]
    assert metrics["ok_frac"]["value"] == 1 - detail["failed_frac"]
    assert metrics["rr_within_frac"]["value"] == 1 - detail["failed_frac"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("clean", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
