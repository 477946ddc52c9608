import dataclasses
import json

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import pipeline, vitals
from radarvitals.pipeline import (ScenarioSpec, _band_seeded_init,
                                  bench_acceleration, run_scenario,
                                  run_suite, write_run_outputs)


@pytest.fixture(scope="module")
def quick_spec():
    return ScenarioSpec(
        name="quick",
        radar=rv.RadarConfig(),
        scene=rv.Scene(
            statics=(rv.PointReflector(4.0, -10.0, 0.8),),
            targets=(rv.VitalTarget(
                2.0, 30.0, 1.0,
                rv.VitalParams(breath_freq=0.25, heart_freq=1.2)),),
            duration=8.0),
        camera=rv.CameraConfig(),
        snr_db=20.0, seed=0)


class TestRunScenario:
    def test_localizes_and_reads_rates(self, quick_spec):
        res = run_scenario(quick_spec)
        assert not res.failed
        (entry,) = res.report["targets"]
        assert entry["track_id"] == "target-0"
        assert entry["range_bin"] == entry["true_range_bin"]
        assert abs(entry["angle_bin"] - entry["true_angle_bin"]) <= 1
        assert entry["breaths_per_min"] == pytest.approx(15.0, abs=1.5)
        assert entry["beats_per_min"] == pytest.approx(72.0, abs=4.0)
        assert entry["converged"]
        assert sum(entry["channel_weights"]) == pytest.approx(1.0)

    def test_stage_timings_recorded(self, quick_spec):
        res = run_scenario(quick_spec)
        for stage in ("simulate", "range_fft", "heatmap", "localize",
                      "beamform", "phase", "weights", "mode_count",
                      "spectrum", "decompose", "rates"):
            assert stage in res.timings_ms
            assert res.timings_ms[stage] >= 0

    def test_no_beamforming_skips_stage(self, quick_spec):
        res = run_scenario(quick_spec, beamforming=False)
        assert "beamform" not in res.timings_ms
        assert res.report["beamforming"] is False
        assert not res.failed

    def test_seed_override_recorded(self, quick_spec):
        res = run_scenario(quick_spec, seed=123)
        assert res.report["seed"] == 123

    def test_empty_room_fails_at_localize(self):
        spec = ScenarioSpec(name="empty", scene=rv.Scene(duration=5.0),
                            snr_db=0.0)
        res = run_scenario(spec)
        assert res.failed
        assert res.report["failure_stage"] == "localize"
        assert res.report["error"]

    def test_walking_only_scene_has_no_stationary_track(self):
        spec = ScenarioSpec(
            name="walkers",
            scene=rv.Scene(movers=(rv.MovingReflector(
                waypoints=((0.0, 2.0, -40.0), (5.0, 3.0, 40.0)),
                amplitude=2.0),), duration=5.0),
            snr_db=20.0)
        res = run_scenario(spec)
        assert res.failed and res.report["failure_stage"] == "localize"
        assert res.report["num_stationary_tracks"] == 0

    @pytest.mark.parametrize("override, stage", [
        ({"n_fft": 8}, "range_fft"),
        ({"num_phase_channels": 4}, "vitals"),
    ])
    def test_stage_failure_is_named(self, quick_spec, override, stage):
        spec = dataclasses.replace(quick_spec, beamforming=False, **override)
        res = run_scenario(spec)
        assert res.failed
        assert res.report["failure_stage"] == stage
        assert res.report["error"]
        if stage == "vitals":
            (entry,) = res.report["targets"]
            assert "failure" in entry
            assert "phase" in res.timings_ms
            assert res.chains == {}

    def test_chain_kept_per_target(self, quick_spec):
        res = run_scenario(quick_spec)
        (entry,) = res.report["targets"]
        chain = res.chains[entry["track_id"]]
        assert chain.k == entry["num_modes"]
        assert chain.modes.iterations == entry["iterations"]
        assert chain.rates.breaths_per_min == entry["breaths_per_min"]
        assert ((chain.spectra.n_bins - 1) * chain.spectra.bin_hz
                == entry["kept_band_hz"])

    def test_report_is_deterministic(self, quick_spec):
        a = run_scenario(quick_spec, seed=9)
        b = run_scenario(quick_spec, seed=9)
        assert (json.dumps(a.report, sort_keys=True)
                == json.dumps(b.report, sort_keys=True))
        c = run_scenario(quick_spec, seed=10)
        assert (json.dumps(a.report, sort_keys=True)
                != json.dumps(c.report, sort_keys=True))

    def test_n_keep_override(self, quick_spec):
        res = run_scenario(quick_spec, n_keep=None)
        (entry,) = res.report["targets"]
        assert res.report["n_keep"] is None
        # full band: half the frame rate
        assert entry["kept_band_hz"] == pytest.approx(10.0, abs=0.1)


class TestSpecSerialization:
    def test_json_round_trip(self, quick_spec, tmp_path):
        path = tmp_path / "spec.json"
        quick_spec.to_json(path)
        again = ScenarioSpec.from_json(path)
        assert again.to_dict() == quick_spec.to_dict()
        assert again == quick_spec          # bands come back as tuples

    def test_committed_scenarios_load(self):
        from pathlib import Path
        root = Path(__file__).parents[1] / "scenarios"
        names = set()
        for p in sorted(root.glob("*.json")):
            spec = ScenarioSpec.from_json(p)
            names.add(spec.name)
        assert {"clean", "range-overlap", "fusion-stress", "bench"} <= names


class TestBandSeededInit:
    def test_one_seed_per_band(self):
        fs, n = 20.0, 600
        t = np.arange(n) / fs
        s = 10 * np.sin(2 * np.pi * 0.25 * t) + 0.5 * np.sin(2 * np.pi * 1.2 * t)
        spec = vitals.analytic_spectrum(s, fs)
        init = _band_seeded_init(spec, np.ones(1), 2,
                                 bands=((0.1, 0.5), (0.8, 2.5)))
        assert init[0] == pytest.approx(0.25, abs=0.05)
        assert init[1] == pytest.approx(1.2, abs=0.05)

    def test_extra_modes_spread(self):
        spec = vitals.analytic_spectrum(np.random.default_rng(0)
                                        .standard_normal(600), 20.0)
        init = _band_seeded_init(spec, np.ones(1), 6,
                                 bands=((0.1, 0.5), (0.8, 2.5)))
        assert init.size == 6
        assert np.all(np.diff(init) >= 0)
        assert init[-1] <= spec.freqs_hz[-1]

    def test_band_outside_kept_spectrum_skipped(self):
        spec = vitals.truncate_spectrum(
            vitals.analytic_spectrum(np.ones(600), 20.0), 30)
        init = _band_seeded_init(spec, np.ones(1), 2,
                                 bands=((5.0, 8.0), (0.1, 0.5)))
        assert init.size == 2
        assert np.all(init <= spec.freqs_hz[-1])


class TestSuite:
    def test_aggregates_and_writes(self, quick_spec, tmp_path):
        summary = run_suite(quick_spec, repetitions=3, out_dir=tmp_path)
        assert summary["repetitions"] == 3
        assert summary["failed_runs"] == 0
        assert summary["num_rr_samples"] == 3
        assert summary["rr_abs_error_rpm"]["p50"] is not None
        assert (tmp_path / "suite_summary.json").exists()
        assert (tmp_path / "cdf_rr.csv").exists()
        assert (tmp_path / "run-000" / "report.json").exists()
        assert (tmp_path / "run-002" / "timings.csv").exists()
        # distinct seeds per repetition
        seeds = [json.loads((tmp_path / f"run-{i:03d}" / "report.json")
                            .read_text())["seed"] for i in range(3)]
        assert seeds == [quick_spec.seed + i for i in range(3)]

    def test_failures_are_counted_not_pooled(self, tmp_path):
        spec = ScenarioSpec(name="empty", scene=rv.Scene(duration=5.0),
                            snr_db=0.0)
        summary = run_suite(spec, repetitions=2)
        assert summary["failed_runs"] == 2
        assert summary["num_rr_samples"] == 0
        assert summary["rr_abs_error_rpm"]["p50"] is None

    def test_rejects_zero_repetitions(self, quick_spec):
        with pytest.raises(ValueError):
            run_suite(quick_spec, repetitions=0)


class TestBench:
    def test_rows_and_baseline(self, quick_spec, tmp_path):
        out = tmp_path / "bench.csv"
        rows = bench_acceleration(quick_spec, n_keep_values=[40],
                                  repeats=2, out_path=out)
        by_keep = {r["n_keep"]: r for r in rows}
        assert by_keep["full"]["speedup_vs_full"] == 1.0
        assert by_keep[40]["n_bins"] == 40
        assert by_keep[40]["wall_ms"] > 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("n_keep,n_bins,wall_ms,speedup_vs_full")

    def test_rates_stay_consistent(self, quick_spec):
        rows = bench_acceleration(quick_spec, n_keep_values=[60], repeats=1)
        by_keep = {r["n_keep"]: r for r in rows}
        assert abs(by_keep[60]["rr_delta_rpm"]) < 0.5

    @pytest.mark.parametrize("beamforming, renders", [(True, 2), (False, 1)])
    def test_reuses_the_run(self, quick_spec, monkeypatch, beamforming,
                            renders):
        spec = dataclasses.replace(quick_spec, beamforming=beamforming)
        steered = []
        render = pipeline.synthesize_cube

        def counted(*args, **kwargs):
            steered.append(kwargs.get("tx_weights") is not None)
            return render(*args, **kwargs)

        monkeypatch.setattr(pipeline, "synthesize_cube", counted)
        rows = bench_acceleration(spec, n_keep_values=[40], repeats=1)
        assert steered == [False, True][:renders]
        monkeypatch.undo()
        (entry,) = run_scenario(spec, n_keep=None).report["targets"]
        full = {r["n_keep"]: r for r in rows}["full"]
        assert full["iterations"] == entry["iterations"]
        assert full["breaths_per_min"] == entry["breaths_per_min"]
        assert full["beats_per_min"] == entry["beats_per_min"]

    def test_oversized_keep_is_clipped(self, quick_spec):
        rows = bench_acceleration(quick_spec, n_keep_values=[10_000],
                                  repeats=1)
        requested = [r["n_keep"] for r in rows]
        assert "full" in requested
        assert all(r["n_bins"] <= 81 for r in rows)


def test_write_run_outputs(tmp_path, quick_spec):
    res = run_scenario(quick_spec)
    path = write_run_outputs(res, tmp_path / "out")
    assert path.exists()
    report = json.loads(path.read_text())
    assert report["scenario"]["name"] == "quick"
    lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert lines[0] == "stage,milliseconds"
    assert len(lines) > 5
