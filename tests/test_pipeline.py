import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import beamform, pipeline, vitals
from radarvitals.pipeline import (ScenarioSpec, bench_acceleration,
                                  run_scenario, run_suite, write_run_outputs)
from radarvitals.rangefft import range_bin_of, range_fft
from radarvitals.simulate import synthesize_cube
from radarvitals.vitals import band_seeded_init

SCENARIOS = Path(__file__).parents[1] / "scenarios"


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
        # a scatterer past the beat Nyquist limit (19.19 m here)
        ({"scene": rv.Scene(statics=(rv.PointReflector(25.0, 0.0),),
                            duration=8.0)}, "simulate"),
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

    def test_max_range_below_bin_zero_fails_at_localize(self, quick_spec):
        res = run_scenario(dataclasses.replace(quick_spec, max_range_m=-1.0))
        assert res.report["failure_stage"] == "localize"
        assert res.report["error"] == "no range bins at or below max_range"

    def test_target_at_the_last_heatmap_row_keeps_its_channels(
            self, quick_spec):
        """With max_range_m 2.0 the heatmap ends at bin 6 and the target
        (bin 7) is localized there; the profiles reach half a phase window
        past that row, so all five channels around it are read."""
        res = run_scenario(dataclasses.replace(quick_spec, max_range_m=2.0))
        assert not res.failed, res.report["error"]
        (entry,) = res.report["targets"]
        assert (entry["range_bin"], entry["true_range_bin"]) == (6, 7)

    @pytest.mark.parametrize("range_m, max_range_m", [(0.3, 10.0),
                                                      (18.9, 20.0)])
    def test_window_off_the_profile_fails_alike_steered_or_not(
            self, range_m, max_range_m):
        """The 5-bin window around a target at the first or last bin leaves
        the profile: both ways it is the same named vitals failure."""
        spec = ScenarioSpec(
            name="edge", max_range_m=max_range_m,
            scene=rv.Scene(targets=(rv.VitalTarget(
                range_m, 30.0, 1.0,
                rv.VitalParams(breath_freq=0.25, heart_freq=1.2)),),
                duration=6.0))
        failures = []
        for beamforming in (True, False):
            res = run_scenario(spec, beamforming=beamforming)
            assert res.report["failure_stage"] == "vitals"
            (entry,) = res.report["targets"]
            failures.append(entry["failure"])
        assert failures[0] == failures[1]
        assert "fall outside the 65-bin range profile" in failures[0]

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


def _scenario_with_every_level() -> dict:
    """range_overlap.json as a dict, with a body-motion burst added to its
    target's vitals and to its mover, so every record type occurs."""
    d = json.loads((SCENARIOS / "range_overlap.json").read_text())
    burst = {"freq": 1.0, "amp": 1e-3, "start": 1.0, "stop": 2.0}
    d["scene"]["targets"][0]["vitals"]["body_motion"] = [dict(burst)]
    d["scene"]["movers"][0]["body_motion"] = [dict(burst)]
    return d


def _node(d: dict, path: tuple):
    for step in path:
        d = d[step]
    return d


# Where each kind of scenario record sits in a scenario dict.
SCENARIO_LEVELS = {
    "top": (),
    "processing": ("processing",),
    "radar": ("radar",),
    "camera": ("camera",),
    "scene": ("scene",),
    "static": ("scene", "statics", 0),
    "target": ("scene", "targets", 0),
    "vitals": ("scene", "targets", 0, "vitals"),
    "body_motion": ("scene", "targets", 0, "vitals", "body_motion", 0),
    "mover": ("scene", "movers", 0),
    "mover_body_motion": ("scene", "movers", 0, "body_motion", 0),
}


# A wrong-typed value for top-level scalars and processing knobs.
WRONG_TYPED_SCALARS = [
    ("max_iter", "x"),
    ("n_keep", "abc"),
    ("num_phase_channels", 5.5),
    ("seed", "x"),
    ("snr_db", "loud"),
    ("alpha", "big"),
    ("max_iter", True),                 # a bool is not an int
    ("seed", False),
    ("alpha", True),
    ("num_modes", "fancy"),             # an int or "auto"
    ("num_modes", 2.0),
    ("beamforming", 1),
    ("name", 7),
    ("n_fft", 128.0),
    ("rr_band", [0.1]),
    ("hr_band", ["low", "high"]),
]


# A value of the right type that no run survives, and what the error says.
UNSURVIVABLE_VALUES = [
    ("seed", -3, "seed must be >= 0"),
    ("snr_db", float("nan"), "snr_db must be"),
    ("alpha", float("nan"), "alpha must be"),
    ("max_range_m", float("nan"), "max_range_m must be"),
    ("rr_band", [float("nan"), 0.5], "rr_band must be"),
    ("rr_band", [0.5, 0.1], r"rr_band must be a \(lo, hi\) band"),
    ("hr_band", [1.2, 1.2], r"hr_band must be a \(lo, hi\) band"),
]


def _scalar_node(d: dict, key: str) -> dict:
    return d if key in pipeline._TOP_LEVEL_FIELDS else d["processing"]


class TestStrictKeys:
    def test_every_level_loads_as_is(self):
        d = _scenario_with_every_level()
        spec = ScenarioSpec.from_dict(d)
        assert spec.to_dict() == d

    @pytest.mark.parametrize("path", SCENARIO_LEVELS.values(),
                             ids=SCENARIO_LEVELS.keys())
    def test_unknown_key_is_rejected(self, path):
        d = _scenario_with_every_level()
        _node(d, path)["n_kep"] = 50
        with pytest.raises(ValueError, match="unknown key 'n_kep'"):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("path,key", [
        (("scene", "targets", 0), "angle_deg"),
        (("scene", "statics", 0), "range_m"),
        (("scene", "movers", 0), "waypoints"),
        (("scene", "targets", 0, "vitals", "body_motion", 0), "stop"),
        ((), "name"),
    ])
    def test_missing_required_key_is_rejected(self, path, key):
        d = _scenario_with_every_level()
        del _node(d, path)[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            ScenarioSpec.from_dict(d)

    def test_keys_stay_at_their_level(self):
        d = _scenario_with_every_level()
        d["processing"]["seed"] = 3
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            ScenarioSpec.from_dict(d)
        d = _scenario_with_every_level()
        d["n_keep"] = d["processing"].pop("n_keep")
        with pytest.raises(ValueError, match="unknown key 'n_keep'"):
            ScenarioSpec.from_dict(d)

    def test_wrong_types_raise_value_error(self):
        d = _scenario_with_every_level()
        d["scene"]["statics"][0]["range_m"] = "far"
        with pytest.raises(ValueError, match="PointReflector"):
            ScenarioSpec.from_dict(d)
        d = _scenario_with_every_level()
        d["scene"]["targets"][0]["vitals"] = None
        with pytest.raises(ValueError, match="VitalParams"):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("key, value", WRONG_TYPED_SCALARS,
                             ids=[f"{k}={v!r}" for k, v in
                                  WRONG_TYPED_SCALARS])
    def test_wrong_typed_scalar_is_rejected(self, key, value):
        d = _scenario_with_every_level()
        _scalar_node(d, key)[key] = value
        with pytest.raises(ValueError, match=f"ScenarioSpec: {key} must be"):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("key, value, message", UNSURVIVABLE_VALUES,
                             ids=[f"{k}={v!r}" for k, v, _ in
                                  UNSURVIVABLE_VALUES])
    def test_unsurvivable_value_is_rejected(self, key, value, message):
        d = _scenario_with_every_level()
        _scalar_node(d, key)[key] = value
        with pytest.raises(ValueError, match=f"ScenarioSpec: {message}"):
            ScenarioSpec.from_dict(d)

    def test_an_int_passes_for_a_float_unconverted(self):
        d = _scenario_with_every_level()
        d["snr_db"] = 20
        d["processing"].update(alpha=2000, max_range_m=10, num_modes=3,
                               rr_band=[0, 1])
        spec = ScenarioSpec.from_dict(d)
        assert type(spec.snr_db) is int and type(spec.alpha) is int
        assert spec.num_modes == 3 and spec.rr_band == (0, 1)
        assert spec.to_dict() == d

    def test_omitted_blocks_take_defaults(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec == ScenarioSpec(name="bare")


class TestSpecSerialization:
    def test_json_round_trip(self, quick_spec, tmp_path):
        path = tmp_path / "spec.json"
        quick_spec.to_json(path)
        again = ScenarioSpec.from_json(path)
        assert again.to_dict() == quick_spec.to_dict()
        assert again == quick_spec          # bands come back as tuples

    def test_committed_scenarios_load(self, tmp_path):
        names = set()
        for p in sorted(SCENARIOS.glob("*.json")):
            spec = ScenarioSpec.from_json(p)
            names.add(spec.name)
            spec.to_json(tmp_path / p.name)
            assert (tmp_path / p.name).read_bytes() == p.read_bytes()
        assert {"clean", "range-overlap", "fusion-stress", "bench"} <= names


class TestBandSeededInit:
    def test_one_seed_per_band(self):
        fs, n = 20.0, 600
        t = np.arange(n) / fs
        s = 10 * np.sin(2 * np.pi * 0.25 * t) + 0.5 * np.sin(2 * np.pi * 1.2 * t)
        spec = vitals.analytic_spectrum(s, fs)
        init = band_seeded_init(spec, np.ones(1), 2,
                                bands=((0.1, 0.5), (0.8, 2.5)))
        assert init[0] == pytest.approx(0.25, abs=0.05)
        assert init[1] == pytest.approx(1.2, abs=0.05)

    def test_extra_modes_spread(self):
        spec = vitals.analytic_spectrum(np.random.default_rng(0)
                                        .standard_normal(600), 20.0)
        init = band_seeded_init(spec, np.ones(1), 6,
                                bands=((0.1, 0.5), (0.8, 2.5)))
        assert init.size == 6
        assert np.all(np.diff(init) >= 0)
        assert init[-1] <= spec.freqs_hz[-1]

    def test_band_outside_kept_spectrum_skipped(self):
        spec = vitals.truncate_spectrum(
            vitals.analytic_spectrum(np.ones(600), 20.0), 30)
        init = band_seeded_init(spec, np.ones(1), 2,
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

    @pytest.mark.parametrize("beamforming, renders", [(True, 1), (False, 1)])
    def test_reuses_the_run(self, quick_spec, monkeypatch, beamforming,
                            renders):
        spec = dataclasses.replace(quick_spec, beamforming=beamforming)
        calls = {"range_profiles": [], "render_profiles": [],
                 "synthesize_cube": [], "range_fft": []}

        def counted(name):
            fn = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name].append(kwargs)
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counted(name))
        rows = bench_acceleration(spec, n_keep_values=[40], repeats=1)
        assert len(calls["range_profiles"]) == renders
        # steering adds one noise-free correction in the phase window
        assert ([kw["gain_offset"] for kw in calls["render_profiles"]]
                == [1.0] * beamforming)
        assert calls["synthesize_cube"] == calls["range_fft"] == []
        monkeypatch.undo()
        (entry,) = run_scenario(spec, n_keep=None).report["targets"]
        full = {r["n_keep"]: r for r in rows}["full"]
        assert full["iterations"] == entry["iterations"]
        assert full["breaths_per_min"] == entry["breaths_per_min"]
        assert full["beats_per_min"] == entry["beats_per_min"]

    def test_too_few_bins_for_the_modes_raises_before_timing(
            self, quick_spec, monkeypatch):
        """A kept length under 2 x k bins is refused after the run's own
        decomposition and before any row is timed."""
        spec = dataclasses.replace(quick_spec, num_modes=4)
        calls = []
        vmd = vitals.multichannel_vmd

        def counted(spectra, *args, **kwargs):
            calls.append(spectra.n_bins)
            return vmd(spectra, *args, **kwargs)

        monkeypatch.setattr(vitals, "multichannel_vmd", counted)
        for values in ([4, None], [40, 5], [2]):
            calls.clear()
            with pytest.raises(ValueError, match=r"^n_keep \d+ keeps [45] "
                               r"spectrum bins, fewer than the 8 that 4 "
                               r"modes need$"):
                bench_acceleration(spec, n_keep_values=values, repeats=1)
            assert calls == [81]

    def test_oversized_keep_is_clipped(self, quick_spec):
        rows = bench_acceleration(quick_spec, n_keep_values=[10_000],
                                  repeats=1)
        requested = [r["n_keep"] for r in rows]
        assert "full" in requested
        assert all(r["n_bins"] <= 81 for r in rows)


class TestSteeredProfiles:
    """The beamform stage's steered profiles against a steered re-render."""

    @pytest.fixture(scope="class")
    def renders(self):
        # range_overlap: static clutter, a vital target and a mover
        spec = ScenarioSpec.from_json(SCENARIOS / "range_overlap.json")
        cfg = spec.radar
        tgt = spec.scene.targets[0]
        tx = beamform.tx_weights(tgt.angle_deg, cfg.wavelength,
                                 num_elements=cfg.num_tx,
                                 spacing=cfg.tx_spacing)
        cubes = [synthesize_cube(spec.scene, cfg, tx_weights=w,
                                 snr_db=spec.snr_db, seed=11)
                 for w in (None, tx)]
        return spec, tx, cubes

    @pytest.mark.parametrize("n_fft", [None, 256])
    @pytest.mark.parametrize("where", ["target", "first_bins"])
    def test_matches_the_steered_render_in_the_read_window(
            self, renders, n_fft, where):
        spec, tx, (plain, steered) = renders
        profiles = range_fft(plain, n_fft=n_fft)
        before = profiles.data.copy()
        reference = range_fft(steered, n_fft=n_fft).data
        center = (range_bin_of(spec.scene.targets[0].range_m, spec.radar,
                               profiles.n_fft)
                  if where == "target" else spec.num_phase_channels // 2)
        got = pipeline._steered(spec, profiles, tx, center).data
        bins, frames = vitals.phase_window(profiles, center,
                                           spec.num_phase_channels)
        want = reference[bins.start:bins.stop][:, frames]
        err = np.abs(got[bins.start:bins.stop][:, frames] - want)
        assert err.max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(profiles.data, before)    # input untouched


class TestDeterminism:
    def test_reports_match_a_single_blas_thread_process(self, tmp_path):
        """Reports of every bundled scenario, steered and not, are
        byte-identical twice in-process and in a fresh process with one
        BLAS thread."""
        cases = [(name, bf) for name in ("clean", "range_overlap",
                                         "fusion_stress", "bench")
                 for bf in (True, False)]
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from radarvitals.pipeline import (ScenarioSpec, run_scenario,\n"
            "                                  write_run_outputs)\n"
            "out, root = Path(sys.argv[1]), Path(sys.argv[2])\n"
            f"for name, bf in {cases!r}:\n"
            "    spec = ScenarioSpec.from_json(root / f'{name}.json')\n"
            "    res = run_scenario(spec, beamforming=bf)\n"
            "    write_run_outputs(res, out / f'{name}-{bf}')\n")
        src = str(Path(rv.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "one"),
                        str(SCENARIOS)], env=env, check=True, timeout=300)
        for name, bf in cases:
            spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
            blobs = [write_run_outputs(run_scenario(spec, beamforming=bf),
                                       tmp_path / f"here-{i}" / f"{name}-{bf}"
                                       ).read_bytes() for i in range(2)]
            there = tmp_path / "one" / f"{name}-{bf}" / "report.json"
            assert blobs[0] == blobs[1], (name, bf)
            assert blobs[0] == there.read_bytes(), (name, bf)


def test_write_run_outputs(tmp_path, quick_spec):
    res = run_scenario(quick_spec)
    path = write_run_outputs(res, tmp_path / "out")
    assert path.exists()
    report = json.loads(path.read_text())
    assert report["scenario"]["name"] == "quick"
    lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert lines[0] == "stage,milliseconds"
    assert len(lines) > 5
