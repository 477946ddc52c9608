import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import radarvitals as rv
from radarvitals import beamform
from radarvitals.aoa import steering_matrix
from radarvitals.cli import _parse_n_keep, build_parser, main
from radarvitals.pipeline import ScenarioSpec
from scenario_files import OLD_RADAR_BLOCK, write_spec

FUSION_STRESS = (Path(__file__).parents[1] / "scenarios"
                 / "fusion_stress.json")


def _run_with(tmp_path, capsys, path, key, value) -> str:
    """``run`` on fusion_stress.json with the value at ``path``/``key``
    replaced (a callable ``value`` is called on the node that holds the
    key, to compute it); asserts exit status 2, no output directory and
    one stderr line naming the scenario file, and returns that line."""
    blob = json.loads(FUSION_STRESS.read_text())
    node = blob
    for step in path:
        node = node[step]
    node[key] = value(node) if callable(value) else value
    scenario = tmp_path / "nested.json"
    scenario.write_text(json.dumps(blob))
    rc = main(["run", "--scenario", str(scenario),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert str(scenario) in line
    assert not (tmp_path / "out").exists()
    return line


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "tiny.json"
    write_spec(ScenarioSpec(
        name="tiny",
        scene=rv.Scene(
            statics=(rv.PointReflector(4.0, -10.0, 0.8),),
            targets=(rv.VitalTarget(2.0, 30.0, 1.0, rv.VitalParams()),),
            duration=8.0),
        seed=3), path)
    return path


@pytest.fixture(scope="module")
def empty_scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "empty.json"
    write_spec(ScenarioSpec(name="void", scene=rv.Scene(duration=5.0),
                            snr_db=0.0), path)
    return path


class TestRunVerb:
    def test_writes_report_and_prints_rates(self, scenario_path, tmp_path,
                                            capsys):
        out = tmp_path / "run"
        rc = main(["run", "--scenario", str(scenario_path),
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "target-0" in captured
        assert "rpm" in captured and "bpm" in captured
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["name"] == "tiny"
        assert (out / "timings.csv").exists()

    def test_reports_are_byte_identical_across_runs(self, scenario_path,
                                                    tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", str(scenario_path),
                         "--out", str(out), "--seed", "42"]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_changes_report(self, scenario_path, tmp_path, capsys):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            main(["run", "--scenario", str(scenario_path),
                  "--out", str(out), "--seed", seed])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] != blobs[1]

    def test_seed_writes_the_same_report_as_suite(self, scenario_path,
                                                  tmp_path, capsys):
        """``--seed`` is a run override, as the suite's seeds are: run i of
        a suite writes the bytes of ``run --seed <base + i>``, and the
        report keeps the scenario as given (its seed is 3)."""
        assert main(["suite", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "suite"),
                     "--repetitions", "2"]) == 0
        assert main(["suite", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "suite7"), "--seed", "7",
                     "--repetitions", "1"]) == 0
        for seed, suite_run in ((4, "suite/run-001"), (7, "suite7/run-000")):
            out = tmp_path / f"run{seed}"
            assert main(["run", "--scenario", str(scenario_path),
                         "--out", str(out), "--seed", str(seed)]) == 0
            report = (out / "report.json").read_bytes()
            assert report == (tmp_path / suite_run / "report.json").read_bytes()
            assert json.loads(report)["seed"] == seed
            assert json.loads(report)["scenario"]["seed"] == 3
        summary = json.loads((tmp_path / "suite7" / "suite_summary.json")
                             .read_text())
        assert summary["base_seed"] == 7

    def test_no_beamforming_flag(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "nobf"
        rc = main(["run", "--scenario", str(scenario_path), "--out", str(out),
                   "--no-beamforming"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["beamforming"] is False

    def test_failed_run_exits_nonzero_with_report(self, empty_scenario_path,
                                                  tmp_path, capsys):
        out = tmp_path / "fail"
        rc = main(["run", "--scenario", str(empty_scenario_path),
                   "--out", str(out)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["failure_stage"] == "localize"


@pytest.fixture
def broken_scenarios(scenario_path, tmp_path):
    """A scenario with a typo'd processing key, and one whose target has
    no angle."""
    typo = json.loads(scenario_path.read_text())
    typo["n_kep"] = typo.pop("n_keep")
    no_angle = json.loads(scenario_path.read_text())
    del no_angle["scene"]["targets"][0]["angle_deg"]
    paths = {}
    for name, blob in (("typo", typo), ("no_angle", no_angle)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(blob))
    return paths


class TestInvalidScenario:
    @pytest.mark.parametrize("verb", ["run", "suite", "bench"])
    def test_typo_exits_2_naming_file_and_key(self, verb, broken_scenarios,
                                              tmp_path, capsys):
        path = broken_scenarios["typo"]
        rc = main([verb, "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert str(path) in line and "'n_kep'" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, key, value, owner", [
        pytest.param((), "n_fft", None, "ScenarioSpec", id="n_fft-None"),
        pytest.param((), "alpha", 2000.0, "ScenarioSpec", id="alpha-2000.0"),
        # the bundled file with its two processing knobs nested under
        # "processing", as older files held them
        pytest.param((), "processing",
                     lambda top: {k: top.pop(k) for k in ("n_keep",
                                                          "num_modes")},
                     "ScenarioSpec", id="processing"),
        # a field of view off the angle grid's, which misplaced the window
        pytest.param((), "camera", {"afov_deg": 45.0}, "ScenarioSpec",
                     id="camera"),
        # the radar block, with any one of the front end's keys at the
        # value it held, or with the frame timing older files set there
        *[pytest.param((), "radar", {key: value}, "ScenarioSpec",
                       id=f"radar-{key}")
          for key, value in OLD_RADAR_BLOCK.items()],
        pytest.param((), "radar", {"chirps_per_frame": 4, "frame_rate": 20.0},
                     "ScenarioSpec", id="radar"),
        # the chirps per frame, now a front-end constant, at the top level
        pytest.param((), "chirps_per_frame", 4, "ScenarioSpec",
                     id="chirps_per_frame"),
    ])
    def test_older_processing_key_exits_2(self, tmp_path, capsys, path, key,
                                          value, owner):
        """A scenario file that still sets a processing knob, the
        processing, camera or radar block or a radar key, that the format
        no longer has, is refused at load, naming the record and the
        key."""
        line = _run_with(tmp_path, capsys, path, key, value)
        assert f"{owner}: unknown key {key!r}" in line

    def test_missing_target_key(self, broken_scenarios, tmp_path, capsys):
        path = broken_scenarios["no_angle"]
        rc = main(["run", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line and "missing key 'angle_deg'" in line

    @pytest.mark.parametrize("block, key, value", [
        # the processing knobs, named so in the ids, sit at the top level
        pytest.param(None, "num_modes", "fancy",
                     id="processing-num_modes-fancy"),
        pytest.param(None, "n_keep", "abc", id="processing-n_keep-abc"),
        pytest.param(None, "n_keep", 5.5, id="processing-n_keep-5.5"),
        (None, "seed", "x"),
        (None, "snr_db", "loud"),
        (None, "beamforming", "yes"),
        (None, "frame_rate", True),
    ])
    def test_wrong_typed_scalar_exits_2(self, scenario_path, tmp_path,
                                        capsys, block, key, value):
        blob = json.loads(scenario_path.read_text())
        (blob if block is None else blob[block])[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(blob))
        rc = main(["run", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line and f"{key} must be" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value", [
        (None, "seed", -3),
        (None, "snr_db", float("nan")),         # json writes it as NaN
        (None, "snr_db", float("-inf")),
        # as --n-keep: at least 4
        pytest.param(None, "n_keep", -5, id="processing-n_keep--5"),
        pytest.param(None, "n_keep", 0, id="processing-n_keep-0"),
        pytest.param(None, "n_keep", 3, id="processing-n_keep-3"),
        (None, "frame_rate", 0),
        (None, "frame_rate", -1),
        (None, "frame_rate", float("inf")),     # json writes it as Infinity
        (None, "frame_rate", 4200),             # too short for 4 chirps
    ])
    def test_unsurvivable_value_exits_2(self, scenario_path, tmp_path,
                                        capsys, block, key, value):
        blob = json.loads(scenario_path.read_text())
        (blob if block is None else blob[block])[key] = value
        path = tmp_path / "unsurvivable.json"
        path.write_text(json.dumps(blob))
        rc = main(["run", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert str(path) in line and f"{key} must be" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, key, value, record", [
        ((), "frame_rate", True, "ScenarioSpec"),
        (("scene", "targets", 0), "range_m", "far", "VitalTarget"),
        (("scene", "statics", 0), "amplitude", float("nan"),
         "PointReflector"),
        (("scene",), "duration", float("inf"), "Scene"),  # JSON Infinity
        ((), "frame_rate", float("inf"), "ScenarioSpec"),
        (("scene", "targets", 0), "range_m", float("inf"), "VitalTarget"),
        (("scene", "statics", 0), "amplitude", float("inf"),
         "PointReflector"),
        ((), "n_keep", float("inf"), "ScenarioSpec"),
        # powers whose render overflows
        ((), "snr_db", -4000.0, "ScenarioSpec"),
        (("scene", "targets", 0), "amplitude", 1e200, "VitalTarget"),
        (("scene", "statics", 0), "amplitude", 1e200, "PointReflector"),
        (("scene", "movers", 0), "amplitude", [[0.0, 1.0], [5.0, 1e200]],
         "MovingReflector"),
    ])
    def test_bad_nested_value_exits_2(self, tmp_path, capsys, path, key,
                                      value, record):
        line = _run_with(tmp_path, capsys, path, key, value)
        assert f"{record}: {key} must be" in line

    @pytest.mark.parametrize("path, key, value, record", [
        ((), "frame_rate", 0, "ScenarioSpec"),
        (("scene", "statics", 0), "range_m", -1, "PointReflector"),
        (("scene", "targets", 0, "vitals"), "breath_freq", 2.0,
         "VitalParams"),
        # amplitude pairs interpolation cannot read: none, or out of order
        (("scene", "movers", 0), "amplitude", [], "MovingReflector"),
        (("scene", "movers", 0), "amplitude", [[10.0, 1.0], [0.0, 3.0]],
         "MovingReflector"),
    ])
    def test_failed_value_check_names_its_record(self, tmp_path, capsys,
                                                 path, key, value, record):
        assert f"{record}: " in _run_with(tmp_path, capsys, path, key, value)

    def test_unreadable_files(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        for path in (bad_json, tmp_path / "absent.json"):
            assert main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert str(path) in line

    def test_one_bad_file_in_a_directory_stops_the_suite(
            self, scenario_path, broken_scenarios, tmp_path, capsys):
        scen_dir = tmp_path / "mixed"
        scen_dir.mkdir()
        (scen_dir / "good.json").write_bytes(scenario_path.read_bytes())
        (scen_dir / "typo.json").write_bytes(
            broken_scenarios["typo"].read_bytes())
        rc = main(["suite", "--scenario", str(scen_dir),
                   "--out", str(tmp_path / "out"), "--repetitions", "1"])
        assert rc == 2
        assert "typo.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSuiteVerb:
    def test_summary_and_cdfs(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "suite"
        rc = main(["suite", "--scenario", str(scenario_path),
                   "--out", str(out), "--repetitions", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 runs, 0 failed" in text
        assert "rr_abs_error_rpm" in text
        summary = json.loads((out / "suite_summary.json").read_text())
        assert summary["repetitions"] == 2
        assert "_results" not in summary          # working objects not dumped
        assert (out / "cdf_rr.csv").exists()
        assert (out / "cdf_hr.csv").exists()
        assert (out / "run-001" / "report.json").exists()

    def test_all_failed_exits_nonzero(self, empty_scenario_path, tmp_path,
                                      capsys):
        rc = main(["suite", "--scenario", str(empty_scenario_path),
                   "--out", str(tmp_path / "s"), "--repetitions", "1"])
        assert rc == 1

    def test_directory_of_scenarios(self, scenario_path, tmp_path, capsys):
        scen_dir = tmp_path / "scenarios"
        scen_dir.mkdir()
        for stem in ("one", "two"):
            spec = ScenarioSpec.from_json(scenario_path)
            write_spec(ScenarioSpec.from_dict({**spec.to_dict(),
                                               "name": stem}),
                       scen_dir / f"{stem}.json")
        out = tmp_path / "multi"
        rc = main(["suite", "--scenario", str(scen_dir), "--out", str(out),
                   "--repetitions", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "one: 1 runs" in text and "two: 1 runs" in text
        assert (out / "one" / "suite_summary.json").exists()
        assert (out / "two" / "suite_summary.json").exists()

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        scen_dir = tmp_path / "none"
        scen_dir.mkdir()
        rc = main(["suite", "--scenario", str(scen_dir),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestBenchVerb:
    def test_table_and_csv(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--scenario", str(scenario_path),
                   "--out", str(out), "--n-keep", "40,full",
                   "--repeats", "1"])
        assert rc == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0].split(",")[:4] == ["n_keep", "n_bins", "wall_ms",
                                           "speedup_vs_full"]
        assert len(lines) == 3
        stdout = capsys.readouterr().out
        assert "speedup" in stdout

    def test_failed_run_is_one_line(self, empty_scenario_path, tmp_path,
                                    capsys):
        rc = main(["bench", "--scenario", str(empty_scenario_path),
                   "--out", str(tmp_path / "b")])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("FAILED at stage localize: ")
        assert "no stationary detection track" in line

    def test_too_few_bins_for_the_modes_is_one_line(self, scenario_path,
                                                    tmp_path, capsys):
        """With 4 modes, n_keep 4 keeps fewer than the 8 bins needed."""
        path = tmp_path / "four_modes.json"
        spec = ScenarioSpec.from_json(scenario_path)
        write_spec(dataclasses.replace(spec, num_modes=4), path)
        rc = main(["bench", "--scenario", str(path),
                   "--out", str(tmp_path / "b"), "--n-keep", "4,full",
                   "--repeats", "1"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"{path}: cannot bench: n_keep 4 keeps 4 spectrum "
                        "bins, fewer than the 8 that 4 modes need")
        assert not (tmp_path / "b" / "bench.csv").exists()


class TestPatternVerb:
    def test_tx_pattern_csv(self, tmp_path, capsys):
        out = tmp_path / "tx.csv"
        rc = main(["pattern", "--role", "tx", "--steer", "20",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 elements" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "angle_deg,gain_db"
        assert len(lines) > 100

    def test_rx_pattern_peak_at_steer(self, tmp_path, capsys):
        out = tmp_path / "rx.csv"
        rc = main(["pattern", "--role", "rx", "--steer", "-30",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "8 elements" in text
        assert "peak at -30.00 deg" in text

    def test_tx_peak_is_the_mainlobe_not_its_grating_lobe(self, tmp_path,
                                                         capsys):
        """Wavelength-spaced transmit elements steered to +30 deg have a
        grating lobe at -30 deg exactly as high as the mainlobe."""
        rc = main(["pattern", "--role", "tx", "--steer", "30",
                   "--out", str(tmp_path / "tx.csv")])
        assert rc == 0
        assert "peak at +30.00 deg" in capsys.readouterr().out

    @pytest.mark.parametrize("role, steer, n, spacing", [
        ("tx", 30.0, rv.RadarConfig.num_tx, rv.RadarConfig.tx_spacing),
        ("rx", -30.0, rv.RadarConfig.num_virtual, rv.RadarConfig.rx_spacing),
    ], ids=["tx", "rx"])
    def test_csv_is_the_radars_own_beam(self, tmp_path, role, steer, n,
                                        spacing):
        """The exported pattern is the beam the pipeline forms: the
        radar's array steered at its one carrier wavelength."""
        out, want = tmp_path / "cli.csv", tmp_path / "want.csv"
        assert main(["pattern", "--role", role, "--steer", str(steer),
                     "--out", str(out)]) == 0
        bw = beamform.BeamWeights(steering_matrix(steer, n, spacing)[:, 0],
                                  spacing)
        beamform.write_pattern_csv(beamform.beam_pattern(bw), want)
        assert out.read_bytes() == want.read_bytes()


BAD_FLAGS = [
    ["run", "--seed", "-1"],
    ["suite", "--repetitions", "0"],
    ["bench", "--n-keep", "abc"],
    ["bench", "--n-keep", "2"],
    ["bench", "--n-keep", "40,spec"],
    ["bench", "--repeats", "0"],
    ["bench", "--repeats", "-2"],
    ["pattern", "--steer", "100"],
    ["pattern", "--step", "0"],
    ["pattern", "--step", "1e-9"],
    ["pattern", "--step", "0.0009"],
]

# Flags the verbs no longer have, at values they once accepted: pattern
# exports the radar's own arrays only.
REMOVED_FLAGS = [
    ["pattern", "--elements", "8"],
    ["pattern", "--spacing-wl", "0.5"],
    ["pattern", "--carrier-ghz", "77"],
    # a run's n_keep has one source, the scenario; only bench varies it
    ["run", "--n-keep", "full"],
    ["suite", "--n-keep", "40"],
]


class TestArgumentErrors:
    @pytest.mark.parametrize("verb, flag, value", BAD_FLAGS,
                             ids=[" ".join(a) for a in BAD_FLAGS])
    def test_bad_flag_exits_2_with_one_line(self, scenario_path, tmp_path,
                                            capsys, verb, flag, value):
        out = tmp_path / "out"
        if verb == "pattern":
            argv = ["pattern", "--role", "rx", "--steer", "10"]
        else:
            argv = [verb, "--scenario", str(scenario_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), flag, value])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"radarvitals {verb}: error: argument {flag}: ")
        assert repr(value) in line
        assert not out.exists()

    @pytest.mark.parametrize("verb, flag, value", REMOVED_FLAGS,
                             ids=[" ".join(a) for a in REMOVED_FLAGS])
    def test_removed_flag_exits_2_with_one_line(self, scenario_path, tmp_path,
                                                capsys, verb, flag, value):
        out = tmp_path / "out"
        if verb == "pattern":
            argv = ["pattern", "--role", "tx", "--steer", "10"]
        else:
            argv = [verb, "--scenario", str(scenario_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), flag, value])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"radarvitals: error: unrecognized arguments: "
                        f"{flag} {value}")
        assert not out.exists()


class TestArgParsing:
    def test_n_keep_accepts_full_aliases(self):
        for alias in ("full", "none", "all", "FULL"):
            assert _parse_n_keep(alias) is None
        assert _parse_n_keep("64") == 64

    def test_n_keep_rejects_tiny_values(self):
        with pytest.raises(Exception):
            _parse_n_keep("2")

    def test_missing_verb_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_scenario_and_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--out", "x"])


def test_console_script_installed():
    exe = shutil.which("radarvitals")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "pattern" in proc.stdout
