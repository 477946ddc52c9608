import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radarvitals as rv
from radarvitals import aoa, beamform, fusion, pipeline, simulate, vitals
from radarvitals.config import MAX_AMPLITUDE
from radarvitals.pipeline import (MIN_SNR_DB, ScenarioSpec, StageFailed,
                                  bench_acceleration, json_text,
                                  run_scenario, run_suite, vitals_chain,
                                  write_run_outputs)
from radarvitals.rangefft import range_bin_of, range_fft
from radarvitals.simulate import synthesize_cube
from radarvitals.vitals import band_seeded_init
from scenario_files import OLD_RADAR_BLOCK, write_spec

SCENARIOS = Path(__file__).parents[1] / "scenarios"


@pytest.fixture(scope="module")
def quick_spec():
    return ScenarioSpec(
        name="quick",
        scene=rv.Scene(
            statics=(rv.PointReflector(4.0, -10.0, 0.8),),
            targets=(rv.VitalTarget(
                2.0, 30.0, 1.0,
                rv.VitalParams(breath_freq=0.25, heart_freq=1.2)),),
            duration=8.0),
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
        """The ten stages in run order, steered; unsteered the same
        without ``beamform``."""
        stages = ["simulate", "heatmap", "localize", "beamform", "phase",
                  "weights", "mode_count", "spectrum", "decompose", "rates"]
        for beamforming in (True, False):
            res = run_scenario(quick_spec, beamforming=beamforming)
            assert list(res.timings_ms) == [
                s for s in stages if beamforming or s != "beamform"]
            assert all(ms >= 0 for ms in res.timings_ms.values())

    def test_no_beamforming_skips_stage(self, quick_spec):
        res = run_scenario(quick_spec, beamforming=False)
        assert "beamform" not in res.timings_ms
        assert res.report["beamforming"] is False
        assert not res.failed

    def test_seed_override_recorded(self, quick_spec):
        res = run_scenario(quick_spec, seed=123)
        assert res.report["seed"] == 123

    @pytest.mark.parametrize("override, message", [
        ({"beamforming": "yes"}, "beamforming must be"),
        ({"seed": -3}, "seed must be >= 0"),
    ], ids=["beamforming=yes", "seed=-3"])
    def test_override_is_checked_before_any_stage(self, monkeypatch,
                                                  override, message):
        """An override no scenario file could hold is refused with the
        scenario's own check, before anything is rendered."""
        spec = ScenarioSpec.from_json(SCENARIOS / "clean.json")
        renders = []
        monkeypatch.setattr(pipeline, "render_profiles",
                            lambda *args, **kwargs: renders.append(args))
        with pytest.raises(ValueError, match=f"^ScenarioSpec: {message}"):
            run_scenario(spec, **override)
        assert renders == []

    def test_empty_room_fails_at_localize(self):
        spec = ScenarioSpec(name="empty", scene=rv.Scene(duration=5.0),
                            snr_db=0.0)
        res = run_scenario(spec)
        assert res.failed
        assert res.report["failure_stage"] == "localize"
        assert res.report["error"]

    def test_noise_draw_failure_is_named_simulate(self, quick_spec,
                                                  monkeypatch):
        """A failed noise draw of the heatmap's rows fails the simulate
        stage with its own message."""
        def broken(*args):
            raise ValueError("draw failed")
        monkeypatch.setattr(simulate, "_row_noise", broken)
        res = run_scenario(quick_spec)
        assert res.report["failure_stage"] == "simulate"
        assert res.report["error"] == "draw failed"

    def test_numpy_seed_override_writes_a_report(self, quick_spec, tmp_path):
        res = run_scenario(quick_spec, seed=np.int64(1))
        assert type(res.report["seed"]) is int
        path = write_run_outputs(res, tmp_path)
        assert json.loads(path.read_text())["seed"] == 1

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
        # a target at bin 1: its 5-channel window starts at bin -1
        ({"scene": rv.Scene(targets=(rv.VitalTarget(
            0.3, 30.0, 1.0,
            rv.VitalParams(breath_freq=0.25, heart_freq=1.2)),),
            duration=8.0)}, "vitals"),
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

    def test_target_at_the_last_heatmap_row_keeps_its_channels(
            self, quick_spec):
        """The heatmap ends at bin 33 (9.89 m), the last at or below
        ``aoa.MAX_RANGE_M``; a target at 10.1 m (bin 34) is localized
        there, and the profiles reach half a phase window past that row, so
        all five channels around it are read, steered or not."""
        target = dataclasses.replace(quick_spec.scene.targets[0],
                                     range_m=10.1)
        spec = dataclasses.replace(quick_spec, scene=dataclasses.replace(
            quick_spec.scene, targets=(target,)))
        for beamforming in (True, False):
            res = run_scenario(spec, beamforming=beamforming)
            assert not res.failed, res.report["error"]
            (entry,) = res.report["targets"]
            assert (entry["range_bin"], entry["true_range_bin"]) == (33, 34)
            assert entry["range_m"] <= aoa.MAX_RANGE_M

    def test_window_off_the_profile_fails_alike_steered_or_not(self):
        """The 5-bin window around a target at bin 1 leaves the profile:
        both ways it is the same named vitals failure."""
        spec = ScenarioSpec(
            name="edge",
            scene=rv.Scene(targets=(rv.VitalTarget(
                0.3, 30.0, 1.0,
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

    def test_null_n_keep_keeps_the_full_spectrum(self, quick_spec):
        res = run_scenario(dataclasses.replace(quick_spec, n_keep=None))
        (entry,) = res.report["targets"]
        assert res.report["n_keep"] is None
        # full band: half the frame rate
        assert entry["kept_band_hz"] == pytest.approx(10.0, abs=0.1)

    @pytest.mark.parametrize("waypoints, stage", [
        # past the limit around t = 1 s, back well before the still window
        (((0.0, 3.0, -40.0), (1.0, 21.0, -40.0), (2.0, 3.0, -40.0)),
         "vitals"),
        # past the limit from t ~ 6 s on, inside the still window
        (((0.0, 3.0, -40.0), (7.0, 22.0, -40.0)), "simulate"),
    ], ids=["before_the_still_window", "in_the_still_window"])
    def test_mover_past_the_beat_limit_ends_in_a_named_stage(
            self, quick_spec, waypoints, stage):
        """A mover beyond the unambiguous range (19.19 m here) fails the
        render of the frames it is beyond at: the phase window's, which
        spans every frame, or the heatmap's, which spans the still window."""
        spec = dataclasses.replace(quick_spec, scene=dataclasses.replace(
            quick_spec.scene,
            movers=(rv.MovingReflector(waypoints=waypoints),)))
        for beamforming in (True, False):
            res = run_scenario(spec, beamforming=beamforming)
            assert res.report["failure_stage"] == stage
            assert "Nyquist" in res.report["error"]
            if stage == "vitals":
                # the mover, still after t = 2 s, is localized as well
                assert res.report["targets"]
                for entry in res.report["targets"]:
                    assert "Nyquist" in entry["failure"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_person_who_left_the_view_is_not_localized(self, seed):
        """clean.json plus a mover standing at 3.5 m, -40 deg for 10 s that
        leaves the view (-80 deg) by 10.05 s: still over its own last 3 s
        of boxes but gone from the capture's, so it is neither a
        stationary track nor a reported target."""
        d = json.loads((SCENARIOS / "clean.json").read_text())
        d["scene"]["movers"] = [{"waypoints": [
            [0.0, 3.5, -40.0], [10.0, 3.5, -40.0], [10.05, 3.5, -80.0]]}]
        res = run_scenario(ScenarioSpec.from_dict(d), seed=seed)
        assert res.report["failure_stage"] is None
        assert res.report["num_stationary_tracks"] == 1
        assert [e["track_id"] for e in res.report["targets"]] == ["target-0"]


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
    "scene": ("scene",),
    "static": ("scene", "statics", 0),
    "target": ("scene", "targets", 0),
    "vitals": ("scene", "targets", 0, "vitals"),
    "body_motion": ("scene", "targets", 0, "vitals", "body_motion", 0),
    "mover": ("scene", "movers", 0),
    "mover_body_motion": ("scene", "movers", 0, "body_motion", 0),
}


# The record at each scenario level, and a numeric field of it.
LEVEL_FIELDS = {
    "top": ("ScenarioSpec", "snr_db"),
    "scene": ("Scene", "duration"),
    "static": ("PointReflector", "amplitude"),
    "target": ("VitalTarget", "range_m"),
    "vitals": ("VitalParams", "breath_freq"),
    "body_motion": ("BodyMotion", "freq"),
    "mover": ("MovingReflector", "amplitude"),
    "mover_body_motion": ("BodyMotion", "amp"),
}


# A wrong-typed value for top-level scalars, the processing knobs too.
WRONG_TYPED_SCALARS = [
    ("n_keep", "abc"),
    ("n_keep", float("nan")),
    ("n_keep", 100.0),                  # a float is not an int
    ("n_keep", True),                   # a bool is not an int
    ("n_keep", [100]),
    ("seed", "x"),
    ("seed", False),
    ("seed", 1.5),
    ("snr_db", "loud"),
    ("snr_db", True),
    ("frame_rate", "fast"),
    ("frame_rate", True),
    ("frame_rate", float("nan")),
    ("num_modes", "fancy"),             # an int or "auto"
    ("num_modes", 2.0),
    ("num_modes", True),
    ("beamforming", 1),
    ("name", 7),
]


# A value of the right type that no run survives, and what the error says.
UNSURVIVABLE_VALUES = [
    ("seed", -3, "seed must be >= 0"),
    ("snr_db", float("nan"), "snr_db must be"),
    ("snr_db", float("inf"), "snr_db must be"),
    ("snr_db", float("-inf"), "snr_db must be"),
    # below the floor, where the noise render overflows
    ("snr_db", -4000.0, "snr_db must be >= -300"),
    ("snr_db", -300.5, "snr_db must be >= -300"),
    ("n_keep", -5, "n_keep must be >= 4"),
    ("n_keep", 0, "n_keep must be >= 4"),
    ("n_keep", 3, "n_keep must be >= 4"),
    ("num_modes", 0, "num_modes must be >= 1"),
    ("num_modes", -1, "num_modes must be >= 1"),
    ("frame_rate", 0, "frame_rate must be positive"),
    ("frame_rate", -1, "frame_rate must be positive"),
    ("frame_rate", float("inf"), "frame_rate must be"),
    # a frame too short for the front end's 4 chirps, 60 us apart
    ("frame_rate", 4200, "frame_rate must be at most 4166.67"),
]


# The processing knobs older scenario files carried, at the value every
# bundled scenario set, and where that value now lives: a module constant,
# or a stage parameter's default, with the value it must hold there (None
# for n_fft: the transform is always one chirp long).  The pixel
# thresholds' None meant 2 % of the image width.
OLD_PROCESSING_KNOBS = {
    "n_fft": (None, None),
    "num_angle_bins": (121, (aoa, "DEFAULT_NUM_ANGLE_BINS", 121)),
    "mvdr_loading": (1e-3, (aoa, "DEFAULT_LOADING", 1e-3)),
    "stationary_window_s": (3.0, (fusion, "STATIONARY_WINDOW_S", 3.0)),
    "x_threshold_px": (None, (fusion, "STILL_SPAN_FRACTION", 0.02)),
    "w_threshold_px": (None, (fusion, "STILL_SPAN_FRACTION", 0.02)),
    "max_range_m": (10.0, (aoa, "MAX_RANGE_M", 10.0)),
    "num_phase_channels": (5, (vitals, "PHASE_CHANNELS", 5)),
    "alpha": (2000.0, (vitals, "VMD_ALPHA", 2000.0)),
    "eta": (0.0, (vitals.multichannel_vmd, "eta", 0.0)),
    "tol": (1e-7, (vitals.multichannel_vmd, "tol", 1e-7)),
    "max_iter": (500, (vitals.multichannel_vmd, "max_iter", 500)),
    "rr_band": ([0.1, 0.5], (vitals, "DEFAULT_RR_BAND", (0.1, 0.5))),
    "hr_band": ([0.8, 2.5], (vitals, "DEFAULT_HR_BAND", (0.8, 2.5))),
}


# The camera block every bundled scenario carried; its values are now the
# constants of ``aoa``, ``fusion`` and ``simulate``, and the camera runs at
# the radar frame rate.
OLD_CAMERA_BLOCK = {"afov_deg": 60.0, "box_height_px": 500.0,
                    "box_width_px": 150.0, "fps": None, "image_height": 1080,
                    "image_width": 1920, "jitter_px": 2.0}


def _report_text(res) -> str:
    """The report as :func:`write_run_outputs` writes it."""
    return json_text(res.report)


def _count_renders(monkeypatch) -> dict:
    """Record the pipeline's renders from here on, by stage: under
    ``"scene"`` the data of each render of the heatmap's rows, under
    ``"phase"`` the bins of each phase window and whether it was steered.

    Each render must read its stage's rows and frames: the scene stage
    ``aoa.HEATMAP_BINS`` at the last ``fusion.still_frames`` frames,
    the phase stage the ``vitals.channel_bins`` of a center bin at every
    frame.
    """
    renders = {"scene": [], "phase": []}
    render = pipeline.render_profiles

    def counted(scene, frame_rate, bins, frames, tx_weights=None, **kwargs):
        every = np.arange(simulate._frame_times(frame_rate,
                                                scene.duration).size)
        out = render(scene, frame_rate, bins, frames, tx_weights, **kwargs)
        if bins == aoa.HEATMAP_BINS:
            still = fusion.still_frames(frame_rate)
            assert np.array_equal(every[frames], every[-still:])
            renders["scene"].append(out.data)
        else:
            center = bins.start + vitals.PHASE_CHANNELS // 2
            assert bins == vitals.channel_bins(center)
            assert np.array_equal(every[frames], every)
            renders["phase"].append((bins, tx_weights is not None))
        return out
    monkeypatch.setattr(pipeline, "render_profiles", counted)
    return renders


def _phase_bins(*results) -> list:
    """The phase window of every localized target of ``results``."""
    return [vitals.channel_bins(loc.range_bin)
            for res in results for *_, loc in res.locations]


def _with_angle(spec, kind: str, angle):
    """``spec`` with its first ``kind`` ("statics" or "targets") at
    ``angle``."""
    scene = spec.scene
    first = dataclasses.replace(getattr(scene, kind)[0], angle_deg=angle)
    return dataclasses.replace(spec, scene=dataclasses.replace(
        scene, **{kind: (first, *getattr(scene, kind)[1:])}))


# Pairs of runs of two different captures, from quick_spec.
OTHER_CAPTURE = {
    "scene": lambda s: (s, dataclasses.replace(
        s, scene=dataclasses.replace(s.scene, duration=8.5))),
    # the radar's frame rate
    "radar": lambda s: (s, dataclasses.replace(s, frame_rate=25.0)),
    "snr_db": lambda s: (s, dataclasses.replace(s, snr_db=25.0)),
    "seed": lambda s: (s, dataclasses.replace(s, seed=1)),
    # equal under ==, different under repr
    "zero_sign": lambda s: (_with_angle(s, "statics", 0.0),
                            _with_angle(s, "statics", -0.0)),
    "int_for_float": lambda s: (_with_angle(s, "targets", 30),
                                _with_angle(s, "targets", 30.0)),
}

# Runs of quick_spec's capture with other processing.
SAME_CAPTURE = {
    "beamforming": lambda s: dataclasses.replace(s, beamforming=False),
    "n_keep": lambda s: dataclasses.replace(s, n_keep=None),
    "num_modes": lambda s: dataclasses.replace(s, num_modes=3),
}


class TestSceneSlot:
    """No run carries a capture's scene stages to the next: each run
    renders, heatmaps and localizes its own capture and writes the bytes of
    a run made first."""

    @pytest.mark.parametrize("name", ["clean", "range_overlap",
                                      "fusion_stress", "bench"])
    def test_warm_runs_equal_cold_runs(self, name, monkeypatch):
        """Steered then unsteered, and unsteered then steered, in one
        process: each run renders its own heatmap rows and writes the bytes
        of a run made first."""
        spec = ScenarioSpec.from_json(SCENARIOS / f"{name}.json")
        renders = _count_renders(monkeypatch)
        for seed in range(spec.seed, spec.seed + 3):
            first, second = {}, {}
            for a, b in ((True, False), (False, True)):
                first[a] = _report_text(
                    run_scenario(spec, seed=seed, beamforming=a))
                second[b] = _report_text(
                    run_scenario(spec, seed=seed, beamforming=b))
            assert first == second, (name, seed)
        assert len(renders["scene"]) == 4 * 3

    def test_the_same_capture_renders_once(self, quick_spec, monkeypatch):
        """Each of two runs of one capture renders its heatmap rows once
        and its target's phase window once, and both write one report."""
        renders = _count_renders(monkeypatch)
        first, second = run_scenario(quick_spec), run_scenario(quick_spec)
        assert (len(renders["scene"]), len(renders["phase"])) == (2, 2)
        assert ([bins for bins, _ in renders["phase"]]
                == _phase_bins(first, second))
        assert np.array_equal(renders["scene"][0], renders["scene"][1])
        assert _report_text(first) == _report_text(second)
        assert first.locations == second.locations
        assert list(second.timings_ms) == list(first.timings_ms)

    @pytest.mark.parametrize("change", OTHER_CAPTURE)
    def test_another_capture_renders_again(self, quick_spec, monkeypatch,
                                           change):
        """The second capture's run, after the first's, writes the bytes of
        its run made again."""
        a, b = OTHER_CAPTURE[change](quick_spec)
        renders = _count_renders(monkeypatch)
        run_scenario(a)
        after_a = _report_text(run_scenario(b))
        assert after_a == _report_text(run_scenario(b))
        assert len(renders["scene"]) == 3
        # the last two are the same capture to ==, not to repr
        assert (a == b) == (change in ("zero_sign", "int_for_float"))

    @pytest.mark.parametrize("change", SAME_CAPTURE)
    def test_other_processing_reuses_the_render(self, quick_spec,
                                                monkeypatch, change):
        """A run with other processing renders the same heatmap rows and
        localizes alike, and writes the bytes of its run made first."""
        other = SAME_CAPTURE[change](quick_spec)
        renders = _count_renders(monkeypatch)
        base = run_scenario(quick_spec)
        warm = run_scenario(other)
        assert len(renders["scene"]) == 2
        assert np.array_equal(renders["scene"][0], renders["scene"][1])
        assert warm.locations == base.locations
        assert (warm.report["num_stationary_tracks"]
                == base.report["num_stationary_tracks"])
        assert _report_text(warm) == _report_text(run_scenario(other))

    def test_a_failed_scene_stores_nothing(self, quick_spec, monkeypatch):
        """A run with no person fails at localize; its repeat renders again
        and writes the same report, and the next run of another capture
        writes the bytes of its run made first."""
        empty = ScenarioSpec(name="empty", scene=rv.Scene(duration=5.0),
                             snr_db=0.0)
        renders = _count_renders(monkeypatch)
        before = _report_text(run_scenario(quick_spec))
        first = run_scenario(empty)
        assert first.report["failure_stage"] == "localize"
        second = run_scenario(empty)
        assert _report_text(first) == _report_text(second)
        assert _report_text(run_scenario(quick_spec)) == before
        assert len(renders["scene"]) == 4

    def test_concurrent_runs_get_their_serial_reports(self, quick_spec):
        """Four threads (more than this machine's cores, at a short switch
        interval), two on each of two captures, run at once, three times
        over: each writes the report of a run made alone."""
        seeds = (0, 0, 1, 1)
        serial = {seed: _report_text(run_scenario(quick_spec, seed=seed))
                  for seed in seeds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                start = threading.Barrier(len(seeds))
                got = [None] * len(seeds)

                def run(i):
                    start.wait()
                    got[i] = _report_text(
                        run_scenario(quick_spec, seed=seeds[i]))

                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(len(seeds))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert got == [serial[s] for s in seeds]
        finally:
            sys.setswitchinterval(interval)


class TestStrictKeys:
    def test_every_level_loads_as_is(self):
        d = _scenario_with_every_level()
        spec = ScenarioSpec.from_dict(d)
        assert spec.to_dict() == d

    @pytest.mark.parametrize("path, key, value", [
        *[pytest.param(path, "n_kep", 50, id=level)
          for level, path in SCENARIO_LEVELS.items()],
        # processing knobs of older scenario files, at their old values,
        # set at the top level where the two knobs left now sit
        *[pytest.param((), key, value, id=f"processing-{key}")
          for key, (value, _) in OLD_PROCESSING_KNOBS.items()],
        # the block older scenario files nested the two knobs under
        pytest.param((), "processing", {"num_modes": "auto", "n_keep": 100},
                     id="processing"),
        # the camera block older scenario files carried, at its old values
        pytest.param((), "camera", OLD_CAMERA_BLOCK, id="camera"),
        # the radar block older scenario files carried, its frame rate now
        # at the top level and its chirp count a front-end constant
        pytest.param((), "radar", {"chirps_per_frame": 4, "frame_rate": 20.0},
                     id="radar"),
        pytest.param((), "chirps_per_frame", 4, id="chirps_per_frame"),
    ])
    def test_unknown_key_is_rejected(self, path, key, value):
        d = _scenario_with_every_level()
        _node(d, path)[key] = value
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
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
        d["scene"]["frame_rate"] = d.pop("frame_rate")
        with pytest.raises(ValueError, match="unknown key 'frame_rate'"):
            ScenarioSpec.from_dict(d)
        d = _scenario_with_every_level()
        d["scene"]["n_keep"] = d.pop("n_keep")
        with pytest.raises(ValueError, match="unknown key 'n_keep'"):
            ScenarioSpec.from_dict(d)

    def test_every_level_has_a_checked_field(self):
        assert LEVEL_FIELDS.keys() == SCENARIO_LEVELS.keys()

    @pytest.mark.parametrize("value", ["x", True, float("nan")],
                             ids=["str", "bool", "nan"])
    @pytest.mark.parametrize("level", SCENARIO_LEVELS)
    def test_bad_float_is_rejected_at_every_level(self, level, value):
        record, key = LEVEL_FIELDS[level]
        d = _scenario_with_every_level()
        _node(d, SCENARIO_LEVELS[level])[key] = value
        with pytest.raises(ValueError, match=f"^{record}: {key} must be "):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("path, key, value, record", [
        ((), "frame_rate", "fast", "ScenarioSpec"),
        (("scene", "targets", 0), "angle_deg", True, "VitalTarget"),
        (("scene", "targets", 0, "vitals", "body_motion", 0), "start", "x",
         "BodyMotion"),
        (("scene", "movers", 0), "waypoints", [[0.0, 2.0]],
         "MovingReflector"),
        (("scene", "movers", 0), "amplitude", [[0.0, 1.0, 2.0]],
         "MovingReflector"),
        (("scene",), "statics", ["wall"], "Scene"),
        (("scene", "targets", 0, "vitals"), "body_motion", {},
         "VitalParams"),
    ])
    def test_nested_wrong_type_names_the_record(self, path, key, value,
                                                record):
        d = _scenario_with_every_level()
        _node(d, path)[key] = value
        with pytest.raises(ValueError, match=f"^{record}: {key} must be "):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("path, key, record", [
        (("scene",), "duration", "Scene"),
        ((), "frame_rate", "ScenarioSpec"),
        (("scene", "targets", 0), "range_m", "VitalTarget"),
        (("scene", "statics", 0), "amplitude", "PointReflector"),
        ((), "snr_db", "ScenarioSpec"),
        ((), "n_keep", "ScenarioSpec"),
    ])
    def test_infinity_is_rejected(self, path, key, record):
        d = _scenario_with_every_level()
        _node(d, path)[key] = float("inf")
        with pytest.raises(ValueError,
                           match=f"^{record}: {key} must be .*finite"):
            ScenarioSpec.from_dict(d)

    def test_nested_lists_become_tuples_ints_kept(self):
        d = _scenario_with_every_level()
        d["scene"]["movers"][0]["waypoints"] = [[0, 2, -40], [10, 3, 40]]
        d["scene"]["movers"][0]["amplitude"] = [[0, 1], [10.0, 2]]
        mover = ScenarioSpec.from_dict(d).scene.movers[0]
        assert mover.waypoints == ((0, 2, -40), (10, 3, 40))
        assert type(mover.waypoints[0][0]) is int
        assert mover.amplitude == ((0, 1), (10.0, 2))
        assert isinstance(mover.body_motion[0], rv.BodyMotion)
        assert ScenarioSpec.from_dict(d).to_dict() == d

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
        d[key] = value
        with pytest.raises(ValueError, match=f"ScenarioSpec: {key} must be"):
            ScenarioSpec.from_dict(d)

    @pytest.mark.parametrize("key, value, message", UNSURVIVABLE_VALUES,
                             ids=[f"{k}={v!r}" for k, v, _ in
                                  UNSURVIVABLE_VALUES])
    def test_unsurvivable_value_is_rejected(self, key, value, message):
        d = _scenario_with_every_level()
        d[key] = value
        with pytest.raises(ValueError, match=f"ScenarioSpec: {message}"):
            ScenarioSpec.from_dict(d)

    def test_power_bounds_are_admitted(self):
        d = _scenario_with_every_level()
        d["snr_db"] = MIN_SNR_DB
        d["scene"]["targets"][0]["amplitude"] = MAX_AMPLITUDE
        d["scene"]["movers"][0]["amplitude"] = [[0.0, -MAX_AMPLITUDE]]
        assert ScenarioSpec.from_dict(d).to_dict() == d

    def test_an_int_passes_for_a_float_unconverted(self):
        d = _scenario_with_every_level()
        d["snr_db"] = 20
        d["frame_rate"] = 20
        d["scene"]["duration"] = 20
        d["num_modes"] = 3
        spec = ScenarioSpec.from_dict(d)
        assert type(spec.snr_db) is int
        assert type(spec.frame_rate) is int
        assert type(spec.scene.duration) is int
        assert spec.num_modes == 3
        assert spec.to_dict() == d

    def test_omitted_blocks_take_defaults(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec == ScenarioSpec(name="bare")


class TestSpecSerialization:
    def test_json_round_trip(self, quick_spec, tmp_path):
        path = tmp_path / "spec.json"
        write_spec(quick_spec, path)
        again = ScenarioSpec.from_json(path)
        assert again.to_dict() == quick_spec.to_dict()
        assert again == quick_spec          # bands come back as tuples

    def test_committed_scenarios_load(self, tmp_path):
        names = set()
        for p in sorted(SCENARIOS.glob("*.json")):
            spec = ScenarioSpec.from_json(p)
            names.add(spec.name)
            write_spec(spec, tmp_path / p.name)
            assert (tmp_path / p.name).read_bytes() == p.read_bytes()
        assert {"clean", "range-overlap", "fusion-stress", "bench"} <= names

    def test_top_level_holds_exactly_the_fields(self):
        """A scenario dict is flat: its keys are the dataclass fields, the
        processing knobs among them at their defaults."""
        d = ScenarioSpec(name="bare").to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(ScenarioSpec)]
        assert (d["num_modes"], d["n_keep"]) == ("auto", 100)

    @pytest.mark.parametrize("knob", [k for k, (_, stage)
                                      in OLD_PROCESSING_KNOBS.items() if stage])
    def test_stage_default_is_the_old_scenario_value(self, knob):
        """A run uses every stage's own constants and defaults, so each must
        hold the value the deleted knob held in every bundled file."""
        _, (owner, name, value) = OLD_PROCESSING_KNOBS[knob]
        held = (getattr(owner, name) if inspect.ismodule(owner)
                else inspect.signature(owner).parameters[name].default)
        assert held == value

    @pytest.mark.parametrize("key, owner, name", [
        ("afov_deg", aoa, "MAX_ANGLE_DEG"),
        ("image_width", fusion, "IMAGE_WIDTH_PX"),
        ("box_width_px", simulate, "BOX_WIDTH_PX"),
        ("jitter_px", simulate, "JITTER_PX"),
    ])
    def test_camera_constant_is_the_old_scenario_value(self, key, owner,
                                                       name):
        """Each field of the deleted camera block is a module constant
        holding the value every bundled file set (``fps`` was null: the
        camera runs at the radar frame rate)."""
        assert getattr(owner, name) == OLD_CAMERA_BLOCK[key]

    @pytest.mark.parametrize("key", OLD_RADAR_BLOCK)
    def test_radar_constant_is_the_old_scenario_value(self, key):
        """Each chirp and array key of the old radar block, and its chirps
        per frame, is a class constant of ``RadarConfig`` holding the
        value, and the type, the bundled files set (bench.json's 1 chirp
        per frame aside)."""
        held = getattr(rv.RadarConfig, key)
        assert held == OLD_RADAR_BLOCK[key]
        assert type(held) is type(OLD_RADAR_BLOCK[key])


class TestBandSeededInit:
    def test_one_seed_per_band(self):
        fs, n = 20.0, 600
        t = np.arange(n) / fs
        s = 10 * np.sin(2 * np.pi * 0.25 * t) + 0.5 * np.sin(2 * np.pi * 1.2 * t)
        spec = vitals.analytic_spectrum(s, fs)
        init = band_seeded_init(spec, np.ones(1), 2)
        assert init[0] == pytest.approx(0.25, abs=0.05)
        assert init[1] == pytest.approx(1.2, abs=0.05)

    def test_extra_modes_spread(self):
        spec = vitals.analytic_spectrum(np.random.default_rng(0)
                                        .standard_normal(600), 20.0)
        init = band_seeded_init(spec, np.ones(1), 6)
        assert init.size == 6
        assert np.all(np.diff(init) >= 0)
        assert init[-1] <= spec.freqs_hz[-1]

    def test_band_outside_kept_spectrum_skipped(self):
        """20 kept bins end at 0.63 Hz, below the heart band."""
        spec = vitals.truncate_spectrum(
            vitals.analytic_spectrum(np.ones(600), 20.0), 20)
        assert spec.freqs_hz[-1] < vitals.DEFAULT_HR_BAND[0]
        init = band_seeded_init(spec, np.ones(1), 2)
        assert init.size == 2
        assert np.all(init <= spec.freqs_hz[-1])


class TestSuite:
    def test_aggregates_and_writes(self, quick_spec, tmp_path):
        summary = run_suite(quick_spec, repetitions=3, out_dir=tmp_path)
        assert summary["repetitions"] == 3
        assert summary["failed_runs"] == 0
        assert summary["num_rr_samples"] == 3
        assert summary["rr_abs_error_rpm"]["p50"] is not None
        assert ((tmp_path / "suite_summary.json").read_text()
                == json_text(summary))
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
        summary = run_suite(spec, repetitions=2, out_dir=tmp_path)
        assert summary["failed_runs"] == 2
        assert summary["failures"] == {"localize": 2}
        assert summary["num_rr_samples"] == 0
        assert summary["rr_abs_error_rpm"]["p50"] is None

    @pytest.fixture(scope="class")
    def lost_second_target(self):
        """clean.json plus a subject at 0.3 m and -30 deg, whose phase
        window leaves the range profile: every run fails at "vitals",
        while target-0 reads its rates."""
        spec = ScenarioSpec.from_json(SCENARIOS / "clean.json")
        near = dataclasses.replace(spec.scene.targets[0], range_m=0.3,
                                   angle_deg=-30.0)
        return dataclasses.replace(spec, scene=dataclasses.replace(
            spec.scene, targets=(*spec.scene.targets, near)))

    @staticmethod
    def assert_pools_the_good_target(summary, spec):
        """Target-0's three errors pooled, target-1 missing three times,
        three runs failed at "vitals"."""
        reports = [run_scenario(spec, seed=spec.seed + i).report
                   for i in range(3)]
        assert [r["failure_stage"] for r in reports] == ["vitals"] * 3
        for tag, key, name in (("rr", "rr_error_rpm", "rr_abs_error_rpm"),
                               ("hr", "hr_error_bpm", "hr_abs_error_bpm")):
            errors = [abs(r["targets"][0][key]) for r in reports]
            assert summary[f"num_{tag}_samples"] == 3
            assert summary[f"missing_{tag}"] == 3
            assert summary[name] == {
                "p50": np.percentile(errors, 50),
                "p80": np.percentile(errors, 80),
                "p90": np.percentile(errors, 90), "max": max(errors)}
        assert summary["rr_abs_error_rpm"]["max"] < 0.1
        assert summary["failures"] == {"vitals": 3}
        assert summary["failed_runs"] == 3
        assert summary["non_converged"] == 0

    def test_failed_run_keeps_its_good_targets(self, lost_second_target,
                                               tmp_path):
        spec = lost_second_target
        summary = run_suite(spec, repetitions=3, out_dir=tmp_path)
        self.assert_pools_the_good_target(summary, spec)
        cdf = (tmp_path / "cdf_rr.csv").read_text().splitlines()
        assert len(cdf) == 4 and cdf[-1].endswith(",1.000000")

    def test_accuracy_cells_pool_as_the_suite_does(self, lost_second_target):
        path = Path(__file__).parents[1] / "scripts" / "accuracy.py"
        loader = importlib.util.spec_from_file_location("accuracy", path)
        accuracy = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(accuracy)
        cell = accuracy.cell(lost_second_target, True, 3)
        self.assert_pools_the_good_target(cell, lost_second_target)
        assert cell["runs"] == 3

    def test_a_subject_the_camera_never_boxes_is_missing(self, tmp_path):
        """clean.json plus a subject at -70 deg, outside the camera's view:
        no run fails, and the unseen subject is missing from each of the
        three runs."""
        spec = ScenarioSpec.from_json(SCENARIOS / "clean.json")
        unseen = dataclasses.replace(spec.scene.targets[0], angle_deg=-70.0)
        spec = dataclasses.replace(spec, scene=dataclasses.replace(
            spec.scene, targets=(*spec.scene.targets, unseen)))
        summary = run_suite(spec, repetitions=3, out_dir=tmp_path)
        assert summary["failed_runs"] == 0
        assert summary["num_rr_samples"] == summary["num_hr_samples"] == 3
        assert summary["missing_rr"] == summary["missing_hr"] == 3

    def test_rejects_zero_repetitions(self, quick_spec, tmp_path):
        with pytest.raises(ValueError):
            run_suite(quick_spec, repetitions=0, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


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
        seen = _count_renders(monkeypatch)
        calls = {"synthesize_cube": [], "range_fft": []}

        def counted(name):
            fn = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counted(name))
        rows = bench_acceleration(spec, n_keep_values=[40], repeats=1)
        assert len(seen["scene"]) == renders
        # one phase window, steered with transmit weights when beamforming
        assert [steered for _, steered in seen["phase"]] == [beamforming]
        assert calls["synthesize_cube"] == calls["range_fft"] == []
        monkeypatch.undo()
        full_run = run_scenario(dataclasses.replace(spec, n_keep=None))
        (entry,) = full_run.report["targets"]
        full = {r["n_keep"]: r for r in rows}["full"]
        assert full["iterations"] == entry["iterations"]
        assert full["breaths_per_min"] == entry["breaths_per_min"]
        assert full["beats_per_min"] == entry["beats_per_min"]

    @pytest.mark.parametrize("name", [None, "bench"])
    def test_rows_are_the_chain_at_each_keep(self, quick_spec, name):
        """Each row is :func:`vitals_chain` on the full-spectrum run's phase
        channels and mode count at the row's kept bins."""
        spec = (quick_spec if name is None
                else ScenarioSpec.from_json(SCENARIOS / f"{name}.json"))
        rows = bench_acceleration(spec, n_keep_values=[60, 40], repeats=1)
        res = run_scenario(dataclasses.replace(spec, n_keep=None))
        chain = res.chains[res.locations[0][0]]
        assert [r["n_keep"] for r in rows] == ["full", 60, 40]
        for row in rows:
            keep = None if row["n_keep"] == "full" else row["n_keep"]
            again = vitals_chain(chain.phase, chain.k, keep, {})
            assert (row["n_bins"], row["iterations"], row["breaths_per_min"],
                    row["beats_per_min"]) == (
                again.spectra.n_bins, again.modes.iterations,
                again.rates.breaths_per_min, again.rates.beats_per_min)

    def test_a_failed_run_raises_its_stage(self):
        """The run a bench builds on fails at localize: the bench raises
        :class:`StageFailed` with that stage and the report's error."""
        spec = ScenarioSpec(name="empty", scene=rv.Scene(duration=5.0),
                            snr_db=0.0)
        report = run_scenario(dataclasses.replace(spec, n_keep=None)).report
        with pytest.raises(StageFailed) as info:
            bench_acceleration(spec, n_keep_values=[40], repeats=1)
        assert isinstance(info.value, RuntimeError)
        assert info.value.stage == "localize"
        assert str(info.value) == info.value.error == report["error"]

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
            with pytest.raises(ValueError, match=r"^n_keep \d+ keeps [245] "
                               r"spectrum bins, fewer than the 8 that 4 "
                               r"modes need$"):
                bench_acceleration(spec, n_keep_values=values, repeats=1)
            assert calls == [81]

    def test_two_bins_are_refused_not_widened(self):
        """n_keep 2 keeps 2 bins, not a silently widened 4, and so is
        refused for clean's two modes."""
        spec = ScenarioSpec.from_json(SCENARIOS / "clean.json")
        with pytest.raises(ValueError, match=r"^n_keep 2 keeps 2 spectrum "
                           r"bins, fewer than the 4 that 2 modes need$"):
            bench_acceleration(spec, n_keep_values=(2,), repeats=1)

    @pytest.mark.parametrize("repeats", [0, -5])
    def test_rejects_repeats_below_one(self, quick_spec, repeats):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            bench_acceleration(quick_spec, n_keep_values=[40],
                               repeats=repeats)

    @pytest.mark.parametrize("n_keep, n_bins, kept", [
        (2, 81, 2), (40, 81, 40), (10_000, 81, 81), (81, 81, 81)])
    def test_kept_bins(self, monkeypatch, n_keep, n_bins, kept):
        """The chain's spectrum stage asks ``truncate_spectrum`` for
        ``n_keep`` bins, at most the spectrum's ``n_bins``: an oversized
        keep is clipped and a small one is not widened (2 bins are then
        refused as fewer than 2 modes need)."""
        asked = []
        truncate = vitals.truncate_spectrum
        monkeypatch.setattr(vitals, "truncate_spectrum",
                            lambda spectra, n: asked.append(n)
                            or truncate(spectra, n))
        samples = np.random.default_rng(0).standard_normal(
            (5, 2 * (n_bins - 1)))
        phase = vitals.PhaseMatrix(samples=samples, sample_rate=20.0,
                                   range_bins=tuple(range(8, 13)))
        try:
            chain = vitals_chain(phase, 2, n_keep, {})
        except StageFailed as e:
            assert (e.stage, kept) == ("spectrum", 2)
        else:
            assert chain.spectra.n_bins == kept
        assert asked == [kept]

    def test_oversized_keep_is_clipped(self, quick_spec):
        rows = bench_acceleration(quick_spec, n_keep_values=[10_000],
                                  repeats=1)
        requested = [r["n_keep"] for r in rows]
        assert "full" in requested
        assert all(r["n_bins"] <= 81 for r in rows)


class TestVitalsChain:
    def test_all_zero_phase_fails_at_weights(self):
        """Phase channels with no energy fail the first stage, and no
        later stage runs."""
        phase = vitals.PhaseMatrix(samples=np.zeros((5, 200)),
                                   sample_rate=20.0,
                                   range_bins=tuple(range(8, 13)))
        timings: dict = {}
        with pytest.raises(StageFailed, match="carry no energy") as info:
            vitals_chain(phase, "auto", 100, timings)
        assert info.value.stage == "weights"
        assert list(timings) == ["weights"]


class TestModeCountTraffic:
    def test_bundled_windows_settle_at_the_krylov_read(self, monkeypatch):
        """Every auto-k window of the bundled scenarios (seeds +0..4, both
        beamformings) settles at the one Krylov read: ``eigvalsh`` sees
        only its :data:`vitals.MAX_MODES`-row projected matrix, never the
        dense Gram matrix, so no bundled run pays the dense solve."""
        rows = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            rows.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for path in sorted(SCENARIOS.glob("*.json")):
            spec = ScenarioSpec.from_json(path)
            for beamforming in (True, False):
                for i in range(5):
                    res = run_scenario(spec, seed=spec.seed + i,
                                       beamforming=beamforming)
                    assert not res.failed, (path.stem, beamforming, i)
        assert rows and set(rows) == {vitals.MAX_MODES}


def vitals_window(spec, center, tx, noise):
    """The phase window the vitals chain renders for a target at
    ``center``."""
    bins = vitals.channel_bins(center)
    return simulate.render_profiles(spec.scene, spec.frame_rate, bins,
                                    slice(None), tx, snr_db=spec.snr_db,
                                    seed=noise)


class TestSteeredProfiles:
    """The steered phase window against the cube renders."""

    @pytest.fixture(scope="class")
    def renders(self):
        # range_overlap: static clutter, a vital target and a mover
        spec = ScenarioSpec.from_json(SCENARIOS / "range_overlap.json")
        tgt = spec.scene.targets[0]
        tx = beamform.tx_weights(tgt.angle_deg)
        cubes = [synthesize_cube(spec.scene, spec.frame_rate, tx_weights=w)
                 for w in (None, tx)]
        return spec, tx, cubes

    @pytest.mark.parametrize("where", ["target", "first_bins"])
    def test_matches_the_steered_render_in_the_read_window(
            self, renders, where):
        """The steered window equals the unsteered window plus what
        steering adds to the cube's FFT (the steered noiseless cube's minus
        the unsteered one's), to rounding: one noise realisation, two
        signals."""
        spec, tx, (plain, steered) = renders
        center = (range_bin_of(spec.scene.targets[0].range_m)
                  if where == "target" else vitals.PHASE_CHANNELS // 2)
        noise = np.random.SeedSequence(11)
        got, base = (vitals_window(spec, center, w, noise) for w in (tx, None))
        bins = vitals.channel_bins(center)
        first_chirps = slice(None, None, rv.RadarConfig.chirps_per_frame)
        difference = (range_fft(steered).data
                      - range_fft(plain).data)[bins.start:bins.stop,
                                               first_chirps]
        want = base.data + difference
        assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()
        assert not np.array_equal(got.data, base.data)


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


CLEAN = ScenarioSpec.from_json(SCENARIOS / "clean.json")


@settings(max_examples=20, deadline=None)
@given(snr_db=st.floats(MIN_SNR_DB, 60.0),
       amplitude=st.floats(0.0, MAX_AMPLITUDE),
       frame_rate=st.floats(0.05, 60.0),
       duration=st.floats(0.1, 12.0),
       beamforming=st.booleans())
def test_admitted_power_ends_in_rates_or_a_named_failure(
        snr_db, amplitude, frame_rate, duration, beamforming):
    """clean.json at any noise level and target amplitude a scenario
    admits, at any frame rate from 0.05 to 60 fps and any capture from
    0.1 to 12 s (one frame or none, up to 720), steered or not: the run
    ends in finite rates (or none found) or in a named failure stage,
    never in an exception or a warning."""
    target = dataclasses.replace(CLEAN.scene.targets[0], amplitude=amplitude)
    spec = dataclasses.replace(
        CLEAN, snr_db=snr_db, frame_rate=frame_rate,
        scene=dataclasses.replace(CLEAN.scene, targets=(target,),
                                  duration=duration))
    report = run_scenario(spec, beamforming=beamforming).report
    if report["failure_stage"] is not None:
        assert report["failure_stage"] in ("simulate", "heatmap", "localize",
                                           "vitals")
        assert report["error"]
        return
    for entry in report["targets"]:
        for key in ("breaths_per_min", "beats_per_min"):
            assert entry[key] is None or np.isfinite(entry[key])
