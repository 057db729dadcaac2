import argparse
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_scene

from tofdefog import cli, irls
from tofdefog.cli import main
from tofdefog.core import CameraModel
from tofdefog.gridfile import read_grid, write_grid
from tofdefog.irls import SolverConfig, SolverError
from tofdefog.pipeline import file_sha256, save_scene

ROWS = COLS = 64


@pytest.fixture()
def scene_dir(tmp_path):
    scene = make_scene(beta=3.2e-4, seed=5, rows=ROWS, cols=COLS,
                       flip_row=ROWS // 2, coverage="small")
    path = tmp_path / "scene" / "scene.json"
    save_scene(scene, path)
    return path


def write_small_configs(tmp_path):
    flip = {"flip_row": ROWS // 2, "excluded_bottom_rows": 4}
    amp = tmp_path / "amp_cfg.json"
    amp.write_text(json.dumps({"patch_grid": [2, 2], "flip": flip}))
    phase = tmp_path / "phase_cfg.json"
    phase.write_text(json.dumps({"patch_grid": [2, 2], "flip": flip}))
    return str(amp), str(phase)


def run_synth(scene_path, out):
    assert main(["synth", str(scene_path), "--out", str(out)]) == 0
    for name in ("foggy_amplitude", "foggy_phase", "depth_gt",
                 "scattering_amplitude_gt", "scattering_phase_gt",
                 "mask_gt", "labels"):
        assert (out / f"{name}.tofgrid").exists()
    assert (out / "manifest.json").exists()


def run_defog(tmp_path, synth_out, defog_out, extra=()):
    amp_cfg, phase_cfg = write_small_configs(tmp_path)
    args = [
        "defog",
        "--amp", str(synth_out / "foggy_amplitude.tofgrid"),
        "--phase", str(synth_out / "foggy_phase.tofgrid"),
        "--out", str(defog_out),
        "--amp-config", amp_cfg,
        "--phase-config", phase_cfg,
    ]
    assert main(args + list(extra)) == 0


def test_synth_defog_eval_round_trip(tmp_path, scene_dir):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)

    defog_out = tmp_path / "defog"
    run_defog(tmp_path, synth_out, defog_out)
    for name in ("scattering_amplitude", "scattering_phase", "weights_amplitude",
                 "weights_phase", "mask_fused", "depth_masked"):
        assert (defog_out / f"{name}.tofgrid").exists()

    assert main(["eval", "--est", str(defog_out), "--gt", str(synth_out)]) == 0
    report = json.loads((defog_out / "report.json").read_text())
    by_label = {r["label"]: r for r in report}
    assert set(by_label) == {"w/o method", "proposed"}
    raw_err = by_label["w/o method"]["region_errors_mm"]["1"]
    prop_err = by_label["proposed"]["region_errors_mm"]["1"]
    assert prop_err < 0.2 * raw_err
    # mask quality at this toy size is loose (boundary ring); the full-size
    # IoU bar lives in the acceptance suite
    assert by_label["proposed"]["mask_iou"] > 0.5
    csv_lines = (defog_out / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith(",region_1")


def set_header(path, **keys):
    """Rewrite the TOFGRID header of `path` with `keys` set; a key set to ... is deleted."""
    header, payload = path.read_bytes().split(b"\x00", 1)
    header = {**json.loads(header), **keys}
    header = {key: value for key, value in header.items() if value is not ...}
    path.write_bytes(json.dumps(header).encode() + b"\x00" + payload)


def test_defog_and_eval_take_the_frequency_from_the_capture(tmp_path):
    # a 20 MHz capture: defog and the raw baseline convert phase at 20 MHz,
    # not at the Kinect's 16 MHz, with no flag naming it
    scene = make_scene(beta=3.2e-4, seed=5, rows=ROWS, cols=COLS,
                       flip_row=ROWS // 2, coverage="small")
    scene.cam = CameraModel(20e6, rows=ROWS, cols=COLS)
    save_scene(scene, tmp_path / "scene" / "scene.json")
    synth_out, defog_out = tmp_path / "synth", tmp_path / "defog"
    run_synth(tmp_path / "scene" / "scene.json", synth_out)
    carried = {path.name: read_grid(path).modulation_frequency_hz
               for path in synth_out.glob("*.tofgrid")}
    assert {name for name, freq in carried.items() if freq is not None} == {
        "foggy_amplitude.tofgrid", "foggy_phase.tofgrid"}
    assert carried["foggy_phase.tofgrid"] == 20e6
    run_defog(tmp_path, synth_out, defog_out)
    config = json.loads((defog_out / "manifest.json").read_text())["config"]
    assert "modulation_frequency_hz" not in config
    assert main(["eval", "--est", str(defog_out), "--gt", str(synth_out)]) == 0
    by_label = {r["label"]: r for r in json.loads((defog_out / "report.json").read_text())}
    # a defog at the 16 MHz that was the default gave 424.11 mm, and its
    # eval 208.79 mm for the raw baseline
    assert by_label["proposed"]["overall_mean_mm"] == pytest.approx(21.71, abs=0.005)
    assert by_label["w/o method"]["overall_mean_mm"] == pytest.approx(528.04, abs=0.005)


@pytest.mark.parametrize("freq, code", [
    (..., 2), (["x"], 4), (None, 4), (0, 4), (-16e6, 4), ("16e6", 4),
], ids=["missing", "list", "no-frequency", "zero-frequency", "negative-frequency",
        "string-frequency"])
def test_eval_without_a_run_frequency_exit_code(tmp_path, capsys, freq, code):
    # eval converts the raw baseline at the frequency in --gt's foggy phase header
    argv = write_malformed_input(tmp_path, "valid")
    path = tmp_path / "capture" / "foggy_phase.tofgrid"
    set_header(path, modulation_frequency_hz=freq)
    capsys.readouterr()
    assert main(argv + ["--json"]) == code
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == code and str(path) in err["message"]
    assert not (tmp_path / "est" / "report.json").exists()


@pytest.mark.parametrize("depth_rows, mask_rows", [(6, 6), (8, 6)])
def test_eval_of_grids_of_another_shape_names_each_shape(tmp_path, capsys, depth_rows,
                                                         mask_rows):
    argv = write_malformed_input(tmp_path, "valid")
    est = tmp_path / "est"
    write_grid(est / "depth_masked.tofgrid", np.full((depth_rows, 8), 1000.0), "depth")
    write_grid(est / "mask_fused.tofgrid", np.zeros((mask_rows, 8)), "label")
    capsys.readouterr()
    assert main(argv + ["--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == (
        f"evaluation grids must share one shape, got estimated depth {depth_rows}x8, "
        f"estimated mask {mask_rows}x8, ground-truth depth 8x8, ground-truth mask 8x8, "
        "regions 8x8")
    assert not (est / "report.json").exists()


@pytest.mark.parametrize("amp_freq, phase_freq, named", [
    (..., 16e6, "amp"), (16e6, ..., "phase"), (16e6, 20e6, "amp"), (16e6, 20e6, "phase"),
], ids=["amplitude-without", "phase-without", "differ-names-amplitude", "differ-names-phase"])
def test_defog_of_a_pair_without_one_frequency_exit_code(tmp_path, capsys, amp_freq,
                                                         phase_freq, named):
    argv = write_flat_pair(tmp_path)
    set_header(tmp_path / "amp.tofgrid", modulation_frequency_hz=amp_freq)
    set_header(tmp_path / "phase.tofgrid", modulation_frequency_hz=phase_freq)
    assert main(["defog", *argv, "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and str(tmp_path / f"{named}.tofgrid") in err["message"]
    assert "modulation_frequency_hz" in err["message"]
    assert not (tmp_path / "d").exists()


def test_defog_has_no_freq_flag(tmp_path, capsys):
    # the capture's headers carry the frequency; a flag would be a second source
    with pytest.raises(SystemExit) as exc:
        main(["defog", *write_flat_pair(tmp_path), "--freq", "16e6"])
    assert exc.value.code == 2
    assert "--freq" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("sigma", [[], ["--gaussian-sigma", "1.0"]], ids=["plain", "smoothed"])
def test_defog_of_a_pair_of_two_sizes_exit_code(tmp_path, capsys, sigma):
    amp, phase = tmp_path / "amp.tofgrid", tmp_path / "phase.tofgrid"
    write_grid(amp, np.ones((16, 16)), "amplitude", modulation_frequency_hz=16e6)
    write_grid(phase, np.full((16, 12), 0.1), "phase", modulation_frequency_hz=16e6)
    out = tmp_path / "d"
    code = main(["defog", "--amp", str(amp), "--phase", str(phase), "--out", str(out),
                 "--flip-row", "8", "--excluded-rows", "2", *sigma, "--json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "(16, 16)" in err["message"] and "(16, 12)" in err["message"]
    assert not out.exists()


def test_defog_gaussian_sigma_is_recorded_and_replayed(tmp_path, scene_dir):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    plain, smoothed, replayed = tmp_path / "plain", tmp_path / "smoothed", tmp_path / "replayed"
    run_defog(tmp_path, synth_out, plain)
    run_defog(tmp_path, synth_out, smoothed, ["--gaussian-sigma", "1.0"])
    assert main(["replay", str(smoothed / "manifest.json"), "--out", str(replayed)]) == 0
    m_plain, m_smoothed, m_replayed = (json.loads((out / "manifest.json").read_text())
                                       for out in (plain, smoothed, replayed))
    assert m_plain["config"]["gaussian_sigma"] is None
    assert m_smoothed["config"] == {**m_plain["config"], "gaussian_sigma": 1.0}
    assert all(m_smoothed["outputs"][name] != digest
               for name, digest in m_plain["outputs"].items())
    assert m_replayed["config"] == m_smoothed["config"]
    assert m_replayed["outputs"] == m_smoothed["outputs"]
    for name, digest in m_smoothed["outputs"].items():
        assert file_sha256(replayed / name) == digest


def test_defog_runs_are_byte_identical(tmp_path, scene_dir):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    run_defog(tmp_path, synth_out, out1)
    run_defog(tmp_path, synth_out, out2)
    for name in ("scattering_amplitude", "scattering_phase", "weights_amplitude",
                 "weights_phase", "mask_fused", "depth_masked"):
        a = (out1 / f"{name}.tofgrid").read_bytes()
        b = (out2 / f"{name}.tofgrid").read_bytes()
        assert a == b, name


@pytest.mark.parametrize("noise", ["nan", "inf", "-1e-9"])
def test_synth_non_finite_or_negative_noise_exit_code(tmp_path, capsys, scene_dir, noise):
    # a NaN sigma used to write a noise-free capture and a bare NaN into manifest.json
    out = tmp_path / "capture"
    assert main(["synth", str(scene_dir), "--out", str(out), f"--noise={noise}", "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "noise_sigma" in err["message"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("noise", [[], ["--noise", "1e-9"]])
def test_synth_negative_noise_seed_exit_code(tmp_path, capsys, scene_dir, noise):
    # with noise numpy's bare "expected non-negative integer" came out; without
    # it the seed ran and was written into manifest.json
    out = tmp_path / "capture"
    argv = ["synth", str(scene_dir), "--out", str(out), *noise, "--noise-seed", "-1", "--json"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2
    assert err["message"] == "noise_seed must be an int >= 0, got -1"
    assert not (out / "manifest.json").exists()


def test_defog_replay_from_manifest(tmp_path, scene_dir):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    out1 = tmp_path / "d1"
    run_defog(tmp_path, synth_out, out1)
    out2 = tmp_path / "d2"
    assert main([
        "replay", str(out1 / "manifest.json"),
        "--out", str(out2),
    ]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    for name, digest in m1["outputs"].items():
        if name != "manifest.json":
            assert file_sha256(out2 / name) == digest


def test_defog_replay_without_gaussian_sigma_writes_it_back_null(tmp_path, scene_dir):
    # a config section without gaussian_sigma: the replay writes back what
    # a flag run with the same settings writes, the key included
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    flagged = tmp_path / "flagged"
    run_defog(tmp_path, synth_out, flagged)
    want = json.loads((flagged / "manifest.json").read_text())
    partial = tmp_path / "partial.json"
    config = {key: value for key, value in want["config"].items() if key != "gaussian_sigma"}
    partial.write_text(json.dumps({"config": config, "inputs": want["inputs"]}))
    replay = tmp_path / "replay"
    assert main(["replay", str(partial), "--out", str(replay)]) == 0
    got = json.loads((replay / "manifest.json").read_text())
    assert got["config"] == want["config"]
    assert got["config"]["gaussian_sigma"] is None
    every_field = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(got["config"]["amplitude"]) == set(got["config"]["phase"]) == every_field
    assert got["outputs"] == want["outputs"]


def test_defog_replay_of_a_same_basename_pair(tmp_path, scene_dir):
    # a/frame.tofgrid and b/frame.tofgrid are two inputs, not one
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    amp, phase = tmp_path / "a" / "frame.tofgrid", tmp_path / "b" / "frame.tofgrid"
    for src, dst in ((synth_out / "foggy_amplitude.tofgrid", amp),
                     (synth_out / "foggy_phase.tofgrid", phase)):
        dst.parent.mkdir()
        shutil.copy(src, dst)
    amp_cfg, phase_cfg = write_small_configs(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["defog", "--amp", str(amp), "--phase", str(phase), "--out", str(out1),
                 "--amp-config", amp_cfg, "--phase-config", phase_cfg]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["inputs"] == {str(amp): file_sha256(amp), str(phase): file_sha256(phase)}
    assert main(["replay", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["outputs"] == m1["outputs"]


def test_defog_has_no_replay_mode(tmp_path, scene_dir):
    # replay is its own command; defog must not run a manifest with its flags dropped
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    run_defog(tmp_path, synth_out, tmp_path / "d0")
    with pytest.raises(SystemExit) as exc:
        main(["defog", "--from-manifest", str(tmp_path / "d0" / "manifest.json"),
              "--out", str(tmp_path / "d"), "--max-iters", "1"])
    assert exc.value.code == 2
    assert not (tmp_path / "d").exists()


# each of defog's run flags, with a value; a replay runs the manifest's settings only
DEFOG_RUN_FLAGS = [["--amp", "a.tofgrid"], ["--phase", "p.tofgrid"],
                   ["--amp-config", "a.json"], ["--phase-config", "p.json"],
                   ["--max-iters", "1"], ["--flip-row", "4"], ["--excluded-rows", "2"],
                   ["--gaussian-sigma", "2"]]


@pytest.mark.parametrize("flag", DEFOG_RUN_FLAGS, ids=[flag[0] for flag in DEFOG_RUN_FLAGS])
def test_replay_rejects_a_run_flag(tmp_path, capsys, flag):
    manifest = write_replay_manifest(tmp_path)
    argv = ["replay", str(manifest), "--out", str(tmp_path / "out"), "--threads", "2"]
    assert cli.build_parser().parse_args(argv).threads == 2
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("threads", ["0", "-3", "junk"])
@pytest.mark.parametrize("command", ["defog", "replay"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, command, threads):
    argv = {"defog": ["defog", "--amp", "a.tofgrid", "--phase", "p.tofgrid"],
            "replay": ["replay", str(tmp_path / "manifest.json")]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out"), f"--threads={threads}"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_scipy_ndimage_unloaded():
    # only a --gaussian-sigma run needs it, and importing it costs most of a start-up
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, tofdefog.cli; print('scipy.ndimage' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False"


def write_flat_pair(tmp_path, amp_domain="amplitude", phase_domain="phase"):
    amp, phase = tmp_path / "amp.tofgrid", tmp_path / "phase.tofgrid"
    write_grid(amp, np.ones((24, 24)), amp_domain, modulation_frequency_hz=16e6)
    write_grid(phase, np.full((24, 24), 0.1), phase_domain, modulation_frequency_hz=16e6)
    return ["--amp", str(amp), "--phase", str(phase),
            "--flip-row", "12", "--excluded-rows", "3", "--out", str(tmp_path / "d")]


def test_a_frame_too_small_for_the_half_grid_exit_code(tmp_path, capsys):
    # the default 4x4 patch grid: the coarse level's 8x8 half grid cannot
    # hold it, and the error says which frame size it needs
    amp, phase = tmp_path / "amp.tofgrid", tmp_path / "phase.tofgrid"
    write_grid(amp, np.ones((16, 16)), "amplitude", modulation_frequency_hz=16e6)
    write_grid(phase, np.full((16, 16), 0.1), "phase", modulation_frequency_hz=16e6)
    code = main(["defog", "--amp", str(amp), "--phase", str(phase), "--flip-row", "8",
                 "--excluded-rows", "2", "--out", str(tmp_path / "d"), "--json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith("a 16x16 frame is too small for the 4x4 patch grid")
    assert "at least 24x24 pixels" in err["message"]
    assert "3x3" not in err["message"]


def test_the_manifest_states_each_levels_grid(tmp_path):
    # the coarse levels run on the 2x2 block means, the fine levels on the frame
    scene = make_scene(beta=3.2e-4, seed=5, rows=72, cols=96, flip_row=34)
    save_scene(scene, tmp_path / "scene" / "scene.json")
    synth_out, out = tmp_path / "synth", tmp_path / "d"
    run_synth(tmp_path / "scene" / "scene.json", synth_out)
    assert main(["defog", "--amp", str(synth_out / "foggy_amplitude.tofgrid"),
                 "--phase", str(synth_out / "foggy_phase.tofgrid"), "--out", str(out),
                 "--flip-row", "34", "--excluded-rows", "4"]) == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert {name: level["shape"] for name, level in solver.items()} == {
        "amplitude_coarse": [36, 48], "phase_coarse": [36, 48],
        "amplitude_fine": [72, 96], "phase_fine": [72, 96]}


def test_defog_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise SolverError("x-step did not converge", residual_norm=1.0)

    monkeypatch.setattr(irls, "_solve_system", fail)
    code = main(["defog", *write_flat_pair(tmp_path), "--json"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "SolverError", "message": "x-step did not converge",
                   "exit_code": 3}
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("domains, expected", [
    (("phase", "phase"), "expected an amplitude grid"),
    (("amplitude", "amplitude"), "expected a phase grid"),
], ids=["phase-as-amp", "amp-as-phase"])
def test_defog_grid_of_the_wrong_domain_exit_code(tmp_path, capsys, domains, expected):
    code = main(["defog", *write_flat_pair(tmp_path, *domains), "--json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InputError" and expected in err["message"]


def test_defog_dimension_mismatch_exit_code(tmp_path, scene_dir):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    small = tmp_path / "small.tofgrid"
    write_grid(small, np.zeros((8, 8)), "phase", modulation_frequency_hz=16e6)
    code = main([
        "defog",
        "--amp", str(synth_out / "foggy_amplitude.tofgrid"),
        "--phase", str(small),
        "--out", str(tmp_path / "d"),
    ])
    assert code == 2


def test_defog_format_error_exit_code(tmp_path, scene_dir, capsys):
    synth_out = tmp_path / "synth"
    run_synth(scene_dir, synth_out)
    broken = tmp_path / "broken.tofgrid"
    raw = (synth_out / "foggy_amplitude.tofgrid").read_bytes()
    broken.write_bytes(raw[:-5])
    code = main([
        "defog", "--amp", str(broken),
        "--phase", str(synth_out / "foggy_phase.tofgrid"),
        "--out", str(tmp_path / "d"), "--json",
    ])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "GridFormatError"
    assert err["exit_code"] == 4


@pytest.mark.parametrize("doc, named", [
    ({"gama1": 0.1}, "gama1"),
    ({"flip": {"flip_row": 5, "bogus": 1}}, "bogus"),
    ({"patch_grid": 4}, "patch_grid"),
    ([1, 2], "list"),
    ({"gamma1": "0.1"}, "gamma1"),
    ({"patch_grid": ["a", 2]}, "patch_grid"),
    ({"profile": "amplitude-kinect16"}, "profile"),
    ({"mask_threshold": 0.4}, "mask_threshold"),
    ({"flip": [5, 2]}, "flip"),
    ({"convergence_tol": 1e-3}, "convergence_tol"),
], ids=["unknown-key", "unknown-flip-key", "scalar-patch-grid", "list",
        "string-gamma", "non-int-patch-grid", "profile-key", "mask-threshold-key", "list-flip",
        "convergence-tol-key"])
def test_malformed_config_exit_code(tmp_path, capsys, doc, named):
    # the config is rejected before the (absent) grids are opened; a file
    # lays its keys over its domain's profile, so none names a profile
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([
        "defog",
        "--amp", str(tmp_path / "nope.tofgrid"),
        "--phase", str(tmp_path / "nope2.tofgrid"),
        "--amp-config", str(bad),
        "--out", str(tmp_path / "d"), "--json",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["exit_code"] == 2
    assert named in err["message"]


@pytest.mark.parametrize("command", ["synth", "defog", "replay"])
def test_a_malformed_json_document_names_its_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = ["--out", str(tmp_path / "out"), "--json"]
    argv = {"synth": ["synth", str(bad)],
            "defog": ["defog", "--amp", str(tmp_path / "nope.tofgrid"),
                      "--phase", str(tmp_path / "nope2.tofgrid"), "--amp-config", str(bad)],
            "replay": ["replay", str(bad)]}[command]
    assert main(argv + out) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "JSONDecodeError"
    assert err["message"] == f"{bad}: Expecting property name enclosed in double quotes: " \
                             f"line 1 column 2 (char 1)"


@pytest.mark.parametrize("command", ["synth", "defog", "replay"])
def test_a_json_document_that_is_not_utf8_names_its_file(tmp_path, capsys, command):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
    argv = {"synth": ["synth", str(bad)],
            "defog": ["defog", "--amp", str(tmp_path / "nope.tofgrid"),
                      "--phase", str(tmp_path / "nope2.tofgrid"), "--amp-config", str(bad)],
            "replay": ["replay", str(bad)]}[command]
    assert main(argv + ["--out", str(tmp_path / "out"), "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2
    assert err["message"].startswith(f"{bad}: ") and "utf-8" in err["message"]


@pytest.mark.parametrize("doc, named", [
    ({"gama1": 0.1}, "gama1"), ([1, 2], "list"),
    ({"linear_solver_tol": 1.0}, "linear_solver_tol"),
    ({"patch_grid": [0, 4]}, "patch_grid"), ({"patch_grid": [4, 0]}, "patch_grid"),
], ids=["unknown-key", "list", "unit-tolerance", "zero-patch-rows", "zero-patch-cols"])
def test_a_malformed_config_file_is_named_among_two(tmp_path, capsys, doc, named):
    good, bad = tmp_path / "p.json", tmp_path / "a.json"
    good.write_text("{}")
    bad.write_text(json.dumps(doc))
    code = main([
        "defog",
        "--amp", str(tmp_path / "nope.tofgrid"),
        "--phase", str(tmp_path / "nope2.tofgrid"),
        "--amp-config", str(good), "--phase-config", str(bad),
        "--out", str(tmp_path / "d"), "--json",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}: ") and named in err["message"]
    assert str(good) not in err["message"]


def test_a_partial_flip_object_lays_its_keys_over_the_profile(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"flip": {"flip_row": 100}}))
    cfg = cli._solver_config("amplitude-kinect16", str(path), {})
    assert (cfg.flip.flip_row, cfg.flip.excluded_bottom_rows) == (100, 24)


def test_flags_lay_over_a_config_file(tmp_path):
    amp, phase = tmp_path / "amp.tofgrid", tmp_path / "phase.tofgrid"
    write_grid(amp, np.ones((112, 24)), "amplitude", modulation_frequency_hz=16e6)
    write_grid(phase, np.full((112, 24), 0.1), "phase", modulation_frequency_hz=16e6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"flip": {"flip_row": 100}, "max_outer_iters": 9}))
    out = tmp_path / "d"
    assert main(["defog", "--amp", str(amp), "--phase", str(phase), "--out", str(out),
                 "--amp-config", str(path), "--phase-config", str(path),
                 "--excluded-rows", "10", "--max-iters", "3"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    for domain in ("amplitude", "phase"):
        assert config[domain]["flip"] == {"flip_row": 100, "excluded_bottom_rows": 10}
        assert config[domain]["max_outer_iters"] == 3


def test_missing_input_exit_code(tmp_path):
    code = main([
        "defog", "--amp", str(tmp_path / "nope.tofgrid"),
        "--phase", str(tmp_path / "nope2.tofgrid"),
        "--out", str(tmp_path / "d"),
    ])
    assert code == 2


def test_simrange_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    gp = tmp_path / "sweep.gp"
    assert main([
        "simrange", "--beta", "3.2e-4", "--g", "0.9", "--freq", "16e6", "--I", "1.0",
        "--out", str(out), "--gnuplot", str(gp),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "z_mm,alpha_s,phi_s,residual_amp,residual_phase"
    assert len(lines) > 50
    assert "plot" in gp.read_text()


@pytest.mark.parametrize("flag, value, named", [
    ("--beta", "nan", "beta"),
    ("--beta", "inf", "beta"),
    ("--I", "nan", "reflectance"),
    ("--I", "-1", "reflectance"),
    ("--I", "inf", "reflectance"),
    ("--z0", "nan", "z0"),
    ("--freq", "inf", "modulation_frequency_hz"),
])
def test_simrange_non_finite_or_negative_value_exit_code(tmp_path, capsys, flag, value, named):
    # NaN passes a check written as `value < 0`; such a sweep wrote NaN or inf columns
    out = tmp_path / "sweep.csv"
    assert main(["simrange", "--beta", "3.2e-4", f"{flag}={value}", "--out", str(out),
                 "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and f"{named} must" in err["message"]
    assert not out.exists()


def test_simrange_z0_past_the_unambiguous_range_exit_code(tmp_path, capsys):
    # no depth of the sweep's grid lies in [z0, c/(2f)) at 16 MHz
    out = tmp_path / "sweep.csv"
    assert main(["simrange", "--beta", "3.2e-4", "--z0", "12000", "--out", str(out),
                 "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "z0" in err["message"]
    assert not out.exists()


def test_simrange_cli_no_medium_unbounded(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["simrange", "--beta", "0", "--out", str(out)]) == 0
    assert "unbounded" in capsys.readouterr().out


def write_replay_manifest(tmp_path, **config):
    """A manifest of a run on two flat 8x8 grids, its `config` updated by `config`."""
    amp, phase = tmp_path / "amp.tofgrid", tmp_path / "phase.tofgrid"
    write_grid(amp, np.ones((8, 8)), "amplitude", modulation_frequency_hz=16e6)
    write_grid(phase, np.ones((8, 8)), "phase", modulation_frequency_hz=16e6)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "config": {"amplitude": SolverConfig.profile("amplitude-kinect16").to_dict(),
                   "phase": SolverConfig.profile("phase-kinect16").to_dict(),
                   "amp_input": str(amp), "phase_input": str(phase), **config},
        "inputs": {str(amp): file_sha256(amp), str(phase): file_sha256(phase)},
    }))
    return manifest


@pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["defog", "replay"])
def test_invalid_gaussian_sigma_exit_code(tmp_path, capsys, command, sigma):
    # scipy's gaussian_filter treats such a sigma as "no filter"
    manifest = write_replay_manifest(tmp_path, gaussian_sigma=float(sigma))
    out = tmp_path / "out"
    argv = {
        "defog": ["defog", "--amp", str(tmp_path / "amp.tofgrid"),
                  "--phase", str(tmp_path / "phase.tofgrid"),
                  f"--gaussian-sigma={sigma}"],
        "replay": ["replay", str(manifest)],
    }[command]
    code = main(argv + ["--out", str(out), "--json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InputError" and "Gaussian sigma" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    (None, "preprocess", "gaussian"),
    (None, "preprocess_sigma", 1.0),
    ("amplitude", "clamp_nonnegative", True),
    ("phase", "plain_patch_fit", False),
    ("amplitude", "profile", "amplitude-kinect16"),
    (None, "modulation_frequency_hz", 16e6),
    ("phase", "mask_threshold", 0.5),
    ("amplitude", "convergence_tol", 1e-4),
], ids=["preprocess", "preprocess-sigma", "clamp-nonnegative", "plain-patch-fit", "profile",
        "modulation-frequency", "mask-threshold", "convergence-tol"])
def test_replay_of_a_removed_setting_exit_code(tmp_path, capsys, section, key, value):
    # settings an earlier tofdefog recorded or read: a replay names the key instead of running
    manifest = write_replay_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    (doc["config"] if section is None else doc["config"][section])[key] = value
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["replay", str(manifest), "--out", str(out), "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and f"key(s): {key}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("camera", "speed_of_light_mm_per_s", 2.99792458e11),
    ("scattering", "amplitude_peak", None),
    ("scattering", "phase_peak", None),
], ids=["speed-of-light", "amplitude-peak", "phase-peak"])
def test_scene_with_a_removed_key_exit_code(tmp_path, capsys, section, key, value):
    # keys an earlier tofdefog wrote into every scene: synth names the key instead of running
    scene_path = tmp_path / "scene" / "scene.json"
    save_scene(make_scene(beta=3.2e-4, seed=5, rows=8, cols=8, flip_row=4), scene_path)
    doc = json.loads(scene_path.read_text())
    doc[section][key] = value
    scene_path.write_text(json.dumps(doc))
    out = tmp_path / "capture"
    assert main(["synth", str(scene_path), "--out", str(out), "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and f"key(s): {key}" in err["message"]
    assert not out.exists()


def test_replay_of_a_bad_solver_section_names_the_manifest_and_domain(tmp_path, capsys):
    manifest = write_replay_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["config"]["phase"]["gama1"] = 0.1
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest), "--out", str(tmp_path / "out"), "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["exit_code"] == 2
    assert err["message"] == f"{manifest}: config.phase: unknown solver config key(s): gama1"


# what the replay's error names, per malformed manifest
MALFORMED_MANIFESTS = {
    "list": "config and inputs",
    "list-config": "config and inputs",
    "list-inputs": "config and inputs",
    "list-input-name": "amp_input",
    "relative-path": "amp_input",
    "unknown-config-key": "gaussian_sigmaa",
    "missing-phase-section": "missing config key(s): phase",
    "rewritten-input": "amp.tofgrid",
    "bool-sigma": "Gaussian sigma",
    "string-sigma": "Gaussian sigma",
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_defog_replay_of_a_malformed_manifest_exit_code(tmp_path, capsys, case):
    manifest = write_replay_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    config = doc["config"]
    if case == "list":
        doc = ["x"]
    elif case == "list-config":
        doc["config"] = ["x"]
    elif case == "list-inputs":
        doc["inputs"] = list(doc["inputs"])
    elif case == "list-input-name":
        config["amp_input"] = [config["amp_input"]]
    elif case == "relative-path":
        config["amp_input"] = "amp.tofgrid"
    elif case == "unknown-config-key":
        config["gaussian_sigmaa"] = 2.0
    elif case == "missing-phase-section":
        del config["phase"]
    elif case == "rewritten-input":
        write_grid(tmp_path / "amp.tofgrid", np.full((8, 8), 2.0), "amplitude")
    elif case == "bool-sigma":
        config["gaussian_sigma"] = True
    else:
        config["gaussian_sigma"] = "abc"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["replay", str(manifest), "--out", str(out), "--json"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InputError" and err["exit_code"] == 2
    assert MALFORMED_MANIFESTS[case] in err["message"]
    assert not out.exists()


def checkerboard_phase(n=16, eps=0.01):
    """Phases eps and 2*pi - eps in a checkerboard: the same angle, 0, up to +-eps."""
    i, j = np.indices((n, n))
    return np.where((i + j) % 2 == 0, eps, 2 * np.pi - eps)


def angle_from_zero(phase):
    return np.abs(np.angle(np.exp(1j * phase)))


def test_gaussian_smooths_an_amplitude_phase_pair_as_its_phasor():
    amplitude = np.full((16, 16), 2.0)
    amp, phase = cli._gaussian(1.0, amplitude, checkerboard_phase())
    assert angle_from_zero(phase).max() < 0.01
    # the phasor's +-0.01 rad spread shortens it by 1 - cos(0.01)
    assert np.allclose(amp, 2.0 * np.cos(0.01), rtol=1e-3)


def write_malformed_input(tmp_path, case):
    """The argv of a run on one malformed input; every other input is valid."""
    scene = make_scene(beta=3.2e-4, seed=5, rows=8, cols=8, flip_row=4, coverage="small")
    scene_path = tmp_path / "scene" / "scene.json"
    save_scene(scene, scene_path)
    doc = json.loads(scene_path.read_text())
    if case.startswith("scene-"):
        doc = {
            "scene-list": [],
            "scene-top-level-key": {**doc, "labels_mpa": "labels.tofgrid"},
            "scene-camera-key": {**doc, "camera": {**doc["camera"], "bogus": 1}},
            "scene-negative-beta": {**doc, "medium": {**doc["medium"], "beta": -1}},
            "scene-scattering-source": {**doc, "scattering": {"source": "bogus"}},
            "scene-string-rows": {**doc, "camera": {**doc["camera"], "rows": "8"}},
            "scene-string-peak": {**doc, "scattering": {**doc["scattering"],
                                                        "amplitude_falloff": "1"}},
            "scene-int-grid": {**doc, "depth_map": 5},
            "scene-int-measured-grid": {**doc, "scattering": {
                "source": "measured-image", "amplitude": 5, "phase": "labels.tofgrid"}},
            "scene-depth-as-labels": {**doc, "labels_map": "depth_gt.tofgrid"},
            "scene-labels-as-reflectance": {**doc, "reflectance_map": "labels.tofgrid"},
            "scene-labels-shape": {**doc, "labels_map": "labels_5x7.tofgrid"},
        }[case]
        write_grid(scene_path.parent / "labels_5x7.tofgrid", np.ones((5, 7)), "label")
        scene_path.write_text(json.dumps(doc))
        return ["synth", str(scene_path), "--out", str(tmp_path / "capture")]
    capture, est = tmp_path / "capture", tmp_path / "est"
    assert main(["synth", str(scene_path), "--out", str(capture)]) == 0
    if case.startswith("defog-"):
        amp, phase = capture / "foggy_amplitude.tofgrid", capture / "foggy_phase.tofgrid"
        amp, phase = {"defog-phase-as-amp": (phase, phase), "defog-amp-as-phase": (amp, amp)}[case]
        return ["defog", "--amp", str(amp), "--phase", str(phase), "--out", str(tmp_path / "d")]
    est.mkdir()
    write_grid(est / "depth_masked.tofgrid", read_grid(capture / "depth_gt.tofgrid").values,
               "depth")
    write_grid(est / "mask_fused.tofgrid", read_grid(capture / "mask_gt.tofgrid").values,
               "label")
    labels = capture / "labels.tofgrid"
    header = {"magic": "TOFGRID", "version": 1, "rows": 8, "cols": 8, "dtype": "f32",
              "units": "id", "domain": "label"}
    if case == "header-no-units":
        del header["units"]
    elif case == "header-bool-rows":
        header["rows"] = True  # a payload of one row fits it
    if case.startswith("header-"):
        labels.write_bytes(json.dumps(header).encode() + b"\x00" + bytes(header["rows"] * 8 * 4))
    wrong = {"eval-depth-labels": (labels, "depth"),
             "eval-amplitude-depth": (est / "depth_masked.tofgrid", "amplitude"),
             "eval-amplitude-mask": (capture / "mask_gt.tofgrid", "amplitude"),
             "eval-amplitude-phase": (capture / "foggy_phase.tofgrid", "amplitude")}
    if case in wrong:
        path, domain = wrong[case]
        write_grid(path, np.ones((8, 8)), domain)
    return ["eval", "--est", str(est), "--gt", str(capture)]


# each case whose grid holds another domain than its role's, with the grid's file name
ROLE_CASES = {"scene-depth-as-labels": "depth_gt.tofgrid",
              "scene-labels-as-reflectance": "labels.tofgrid",
              "eval-depth-labels": "labels.tofgrid",
              "eval-amplitude-depth": "depth_masked.tofgrid",
              "eval-amplitude-mask": "mask_gt.tofgrid",
              "eval-amplitude-phase": "foggy_phase.tofgrid",
              "defog-phase-as-amp": "foggy_phase.tofgrid",
              "defog-amp-as-phase": "foggy_amplitude.tofgrid"}


@pytest.mark.parametrize("case, code", [
    ("scene-list", 2),
    ("scene-top-level-key", 2),
    ("scene-camera-key", 2),
    ("scene-negative-beta", 2),
    ("scene-scattering-source", 2),
    ("scene-string-rows", 2),
    ("scene-string-peak", 2),
    ("scene-int-grid", 2),
    ("scene-int-measured-grid", 2),
    ("scene-depth-as-labels", 2),
    ("scene-labels-as-reflectance", 2),
    ("scene-labels-shape", 2),
    ("header-no-units", 4),
    ("header-bool-rows", 4),
    ("eval-depth-labels", 2),
    ("eval-amplitude-depth", 2),
    ("eval-amplitude-mask", 2),
    ("eval-amplitude-phase", 2),
    ("defog-phase-as-amp", 2),
    ("defog-amp-as-phase", 2),
])
def test_malformed_input_is_one_json_error(tmp_path, capsys, case, code):
    argv = write_malformed_input(tmp_path, case)
    capsys.readouterr()
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["exit_code"] == code
    assert not (tmp_path / "est" / "report.json").exists()
    if case.startswith("scene-"):
        assert err["message"].startswith(f"{argv[1]}: ")
    if case in ROLE_CASES:  # a grid read for a role it does not fit, named by its path
        assert err["error"] == "InputError"
        name = re.escape(ROLE_CASES[case])
        assert re.search(rf"/{name}: expected an? \w+ grid, got \w+$", err["message"])


def readme_walkthrough_commands():
    """Each `tofdefog ...` command line in README's CLI walkthrough, as its argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    # [...] marks optional flags
    return [[token.strip("[]") for token in shlex.split(line)[1:]]
            for line in walkthrough.replace("\\\n", " ").splitlines()
            if line.startswith("tofdefog ")]


def test_readme_walkthrough_commands_parse():
    commands = readme_walkthrough_commands()
    assert {argv[0] for argv in commands} == {"synth", "defog", "replay", "eval", "simrange"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_only_flags_the_cli_has():
    # in prose too, so that a removed flag cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    assert "--amp-config" in named and "--gaussian-sigma" in named
    assert named - flags == {"--ignore"}  # pytest's, in the install section
