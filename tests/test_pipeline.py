import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import apply_system, criterion_2, make_scene, same_bits, small_config

import tofdefog as td
from tofdefog import irls, pipeline
from tofdefog.cli import main
from tofdefog.gridfile import write_grid
from tofdefog.pipeline import file_sha256, load_scene, save_scene, thread_count
from tofdefog.priors import FlipOperator

# both Kinect profiles, mirrored about row 45 of a 96x128 frame
KINECT_96X128 = [dataclasses.replace(td.SolverConfig.profile(f"{domain}-kinect16"),
                                     flip=FlipOperator(45, 5))
                 for domain in ("amplitude", "phase")]


def test_scene_round_trip(tmp_path):
    scene = make_scene(beta=3.2e-4, seed=1, rows=48, cols=48, flip_row=24,
                       coverage="small")
    scene.cam = td.CameraModel(20e6, rows=48, cols=48)
    scene.scattering = td.ScatterProfile(flip_row=24, amplitude_falloff=0.2)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.cam == scene.cam
    assert back.medium == scene.medium
    assert back.scattering == scene.scattering
    assert np.array_equal(np.isfinite(back.depth_map), np.isfinite(scene.depth_map))
    valid = np.isfinite(scene.depth_map)
    assert np.allclose(back.depth_map[valid], scene.depth_map[valid], rtol=1e-6)
    assert np.array_equal(back.labels, scene.labels)
    assert isinstance(back.scattering, td.ScatterProfile)
    assert back.scattering.flip_row == 24


def measured_scene():
    """A 24x32 scene whose scattering is given as grids, float32-exact."""
    scene = make_scene(beta=3.2e-4, seed=4, rows=24, cols=32, flip_row=12,
                       coverage="small")
    rng = np.random.default_rng(4)
    amp, phase = (rng.uniform(lo, hi, (24, 32)).astype(np.float32).astype(np.float64)
                  for lo, hi in ((1e-7, 2e-7), (0.02, 0.04)))
    scene.scattering = td.MeasuredScattering(amplitude=amp, phase=phase)
    scene.labels = None
    return scene


def test_measured_scene_round_trip(tmp_path):
    scene = measured_scene()
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert isinstance(back.scattering, td.MeasuredScattering)
    assert np.array_equal(back.scattering.amplitude, scene.scattering.amplitude)
    assert np.array_equal(back.scattering.phase, scene.scattering.phase)
    assert back.labels is None
    assert sorted(os.path.basename(p) for p in back.sources) == [
        "depth_gt.tofgrid", "reflectance.tofgrid", "scattering_amp_in.tofgrid",
        "scattering_phase_in.tofgrid", "scene.json"]
    assert back.sources == {p: file_sha256(p) for p in back.sources}
    syn = td.synthesize(back)
    assert np.allclose(syn.scattering_amplitude.values, scene.scattering.amplitude)


def test_synth_manifest_lists_measured_scattering_inputs(tmp_path):
    path = tmp_path / "scene" / "scene.json"
    save_scene(measured_scene(), path)
    out = tmp_path / "synth"
    assert main(["synth", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        str(path.parent / name): file_sha256(path.parent / name) for name in (
            "scene.json", "depth_gt.tofgrid", "reflectance.tofgrid",
            "scattering_amp_in.tofgrid", "scattering_phase_in.tofgrid")}
    # each output's digest, taken from the bytes as written, is the file's
    outputs = manifest["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.glob("*.tofgrid"))
    assert outputs == {name: file_sha256(out / name) for name in outputs}


def test_a_measured_phase_from_np_angle_saves_and_synthesizes_as_its_wrapped_angle(tmp_path):
    # np.angle gives (-pi, pi]: 0.05 rad below the profile's phase, every pixel lies below 0
    base = make_scene(beta=3.2e-4, seed=4, rows=24, cols=32, flip_row=12, coverage="small")
    amp, phase = base.scattering.fields((24, 32), base.medium, base.cam)
    given = np.angle(np.exp(1j * (np.broadcast_to(phase, (24, 32)) - 0.05)))
    assert given.max() < 0
    scene = dataclasses.replace(base, scattering=td.MeasuredScattering(amp, given))
    path = tmp_path / "scene" / "scene.json"
    save_scene(scene, path)
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "depth_gt.tofgrid", "labels.tofgrid", "reflectance.tofgrid",
        "scattering_amp_in.tofgrid", "scattering_phase_in.tofgrid", "scene.json"]
    back = load_scene(path)
    assert same_bits(back.scattering.phase,
                     td.wrap_phase(given).astype(np.float32).astype(np.float64))
    assert main(["synth", str(path), "--out", str(tmp_path / "synth")]) == 0
    wrapped = dataclasses.replace(base, scattering=td.MeasuredScattering(amp, td.wrap_phase(given)))
    got, want = td.synthesize(scene), td.synthesize(wrapped)
    assert same_bits(got.foggy.amplitude, want.foggy.amplitude)
    assert same_bits(got.foggy.phase, want.foggy.phase)
    assert same_bits(got.scattering_amplitude.values, want.scattering_amplitude.values)
    assert same_bits(got.scattering_phase.values, want.scattering_phase.values)


@pytest.mark.parametrize("amp_shape, phase_shape, message", [
    ((24, 32), (24, 31), "{path}: amplitude shape (24, 32) != phase shape (24, 31)"),
    ((10, 10), (10, 10), "measured scattering field shape mismatch: (10, 10) for a (24, 32) scene"),
], ids=["two-sizes", "not-the-cameras"])
def test_synth_of_measured_grids_of_another_shape_exit_code(tmp_path, capsys, amp_shape,
                                                            phase_shape, message):
    # a pair of two sizes fails as the scene loads, naming it; a pair of one
    # size that is not the camera's, as the scene is synthesized
    path = tmp_path / "scene" / "scene.json"
    save_scene(measured_scene(), path)
    write_grid(path.parent / "scattering_amp_in.tofgrid", np.full(amp_shape, 1e-7), "amplitude")
    write_grid(path.parent / "scattering_phase_in.tofgrid", np.full(phase_shape, 0.03), "phase")
    out = tmp_path / "synth"
    assert main(["synth", str(path), "--out", str(out), "--json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == message.format(path=path)
    assert not out.exists()


def test_defog_thread_count_does_not_change_results(tmp_path):
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=48, patch_grid=(2, 2))
    phase_cfg = small_config("phase-kinect16", rows=48, patch_grid=(2, 2))
    serial = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    threaded = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=2)
    assert np.array_equal(serial.scattering.amplitude, threaded.scattering.amplitude)
    assert np.array_equal(serial.scattering.phase, threaded.scattering.phase)
    assert np.array_equal(serial.fused_mask.mask, threaded.fused_mask.mask)


def test_a_serial_defog_solves_both_domains_on_the_calling_thread(monkeypatch):
    # threads=1 starts no thread, so a profiler of the caller sees the solve
    solve, callers = pipeline.estimate_scattering, []

    def recorded(*args):
        callers.append(threading.get_ident())
        return solve(*args)

    monkeypatch.setattr(pipeline, "estimate_scattering", recorded)
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=48, flip_row=24,
                       coverage="small")
    cfgs = [small_config(f"{domain}-kinect16", rows=48, patch_grid=(2, 2))
            for domain in ("amplitude", "phase")]
    td.defog(td.synthesize(scene).foggy, scene.cam, *cfgs, threads=1)
    assert callers == [threading.get_ident()] * 2


def test_an_odd_sized_frame_defogs_alike_on_one_and_two_threads():
    # the half grid drops the trailing row and column; the outputs keep
    # the frame's size
    scene = make_scene(beta=3.2e-4, seed=2, rows=49, cols=67, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=49, patch_grid=(2, 2))
    phase_cfg = small_config("phase-kinect16", rows=49, patch_grid=(2, 2))
    serial = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    threaded = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=2)
    assert serial.amplitude.coarse.x.shape == (24, 33)
    for name in ("amplitude", "phase"):
        one, two = getattr(serial, name), getattr(threaded, name)
        assert getattr(serial.scattering, name).shape == (49, 67)
        assert np.array_equal(getattr(serial.scattering, name), getattr(threaded.scattering, name))
        assert one.weights.shape == (49, 67)
        assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(serial.fused_mask.mask, threaded.fused_mask.mask)
    assert np.array_equal(serial.depth.depth, threaded.depth.depth, equal_nan=True)
    assert serial.solver_summary() == threaded.solver_summary()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rows, cols", [(48, 64), (72, 96)], ids=["48x64", "72x96"])
def test_a_column_mirrored_frame_defogs_to_the_mirrored_result(rows, cols, seed):
    # nothing in the model tells left from right: the flip is over rows and
    # the priors are symmetric in the columns.  The width is even and its
    # half splits evenly into the patch columns, so the half grid and the
    # patches mirror onto themselves.  An odd width does not commute: the
    # half grid drops the last column, which the mirror moves to the first.
    scene = make_scene(beta=3.2e-4, seed=seed, rows=rows, cols=cols, flip_row=rows // 2,
                       coverage="small")
    obs = td.synthesize(scene).foggy
    amp_cfg = small_config("amplitude-kinect16", rows=rows, patch_grid=(2, 2))
    phase_cfg = small_config("phase-kinect16", rows=rows, patch_grid=(2, 2))
    res = td.defog(obs, scene.cam, amp_cfg, phase_cfg, threads=1)
    mirrored = td.defog(td.PhasorImage(obs.amplitude[:, ::-1], obs.phase[:, ::-1]),
                        scene.cam, amp_cfg, phase_cfg, threads=1)
    assert np.array_equal(mirrored.fused_mask.mask[:, ::-1], res.fused_mask.mask)
    for name in ("amplitude", "phase"):
        want, got = getattr(res.scattering, name), getattr(mirrored.scattering, name)[:, ::-1]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    depth, mirrored_depth = res.depth.depth, mirrored.depth.depth[:, ::-1]
    has_depth = np.isfinite(depth)
    assert has_depth.any()
    assert np.array_equal(np.isfinite(mirrored_depth), has_depth)
    assert np.max(np.abs(mirrored_depth[has_depth] - depth[has_depth])) <= 1e-9
    levels, mirrored_levels = res.solver_summary(), mirrored.solver_summary()
    for key, level in levels.items():
        assert mirrored_levels[key]["outer_iterations"] == level["outer_iterations"]
        assert mirrored_levels[key]["cg_iterations"] == level["cg_iterations"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float32_rounded_input_gives_the_same_mask_and_cg_counts(seed):
    # a TOFGRID stores float32, so the CLI solves float32-rounded grids: on a
    # frame whose levels all converge, that rounding moves no mask pixel and
    # no x-step's CG count, and sigma only by about the rounding
    scene = make_scene(3.2e-4, seed, rows=96, cols=128, flip_row=45)
    obs = td.synthesize(scene).foggy
    rounded = td.PhasorImage(obs.amplitude.astype(np.float32), obs.phase.astype(np.float32))
    want = td.defog(obs, scene.cam, *KINECT_96X128, threads=1)
    got = td.defog(rounded, scene.cam, *KINECT_96X128, threads=1)
    assert np.array_equal(got.fused_mask.mask, want.fused_mask.mask)
    assert want.fused_mask.mask.any()
    got_levels = got.solver_summary()
    for key, level in want.solver_summary().items():
        assert level["converged"] and got_levels[key]["converged"], key
        assert got_levels[key]["cg_iterations"] == level["cg_iterations"], key
        assert got_levels[key]["sigma"] == pytest.approx(level["sigma"], rel=1e-6), key


@pytest.fixture(scope="module")
def seed_1_frame_96x128():
    scene = make_scene(3.2e-4, 1, rows=96, cols=128, flip_row=45)
    obs = td.synthesize(scene).foggy
    return scene, obs, td.defog(obs, scene.cam, *KINECT_96X128, threads=1)


@pytest.mark.parametrize("k", [
    *(pytest.param(k, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        f"ROADMAP item 17: core.AMPLITUDE_EPSILON is absolute, so the direct phasor of the "
        f"frame scaled by {k:g} is invalid on {lost} of the 1,656 mask pixels")))
      for k, lost in ((1e-6, "all"), (1e-3, "all"), (1e-2, "391"))),
    1e3, 1e6])
def test_a_frame_in_other_amplitude_units_gives_the_same_mask_and_depth(seed_1_frame_96x128, k):
    # the solve has no unit of amplitude: the frame's amplitude times k
    # gives the same object region and, from the same phases, the same depth
    scene, obs, want = seed_1_frame_96x128
    got = td.defog(td.PhasorImage(obs.amplitude * k, obs.phase), scene.cam, *KINECT_96X128,
                   threads=1)
    mask = want.fused_mask.mask
    assert np.array_equal(got.fused_mask.mask, mask)
    depth, want_depth = got.depth.depth[mask], want.depth.depth[mask]
    assert np.isfinite(want_depth).all() and np.isfinite(depth).all()
    assert np.max(np.abs(depth - want_depth)) <= 1e-6


@pytest.mark.parametrize("noise", [1e-9, 3e-9])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_noisy_frame_whose_scattering_phase_sits_on_the_wrap_passes_criterion_2(seed, noise):
    # the scattering phase is about 0.03 rad, so noise carries background
    # pixels across the wrap to nearly 2*pi; solved on [0, 2*pi), those read
    # as outliers and the phase mask misses the objects
    scene = make_scene(3.2e-4, seed, rows=96, cols=128, flip_row=45)
    syn = td.synthesize(scene, noise_sigma=noise, noise_seed=0)
    res = td.defog(syn.foggy, scene.cam, *KINECT_96X128, threads=1)
    criterion_2(f"seed {seed}, noise {noise:.0e}", scene, syn, res)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a threaded BLAS needs two cores")
def test_defog_blas_thread_count_does_not_change_results(tmp_path):
    # 128x192 with a (1, 2) patch grid: both the image (24,576 px) and each
    # patch (12,288 px) exceed the ~10,000 elements above which OpenBLAS
    # threads a dot product.  Whether a threaded sum rounds differently
    # depends on the values; on this frame BLAS sums change the results
    # through the CG loop and through the patch norms alone.  The thread
    # count is read when numpy loads, so each run is its own interpreter.
    rows, cols = 128, 192
    scene_path = tmp_path / "scene.json"
    save_scene(make_scene(beta=3.2e-4, seed=2, rows=rows, cols=cols,
                          flip_row=rows // 2, coverage="small"), scene_path)
    synth = tmp_path / "synth"
    assert main(["synth", str(scene_path), "--out", str(synth)]) == 0
    # laid over each domain's own profile
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "patch_grid": [1, 2],
        "flip": {"flip_row": rows // 2, "excluded_bottom_rows": rows // 8},
    }))
    src = os.path.dirname(os.path.dirname(td.__file__))
    manifests = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "tofdefog.cli", "defog",
             "--amp", str(synth / "foggy_amplitude.tofgrid"),
             "--phase", str(synth / "foggy_phase.tofgrid"),
             "--out", str(out), "--threads", "1",
             "--amp-config", str(config), "--phase-config", str(config)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        manifests.append(json.loads((out / "manifest.json").read_text()))
    one, two = manifests
    assert one["outputs"] == two["outputs"]
    # float64 sigma and objective histories, not just the float32 grids
    assert one["solver"] == two["solver"]


def test_defog_result_summary_and_masks(tmp_path, monkeypatch):
    scene = make_scene(beta=3.2e-4, seed=3, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=48, patch_grid=(2, 2))
    phase_cfg = small_config("phase-kinect16", rows=48, patch_grid=(2, 2))
    # record each x-step's start and final residual, relative to ||b||
    steps = []
    solve = irls._solve_system

    def recording_solve(ws, w, b, x0, forcing=0.0):
        out = solve(ws, w, b, x0, forcing)
        b_norm = np.linalg.norm(b)
        steps.append((np.linalg.norm(b - apply_system(ws, w, x0)) / b_norm,
                      np.linalg.norm(b - apply_system(ws, w, out[0])) / b_norm,
                      ws.cfg.linear_solver_tol))
        return out

    monkeypatch.setattr(irls, "_solve_system", recording_solve)
    res = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    summary = res.solver_summary()
    assert set(summary) == {"amplitude_coarse", "amplitude_fine",
                            "phase_coarse", "phase_fine"}
    assert all(s["outer_iterations"] >= 1 for s in summary.values())
    assert all(s["converged"] for s in summary.values())
    # one final CG residual per x-step, within the exact or inexact stop
    assert all(len(s["cg_residuals"]) == s["outer_iterations"] for s in summary.values())
    reported = [r for s in summary.values() for r in s["cg_residuals"]]
    assert len(reported) == len(steps)
    for r, (start, final, tol) in zip(reported, steps):
        assert r == pytest.approx(final, rel=1e-6)
        assert r <= max(tol, 0.1 * start)
    assert np.array_equal(
        res.fused_mask.mask, res.amplitude.mask.mask & res.phase.mask.mask
    )
    # masked depth: defined only inside the fused mask
    assert not res.depth.valid[~res.fused_mask.mask].any()


def test_defog_clamps_the_amplitude_field_and_not_the_phase(monkeypatch):
    # each domain's final estimate is shifted to dip below zero: an
    # amplitude is non-negative, so the amplitude field is clamped, and a
    # phase is an angle, so the phase field is wrapped to [0, 2*pi)
    scene = make_scene(beta=3.2e-4, seed=3, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    run_fine = irls.run_fine

    def shifted_run_fine(x_tilde, init, cfg):
        state = run_fine(x_tilde, init, cfg)
        state.x = state.x - np.median(state.x)
        return state

    monkeypatch.setattr(irls, "run_fine", shifted_run_fine)
    res = td.defog(syn.foggy, scene.cam, small_config("amplitude-kinect16", rows=48),
                   small_config("phase-kinect16", rows=48), threads=1)
    # each field is the half-grid fine x copied over its 2x2 blocks
    amp, phase = (irls._block_copy(d.fine.x, (48, 48)) for d in (res.amplitude, res.phase))
    assert amp.min() < 0 and phase.min() < 0
    assert np.array_equal(res.scattering.amplitude, np.maximum(amp, 0.0))
    assert np.array_equal(res.scattering.phase, td.wrap_phase(phase))


@pytest.mark.parametrize("noise", [0.0, 3e-9])
def test_every_grid_of_a_defog_result_is_a_valid_grid_of_its_domain(tmp_path, noise):
    # the scattering phase sits 0.0265 rad lower than make_scene's, just above
    # the wrap, so the phase solve's field, shifted back by half a turn, dips
    # below 0 on background pixels; returned, it is in [0, 2*pi) as written
    base = make_scene(3.2e-4, seed=1, rows=96, cols=128, flip_row=45)
    amp, phase = base.scattering.fields((96, 128), base.medium, base.cam)
    scene = dataclasses.replace(base, scattering=td.MeasuredScattering(
        amp, np.mod(np.broadcast_to(phase, (96, 128)) - 0.0265, 2 * np.pi)))
    syn = td.synthesize(scene, noise, noise_seed=0)
    res = td.defog(syn.foggy, scene.cam, *KINECT_96X128, threads=1)
    grids = [(res.scattering.amplitude, "amplitude"), (res.scattering.phase, "phase"),
             (res.amplitude.weights, "weight"), (res.phase.weights, "weight"),
             (res.fused_mask.mask, "label"), (res.depth.depth, "depth"),
             (res.direct.amplitude, "amplitude"), (res.direct.phase, "phase")]
    for i, (values, domain) in enumerate(grids):
        write_grid(tmp_path / f"{i}.tofgrid", values, domain)


@pytest.mark.parametrize("noise", [0.0, 3e-9])
def test_the_direct_component_is_the_frame_minus_the_returned_scattering_phasor(noise):
    # on the frame above, whose phase field dips below 0: the scattering
    # estimate is one phasor, wrapped once, and recover_direct reads it as returned
    base = make_scene(3.2e-4, seed=1, rows=96, cols=128, flip_row=45)
    amp, phase = base.scattering.fields((96, 128), base.medium, base.cam)
    scene = dataclasses.replace(base, scattering=td.MeasuredScattering(
        amp, np.mod(np.broadcast_to(phase, (96, 128)) - 0.0265, 2 * np.pi)))
    obs = td.synthesize(scene, noise, noise_seed=0).foggy
    res = td.defog(obs, scene.cam, *KINECT_96X128, threads=1)
    assert 0.0 <= res.scattering.phase.min() and res.scattering.phase.max() < 2 * np.pi
    want = td.phasor_subtract(obs, res.scattering)
    assert same_bits(res.direct.amplitude, want.amplitude)
    assert same_bits(res.direct.phase, want.phase)


def test_solver_summary_flags_levels_stopped_by_the_cap():
    scene = make_scene(beta=3.2e-4, seed=3, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=48, patch_grid=(2, 2),
                           max_outer_iters=1)
    phase_cfg = small_config("phase-kinect16", rows=48, patch_grid=(2, 2),
                             max_outer_iters=1)
    res = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    summary = res.solver_summary()
    assert all(s["outer_iterations"] == 1 for s in summary.values())
    assert not any(s["converged"] for s in summary.values())


def test_solver_summary_entries_are_the_level_records():
    # each entry is its IrlsState minus the arrays and the level name, plus
    # outer_iterations and shape: a field added to IrlsState reaches the manifest
    record = ({f.name for f in dataclasses.fields(irls.IrlsState)}
              - {"x", "a", "w", "level"} | {"outer_iterations"})
    assert record == {"objective_history", "cg_iterations", "cg_residuals", "sigma",
                      "converged", "outer_iterations"}
    scene = make_scene(beta=3.2e-4, seed=3, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=48, max_outer_iters=2)
    phase_cfg = small_config("phase-kinect16", rows=48, max_outer_iters=2)
    res = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    summary = res.solver_summary()
    assert list(summary) == ["amplitude_coarse", "amplitude_fine", "phase_coarse", "phase_fine"]
    for name, entry in summary.items():
        domain, level = name.split("_")
        state = getattr(getattr(res, domain), level)
        assert state.level == level
        assert entry == {**{key: getattr(state, key) for key in record},
                         "shape": list(state.x.shape)}


def test_defog_refuses_a_thread_count_below_one():
    obs = td.PhasorImage(np.ones((16, 16)), np.full((16, 16), 0.1))
    cfg = small_config(max_outer_iters=2)
    with pytest.raises(ValueError, match="thread count"):
        td.defog(obs, td.CameraModel(16e6, 16, 16), cfg, cfg, threads=0)


@pytest.mark.parametrize("value", [2.7, 2.0, True, None],
                         ids=["float", "integral-float", "bool", "none"])
def test_thread_count_requires_an_int(value):
    with pytest.raises(ValueError, match="thread count"):
        thread_count(value)
