"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The end-to-end criteria work at the full 424x512 sensor
size and take about 8 s total on 2 cores.
"""

import json
import time

import numpy as np
import pytest
from conftest import criterion_2, make_scene, quadratic_symmetric_image, small_config
from scipy.integrate import quad

import tofdefog as td
from tofdefog.cli import main as cli_main
from tofdefog.irls import mad_scale, run_coarse, run_fine, solve_wls, tukey_weight
from tofdefog.pipeline import save_scene
from tofdefog.priors import FlipOperator
from test_irls import dense_system

KINECT = td.CameraModel(16e6)
FOG_MEDIUM = td.MediumParams(beta=3.2e-4, g=0.9, z0=10.0, z_saturate=1000.0)


def _report(line):
    print(f"\n{line}")


def test_criterion_1_saturation_and_range():
    """Backscatter saturation curves reproduce the published ratios in <5 s."""
    t0 = time.monotonic()
    sw = td.sweep(FOG_MEDIUM, KINECT, reflectance=1.0)
    elapsed = time.monotonic() - t0

    alpha = dict(zip(sw.z_mm, sw.alpha_s))
    phi = dict(zip(sw.z_mm, sw.phi_s))
    amp_err = 1.0 - alpha[1000.0] / alpha[8000.0]
    phase_err = 1.0 - phi[1000.0] / phi[8000.0]

    assert amp_err < 0.01, f"amplitude saturation error {amp_err:.4f}"
    assert 0.05 <= phase_err <= 0.07, f"phase saturation error {phase_err:.4f}"
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    _report(
        "ACCEPTANCE 1 saturation/range: PASS "
        f"(amp err {amp_err:.4%}, phase err {phase_err:.2%}, {elapsed:.2f}s)"
    )


def test_criterion_2_end_to_end_synthetic_defog():
    """Five full-size scenes: <50 mm error, 5x improvement, IoU >= 0.8."""
    betas = [1.6e-4, 3.2e-4, 4.8e-4, 1.6e-4, 3.2e-4]
    amp_cfg = td.SolverConfig.profile("amplitude-kinect16")
    phase_cfg = td.SolverConfig.profile("phase-kinect16")
    lines = []
    for seed, beta in enumerate(betas):
        scene = make_scene(beta=beta, seed=seed)
        syn = td.synthesize(scene)

        t0 = time.monotonic()
        res = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg)
        elapsed = time.monotonic() - t0

        raw_err, defog_err, iou, coverage = criterion_2(f"scene {seed}", scene, syn, res)
        assert coverage > 0.99, f"scene {seed}: direct valid on {coverage:.3f}"
        assert elapsed < 120.0, f"scene {seed}: defog took {elapsed:.0f}s"
        lines.append(
            f"scene {seed} (beta={beta:.1e}): raw {raw_err:.1f} mm -> "
            f"{defog_err:.2f} mm, IoU {iou:.3f}, {elapsed:.0f}s"
        )
    _report("ACCEPTANCE 2 end-to-end defog: PASS\n  " + "\n  ".join(lines))


def test_criterion_3_irls_small_instance_oracle():
    """x-steps match dense solves to 1e-8; objective never increases."""
    flip = FlipOperator(flip_row=8, excluded_bottom_rows=2)

    # (i) dense linear-algebra oracle through a full IRLS alternation
    worst_rel = 0.0
    for profile in ("amplitude-kinect16", "phase-kinect16"):
        cfg = small_config(profile, rows=16, flip=flip, linear_solver_tol=1e-12)
        rng = np.random.default_rng(42)
        x_tilde = quadratic_symmetric_image(16, 16, 8) + rng.normal(0, 0.05, (16, 16))
        x_tilde[4:8, 5:10] += 5.0
        grid = cfg.grid_for((16, 16))
        lap, sym = dense_system((16, 16), cfg)
        n = 256

        coeffs = grid.fit_all(x_tilde)
        w = np.ones((16, 16))
        x = x_tilde.copy()
        sigma = None
        for _ in range(5):
            x = solve_wls(x_tilde, w, coeffs, cfg, x0=x)
            q = grid.surface_image(coeffs)
            a_mat = (np.diag(w.ravel()) + cfg.gamma1 * np.eye(n)
                     + cfg.gamma2 * sym + cfg.gamma3 * lap)
            b = (w * x_tilde).ravel() + cfg.gamma1 * q.ravel()
            x_dense = np.linalg.solve(a_mat, b).reshape(16, 16)
            rel = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-8, f"x-step vs dense solve: {rel:.2e}"
            coeffs = grid.fit_all(x, weights=w + 1e-9)
            r = x - x_tilde
            if sigma is None:
                sigma = mad_scale(r.ravel(), floor=1e-6 * np.abs(x_tilde).max())
            w = tukey_weight(r / sigma, cfg.c_fine)

    # (ii) true-objective monotonicity over 20 random seeds at defaults
    worst_increase = -np.inf
    cfg = small_config("amplitude-kinect16", rows=16, flip=flip)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x_tilde = quadratic_symmetric_image(16, 16, 8) + rng.normal(0, 0.05, (16, 16))
        r0 = rng.integers(2, 8)
        c0 = rng.integers(2, 10)
        x_tilde[r0:r0 + 5, c0:c0 + 5] += rng.uniform(2.0, 8.0)
        coarse = run_coarse(x_tilde, cfg)
        fine = run_fine(x_tilde, coarse, cfg)
        for hist in (coarse.objective_history, fine.objective_history):
            if len(hist) > 1:
                worst_increase = max(worst_increase, float(np.max(np.diff(hist))))
    assert worst_increase <= 1e-6, f"objective increased by {worst_increase:.2e}"
    _report(
        "ACCEPTANCE 3 IRLS oracle: PASS "
        f"(worst x-step error {worst_rel:.2e}, worst objective step "
        f"{worst_increase:+.2e})"
    )


def test_criterion_4_closed_form_identities():
    """Tukey, MAD, HG normalization, conversion and phasor round trips."""
    assert td.tukey_rho(0.0, 4.0) == 0.0
    assert td.tukey_rho(4.0, 4.0) == pytest.approx(16.0 / 6.0, rel=1e-12)
    assert td.tukey_rho(2.0, 4.0) == pytest.approx(1.5416666666666667, rel=1e-12)
    assert td.tukey_weight(0.0, 4.0) == 1.0
    assert td.tukey_weight(5.0, 4.0) == 0.0
    assert td.tukey_weight(2.0, 4.0) == pytest.approx(0.5625, rel=1e-12)

    assert mad_scale([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5 / 0.6745, rel=1e-12)
    rng = np.random.default_rng(0)
    assert mad_scale(rng.normal(0, 1, 100000)) == pytest.approx(1.0, abs=0.02)

    for g in (0.0, 0.5, 0.9):
        integral, _ = quad(
            lambda th: 2 * np.pi * np.sin(th) * td.hg_phase(th, g), 0, np.pi,
            limit=200,
        )
        assert integral == pytest.approx(1.0, abs=1e-4)

    depths = rng.uniform(1.0, KINECT.unambiguous_range_mm * 0.999, 1000)
    back = td.phase_to_depth(td.depth_to_phase(depths, KINECT), KINECT)
    assert np.max(np.abs(back - depths) / depths) < 1e-9

    a = td.PhasorImage(rng.uniform(0.5, 2, (16, 16)),
                       rng.uniform(0, 2 * np.pi, (16, 16)))
    b = td.PhasorImage(rng.uniform(0.1, 0.4, (16, 16)),
                       rng.uniform(0, 2 * np.pi, (16, 16)))
    round_trip = td.phasor_subtract(td.phasor_add(a, b), b)
    assert np.max(np.abs(round_trip.amplitude - a.amplitude) / a.amplitude) < 1e-9

    scat_amp = rng.uniform(0.1, 0.5, (16, 16))
    scat_phase = rng.uniform(0.0, 0.5, (16, 16))
    direct = rng.uniform(0.5, 2, (16, 16)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (16, 16))
    )
    obs = td.PhasorImage.from_complex(direct + scat_amp * np.exp(1j * scat_phase))
    rec = td.recover_direct(obs, scat_amp, scat_phase)
    assert np.max(np.abs(rec.amplitude - np.abs(direct)) / np.abs(direct)) < 1e-9
    _report("ACCEPTANCE 4 closed-form identities: PASS")


def test_criterion_5_beta_calibration():
    """Planted scattering coefficient recovered within 2% under 1% noise."""
    rng = np.random.default_rng(7)
    beta = 3.2e-4
    d = rng.uniform(800.0, 2500.0, 100)
    clean = rng.uniform(0.5, 2.0, 100)
    foggy = clean * np.exp(-2.0 * beta * d) * (1.0 + rng.normal(0.0, 0.01, 100))
    est = td.estimate_beta(td.CalibrationSet(clean, foggy, d))
    rel = abs(est - beta) / beta
    assert rel < 0.02, f"beta error {rel:.4f}"
    _report(f"ACCEPTANCE 5 beta calibration: PASS (recovered {est:.4e}, "
            f"error {rel:.2%})")


def test_criterion_6_all_background_sentinel():
    """A pure-fog scene must yield an empty mask and the true field."""
    rows, cols = 424, 512
    cam = td.CameraModel(16e6, rows=rows, cols=cols)
    scene = td.SceneSpec(
        depth_map=np.full((rows, cols), np.inf),
        reflectance_map=np.zeros((rows, cols)),
        cam=cam,
        medium=FOG_MEDIUM,
        scattering=td.ScatterProfile(flip_row=200),
    )
    syn = td.synthesize(scene)
    res = td.defog(syn.foggy, cam,
                   td.SolverConfig.profile("amplitude-kinect16"),
                   td.SolverConfig.profile("phase-kinect16"))
    flagged = res.fused_mask.count() / (rows * cols)
    assert flagged < 0.005, f"{flagged:.4%} of pixels flagged as object"
    rms_amp = (np.linalg.norm(res.amplitude.field.values
                              - syn.scattering_amplitude.values)
               / np.linalg.norm(syn.scattering_amplitude.values))
    rms_phase = (np.linalg.norm(res.phase.field.values
                                - syn.scattering_phase.values)
                 / np.linalg.norm(syn.scattering_phase.values))
    assert rms_amp < 0.02, f"amplitude field RMS error {rms_amp:.4f}"
    assert rms_phase < 0.02, f"phase field RMS error {rms_phase:.4f}"
    _report(
        "ACCEPTANCE 6 robustness sentinel: PASS "
        f"(mask {flagged:.4%}, field RMS {rms_amp:.4%}/{rms_phase:.4%})"
    )


def test_criterion_7_cli_determinism(tmp_path):
    """Two identical cli defog runs write byte-identical grids."""
    scene = make_scene(beta=3.2e-4, seed=11)
    scene_path = tmp_path / "scene" / "scene.json"
    save_scene(scene, scene_path)
    synth_out = tmp_path / "synth"
    assert cli_main(["synth", str(scene_path), "--out", str(synth_out)]) == 0

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main([
            "defog",
            "--amp", str(synth_out / "foggy_amplitude.tofgrid"),
            "--phase", str(synth_out / "foggy_phase.tofgrid"),
            "--out", str(out),
            "--max-iters", "6",
        ])
        assert code == 0
        outs.append(out)

    grids = ("scattering_amplitude", "scattering_phase", "weights_amplitude",
             "weights_phase", "mask_fused", "depth_masked")
    for name in grids:
        a = (outs[0] / f"{name}.tofgrid").read_bytes()
        b = (outs[1] / f"{name}.tofgrid").read_bytes()
        assert a == b, f"{name} differs between identical runs"
    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    _report(f"ACCEPTANCE 7 determinism: PASS ({len(grids)} grids byte-identical)")


# (label, beta, scene seed, coverage, noise sigma); s1 and s2 are ROADMAP's noisy frames
CRITERION_8_FRAMES = [
    pytest.param("s1", 3.2e-4, 1, "medium", 1e-9, id="s1-1e-9"),
    pytest.param("s1", 3.2e-4, 1, "medium", 3e-9, id="s1-3e-9"),
    pytest.param("s2", 4.8e-4, 2, "medium", 1e-9, id="s2-1e-9"),
    pytest.param("s2", 4.8e-4, 2, "medium", 3e-9, id="s2-3e-9", marks=pytest.mark.xfail(
        strict=True, reason="reads 154.15 mm at IoU 0.837 against 630.11 mm raw: the "
                            "per-domain solve still fails here (ROADMAP item 1)")),
    *(pytest.param("single-object", 3.2e-4, seed, "small", 3e-10, id=f"single-object-{seed}")
      for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("label, beta, seed, coverage, noise", CRITERION_8_FRAMES)
def test_criterion_8_noisy_frames(label, beta, seed, coverage, noise):
    """Full-size frames with sensor noise meet criterion 2's bounds.

    Noise is additive on the phasor's real and imaginary parts
    (noise_seed 0); each frame runs with the default profiles and no
    gaussian_sigma smoothing.
    """
    scene = make_scene(beta=beta, seed=seed, coverage=coverage)
    syn = td.synthesize(scene, noise_sigma=noise, noise_seed=0)
    res = td.defog(syn.foggy, scene.cam, td.SolverConfig.profile("amplitude-kinect16"),
                   td.SolverConfig.profile("phase-kinect16"))

    name = f"{label} seed {seed}, noise {noise:.0e}"
    raw_err, defog_err, iou, valid_share = criterion_2(name, scene, syn, res)
    assert valid_share > 0.99, f"{name}: direct valid on {valid_share:.3f}"
    _report(f"ACCEPTANCE 8 noisy frame: PASS ({name}: raw {raw_err:.1f} mm -> "
            f"{defog_err:.2f} mm, IoU {iou:.3f})")
