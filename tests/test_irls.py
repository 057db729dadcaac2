import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import apply_system, make_scene, quadratic_symmetric_image, same_bits, small_config

import tofdefog as td
from tofdefog import irls
from tofdefog.core import TWO_PI
from tofdefog.irls import (
    FORCING,
    PROFILES,
    IrlsState,
    SolverConfig,
    _DctSolve,
    _scale_floor,
    _solve_system,
    _Workspace,
    _block_copy,
    _x_step,
    binarize_weights,
    estimate_scattering,
    half_grid_config,
    mad_scale,
    run_coarse,
    run_fine,
    solve_wls,
    tukey_rho,
    tukey_weight,
)
from tofdefog.priors import FlipOperator


# -- Tukey loss and weights ----------------------------------------------------

def test_tukey_rho_values():
    assert tukey_rho(0.0, 4.0) == 0.0
    assert tukey_rho(4.0, 4.0) == pytest.approx(16.0 / 6.0)
    assert tukey_rho(-9.0, 4.0) == pytest.approx(16.0 / 6.0)  # flat beyond c
    # r=c/2, c=4: (16/6) * (1 - (1 - 0.25)^3) = 2.6667 * 0.578125
    assert tukey_rho(2.0, 4.0) == pytest.approx(1.5416666666666667, rel=1e-12)


def test_tukey_rho_monotone():
    r = np.linspace(0, 10, 400)
    assert np.all(np.diff(tukey_rho(r, 3.0)) >= 0)


def test_tukey_weight_values():
    assert tukey_weight(0.0, 4.0) == 1.0
    assert tukey_weight(4.0, 4.0) == 0.0
    assert tukey_weight(-17.0, 4.0) == 0.0
    assert tukey_weight(2.0, 4.0) == pytest.approx(0.5625, rel=1e-12)


def test_tukey_weight_range_and_continuity():
    r = np.linspace(-8, 8, 1000)
    w = tukey_weight(r, 3.0)
    assert np.all((w >= 0) & (w <= 1))
    assert tukey_weight(3.0 - 1e-9, 3.0) < 1e-15  # continuous at the cutoff


def test_mad_scale_values():
    assert mad_scale([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5 / 0.6745, rel=1e-12)
    assert mad_scale(np.zeros(10), floor=0.125) == 0.125


def test_mad_scale_normal_consistency():
    rng = np.random.default_rng(0)
    assert mad_scale(rng.normal(0, 1, 100000)) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("size", [1, 2, 3, 16, 19200])
@pytest.mark.parametrize("values", ["distinct", "ties", "nan"])
def test_mad_scale_is_np_medians_without_numpy_ma(monkeypatch, size, values):
    # np.median's own NaN check imports numpy.ma, which nothing else in a
    # defog loads; mad_scale keeps np.median's bits without it
    r = np.random.default_rng(size).normal(size=size)
    if values == "ties":  # equal magnitudes of both signs
        r = np.round(r, 1) if size > 3 else np.array([-0.5, 0.5, 0.5])[:size]
    elif values == "nan":
        r[size // 2] = np.nan
    floor = 1e-300
    want = max(float(np.median(np.abs(r)) / 0.6745), floor)
    monkeypatch.delattr(np, "ma", raising=False)
    monkeypatch.setitem(sys.modules, "numpy.ma", None)  # an import of it raises
    got = mad_scale(r, floor)
    assert same_bits(got, want)
    assert math.isnan(got) == (values == "nan")


def test_mad_scale_empty_rejected():
    with pytest.raises(ValueError):
        mad_scale(np.array([]))


# -- x-step ---------------------------------------------------------------------

def dense_system(shape, cfg):
    """Independent dense assembly of the x-step normal operator."""
    rows, cols = shape
    n = rows * cols

    def idx(i, j):
        return i * cols + j

    d_rows = []
    for i in range(rows):
        for j in range(cols - 1):
            r = np.zeros(n)
            r[idx(i, j)], r[idx(i, j + 1)] = -1.0, 1.0
            d_rows.append(r)
    for i in range(rows - 1):
        for j in range(cols):
            r = np.zeros(n)
            r[idx(i, j)], r[idx(i + 1, j)] = -1.0, 1.0
            d_rows.append(r)
    d = np.array(d_rows)
    lap = d.T @ d

    first_excl = rows - cfg.flip.excluded_bottom_rows
    f_rows = []
    for rr in range(rows):
        m = 2 * cfg.flip.flip_row - rr
        if 0 <= m < rows and rr < first_excl and m < first_excl:
            for j in range(cols):
                r = np.zeros(n)
                r[idx(rr, j)] -= 1.0
                r[idx(m, j)] += 1.0
                f_rows.append(r)
    f = np.array(f_rows)
    sym = f.T @ f
    return lap, sym


def patch_coeffs(x, cfg):
    return cfg.grid_for(x.shape).fit_all(x)


def test_solve_wls_identity_when_unweighted_unregularized():
    cfg = small_config(gamma1=0.0, gamma2=0.0, gamma3=0.0)
    rng = np.random.default_rng(1)
    x_tilde = rng.normal(size=(16, 16))
    x = solve_wls(x_tilde, np.ones_like(x_tilde), patch_coeffs(x_tilde, cfg), cfg)
    assert np.allclose(x, x_tilde, atol=1e-12)


def test_solve_wls_consistent_priors():
    # huge patch weight, but the image is exactly patch-quadratic: x = x~
    cfg = small_config(gamma1=1e6, gamma2=0.0, gamma3=0.0)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    x = solve_wls(x_tilde, np.ones_like(x_tilde), patch_coeffs(x_tilde, cfg), cfg)
    assert np.allclose(x, x_tilde, rtol=1e-8)


def test_solve_wls_matches_dense_solve():
    cfg = small_config(linear_solver_tol=1e-12, rows=8,
                       flip=FlipOperator(flip_row=4, excluded_bottom_rows=1))
    rng = np.random.default_rng(2)
    x_tilde = rng.normal(size=(8, 8))
    w = rng.uniform(0, 1, (8, 8))
    coeffs = patch_coeffs(x_tilde, cfg)

    lap, sym = dense_system((8, 8), cfg)
    q = cfg.grid_for((8, 8)).surface_image(coeffs)
    a = (np.diag(w.ravel()) + cfg.gamma1 * np.eye(64)
         + cfg.gamma2 * sym + cfg.gamma3 * lap)
    b = (w * x_tilde).ravel() + cfg.gamma1 * q.ravel()
    x_dense = np.linalg.solve(a, b).reshape(8, 8)

    x = solve_wls(x_tilde, w, coeffs, cfg)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-8


@pytest.mark.parametrize("flip_row", [5, 0])
def test_apply_system_matches_dense_operator(flip_row):
    shape = (11, 14)
    cfg = small_config(rows=11, flip=FlipOperator(flip_row=flip_row, excluded_bottom_rows=2))
    rng = np.random.default_rng(11)
    w = rng.uniform(0, 1, shape)
    x = rng.normal(size=shape)
    lap, sym = dense_system(shape, cfg)
    a = (np.diag(w.ravel()) + cfg.gamma1 * np.eye(w.size)
         + cfg.gamma2 * sym + cfg.gamma3 * lap)
    out = apply_system(_Workspace(shape, cfg), w, x)
    assert np.max(np.abs(out.ravel() - a @ x.ravel())) < 1e-12


def test_dct_preconditioner_exact_for_constant_weights():
    # without the symmetry term the operator is (w + g1) I + g3 L, which the
    # DCT solve inverts exactly: one CG step reaches any tolerance
    cfg = small_config(rows=16, gamma2=0.0, linear_solver_tol=1e-10)
    rng = np.random.default_rng(12)
    ws = _Workspace((16, 20), cfg)
    w = np.full((16, 20), 0.3)
    x, n_cg, _ = _solve_system(ws, w, rng.normal(size=(16, 20)), np.zeros((16, 20)))
    assert n_cg == 1
    assert np.all(np.isfinite(x))


def test_solve_system_singular_constant_mode():
    # g1 = g2 = 0 and zero weights leave only g3 L, whose constant mode is
    # singular; the solve must stay finite and silent
    cfg = small_config(rows=16, gamma1=0.0, gamma2=0.0, gamma3=10.0)
    rng = np.random.default_rng(13)
    ws = _Workspace((16, 16), cfg)
    x0 = rng.normal(size=(16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, _ = _solve_system(ws, np.zeros((16, 16)), np.zeros((16, 16)), x0)
    assert np.all(np.isfinite(x))
    assert np.ptp(x) < 1e-5 * np.ptp(x0)  # L x = 0 only for constant x


@pytest.mark.parametrize("shape", [(1, 5), (2, 3), (5, 7), (15, 15), (36, 48), (37, 49),
                                   (120, 160), (121, 161)], ids="{0[0]}x{0[1]}".format)
def test_the_dct_solve_matches_scipys_dct_pair(shape):
    # odd lengths split Makhoul's order unevenly, and one row or column
    # has no odd index at all
    scipy_fft = pytest.importorskip("scipy.fft")
    dctn, idctn = scipy_fft.dctn, scipy_fft.idctn

    rng = np.random.default_rng(18)
    r = rng.normal(size=shape)
    scale = rng.uniform(0.1, 1.0, shape)
    given = r.copy()
    z = _DctSolve(np.empty(shape), np.empty(shape))(r, _DctSolve.pairs(scale) / r.size)
    ref = idctn(dctn(r, norm="ortho") * scale, norm="ortho")
    assert np.linalg.norm(z - ref) <= 1e-14 * np.linalg.norm(ref)
    assert np.array_equal(r, given)


def warm_start_system(seed):
    """32x40 x-step system with a known solution: b = A x_exact."""
    cfg = small_config(rows=32)
    ws = _Workspace((32, 40), cfg)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0, 1, (32, 40))
    x_exact = quadratic_symmetric_image(32, 40, 16)
    return cfg, ws, w, x_exact, apply_system(ws, w, x_exact), rng


@pytest.mark.parametrize("start", ["zero", "far", "near", "forcing"])
def test_solve_system_stops_within_tol_of_rhs_or_start_residual(start):
    # "forcing" is the inexact solve from the far start: it may stop once
    # the start's residual has shrunk tenfold
    cfg, ws, w, x_exact, b, rng = warm_start_system(14)
    x0 = {
        "zero": np.zeros_like(b),
        "far": 100.0 * rng.normal(size=b.shape),  # ||r0|| well above ||b||
        "near": x_exact * (1 + 1e-4 * rng.uniform(-1, 1, b.shape)),
    }["far" if start == "forcing" else start]
    forcing = FORCING if start == "forcing" else 0.0
    x, n_cg, _ = _solve_system(ws, w, b, x0, forcing)
    r0_norm = np.linalg.norm(b - apply_system(ws, w, x0))
    bound = max(cfg.linear_solver_tol * max(np.linalg.norm(b), r0_norm),
                0.1 * r0_norm if forcing else 0.0)
    assert np.linalg.norm(b - apply_system(ws, w, x)) <= bound
    if forcing:
        _, exact_cg, _ = _solve_system(ws, w, b, x0)
        assert n_cg < exact_cg


def test_solve_system_zero_rhs_stops_relative_to_start_residual():
    # with b = 0 the stop stays tol * ||r0||; a bound on ||b|| alone would
    # ask for a zero residual and run CG down to rounding noise
    cfg, ws, w, _, b, rng = warm_start_system(14)
    x0 = rng.normal(size=b.shape)
    x, n_cg, _ = _solve_system(ws, w, np.zeros_like(b), x0)
    r0_norm = np.linalg.norm(apply_system(ws, w, x0))
    assert np.linalg.norm(apply_system(ws, w, x)) <= cfg.linear_solver_tol * r0_norm
    assert n_cg <= 10


def test_solve_system_warm_start_near_solution_stops_early():
    # a start within 1e-6 relative of the solution is already about as
    # close as tol asks for; solving its own residual down by tol again
    # would take several more iterations
    cfg, ws, w, x_exact, b, rng = warm_start_system(0)
    x0 = x_exact * (1 + 1e-6 * rng.uniform(-1, 1, b.shape))
    x, n_cg, _ = _solve_system(ws, w, b, x0)
    assert n_cg <= 1
    assert np.linalg.norm(x - x_exact) <= 1e-6 * np.linalg.norm(x_exact)


def reference_pcg(a, precondition, b, x0, tol, forcing):
    """Textbook preconditioned CG on a dense matrix, every vector a new array,
    with _solve_system's stopping rule."""
    x = x0.copy()
    r = b - a @ x
    r0_norm = np.linalg.norm(r)
    target = max(tol * max(np.linalg.norm(b), r0_norm), forcing * r0_norm)
    if r0_norm <= target:
        return x, 0
    z = precondition(r)
    p = z.copy()
    for it in range(1, 1000):
        ap = a @ p
        alpha = (r @ z) / (p @ ap)
        x = x + alpha * p
        r_new = r - alpha * ap
        if np.linalg.norm(r_new) <= target:
            return x, it
        z_new = precondition(r_new)
        p = z_new + ((r_new @ z_new) / (r @ z)) * p
        r, z = r_new, z_new
    raise AssertionError("reference PCG did not converge")


@pytest.mark.parametrize("forcing", [0.0, FORCING])
def test_solve_system_matches_a_textbook_pcg(forcing):
    # buffer reuse in the CG loop must not change a single step: an
    # aliased direction still converges, but in more iterations
    scipy_fft = pytest.importorskip("scipy.fft")
    dctn, idctn = scipy_fft.dctn, scipy_fft.idctn

    cfg, ws, w, _, b, _ = warm_start_system(15)
    shape = b.shape
    lap, sym = dense_system(shape, cfg)
    a = (np.diag(w.ravel()) + cfg.gamma1 * np.eye(w.size)
         + cfg.gamma2 * sym + cfg.gamma3 * lap)
    lam_r = 2.0 - 2.0 * np.cos(np.pi * np.arange(shape[0]) / shape[0])
    lam_c = 2.0 - 2.0 * np.cos(np.pi * np.arange(shape[1]) / shape[1])
    eig = (cfg.gamma3 * (lam_r[:, None] + lam_c[None, :]) + cfg.gamma1
           + cfg.gamma2 * np.mean(np.diag(sym)) + np.mean(w))

    def precondition(r):
        return idctn(dctn(r.reshape(shape), norm="ortho") / eig, norm="ortho").ravel()

    x0 = np.zeros(shape)
    x, n_cg, _ = _solve_system(ws, w, b, x0, forcing)
    x_ref, n_ref = reference_pcg(a, precondition, b.ravel(), x0.ravel(),
                                 cfg.linear_solver_tol, forcing)
    assert n_cg == n_ref >= 2
    assert np.linalg.norm(x.ravel() - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_defog_cg_iteration_budget():
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    amp_cfg = small_config("amplitude-kinect16", rows=48, patch_grid=(2, 2))
    phase_cfg = small_config("phase-kinect16", rows=48, patch_grid=(2, 2))
    res = td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1)
    total = sum(sum(s["cg_iterations"]) for s in res.solver_summary().values())
    assert 0 < total <= 500
    # inexact x-steps after each level's first: 170 with every x-step exact
    assert total <= 120


def test_defog_defaults_agree_with_a_fully_converged_run(monkeypatch):
    # the outer loop's CONVERGENCE_TOL limits accuracy, not the inexact
    # x-steps: both fields stay within 1e-3 of a run solved to 1e-10
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=48, flip_row=24,
                       coverage="small")
    syn = td.synthesize(scene)
    runs = []
    for tight in ({}, dict(linear_solver_tol=1e-10, max_outer_iters=1000)):
        if tight:
            monkeypatch.setattr(irls, "CONVERGENCE_TOL", 1e-10)
        amp_cfg = small_config("amplitude-kinect16", rows=48, patch_grid=(2, 2), **tight)
        phase_cfg = small_config("phase-kinect16", rows=48, patch_grid=(2, 2), **tight)
        runs.append(td.defog(syn.foggy, scene.cam, amp_cfg, phase_cfg, threads=1))
    default, converged = runs
    assert all(s["converged"] for s in converged.solver_summary().values())
    for name in ("amplitude", "phase"):
        got = getattr(default.scattering, name)
        ref = getattr(converged.scattering, name)
        assert np.linalg.norm(got - ref) <= 1e-3 * np.linalg.norm(ref)


def test_solve_wls_rejects_patch_level_weights():
    cfg = small_config()
    x_tilde = np.zeros((16, 16))
    w = np.ones(cfg.grid_for(x_tilde.shape).n_patches)
    with pytest.raises(ValueError):
        solve_wls(x_tilde, w, patch_coeffs(x_tilde, cfg), cfg)


def test_solve_wls_accepts_coarse_weights():
    # coarse weights come back already spread over the pixels
    cfg = small_config(rows=16)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    x_tilde[4:8, 4:8] += 5.0
    coarse = run_coarse(x_tilde, cfg)
    x = solve_wls(x_tilde, coarse.w, coarse.a, cfg)
    assert x.shape == x_tilde.shape and np.all(np.isfinite(x))


def test_solve_wls_is_the_x_step_on_state_coefficients():
    # solve_wls takes IrlsState.a as it is: the same bits as the solver's
    # own x-step on that state's surface
    cfg = small_config(rows=16)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    x_tilde[4:8, 4:8] += 5.0
    state = run_coarse(x_tilde, cfg)
    x0 = state.x
    x = solve_wls(x_tilde, state.w, state.a, cfg, x0)
    ws = _Workspace(x_tilde.shape, cfg)
    want, _, _ = _x_step(ws, x_tilde, state.w, ws.grid.surface_image(state.a), x0)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("extra_patches, n_coeffs", [(1, 6), (0, 5)])
def test_solve_wls_rejects_wrong_coefficient_shape(extra_patches, n_coeffs):
    cfg = small_config(rows=16)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    k = cfg.grid_for(x_tilde.shape).n_patches
    with pytest.raises(ValueError, match="coefficients"):
        solve_wls(x_tilde, np.ones_like(x_tilde), np.zeros((k + extra_patches, n_coeffs)), cfg)


def test_solver_error_carries_residual_norm():
    err = td.SolverError("no convergence", residual_norm=0.25)
    assert err.residual_norm == 0.25


def test_solve_system_stops_on_a_direction_without_curvature():
    # with every gamma and weight 0 the operator is 0: the first direction
    # has p'Ap = 0, and the solve returns its start after that iteration
    cfg = small_config(rows=16, gamma1=0.0, gamma2=0.0, gamma3=0.0)
    ws = _Workspace((16, 16), cfg)
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=(16, 16))
    x, n_cg, res = _solve_system(ws, np.zeros((16, 16)), rng.normal(size=(16, 16)), x0)
    assert n_cg == 1 and res == 1.0
    assert np.array_equal(x, x0)


def test_solve_system_at_its_iteration_cap_raises_with_the_residual_norm():
    cfg = small_config(rows=32, linear_solver_tol=1e-12)
    ws = _Workspace((32, 40), cfg)
    ws.max_cg_iters = 1
    rng = np.random.default_rng(17)
    w, b = rng.uniform(0, 1, (32, 40)), rng.normal(size=(32, 40))
    with pytest.raises(td.SolverError, match="did not converge in 1 iterations") as exc:
        _solve_system(ws, w, b, np.zeros_like(b))
    # one preconditioned CG step from 0: x1 = alpha z, z = M^-1 b
    ws.reweight(w)
    z = ws.precondition(b).copy()
    x1 = (np.sum(b * z) / np.sum(z * apply_system(ws, w, z))) * z
    r1_norm = np.linalg.norm(b - apply_system(ws, w, x1))
    assert exc.value.residual_norm == pytest.approx(r1_norm, rel=1e-9)
    assert r1_norm > 1e-12 * np.linalg.norm(b)
    assert f"residual norm {exc.value.residual_norm:.3e}" in str(exc.value)


@pytest.mark.parametrize("call, match", [
    (lambda: SolverConfig.profile("amplitude-kinect20"), "unknown profile"),
    (lambda: td.ScatteringField(np.array([[1.0, np.nan]])), "must be finite"),
    (lambda: tukey_weight(1.0, 0.0), "tuning constant must be positive"),
    (lambda: tukey_weight(np.ones(3), -2.0), "tuning constant must be positive"),
    (lambda: run_fine(np.ones((16, 16)), IrlsState(
        x=np.ones((8, 16)), a=np.zeros((4, 6)), w=np.ones((8, 16))), small_config()),
     "coarse state does not belong"),
], ids=["unknown-profile", "non-finite-field", "zero-tukey-c", "negative-tukey-c",
        "state-of-another-shape"])
def test_an_input_the_solver_cannot_use_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- coarse level ----------------------------------------------------------------

def test_run_coarse_clean_input():
    # priors exactly consistent with the input: the smoothness term is the
    # only one that would bias the solution away from x~, so drop it
    cfg = small_config(rows=16, gamma3=0.0)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    state = run_coarse(x_tilde, cfg)
    assert state.outer_iterations <= 2
    assert np.all(state.w > 0.99)
    assert np.allclose(state.x, x_tilde, rtol=1e-9)
    assert state.level == "coarse"


def test_run_coarse_outlier_patch():
    # production-style 4x4 patch grid: the MAD scale stays robust even though the
    # outlier patch also perturbs its mirror patch through the symmetry term
    cfg = small_config(rows=64, patch_grid=(4, 4),
                       flip=FlipOperator(flip_row=32, excluded_bottom_rows=0))
    clean = quadratic_symmetric_image(64, 64, 32, scale=10.0, curvature=0.002)
    x_tilde = clean.copy()
    # one whole patch becomes the "object"; every row of it has an in-range
    # mirror so the symmetry prior anchors the reconstruction there
    x_tilde[16:32, 16:32] += 8.0
    state = run_coarse(x_tilde, cfg)
    w_patch = state.w[16:32, 16:32]
    assert np.all(w_patch == w_patch[0, 0])  # patchwise constant
    assert w_patch[0, 0] < 0.1
    rel = np.abs(state.x[16:32, 16:32] - clean[16:32, 16:32]) \
        / np.abs(clean[16:32, 16:32])
    assert np.max(rel) < 0.05


def test_run_coarse_objective_non_increasing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cfg = small_config(rows=16)
        x_tilde = quadratic_symmetric_image(16, 16, 8) + rng.normal(0, 0.05, (16, 16))
        x_tilde[4:8, 5:10] += 5.0
        state = run_coarse(x_tilde, cfg)
        h = np.array(state.objective_history)
        assert np.all(np.diff(h) <= 10 * cfg.linear_solver_tol * np.abs(h[:-1]) + 1e-9)


# -- fine level -------------------------------------------------------------------

def test_run_fine_clean_input():
    cfg = small_config(rows=16, gamma3=0.0)
    x_tilde = quadratic_symmetric_image(16, 16, 8)
    coarse = run_coarse(x_tilde, cfg)
    fine = run_fine(x_tilde, coarse, cfg)
    assert fine.level == "fine"
    assert np.all(fine.w > 0.99)
    assert np.allclose(fine.x, x_tilde, rtol=1e-9)


def test_run_fine_flags_outlier_blob():
    cfg = small_config(rows=32, flip=FlipOperator(flip_row=16, excluded_bottom_rows=0))
    clean = quadratic_symmetric_image(32, 32, 16, scale=10.0, curvature=0.002)
    x_tilde = clean.copy()
    x_tilde[4:10, 20:28] += 6.0
    coarse = run_coarse(x_tilde, cfg)
    fine = run_fine(x_tilde, coarse, cfg)
    assert np.all(fine.w[5:9, 21:27] < 0.1)
    outside = np.ones((32, 32), dtype=bool)
    outside[2:12, 18:30] = False
    assert np.median(fine.w[outside]) > 0.9
    rel = np.abs(fine.x[4:10, 20:28] - clean[4:10, 20:28])
    assert np.max(rel / np.abs(clean[4:10, 20:28])) < 0.05


def test_level_sigma_comes_from_an_exact_first_x_step():
    # a level's later x-steps stop at FORCING * ||r0||; the first one, whose
    # residuals set the frozen sigma, solves to linear_solver_tol
    cfg = small_config(rows=32, flip=FlipOperator(flip_row=16, excluded_bottom_rows=0))
    rng = np.random.default_rng(10)
    x_tilde = quadratic_symmetric_image(32, 32, 16) + rng.normal(0, 0.05, (32, 32))
    x_tilde[4:10, 20:28] += 6.0
    coarse = run_coarse(x_tilde, cfg)
    fine = run_fine(x_tilde, coarse, cfg)
    ws = _Workspace(x_tilde.shape, cfg)
    starts = (
        (coarse, x_tilde, np.ones_like(x_tilde), ws.grid.fit_all(x_tilde), ws.grid.patch_norms),
        (fine, coarse.x, coarse.w, coarse.a, lambda r: r),
    )
    for state, x0, w, coeffs, residual in starts:
        assert state.outer_iterations > 1
        x, _, _ = _x_step(ws, x_tilde, w, ws.grid.surface_image(coeffs), x0)
        assert state.sigma == mad_scale(residual(x - x_tilde), floor=_scale_floor(x_tilde))


def test_fine_weights_median_high_on_gaussian_noise():
    rng = np.random.default_rng(7)
    cfg = small_config(rows=32, flip=FlipOperator(flip_row=16, excluded_bottom_rows=0))
    x_tilde = quadratic_symmetric_image(32, 32, 16) + rng.normal(0, 0.02, (32, 32))
    fine = run_fine(x_tilde, run_coarse(x_tilde, cfg), cfg)
    assert np.median(fine.w) > 0.9


def test_scale_invariance_of_weights():
    # power-of-two scaling keeps every float op exact, so the weight fields
    # must match bit for bit
    cfg = small_config(rows=16)
    rng = np.random.default_rng(8)
    x_tilde = quadratic_symmetric_image(16, 16, 8) + rng.normal(0, 0.05, (16, 16))
    x_tilde[3:6, 3:9] += 4.0
    f1 = run_fine(x_tilde, run_coarse(x_tilde, cfg), cfg)
    scaled = 1024.0 * x_tilde
    f2 = run_fine(scaled, run_coarse(scaled, cfg), cfg)
    assert np.array_equal(f1.w, f2.w)


def test_determinism_bit_identical():
    cfg = small_config(rows=16)
    rng = np.random.default_rng(9)
    x_tilde = quadratic_symmetric_image(16, 16, 8) + rng.normal(0, 0.1, (16, 16))
    a = run_fine(x_tilde, run_coarse(x_tilde, cfg), cfg)
    b = run_fine(x_tilde, run_coarse(x_tilde, cfg), cfg)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.x, b.x)


# -- binarization and config -------------------------------------------------------

def test_binarize_weights():
    ones = np.ones((4, 4))
    zeros = np.zeros((4, 4))
    assert binarize_weights(ones).count() == 0
    assert binarize_weights(zeros).count() == 16
    w = np.ones((4, 4))
    w[1, 2] = 0.3
    mask = binarize_weights(w)
    assert mask.count() == 1 and mask.mask[1, 2]


def test_profiles_match_published_hyperparameters():
    amp = PROFILES["amplitude-kinect16"]
    assert (amp.gamma1, amp.gamma2, amp.gamma3) == (0.1, 0.1, 10.0)
    assert (amp.c_coarse, amp.c_fine) == (4.0, 7.0)
    ph = PROFILES["phase-kinect16"]
    assert (ph.gamma1, ph.gamma2, ph.gamma3) == (0.01, 0.1, 50.0)
    assert (ph.c_coarse, ph.c_fine) == (2.0, 3.0)
    for cfg in (amp, ph):
        assert cfg.patch_grid == (4, 4)
        assert cfg.flip.flip_row == 200
        assert cfg.flip.excluded_bottom_rows == 24


# a complete config document: the one form from_json reads
PHASE_DOC = PROFILES["phase-kinect16"].to_dict()


def test_config_from_json():
    doc = {
        **PHASE_DOC,
        "gamma3": 42.0,
        "flip": {"flip_row": 100, "excluded_bottom_rows": 0},
        "patch_grid": [2, 2],
    }
    cfg = SolverConfig.from_json(doc)
    assert cfg.gamma3 == 42.0
    assert cfg.gamma1 == 0.01
    assert cfg.flip.flip_row == 100
    assert cfg.patch_grid == (2, 2)
    with pytest.raises(ValueError, match=r"key\(s\): profile"):
        SolverConfig.from_json({**PHASE_DOC, "profile": "phase-kinect16"})


@pytest.mark.parametrize("doc, named", [
    ({**PHASE_DOC, "gamma1": True}, "gamma1"),
    ({**PHASE_DOC, "linear_solver_tol": None}, "linear_solver_tol"),
    ({**PHASE_DOC, "gamma2": float("nan")}, "gamma2"),
    ({**PHASE_DOC, "c_fine": float("inf")}, "c_fine"),
    ({**PHASE_DOC, "max_outer_iters": 5.0}, "max_outer_iters"),
    ({**PHASE_DOC, "flip": {"flip_row": "3"}}, "flip_row"),
    ({**PHASE_DOC, "flip": {}}, "flip_row"),
    ({**PHASE_DOC, "profile": ["phase-kinect16"]}, r"key\(s\): profile"),
    ({"gamma1": 0.1, "gamma2": 0.1, "gamma3": 1.0}, "c_coarse, c_fine"),
    ({**PHASE_DOC, "linear_solver_tol": 1.0}, "linear_solver_tol"),
    ({**PHASE_DOC, "patch_grid": [0, 4]}, "patch_grid"),
    ({**PHASE_DOC, "patch_grid": {"rows": 4}}, "patch_grid"),
], ids=["bool-gamma", "null-tolerance", "nan-gamma", "inf-tukey", "float-iters",
        "string-flip-row", "empty-flip", "list-profile", "missing-tukey", "unit-tolerance",
        "zero-patch-grid", "object-patch-grid"])
def test_config_from_json_rejects_wrong_types_and_missing_fields(doc, named):
    with pytest.raises(ValueError, match=named):
        SolverConfig.from_json(doc)


@pytest.mark.parametrize("cfg", [
    PROFILES["amplitude-kinect16"],
    PROFILES["phase-kinect16"],
    replace(PROFILES["phase-kinect16"], flip=FlipOperator(flip_row=120, excluded_bottom_rows=7)),
], ids=["amplitude", "phase", "flip-override"])
def test_config_round_trip(cfg):
    assert SolverConfig.from_json(cfg.to_dict()) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma1=-1, gamma2=0, gamma3=0, c_coarse=4, c_fine=7)
    with pytest.raises(ValueError):
        SolverConfig(gamma1=0, gamma2=0, gamma3=0, c_coarse=0, c_fine=7)
    with pytest.raises(ValueError):
        SolverConfig(gamma1=0, gamma2=0, gamma3=0, c_coarse=4, c_fine=7, max_outer_iters=0)


@pytest.mark.parametrize("key, value", [
    ("gamma1", np.nan), ("gamma2", np.inf), ("gamma3", np.inf), ("c_coarse", np.inf),
    ("c_fine", np.nan), ("linear_solver_tol", np.nan), ("linear_solver_tol", np.inf),
    ("max_outer_iters", np.nan), ("max_outer_iters", 2.5), ("max_outer_iters", True),
])
def test_config_rejects_non_finite_and_non_int_values(key, value):
    # NaN and infinity pass a plain `< 0` or `<= 0` check
    with pytest.raises(ValueError):
        replace(PROFILES["amplitude-kinect16"], **{key: value})


@pytest.mark.parametrize("key, value", [
    # a relative tolerance of 1 accepts every warm start: no x-step would
    # take a CG iteration
    ("linear_solver_tol", 1.0), ("linear_solver_tol", 2.5),
    ("patch_grid", (0, 4)), ("patch_grid", (4, -1)), ("patch_grid", (True, 4)),
    ("patch_grid", (4.0, 4)), ("patch_grid", (4, 4, 4)), ("patch_grid", [4, 4]),
    ("patch_grid", 4), ("patch_grid", None),
    ("flip", None), ("flip", {"flip_row": 200}), ("flip", 200),
], ids=["unit-tolerance", "tolerance-above-1", "zero-patch-rows", "negative-patch-cols",
        "bool-patch-rows", "float-patch-rows", "three-patch-dims", "list-patch-grid",
        "scalar-patch-grid", "no-patch-grid", "no-flip", "dict-flip", "int-flip"])
def test_config_rejects_out_of_range_values_naming_the_field(key, value):
    with pytest.raises(ValueError, match=key):
        replace(PROFILES["amplitude-kinect16"], **{key: value})


# -- non-finite input ----------------------------------------------------------

def no_cg(*args, **kwargs):
    raise AssertionError("a conjugate gradient solve started")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", ["run_coarse", "run_fine", "estimate_scattering",
                                   "solve_wls"])
def test_a_non_finite_image_fails_before_any_cg_iteration(monkeypatch, solve, bad):
    # one bad pixel, in the trailing row that the half grid drops: without a
    # check it runs every x-step to its CG cap and fails on a NaN residual
    cfg = small_config(rows=25)
    x_tilde = quadratic_symmetric_image(25, 24, 12)
    x_tilde[24, 5] = bad
    monkeypatch.setattr(irls, "_solve_system", no_cg)
    calls = {
        "run_coarse": lambda: run_coarse(x_tilde, cfg),
        "run_fine": lambda: run_fine(x_tilde, IrlsState(
            x=np.zeros(x_tilde.shape), a=np.zeros((4, 6)), w=np.ones(x_tilde.shape)), cfg),
        "estimate_scattering": lambda: estimate_scattering(x_tilde, cfg),
        "solve_wls": lambda: solve_wls(x_tilde, np.ones(x_tilde.shape), np.zeros((4, 6)), cfg),
    }
    with pytest.raises(ValueError, match="1 non-finite pixel"):
        calls[solve]()


@pytest.mark.parametrize("where", ["weights", "coefficients"])
def test_solve_wls_rejects_non_finite_weights_and_coefficients(monkeypatch, where):
    cfg = small_config(rows=48)
    x_tilde = quadratic_symmetric_image(48, 48, 24)
    w, a = np.ones(x_tilde.shape), patch_coeffs(x_tilde, cfg)
    if where == "weights":
        w[7, 9] = np.nan
    else:
        a[2, 3] = np.nan
    monkeypatch.setattr(irls, "_solve_system", no_cg)
    with pytest.raises(ValueError, match=where):
        solve_wls(x_tilde, w, a, cfg)


# -- the coarse level's half-resolution grid ------------------------------------

@pytest.mark.parametrize("flip, rows, half", [
    ((200, 24), 212, (100, 12)), ((113, 14), 120, (56, 7)), ((34, 4), 36, (17, 2)),
    # row 48 of 49 halves to row 24, just below the 24-row half grid
    ((48, 0), 24, (23, 0)),
])
def test_half_grid_config_halves_the_mirror_and_quarters_gamma3(flip, rows, half):
    cfg = replace(PROFILES["phase-kinect16"],
                  flip=FlipOperator(flip_row=flip[0], excluded_bottom_rows=flip[1]))
    scaled = half_grid_config(cfg, rows)
    assert (scaled.flip.flip_row, scaled.flip.excluded_bottom_rows) == half
    assert scaled.gamma3 == cfg.gamma3 / 4
    assert replace(scaled, gamma3=cfg.gamma3, flip=cfg.flip) == cfg


def test_the_block_copy_puts_each_half_grid_value_over_its_2x2_block():
    rng = np.random.default_rng(4)
    half = rng.normal(size=(25, 33))
    full = _block_copy(half, (51, 67))
    assert full.shape == (51, 67)
    for dr in (0, 1):
        for dc in (0, 1):
            assert np.array_equal(full[dr:50:2, dc:66:2], half)
    # the odd frame's trailing row and column repeat their neighbours
    assert np.array_equal(full[-1], full[-2])
    assert np.array_equal(full[:, -1], full[:, -2])


def test_the_block_copy_of_the_block_means_of_a_ramp_gives_the_ramp():
    # block means of a linear field are the field at the blocks' centres; the
    # block copy puts each back over its block, so the copy is the ramp at
    # its block centres, half a pixel step from the ramp at most
    rows, cols = np.mgrid[0:24, 0:36].astype(np.float64)
    ramp = 0.3 * rows - 0.7 * cols + 2.0
    half = ramp.reshape(12, 2, 18, 2).mean(axis=(1, 3))
    full = _block_copy(half, ramp.shape)
    assert full.shape == ramp.shape
    centres = 0.3 * (rows // 2 * 2 + 0.5) - 0.7 * (cols // 2 * 2 + 0.5) + 2.0
    np.testing.assert_allclose(full, centres, rtol=0, atol=1e-12)
    assert np.abs(full - ramp).max() <= (0.3 + 0.7) / 2 + 1e-12
    # the block means of the copy are the half-grid values again
    assert np.array_equal(full.reshape(12, 2, 18, 2).mean(axis=(1, 3)), half)


@pytest.mark.parametrize("shape", [(23, 40), (40, 23)])
def test_a_frame_too_small_for_the_half_grid_names_its_size(shape):
    cfg = replace(small_config(rows=shape[0]), patch_grid=(4, 4))
    with pytest.raises(ValueError, match=rf"a {shape[0]}x{shape[1]} frame is too small "
                                         r".* at least 24x24 pixels"):
        estimate_scattering(np.ones(shape), cfg)


def test_estimate_scattering_solves_the_coarse_level_on_the_half_grid():
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=50, flip_row=24,
                       coverage="small")
    x_tilde = td.synthesize(scene).foggy.amplitude
    cfg = small_config(rows=48)
    coarse, fine, x, w = estimate_scattering(x_tilde, cfg)
    assert coarse.x.shape == coarse.w.shape == (24, 25)
    assert fine.x.shape == fine.w.shape == (24, 25)
    assert x.shape == w.shape == (48, 50)
    # both states are run_coarse's and run_fine's on the block means, unchanged
    half = x_tilde.reshape(24, 2, 25, 2).mean(axis=(1, 3))
    half_cfg = half_grid_config(cfg, 24)
    again = run_coarse(half, half_cfg)
    assert np.array_equal(coarse.x, again.x) and np.array_equal(coarse.w, again.w)
    assert coarse.summary() == again.summary()
    again = run_fine(half, again, half_cfg)
    assert np.array_equal(fine.x, again.x) and np.array_equal(fine.w, again.w)
    assert fine.summary() == again.summary() and fine.summary()["shape"] == [24, 25]
    # full resolution enters once: the block copy of the fine x, reweighted
    # against x~ with the fine level's frozen sigma
    assert np.array_equal(x, _block_copy(fine.x, x_tilde.shape))
    assert np.array_equal(w, tukey_weight((x - x_tilde) / fine.sigma, cfg.c_fine))


def test_a_turn_solves_half_a_turn_away_and_shifts_the_fields_back():
    # a noisy phase whose background sits by the wrap: 638 px lie above
    # 2*pi - 0.1.  A turn of 2*pi is the plain solve of x~ + pi wrapped, its
    # weights as they are and each x less pi
    scene = make_scene(beta=3.2e-4, seed=2, rows=48, cols=48, flip_row=24, coverage="small")
    x_tilde = td.synthesize(scene, noise_sigma=3e-9, noise_seed=0).foggy.phase
    assert np.count_nonzero(x_tilde > TWO_PI - 0.1) == 638
    cfg = small_config("phase-kinect16", rows=48)
    coarse, fine, x, w = estimate_scattering(x_tilde, cfg, turn=TWO_PI)
    plain = estimate_scattering(np.mod(x_tilde + np.pi, TWO_PI), cfg)
    assert same_bits(w, plain[3])
    for state, want in ((coarse, plain[0]), (fine, plain[1])):
        assert state.summary() == want.summary()
        assert same_bits(state.w, want.w) and same_bits(state.a, want.a)
    for got, want in ((coarse.x, plain[0].x), (fine.x, plain[1].x), (x, plain[2])):
        assert same_bits(got, want - np.pi)


def test_a_flip_row_on_an_odd_frames_last_row_mirrors_nothing_on_either_grid():
    cfg = small_config(rows=49, flip=FlipOperator(flip_row=48, excluded_bottom_rows=0))
    coarse, fine, x, w = estimate_scattering(quadratic_symmetric_image(49, 30, 24), cfg)
    assert coarse.x.shape == fine.x.shape == (24, 15) and x.shape == w.shape == (49, 30)


def test_a_flip_row_outside_the_frame_fails_before_any_cg_iteration(monkeypatch):
    cfg = small_config(rows=49, flip=FlipOperator(flip_row=49, excluded_bottom_rows=0))
    monkeypatch.setattr(irls, "_solve_system", no_cg)
    with pytest.raises(ValueError, match="flip_row lies outside the image"):
        estimate_scattering(quadratic_symmetric_image(49, 30, 24), cfg)
