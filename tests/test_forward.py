import numpy as np
import pytest
from scipy.integrate import quad, simpson

import tofdefog as td
from tofdefog.forward import QUAD_Z_CAP_MM, scattering_phasor

CAM = td.CameraModel(16e6)
FOG_MEDIUM = td.MediumParams(beta=3.2e-4, g=0.9, z0=10.0, z_saturate=1000.0)


# -- Henyey-Greenstein -----------------------------------------------------------

def test_hg_isotropic():
    assert td.hg_phase(0.0, 0.0) == pytest.approx(1 / (4 * np.pi), rel=1e-12)
    assert td.hg_phase(2.7, 0.0) == pytest.approx(1 / (4 * np.pi), rel=1e-12)


def test_hg_backscatter_value():
    # (1 - 0.81) / (4*pi*(1 + 0.81 + 1.8)^1.5)
    expected = 0.19 / (4 * np.pi * 3.61 ** 1.5)
    assert td.hg_phase(np.pi, 0.9) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.204e-3, rel=1e-3)


@pytest.mark.parametrize("g", [0.0, 0.5, 0.9])
def test_hg_sphere_integral(g):
    val, _ = quad(lambda th: 2 * np.pi * np.sin(th) * td.hg_phase(th, g), 0, np.pi,
                  limit=200)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_hg_positive_and_validated():
    theta = np.linspace(0, np.pi, 100)
    assert np.all(td.hg_phase(theta, 0.85) > 0)
    with pytest.raises(ValueError):
        td.hg_phase(0.1, 1.0)


# -- backscatter integral ----------------------------------------------------------

def brute_scattering(z, medium, cam, n=400000):
    """Independent fine-Simpson oracle for the backscatter integral."""
    zs = np.linspace(medium.z0, z, n + 1)
    p_back = td.hg_phase(np.pi, medium.g)
    integrand = (medium.beta * p_back / zs ** 2) * np.exp(-2 * medium.beta * zs) \
        * np.exp(1j * cam.phase_per_mm * zs)
    return simpson(integrand, x=zs)


def test_scattering_phasor_empty_integral():
    assert scattering_phasor(FOG_MEDIUM.z0, FOG_MEDIUM, CAM) == 0.0 + 0.0j


def test_scattering_phasor_no_medium():
    medium = td.MediumParams(beta=0.0)
    for z in (50.0, 1000.0, 5000.0):
        assert scattering_phasor(z, medium, CAM) == 0.0 + 0.0j
    zs = np.array([[50.0, 1000.0], [10.0, 5000.0]])
    none = scattering_phasor(zs, medium, CAM)
    assert none.shape == zs.shape and not none.any()


def test_scattering_phasor_rejects_near_z():
    with pytest.raises(ValueError):
        scattering_phasor(5.0, FOG_MEDIUM, CAM)
    with pytest.raises(ValueError, match="z=5.0"):
        scattering_phasor(np.array([100.0, 5.0, 7.0, 2000.0]), FOG_MEDIUM, CAM)


def test_scattering_phasor_matches_brute_force():
    for z in (200.0, 1000.0, 8000.0):
        mine = scattering_phasor(z, FOG_MEDIUM, CAM)
        oracle = brute_scattering(z, FOG_MEDIUM, CAM)
        assert abs(mine - oracle) / abs(oracle) < 1e-5


def test_scattering_saturation_matches_reference():
    s1000 = scattering_phasor(1000.0, FOG_MEDIUM, CAM)
    s8000 = scattering_phasor(8000.0, FOG_MEDIUM, CAM)
    assert abs(1.0 - abs(s1000) / abs(s8000)) < 0.01
    phase_err = 1.0 - np.angle(s1000) / np.angle(s8000)
    assert 0.05 <= phase_err <= 0.07  # reported saturation error ~6%


def test_scattering_amplitude_near_monotone():
    # the modulus of the complex integral can shrink by a few 1e-4 relative
    # once contributions rotate past quadrature with the running sum; it must
    # never drop more than that
    zs = np.linspace(FOG_MEDIUM.z0 + 1, 9000, 200)
    amps = np.array([abs(scattering_phasor(z, FOG_MEDIUM, CAM)) for z in zs])
    drops = np.diff(amps)
    assert np.all(drops >= -1e-3 * amps.max())
    assert amps[-1] > amps[0]


def test_scattering_cauchy_bound():
    rng = np.random.default_rng(0)
    p_back = td.hg_phase(np.pi, FOG_MEDIUM.g)
    for _ in range(10):
        z = rng.uniform(50, 5000)
        delta = rng.uniform(1, 100)
        a1 = abs(scattering_phasor(z, FOG_MEDIUM, CAM))
        a2 = abs(scattering_phasor(z + delta, FOG_MEDIUM, CAM))
        bound = FOG_MEDIUM.beta * p_back * np.exp(-2 * FOG_MEDIUM.beta * z) \
            * delta / z ** 2
        assert abs(a2 - a1) <= bound * (1 + 1e-9)


def test_scattering_quadrature_refinement():
    for z in (1000.0, 8000.0):
        base = scattering_phasor(z, FOG_MEDIUM, CAM)
        fine = per_depth_oracle(z, FOG_MEDIUM, CAM, points_per_efold=2000)
        assert abs(abs(fine) - abs(base)) / abs(base) < 1e-6


def per_depth_oracle(z, medium, cam, points_per_efold=1000):
    """One depth at a time: its own log nodes, np.trapezoid in ln z."""
    z_end = min(z, QUAD_Z_CAP_MM)
    if medium.beta == 0 or z_end <= medium.z0:
        return 0j
    h = 1.0 / points_per_efold
    k_end = int(np.floor(np.log(z_end / medium.z0) / h))
    zs = medium.z0 * np.exp(np.arange(k_end + 1) * h)
    zs = np.append(zs if zs[-1] < z_end else zs[:-1], z_end)
    integrand = (medium.beta * td.hg_phase(np.pi, medium.g) / zs ** 2) \
        * np.exp(-2 * medium.beta * zs) * np.exp(1j * cam.phase_per_mm * zs)
    return complex(np.trapezoid(integrand * zs, np.log(zs)))


def test_scattering_phasor_array_matches_per_depth_oracle():
    z0 = FOG_MEDIUM.z0
    on_node = z0 * np.exp(1234 / 1000)
    zs = np.array([
        z0, np.nextafter(z0, np.inf), 10.5, 200.0, on_node,
        np.nextafter(on_node, np.inf), np.nextafter(on_node, 0.0),
        on_node * (1 + 1e-9), on_node * (1 - 1e-9), z0 * np.exp(1 / 1000),
        1000.0, 8000.0, QUAD_Z_CAP_MM, 25000.0,
    ])
    mine = scattering_phasor(zs, FOG_MEDIUM, CAM)
    assert mine.shape == zs.shape and mine.dtype == np.complex128
    assert mine[0] == 0
    oracle = np.array([per_depth_oracle(z, FOG_MEDIUM, CAM) for z in zs])
    assert np.all(np.abs(mine[1:] - oracle[1:]) <= 1e-12 * np.abs(oracle[1:]))
    assert mine[-1] == mine[-2]  # depths past the cap integrate to the cap
    shaped = scattering_phasor(zs.reshape(2, 7), FOG_MEDIUM, CAM)
    assert np.array_equal(shaped, mine.reshape(2, 7))
    scalar = scattering_phasor(float(zs[10]), FOG_MEDIUM, CAM)
    assert type(scalar) is complex and scalar == mine[10]


def test_sweep_curves_match_per_depth_oracle():
    sw = td.sweep(FOG_MEDIUM, CAM)
    oracle = np.array([per_depth_oracle(z, FOG_MEDIUM, CAM) for z in sw.z_mm])
    live = sw.z_mm > FOG_MEDIUM.z0
    assert np.all(sw.alpha_s[~live] == 0)
    np.testing.assert_allclose(sw.alpha_s[live], np.abs(oracle[live]), rtol=1e-12, atol=0)
    np.testing.assert_allclose(sw.phi_s[live], np.angle(oracle[live]), rtol=1e-12, atol=0)


# -- direct component ---------------------------------------------------------------

def test_direct_phasor_inverse_square():
    medium = td.MediumParams(beta=0.0)
    d = td.direct_phasor(1000.0, 1.0, medium, CAM)
    assert abs(d) == pytest.approx(1e-6, rel=1e-12)
    assert np.angle(d) % (2 * np.pi) == pytest.approx(
        td.depth_to_phase(1000.0, CAM), rel=1e-12
    )
    assert abs(td.direct_phasor(2000.0, 1.0, medium, CAM)) == pytest.approx(
        abs(d) / 4.0, rel=1e-12
    )


def test_direct_phasor_attenuation_ratio():
    medium = td.MediumParams(beta=3.2e-4)
    ratio = abs(td.direct_phasor(2500.0, 1.0, medium, CAM)) \
        / abs(td.direct_phasor(1000.0, 1.0, medium, CAM))
    assert ratio == pytest.approx(0.16 * np.exp(-0.96), rel=1e-12)
    assert ratio == pytest.approx(0.0613, abs=2e-4)


def test_direct_phasor_strictly_decreasing():
    medium = td.MediumParams(beta=1e-4)
    z = np.linspace(100, 5000, 50)
    amps = np.abs(td.direct_phasor(z, 1.0, medium, CAM))
    assert np.all(np.diff(amps) < 0)


def test_direct_phasor_rejects_nonpositive_depth():
    with pytest.raises(ValueError):
        td.direct_phasor(0.0, 1.0, FOG_MEDIUM, CAM)


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
def test_direct_phasor_rejects_non_finite_depth(z):
    with pytest.raises(ValueError, match=f"depth must be finite and positive, got {z}"):
        td.direct_phasor(np.array([1000.0, z]), 1.0, FOG_MEDIUM, CAM)


# -- beta calibration -----------------------------------------------------------------

def test_estimate_beta_single_pixel():
    cal = td.CalibrationSet(
        clean_amplitude=np.array([1.0]),
        foggy_direct_amplitude=np.array([np.exp(-0.7)]),
        distance_mm=np.array([1000.0]),
    )
    assert td.estimate_beta(cal) == pytest.approx(3.5e-4, rel=1e-12)


def test_estimate_beta_no_attenuation():
    amp = np.full(10, 2.5)
    cal = td.CalibrationSet(amp, amp.copy(), np.full(10, 1500.0))
    assert td.estimate_beta(cal) == 0.0


def test_estimate_beta_recovers_planted_value():
    rng = np.random.default_rng(1)
    beta = 3.2e-4
    d = rng.uniform(800, 2500, 100)
    clean = rng.uniform(0.5, 2.0, 100)
    foggy = clean * np.exp(-2 * beta * d) * (1 + rng.normal(0, 0.01, 100))
    cal = td.CalibrationSet(clean, foggy, d)
    assert td.estimate_beta(cal) == pytest.approx(beta, rel=0.02)


def test_estimate_beta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        td.estimate_beta(td.CalibrationSet([1.0], [0.0], [100.0]))
    with pytest.raises(ValueError):
        td.estimate_beta(td.CalibrationSet([1.0], [0.5], [0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["clean_amplitude", "foggy_direct_amplitude", "distance_mm"])
def test_calibration_set_rejects_non_finite_values(name, value):
    triples = {"clean_amplitude": [1.0, 1.0], "foggy_direct_amplitude": [0.5, 0.5],
               "distance_mm": [100.0, 100.0]}
    triples[name][1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
        td.CalibrationSet(**triples)


# -- synthesis ---------------------------------------------------------------------------

def small_scene(beta=3.2e-4, rows=32, cols=40, with_object=True):
    cam = td.CameraModel(16e6, rows=rows, cols=cols)
    medium = td.MediumParams(beta=beta, g=0.9, z0=10.0, z_saturate=1000.0)
    depth = np.full((rows, cols), np.inf)
    refl = np.zeros((rows, cols))
    if with_object:
        depth[8:16, 10:22] = 1500.0
        refl[8:16, 10:22] = 1.0
    return td.SceneSpec(
        depth_map=depth, reflectance_map=refl, cam=cam, medium=medium,
        scattering=td.ScatterProfile(flip_row=rows // 2),
    )


def test_synthesize_no_medium_no_background_is_clean_direct():
    rows, cols = 24, 24
    cam = td.CameraModel(16e6, rows=rows, cols=cols)
    medium = td.MediumParams(beta=0.0)
    depth = np.full((rows, cols), 1200.0)
    refl = np.ones((rows, cols))
    scene = td.SceneSpec(depth_map=depth, reflectance_map=refl, cam=cam,
                         medium=medium, scattering=td.ScatterProfile(flip_row=12))
    out = td.synthesize(scene)
    expected = td.direct_phasor(1200.0, 1.0, medium, cam)
    assert np.allclose(out.foggy.amplitude, abs(expected), rtol=1e-12)
    assert np.allclose(out.foggy.phase, np.angle(expected) % (2 * np.pi), rtol=1e-12)


def test_synthesize_superposition_is_exact():
    scene = small_scene()
    out = td.synthesize(scene)
    scat = out.scattering_amplitude.values * np.exp(1j * out.scattering_phase.values)
    direct = out.foggy.to_complex() - scat
    valid = scene.valid_depth()
    expected = td.direct_phasor(
        scene.depth_map[valid], scene.reflectance_map[valid], scene.medium, scene.cam
    )
    scale = np.abs(expected).max()
    assert np.max(np.abs(direct[valid] - expected)) < 1e-9 * scale
    assert np.max(np.abs(direct[~valid])) < 1e-9 * scale


def test_synthesize_background_pixels_carry_scattering_only():
    scene = small_scene(with_object=False)
    out = td.synthesize(scene)
    assert np.allclose(out.foggy.amplitude, out.scattering_amplitude.values, rtol=1e-12)
    assert out.true_mask.count() == 0


def test_synthetic_scattering_field_is_flip_symmetric():
    scene = small_scene()
    out = td.synthesize(scene)
    flip_row = 16
    for k in range(1, 16):
        assert np.array_equal(
            out.scattering_amplitude.values[flip_row - k],
            out.scattering_amplitude.values[flip_row + k],
        )
        assert np.array_equal(
            out.scattering_phase.values[flip_row - k],
            out.scattering_phase.values[flip_row + k],
        )


def test_synthetic_scattering_field_is_patchwise_quadratic():
    scene = small_scene(rows=48, cols=48)
    out = td.synthesize(scene)
    grid = td.PatchGrid(48, 48, 4, 4)
    for field in (out.scattering_amplitude.values, out.scattering_phase.values):
        fitted = grid.surface_image(grid.fit_all(field))
        for rs, cs in grid.slices:
            patch = field[rs, cs]
            assert np.max(np.abs(fitted[rs, cs] - patch)) < 0.01 * np.abs(patch).max()


def test_synthesize_noise_is_seeded():
    scene = small_scene()
    a = td.synthesize(scene, noise_sigma=1e-9, noise_seed=3)
    b = td.synthesize(scene, noise_sigma=1e-9, noise_seed=3)
    c = td.synthesize(scene, noise_sigma=1e-9, noise_seed=4)
    assert np.array_equal(a.foggy.amplitude, b.foggy.amplitude)
    assert not np.array_equal(a.foggy.amplitude, c.foggy.amplitude)


def test_scene_validation():
    cam = td.CameraModel(16e6, rows=8, cols=8)
    medium = td.MediumParams(beta=1e-4)
    with pytest.raises(ValueError):  # depth below z0
        td.SceneSpec(depth_map=np.full((8, 8), 5.0),
                     reflectance_map=np.ones((8, 8)), cam=cam, medium=medium)
    with pytest.raises(ValueError):  # beyond unambiguous range
        td.SceneSpec(depth_map=np.full((8, 8), 2e5),
                     reflectance_map=np.ones((8, 8)), cam=cam, medium=medium)
    with pytest.raises(ValueError):  # shape mismatch with camera
        td.SceneSpec(depth_map=np.full((4, 4), 1000.0),
                     reflectance_map=np.ones((4, 4)), cam=cam, medium=medium)


def test_medium_validation():
    with pytest.raises(ValueError):
        td.MediumParams(beta=-1e-4)
    with pytest.raises(ValueError):
        td.MediumParams(beta=1e-4, g=1.0)
    with pytest.raises(ValueError):
        td.MediumParams(beta=1e-4, z0=0.0)
    with pytest.raises(ValueError):
        td.MediumParams(beta=1e-4, z0=2000.0, z_saturate=1000.0)


def negative_scattering_scene():
    scene = small_scene()
    scene.scattering = td.MeasuredScattering(np.full((32, 40), -1.0), np.zeros((32, 40)))
    return scene


@pytest.mark.parametrize("call, match", [
    (lambda: td.CalibrationSet([1.0, 1.0], [0.5], [100.0]), "share one shape"),
    (lambda: td.CalibrationSet([], [], []), "calibration set is empty"),
    (lambda: td.ScatterProfile(amplitude_falloff=0.5), "amplitude_falloff"),
    (lambda: td.ScatterProfile(phase_falloff=-0.1), "phase_falloff"),
    (lambda: td.ScatterProfile(flip_row=8).fields((8, 8), FOG_MEDIUM, CAM),
     "flip_row outside the image"),
    (lambda: td.MeasuredScattering(np.ones((4, 4)), np.zeros((4, 5))).fields(
        (4, 4), FOG_MEDIUM, CAM), "shape mismatch"),
    (lambda: td.SceneSpec(np.full((8, 8), 1000.0), np.ones((8, 7)),
                          td.CameraModel(16e6, rows=8, cols=8), FOG_MEDIUM), "shapes differ"),
    (lambda: td.SceneSpec(np.full((8, 8), 1000.0), np.full((8, 8), -0.5),
                          td.CameraModel(16e6, rows=8, cols=8), FOG_MEDIUM),
     "reflectance must be non-negative"),
    (lambda: td.synthesize(negative_scattering_scene()),
     "scattering amplitude field must be non-negative"),
], ids=["calibration-shapes", "empty-calibration", "amplitude-falloff", "phase-falloff",
        "profile-flip-row", "measured-shape", "scene-shapes", "negative-reflectance",
        "negative-scattering"])
def test_an_input_that_describes_no_scene_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
