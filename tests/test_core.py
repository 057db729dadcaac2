import dataclasses

import numpy as np
import pytest

import tofdefog as td

CAM = td.CameraModel(16e6)


def test_unambiguous_range():
    assert CAM.unambiguous_range_mm == pytest.approx(9368.5143125)


@pytest.mark.parametrize("tiny", [-1e-17, -1e-16, -4e-16])
def test_wrap_phase_of_a_tiny_negative_phase_is_zero(tiny):
    # np.mod gives exactly 2*pi for these, which no phase grid holds
    assert td.wrap_phase(tiny) == 0.0
    assert np.all(td.wrap_phase(np.full(3, tiny)) == 0.0)


def test_phase_to_depth_zero():
    assert td.phase_to_depth(0.0, CAM) == 0.0


def test_phase_to_depth_pi():
    # c*pi/(4*pi*f) = c/(4f) with c = 2.99792458e11 mm/s, f = 16 MHz
    assert td.phase_to_depth(np.pi, CAM) == pytest.approx(4684.25715625, rel=1e-12)


def test_phase_to_depth_wrap_boundary():
    eps = 1e-9
    z = td.phase_to_depth(2 * np.pi - eps, CAM)
    assert z < CAM.unambiguous_range_mm
    assert z == pytest.approx(CAM.unambiguous_range_mm, rel=1e-9)


def test_phase_to_depth_monotone():
    phases = np.linspace(0, 2 * np.pi - 1e-6, 100)
    depths = td.phase_to_depth(phases, CAM)
    assert np.all(np.diff(depths) > 0)


def test_phase_to_depth_rejects_nonfinite():
    with pytest.raises(ValueError):
        td.phase_to_depth(np.nan, CAM)
    with pytest.raises(ValueError):
        td.phase_to_depth(np.inf, CAM)


def test_depth_to_phase_inverse():
    assert td.depth_to_phase(0.0, CAM) == 0.0
    assert td.depth_to_phase(4684.25715625, CAM) == pytest.approx(np.pi, rel=1e-12)


def test_depth_to_phase_rejects_out_of_range():
    with pytest.raises(ValueError):
        td.depth_to_phase(CAM.unambiguous_range_mm, CAM)
    with pytest.raises(ValueError):
        td.depth_to_phase(-1.0, CAM)


def test_round_trip_random_depths():
    rng = np.random.default_rng(0)
    depths = rng.uniform(0, CAM.unambiguous_range_mm * 0.999, 1000)
    back = td.phase_to_depth(td.depth_to_phase(depths, CAM), CAM)
    nz = depths > 0
    assert np.max(np.abs(back[nz] - depths[nz]) / depths[nz]) < 1e-9


def _phasor(amp, phase, shape=(4, 5)):
    return td.PhasorImage(np.full(shape, amp, float), np.full(shape, phase, float))


def test_phasor_add_zero_is_identity():
    a = _phasor(2.0, 1.0)
    zero = _phasor(0.0, 0.0)
    out = td.phasor_add(a, zero)
    assert np.allclose(out.amplitude, a.amplitude)
    assert np.allclose(out.phase, a.phase)


def test_phasor_add_destructive():
    out = td.phasor_add(_phasor(1.0, 0.0), _phasor(1.0, np.pi))
    assert np.all(out.amplitude < td.AMPLITUDE_EPSILON)
    assert np.all(out.phase == 0.0)  # undefined phase reported as 0
    assert not out.valid().any()


def test_phasor_add_quarter_turn():
    out = td.phasor_add(_phasor(1.0, 0.0), _phasor(1.0, np.pi / 2))
    assert np.allclose(out.amplitude, np.sqrt(2.0), rtol=1e-12)
    assert np.allclose(out.phase, np.pi / 4, rtol=1e-12)


def test_phasor_add_matches_complex_oracle():
    rng = np.random.default_rng(1)
    a = td.PhasorImage(rng.uniform(0.1, 2, (6, 7)), rng.uniform(0, 2 * np.pi, (6, 7)))
    b = td.PhasorImage(rng.uniform(0.1, 2, (6, 7)), rng.uniform(0, 2 * np.pi, (6, 7)))
    out = td.phasor_add(a, b)
    oracle = a.amplitude * np.exp(1j * a.phase) + b.amplitude * np.exp(1j * b.phase)
    assert np.allclose(out.amplitude, np.abs(oracle), rtol=1e-12)
    assert np.allclose(
        np.exp(1j * out.phase), oracle / np.abs(oracle), rtol=1e-10
    )


def test_phasor_add_commutative_associative():
    rng = np.random.default_rng(2)
    imgs = [
        td.PhasorImage(rng.uniform(0.1, 2, (5, 5)), rng.uniform(0, 2 * np.pi, (5, 5)))
        for _ in range(3)
    ]
    a, b, c = imgs
    ab = td.phasor_add(a, b)
    ba = td.phasor_add(b, a)
    assert np.allclose(ab.amplitude, ba.amplitude, rtol=1e-12)
    left = td.phasor_add(td.phasor_add(a, b), c)
    right = td.phasor_add(a, td.phasor_add(b, c))
    assert np.allclose(left.amplitude, right.amplitude, rtol=1e-12)


def test_phasor_subtract_identity_and_inverse():
    a = _phasor(np.sqrt(2.0), np.pi / 4)
    out = td.phasor_subtract(a, _phasor(0.0, 0.0))
    assert np.allclose(out.amplitude, a.amplitude)
    out = td.phasor_subtract(a, _phasor(1.0, np.pi / 2))
    assert np.allclose(out.amplitude, 1.0, rtol=1e-12)
    assert np.allclose(out.phase, 0.0, atol=1e-12)


def test_phasor_add_subtract_round_trip():
    rng = np.random.default_rng(3)
    a = td.PhasorImage(rng.uniform(0.5, 2, (8, 8)), rng.uniform(0, 2 * np.pi, (8, 8)))
    b = td.PhasorImage(rng.uniform(0.1, 0.4, (8, 8)), rng.uniform(0, 2 * np.pi, (8, 8)))
    back = td.phasor_subtract(td.phasor_add(a, b), b)
    assert np.max(np.abs(back.amplitude - a.amplitude)) < 1e-9


def test_phasor_dimension_mismatch():
    with pytest.raises(ValueError):
        td.phasor_add(_phasor(1, 0, (4, 4)), _phasor(1, 0, (4, 5)))


def test_phasor_image_invariants():
    with pytest.raises(ValueError):
        td.PhasorImage(np.full((2, 2), -1.0), np.zeros((2, 2)))
    img = td.PhasorImage(np.ones((2, 2)), np.full((2, 2), 7.0))
    assert np.all(img.phase >= 0) and np.all(img.phase < 2 * np.pi)


def test_depth_image_background_inf():
    d = td.DepthImage(depth=np.array([[1.0, np.inf], [2.0, 3.0]]))
    assert d.valid.tolist() == [[True, False], [True, True]]
    assert np.isinf(d.depth[0, 1])


def test_depth_image_stores_no_depth_as_inf_only():
    d = td.DepthImage(np.array([[np.nan, -np.inf, 2.0]]))
    assert [f.name for f in dataclasses.fields(d)] == ["depth"]
    assert np.all(np.isposinf(d.depth[0, :2]))
    assert d.valid.tolist() == [[False, False, True]]


@pytest.mark.parametrize("call, match", [
    (lambda: td.CameraModel(16e6, rows=0), "sensor dimensions"),
    (lambda: td.CameraModel(16e6, cols=-1), "sensor dimensions"),
    (lambda: td.PhasorImage(np.ones((2, 2)), np.full((2, 2), np.nan)), "finite"),
    (lambda: td.PhasorImage(np.full((2, 2), np.inf), np.zeros((2, 2))), "finite"),
    (lambda: td.phase_to_depth(-0.1, CAM), r"lie in \[0, 2\*pi\)"),
    (lambda: td.phase_to_depth(2 * np.pi, CAM), r"lie in \[0, 2\*pi\)"),
    (lambda: td.depth_to_phase(np.nan, CAM), "depth must be finite"),
    (lambda: td.depth_to_phase([1000.0, np.inf], CAM), "depth must be finite"),
], ids=["zero-rows", "negative-cols", "nan-phase", "inf-amplitude", "negative-phase",
        "two-pi-phase", "nan-depth", "inf-depth"])
def test_a_value_outside_its_domain_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
