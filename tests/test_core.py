import dataclasses
import json
import math
import re

import numpy as np
import pytest
from conftest import same_bits

import tofdefog as td
from tofdefog.core import json_kwargs, rectangular

CAM = td.CameraModel(16e6)


def test_unambiguous_range():
    assert CAM.unambiguous_range_mm == pytest.approx(9368.5143125)


@pytest.mark.parametrize("tiny", [-1e-17, -1e-16, -4e-16])
def test_wrap_phase_of_a_tiny_negative_phase_is_zero(tiny):
    # np.mod gives exactly 2*pi for these, which no phase grid holds
    assert td.wrap_phase(tiny) == 0.0
    assert np.all(td.wrap_phase(np.full(3, tiny)) == 0.0)


TWO_PI = 2 * np.pi
ULP = np.spacing(TWO_PI)


def np_mod_wrap(phase):
    """wrap_phase's definition: np.mod, with its exact 2*pi for tiny negatives taken as 0."""
    wrapped = np.mod(phase, TWO_PI, out=np.empty(np.shape(phase)))
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


WRAP_CASES = [-0.0, -4.4e-16, -4.5e-16, -2e-16, -TWO_PI + ULP, TWO_PI - ULP, np.pi, -np.pi,
              0.0, 1e-300, -1e-300, 3.0, -3.0]


@pytest.mark.parametrize("value", WRAP_CASES)
def test_wrap_phase_is_np_mod_bit_for_bit_within_one_turn(value):
    assert same_bits(td.wrap_phase(value), np_mod_wrap(value))   # 0-d
    assert same_bits(td.wrap_phase(np.full((2, 3), value)), np_mod_wrap(np.full((2, 3), value)))


@pytest.mark.parametrize("values", [
    WRAP_CASES,
    WRAP_CASES + [TWO_PI],                    # at 2*pi: np.mod's path
    WRAP_CASES + [-TWO_PI],
    [7.0, -7.0, 100.0, -1e6, 13 * np.pi],
    WRAP_CASES + [np.nan],
    [np.nan],
], ids=["within", "two-pi", "minus-two-pi", "beyond", "with-nan", "nan"])
def test_wrap_phase_is_np_mod_bit_for_bit_on_any_grid(values):
    values = np.array(values)
    assert same_bits(td.wrap_phase(values), np_mod_wrap(values))
    assert same_bits(td.wrap_phase(values[:0]), np_mod_wrap(values[:0]))


def test_wrap_phase_of_random_angles_is_np_mod_bit_for_bit():
    rng = np.random.default_rng(4)
    for values in (rng.uniform(-np.pi, np.pi, (64, 80)), rng.uniform(-TWO_PI, TWO_PI, 5000),
                   np.angle(rng.normal(size=4000) + 1j * rng.normal(size=4000))):
        assert same_bits(td.wrap_phase(values), np_mod_wrap(values))


@pytest.mark.parametrize("amplitude", [0.0, 1e-300, 0.7, 3.5e4])
@pytest.mark.parametrize("phase", [0.0, np.pi, TWO_PI - 1e-15, TWO_PI - ULP, 1.0, -np.pi])
def test_rectangular_is_the_polar_product_bit_for_bit(amplitude, phase):
    a, p = np.full((2, 2), amplitude), np.full((2, 2), phase)
    assert same_bits(rectangular(a, p), a * np.exp(1j * p))
    assert same_bits(rectangular(amplitude, phase), amplitude * np.exp(1j * np.asarray(phase)))


def test_rectangular_of_random_grids_is_the_polar_product_bit_for_bit():
    rng = np.random.default_rng(5)
    a, p = rng.uniform(0, 2, (48, 64)), rng.uniform(0, TWO_PI, (48, 64))
    assert same_bits(rectangular(a, p), a * np.exp(1j * p))
    assert same_bits(td.PhasorImage(a, p).to_complex(), a * np.exp(1j * p))
    # a row column of phases takes its exp once per row
    column = rng.uniform(0, TWO_PI, (48, 1))
    assert same_bits(rectangular(a, column), a * np.exp(1j * np.broadcast_to(column, a.shape)))


# the messages the element-wise checks gave; min() propagates NaN, so each
# check has a grid holding a NaN beside a negative value
@pytest.mark.parametrize("amplitude, phase, message", [
    ([1.0, np.nan], [0.0, 0.0], "phasor grids must be finite"),
    ([1.0, np.inf], [0.0, 0.0], "phasor grids must be finite"),
    ([1.0, -np.inf], [0.0, 0.0], "amplitude must be non-negative"),
    ([1.0, -1.0], [0.0, 0.0], "amplitude must be non-negative"),
    ([np.nan, -1.0], [0.0, 0.0], "amplitude must be non-negative"),
    ([-1.0, 1.0], [np.nan, 0.0], "amplitude must be non-negative"),
    ([1.0, 1.0], [np.nan, 0.0], "phasor grids must be finite"),
    ([1.0, 1.0], [np.inf, 0.0], "phasor grids must be finite"),
    ([1.0, 1.0], [-np.inf, 0.0], "phasor grids must be finite"),
    ([1.0, 1.0], [np.nan, -1.0], "phasor grids must be finite"),
], ids=["nan-amplitude", "inf-amplitude", "minus-inf-amplitude", "negative-amplitude",
        "nan-and-negative-amplitude", "negative-amplitude-nan-phase", "nan-phase",
        "inf-phase", "minus-inf-phase", "nan-and-negative-phase"])
def test_phasor_image_errors_are_unchanged(amplitude, phase, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        td.PhasorImage(np.array(amplitude), np.array(phase))


def test_phasor_image_accepts_empty_and_out_of_turn_phases():
    assert td.PhasorImage(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3)
    image = td.PhasorImage(np.ones(3), np.array([-7.0, 7.0, -0.0]))
    assert same_bits(image.phase, np_mod_wrap(np.array([-7.0, 7.0, -0.0])))


@pytest.mark.parametrize("phase, message", [
    (np.nan, "phase must be finite"),
    (np.inf, "phase must be finite"),
    (-np.inf, "phase must be finite"),
    ([np.nan, -1.0], "phase must be finite"),
    ([-1.0, 7.0], "phase must lie in [0, 2*pi)"),
    ([0.5, -1e-300], "phase must lie in [0, 2*pi)"),
    (TWO_PI, "phase must lie in [0, 2*pi)"),
], ids=["nan", "inf", "minus-inf", "nan-and-negative", "negative-and-beyond", "tiny-negative",
        "two-pi"])
def test_phase_to_depth_errors_are_unchanged(phase, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        td.phase_to_depth(phase, CAM)


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


# one valid instance of each class that a JSON object configures, and its JSON path
JSON_CONFIGURED = {
    "CameraModel": (td.CameraModel(16e6, rows=8, cols=8),
                    lambda doc: td.CameraModel(**json_kwargs(td.CameraModel, doc, "camera"))),
    "MediumParams": (td.MediumParams(beta=3.2e-4),
                     lambda doc: td.MediumParams(**json_kwargs(td.MediumParams, doc, "medium"))),
    "ScatterProfile": (td.ScatterProfile(flip_row=4), lambda doc: td.ScatterProfile(
        **json_kwargs(td.ScatterProfile, doc, "scattering"))),
    "FlipOperator": (td.FlipOperator(flip_row=200, excluded_bottom_rows=24),
                     lambda doc: td.FlipOperator(**json_kwargs(td.FlipOperator, doc, "flip"))),
    "SolverConfig": (td.PROFILES["phase-kinect16"], td.SolverConfig.from_json),
}


def wrongly_typed_fields():
    """(class, field, value): each float and int field with each value its JSON type refuses."""
    for cls, (valid, _) in JSON_CONFIGURED.items():
        for f in dataclasses.fields(valid):
            if f.type not in ("float", "int"):
                continue
            extra = [2.5] if f.type == "int" else []
            for value in [True, "1", None, math.nan, math.inf, *extra]:
                yield pytest.param(cls, f.name, value, id=f"{cls}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", wrongly_typed_fields())
def test_every_json_fed_field_refuses_a_wrong_type_by_name(cls, name, value):
    # a bool passed the gammas' comparisons and a string raised TypeError
    valid, from_json = JSON_CONFIGURED[cls]
    named = rf"\b{name}\b"
    with pytest.raises(ValueError, match=named):
        dataclasses.replace(valid, **{name: value})
    doc = json.loads(json.dumps({**dataclasses.asdict(valid), name: value}))
    with pytest.raises(ValueError, match=named):
        from_json(doc)


@pytest.mark.parametrize("cfg", [
    td.PROFILES["amplitude-kinect16"],
    td.PROFILES["phase-kinect16"],
    td.SolverConfig(gamma1=0.25, gamma2=0.0, gamma3=3, c_coarse=1.5, c_fine=2,
                    patch_grid=(2, 3), flip=td.FlipOperator(flip_row=7, excluded_bottom_rows=0),
                    max_outer_iters=3, linear_solver_tol=0.5),
], ids=["amplitude", "phase", "every-field-set"])
def test_a_valid_solver_config_round_trips_through_json_text(cfg):
    assert td.SolverConfig.from_json(json.loads(json.dumps(cfg.to_dict()))) == cfg
