import numpy as np
import pytest

import tofdefog as td
from tofdefog.recon import (
    DepthErrorReport,
    ObjectMask,
    evaluate,
    fuse_masks,
    mask_iou,
    reconstruct_depth,
    recover_direct,
    report_table_csv,
)

CAM = td.CameraModel(16e6, rows=6, cols=8)


def phasor_from_complex(values):
    return td.PhasorImage.from_complex(np.asarray(values, dtype=complex))


def test_recover_direct_zero_scattering_is_identity():
    rng = np.random.default_rng(0)
    obs = td.PhasorImage(rng.uniform(0.5, 2, (6, 8)), rng.uniform(0, 2 * np.pi, (6, 8)))
    zeros = np.zeros((6, 8))
    out = recover_direct(obs, zeros, zeros)
    assert np.allclose(out.amplitude, obs.amplitude, rtol=1e-12)
    assert np.allclose(out.phase, obs.phase, rtol=1e-12)


def test_recover_direct_round_trip():
    rng = np.random.default_rng(1)
    direct = rng.uniform(0.5, 2, (6, 8)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 8)))
    scat_amp = rng.uniform(0.1, 0.5, (6, 8))
    scat_phase = rng.uniform(0, 0.5, (6, 8))
    obs = phasor_from_complex(direct + scat_amp * np.exp(1j * scat_phase))
    out = recover_direct(obs, scat_amp, scat_phase)
    assert np.max(np.abs(out.amplitude - np.abs(direct))) < 1e-9
    assert np.allclose(np.exp(1j * out.phase), direct / np.abs(direct), atol=1e-9)


def test_recover_direct_pure_background_flagged_invalid():
    scat_amp = np.full((6, 8), 0.7)
    scat_phase = np.full((6, 8), 0.3)
    obs = phasor_from_complex(scat_amp * np.exp(1j * scat_phase))
    out = recover_direct(obs, scat_amp, scat_phase)
    assert np.all(out.amplitude < td.AMPLITUDE_EPSILON)
    assert not out.valid().any()


def test_recover_direct_shape_mismatch():
    obs = td.PhasorImage(np.ones((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        recover_direct(obs, np.zeros((4, 5)), np.zeros((4, 5)))


def test_reconstruct_depth_values_and_masking():
    amp = np.ones((6, 8))
    phase = np.zeros((6, 8))
    phase[2, 3] = td.depth_to_phase(1500.0, CAM)
    amp[4, 4] = 0.0  # invalid: background pixel with no direct return
    direct = td.PhasorImage(amp, phase)
    mask = ObjectMask(np.ones((6, 8), dtype=bool))
    depth = reconstruct_depth(direct, CAM, mask)
    assert depth.depth[0, 0] == 0.0
    assert depth.depth[2, 3] == pytest.approx(1500.0, abs=0.01)
    assert not depth.valid[4, 4] and np.isinf(depth.depth[4, 4])

    half = np.zeros((6, 8), dtype=bool)
    half[:3] = True
    masked = reconstruct_depth(direct, CAM, ObjectMask(half))
    assert masked.valid[:3].all() and not masked.valid[3:].any()


def test_fuse_masks_truth_table():
    a = ObjectMask(np.array([[True, True, False, False]]))
    b = ObjectMask(np.array([[True, False, True, False]]))
    assert fuse_masks(a, b).mask.tolist() == [[True, False, False, False]]


def test_fuse_masks_algebra():
    rng = np.random.default_rng(2)
    a = ObjectMask(rng.random((5, 5)) > 0.5)
    b = ObjectMask(rng.random((5, 5)) > 0.5)
    c = ObjectMask(rng.random((5, 5)) > 0.5)
    assert np.array_equal(fuse_masks(a, b).mask, fuse_masks(b, a).mask)
    assert np.array_equal(
        fuse_masks(fuse_masks(a, b), c).mask, fuse_masks(a, fuse_masks(b, c)).mask
    )
    assert np.array_equal(fuse_masks(a, a).mask, a.mask)
    disjoint = fuse_masks(ObjectMask(~a.mask), a)
    assert disjoint.count() == 0


def test_mask_iou_range():
    a = ObjectMask(np.zeros((4, 4), dtype=bool))
    assert mask_iou(a, a) == 1.0  # both empty
    b = ObjectMask(np.ones((4, 4), dtype=bool))
    assert mask_iou(a, b) == 0.0


def _depths(values):
    return td.DepthImage(depth=np.asarray(values, dtype=float))


def test_evaluate_exact_match():
    gt = _depths(np.full((4, 6), 1500.0))
    regions = np.zeros((4, 6), dtype=int)
    regions[:2] = 1
    regions[2:] = 2
    mask = ObjectMask(np.ones((4, 6), dtype=bool))
    report = evaluate(gt, gt, mask, mask, regions)
    assert report.region_errors == {1: 0.0, 2: 0.0}
    assert report.overall_mean == 0.0
    assert report.mask_iou == 1.0


def test_evaluate_constant_offset():
    gt = _depths(np.full((4, 6), 1500.0))
    est_vals = np.full((4, 6), 1500.0)
    regions = np.zeros((4, 6), dtype=int)
    regions[1:3, 2:5] = 1
    est_vals[regions == 1] += 10.0
    mask = ObjectMask(regions == 1)
    report = evaluate(_depths(est_vals), gt, mask, mask, regions)
    assert report.region_errors[1] == pytest.approx(10.0)
    assert report.region_counts[1] == 6


def test_evaluate_permutation_invariant_within_region():
    rng = np.random.default_rng(3)
    gt = np.full((1, 16), 1200.0)
    err = rng.uniform(-40, 40, 16)
    regions = np.ones((1, 16), dtype=int)
    mask = ObjectMask(np.ones((1, 16), dtype=bool))
    r1 = evaluate(_depths(gt + err), _depths(gt), mask, mask, regions)
    perm = rng.permutation(16)
    r2 = evaluate(_depths(gt + err[perm]), _depths(gt), mask, mask, regions)
    assert r1.region_errors[1] == pytest.approx(r2.region_errors[1], rel=1e-12)


def test_evaluate_skips_invalid_pixels():
    gt_vals = np.full((2, 4), 1000.0)
    gt_vals[0, 0] = np.inf
    est_vals = np.full((2, 4), 1010.0)
    regions = np.ones((2, 4), dtype=int)
    mask = ObjectMask(np.ones((2, 4), dtype=bool))
    report = evaluate(_depths(est_vals), _depths(gt_vals), mask, mask, regions)
    assert report.region_counts[1] == 7
    assert report.region_errors[1] == pytest.approx(10.0)


def test_report_table_mirrors_per_object_layout():
    # reference numbers from the medium-fog controlled scene: the "Plane"
    # column reads 253.38 mm before and 20.67 mm after scattering removal
    raw = DepthErrorReport(
        label="w/o method",
        region_errors={1: 253.38, 2: 372.02},
        region_counts={1: 100, 2: 80},
        overall_mean=300.0,
        mask_iou=float("nan"),
    )
    prop = DepthErrorReport(
        label="proposed",
        region_errors={1: 20.67, 2: 60.27},
        region_counts={1: 100, 2: 80},
        overall_mean=38.0,
        mask_iou=0.93,
    )
    csv_text = report_table_csv([raw, prop])
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",region_1,region_2,overall_mm,mask_iou"
    assert lines[1].startswith("w/o method,253.38,372.02")
    assert lines[2].startswith("proposed,20.67,60.27")
    doc = prop.to_dict()
    assert doc["region_errors_mm"]["1"] == 20.67


@pytest.mark.parametrize("call, match", [
    (lambda: reconstruct_depth(td.PhasorImage(np.ones((6, 8)), np.zeros((6, 8))), CAM,
                               ObjectMask(np.ones((6, 7), dtype=bool))), "mask shape"),
    (lambda: fuse_masks(ObjectMask(np.ones((4, 4), dtype=bool)),
                        ObjectMask(np.ones((4, 5), dtype=bool))), "mask shapes differ"),
], ids=["reconstruct-depth", "fuse-masks"])
def test_masks_of_another_shape_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
