"""Shared scene builders and small solver configs for the test suite."""

from dataclasses import replace

import numpy as np

import tofdefog as td
from tofdefog.priors import FlipOperator

KINECT_FREQ = 16e6


def same_bits(a, b):
    """Whether two arrays agree in shape, dtype and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def apply_system(ws, w, x):
    """The x-step operator A of workspace `ws` for the weights w, applied to x in a new array."""
    ws.reweight(w)
    return ws.apply(x, np.empty_like(x))


def criterion_2(name, scene, syn, res):
    """Criterion 2's score of `res`, a defog of `syn`, the synthesis of `scene`.

    Returns (raw error, defogged error, IoU, coverage).  The errors are mean
    absolute depth errors in mm over the true mask: the raw one of the foggy
    phase's depth, the defogged one of the direct phase's depth on the mask's
    pixels where it is valid, which `coverage` is the share of.  Asserts
    criterion 2's bounds, naming `name`: the defogged error below 50 mm and
    at most 0.2 times the raw one, and an IoU of at least 0.8.
    """
    mask = syn.true_mask.mask
    raw_depth = td.phase_to_depth(syn.foggy.phase, scene.cam)
    raw_err = float(np.abs(raw_depth[mask] - scene.depth_map[mask]).mean())
    depth = td.reconstruct_depth(res.direct, scene.cam, syn.true_mask)
    covered = mask & depth.valid
    defog_err = float(np.abs(depth.depth[covered] - scene.depth_map[covered]).mean())
    iou = td.mask_iou(res.fused_mask, syn.true_mask)
    assert defog_err < 50.0, f"{name}: defogged error {defog_err:.1f} mm"
    assert defog_err <= 0.2 * raw_err, f"{name}: {defog_err:.1f} vs raw {raw_err:.1f} mm"
    assert iou >= 0.8, f"{name}: IoU {iou:.3f}"
    return raw_err, defog_err, iou, covered.sum() / mask.sum()


def small_config(profile="amplitude-kinect16", rows=16, **overrides):
    """Profile constants re-targeted at a small test image."""
    defaults = dict(
        patch_grid=(2, 2),
        flip=FlipOperator(flip_row=rows // 2, excluded_bottom_rows=max(rows // 8, 1)),
    )
    defaults.update(overrides)
    return replace(td.SolverConfig.profile(profile), **defaults)


def quadratic_symmetric_image(rows, cols, flip_row, scale=10.0, curvature=0.01):
    """Globally quadratic field, mirror-symmetric about flip_row."""
    u = np.arange(rows, dtype=float)[:, None] - flip_row
    v = np.arange(cols, dtype=float)[None, :] - (cols - 1) / 2.0
    return scale + curvature * (u * u) + 0.5 * curvature * (v * v) + 0.2 * v


def make_scene(beta, seed, rows=424, cols=512, flip_row=200, coverage="medium"):
    """Synthetic foggy scene: rectangular objects over an empty background."""
    rng = np.random.default_rng(seed)
    cam = td.CameraModel(KINECT_FREQ, rows=rows, cols=cols)
    medium = td.MediumParams(beta=beta, g=0.9, z0=10.0, z_saturate=1000.0)
    depth = np.full((rows, cols), np.inf)
    refl = np.zeros((rows, cols))
    labels = np.zeros((rows, cols), dtype=np.int64)

    def rect(frac_r0, frac_r1, frac_c0, frac_c1):
        return (
            int(frac_r0 * rows), int(frac_r1 * rows),
            int(frac_c0 * cols), int(frac_c1 * cols),
        )

    # several mid-sized objects over a dominant background: the estimator
    # needs clean background in every patch (large object regions are its
    # documented failure mode)
    placements = [
        rect(0.16, 0.30, 0.10, 0.26),
        rect(0.60, 0.78, 0.14, 0.30),
        rect(0.34, 0.50, 0.42, 0.58),
        rect(0.64, 0.82, 0.62, 0.80),
        rect(0.12, 0.26, 0.66, 0.84),
    ]
    if coverage == "small":
        placements = [rect(0.20, 0.48, 0.15, 0.50)]
    for i, (r0, r1, c0, c1) in enumerate(placements, start=1):
        depth[r0:r1, c0:c1] = rng.uniform(1000.0, 2000.0)
        refl[r0:r1, c0:c1] = rng.uniform(0.7, 1.4)
        labels[r0:r1, c0:c1] = i

    return td.SceneSpec(
        depth_map=depth,
        reflectance_map=refl,
        cam=cam,
        medium=medium,
        scattering=td.ScatterProfile(flip_row=flip_row),
        labels=labels,
    )
