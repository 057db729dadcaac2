"""Seeded synthetic scenes and captures for the benchmark workloads.

Objects are placed like the acceptance suite's scenes: five mid-size
rectangles over an empty background, given as fractions of the frame so
the layout scales to any sensor size, each with a depth in 1-2 m and a
reflectance in 0.7-1.4.  The mirror geometry of the Kinect v2 profiles
scales the same way.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

import tofdefog as td
from tofdefog.cli import main as cli_main
from tofdefog.gridfile import read_grid
from tofdefog.pipeline import save_scene

KINECT_ROWS, KINECT_COLS = 424, 512
KINECT_FREQ = 16e6
KINECT_FLIP = td.SolverConfig.profile("amplitude-kinect16").flip
SCENE_FILE = os.path.join("scene", "scene.json")

# (row0, row1, col0, col1) as fractions of the frame
PLACEMENTS = (
    (0.16, 0.30, 0.10, 0.26),
    (0.60, 0.78, 0.14, 0.30),
    (0.34, 0.50, 0.42, 0.58),
    (0.64, 0.82, 0.62, 0.80),
    (0.12, 0.26, 0.66, 0.84),
)


def mirror_geometry(rows: int) -> tuple[int, int]:
    """Flip row and excluded bottom rows of the Kinect profiles, scaled to `rows`."""
    return (round(KINECT_FLIP.flip_row * rows / KINECT_ROWS),
            round(KINECT_FLIP.excluded_bottom_rows * rows / KINECT_ROWS))


def geometry_args(rows: int) -> list[str]:
    """`defog` flags for the scaled mirror geometry; none at the native size."""
    if rows == KINECT_ROWS:
        return []
    flip_row, excluded = mirror_geometry(rows)
    return ["--flip-row", str(flip_row), "--excluded-rows", str(excluded)]


# Frame i of every run draws its objects from the same bank stream; the
# run's seed scales all depths and all reflectances by factors within
# +-JITTER.  So every seed gives different bytes but the same solver work:
# across independent draws the CG count of one 240x320 frame ranges from
# 3,100 to 7,300, which would swamp any run-to-run comparison.
BANK_SEED = 1904
JITTER = 0.005


def draw_objects(index: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Depths (mm) and reflectances of the objects of bank frame `index`."""
    bank = np.random.default_rng([BANK_SEED, index])
    depths = bank.uniform(1000.0, 2000.0, len(PLACEMENTS))
    reflectances = bank.uniform(0.7, 1.4, len(PLACEMENTS))
    scale = 1.0 + np.random.default_rng([seed, index]).uniform(-JITTER, JITTER, 2)
    return depths * scale[0], reflectances * scale[1]


def make_scene(rows: int, cols: int, beta: float, depths, reflectances) -> td.SceneSpec:
    """Noise-free foggy scene: one object per placement over empty background."""
    depth = np.full((rows, cols), np.inf)
    refl = np.zeros((rows, cols))
    labels = np.zeros((rows, cols), dtype=np.int64)
    for i, (r0, r1, c0, c1) in enumerate(PLACEMENTS):
        region = (slice(int(r0 * rows), int(r1 * rows)), slice(int(c0 * cols), int(c1 * cols)))
        depth[region] = depths[i]
        refl[region] = reflectances[i]
        labels[region] = i + 1
    return td.SceneSpec(
        depth_map=depth,
        reflectance_map=refl,
        cam=td.CameraModel(KINECT_FREQ, rows=rows, cols=cols),
        medium=td.MediumParams(beta=beta, g=0.9, z0=10.0, z_saturate=1000.0),
        scattering=td.ScatterProfile(flip_row=mirror_geometry(rows)[0]),
        labels=labels,
    )


def run_cli(argv: list[str]) -> int:
    """`tofdefog <argv>` in-process, with its progress line discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


@dataclass
class Frame:
    """The ground truth a defog op's check needs."""

    true_mask: np.ndarray
    depth_gt: np.ndarray
    raw_err_mm: float       # foggy depth error inside the true mask


def write_frame(directory: str, scene: td.SceneSpec) -> Frame:
    """Save `scene` under `directory` and synthesize it with `tofdefog synth`."""
    scene_path = os.path.join(directory, SCENE_FILE)
    capture_dir = os.path.join(directory, "capture")
    save_scene(scene, scene_path)
    code = run_cli(["synth", scene_path, "--out", capture_dir])
    if code != 0:
        raise RuntimeError(f"tofdefog synth exited with {code} for {scene_path}")
    true_mask = read_grid(os.path.join(capture_dir, "mask_gt.tofgrid")).values > 0.5
    depth_gt = read_grid(os.path.join(capture_dir, "depth_gt.tofgrid")).values
    raw_depth = td.phase_to_depth(
        read_grid(os.path.join(capture_dir, "foggy_phase.tofgrid")).values, scene.cam)
    raw_err = float(np.abs(raw_depth[true_mask] - depth_gt[true_mask]).mean())
    return Frame(true_mask, depth_gt, raw_err)
