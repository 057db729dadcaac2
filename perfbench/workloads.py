"""Benchmark workloads: inputs from a seed, one timed operation, its check.

An operation is one or two in-process `tofdefog` CLI calls on generated
files.  Input generation and the checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

import tofdefog as td
from tofdefog.core import TWO_PI
from tofdefog.gridfile import read_grid
from tofdefog.pipeline import file_sha256, load_scene, save_scene

import scenes

DEFOG_BETAS = (1.6e-4, 3.2e-4, 4.8e-4)
CRITERION_1_BETA = 3.2e-4    # the medium whose saturation ratios criterion 1 publishes
TINY_ROWS, TINY_COLS = 72, 96   # smallest size whose frames pass criterion 2

# acceptance criterion 2 gates
MAX_DEPTH_ERR_MM = 50.0
MAX_ERR_VS_RAW = 0.2
MIN_IOU = 0.8


@dataclass
class Check:
    ok: bool
    hashes: dict                  # output file name -> sha256
    quality: dict                 # e.g. depth_err_mm, mask_iou
    cg_iters: int | None = None   # manifest CG total (defog only)


def frame_dir(work: str, i: int) -> str:
    return os.path.join(work, f"frame{i}")


@dataclass(frozen=True)
class DefogWorkload:
    """`tofdefog defog` on one synthesized amplitude/phase frame per op."""

    name: str
    rows: int
    cols: int
    threads: int | None = None   # None: the CLI default (TOFDEFOG_THREADS or 2)
    frames: int = 8              # distinct frames per run, cycled by the ops

    def tiny(self) -> DefogWorkload:
        return replace(self, rows=TINY_ROWS, cols=TINY_COLS, frames=1)

    def prepare(self, work: str, seed: int) -> list:
        """Bank frames 0..frames-1, beta cycling over DEFOG_BETAS."""
        return [
            scenes.write_frame(frame_dir(work, i), scenes.make_scene(
                self.rows, self.cols, DEFOG_BETAS[i % len(DEFOG_BETAS)],
                *scenes.draw_objects(i, seed)))
            for i in range(self.frames)
        ]

    def op(self, frame: str, out: str) -> int:
        capture = os.path.join(frame, "capture")
        argv = ["defog",
                "--amp", os.path.join(capture, "foggy_amplitude.tofgrid"),
                "--phase", os.path.join(capture, "foggy_phase.tofgrid"),
                "--out", out]
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        return scenes.run_cli(argv + scenes.geometry_args(self.rows))

    def check(self, frame: scenes.Frame, out: str) -> Check:
        """Acceptance criterion 2 on the written depth and fused mask."""
        depth = read_grid(os.path.join(out, "depth_masked.tofgrid")).values
        mask = read_grid(os.path.join(out, "mask_fused.tofgrid")).values > 0.5
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        covered = frame.true_mask & np.isfinite(depth)
        err = (float(np.abs(depth[covered] - frame.depth_gt[covered]).mean())
               if covered.any() else float("inf"))
        iou = td.mask_iou(td.ObjectMask(mask), td.ObjectMask(frame.true_mask))
        ok = err < MAX_DEPTH_ERR_MM and err <= MAX_ERR_VS_RAW * frame.raw_err_mm \
            and iou >= MIN_IOU
        cg = sum(sum(level["cg_iterations"]) for level in manifest["solver"].values())
        return Check(ok, manifest["outputs"],
                     {"depth_err_mm": err, "mask_iou": iou, "raw_err_mm": frame.raw_err_mm},
                     cg_iters=cg)


PHASE_GRIDS = ("foggy_phase", "scattering_phase_gt")


def _as_stored(values: np.ndarray, phase: bool) -> np.ndarray:
    """What a TOFGRID holds for `values`: float32, phases of 2*pi stored as 0."""
    stored = np.asarray(values, dtype=np.float64).astype("<f4")
    if phase:
        stored = np.where(stored.astype(np.float64) >= TWO_PI, np.float32(0.0), stored)
    return stored.astype(np.float64)


@dataclass(frozen=True)
class CaptureWorkload:
    """`tofdefog synth` on a scene, then `tofdefog simrange` at the same beta."""

    name: str
    rows: int = scenes.KINECT_ROWS
    cols: int = scenes.KINECT_COLS
    beta: float = CRITERION_1_BETA
    frames: int = 4

    def tiny(self) -> CaptureWorkload:
        return replace(self, rows=TINY_ROWS, cols=TINY_COLS, frames=1)

    def prepare(self, work: str, seed: int) -> list:
        """Bank scenes at `beta`; per scene, the synth grids as a TOFGRID stores them."""
        out = []
        for i in range(self.frames):
            path = os.path.join(frame_dir(work, i), scenes.SCENE_FILE)
            save_scene(scenes.make_scene(self.rows, self.cols, self.beta,
                                         *scenes.draw_objects(i, seed)), path)
            scene = load_scene(path)
            syn = td.synthesize(scene)
            grids = {
                "foggy_amplitude": syn.foggy.amplitude,
                "foggy_phase": syn.foggy.phase,
                "depth_gt": syn.clean_depth.depth,
                "scattering_amplitude_gt": syn.scattering_amplitude.values,
                "scattering_phase_gt": syn.scattering_phase.values,
                "mask_gt": syn.true_mask.mask,
                "labels": scene.labels,
            }
            out.append({name: _as_stored(values, phase=name in PHASE_GRIDS)
                        for name, values in grids.items()})
        return out

    def op(self, frame: str, out: str) -> int:
        scene = os.path.join(frame, scenes.SCENE_FILE)
        code = scenes.run_cli(["synth", scene, "--out", os.path.join(out, "capture")])
        if code != 0:
            return code
        return scenes.run_cli(["simrange", "--beta", repr(self.beta),
                               "--out", os.path.join(out, "sweep.csv")])

    def check(self, expected: dict, out: str) -> Check:
        """Synth grids equal the in-memory synthesis; criterion 1 on the sweep."""
        capture = os.path.join(out, "capture")
        grids_equal = all(
            np.array_equal(read_grid(os.path.join(capture, f"{name}.tofgrid")).values, values)
            for name, values in expected.items()
        )
        with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
            rows = {float(r["z_mm"]): r for r in csv.DictReader(fh)}
        near, far = rows[1000.0], rows[8000.0]
        amp_err = 1.0 - float(near["alpha_s"]) / float(far["alpha_s"])
        phase_err = 1.0 - float(near["phi_s"]) / float(far["phi_s"])
        ok = grids_equal and amp_err < 0.01 and 0.05 <= phase_err <= 0.07
        with open(os.path.join(capture, "manifest.json"), encoding="utf-8") as fh:
            hashes = dict(json.load(fh)["outputs"])
        hashes["sweep.csv"] = file_sha256(os.path.join(out, "sweep.csv"))
        return Check(ok, hashes, {"grids_equal": grids_equal,
                                  "amp_sat_err": amp_err, "phase_sat_err": phase_err})


WORKLOADS = {
    # ROADMAP's headline frame: full Kinect size, default profiles and threads,
    # the two domains solved concurrently.
    "kinect-defog": DefogWorkload("kinect-defog", scenes.KINECT_ROWS, scenes.KINECT_COLS,
                                  frames=3),
    # The plain single-threaded baseline: no domain thread pool, 2.8x
    # smaller working set, mirror geometry scaled to the sensor.
    "qvga-serial": DefogWorkload("qvga-serial", 240, 320, threads=1),
    # No solver: forward, simrange, gridfile and manifest hashing; writes
    # more grids than it reads.
    "capture-tools": CaptureWorkload("capture-tools"),
}
