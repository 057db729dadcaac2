"""Direct-component recovery, depth reconstruction and evaluation metrics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import CameraModel, DepthImage, ObjectMask, PhasorImage, phase_to_depth, phasor_subtract

# The direct component is the observation minus the scattering phasor, per pixel
recover_direct = phasor_subtract


def reconstruct_depth(direct: PhasorImage, cam: CameraModel, mask: ObjectMask) -> DepthImage:
    """Depth from the recovered direct phase, defined on mask & valid pixels."""
    if mask.shape != direct.shape:
        raise ValueError("mask shape does not match image")
    depth = phase_to_depth(direct.phase, cam)
    depth[~(direct.valid() & mask.mask)] = np.inf
    return DepthImage(depth=depth)


def fuse_masks(amp_mask: ObjectMask, phase_mask: ObjectMask) -> ObjectMask:
    """Final object mask: intersection of the per-domain masks."""
    if amp_mask.shape != phase_mask.shape:
        raise ValueError("mask shapes differ")
    return ObjectMask(mask=amp_mask.mask & phase_mask.mask)


def mask_iou(a: ObjectMask, b: ObjectMask) -> float:
    union = np.logical_or(a.mask, b.mask).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a.mask, b.mask).sum() / union)


@dataclass
class DepthErrorReport:
    """Mean absolute depth error per labeled region, plus mask quality."""

    label: str
    region_errors: dict = field(default_factory=dict)   # region id -> mm
    region_counts: dict = field(default_factory=dict)   # region id -> pixels
    overall_mean: float = float("nan")
    mask_iou: float = float("nan")

    def to_dict(self) -> dict:
        """JSON-ready fields; a missing value (NaN) is None, JSON's null."""
        def value(v):
            return None if math.isnan(v) else v

        return {
            "label": self.label,
            "region_errors_mm": {str(k): value(v) for k, v in self.region_errors.items()},
            "region_pixel_counts": {str(k): v for k, v in self.region_counts.items()},
            "overall_mean_mm": value(self.overall_mean),
            "mask_iou": value(self.mask_iou),
        }


def evaluate(depth_est: DepthImage, depth_gt: DepthImage,
             mask_est: ObjectMask, mask_gt: ObjectMask,
             regions, label: str = "proposed") -> DepthErrorReport:
    """Per-region mean |z_est - z_gt| over pixels where both depths exist.

    `regions` is an integer label grid; label 0 is background and is not
    reported.  Mask IoU compares the estimated and ground-truth object
    masks.
    """
    regions = np.asarray(regions)
    shapes = {"estimated depth": depth_est.shape, "estimated mask": mask_est.mask.shape,
              "ground-truth depth": depth_gt.shape, "ground-truth mask": mask_gt.mask.shape,
              "regions": regions.shape}
    if len(set(shapes.values())) > 1:
        raise ValueError("evaluation grids must share one shape, got " + ", ".join(
            f"{name} {'x'.join(map(str, shape))}" for name, shape in shapes.items()))
    both = depth_est.valid & depth_gt.valid
    diff = np.zeros(depth_est.shape)
    diff[both] = np.abs(depth_est.depth[both] - depth_gt.depth[both])

    report = DepthErrorReport(label=label, mask_iou=mask_iou(mask_est, mask_gt))
    labels = [int(v) for v in np.unique(regions) if v != 0]
    all_sel = np.zeros_like(both)
    for lab in labels:
        sel = (regions == lab) & both
        all_sel |= sel
        n = int(sel.sum())
        report.region_counts[lab] = n
        report.region_errors[lab] = float(diff[sel].mean()) if n else float("nan")
    report.overall_mean = float(diff[all_sel].mean()) if all_sel.any() else float("nan")
    return report


def report_table_csv(reports) -> str:
    """CSV with one column per region and one row per estimate.

    Mirrors the usual per-object error table: rows are labeled estimates
    (e.g. "w/o method" and "proposed"), cells are mm errors.
    """
    labels = sorted({lab for r in reports for lab in r.region_errors})
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([""] + [f"region_{lab}" for lab in labels] + ["overall_mm", "mask_iou"])
    for r in reports:
        writer.writerow(
            [r.label]
            + [f"{r.region_errors.get(lab, float('nan')):.2f}" for lab in labels]
            + [f"{r.overall_mean:.2f}", f"{r.mask_iou:.4f}"]
        )
    return out.getvalue()
