"""End-to-end orchestration: defog runs, scene files, run manifests."""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .core import (TWO_PI, CameraModel, DepthImage, ObjectMask, PhasorImage, ScatteringField,
                   json_fits, json_keys, json_kwargs, read_json, wrap_phase)
from .forward import MeasuredScattering, MediumParams, ScatterProfile, SceneSpec
from .gridfile import read_grid, write_grid
from .irls import IrlsState, SolverConfig, binarize_weights, estimate_scattering
from .recon import fuse_masks, reconstruct_depth, recover_direct

DOMAINS = ("amplitude", "phase")


def thread_count(value) -> int:
    """`value`, an int or its text, as a thread count; ValueError unless it is an int >= 1."""
    try:
        count = int(value) if isinstance(value, str) else value
    except ValueError:  # text that is not an int
        count = None
    if not (json_fits(count, "int") and count >= 1):
        raise ValueError(f"a thread count must be an int of at least 1, got {value!r}")
    return count


@dataclass
class DomainResult:
    """One domain's solver levels, and its full-resolution field, weights and object mask."""

    coarse: IrlsState
    fine: IrlsState
    field: ScatteringField
    weights: np.ndarray
    mask: ObjectMask


@dataclass
class DefogResult:
    amplitude: DomainResult
    phase: DomainResult
    fused_mask: ObjectMask
    direct: PhasorImage
    depth: DepthImage

    def solver_summary(self) -> dict:
        """Each level's IrlsState record, keyed `<domain>_<level>`."""
        return {f"{domain}_{state.level}": state.summary()
                for domain in DOMAINS
                for state in (getattr(self, domain).coarse, getattr(self, domain).fine)}


def defog(obs: PhasorImage, cam: CameraModel,
          amp_cfg: SolverConfig, phase_cfg: SolverConfig,
          threads: int = 2) -> DefogResult:
    """Estimate scattering in both domains, fuse masks, recover depth.

    The amplitude and phase solvers are independent and may run
    concurrently on up to `threads` threads (a thread_count).  Results
    depend neither on the execution order nor on the BLAS thread count.
    The phase is solved half a turn away from its wrap (estimate_scattering's
    `turn`), and the turn picks each field's range: without one it is clamped
    to >= 0, as an amplitude is; with one it is wrapped to [0, 2*pi), as a
    phase is, once recover_direct has read it.
    """
    threads = thread_count(threads)
    cfgs, turns = (amp_cfg, phase_cfg), (None, TWO_PI)
    with ThreadPoolExecutor(max_workers=min(threads, 2)) as pool:
        runs = pool.map(estimate_scattering, (obs.amplitude, obs.phase), cfgs, turns)
    amplitude, phase = (
        DomainResult(coarse, fine, ScatteringField(x if turn else np.maximum(x, 0.0, out=x)),
                     w, binarize_weights(w))
        for (coarse, fine, x, w), turn in zip(runs, turns))
    fused = fuse_masks(amplitude.mask, phase.mask)
    direct = recover_direct(obs, amplitude.field.values, phase.field.values)
    phase.field = ScatteringField(wrap_phase(phase.field.values))
    return DefogResult(amplitude, phase, fused, direct, reconstruct_depth(direct, cam, fused))


# -- scene documents ---------------------------------------------------------

def load_scene(path) -> SceneSpec:
    """Read a scene JSON; grid references resolve relative to the file.

    The scene's `sources` maps the JSON and every grid file read to the
    sha256 of the bytes read, each file read once.  A
    document that is not a JSON object, an unknown or missing key, a wrongly
    typed value, a grid reference that is not a string and a failed SceneSpec
    check raise ValueError; a grid of another domain than its key's,
    InputError.  Each error starts with the scene's path.
    """
    doc, digest = read_json(path)
    base = os.path.dirname(os.path.abspath(str(path)))
    sources = {str(path): digest}

    def grid(section, key, domain):
        name = section.get(key)
        if not isinstance(name, str):
            raise ValueError(f"scene {key} must name a grid file, got {name!r}")
        grid_path = os.path.join(base, name)
        grid_file = read_grid(grid_path, domain)
        sources[grid_path] = grid_file.sha256
        return grid_file.values

    try:
        json_keys(doc, "scene", ("camera", "medium", "depth_map", "reflectance_map"),
                  ("scattering", "labels_map"))
        cam = CameraModel(**json_kwargs(CameraModel, doc["camera"], "camera"))
        medium = MediumParams(**json_kwargs(MediumParams, doc["medium"], "medium"))
        scat_doc = doc.get("scattering", {})
        source = scat_doc.get("source", "analytic") if isinstance(scat_doc, dict) else "analytic"
        if source == "analytic":
            scattering = ScatterProfile(**json_kwargs(ScatterProfile, scat_doc, "scattering",
                                                      extra={"source"}))
        elif source == "measured-image":
            refs = json_kwargs(MeasuredScattering, scat_doc, "scattering", extra={"source"})
            scattering = MeasuredScattering(amplitude=grid(refs, "amplitude", "amplitude"),
                                            phase=grid(refs, "phase", "phase"))
        else:
            raise ValueError(f"unknown scattering source {source!r}")
        labels = None
        if "labels_map" in doc:
            labels = grid(doc, "labels_map", "label")
            labels = np.rint(labels, out=labels).astype(np.int64)
        return SceneSpec(
            depth_map=grid(doc, "depth_map", "depth"),
            reflectance_map=grid(doc, "reflectance_map", "amplitude"),
            cam=cam,
            medium=medium,
            scattering=scattering,
            labels=labels,
            sources=sources,
        )
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_scene(scene: SceneSpec, path) -> None:
    """Write a scene JSON plus its referenced grids next to it."""
    base = os.path.dirname(os.path.abspath(str(path)))
    os.makedirs(base, exist_ok=True)

    def grid(name, values, domain, units=None):
        write_grid(os.path.join(base, name), values, domain, units=units)
        return name

    doc = {
        "camera": asdict(scene.cam),
        "medium": asdict(scene.medium),
        "depth_map": grid("depth_gt.tofgrid", DepthImage(scene.depth_map).depth, "depth"),
        "reflectance_map": grid("reflectance.tofgrid", scene.reflectance_map, "amplitude",
                                units="albedo"),
    }
    if isinstance(scene.scattering, ScatterProfile):
        doc["scattering"] = {"source": "analytic", **asdict(scene.scattering)}
    else:
        doc["scattering"] = {
            "source": "measured-image",
            "amplitude": grid("scattering_amp_in.tofgrid", scene.scattering.amplitude,
                              "amplitude"),
            "phase": grid("scattering_phase_in.tofgrid", scene.scattering.phase, "phase"),
        }
    if scene.labels is not None:
        doc["labels_map"] = grid("labels.tofgrid", scene.labels, "label")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


# -- run manifests ------------------------------------------------------------

def file_sha256(path) -> str:
    """The hex sha256 of the file at `path`, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, config: dict, inputs: dict, outputs: dict,
                   solver: dict | None = None, timings: dict | None = None) -> dict:
    """A run's manifest; `inputs` and `outputs` map each file's path to its sha256.

    Inputs are keyed by absolute path, outputs by file name.
    """
    return {
        "tool": "tofdefog",
        "command": command,
        "created_unix": time.time(),
        "config": config,
        "inputs": {os.path.abspath(str(p)): digest for p, digest in inputs.items()},
        "outputs": {os.path.basename(str(p)): digest for p, digest in outputs.items()},
        "solver": solver or {},
        "timings_s": timings or {},
    }


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
