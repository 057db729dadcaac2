"""Command-line interface: synth, defog, replay, eval, simrange.

`defog` starts each domain from its Kinect profile; an --amp-config or
--phase-config file lays its keys over that profile, and the
--flip-row/--excluded-rows/--max-iters flags lay theirs over both.  A run's
manifest records both solver configs complete, which is the one form
`replay` reads.  `synth` writes the camera's modulation frequency into the
headers of the capture's foggy amplitude/phase pair, and `defog` and `eval`
read it from there; `eval` reads the regions from the capture's
labels.tofgrid.  A grid read for a role it does not fit is an InputError.
`defog` and `replay` run the two domain solves on --threads threads, 2 by
default and at most 2.  `simrange` sweeps the one depth grid of `simrange.sweep`.

Exit codes: 0 ok, 2 input error, 3 solver failure, 4 format error.  With
--json, errors go to stderr as one machine-readable JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .core import (CameraModel, DepthImage, InputError, ObjectMask, PhasorImage, json_fits,
                   json_keys, phase_to_depth, read_json)
from .forward import MediumParams, synthesize
from .gridfile import GridFormatError, read_grid, write_grid
from .irls import SolverConfig, SolverError
from .pipeline import DOMAINS, build_manifest, defog, load_scene, thread_count, write_manifest
from .recon import evaluate, report_table_csv
from .simrange import find_range, sweep, write_csv, write_gnuplot_script

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_FORMAT = 4


def _given(**flags) -> dict:
    return {name: value for name, value in flags.items() if value is not None}


def _lay(cfg: SolverConfig, layer) -> SolverConfig:
    """The config document `layer` laid key by key over `cfg`, a flip object's over cfg's flip."""
    if isinstance(layer, dict):
        base = cfg.to_dict()
        if isinstance(layer.get("flip"), dict):
            layer = {**layer, "flip": {**base["flip"], **layer["flip"]}}
        layer = {**base, **layer}
    return SolverConfig.from_json(layer)


def _solver_config(profile: str, config_path: str | None, flags: dict) -> SolverConfig:
    """A domain's solver config: its profile, then its config file's keys, then the flags'."""
    cfg = SolverConfig.profile(profile)
    if config_path:
        doc, _ = read_json(config_path)
        try:
            cfg = _lay(cfg, doc)
        except ValueError as exc:
            raise ValueError(f"{config_path}: {exc}") from exc
    return _lay(cfg, flags)


def _frequency(grids: dict) -> float:
    """The modulation frequency that the headers of a capture's {path: GridFile} all hold."""
    freqs = {path: grid.modulation_frequency_hz for path, grid in grids.items()}
    for path, freq in freqs.items():
        if freq is None:
            raise InputError(f"{path}: header has no modulation_frequency_hz, "
                             f"which a capture's amplitude and phase grids carry")
    if len(set(freqs.values())) > 1:
        raise InputError(f"the capture's grids differ in modulation_frequency_hz: {freqs}")
    return next(iter(freqs.values()))


def _gaussian_filter(values: np.ndarray, sigma: float) -> np.ndarray:
    """A 2-D grid smoothed along axis 0, then axis 1, by a Gaussian of `sigma` px.

    The edges mirror (d c b a | a b c d), again and again for a kernel wider
    than the grid.  Integer tap offsets and the taps added in mirrored pairs,
    outermost first, give scipy.ndimage.gaussian_filter's bits.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    # below sigma ~ 1.5e-154 sigma * sigma is 0; a one-tap kernel is 1.0 at any scale
    w = np.exp(-0.5 / max(sigma * sigma, np.finfo(float).tiny) * x ** 2)
    w = w / w.sum()
    for _ in range(2):  # axis 1 is axis 0 of the transpose
        n = len(values)
        padded = np.pad(values, ((r, r), (0, 0)), mode="symmetric")
        out = values * w[r]
        for j in range(r, 0, -1):
            out += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * w[r + j]
        values = out.T
    return values


def _write_grid(out: str, name: str, values, domain: str, frequency=None) -> tuple:
    """Write one output grid as `out`/`name`, a capture's with its frequency.

    Returns (path, sha256 of the bytes written), a manifest outputs entry.
    """
    path = os.path.join(out, name)
    return path, write_grid(path, values, domain, modulation_frequency_hz=frequency)


# -- subcommands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    scene = load_scene(args.scene)
    result = synthesize(scene, noise_sigma=args.noise, noise_seed=args.noise_seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    labels = result.true_mask.mask if scene.labels is None else scene.labels
    freq = scene.cam.modulation_frequency_hz
    outputs = dict([
        _write_grid(out, "foggy_amplitude.tofgrid", result.foggy.amplitude, "amplitude", freq),
        _write_grid(out, "foggy_phase.tofgrid", result.foggy.phase, "phase", freq),
        _write_grid(out, "depth_gt.tofgrid", result.clean_depth.depth, "depth"),
        _write_grid(out, "scattering_amplitude_gt.tofgrid",
                    result.scattering_amplitude.values, "amplitude"),
        _write_grid(out, "scattering_phase_gt.tofgrid", result.scattering_phase.values, "phase"),
        _write_grid(out, "mask_gt.tofgrid", result.true_mask.mask, "label"),
        _write_grid(out, "labels.tofgrid", labels, "label"),
    ])

    manifest = build_manifest(
        "synth",
        {
            "scene": os.path.abspath(args.scene),
            "noise_sigma": args.noise,
            "noise_seed": args.noise_seed,
        },
        inputs=scene.sources,
        outputs=outputs,
    )
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    print(f"synthesized scene -> {out}")
    return EXIT_OK


def cmd_defog(args) -> int:
    flip = _given(flip_row=args.flip_row, excluded_bottom_rows=args.excluded_rows)
    flags = _given(max_outer_iters=args.max_iters, flip=flip or None)
    # each domain starts from its one profile
    cfgs = [_solver_config(f"{domain}-kinect16", path, flags)
            for domain, path in zip(DOMAINS, (args.amp_config, args.phase_config))]
    return _run(args, cfgs, args.gaussian_sigma, args.amp, args.phase)


def cmd_replay(args) -> int:
    """Rerun a manifest's run on its `config` input paths, whose sha256s must match `inputs`."""
    doc, _ = read_json(args.manifest)
    doc = doc if isinstance(doc, dict) else {}
    config, inputs = doc.get("config"), doc.get("inputs")
    if not (isinstance(config, dict) and isinstance(inputs, dict)):
        raise InputError(f"{args.manifest}: a manifest's config and inputs must be JSON objects")
    try:
        json_keys(config, "config", ["amp_input", *DOMAINS, "phase_input"], ["gaussian_sigma"])
    except ValueError as exc:
        raise InputError(f"{args.manifest}: {exc}") from exc
    paths = [config.get("amp_input"), config.get("phase_input")]
    for path in paths:
        if not (isinstance(path, str) and os.path.isabs(path)):
            raise InputError(f"{args.manifest}: config amp_input and phase_input "
                             f"must be absolute paths, got {path!r}")
    cfgs = []
    for domain in DOMAINS:
        try:
            cfgs.append(SolverConfig.from_json(config[domain]))
        except ValueError as exc:
            raise ValueError(f"{args.manifest}: config.{domain}: {exc}") from exc
    return _run(args, cfgs, config.get("gaussian_sigma"), *paths, expected=inputs)


def _run(args, cfgs: list, sigma, amp_path: str, phase_path: str, expected=None) -> int:
    """Defog the pair under the resolved (amplitude, phase) solver configs, smoothed by `sigma`."""
    # a sigma <= 0 or NaN gives the Gaussian filter no kernel
    if not (sigma is None or json_fits(sigma, "float") and sigma > 0):
        raise InputError(f"Gaussian sigma must be finite and positive, got {sigma!r}")
    # the run's every setting, so that a replay of it needs no defaults
    config = dict(zip(DOMAINS, (cfg.to_dict() for cfg in cfgs)), gaussian_sigma=sigma,
                  amp_input=os.path.abspath(amp_path), phase_input=os.path.abspath(phase_path))

    grids = {amp_path: read_grid(amp_path, "amplitude"),
             phase_path: read_grid(phase_path, "phase")}
    inputs = {path: grid.sha256 for path, grid in grids.items()}
    for path, digest in inputs.items():  # a replay's digests, checked on the bytes the run solves
        if expected is not None and expected.get(path) != digest:
            raise InputError(f"{path}: sha256 differs from the manifest's inputs entry")
    freq = _frequency(grids)
    obs = PhasorImage(grids[amp_path].values, grids[phase_path].values)
    del grids  # obs holds the one copy of each input grid that the run reads
    if sigma is not None:
        # the kernel has 8*sigma+1 taps per axis, and at 1e308 int(4*sigma + 0.5) overflows
        if sigma > max(obs.shape):
            raise InputError(f"Gaussian sigma {sigma!r} exceeds the longer side of the "
                             f"{'x'.join(map(str, obs.shape))} frame")
        # the phasor keeps 0 and 2*pi one value; a complex times a real weight can flip the
        # sign of a zero part, which neither the modulus nor from_complex's wrapped angle sees
        obs = PhasorImage.from_complex(_gaussian_filter(obs.to_complex(), sigma))
    cam = CameraModel(freq, *obs.shape)

    t0 = time.monotonic()
    result = defog(obs, cam, *cfgs, **_given(threads=args.threads))
    solve_s = time.monotonic() - t0
    del obs  # the writes read the result alone

    out = args.out
    os.makedirs(out, exist_ok=True)
    outputs = dict([
        _write_grid(out, "mask_fused.tofgrid", result.fused_mask.mask, "label"),
        _write_grid(out, "depth_masked.tofgrid", result.depth.depth, "depth"),
    ])
    for domain in DOMAINS:
        record = getattr(result, domain)
        outputs.update([_write_grid(out, f"scattering_{domain}.tofgrid", record.field.values,
                                    domain),
                        _write_grid(out, f"weights_{domain}.tofgrid", record.weights,
                                    "weight")])

    manifest = build_manifest(
        "defog",
        config,
        inputs=inputs,
        outputs=outputs,
        solver=result.solver_summary(),
        timings={"solve": solve_s},
    )
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    print(
        f"defogged {os.path.basename(amp_path)} + {os.path.basename(phase_path)} "
        f"-> {out} ({solve_s:.1f} s, mask {result.fused_mask.count()} px)"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    """Score a defog run (`--est`) and the raw capture against a synth capture (`--gt`)."""
    def values(directory, name, domain):
        return read_grid(os.path.join(directory, f"{name}.tofgrid"), domain).values

    depth_est = DepthImage(values(args.est, "depth_masked", "depth"))
    m_est = ObjectMask(values(args.est, "mask_fused", "label") > 0.5)
    depth_gt = DepthImage(values(args.gt, "depth_gt", "depth"))
    m_gt = ObjectMask(values(args.gt, "mask_gt", "label") > 0.5)
    regions = np.rint(values(args.gt, "labels", "label")).astype(np.int64)
    foggy_path = os.path.join(args.gt, "foggy_phase.tofgrid")
    foggy_phase = read_grid(foggy_path, "phase")
    cam = CameraModel(_frequency({foggy_path: foggy_phase}), *depth_gt.shape)
    raw_depth = DepthImage(phase_to_depth(foggy_phase.values, cam))
    raw = evaluate(raw_depth, depth_gt, m_gt, m_gt, regions, label="w/o method")
    raw.mask_iou = float("nan")  # no estimated mask in the raw pipeline
    reports = [raw, evaluate(depth_est, depth_gt, m_est, m_gt, regions, label="proposed")]

    out = args.out or args.est
    os.makedirs(out, exist_ok=True)
    json_path = os.path.join(out, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True,
                  allow_nan=False)
    csv_path = os.path.join(out, "report.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report_table_csv(reports))
    for r in reports:
        print(f"{r.label}: overall {r.overall_mean:.2f} mm, IoU {r.mask_iou:.3f}")
    print(f"report -> {json_path}, {csv_path}")
    return EXIT_OK


def cmd_simrange(args) -> int:
    if args.gnuplot and os.path.realpath(args.gnuplot) == os.path.realpath(args.out):
        raise InputError(f"{args.gnuplot}: the --gnuplot script would overwrite the --out CSV")
    cam = CameraModel(modulation_frequency_hz=args.freq)
    medium = MediumParams(beta=args.beta, g=args.g, z0=args.z0,
                          z_saturate=max(args.z0 + 1.0, 1000.0))
    sweep_ = sweep(medium, cam, reflectance=args.reflectance)
    write_csv(sweep_, args.out)
    z_sat, z_bg = find_range(sweep_)
    if args.gnuplot:
        write_gnuplot_script(args.out, args.gnuplot)
    bg_text = "unbounded" if not np.isfinite(z_bg) else f"{z_bg:.0f} mm"
    print(f"sweep -> {args.out}; z_saturate ~ {z_sat:.0f} mm, z_background ~ {bg_text}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------

@functools.cache  # built on a process's first CLI call, and shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tofdefog",
        description="Scattering removal and depth recovery for CW-ToF images in fog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit errors as JSON on stderr")

    p = sub.add_parser("synth", help="synthesize a foggy capture from a scene JSON")
    p.add_argument("scene", help="scene JSON document")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian sigma on rectangular components")
    p.add_argument("--noise-seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("defog", help="estimate scattering, object mask and depth")
    p.add_argument("--amp", required=True, help="amplitude TOFGRID file")
    p.add_argument("--phase", required=True, help="phase TOFGRID file")
    p.add_argument("--out", required=True)
    p.add_argument("--amp-config", help="JSON file overriding the amplitude config")
    p.add_argument("--phase-config", help="JSON file overriding the phase config")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--flip-row", type=int, default=None)
    p.add_argument("--excluded-rows", type=int, default=None)
    p.add_argument("--gaussian-sigma", type=float,
                   help="smooth the input pair with this Gaussian sigma (px) first")
    p.add_argument("--threads", type=thread_count,
                   help="domain solve threads, one per domain, so 2 at most (default 2)")
    common(p)
    p.set_defaults(func=cmd_defog)

    p = sub.add_parser("replay", help="rerun a defog run from its manifest")
    p.add_argument("manifest", help="the run's manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=thread_count,
                   help="domain solve threads, one per domain, so 2 at most (default 2)")
    common(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval", help="depth error report against ground truth")
    p.add_argument("--est", required=True, help="defog output directory")
    p.add_argument("--gt", required=True, help="synth output directory")
    p.add_argument("--out", default=None, help="report directory (default: --est)")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simrange", help="measurement-range sweep CSV")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--g", type=float, default=0.9)
    p.add_argument("--freq", type=float, default=16e6)
    p.add_argument("--I", dest="reflectance", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=10.0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--gnuplot", help="also write a gnuplot script here")
    common(p)
    p.set_defaults(func=cmd_simrange)

    return parser


def _report_error(exc: Exception, code: int, as_json: bool) -> int:
    if as_json:
        doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except GridFormatError as exc:
        return _report_error(exc, EXIT_FORMAT, as_json)
    except SolverError as exc:
        return _report_error(exc, EXIT_SOLVER, as_json)
    except (ValueError, KeyError, OSError) as exc:
        return _report_error(exc, EXIT_INPUT, as_json)


if __name__ == "__main__":
    sys.exit(main())
