"""In-memory span tracing of tofdefog, applied from outside the package.

Each traced name is replaced where its caller looks it up (a module
global such as `tofdefog.irls.run_coarse`, or a class attribute such as
`PatchGrid.fit_all`) by a wrapper that records a span: name, start, end,
parent span, operation id and thread.  Nothing under `src/` changes, and
`uninstall` puts every original back.

Spans opened on a thread with no open span of its own (the domain solver
threads of `pipeline.defog`) attach to the innermost open span of the
thread that started the operation, which is the blocked `defog` call.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import tofdefog.cli
import tofdefog.forward
import tofdefog.irls
import tofdefog.pipeline
import tofdefog.simrange
from tofdefog.core import PhasorImage
from tofdefog.priors import PatchGrid


@dataclass(eq=False)
class Span:
    name: str
    op: int | None
    thread: int
    parent: Span | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def operation(self, op: int):
        """Attribute the spans opened inside to operation `op`."""
        self.op = op
        self._root_stack = self._stack()
        try:
            yield
        finally:
            self.op = None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        s = Span(name, self.op, threading.get_ident(), parent, time.perf_counter())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace `owner.attr` by a span-recording wrapper.

        `before(span, args)` and `after(span, args, result)` may store
        attributes on the span; `args` are the call's bound arguments.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if before or after else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                bound = signature.bind(*args, **kwargs).arguments if signature else None
                if before:
                    before(s, bound)
                result = original(*args, **kwargs)
                if after:
                    after(s, bound, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap the public calls of every tofdefog layer at their call sites."""
        cli, pipeline, irls = tofdefog.cli, tofdefog.pipeline, tofdefog.irls
        for owner in (cli, pipeline):
            self.wrap(owner, "read_grid", "gridfile.read_grid", after=_file_bytes)
            self.wrap(owner, "write_grid", "gridfile.write_grid", after=_file_bytes)
        self.wrap(cli, "load_scene", "pipeline.load_scene")
        self.wrap(cli, "build_manifest", "pipeline.build_manifest")
        self.wrap(cli, "write_manifest", "pipeline.write_manifest")
        self.wrap(pipeline, "file_sha256", "pipeline.file_sha256")
        self.wrap(cli, "defog", "pipeline.defog", before=_note_domains, after=_drop_domains)
        self.wrap(pipeline, "estimate_scattering", "irls.estimate_scattering",
                  before=_name_domain)
        self.wrap(irls, "run_coarse", "irls.run_coarse", after=_level_counts)
        self.wrap(irls, "run_fine", "irls.run_fine", after=_level_counts)
        self.wrap(irls, "tukey_weight", "irls.tukey_weight")
        self.wrap(irls, "mad_scale", "irls.mad_scale")
        self.wrap(pipeline, "binarize_weights", "irls.binarize_weights")
        for method in ("fit_all", "surface_image", "patch_norms", "expand_patch_values"):
            self.wrap(PatchGrid, method, f"priors.{method}")
        self.wrap(irls, "symmetry_penalty", "priors.symmetry_penalty")
        self.wrap(irls, "gradient_penalty", "priors.gradient_penalty")
        for name in ("recover_direct", "reconstruct_depth", "fuse_masks"):
            self.wrap(pipeline, name, f"recon.{name}")
        self.wrap(PhasorImage, "__post_init__", "core.PhasorImage")
        self.wrap(cli, "synthesize", "forward.synthesize")
        self.wrap(tofdefog.forward, "scattering_phasor", "forward.scattering_phasor")
        self.wrap(tofdefog.simrange, "scattering_phasor", "forward.scattering_phasor")
        self.wrap(cli, "sweep", "simrange.sweep", after=_sweep_points)
        self.wrap(cli, "find_range", "simrange.find_range")
        self.wrap(cli, "write_csv", "simrange.write_csv")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str, origin: float):
        """One JSON object per span; times in seconds after `origin`."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "thread": s.thread,
                    "parent": ids.get(id(s.parent)) if s.parent else None,
                    "start": s.start - origin, "end": s.end - origin,
                    "attrs": s.attrs,
                }, sort_keys=True) + "\n")


# -- hooks: attributes recorded on spans ---------------------------------------

def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args["path"])


def _note_domains(span, args):
    # the domain solvers receive these very arrays as x_tilde
    obs = args["obs"]
    span.attrs["domain_of"] = {id(obs.amplitude): "amplitude", id(obs.phase): "phase"}


def _drop_domains(span, args, result):
    del span.attrs["domain_of"]


def _name_domain(span, args):
    span.attrs["domain"] = span.parent.attrs["domain_of"].get(id(args["x_tilde"]), "unknown")


def _level_counts(span, args, result):
    span.attrs.update(
        level=result.level,
        domain=span.parent.attrs["domain"],
        cg_iters=int(sum(result.cg_iterations)),
        outer_iters=result.outer_iterations,
        hit_cap=result.outer_iterations >= args["cfg"].max_outer_iters,
    )


def _sweep_points(span, args, result):
    span.attrs["points"] = int(result.z_mm.size)


# -- per-operation metrics -------------------------------------------------------

PER_LAYER = {
    "irls.coarse.amplitude.s": "s",
    "irls.coarse.phase.s": "s",
    "irls.fine.amplitude.s": "s",
    "irls.fine.phase.s": "s",
    "irls.cg_iters": "count",
    "irls.outer_iters": "count",
    "irls.self_s": "s",
    "irls.cg_iters_per_s": "1/s",
    "irls.hit_cap_ratio": "1",
    "irls.weight_update.s": "s",
    "pipeline.defog.s": "s",
    "pipeline.domain_overlap": "1",
    "pipeline.file_sha256.s": "s",
    "priors.fit_all.s": "s",
    "priors.fit_all.calls": "count",
    "priors.surface_image.s": "s",
    "priors.patch_norms.s": "s",
    "priors.penalties.s": "s",
    "gridfile.read_grid.s": "s",
    "gridfile.write_grid.s": "s",
    "gridfile.calls": "count",
    "gridfile.mb_per_s": "MB/s",
    "forward.synthesize.s": "s",
    "forward.scattering_phasor.calls": "count",
    "forward.scattering_phasor.s": "s",
    "simrange.sweep.s": "s",
    "simrange.points_per_s": "1/s",
    "recon.recover_direct.s": "s",
    "recon.reconstruct_depth.s": "s",
    "recon.fuse_masks.s": "s",
    "core.PhasorImage.s": "s",
    "cli.self_s": "s",
    "trace.overhead": "1",
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        clipped = sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)])
        covered, reach = 0.0, s.start
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation (every PER_LAYER name but trace.overhead)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def seconds(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def self_s(name):
        return sum(selfs[id(s)] for s in by_name[name])

    levels = by_name["irls.run_coarse"] + by_name["irls.run_fine"]
    m = {f"irls.{lv}.{dom}.s": 0.0
         for lv in ("coarse", "fine") for dom in ("amplitude", "phase")}
    for s in levels:
        key = f"irls.{s.attrs['level']}.{s.attrs['domain']}.s"
        m[key] = m.get(key, 0.0) + s.duration
    cg = sum(s.attrs["cg_iters"] for s in levels)
    irls_self = self_s("irls.run_coarse") + self_s("irls.run_fine")
    grid_io = by_name["gridfile.read_grid"] + by_name["gridfile.write_grid"]
    points = sum(s.attrs["points"] for s in by_name["simrange.sweep"])
    m.update({
        "irls.cg_iters": cg,
        "irls.outer_iters": sum(s.attrs["outer_iters"] for s in levels),
        "irls.self_s": irls_self,
        "irls.cg_iters_per_s": _ratio(cg, irls_self),
        "irls.hit_cap_ratio": _ratio(sum(s.attrs["hit_cap"] for s in levels), len(levels)),
        "irls.weight_update.s": seconds("irls.tukey_weight", "irls.mad_scale"),
        "pipeline.defog.s": seconds("pipeline.defog"),
        "pipeline.domain_overlap": _ratio(seconds("irls.estimate_scattering"),
                                          seconds("pipeline.defog")),
        "pipeline.file_sha256.s": seconds("pipeline.file_sha256"),
        "priors.fit_all.s": seconds("priors.fit_all"),
        "priors.fit_all.calls": len(by_name["priors.fit_all"]),
        "priors.surface_image.s": seconds("priors.surface_image"),
        "priors.patch_norms.s": seconds("priors.patch_norms"),
        "priors.penalties.s": seconds("priors.symmetry_penalty", "priors.gradient_penalty"),
        "gridfile.read_grid.s": seconds("gridfile.read_grid"),
        "gridfile.write_grid.s": seconds("gridfile.write_grid"),
        "gridfile.calls": len(grid_io),
        "gridfile.mb_per_s": _ratio(sum(s.attrs["bytes"] for s in grid_io) / 1e6,
                                    sum(s.duration for s in grid_io)),
        "forward.synthesize.s": seconds("forward.synthesize"),
        "forward.scattering_phasor.calls": len(by_name["forward.scattering_phasor"]),
        "forward.scattering_phasor.s": seconds("forward.scattering_phasor"),
        "simrange.sweep.s": seconds("simrange.sweep"),
        "simrange.points_per_s": _ratio(points, seconds("simrange.sweep")),
        "recon.recover_direct.s": seconds("recon.recover_direct"),
        "recon.reconstruct_depth.s": seconds("recon.reconstruct_depth"),
        "recon.fuse_masks.s": seconds("recon.fuse_masks"),
        "core.PhasorImage.s": seconds("core.PhasorImage"),
        "cli.self_s": self_s("cli.main"),
    })
    return m


def layer_self_table(ops: list[list[Span]]) -> dict[str, float]:
    """Median over operations of each layer's summed self time."""
    per_op = []
    for spans in ops:
        selfs = self_times(spans)
        totals = defaultdict(float)
        for s in spans:
            totals[s.layer] += selfs[id(s)]
        per_op.append(totals)
    layers = sorted({layer for totals in per_op for layer in totals})
    return {layer: statistics.median(t.get(layer, 0.0) for t in per_op) for layer in layers}
