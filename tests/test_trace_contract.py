"""perfbench/spans.py wraps tofdefog's call sites by name; those names must exist.

The benchmark's own tests (`python3 -m pytest perfbench`) are not part of
this suite, so a refactor that renamed a traced name would otherwise only
show when the benchmark ran.
"""

import importlib.util
import json
import os
import sys

from conftest import make_scene

import tofdefog.cli
import tofdefog.forward
import tofdefog.irls
import tofdefog.pipeline
import tofdefog.simrange
from tofdefog.core import PhasorImage
from tofdefog.pipeline import save_scene
from tofdefog.priors import PatchGrid

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
TRACED = (tofdefog.cli, tofdefog.forward, tofdefog.irls, tofdefog.pipeline,
          tofdefog.simrange, PatchGrid, PhasorImage)


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in TRACED]


def replaced(before) -> int:
    """Entries of the traced namespaces that are no longer the object in `before`."""
    return sum(vars(owner).get(name) is not value
               for owner, names in zip(TRACED, before) for name, value in names.items())


def test_tracer_install_wraps_every_name_and_uninstall_restores_it(monkeypatch):
    tracer = load_spans(monkeypatch).Tracer()
    before = snapshot()
    tracer.install()  # AttributeError here: a traced name was renamed or removed
    try:
        assert replaced(before) == len(tracer._patches) > 0
    finally:
        tracer.uninstall()
    assert replaced(before) == 0
    assert [set(names) for names in snapshot()] == [set(names) for names in before]


def test_level_spans_carry_what_the_benchmark_reads(monkeypatch, tmp_path):
    # the hooks read the levels' return values and the defog call's inputs;
    # a change to either would otherwise only show in a traced benchmark run
    scene = tmp_path / "scene" / "scene.json"
    save_scene(make_scene(3.2e-4, seed=1, rows=72, cols=96, flip_row=34), scene)
    capture, out = tmp_path / "capture", tmp_path / "defog"
    assert tofdefog.cli.main(["synth", str(scene), "--out", str(capture)]) == 0
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            assert tofdefog.cli.main([
                "defog", "--amp", str(capture / "foggy_amplitude.tofgrid"),
                "--phase", str(capture / "foggy_phase.tofgrid"), "--out", str(out),
                "--flip-row", "34", "--excluded-rows", "4", "--threads", "2"]) == 0
    finally:
        tracer.uninstall()
    levels = [s for s in tracer.spans if s.name in ("irls.run_coarse", "irls.run_fine")]
    assert sorted((s.attrs["domain"], s.attrs["level"]) for s in levels) == [
        ("amplitude", "coarse"), ("amplitude", "fine"), ("phase", "coarse"), ("phase", "fine")]
    assert all(set(s.attrs) == {"domain", "level", "cg_iters", "outer_iters", "hit_cap"}
               for s in levels)
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    for s in levels:
        entry = solver[f"{s.attrs['domain']}_{s.attrs['level']}"]
        assert s.attrs["outer_iters"] == entry["outer_iterations"]
    metrics = spans.op_layer_metrics(tracer.spans)
    assert metrics["irls.cg_iters"] == sum(s.attrs["cg_iters"] for s in levels) == sum(
        sum(entry["cg_iterations"]) for entry in solver.values())
    assert all(metrics[f"irls.{level}.{domain}.s"] > 0
               for level in ("coarse", "fine") for domain in ("amplitude", "phase"))
