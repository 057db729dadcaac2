"""perfbench/spans.py wraps tofdefog's call sites by name; those names must exist.

The benchmark's own tests (`python3 -m pytest perfbench`) are not part of
this suite, so a refactor that renamed a traced name would otherwise only
show when the benchmark ran.
"""

import importlib.util
import os
import sys

import tofdefog.cli
import tofdefog.forward
import tofdefog.irls
import tofdefog.pipeline
import tofdefog.simrange
from tofdefog.core import PhasorImage
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
