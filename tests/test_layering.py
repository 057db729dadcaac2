"""Each module of the package imports only from the modules before it in one order.

    core <- priors, gridfile, recon, forward <- irls, simrange <- pipeline <- cli

Each module may import only the modules listed for it, so the fog model
(forward) never reaches the solver (irls), and the image types all come
from core.  The check reads the sources with `ast`, so it sees imports in
function bodies too and runs none of the package.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "tofdefog")

ALLOWED = {
    "core": set(),
    "priors": {"core"},
    "gridfile": {"core"},
    "recon": {"core"},
    "forward": {"core"},
    "irls": {"core", "priors"},
    "simrange": {"core", "forward"},
    "pipeline": {"core", "forward", "gridfile", "irls", "recon"},
    "cli": {"core", "gridfile", "recon", "forward", "irls", "simrange", "pipeline"},
}


def package_imports(source: str) -> set:
    """The tofdefog modules that `source`, a module of the package, imports at any depth.

    A name from the package itself (`from tofdefog import x`, `from . import x`)
    counts as module x; `import tofdefog` counts as "tofdefog", which runs every module.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] if len(p) > 1 else p[0] for p in parts if p[0] == "tofdefog")
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if not path or path[0] != "tofdefog":
                    continue
                path = path[1:]
            if path:
                found.add(path[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def source_modules() -> dict:
    modules = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                modules[name[:-3]] = fh.read()
    return modules


def test_every_module_has_a_place_in_the_order():
    assert set(source_modules()) == set(ALLOWED)


def test_each_module_imports_only_the_modules_below_it():
    violations = [f"{module} -> {imported}"
                  for module, source in source_modules().items()
                  for imported in sorted(package_imports(source) - ALLOWED.get(module, set()))]
    assert not violations, "imports against the order: " + ", ".join(violations)


def test_every_import_form_is_seen():
    source = """
import numpy
import tofdefog
import tofdefog.core
from tofdefog.priors import dot
from tofdefog import gridfile
from .recon import mask_iou
from . import forward
from json import loads

def late():
    from .irls import SolverConfig
"""
    assert package_imports(source) == {"tofdefog", "core", "priors", "gridfile", "recon",
                                       "forward", "irls"}
