"""Every ``path.py`` / ``path.py::name`` in docs/ARCHITECTURE.md resolves.

A path with a directory resolves against the repo root or
``src/repro/``; a bare file name resolves to a file of that name under
``src/``, ``tests/`` or ``examples/``.  ``::name`` must be a class or
function defined in that file, ``Class.method`` a method of that class.
A change that deletes a module or a definition must restate the
passage that describes it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "ARCHITECTURE.md"
REFERENCE = re.compile(r"(?<![\w/.])((?:\w+/)*\w+\.py)(?:::([\w.]+))?")
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _file(path: str):
    if "/" in path:
        for base in (ROOT, ROOT / "src" / "repro"):
            if (base / path).is_file():
                return base / path
        return None
    for base in ("src", "tests", "examples"):
        hits = sorted((ROOT / base).rglob(path))
        if hits:
            return hits[0]
    return None


def _defines(path: pathlib.Path, dotted: str) -> bool:
    scopes = [ast.parse(path.read_text())]
    for part in dotted.split("."):
        scopes = [node for scope in scopes for node in ast.walk(scope)
                  if isinstance(node, _DEFS) and node.name == part]
        if not scopes:
            return False
    return True


def _resolves(path: str, name: str) -> bool:
    found = _file(path)
    return found is not None and (not name or _defines(found, name))


def test_every_reference_resolves():
    references = sorted(set(REFERENCE.findall(DOC.read_text())))
    # Guard against a pattern that silently matches nothing.
    assert len(references) >= 30, references
    unresolved = [f"{path}::{name}" if name else path
                  for path, name in references if not _resolves(path, name)]
    assert unresolved == []


def test_a_deleted_definition_does_not_resolve():
    assert _resolves("placement/runtime.py", "build_timed")
    assert _resolves("dataplane/functional.py",
                     "FunctionalDataplane.process_many")
    assert not _resolves("placement/runtime.py", "PlacedDataplane")
    assert not _resolves("core/micrograph.py", "")
    assert not _resolves("dataplane/functional.py",
                         "FunctionalDataplane.maybe_tick")
