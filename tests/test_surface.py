"""Every module and every top-level name has a caller (ROADMAP item 5).

The rule, applied to the AST and never by importing: a module earns its
place when the ledger, the CLI, a benchmark or an example reaches it —
its own test file and a re-export do not count. ``from pkg import name``
is followed through the package's re-exports to the module that defines
``name``, so a package ``__init__`` makes nothing reachable by listing it;
only a package imported as a module object (``from repro import obs``)
counts its ``__init__`` as a caller of what that imports.

The same goes for knobs: every field of every ``*Options`` class on
``repro.api`` is pinned below, so adding one is a visible edit.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Modules nothing reaches that stay anyway, each with what decides it.
ALLOWED_UNREACHED = {
    "repro.__main__": "the `python -m repro` entry point: runs cli.main, imported by nothing",
    "repro.core.feedback": "ROADMAP item 7, the `pack-drift` ledger row decides it",
}


def _module_files() -> dict[str, Path]:
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


MODULES = _module_files()


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


@functools.cache
def _imports(path: Path) -> tuple[tuple[str, str | None, str], ...]:
    """(module, name or None, bound as) for every absolute import in
    ``path``, function-level ones included."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            out += [(a.name, None, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.names[0].name != "*", (
                f"{path}: relative and star imports are not resolved here"
            )
            out += [(node.module, a.name, a.asname or a.name) for a in node.names]
    return tuple(out)


def _defining_module(module: str, name: str | None) -> str | None:
    """The ``repro`` module an import lands in (None: not ours)."""
    if module not in MODULES:
        return None
    if name is None:
        return module
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if MODULES[module].name != "__init__.py":
        return module
    for source, original, bound in _imports(MODULES[module]):
        if bound == name and original is not None:
            return _defining_module(source, original)
    return module  # defined in the __init__ itself


def _targets(path: Path) -> set[str]:
    found = {_defining_module(module, name) for module, name, _ in _imports(path)}
    return found - {None}


def _reached(roots: list[Path]) -> set[str]:
    """Everything the root files import, transitively. A root that is
    itself one of ours (the CLI) is reached by being a root."""
    by_path = {path: mod for mod, path in MODULES.items()}
    seen: set[str] = set()
    stack = [mod for path in roots for mod in _targets(path) | {by_path.get(path)}]
    while stack:
        mod = stack.pop()
        if mod is not None and mod not in seen:
            seen.add(mod)
            stack.extend(_targets(MODULES[mod]))
    # Python runs a package's __init__ before anything beneath it; reached
    # only this way, what the __init__ imports is not followed.
    for mod in list(seen):
        while "." in mod:
            mod = mod.rpartition(".")[0]
            seen.add(mod)
    return seen


def _python_files(*dirs: str) -> list[Path]:
    return [p for d in dirs for p in sorted((REPO / d).glob("*.py"))]


def _dunder_all(module: str) -> list[str]:
    (exported,) = [
        ast.literal_eval(node.value)
        for node in _tree(MODULES[module]).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    ]
    return exported


def test_every_module_is_reached_from_a_root():
    roots = _python_files("ledger", "benchmarks", "examples") + [MODULES["repro.cli"]]
    reached = _reached(roots)
    orphans = sorted(set(MODULES) - reached - set(ALLOWED_UNREACHED))
    assert not orphans, (
        f"reached only by their own tests or a re-export: {orphans} — delete "
        "them, or add the ledger workload, CLI command, benchmark or example "
        "that uses them"
    )
    stale = sorted(set(ALLOWED_UNREACHED) & reached)
    assert not stale, f"reached now, drop from ALLOWED_UNREACHED: {stale}"


def test_every_top_level_name_is_imported_by_some_file():
    """``from repro import name`` or ``repro.name`` in the ledger, an
    example, a benchmark, a test, or a README / docs snippet."""
    used: set[str] = set()
    for path in _python_files("ledger", "benchmarks", "examples", "tests"):
        used |= {name for module, name, _ in _imports(path) if module == "repro"}
        used |= {
            node.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
        }
    snippet = re.compile(r"^\s*from repro import (\([^)]*\)|.*)", re.MULTILINE)
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for imported in snippet.findall(doc.read_text()):
            used |= set(re.findall(r"\w+", imported))
    unused = sorted(set(_dunder_all("repro")) - used)
    assert not unused, (
        f"in repro.__all__ but read from `repro` by no file: {unused} — their "
        "deep import paths and repro.api stay; the top level re-exports what "
        "something uses"
    )


#: ``repro.obs`` records spans and nothing else: a cumulative count is a
#: field of its owner's typed stats snapshot, a per-call quantity a span
#: attribute, a call count the number of spans of that name.
OBS_SPAN_API = {
    "Span", "StageClock", "TraceRecorder", "span", "timed_span", "emit_span",
    "enable", "disable", "enabled", "capture", "get_recorder",
    "export_trace", "load_trace", "StageStats", "aggregate", "format_summary",
}
METRIC_MIRROR_NAMES = {"count", "observe", "set_gauge", "set_gauge_max", "MetricsRegistry"}


def test_obs_is_the_span_api_and_the_metric_mirror_stays_gone():
    exported = _dunder_all("repro.obs")
    assert set(exported) == OBS_SPAN_API and len(exported) == len(OBS_SPAN_API)
    assert "repro.obs.metrics" not in MODULES
    offenders = []
    for mod, path in MODULES.items():
        tree = _tree(path)
        defined = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        imported = {n for _, name, bound in _imports(path) for n in (name, bound)}
        called = {
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        hits = (defined | imported | called) & METRIC_MIRROR_NAMES
        if hits:
            offenders.append((mod, sorted(hits)))
    assert not offenders, (
        f"a string-keyed metric mirror is back: {offenders} — count it in the "
        "owner's typed stats, or put it on the span that times the call"
    )


#: Every knob a caller can set, per ``*Options`` class ``repro.api``
#: exports. A knob pays rent in a ledger row or a stated guarantee; one
#: that stops paying leaves, and this table shrinks with it.
OPTION_FIELDS = {
    "ServiceOptions": {"cache_entries"},
    "GatewayOptions": {"max_batch", "max_wait_ms", "max_pending", "safety"},
    "StoreOptions": {
        "chunk_shape", "chunk_elements", "closed_loop", "safety",
        "min_chunk_ratio", "max_chunk_ratio", "workers", "wave_size",
        "timeout_seconds", "control",
    },
    "CatalogOptions": {
        "cache_bytes", "workers", "max_pending", "timeout_seconds", "verify",
        "prefetch_depth", "prefetch_min_run",
    },
    "ControlOptions": {
        "t0_std", "t0_pressure", "t2_std", "t2_pressure", "risk_budget",
        "refine_compressions", "refine_tolerance", "heuristic_points",
        "std_window",
    },
}


def test_every_options_knob_is_pinned():
    import repro.api

    exported = {name for name in repro.api.__all__ if name.endswith("Options")}
    assert exported == set(OPTION_FIELDS), "pin the new *Options class's fields here"
    for name, pinned in OPTION_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(getattr(repro.api, name))}
        assert fields == pinned, (
            f"{name}: added {sorted(fields - pinned)}, removed {sorted(pinned - fields)} "
            "— edit OPTION_FIELDS with the change"
        )


_NO_SCIPY = """
import sys

import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro
from repro.ml import gp

assert not scipy_modules(), scipy_modules()
grid_fits = []
grid_nll = gp._grid_nll
gp._grid_nll = lambda X, y: grid_fits.append(len(y)) or grid_nll(X, y)
fields = repro.load_dataset("miranda", shape=(8, 12, 12))[:3]
repro.Carol("szx", rel_error_bounds=np.geomspace(1e-3, 1e-1, 5), n_iter=8, cv=2).fit(fields)
assert grid_fits, "the fit never reached the GP's hyper-parameter grid"
assert not scipy_modules(), scipy_modules()
"""


def test_scipy_is_never_loaded():
    """The package needs NumPy only: no ``scipy*`` module is loaded by
    ``import repro``, nor by a CAROL fit long enough for the Bayesian
    optimizer's GP to search its hyper-parameter grid (scipy cost every
    process ~40 MiB of resident memory)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", _NO_SCIPY], check=True, env=env, cwd=REPO)
