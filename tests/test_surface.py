"""Every module, every function and every top-level name has a caller
(ROADMAP items 5 and 12).

The rule, applied to the AST and never by importing: a module earns its
place when the ledger, the CLI, a benchmark or an example reaches it —
its own test file and a re-export do not count. A function or public
method earns its place when a file outside ``tests/`` names it. ``from pkg import name``
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
import inspect
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


#: Defs nothing outside ``tests/`` names that stay anyway, each with why.
ALLOWED_UNCALLED = {
    "repro.api.save": "README's documented surface: `repro.api.save(framework, path)`",
    "repro.obs.trace.capture": "README's documented surface: `with obs.capture() as rec:`",
    "repro.compressors.base.LossyCompressor.roundtrip": (
        "13 test files drive it; deleting it would only move it into the tests"
    ),
    "repro.data.io.load_raw_dataset": "docs/ARCHITECTURE.md's entry point for real SDRBench data",
}


def _names_used_outside_tests() -> set[str]:
    """Every name, attribute, identifier string and name imported by a
    module other than a package ``__init__``, in ``src/repro``, the
    ledger, the benchmarks and the examples. ``__all__`` entries do not
    count: a re-export is not a use."""
    used: set[str] = set()
    for path in [*MODULES.values(), *_python_files("ledger", "benchmarks", "examples")]:
        tree = _tree(path)
        exported = {
            id(const)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "__all__"
            for const in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                used.add(node.value)
    return used


def _is_property(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Name):
        return decorator.id in ("property", "cached_property")
    return isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")


def _callable_defs() -> dict[str, str]:
    """``{qualified name: bare name}`` for every module-level function and
    every public non-property method of a module-level class, outside the
    modules ``ALLOWED_UNREACHED`` already lets stand."""
    out = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for mod, path in MODULES.items():
        if mod in ALLOWED_UNREACHED:
            continue
        for node in _tree(path).body:
            if isinstance(node, functions):
                out[f"{mod}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, functions)
                        and not item.name.startswith("_")
                        and not any(_is_property(d) for d in item.decorator_list)
                    ):
                        out[f"{mod}.{node.name}.{item.name}"] = item.name
    return out


def test_every_function_has_a_use_outside_tests():
    """The module rule one level down: a def earns its place when some
    file outside ``tests/`` names it. Names are matched bare, so a common
    name (``fit``, ``to_dict``) can hide an unused def; the rule can miss
    dead code, never flag used code."""
    defs = _callable_defs()
    used = _names_used_outside_tests()
    uncalled = {qual for qual, name in defs.items() if name not in used}
    flagged = sorted(uncalled - set(ALLOWED_UNCALLED))
    assert not flagged, (
        f"named by nothing outside tests/: {flagged} — delete them, or add the "
        "caller (ledger workload, CLI command, benchmark, example) that uses them"
    )
    stale = sorted(set(ALLOWED_UNCALLED) - uncalled)
    assert not stale, f"gone or called now, drop from ALLOWED_UNCALLED: {stale}"


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


def test_readme_surface_table_is_repro_api_all():
    """README's surface table (the one headed ``| entry point |``) names
    every ``repro.api.__all__`` name in backticks, and nothing else."""
    lines = (REPO / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| entry point |"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append(line)
    named = set(re.findall(r"`([^`]+)`", "\n".join(table)))
    exported = set(_dunder_all("repro.api"))
    assert named == exported, (
        f"README table lacks {sorted(exported - named)}; "
        f"names what repro.api does not export: {sorted(named - exported)}"
    )


#: ``repro.obs`` records spans and nothing else: a cumulative count is a
#: field of its owner's typed stats snapshot, a per-call quantity a span
#: attribute, a call count the number of spans of that name.
OBS_SPAN_API = {
    "Span", "TraceRecorder", "span", "timed_span", "enable", "disable", "capture",
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
    "GatewayOptions": {"max_wait_ms", "max_pending", "safety"},
    "StoreOptions": {
        "chunk_shape", "chunk_elements", "closed_loop", "safety", "workers",
        "wave_size", "control",
    },
    "CatalogOptions": {"cache_bytes", "workers", "prefetch_depth"},
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


#: Every constructor keyword of each registered codec, and of the FRaZ
#: search. The codecs run in their default configurations; a keyword
#: stays while a ledger workload or a paper table sets it, so a new codec
#: mode is an edit here, as a new ``*Options`` field is. A stream field is
#: not a keyword: szx and cuszp encode with their module's ``BLOCK`` and
#: still write ``block_size`` into every stream, which decodes with the
#: stream's value.
CODEC_KNOBS = {
    "szx": [],
    "zfp": [],
    "sz3": ["entropy"],
    "sperr": [],
    "cuszp": [],
    "FrazSearch": ["compressor", "tolerance", "max_iterations"],
}


def test_every_codec_knob_is_pinned():
    from repro.compressors.registry import _REGISTRY
    from repro.core.fraz import FrazSearch

    owners = {**_REGISTRY, "FrazSearch": FrazSearch}
    assert set(owners) == set(CODEC_KNOBS), "pin the new codec's keywords here"
    for name, owner in owners.items():
        knobs = list(inspect.signature(owner).parameters)
        assert knobs == CODEC_KNOBS[name], (
            f"{name}: keywords {knobs}, pinned {CODEC_KNOBS[name]} — edit CODEC_KNOBS "
            "with the change"
        )


def _calls_by_function(tree: ast.Module, matches) -> set[str]:
    """Qualified names (``Class.method``) of the innermost functions in
    ``tree`` that hold a call for which ``matches(call)`` is true."""
    found: set[str] = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and matches(child) and where:
                found.add(where)
            visit(child, where)

    visit(tree, "")
    return found


def test_one_training_step_and_one_feedback_path():
    """The error-bound model is trained from one function in
    ``repro.core``: ``fit``, ``refine`` and the feedback loop all end in
    it. The controller takes no feedback loop: the store writer alone
    decides what the loop learns. A second training body or a second
    feedback path is then an edit here, as a new codec keyword is."""

    def is_model_fit(call: ast.Call) -> bool:
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "fit"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "model"
        )

    trainers = {
        f"{mod}.{qual}"
        for mod, path in MODULES.items()
        if mod.startswith("repro.core.")
        for qual in _calls_by_function(_tree(path), is_model_fit)
    }
    assert len(trainers) == 1, f"`.model.fit(` is called from {sorted(trainers)}"

    controller = next(
        node for node in _tree(MODULES["repro.control.controller"]).body
        if isinstance(node, ast.ClassDef) and node.name == "Controller"
    )
    init = next(
        item for item in controller.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    )
    params = [a.arg for a in (*init.args.posonlyargs, *init.args.args, *init.args.kwonlyargs)]
    assert params == ["self", "framework", "options"], params
    assert init.args.vararg is None and init.args.kwarg is None


#: The public methods and properties of the bit writer and reader. The
#: writer keeps one method per kind of field (raw bits, fixed width,
#: variable width, Elias gamma), the reader one per kind it reads, so a
#: second writer for a kind already served is an edit here, as a new
#: codec keyword is.
BIT_IO_API = {
    "BitWriter": {
        "bit_length", "byte_length", "write_bit_array", "write_uint_array",
        "write_varlen_uint_array", "write_elias_gamma", "bits", "getvalue",
    },
    "BitReader": {
        "position", "remaining", "read_bits", "read_bit_array", "read_uint_array",
        "read_unary", "read_elias_gamma",
    },
}


def test_bit_io_surface_is_pinned():
    from repro.encoding import bitstream

    for name, pinned in BIT_IO_API.items():
        api = {attr for attr in vars(getattr(bitstream, name)) if not attr.startswith("_")}
        assert api == pinned, (
            f"{name}: added {sorted(api - pinned)}, removed {sorted(pinned - api)} "
            "— edit BIT_IO_API with the change"
        )


#: Every keyword of each ``get_surrogate`` factory. An estimator runs at
#: the sampling Table 1 gives it; ``stride`` stays on szx and sz3 because
#: ``ablation_sampling`` sweeps it, so a new estimator knob is an edit here.
SURROGATE_KNOBS = {
    "szx": ["stride"],
    "zfp": [],
    "sz3": ["stride"],
    "sperr": [],
    "cuszp": [],
}


def test_every_surrogate_knob_is_pinned():
    from repro.surrogate.registry import _REGISTRY

    assert set(_REGISTRY) == set(SURROGATE_KNOBS), "pin the new surrogate's keywords here"
    for name, factory in _REGISTRY.items():
        knobs = list(inspect.signature(factory).parameters)
        assert knobs == SURROGATE_KNOBS[name], (
            f"{name}: keywords {knobs}, pinned {SURROGATE_KNOBS[name]} — edit "
            "SURROGATE_KNOBS with the change"
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
