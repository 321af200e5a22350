"""Which functions of ``src/repro`` no user path reaches, and which
option values no gated output shows.

    PYTHONPATH=src python tests/reachability.py

runs the user paths under a call-only trace hook and prints every
function defined under ``src/repro`` whose code never ran:

- every script under ``examples/`` at scale 0.005;
- the CLI golden argvs (``tests/test_eval_cli.py::CASES``) and the
  ``workload --trace`` record/replay;
- the eleven ``FIGURES`` rendered at scale 0.005;
- the benchmark smoke (``perf/run.py --smoke --reps 1``);
- ``benchmarks/`` at ``REPRO_SCALE=0.01`` (some of their shape
  assertions fail at that size; only the calls matter here).

It takes about two minutes.  Three kinds of unreached function are
exempt by rule, each counted: bodies that are only a docstring or
``...`` (protocol members, no-op hooks), dunder methods, and every
target of ``perf/shim.py``'s ``WRAP_TABLE`` (the benchmark resolves
them by name, through inheritance).  Anything else that is kept
unreached sits on ``ALLOWED`` with its reason.  The figure tables the
benchmarks record go to a scratch directory, so the checkout stays
clean.  Exits 1 when a function is unreached and not exempt, or when
an allow-list entry is reached after all (the list only shrinks).

Matching is by ``(file, first line)``: a code object's
``co_firstlineno`` is its first decorator's line, so properties,
static methods and cached functions match their ``def`` too.  A branch
that never runs inside a called function is not counted.

The same hook is the option probe.  When a resolver of ``RESOLVERS``
starts, it reads the value the resolver was called with (a ready
instance counts under its ``name``, ``None`` as ``"none"``) and notes
the user path it ran under.  Only the gated paths count: the CLI
goldens, the figures and ``benchmarks/``, whose outputs are committed
and compared.  Every value of a registry that no gated path looked up
is listed, and the probe exits 1 on it: an option value no committed
output is produced under is code nobody checks.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import inspect
import importlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# "module:Qualified.name" -> why it stays although no user path calls it.
ALLOWED: dict[str, str] = {
    "repro.buffer.policy:LRUKBuffer._select_victim": (
        "LRU-K evicts at REPRO_SCALE=0.08 (the buffer-policy ablation); "
        "at 0.01 its pool holds the whole map"
    ),
    "repro.buffer.policy:LRUKBuffer._note_evict": "as LRUKBuffer._select_victim",
    "repro.buffer.policy:LRUKBuffer._note_drop": (
        "`workload --policies lru-k` clears LRU-K frames at the flush; "
        "no golden runs lru-k"
    ),
    "repro.pagestore.placement:PlacementPolicy.disk_of": (
        "the per-page placement oracle: tests check fragments() against it "
        "and TestServedOpCounts pins that the served path never calls it"
    ),
    "repro.pagestore.store:CompositePageStore.forget_extent": (
        "PageStore protocol: a freed or moved extent on a tiered or "
        "file-backed store lands here; no golden frees one there"
    ),
    "repro.pagestore.tiered:TieredPageStore.forget_extent": (
        "as CompositePageStore.forget_extent (drops fast-tier copies)"
    ),
    "repro.pagestore.tiered:TieredPageStore.write_runs": (
        "a pool write-back on a tiered cache store; the inherited "
        "write_runs would skip write-invalidate"
    ),
    "repro.pagestore.tiered:TieredPageStore.charge": (
        "a join on a tiered database charges the capacity tier; the "
        "inherited charge would price the fast tier"
    ),
    "repro.pagestore.file:FilePageStore.params": (
        "PageStore protocol; save_database reads db.disk.params when a "
        "database opened on its file is saved again"
    ),
}


# "module:resolver" -> ("module:REGISTRY", the local its value is read
# from; "self.attribute" reads an attribute of it).
RESOLVERS: dict[str, tuple[str, str]] = {
    "repro.iosched.scheduler:make_scheduler": ("repro.iosched.scheduler:SCHEDULERS", "spec"),
    "repro.iosched.prefetch:make_prefetcher": ("repro.iosched.prefetch:PREFETCHERS", "spec"),
    "repro.iosched.admission:make_admission": ("repro.iosched.admission:ADMISSIONS", "spec"),
    "repro.pagestore.placement:make_placement": (
        "repro.pagestore.placement:PLACEMENTS",
        "placement",
    ),
    "repro.buffer.policy:make_buffer": ("repro.buffer.policy:POLICIES", "policy"),
    "repro.database:Layout.build": ("repro.database:ORGANIZATIONS", "self.organization"),
    "repro.pagestore.tiered:TieredPageStore.__init__": (
        "repro.pagestore.tiered:MIGRATIONS",
        "migration",
    ),
    "repro.workload.traffic:make_traffic": ("repro.workload.traffic:ARRIVALS", "arrival"),
}


@dataclasses.dataclass(frozen=True)
class Definition:
    """One ``def`` in the source tree."""

    name: str  # "module:Qualified.name"
    path: str
    line: int  # first decorator's line, else the ``def`` line
    lines: int
    trivial: bool  # the body is only a docstring and/or ``...``

    @property
    def dunder(self) -> bool:
        short = self.name.rpartition(".")[2].rpartition(":")[2]
        return short.startswith("__") and short.endswith("__")


def _trivial(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and (isinstance(stmt.value.value, str) or stmt.value.value is Ellipsis)
        for stmt in body
    )


def definitions(package_dir: pathlib.Path) -> dict[tuple[str, int], Definition]:
    """Every function and method defined under ``package_dir``, keyed
    by ``(real path, first line)``."""
    package_dir = package_dir.resolve()
    found = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, [*scope, child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), line)] = Definition(
                        f"{module}:{'.'.join([*scope, child.name])}",
                        str(path),
                        line,
                        child.end_lineno - line + 1,
                        _trivial(child.body),
                    )
                    visit(child, [*scope, child.name])
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), [])
    return found


def _resolve(target: str):
    """The object a ``"module:Owner.attribute"`` target names, looked
    up without running descriptors (a method is its function)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attribute)


def option_value(local_vars: dict, source: str) -> str:
    """The registry value a resolver was called with: a name as given,
    ``None`` as ``"none"``, a ready instance under its ``name``."""
    name, _, attribute = source.partition(".")
    value = local_vars[name]
    if attribute:
        value = getattr(value, attribute)
    if value is None:
        return "none"
    return value if isinstance(value, str) else value.name


@dataclasses.dataclass
class Trace:
    """What a :func:`recording` saw: ``reached`` holds ``(real path,
    first line)`` of every code that ran, ``lookups`` one ``(registry,
    value, path)`` per distinct resolver call, ``path`` being whatever
    the caller had set :attr:`path` to at the time."""

    reached: set[tuple[str, int]] = dataclasses.field(default_factory=set)
    lookups: set[tuple[str, str, str]] = dataclasses.field(default_factory=set)
    path: str = ""


@contextlib.contextmanager
def recording(resolvers: dict[str, tuple[str, str]] | None = None):
    """Collect every Python frame that starts, in this thread and in
    threads started meanwhile, and the value each of ``resolvers`` is
    called with."""
    codes = set()
    trace = Trace()
    probes = {}

    def hook(frame, event, arg):
        code = frame.f_code  # call events only: no local tracer
        codes.add(code)
        probe = probes.get(code)
        if probe is not None:
            value = option_value(frame.f_locals, probe[1])
            trace.lookups.add((probe[0], value, trace.path))

    previous = sys.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        # Resolved under the hook: what importing them runs is reached.
        for target, probe in (resolvers or {}).items():
            probes[_resolve(target).__code__] = probe
        yield trace
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
        real = {}
        for code in codes:
            path = real.setdefault(code.co_filename, os.path.realpath(code.co_filename))
            trace.reached.add((path, code.co_firstlineno))


def unshown(resolvers, lookups, gated) -> list[str]:
    """``"REGISTRY value"`` for every value of the resolvers' registries
    that no lookup made under a path in ``gated`` shows."""
    shown = {(registry, value) for registry, value, path in lookups if path in gated}
    return [
        f"{registry.partition(':')[2]} {value}"
        for registry in sorted({registry for registry, _ in resolvers.values()})
        for value in _resolve(registry)
        if (registry, value) not in shown
    ]


def wrapped(targets) -> set[tuple[str, int]]:
    """``(real path, first line)`` of every ``"module:Owner.attribute"``
    target, resolved the way ``perf.shim`` resolves it (an inherited
    method is the base class's function)."""
    keys = set()
    for target in targets:
        code = _resolve(target).__code__
        keys.add((os.path.realpath(code.co_filename), code.co_firstlineno))
    return keys


@dataclasses.dataclass
class Report:
    unreached: list[Definition]
    trivial: list[Definition]
    dunder: list[Definition]
    wrapped: list[Definition]
    allowed: list[Definition]
    allowed_but_reached: list[str]

    def text(self, allow_list_size: int) -> str:
        def total(group):
            return f"{len(group)} functions, {sum(d.lines for d in group)} lines"

        out = [
            f"exempt, body only a docstring or '...': {total(self.trivial)}",
            f"exempt, dunder method: {total(self.dunder)}",
            f"exempt, WRAP_TABLE target: {total(self.wrapped)}",
            f"allow-listed: {total(self.allowed)}",
        ]
        out += [f"allow-list entry reached after all: {name}" for name in self.allowed_but_reached]
        out += [f"unreached: {d.name} ({d.lines} lines)" for d in self.unreached]
        out += [
            f"unreached functions: {len(self.unreached)}",
            f"allow-list entries: {allow_list_size}",
        ]
        return "\n".join(out)


def classify(defs, reached, wrapped_keys, allowed) -> Report:
    report = Report([], [], [], [], [], [])
    names = {d.name for key, d in defs.items() if key in reached}
    report.allowed_but_reached = sorted(set(allowed) & names)
    for key, definition in sorted(defs.items()):
        if key in reached:
            continue
        if definition.trivial:
            report.trivial.append(definition)
        elif definition.dunder:
            report.dunder.append(definition)
        elif key in wrapped_keys:
            report.wrapped.append(definition)
        elif definition.name in allowed:
            report.allowed.append(definition)
        else:
            report.unreached.append(definition)
    return report


# ----------------------------------------------------------------------
# the user paths
@contextlib.contextmanager
def _quiet(argv: list[str] | None = None, cwd: pathlib.Path | None = None):
    saved_argv, saved_cwd = sys.argv, os.getcwd()
    try:
        if argv is not None:
            sys.argv = argv
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        sys.argv = saved_argv
        os.chdir(saved_cwd)


def run_examples(scratch: pathlib.Path) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        scale = [] if script.stem == "quickstart" else ["0.005"]
        with _quiet([str(script), *scale], scratch), contextlib.suppress(SystemExit):
            runpy.run_path(str(script), run_name="__main__")


def run_cli(scratch: pathlib.Path) -> None:
    from tests import test_eval_cli

    for name, argv in test_eval_cli.CASES.items():
        (scratch / name).mkdir()
        with _quiet():
            test_eval_cli.run_cli(argv, scratch / name)


def run_trace_replay(scratch: pathlib.Path) -> None:
    from tests import test_eval_cli

    with _quiet():
        test_eval_cli.test_workload_trace_replays_its_recording(scratch)


def run_figures(scratch: pathlib.Path) -> None:
    from repro.eval.config import ExperimentConfig
    from repro.eval.context import ExperimentContext
    from repro.eval.figures import FIGURES

    ctx = ExperimentContext(ExperimentConfig(scale=0.005))
    for figure in FIGURES.values():
        figure.render(ctx, list(figure.rows(ctx)))


def run_perf_smoke(scratch: pathlib.Path) -> None:
    from perf import run

    with _quiet():
        run.main(["--smoke", "--reps", "1"])


class _ResultsToScratch:
    """pytest plugin: ``benchmarks/conftest.py`` records its tables
    under ``directory`` instead of ``benchmarks/results/``."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = directory

    def pytest_collection_finish(self, session) -> None:
        conftest = str(ROOT / "benchmarks" / "conftest.py")
        for module in list(sys.modules.values()):
            if getattr(module, "__file__", None) == conftest:
                module.RESULTS_DIR = self.directory


def run_benchmarks(scratch: pathlib.Path) -> None:
    import pytest

    saved = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = "0.01"
    try:
        with _quiet(cwd=ROOT):
            pytest.main(
                ["-q", "-p", "no:cacheprovider", "--benchmark-disable", str(ROOT / "benchmarks")],
                plugins=[_ResultsToScratch(scratch)],
            )
    finally:
        if saved is None:
            del os.environ["REPRO_SCALE"]
        else:
            os.environ["REPRO_SCALE"] = saved


USER_PATHS = (
    run_examples,
    run_cli,
    run_trace_replay,
    run_figures,
    run_perf_smoke,
    run_benchmarks,
)
# The paths whose outputs are committed and compared byte for byte.
GATED = {run_cli.__name__, run_figures.__name__, run_benchmarks.__name__}


def main() -> int:
    from perf.shim import WRAP_TABLE

    defs = definitions(ROOT / "src" / "repro")
    with recording(RESOLVERS) as trace:
        for path in USER_PATHS:
            trace.path = path.__name__
            with tempfile.TemporaryDirectory() as scratch:
                path(pathlib.Path(scratch))
    report = classify(defs, trace.reached, wrapped(t for _, t, _ in WRAP_TABLE), ALLOWED)
    listed = unshown(RESOLVERS, trace.lookups, GATED)
    print(report.text(len(ALLOWED)))
    for value in listed:
        print(f"option value shown by no gated output: {value}")
    print(f"unshown option values: {len(listed)}")
    return 1 if report.unreached or report.allowed_but_reached or listed else 0


if __name__ == "__main__":
    sys.exit(main())
