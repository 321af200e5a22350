"""Which functions, lines and keywords of ``src/repro`` no user path
runs or sets, and which option values no gated output shows.

    PYTHONPATH=src python tests/reachability.py

runs the user paths under one trace hook:

- every script under ``examples/`` at scale 0.005;
- the CLI golden argvs (``tests/test_eval_cli.py::CASES``) and the
  ``workload --trace`` record/replay;
- the eleven ``FIGURES`` rendered at scale 0.005;
- the benchmark smoke (``perf/run.py --smoke --reps 1``);
- ``benchmarks/`` at ``REPRO_SCALE=0.01`` (some of their shape
  assertions fail at that size; only what runs matters here).

It takes about two minutes: 111 to 127 s over three runs on a 2-vCPU
x86 box, run alone, against 85 s for the function probe alone.  The
figure tables the benchmarks record go to a scratch directory, so the
checkout stays clean.  The one pass feeds four probes; the report ends
with each one's counts, and the probe exits 1 on any finding below.

**Functions.**  Every function defined under ``src/repro`` whose code
never ran is listed.  Three kinds are exempt by rule, each counted:
bodies that are only a docstring or ``...`` (protocol members, no-op
hooks), dunder methods, and every target of ``perf/shim.py``'s
``WRAP_TABLE`` (the benchmark resolves them by name, through
inheritance).  Anything else kept unreached sits on ``ALLOWED`` with
its reason.  Matching is by ``(file, first line)``: a code object's
``co_firstlineno`` is its first decorator's line, so properties,
static methods and cached functions match their ``def`` too.

**Lines.**  A local line tracer, set only on frames whose file is
under ``src/repro``, records every line that runs.  The universe is
the executable lines (``co_lines``) of the functions the function
probe reached, plus the module-level lines of the imported modules,
counted as "import".  A block is a run of consecutive unrun lines of
one function (or of one module's import).  Two kinds of line are
exempt by rule, each counted: a ``raise`` statement, or an ``if``,
``else`` or ``except`` whose body ends in one (typed refusals, which
tests own); imports under ``if TYPE_CHECKING:``.  Every other block
is printed with its size in executable lines; a block of
``BLOCK_LINES`` or more fails the probe unless ``ALLOWED_LINES``
gives its reason, keyed by its function and its first source line
(not its line number, which moves).

**Keywords.**  When an entry point of ``KEYWORDS`` starts, the hook
reads its locals and notes each keyword set off its default, under
any user path.  Every keyword no path set is listed, unless the rule
exempts it (``SpatialDatabase``'s ``Layout`` fields and
``disk_params``: the image's config block stores them, and the catalog
bytes are pinned) or ``ALLOWED_KEYWORDS`` gives its reason.

**Options.**  When a resolver of ``RESOLVERS`` starts, the hook reads
the value it was called with (a ready instance counts under its
``name``, ``None`` as ``"none"``) and notes the user path it ran under.
Only the gated paths count: the CLI goldens, the figures and
``benchmarks/``, whose outputs are committed and compared.  Every
value of a registry that no gated path looked up is listed: an option
value no committed output is produced under is code nobody checks.

An allow-list entry whose function ran, block ran or keyword was set
after all fails the probe too: the lists only shrink.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import dataclasses
import inspect
import importlib
import io
import itertools
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# "module:Qualified.name" -> why it stays although no user path calls it.
ALLOWED: dict[str, str] = {
    "repro.buffer.policy:LRUKBuffer._pop_victim": (
        "LRU-K evicts at REPRO_SCALE=0.08 (the buffer-policy ablation); "
        "at 0.01 its pool holds the whole map"
    ),
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
}

# An unrun block of this many executable lines fails the probe unless
# ALLOWED_LINES gives its reason; smaller ones are printed and counted.
BLOCK_LINES = 5

# ("module:Qualified.name", the block's first source line, stripped)
# -> why the block stays although no user path runs it.
ALLOWED_LINES: dict[tuple[str, str], str] = {
    ("repro.iosched.scheduler:OverlapScheduler._admit", "tracer.use_virtual_clock(True)"): (
        "the admission.wait trace span: only `trace --admission priority` "
        "delays a traced operation, and no golden runs it"
    ),
    (
        "repro.storage.serial:_overrides_contain_their_geometry",
        'counts = columns["objects"][:, 3]',
    ): (
        "checks catalog input: an image whose maps carry MBR overrides "
        "(mbr_expansion), which no user path saves"
    ),
    ("repro.rtree.rstar:RStarTree._shrink_root", "child = self.root.entries[0].child"): (
        "keeps the tree correct when deletes leave the root one child; "
        "no user path deletes that much"
    ),
    ("repro.storage.serial:dump_state", 'storage["unit_alloc"] = {'): (
        "the buddy unit allocator's catalog section; no user path saves "
        "a database with buddy_sizes"
    ),
    ("repro.core.organization:ClusterOrganization._own_extents", "entries = leaf.entries"): (
        "an object too large for its cluster unit is stored apart; Smax "
        "is far above every generated object's size"
    ),
    ("repro.pagestore.file:FilePageStore.flush", "old_slot = self._map.get(page)"): (
        "re-reads a page a priced write left _PRESERVE; no user path "
        "writes through a file-backed database and saves it again"
    ),
    ("repro.storage.base:SpatialOrganization._answer", "held = [0] * len(rects)"): (
        "the refinement slicer: a block that hits more than _REFINE_ROWS "
        "entries. At REPRO_SCALE=0.08 Figure 8's 10 % windows on A-1 are "
        "two slices (the committed tables pin them); at the probe's 0.01 "
        "no block hits that many"
    ),
}


# Public entry points whose keywords the probe reads.
KEYWORDS = (
    "repro.database:SpatialDatabase.__init__",
    "repro.database:SpatialDatabase.open",
    "repro.database:SpatialDatabase.join",
    "repro.database:SpatialDatabase.run_workload",
    "repro.database:SpatialDatabase.run_sessions",
    "repro.database:SpatialDatabase.run_traffic",
    "repro.workload.engine:WorkloadEngine.run_traffic",
    "repro.workload.traffic:make_traffic",
)

# ("module:Qualified.name", keyword) -> why it stays although no user
# path sets it off its default.
ALLOWED_KEYWORDS: dict[tuple[str, str], str] = {
    ("repro.database:SpatialDatabase.__init__", "metrics"): (
        "a caller's own registry, shared by its databases"
    ),
    ("repro.database:SpatialDatabase.open", "metrics"): "as SpatialDatabase.__init__'s",
    ("repro.database:SpatialDatabase.open", "page_size"): (
        "the checksum granularity must be known before the superblock "
        "can be read: an image saved with another page size opens only so"
    ),
    ("repro.workload.traffic:make_traffic", "think_ms"): (
        "`traffic --think-ms` passes it, at its default"
    ),
    ("repro.workload.traffic:make_traffic", "analytics_fraction"): (
        "the tests' class-mix checks set it"
    ),
    ("repro.workload.traffic:make_traffic", "data_space"): (
        "the tests' maps live in a 10^4 data space"
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
    # Read where the technique is applied: figures assign org.technique
    # directly, so check_technique sees only the default.
    "repro.core.organization:ClusterOrganization._read_unit": (
        "repro.core.techniques:TECHNIQUES",
        "self.technique",
    ),
    "repro.join.object_access:ObjectTransfer.__init__": (
        "repro.join.object_access:JOIN_TECHNIQUES",
        "technique",
    ),
}


@dataclasses.dataclass(frozen=True)
class Definition:
    """One ``def`` in the source tree."""

    name: str  # "module:Qualified.name"
    path: str
    line: int  # first decorator's line, else the ``def`` line
    lines: int
    trivial: bool  # the body is only a docstring and/or ``...``
    body: int  # the body's first line

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


def _module_name(path: pathlib.Path, package_dir: pathlib.Path) -> str:
    parts = path.relative_to(package_dir.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions(package_dir: pathlib.Path) -> dict[tuple[str, int], Definition]:
    """Every function and method defined under ``package_dir``, keyed
    by ``(real path, first line)``."""
    package_dir = package_dir.resolve()
    found = {}
    for path in sorted(package_dir.rglob("*.py")):
        module = _module_name(path, package_dir)

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
                        child.body[0].lineno,
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


def _function(target: str):
    """The function a target names; a class method is its function."""
    found = _resolve(target)
    return getattr(found, "__func__", found)


def keyword_defaults(target: str) -> dict[str, object]:
    """``{keyword: default}`` of every parameter of ``target`` that has
    a default."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(_function(target)).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def _off_default(value, default) -> bool:
    if value is default:
        return False
    try:
        return bool(value != default)
    except ValueError:  # an array compares elementwise: not the default
        return True


@dataclasses.dataclass
class Trace:
    """What a :func:`recording` saw: ``reached`` holds ``(real path,
    first line)`` of every code that ran, ``executed`` the lines that
    ran per real path (only under ``lines_under``), ``lookups`` one
    ``(registry, value, path)`` per distinct resolver call, ``keywords``
    one ``(entry point, keyword)`` per keyword set off its default;
    ``path`` is whatever the caller had set :attr:`path` to at the
    time."""

    reached: set[tuple[str, int]] = dataclasses.field(default_factory=set)
    executed: dict[str, set[int]] = dataclasses.field(default_factory=dict)
    lookups: set[tuple[str, str, str]] = dataclasses.field(default_factory=set)
    keywords: set[tuple[str, str]] = dataclasses.field(default_factory=set)
    path: str = ""


@contextlib.contextmanager
def recording(
    resolvers: dict[str, tuple[str, str]] | None = None,
    keywords=(),
    lines_under: pathlib.Path | None = None,
):
    """Collect every Python frame that starts, in this thread and in
    threads started meanwhile, the value each of ``resolvers`` is
    called with, the keywords each of ``keywords`` is called with off
    their defaults, and every line that runs in a file under
    ``lines_under``."""
    trace = Trace()
    real: dict[str, str] = {}
    prefix = None if lines_under is None else os.path.realpath(lines_under) + os.sep
    tracers: dict[types.CodeType, object] = {}  # code -> its line tracer, or None
    watched: dict[types.CodeType, list] = {}  # code -> readers of its frame's locals

    def line_tracer(code):
        path = real.setdefault(code.co_filename, os.path.realpath(code.co_filename))
        if prefix is None or not path.startswith(prefix):
            return None
        note = trace.executed.setdefault(path, set()).add

        def local(frame, event, arg):
            note(frame.f_lineno)
            return local

        return local

    def hook(frame, event, arg):
        code = frame.f_code  # call events; lines go to the local tracer
        try:
            local = tracers[code]
        except KeyError:
            local = tracers[code] = line_tracer(code)
        for read in watched.get(code, ()):
            read(frame.f_locals)
        return local

    def lookup(registry, source):
        return lambda local_vars: trace.lookups.add(
            (registry, option_value(local_vars, source), trace.path)
        )

    def keywords_of(target, defaults):
        def read(local_vars):
            for name, default in defaults.items():
                if _off_default(local_vars[name], default):
                    trace.keywords.add((target, name))

        return read

    previous = sys.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        # Resolved under the hook: what importing them runs is reached.
        for target, (registry, source) in (resolvers or {}).items():
            watched.setdefault(_resolve(target).__code__, []).append(lookup(registry, source))
        for target in keywords:
            read = keywords_of(target, keyword_defaults(target))
            watched.setdefault(_function(target).__code__, []).append(read)
        yield trace
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
        for code in tracers:
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


def stored_in_image(target: str) -> set[str]:
    """The keywords of ``target`` exempt by rule: ``SpatialDatabase``'s
    layout fields and disk constants, which a saved image's config
    block stores (the catalog bytes are pinned)."""
    if target != "repro.database:SpatialDatabase.__init__":
        return set()
    layout = _resolve("repro.database:Layout")
    return {field.name for field in dataclasses.fields(layout)} | {"disk_params"}


@dataclasses.dataclass
class KeywordReport:
    read: int  # keywords with a default, over all entry points
    stored: int  # exempt by rule
    allowed: int  # on the allow-list
    unset: list[tuple[str, str]]  # set by no user path, not exempt
    allowed_but_set: list[tuple[str, str]]

    @property
    def fails(self) -> bool:
        return bool(self.unset or self.allowed_but_set)

    def text(self, allow_list_size: int) -> str:
        out = [
            f"keywords read: {self.read}",
            f"exempt, stored in the image: {self.stored} keywords",
            f"keyword allow-listed: {self.allowed} keywords",
        ]
        out += [f"keyword allow-list entry set after all: {t} {k}" for t, k in self.allowed_but_set]
        out += [f"keyword set by no user path: {t} {k}" for t, k in self.unset]
        out += [
            f"listed keywords: {len(self.unset)}",
            f"keyword allow-list entries: {allow_list_size}",
        ]
        return "\n".join(out)


def unset_keywords(targets, keywords, allowed) -> KeywordReport:
    """Which keywords of ``targets`` no user path set off its default
    (``keywords`` holds what :func:`recording` saw)."""
    report = KeywordReport(0, 0, 0, [], sorted(set(allowed) & keywords))
    for target in targets:
        stored = stored_in_image(target)
        for name in keyword_defaults(target):
            report.read += 1
            if (target, name) in keywords:
                continue
            if name in stored:
                report.stored += 1
            elif (target, name) in allowed:
                report.allowed += 1
            else:
                report.unset.append((target, name))
    return report


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
# the line probe
def executable_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and of every code object nested in it
    that hold an instruction."""
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def exempt_lines(tree: ast.Module) -> dict[int, str]:
    """``{line: rule}`` for every line an exempting rule covers:
    ``"raise"`` (a ``raise`` statement, or an ``if``, ``else`` or
    ``except`` whose body ends in one) and ``"TYPE_CHECKING"`` (that
    ``if``'s imports)."""
    rules: dict[int, str] = {}

    def mark(first: int, last: int, rule: str) -> None:
        for line in range(first, last + 1):
            rules.setdefault(line, rule)

    for node in ast.walk(tree):  # outer statements first
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            mark(node.lineno, node.end_lineno, "TYPE_CHECKING")
        elif isinstance(node, ast.If):
            if isinstance(node.body[-1], ast.Raise):
                mark(node.lineno, node.body[-1].end_lineno, "raise")
            if node.orelse and isinstance(node.orelse[-1], ast.Raise):
                mark(node.orelse[0].lineno, node.orelse[-1].end_lineno, "raise")
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Raise):
            mark(node.lineno, node.body[-1].end_lineno, "raise")
        elif isinstance(node, ast.Raise):
            mark(node.lineno, node.end_lineno, "raise")
    return rules


@dataclasses.dataclass(frozen=True)
class Block:
    """A run of consecutive unrun executable lines of one scope: a
    function, or a module's import (``"module:<import>"``)."""

    scope: str
    first: int  # its first line
    text: str  # that line's source, stripped: the allow-list key
    lines: int  # its executable lines no rule exempts
    exempt: dict[str, int]  # rule -> its executable lines that rule exempts

    @property
    def key(self) -> tuple[str, str]:
        return (self.scope, self.text)


def unrun_blocks(package_dir: pathlib.Path, defs, reached, executed) -> tuple[int, list[Block]]:
    """The executable lines of reached functions and imported modules
    under ``package_dir`` (their count), and every unrun block of them."""
    total, blocks = 0, []
    for path in sorted(package_dir.resolve().rglob("*.py")):
        ran = executed.get(str(path))
        if not ran:
            continue  # never imported: unreached functions are the function probe's
        source = path.read_text()
        lines = source.splitlines()
        rules = exempt_lines(ast.parse(source, str(path)))
        # Innermost scope of every line: later (nested) bodies win.
        module = f"{_module_name(path, package_dir.resolve())}:<import>"
        scope_of = {}
        for (def_path, _), definition in sorted(defs.items(), key=lambda kv: kv[1].body):
            if def_path == str(path):
                for line in range(definition.body, definition.line + definition.lines):
                    scope_of[line] = definition
        by_scope: dict[str, list[int]] = {}
        for line in sorted(executable_lines(compile(source, str(path), "exec", dont_inherit=True))):
            definition = scope_of.get(line)
            if definition is not None and (definition.path, definition.line) not in reached:
                continue
            by_scope.setdefault(module if definition is None else definition.name, []).append(line)
        for scope, scope_lines in by_scope.items():
            total += len(scope_lines)
            for was_run, group in itertools.groupby(scope_lines, key=ran.__contains__):
                if not was_run:
                    run = list(group)
                    exempt = collections.Counter(rules[line] for line in run if line in rules)
                    blocks.append(Block(
                        scope, run[0], lines[run[0] - 1].strip(),
                        len(run) - sum(exempt.values()), dict(exempt),
                    ))
    return total, blocks


@dataclasses.dataclass
class LineReport:
    executable: int
    blocks: list[Block]  # every unrun block
    allowed: dict[tuple[str, str], str]

    def exempt(self, rule: str) -> int:
        return sum(block.exempt.get(rule, 0) for block in self.blocks)

    @property
    def listed(self) -> list[Block]:
        """Blocks with a line no rule exempts and not allow-listed,
        largest first."""
        found = [b for b in self.blocks if b.lines and b.key not in self.allowed]
        return sorted(found, key=lambda b: (-b.lines, b.scope, b.first))

    @property
    def blocking(self) -> list[Block]:
        return [block for block in self.listed if block.lines >= BLOCK_LINES]

    @property
    def allowed_but_run(self) -> list[tuple[str, str]]:
        unrun = {block.key for block in self.blocks if block.lines}
        return sorted(set(self.allowed) - unrun)

    @property
    def fails(self) -> bool:
        return bool(self.blocking or self.allowed_but_run)

    def text(self) -> str:
        allowed = [b for b in self.blocks if b.lines and b.key in self.allowed]
        listed = self.listed
        out = [
            f"executable lines (reached functions and imports): {self.executable}",
            f"exempt, raise block: {self.exempt('raise')} lines",
            f"exempt, TYPE_CHECKING import: {self.exempt('TYPE_CHECKING')} lines",
            f"line allow-listed: {len(allowed)} blocks, {sum(b.lines for b in allowed)} lines",
        ]
        out += [f"line allow-list entry run after all: {s} {t!r}" for s, t in self.allowed_but_run]
        out += [
            f"unrun block: {b.scope} line {b.first} {b.text!r} ({b.lines} lines)" for b in listed
        ]
        out += [
            f"unrun lines, exempt: {self.exempt('raise') + self.exempt('TYPE_CHECKING')}",
            f"unrun lines, not exempt: {sum(b.lines for b in self.blocks if b.lines)}"
            f" in {sum(1 for b in self.blocks if b.lines)} blocks",
            f"unrun blocks of {BLOCK_LINES}+ lines: {len(self.blocking)}",
            f"line allow-list entries: {len(self.allowed)}",
        ]
        return "\n".join(out)


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

    package = ROOT / "src" / "repro"
    defs = definitions(package)
    with recording(RESOLVERS, KEYWORDS, package) as trace:
        for path in USER_PATHS:
            trace.path = path.__name__
            with tempfile.TemporaryDirectory() as scratch:
                path(pathlib.Path(scratch))
    report = classify(defs, trace.reached, wrapped(t for _, t, _ in WRAP_TABLE), ALLOWED)
    lines = LineReport(*unrun_blocks(package, defs, trace.reached, trace.executed), ALLOWED_LINES)
    keywords = unset_keywords(KEYWORDS, trace.keywords, ALLOWED_KEYWORDS)
    listed = unshown(RESOLVERS, trace.lookups, GATED)
    print(report.text(len(ALLOWED)))
    print(lines.text())
    print(keywords.text(len(ALLOWED_KEYWORDS)))
    for value in listed:
        print(f"option value shown by no gated output: {value}")
    print(f"unshown option values: {len(listed)}")
    failed = report.unreached or report.allowed_but_reached or listed
    return 1 if failed or lines.fails or keywords.fails else 0


if __name__ == "__main__":
    sys.exit(main())
