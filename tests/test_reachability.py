"""The matcher and the line, keyword and option probes of
``tests/reachability.py``, on fixture packages.

The probe itself runs every user path (minutes); these checks run its
rules on a few lines of code: what counts as reached, which unrun
blocks are listed, fail or are exempt by rule, which keywords count
as set, that the allow-lists name live functions, blocks and
keywords, and which option values count as shown.
"""

from __future__ import annotations

import importlib
import pathlib
import sys
import textwrap

from tests.reachability import (
    ALLOWED,
    ALLOWED_KEYWORDS,
    ALLOWED_LINES,
    BLOCK_LINES,
    GATED,
    KEYWORDS,
    RESOLVERS,
    ROOT,
    LineReport,
    _resolve,
    classify,
    definitions,
    keyword_defaults,
    recording,
    stored_in_image,
    unrun_blocks,
    unset_keywords,
    unshown,
    wrapped,
)

FIXTURE = textwrap.dedent(
    '''
    import functools
    import threading


    class Base:
        def wrapped(self):
            return 1


    class Sub(Base):
        pass


    class Thing:
        @property
        def prop(self):
            return 1

        @staticmethod
        def static():
            return 2

        def uncalled(self):
            return 3

        def __repr__(self):
            return "Thing"

        def stub(self):
            """Only a docstring."""


    @functools.cache
    def cached():
        return 4


    def outer():
        def inner():
            return 5

        return inner()


    def in_thread():
        return 6


    def run():
        Thing().prop
        Thing.static()
        cached()
        outer()
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
    '''
)


def write_fixture(tmp_path, monkeypatch, package_name: str, source: str):
    package = tmp_path / package_name
    package.mkdir()
    # A docstring: one executable line on every interpreter (an empty
    # module has one on 3.10 and none after).
    (package / "__init__.py").write_text('"""A fixture package."""\n')
    (package / "mod.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in (package_name, f"{package_name}.mod"):  # each test its own copy
        monkeypatch.delitem(sys.modules, name, raising=False)
    return package


def import_fixture(tmp_path, monkeypatch, package_name: str, source: str):
    package = write_fixture(tmp_path, monkeypatch, package_name, source)
    return package, importlib.import_module(f"{package_name}.mod")


def probe_fixture(tmp_path, monkeypatch):
    package, module = import_fixture(tmp_path, monkeypatch, "reach_fixture", FIXTURE)
    with recording() as trace:
        module.run()
    return classify(
        definitions(package), trace.reached, wrapped(["reach_fixture.mod:Sub.wrapped"]), {}
    )


def names(group) -> set[str]:
    return {definition.name.partition(":")[2] for definition in group}


def test_decorated_nested_and_threaded_calls_are_reached(tmp_path, monkeypatch):
    report = probe_fixture(tmp_path, monkeypatch)
    unreached = names(report.unreached)
    for reached in ("Thing.prop", "Thing.static", "cached", "outer", "outer.inner", "in_thread"):
        assert reached not in unreached


def test_an_inherited_wrap_table_target_is_exempt(tmp_path, monkeypatch):
    assert names(probe_fixture(tmp_path, monkeypatch).wrapped) == {"Base.wrapped"}


def test_an_uncalled_function_is_reported(tmp_path, monkeypatch):
    report = probe_fixture(tmp_path, monkeypatch)
    assert names(report.unreached) == {"Thing.uncalled"}
    assert names(report.dunder) == {"Thing.__repr__"}
    assert names(report.trivial) == {"Thing.stub"}


def test_every_allow_list_entry_names_a_function_no_rule_exempts():
    defs = {d.name: d for d in definitions(ROOT / "src" / "repro").values()}
    assert len(ALLOWED) <= 40
    for name, reason in ALLOWED.items():
        assert name in defs, name
        assert not (defs[name].dunder or defs[name].trivial), name
        assert reason


# ----------------------------------------------------------------------
# the option probe
OPTIONS = textwrap.dedent(
    '''
    KINDS = ("none", "plain", "fancy", "rare")


    class Fancy:
        name = "fancy"


    def make_kind(spec):
        return spec
    '''
)
KIND_RESOLVER = {"option_fixture.mod:make_kind": ("option_fixture.mod:KINDS", "spec")}
GATED_PATH, UNGATED_PATH = "run_cli", "run_examples"


def listed_after(tmp_path, monkeypatch, calls) -> list[str]:
    """Run ``make_kind`` once per ``(user path, spec)`` and list what
    the probe would report; a spec ``"Fancy()"`` is a ready instance."""
    _, module = import_fixture(tmp_path, monkeypatch, "option_fixture", OPTIONS)
    with recording(KIND_RESOLVER) as trace:
        for path, spec in calls:
            trace.path = path
            module.make_kind(module.Fancy() if spec == "Fancy()" else spec)
    return unshown(KIND_RESOLVER, trace.lookups, {GATED_PATH})


def test_the_fixture_paths_are_one_gated_and_one_ungated():
    assert GATED_PATH in GATED and UNGATED_PATH not in GATED
    assert "run_perf_smoke" not in GATED and "run_trace_replay" not in GATED


def test_a_value_looked_up_under_a_gated_path_is_not_listed(tmp_path, monkeypatch):
    calls = [(GATED_PATH, spec) for spec in (None, "plain", "fancy", "rare")]
    assert listed_after(tmp_path, monkeypatch, calls) == []


def test_a_value_looked_up_only_under_an_ungated_path_is_listed(tmp_path, monkeypatch):
    calls = [
        (GATED_PATH, None),
        (GATED_PATH, "plain"),
        (UNGATED_PATH, "fancy"),
        (UNGATED_PATH, "rare"),
        ("run_perf_smoke", "rare"),
    ]
    assert listed_after(tmp_path, monkeypatch, calls) == ["KINDS fancy", "KINDS rare"]


def test_a_ready_instance_counts_under_its_name(tmp_path, monkeypatch):
    calls = [(GATED_PATH, spec) for spec in (None, "plain", "Fancy()", "rare")]
    assert listed_after(tmp_path, monkeypatch, calls) == []


def test_every_resolver_reads_a_parameter_and_names_a_registry():
    for target, (registry, source) in RESOLVERS.items():
        code = _resolve(target).__code__
        parameters = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
        assert source.partition(".")[0] in parameters, target
        values = list(_resolve(registry))
        assert values and all(isinstance(value, str) for value in values), registry


# ----------------------------------------------------------------------
# the line probe
LINES = textwrap.dedent(
    '''
    def branchy(flag):
        total = 0
        if flag:
            total += 1
            total += 2
            total += 3
            total += 4
            total += 5
        if flag:
            total -= 1
            total -= 2
            total -= 3
            total -= 4
        if total < 0:
            message = "negative"
            raise ValueError(message)
        return total


    def never():
        return 0
    '''
)
LINE_SCOPE = "line_fixture.mod:branchy"


def line_report(tmp_path, monkeypatch, allowed) -> LineReport:
    """Import the fixture and run ``branchy(False)`` under the line
    probe: its five-line and four-line branches and its raise block
    never run, and neither does ``never``."""
    package = write_fixture(tmp_path, monkeypatch, "line_fixture", LINES)
    with recording(lines_under=package) as trace:
        importlib.import_module("line_fixture.mod").branchy(False)
    defs = definitions(package)
    return LineReport(*unrun_blocks(package, defs, trace.reached, trace.executed), allowed)


def test_an_unrun_five_line_branch_is_listed_and_fails(tmp_path, monkeypatch):
    report = line_report(tmp_path, monkeypatch, {})
    assert [(b.scope, b.text, b.lines) for b in report.blocking] == [
        (LINE_SCOPE, "total += 1", 5)
    ]
    assert report.fails
    assert f"unrun block: {LINE_SCOPE} line 5 'total += 1' (5 lines)" in report.text()


def test_a_four_line_branch_is_counted_but_does_not_block(tmp_path, monkeypatch):
    report = line_report(tmp_path, monkeypatch, {(LINE_SCOPE, "total += 1"): "a reason"})
    assert [(b.text, b.lines) for b in report.listed] == [("total -= 1", 4)]
    assert not report.blocking and not report.fails
    text = report.text()
    assert f"unrun block: {LINE_SCOPE} line 11 'total -= 1' (4 lines)" in text
    assert "unrun lines, not exempt: 9 in 2 blocks" in text
    assert "line allow-listed: 1 blocks, 5 lines" in text


def test_a_raise_block_is_exempt(tmp_path, monkeypatch):
    report = line_report(tmp_path, monkeypatch, {})
    (raising,) = [b for b in report.blocks if b.exempt]
    assert (raising.text, raising.lines, raising.exempt) == ('message = "negative"', 0, {"raise": 2})
    assert raising not in report.listed
    assert "unrun lines, exempt: 2" in report.text()


def test_only_reached_functions_are_read(tmp_path, monkeypatch):
    """``never``'s lines are the function probe's; the import ran."""
    report = line_report(tmp_path, monkeypatch, {})
    assert {b.scope for b in report.blocks} == {LINE_SCOPE}
    # branchy's body, the two defs' lines, the package's docstring
    assert report.executable == 16 + 2 + 1


def test_an_allow_list_entry_whose_block_ran_fails(tmp_path, monkeypatch):
    report = line_report(tmp_path, monkeypatch, {(LINE_SCOPE, "return total"): "stale"})
    assert report.allowed_but_run == [(LINE_SCOPE, "return total")]
    assert report.fails


def test_every_line_allow_list_entry_names_a_function_and_a_line_of_it():
    defs = {d.name: d for d in definitions(ROOT / "src" / "repro").values()}
    assert len(ALLOWED_LINES) <= 8 and BLOCK_LINES == 5
    for (name, text), reason in ALLOWED_LINES.items():
        definition = defs[name]
        source = pathlib.Path(definition.path).read_text().splitlines()
        body = source[definition.body - 1 : definition.line + definition.lines - 1]
        assert text in (line.strip() for line in body), (name, text)
        assert reason


# ----------------------------------------------------------------------
# the keyword probe
ENTRY = textwrap.dedent(
    '''
    def entry(data, used=1, *, unused=None, spelled="a"):
        return data
    '''
)
ENTRY_TARGET = "keyword_fixture.mod:entry"


def unset_after(tmp_path, monkeypatch, calls, allowed=None):
    """Call ``entry`` once per ``(user path, keywords)`` under the
    keyword probe and report what it would list."""
    _, module = import_fixture(tmp_path, monkeypatch, "keyword_fixture", ENTRY)
    with recording(keywords=[ENTRY_TARGET]) as trace:
        for path, keywords in calls:
            trace.path = path
            module.entry(0, **keywords)
    return unset_keywords([ENTRY_TARGET], trace.keywords, allowed or {})


def test_a_keyword_set_by_an_ungated_path_is_not_listed(tmp_path, monkeypatch):
    report = unset_after(tmp_path, monkeypatch, [(UNGATED_PATH, {"used": 2})])
    assert (ENTRY_TARGET, "used") not in report.unset
    assert report.read == 3


def test_an_unset_keyword_is_listed(tmp_path, monkeypatch):
    """Passing a keyword at its default does not count as setting it."""
    calls = [(GATED_PATH, {"used": 2, "spelled": "a"})]
    report = unset_after(tmp_path, monkeypatch, calls)
    assert report.unset == [(ENTRY_TARGET, "unused"), (ENTRY_TARGET, "spelled")]
    assert report.fails
    assert f"keyword set by no user path: {ENTRY_TARGET} unused" in report.text(0)


def test_the_keyword_allow_list_covers_and_only_shrinks(tmp_path, monkeypatch):
    allowed = {(ENTRY_TARGET, "unused"): "a reason", (ENTRY_TARGET, "used"): "stale"}
    calls = [(GATED_PATH, {"used": 2, "spelled": "b"})]
    report = unset_after(tmp_path, monkeypatch, calls, allowed)
    assert report.unset == [] and report.allowed == 1
    assert report.allowed_but_set == [(ENTRY_TARGET, "used")]
    assert report.fails


def test_every_keyword_entry_point_and_allow_list_entry_is_real():
    assert len(ALLOWED_KEYWORDS) <= 6
    defaults = {target: keyword_defaults(target) for target in KEYWORDS}
    for (target, name), reason in ALLOWED_KEYWORDS.items():
        assert name in defaults[target], (target, name)
        assert reason
    init = "repro.database:SpatialDatabase.__init__"
    stored = stored_in_image(init)
    assert "disk_params" in stored and "organization" in stored
    assert stored <= defaults[init].keys()
    assert not stored & {name for target, name in ALLOWED_KEYWORDS if target == init}
