"""The matcher and the option probe of ``tests/reachability.py``, on
fixture packages.

The probe itself runs every user path (minutes); these checks run its
rules on a few lines of code: what counts as reached, what is exempt
by rule, that the allow-list names live functions, and which option
values count as shown.
"""

from __future__ import annotations

import importlib
import sys
import textwrap

from tests.reachability import (
    ALLOWED,
    GATED,
    RESOLVERS,
    ROOT,
    _resolve,
    classify,
    definitions,
    recording,
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


def import_fixture(tmp_path, monkeypatch, package_name: str, source: str):
    package = tmp_path / package_name
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in (package_name, f"{package_name}.mod"):  # each test its own copy
        monkeypatch.delitem(sys.modules, name, raising=False)
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
