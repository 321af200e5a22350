"""The matcher of ``tests/reachability.py``, on a fixture package.

The probe itself runs every user path (minutes); these checks run its
matching rules on a few lines of code: what counts as reached, what is
exempt by rule, and that the allow-list names live functions.
"""

from __future__ import annotations

import importlib
import sys
import textwrap

from tests.reachability import ALLOWED, ROOT, classify, definitions, recording, wrapped

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


def probe_fixture(tmp_path, monkeypatch):
    package = tmp_path / "reach_fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("reach_fixture", "reach_fixture.mod"):  # each test its own copy
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module("reach_fixture.mod")
    with recording() as reached:
        module.run()
    return classify(
        definitions(package), reached, wrapped(["reach_fixture.mod:Sub.wrapped"]), {}
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
