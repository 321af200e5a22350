"""Every script under ``examples/`` runs.

``repro.database`` promises the examples "are written exclusively
against this API"; nothing else executes them, so a change to the
facade could break all of them silently.  Each runs as a user would run
it — ``python examples/<name>.py 0.005`` from an empty directory — and
must exit cleanly with something printed.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    # quickstart.py takes no scale; every other example reads argv[1].
    scale = [] if script.stem == "quickstart" else ["0.005"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script), *scale],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
