"""Smoke tests: the example scripts run end to end.

``real_estate_portal.py`` is excluded here (it deliberately uses a larger
dataset and runs for minutes); it is exercised by the documentation runs.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
#: smaller inputs for the smoke run (same table shape; the documented run,
#: without arguments, costs 40 s in the exact MPR at d=5)
ARGS = {"ampr_tuning.py": ["4000", "6"]}


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "hotel_search.py", "ampr_tuning.py", "dynamic_updates.py"]
)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *ARGS.get(script, [])],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_quickstart_shows_case_labels():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "case_c" in proc.stdout
    assert "case_b" in proc.stdout
