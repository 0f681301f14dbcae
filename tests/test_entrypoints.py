"""Console entry points declared in pyproject.toml must import and run.

Parses ``[project.scripts]`` textually (the CI matrix includes Python 3.10,
which has no ``tomllib``), imports each target, and smoke-tests
``main(["--help"])`` so a typo'd module path or broken argparse wiring
fails here instead of at install time.
"""

import importlib
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ENTRY_RE = re.compile(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"\s*$')


def script_entries():
    entries = []
    in_scripts = False
    for line in PYPROJECT.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_scripts = stripped == "[project.scripts]"
            continue
        if not in_scripts:
            continue
        match = ENTRY_RE.match(stripped)
        if match:
            entries.append(match.groups())
    return entries


ENTRIES = script_entries()


def test_scripts_section_present():
    names = [name for name, _, _ in ENTRIES]
    assert "repro-obs-explain" in names
    # the metrics report was retired: metrics.json is read directly
    assert "repro-obs-report" not in names
    # the snapshot trajectory renderer was retired; regress is the one
    # compare (`python -m repro.bench.regress`)
    assert "repro-bench-history" not in names


@pytest.mark.parametrize(
    "name,module,attr", ENTRIES, ids=[e[0] for e in ENTRIES]
)
def test_entry_point_imports_and_answers_help(name, module, attr, capsys):
    mod = importlib.import_module(module)
    func = getattr(mod, attr)
    assert callable(func)
    try:
        rc = func(["--help"])
    except SystemExit as exc:  # argparse --help raises SystemExit(0)
        rc = exc.code
    assert rc in (0, None)
    assert "usage" in capsys.readouterr().out.lower()
