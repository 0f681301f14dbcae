"""The output table in docs/observability.md cannot drift from the code.

Every metric name passed to ``inc`` / ``set_gauge`` / ``observe`` and every
span name passed to ``span`` / ``record`` under ``src/repro`` must have a
row of the matching kind in the table, every metric and span row must name
one the code emits, and every test the table cites must exist.  A name built
at run time (an f-string) matches a row written with ``<placeholder>`` in
place of each substituted part; the per-method ``<field>_total`` family is
expanded from ``IOStats``'s fields, so each field needs its own name in the
table.  The ``stage.<name>`` spans come from :data:`repro.stats.STAGE_NAMES`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.stats import STAGE_NAMES
from repro.storage.pager import IOStats

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"
HEADING = "## What reads each output"
KIND_OF_CALL = {
    "inc": "counter",
    "set_gauge": "gauge",
    "observe": "histogram",
    "span": "span",
    "record": "span",
}
#: ``Observability.record_outcome``'s ``f"{fname}_total"``, one per IOStats field
IOSTATS_FAMILY = "<>_total"


def _template(node: ast.AST):
    """The literal or f-string name a call passes first, ``<>`` for each
    substituted part; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "<>"
            for part in node.values
        )
    return None


def emitted() -> dict:
    """name -> set of kinds, over every call under ``src/repro``."""
    names: dict = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KIND_OF_CALL
                and node.args
            ):
                continue
            name = _template(node.args[0])
            if name is None:
                continue
            kind = KIND_OF_CALL[node.func.attr]
            if name == IOSTATS_FAMILY:
                for field in fields(IOStats):
                    names.setdefault(f"{field.name}_total", set()).add(kind)
            else:
                names.setdefault(name, set()).add(kind)
    for stage in STAGE_NAMES:
        names.setdefault(f"stage.{stage}", set()).add("span")
    return names


def table_rows() -> list:
    """``(names, kind, reader)`` per row of the doc's output table."""
    text = DOC.read_text()
    assert HEADING in text, f"{DOC.name} lost its {HEADING!r} section"
    section = text.split(HEADING, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) < 5:
            continue
        names = re.findall(r"`([^`]+)`", cells[0])
        rows.append((names, cells[1], cells[-1]))
    return rows


def documented() -> dict:
    """name (placeholders as ``<>``) -> set of kinds, over the table."""
    out: dict = {}
    for names, kind, _ in table_rows():
        for name in names:
            out.setdefault(re.sub(r"<[^>]*>", "<>", name), set()).add(kind)
    return out


def test_every_emitted_name_has_a_row_of_its_kind():
    table = documented()
    missing = {
        name: sorted(kinds - table.get(name, set()))
        for name, kinds in emitted().items()
        if kinds - table.get(name, set())
    }
    assert not missing, f"no row in {DOC.name} for {missing}"


def test_every_metric_and_span_row_names_something_emitted():
    code = emitted()
    stale = {
        name: sorted(kinds - code.get(name, set()))
        for name, kinds in documented().items()
        if kinds - {"file"} - code.get(name, set())
    }
    assert not stale, f"{DOC.name} has rows the code never emits: {stale}"


def test_every_row_names_its_reader():
    rows = table_rows()
    assert len(rows) > 50
    assert {kind for _, kind, _ in rows} == {
        "file", "span", "counter", "gauge", "histogram",
    }
    unread = [names for names, _, reader in rows if not reader.strip(" —-")]
    assert not unread, f"rows without a reader: {unread}"


def _test_names(path: Path) -> dict:
    """top-level name -> names defined in it (a class's methods)."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            out[node.name] = {
                child.name for child in getattr(node, "body", [])
                if isinstance(child, ast.FunctionDef)
            }
    return out


def test_every_cited_test_exists():
    files = {
        path.relative_to(ROOT).as_posix(): _test_names(path)
        for path in (ROOT / "tests").rglob("test_*.py")
    }
    unresolved = []
    for _, _, reader in table_rows():
        for ref in re.findall(r"`([^`]+)`", reader):
            parts = ref.split("::")
            if parts[0].startswith("tests/"):
                path, parts = parts[0], parts[1:]
                candidates = [files.get(path)]
            elif parts[0].startswith("Test"):
                candidates = list(files.values())
            else:
                continue
            if not any(
                names is not None
                and (not parts or parts[0] in names)
                and (len(parts) < 2 or parts[1] in names[parts[0]])
                for names in candidates
            ):
                unresolved.append(ref)
    assert not unresolved, f"{DOC.name} cites tests that do not exist: {unresolved}"
