"""Schema versioning for observability artifacts.

Every JSON/JSONL artifact an ``--obs`` run writes -- ``metrics.json``,
``explain.jsonl`` records, ``calibration.json`` -- carries a top-level ``"schema": N`` field so readers
(``python -m repro.obs.explain``, CI's artifact assertions) can detect
records written by a newer or older build.  Readers must *warn, not raise*
on unknown versions: an artifact from a different build is still mostly
renderable.

(The benchmark snapshots under ``BENCH_*.json`` predate this module and
keep their own ``schema``/``schema_version`` pair -- see
:mod:`repro.bench.regress`.)

This module is import-cycle free on purpose: it depends on nothing inside
``repro``, so even :mod:`repro.obs.metrics` (which ``repro.obs.__init__``
imports) can stamp its output.
"""

from __future__ import annotations

from typing import List

#: Version stamped into every obs artifact this build writes.
OBS_SCHEMA_VERSION = 1


def stamp(record: dict) -> dict:
    """Return ``record`` with the current schema version prepended.

    The version comes first so it is the first key of the serialized JSON
    object -- cheap to sniff without parsing the whole document.
    """
    return {"schema": OBS_SCHEMA_VERSION, **record}


def check_versions(records, artifact: str) -> List[str]:
    """Version-check a JSONL record stream; at most one warning per file.

    A record without a ``schema`` key is pre-versioning and reads without
    complaint; only a version other than :data:`OBS_SCHEMA_VERSION` warns.
    """
    for record in records:
        if not isinstance(record, dict):
            continue
        version = record.get("schema")
        if version is not None and version != OBS_SCHEMA_VERSION:
            return [
                f"{artifact}: unknown schema version {version!r} "
                f"(this build reads version {OBS_SCHEMA_VERSION}); "
                f"rendering best-effort"
            ]
    return []
