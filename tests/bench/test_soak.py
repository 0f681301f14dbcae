"""Every soak catches a table that loses rows, and the CLI says which."""

import json

import pytest

from repro.bench import soak
from repro.bench.__main__ import main


@pytest.mark.parametrize(
    "argv, key, code",
    [
        (["--chaos", "20"], "chaos", 4),
        (["--crash-drill"], "crash_drill", 5),
        (["--overload", "30"], "overload", 6),
        (["--shard-sweep", "4"], "shard_sweep", 7),
    ],
    ids=["chaos", "crash", "overload", "shards"],
)
def test_every_scenario_catches_a_lossy_table(
    lossy_table, argv, key, code, capsys, tmp_path
):
    dump = tmp_path / "soak.json"
    assert main(argv + ["--json", str(dump)]) == code
    report = json.loads(dump.read_text())[key]
    assert report["passed"] is False
    assert [e for e in report["errors"] if "answer differs from the reference" in e]
    assert f"{report['scenario']} soak FAILED" in capsys.readouterr().out


def test_the_highest_failing_exit_code_wins(monkeypatch, capsys):
    def failing(name):
        return lambda **kwargs: soak.SoakReport(name, 0, "none", errors=["x"])

    monkeypatch.setattr(soak, "chaos", failing("chaos"))
    monkeypatch.setattr(soak, "crash", failing("crash"))
    assert main(["--chaos", "5", "--crash-drill"]) == 5
    out = capsys.readouterr().out
    assert "chaos soak FAILED" in out and "crash soak FAILED" in out
