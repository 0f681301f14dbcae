"""``--compare``: sets of runs are compared by their medians, one direction at a time."""

import json

from perfbench import run


def _write(path, throughput):
    spec = run._benchmark()
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    metrics["throughput_ops_s"] = {"value": throughput, "unit": "1/s"}
    record = {"failed": 0, "end_to_end": metrics}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workloads": {"explore": record}}))


def test_a_set_is_compared_by_its_median_and_only_worse_is_a_breach(tmp_path, capsys):
    for index, value in enumerate((100.0, 101.0, 10.0)):  # one stray run in the set
        _write(tmp_path / "a" / f"{index}.json", value)
    _write(tmp_path / "b.json", 70.0)
    assert run.compare(str(tmp_path / "a"), str(tmp_path / "b.json")) == 1  # 100 -> 70
    assert "BREACH" in capsys.readouterr().out
    assert run.compare(str(tmp_path / "b.json"), str(tmp_path / "a")) == 0  # 70 -> 100


def test_failed_ops_in_the_second_set_are_a_breach(tmp_path):
    _write(tmp_path / "a.json", 100.0)
    _write(tmp_path / "b.json", 100.0)
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    broken = json.loads((tmp_path / "b.json").read_text())
    broken["workloads"]["explore"]["failed"] = 2
    (tmp_path / "b.json").write_text(json.dumps(broken))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
