import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_written_from_the_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.render()


def test_spec_keeps_to_the_benchmark_file_format():
    b = json.loads(spec.render())
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    names = [w["name"] for w in b["workloads"]]
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
