"""tools/bench_pairs.py record: the document it builds from pair directories, and its refusals."""

import importlib.util
import json
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
METRICS = ("op_s.p50", "op_s.tail", "setup_s", "peak_rss_mb")


@pytest.fixture()
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def write_pairs(dest, workload, parent, change, failed):
    """One run file per side and pair; metric k reads (k + 1) times the side's value."""
    dest.mkdir()
    for side, values in (("parent", parent), ("change", change)):
        for i, (value, fails) in enumerate(zip(values, failed[side]), 1):
            run = {"workload": workload, "seed": 3, "seconds": 40, "failed": fails,
                   "end_to_end": {m: (k + 1) * value for k, m in enumerate(METRICS)}}
            (dest / f"{side}-{i}.json").write_text(json.dumps(run))
    return str(dest)


def test_record_summarizes_each_pair_directory(tmp_path, capsys, bench_pairs):
    result = tmp_path / "result.json"
    kept = {"environment": {"cpu_count": 4}, "end_to_end": {"op_s.p50": 1.0},
            "ops_detail": [], "setup_samples_s": [0.5], "tail_percentile": 95}
    result.write_text(json.dumps({**kept, "trace": {"spans": []}}))
    serial = write_pairs(tmp_path / "serial", "qvga-serial", [1.0, 2.0, 4.0], [1.5, 1.0, 3.0],
                         {"parent": [0, 1, 0], "change": [2, 0, 0]})
    tools = write_pairs(tmp_path / "tools", "capture-tools", [1.0, 3.0], [1.0, 1.0],
                        {"parent": [0, 0], "change": [0, 0]})
    bench_pairs.record(str(result), serial, tools)
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc.pop(key) for key in kept} == kept
    first, second = doc.pop("pairs")
    assert doc == {}
    assert {key: first[key] for key in ("workload", "seed", "seconds", "pairs", "failed_ops")} \
        == {"workload": "qvga-serial", "seed": 3, "seconds": 40, "pairs": 3,
            "failed_ops": {"parent": 1, "change": 2}}
    assert (second["workload"], second["pairs"]) == ("capture-tools", 2)
    for k, metric in enumerate(METRICS):
        scale = k + 1
        assert first[metric] == {
            "parent": {"q1": 1.5 * scale, "median": 2.0 * scale, "q3": 3.0 * scale},
            "change": {"q1": 1.25 * scale, "median": 1.5 * scale, "q3": 2.25 * scale},
            "change_lower_in": 2}
        assert second[metric] == {
            "parent": {"q1": 1.5 * scale, "median": 2.0 * scale, "q3": 2.5 * scale},
            "change": {"q1": 1.0 * scale, "median": 1.0 * scale, "q3": 1.0 * scale},
            "change_lower_in": 1}


@pytest.mark.parametrize("pairs", [1, 0], ids=["one-pair", "no-directory"])
def test_record_refuses_a_directory_of_fewer_than_two_pairs(tmp_path, capsys, bench_pairs,
                                                           pairs):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({key: None for key in bench_pairs.KEPT}))
    dest = str(tmp_path / "pairs")
    if pairs:
        write_pairs(tmp_path / "pairs", "qvga-serial", [1.0], [1.0],
                    {"parent": [0], "change": [0]})
    with pytest.raises(SystemExit) as exc:
        bench_pairs.record(str(result), dest)
    assert str(exc.value).startswith(f"{dest}: {pairs} pair(s) found; record needs at least two")
    assert capsys.readouterr().out == ""
