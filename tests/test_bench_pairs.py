"""tools/bench_pairs.py: where `run` starts each side, what `record` builds, and its refusals."""

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


def write_pairs(dest, workload, parent, change, failed, ops=None):
    """One run file per side and pair; metric k reads (k + 1) times the side's value.

    `ops` maps a (side, pair) to that run's ops_detail, which is empty otherwise.
    """
    dest.mkdir()
    for side, values in (("parent", parent), ("change", change)):
        for i, (value, fails) in enumerate(zip(values, failed[side]), 1):
            run = {"workload": workload, "seed": 3, "seconds": 40, "failed": fails,
                   "end_to_end": {m: (k + 1) * value for k, m in enumerate(METRICS)},
                   "ops_detail": (ops or {}).get((side, i), [])}
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


def test_record_lists_the_frames_whose_outputs_differ(tmp_path, capsys, bench_pairs):
    # frame 0 agrees in every run, frame 1 differs between the sides, frame 2
    # varies within the parent's runs, frame 3 differs in its CG count alone,
    # and frame 4's failed op records neither hashes nor a CG count
    def op(frame, digest="a", cg=10):
        return {"frame": frame, "hashes": {"depth.tofgrid": digest}, "cg_iters": cg}

    same = [op(0), op(1), op(2), op(3), op(4)]
    ops = {("parent", 1): same, ("parent", 2): [op(0), op(1), op(2, "b"), op(3), op(4)],
           ("change", 1): [op(0), op(1, "c"), op(2), op(3, cg=11), op(4)],
           ("change", 2): [op(0), op(1, "c"), op(2), op(3), {"frame": 4}]}
    result = tmp_path / "result.json"
    result.write_text(json.dumps({key: None for key in bench_pairs.KEPT}))
    dest = write_pairs(tmp_path / "pairs", "qvga-serial", [1.0, 1.0], [1.0, 1.0],
                       {"parent": [0, 0], "change": [0, 1]}, ops)
    identical = write_pairs(tmp_path / "identical", "qvga-serial", [1.0, 1.0], [1.0, 1.0],
                            {"parent": [0, 0], "change": [0, 0]},
                            {(side, i): same for side in ("parent", "change") for i in (1, 2)})
    bench_pairs.record(str(result), dest, identical)
    first, second = json.loads(capsys.readouterr().out)["pairs"]
    assert first["outputs"] == {"frames": 5, "differing_frames": [1, 2, 3, 4]}
    assert second["outputs"] == {"frames": 5, "differing_frames": []}


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


def test_run_measures_each_side_from_a_fresh_copy(tmp_path, monkeypatch, bench_pairs):
    # peak RSS follows the directory a run starts in, so both sides run from
    # copies at paths of one length, without git, bytecode or earlier outputs
    trees = {}
    for side in ("parent", "change"):
        root = trees[side] = tmp_path / f"{side}-checkout"
        for left_out in (".git", "runs", "perfbench/out", "src/__pycache__"):
            (root / left_out).mkdir(parents=True)
            (root / left_out / "stale").write_text("")
        (root / "side.txt").write_text(side)
    monkeypatch.setattr(bench_pairs, "ROOT", str(trees["change"]))
    calls = []

    def fake_run(argv, cwd, check, stdout):
        calls.append(cwd)
        assert not any(os.path.exists(os.path.join(cwd, *path.split("/")))
                       for path in (".git", "runs", "perfbench/out/stale", "src/__pycache__"))
        with open(os.path.join(cwd, "side.txt"), encoding="utf-8") as fh:
            side = fh.read()
        out = os.path.join(cwd, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "qvga-serial-seed3-trace0.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"side": side, "run": len(calls)}, fh)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    dest = tmp_path / "pairs"
    bench_pairs.run(str(trees["parent"]), "qvga-serial", "3", "1", "2", str(dest))
    parent, change = calls[0], calls[1]
    assert calls == [parent, change, change, parent]
    assert os.path.dirname(parent) == os.path.dirname(change)
    assert (os.path.basename(parent), os.path.basename(change)) == ("parent", "change")
    assert {json.loads((dest / name).read_text())["side"] + "-" + name.split("-")[1]
            for name in os.listdir(dest)} == {"parent-1.json", "change-1.json",
                                              "parent-2.json", "change-2.json"}
    assert [json.loads((dest / f"{side}-2.json").read_text())["run"]
            for side in ("change", "parent")] == [3, 4]
