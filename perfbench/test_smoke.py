"""Smoke test of the benchmark on its 72x96 warm-up frames, in seconds.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def tiny_defog(tmp_path_factory):
    workload = WORKLOADS["qvga-serial"].tiny()
    work = str(tmp_path_factory.mktemp("defog"))
    return bench.measure(workload, seed=3, seconds=0, trace=True, work=work)


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == spans.PER_LAYER


def test_every_metric_prints_with_its_unit(tiny_defog, capsys):
    result, _ = tiny_defog
    assert result["failed"] == 0
    bench.print_tables(result)
    table = capsys.readouterr().out
    for name, unit in {**bench.END_TO_END, **bench.QUALITY, **spans.PER_LAYER}.items():
        assert any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                   for line in table.splitlines()), name
    for trace, declared in ((False, bench.END_TO_END), (True, spans.PER_LAYER)):
        line = json.loads(json.dumps(bench.summary(result, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_self_times_are_non_negative(tiny_defog):
    _, tracer = tiny_defog
    assert tracer.spans
    assert min(spans.self_times(tracer.spans).values()) >= 0.0


def test_traced_cg_count_equals_manifest(tiny_defog):
    result, _ = tiny_defog
    (traced,) = result["traced_ops_detail"]
    assert traced["ok"]
    assert result["per_layer"]["irls.cg_iters"] == traced["cg_iters"] > 0
    assert result["per_layer"]["pipeline.domain_overlap"] <= 1.0


def test_capture_tools_checks_pass(tmp_path):
    workload = WORKLOADS["capture-tools"].tiny()
    result, _ = bench.measure(workload, seed=3, seconds=0, trace=True, work=str(tmp_path))
    assert result["failed"] == 0
    assert result["per_layer"]["forward.scattering_phasor.calls"] > 0
    assert result["per_layer"]["gridfile.mb_per_s"] > 0
