"""Smoke test for the benchmark itself; not part of the tier-1 suite.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py

Tiny versions of each workload run traced and untraced through the same
code as the real benchmark, against a reference recorded on the spot, and
every metric named in BENCHMARK.json must come out.
"""

import json

import pytest

import compare
import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "classify": [["theorem", "--s", "3", "--t-max", "3"]],
    "extend": [["extend", "--graph", "split:3,2", "--mu=-2"]],
    "scan": [
        ["candidates", "--graph", "split:2,4", "--mu=-2"],
        ["candidates", "--graph", "split:2,3", "--mu=-5/2", "--nonmain"],
    ],
    "starsets": [
        ["spectrum", "--graph", "cocktail:3"],
        ["starsets", "--graph", "cocktail:3", "--mu=-2"],
    ],
}


@pytest.fixture(scope="module")
def tiny():
    return run.record(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(tiny, workload, trace):
    result, env, _ = run.measure(workload, 5, 0.0, trace, tiny)
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert env["backend"] in ("numba", "numpy")


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(run.MUST_RUN) == sorted(run.WORKLOADS) == sorted(TINY)
    reference = json.loads(run.REFERENCE.read_text())
    assert {w: [r["argv"] for r in refs] for w, refs in reference.items()} == run.WORKLOADS


def test_vanished_name_fails_loudly(tiny):  # tiny has put src/ on sys.path
    with pytest.raises(tracer.TraceError, match="no_such_layer"):
        tracer.Tracer().wrap("starcomp.extend", "no_such_layer", "x")


def test_layer_without_calls_fails_loudly(tiny, monkeypatch):
    monkeypatch.setitem(run.MUST_RUN, "scan", ["extend.assemble_graph"])
    with pytest.raises(tracer.TraceError, match="extend.assemble_graph"):
        run.measure("scan", 0, 0.0, True, tiny)


def test_wrong_output_is_counted(tiny):
    tampered = json.loads(json.dumps(tiny))
    tampered["scan"][0]["sha256"] = "0" * 64
    result, _, _ = run.measure("scan", 0, 0.0, False, tampered)
    assert not result["correct"] and result["failed"] >= 1


def test_compare_refuses_other_backend(tmp_path):
    paths = []
    for backend in ("numpy", "numba"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(
            {"workload": "scan", "env": {"backend": backend}, "result": {"metrics": {}}}))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert compare.main([paths[0], paths[0]]) == 0
