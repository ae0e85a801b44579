"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q e2ebench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=cwd)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    out = run_bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                    "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_changed_output_row_trips_the_digest_gate(tmp_path):
    wl = workloads.build("enum_frontier", 1, "tiny", tmp_path, tmp_path / "out")
    _, codes = workloads.run_pass(wl)
    reference, problems = workloads.judge(wl, codes, None)
    assert not problems
    leaves = wl.steps[0].output
    rows = leaves.read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[-1])
    row["q"] *= 0.5
    rows[-1] = json.dumps(row, sort_keys=True)
    leaves.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _, problems = workloads.judge(wl, codes, reference)
    assert problems == [f"{wl.steps[0].name}: output digest differs from the reference"]


def test_invariant_check_catches_duplicate_leaves(tmp_path):
    wl = workloads.build("enum_frontier", 1, "tiny", tmp_path, tmp_path / "out")
    _, codes = workloads.run_pass(wl)
    leaves = wl.steps[0].output
    rows = leaves.read_text(encoding="utf-8").splitlines()
    rows[-1] = rows[0]
    leaves.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _, problems = workloads.judge(wl, codes, None)
    assert problems == [f"{wl.steps[0].name}: duplicate leaves for prompt 0"]


def test_invariant_check_catches_a_dropped_leaf(tmp_path):
    wl = workloads.build("enum_frontier", 1, "tiny", tmp_path, tmp_path / "out")
    _, codes = workloads.run_pass(wl)
    leaves = wl.steps[0].output
    rows = leaves.read_text(encoding="utf-8").splitlines()
    leaves.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    _, problems = workloads.judge(wl, codes, None)
    assert problems == [f"{wl.steps[0].name}: leaf rows disagree with the metrics file"]


def test_tracer_restores_the_package():
    from dle import cli, engine
    from dle.tree import PrunedTree

    before = (cli.main, engine.select_branch, PrunedTree.__dict__["expand_node"])
    t = tracer.Tracer()
    t.install()
    try:
        assert engine.select_branch is not before[1]
    finally:
        t.uninstall()
    assert (cli.main, engine.select_branch, PrunedTree.__dict__["expand_node"]) == before


def test_self_time_subtracts_the_union_of_children():
    spans = [tracer.Span(1, None, 0, "a", 0.0, 10.0),
             tracer.Span(2, 1, 0, "b", 1.0, 4.0),
             tracer.Span(3, 1, 0, "c", 3.0, 6.0)]
    assert tracer.self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench("--workload", "enum_frontier", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
