import csv
import json
import subprocess
import sys

import pytest

from dle.cli import main

TWO_LEAF_DOC = {
    "vocab": ["a", "b", "<eos>"], "eos": "<eos>",
    "transitions": {"": {"a": 0.7, "b": 0.3},
                    "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}},
}


@pytest.fixture
def two_leaf_path(tmp_path):
    path = tmp_path / "two_leaf.json"
    path.write_text(json.dumps(TWO_LEAF_DOC))
    return str(path)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_enumerate_worked_tree_end_to_end(fig_tree_path, tmp_path):
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", "epsilon_ge:0.1", "--policy", "probfirst",
                 "--k", "4", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert len(rows) == 4
    assert [round(r["q"], 9) for r in rows] == [0.504, 0.27, 0.126, 0.1]
    assert rows[0]["text"] == "a c e <eos>"
    assert set(rows[0]) == {"tokens", "text", "q", "log_q", "new_tokens",
                            "reused_prefix", "stop_reason", "order"}
    metrics = json.loads((tmp_path / "leaves.jsonl.metrics.json").read_text())
    assert metrics["prompts"][0]["coverage"] == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((tmp_path / "leaves.jsonl.manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert manifest["config"]["rule"] == "epsilon_ge:0.1"
    assert manifest["degraded"] is False


def test_enumerate_is_byte_reproducible(fig_tree_path, tmp_path):
    args = ["enumerate", "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
            "--policy", "probfirst", "--k", "4"]
    out1 = tmp_path / "run1" / "leaves.jsonl"
    out2 = tmp_path / "run2" / "leaves.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "run1" / "leaves.jsonl.manifest.json").read_bytes() == \
        (tmp_path / "run2" / "leaves.jsonl.manifest.json").read_bytes()


def test_enumerate_randbranch_is_seed_stable(fig_tree_path, tmp_path):
    args = ["enumerate", "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
            "--policy", "randbranch:7", "--k", "4"]
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_enumerate_dump_tree(fig_tree_path, tmp_path):
    out = tmp_path / "leaves.jsonl"
    tree_path = tmp_path / "tree.json"
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", "epsilon_ge:0.1", "--k", "4",
                 "--out", str(out), "--dump-tree", str(tree_path)])
    assert code == 0
    doc = json.loads(tree_path.read_text())
    assert {"id", "parent", "token", "edge_weight", "log_mass", "status"} <= set(doc["nodes"][0])
    statuses = {n["status"] for n in doc["nodes"]}
    assert "leaf" in statuses


def test_enumerate_batch_prompts(fig_tree_path, tmp_path):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\n")
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", "epsilon_ge:0.1", "--k", "2",
                 "--prompt-file", str(prompts), "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert [r["prompt"] for r in rows] == [0, 0, 1, 1]
    assert all(r["reused_prefix"] >= 1 for r in rows)


def test_invalid_rule_exits_2(fig_tree_path, tmp_path):
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", "nucleus:0.9", "--k", "4",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_missing_budget_exits_2(fig_tree_path, tmp_path):
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", "epsilon:0.1", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_degraded_run_writes_partial_results_and_exits_3(tmp_path):
    # No transition for the b branch and no default: the second rollout
    # fails after the greedy leaf completed.
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 0.6, "b": 0.4}, "a": {"<eos>": 1.0}}}
    model_path = tmp_path / "broken.json"
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", f"table:{model_path}", "--rule", "min_p:0.5",
                 "--k", "2", "--out", str(out)])
    assert code == 3
    rows = read_jsonl(out)
    assert len(rows) == 1
    assert rows[0]["text"] == "a <eos>"
    manifest = json.loads((tmp_path / "leaves.jsonl.manifest.json").read_text())
    assert manifest["degraded"] is True
    metrics = json.loads((tmp_path / "leaves.jsonl.metrics.json").read_text())
    assert metrics["prompts"][0]["degraded"] is True


def test_unreachable_remote_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("DLE_REMOTE_URL", "http://127.0.0.1:1/unreachable")
    code = main(["enumerate", "--model", "remote:top_n=2", "--rule", "epsilon:0.1",
                 "--k", "2", "--out", str(tmp_path / "x.jsonl")])
    assert code == 3


def test_enumerate_against_stub_endpoint(tmp_path, monkeypatch, stub_server):
    stub_server.configure({
        "": {"x": -0.2, "y": -1.7},
        "x": {"<eos>": 0.0},
        "y": {"<eos>": 0.0},
    })
    monkeypatch.setenv("DLE_REMOTE_URL", stub_server.url)
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", "remote:top_n=4", "--rule", "epsilon:0.05",
                 "--k", "4", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert len(rows) == 2
    assert {r["text"] for r in rows} == {"x<eos>", "y<eos>"}
    total = sum(r["q"] for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sample_command_outputs_draws(two_leaf_path, tmp_path):
    out = tmp_path / "samples.jsonl"
    code = main(["sample", "--model", f"table:{two_leaf_path}", "--rule", "epsilon:0.05",
                 "--k", "20", "--seed", "3", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert len(rows) == 20
    assert [r["draw"] for r in rows] == list(range(20))
    assert {r["text"] for r in rows} <= {"a <eos>", "b <eos>"}


def test_compare_reports_closed_form(two_leaf_path, tmp_path):
    out = tmp_path / "compare.csv"
    code = main(["compare", "--model", f"table:{two_leaf_path}", "--rule", "epsilon:0.05",
                 "--k", "1..2", "--sample-seeds", "5", "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [1, 2]
    assert float(rows[0]["expected_coverage_closed"]) == pytest.approx(0.58, abs=1e-12)
    assert float(rows[1]["expected_coverage_closed"]) == pytest.approx(0.79, abs=1e-12)
    assert float(rows[1]["coverage_dle"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["coverage_dle"]) == pytest.approx(0.7, abs=1e-9)
    assert "dle_new_tokens" in rows[0] and "sampled_new_tokens" in rows[0]
    # Sampled coverage at k=1 is a mean of single-draw masses.
    assert 0.3 <= float(rows[0]["coverage_sampled_mean"]) <= 1.0


def test_coverage_curve_columns(two_leaf_path, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["coverage-curve", "--model", f"table:{two_leaf_path}",
                 "--rule", "epsilon:0.05", "--k-max", "3", "--sample-seeds", "4",
                 "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["k", "coverage_dle", "expected_coverage_closed",
                                     "coverage_sampled_mean", "coverage_sampled_std"]
        rows = list(reader)
    dle_values = [float(r["coverage_dle"]) for r in rows]
    closed = [float(r["expected_coverage_closed"]) for r in rows]
    assert dle_values == sorted(dle_values)
    assert closed == sorted(closed)
    diffs = [b - a for a, b in zip(closed, closed[1:])]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


def test_cache_sim_hand_example(tmp_path):
    leaves = tmp_path / "leaves.jsonl"
    with open(leaves, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"tokens": [1, 2, 3], "q": 0.5}) + "\n")
        fh.write(json.dumps({"tokens": [1, 2, 4], "q": 0.5}) + "\n")
    manifest = {"prompt_tokens": [[100, 101, 102, 103, 104]]}
    (tmp_path / "leaves.jsonl.manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "cache.json"
    code = main(["cache-sim", "--in", str(leaves), "--out", str(out)])
    assert code == 0
    stats = json.loads(out.read_text())
    assert stats["theoretical_hits"] == 7
    assert stats["actual_hits"] == 7
    assert stats["flat_length"] == 16
    assert stats["actual_rate"] == pytest.approx(7 / 16)


def test_cache_sim_block_and_capacity(tmp_path):
    leaves = tmp_path / "leaves.jsonl"
    with open(leaves, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"tokens": [100, 101, 102, 103, 104, 1, 2, 3], "q": 0.5}) + "\n")
        fh.write(json.dumps({"tokens": [100, 101, 102, 103, 104, 1, 2, 4], "q": 0.5}) + "\n")
    out = tmp_path / "cache.json"
    code = main(["cache-sim", "--in", str(leaves), "--block", "4",
                 "--capacity", "64", "--evict", "lru", "--out", str(out)])
    assert code == 0
    stats = json.loads(out.read_text())
    assert stats["actual_hits"] == 4


def test_vote_command(tmp_path):
    leaves = tmp_path / "leaves.jsonl"
    with open(leaves, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"text": "answer = 7", "q": 0.4}) + "\n")
        fh.write(json.dumps({"text": "answer = 7", "q": 0.2}) + "\n")
        fh.write(json.dumps({"text": "answer = 9", "q": 0.3}) + "\n")
    out = tmp_path / "vote.json"
    code = main(["vote", "--in", str(leaves), "--extract", "suffix:=",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["winner"] == "7"
    assert doc["weights"]["7"] == 2.0
    code = main(["vote", "--in", str(leaves), "--extract", "suffix:=",
                 "--weighting", "prob", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["winner"] == "7"


def test_ngram_train_then_enumerate(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\na b\na c\n")
    model_path = tmp_path / "model.json"
    code = main(["ngram-train", "--corpus", str(corpus), "--order", "2",
                 "--alpha", "0.5", "--out", str(model_path)])
    assert code == 0
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", f"ngram:{model_path}", "--rule", "top_k:2",
                 "--k", "4", "--max-seq-len", "8", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert 1 <= len(rows) <= 4
    assert all(r["q"] > 0 for r in rows)


def test_oracle_command(fig_tree_path, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["total_mass"] == pytest.approx(1.0, abs=1e-9)
    assert len(doc["leaves"]) == 4


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "dle.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "enumerate" in proc.stdout


@pytest.mark.parametrize("command, flag", [
    (["sample", "--k", "0", "--seed", "0"], "--k"),
    (["compare", "--k", "1..2", "--sample-seeds", "0"], "--sample-seeds"),
    (["enumerate", "--k", "2", "--workers", "0"], "--workers"),
])
def test_non_positive_counts_exit_2_without_traceback(command, flag, fig_tree_path, tmp_path, capsys):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--model", f"table:{fig_tree_path}", "--rule", "epsilon:0.05",
              "--prompt-file", str(prompts), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be >= 1, got 0" in err.splitlines()[-1]
    assert "Traceback" not in err
