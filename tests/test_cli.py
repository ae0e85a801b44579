import concurrent.futures
import csv
import hashlib
import inspect
import json
import math
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_table_model
from dle import baseline, cli, oracle
from dle.cli import _compare_rows, main
from dle.engine import BranchPolicy
from dle.errors import EmptyFrontier, InvariantViolation
from dle.model import TableModel, train_ngram_model
from dle.remote import RemoteModel
from dle.tree import DEFAULT_MAX_SEQ_LEN
from dle.truncation import parse_rule
from reference import reference_compare_rows

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


def test_dump_tree_with_several_prompts_exits_2_before_running(fig_tree_path, tmp_path, capsys):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\n")
    out = tmp_path / "leaves.jsonl"
    tree_path = tmp_path / "tree.json"
    code = main(["enumerate", "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
                 "--k", "2", "--prompt-file", str(prompts), "--out", str(out),
                 "--dump-tree", str(tree_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: --dump-tree supports single-prompt runs only\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig_tree.json", "prompts.txt"]


@pytest.mark.parametrize("command, extra", [
    ("compare", ["--k", "1..2", "--sample-seeds", "1"]),
    ("oracle", []),
])
def test_single_prompt_commands_exit_2_on_several_prompts(command, extra, fig_tree_path,
                                                         tmp_path, capsys, monkeypatch):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\n")

    def no_query(*_):
        raise AssertionError("the model was queried")

    monkeypatch.setattr(TableModel, "next_distribution", no_query)
    code = main([command, "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
                 "--prompt-file", str(prompts), *extra, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {command} supports single-prompt runs only\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig_tree.json", "prompts.txt"]


_COMMON_CONFIG = {"model", "rule", "max_seq_len", "prompt_file"}


@pytest.mark.parametrize("command, extra, keys", [
    ("enumerate", ["--k", "2"],
     {"policy", "k", "token_budget", "early_stop_n"}),
    ("sample", ["--k", "2"], {"k", "seed", "temperature"}),
    ("compare", ["--k", "1..2", "--sample-seeds", "1"], {"policy", "k", "sample_seeds"}),
])
def test_manifest_config_echoes_every_option_that_shapes_the_output(command, extra, keys,
                                                                    fig_tree_path, tmp_path):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\n")
    out = tmp_path / "out"
    assert main([command, "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
                 "--prompt-file", str(prompts), "--max-seq-len", "8", *extra,
                 "--out", str(out)]) == 0
    config = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
    assert set(config) == _COMMON_CONFIG | keys
    assert config["max_seq_len"] == 8
    assert config["prompt_file"] == str(prompts)


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


INVALID_RULES = {
    "nucleus:0.9": "unknown rule name 'nucleus'",
    "epsilon:0.1+": "rule '' must look like name:value",
    "+epsilon:0.1": "rule '' must look like name:value",
    "epsilon:0.1++top_k:2": "rule '' must look like name:value",
    "min_p:1.5": "min_p requires p_min in (0, 1], got 1.5",
}


@pytest.mark.parametrize("rule", list(INVALID_RULES))
def test_invalid_rule_exits_2(rule, fig_tree_path, tmp_path, capsys):
    code = main(["enumerate", "--model", f"table:{fig_tree_path}",
                 "--rule", rule, "--k", "4",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {INVALID_RULES[rule]}\n"


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


@pytest.mark.parametrize("payload, message", [
    (None, "endpoint rejected request: HTTP 404"),
    ({"choices": []}, "malformed endpoint payload: {'choices': []}"),
], ids=["http-404", "malformed-payload"])
def test_rejected_request_or_malformed_payload_exits_3_after_one_attempt(
        payload, message, tmp_path, monkeypatch, stub_server, capsys):
    # The stub answers 404 for a prompt it has no table for.
    stub_server.configure({}, payload=payload)
    monkeypatch.setenv("DLE_REMOTE_URL", stub_server.url)
    code = main(["enumerate", "--model", "remote:top_n=2", "--rule", "epsilon:0.1",
                 "--k", "2", "--out", str(tmp_path / "x.jsonl")])
    assert code == 3
    assert capsys.readouterr().err == f"model error: {message}\n"
    assert len(stub_server.state.requests) == 1


def test_undecodable_response_is_retried_then_exits_3(tmp_path, monkeypatch, stub_server,
                                                      capsys):
    # A body that is not UTF-8 is retried like any non-JSON body.
    stub_server.configure({}, payload=b"\xff\xfe{")
    monkeypatch.setenv("DLE_REMOTE_URL", stub_server.url)
    code = main(["enumerate", "--model", "remote:top_n=2", "--rule", "epsilon:0.1",
                 "--k", "2", "--out", str(tmp_path / "x.jsonl")])
    assert code == 3
    retries = inspect.signature(RemoteModel).parameters["max_retries"].default
    assert capsys.readouterr().err == \
        f"model error: endpoint unreachable after {retries + 1} attempts\n"
    assert len(stub_server.state.requests) == retries + 1


def test_remote_spec_options_set_the_url_and_the_eos_token(tmp_path, monkeypatch, stub_server):
    stub_server.configure({"": {"x": -0.2, "</s>": -1.7}, "x": {"</s>": 0.0}})
    monkeypatch.delenv("DLE_REMOTE_URL", raising=False)
    out = tmp_path / "leaves.jsonl"
    code = main(["enumerate", "--model", f"remote:url={stub_server.url},eos=</s>",
                 "--rule", "epsilon:0.05", "--k", "4", "--out", str(out)])
    assert code == 0
    assert [(r["text"], r["stop_reason"]) for r in read_jsonl(out)] == \
        [("x</s>", "eos"), ("</s>", "eos")]


@pytest.mark.parametrize("error, message", [
    (InvariantViolation("sums disagree"), "internal invariant violated: sums disagree"),
    (EmptyFrontier("no branch points"), "internal error: no branch points"),
], ids=["invariant-violation", "other-dle-error"])
def test_internal_errors_exit_4(error, message, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_vote", fail)
    assert main(["vote", "--in", "rows.jsonl"]) == 4
    assert capsys.readouterr().err == f"{message}\n"


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


def test_sample_at_a_tiny_temperature_draws_the_greedy_sequence(tmp_path):
    # log(p) / 1e-320 overflows for every token; the draws are then greedy.
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "vocab": ["a", "b", "c", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 0.2, "b": 0.5, "c": 0.3}, "a": {"<eos>": 1.0},
                        "b": {"c": 0.6, "<eos>": 0.4}, "b c": {"<eos>": 1.0},
                        "c": {"<eos>": 1.0}}}))
    out = tmp_path / "samples.jsonl"
    code = main(["sample", "--model", f"table:{table}", "--rule", "epsilon:0.005",
                 "--temperature", "1e-320", "--k", "3", "--out", str(out)])
    assert code == 0
    assert [(r["text"], r["q"]) for r in read_jsonl(out)] == [("b c <eos>", 1.0)] * 3


@pytest.mark.parametrize("command, extra", [("compare", ["--k", "1..2"])])
def test_compare_takes_no_temperature(command, extra, fig_tree_path, tmp_path, capsys):
    # Coverage is T=1 mass, so draws at another temperature would mix units:
    # at T=0.001 the one greedy draw read as coverage 1.0, its T=1 mass 0.504.
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1", *extra,
              "--sample-seeds", "3", "--temperature", "0.001", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "dle: error: unrecognized arguments: --temperature 0.001"
    assert not out.exists()


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


def test_compare_curve_columns(two_leaf_path, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["compare", "--model", f"table:{two_leaf_path}",
                 "--rule", "epsilon:0.05", "--k", "1..3", "--sample-seeds", "4",
                 "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["k", "coverage_dle", "expected_coverage_closed",
                                     "coverage_sampled_mean", "coverage_sampled_std",
                                     "dle_new_tokens", "sampled_new_tokens"]
        rows = list(reader)
    assert [int(r["k"]) for r in rows] == [1, 2, 3]
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


@pytest.mark.parametrize("command", [["cache-sim", "--in", "{rows}"], ["vote", "--in", "{rows}"],
                                     ["oracle", "--model", "table:{fig}", "--rule", "top_k:2"]],
                         ids=["cache-sim", "vote", "oracle"])
def test_json_commands_without_out_print_the_output_file(command, fig_tree_path, tmp_path,
                                                         capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"tokens": [0, 3, 8], "text": "a d", "q": 0.25}\n'
                    '{"tokens": [0, 2, 8], "text": "a c", "q": 0.5}\n')
    argv = [arg.format(rows=rows, fig=fig_tree_path) for arg in command]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("command, lines, message", [
    (["cache-sim"], ['{"x": [1, 2]}'], "line 1: missing key 'tokens'"),
    (["cache-sim"], ['{"tokens": [1]}', "", '{"tokens": 7}'], "line 3: bad 'tokens' value 7"),
    (["cache-sim"], ["[1, 2]"], "line 1: missing key 'tokens'"),
    (["vote"], ['{"x": [1, 2]}'], "line 1: missing key 'text'"),
    (["vote"], ['{"text": "a", "q": 0.5}', '{"text": "b"}'], "line 2: missing key 'q'"),
    (["vote"], ['{"text": "a", "q": "abc"}'], "line 1: bad 'q' value 'abc'"),
    (["vote"], ['{"text": "a", "q": null}'], "line 1: bad 'q' value None"),
    (["cache-sim"], ['{"tokens": [1, [2]]}'], "line 1: bad 'tokens' value [1, [2]]"),
    (["cache-sim"], ['{"tokens": "abc"}'], "line 1: bad 'tokens' value 'abc'"),
    (["cache-sim"], ['{"tokens": {"a": 1}}'], "line 1: bad 'tokens' value {'a': 1}"),
    (["vote"], ['{"text": null, "q": 0.5}', '{"text": "None", "q": 0.1}'],
     "line 1: bad 'text' value None"),
    (["vote"], ['{"text": ["a"], "q": 0.5}'], "line 1: bad 'text' value ['a']"),
])
def test_bad_input_rows_exit_2_without_traceback(command, lines, message, tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    code = main([*command, "--in", str(rows), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {rows} {message}\n"
    assert not out.exists()


# JSON booleans are integers to Python and numeric strings convert with
# float(), but neither is a mass or a prompt index; nor is an integer too
# large for a float.
@pytest.mark.parametrize("command, line, message", [
    (["vote", "--weighting", "prob"], '{"text": "a", "q": true}', "bad 'q' value True"),
    (["vote", "--weighting", "prob"], '{"text": "a", "q": "0.9"}', "bad 'q' value '0.9'"),
    (["vote", "--weighting", "prob"], '{"text": "a", "q": 1' + "0" * 400 + "}",
     "bad 'q' value 1" + "0" * 400),
    (["cache-sim"], '{"tokens": [1, 2], "prompt": true}', "bad 'prompt' value True"),
    (["cache-sim"], '{"tokens": [1, 2], "prompt": "0"}', "bad 'prompt' value '0'"),
], ids=["q-true", "q-string", "q-huge-int", "prompt-true", "prompt-string"])
def test_boolean_or_string_numbers_in_rows_exit_2(command, line, message, tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"text": "b", "q": 0.5, "tokens": [3]}\n' + line + "\n")
    out = tmp_path / "out.json"
    code = main([*command, "--in", str(rows), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {rows} line 2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("q", ['"nan"', '"inf"', '"-inf"', "NaN", "Infinity", "-1", '"-0.5"'])
def test_vote_rejects_non_finite_or_negative_masses(q, tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(f'{{"text": "a", "q": 0.5}}\n{{"text": "b", "q": {q}}}\n')
    out = tmp_path / "vote.json"
    code = main(["vote", "--in", str(rows), "--weighting", "prob", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {rows} line 2: bad 'q' value ")
    assert not out.exists()


@pytest.mark.parametrize("row, manifest, message", [
    ({"tokens": [1], "prompt": 0}, '{"prompt_tokens": [[5, 6]',
     "cannot read manifest {manifest}: "),
    ({"tokens": [1], "prompt": [0]}, '{"prompt_tokens": [[5, 6]]}',
     "{rows} line 1: bad 'prompt' value [0]\n"),
    ({"tokens": [1], "prompt": 0}, '{"prompt_tokens": [7]}',
     "{manifest}: 'prompt_tokens' must be an array of token arrays\n"),
    ({"tokens": [1]}, "[[5, 6]]", "{manifest}: 'prompt_tokens' must be an array of token arrays\n"),
    ({"tokens": [1]}, '{"prompt_tokens": [[5, [6]]]}',
     "{manifest}: 'prompt_tokens' must be an array of token arrays\n"),
    ({"tokens": [1]}, '{"prompt_tokens": ["xy"]}',
     "{manifest}: 'prompt_tokens' must be an array of token arrays\n"),
])
def test_bad_cache_sim_manifest_exits_2_without_traceback(row, manifest, message, tmp_path,
                                                         capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(row) + "\n")
    manifest_path = tmp_path / "rows.jsonl.manifest.json"
    manifest_path.write_text(manifest)
    out = tmp_path / "cache.json"
    code = main(["cache-sim", "--in", str(rows), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(rows=rows, manifest=manifest_path))
    assert not out.exists()


def _two_leaf_responses(prompts: dict) -> dict:
    """Stub answers for one-word prompts: each ranks x and y as its (px, py)
    says, and both end after one token."""
    responses = {}
    for prompt, (px, py) in prompts.items():
        responses[prompt] = {"x": math.log(px), "y": math.log(py)}
        responses.update({prompt + tok: {"<eos>": 0.0} for tok in "xy"})
    return responses


@pytest.mark.parametrize("command", [["enumerate", "--k", "3"], ["sample", "--k", "5"]])
def test_multi_prompt_runs_start_no_thread(command, fig_tree_path, tmp_path, monkeypatch,
                                           stub_server):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\nb c a\nc a b a\n")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\na\n")
    stub_server.configure(_two_leaf_responses({"a": (0.6, 0.4), "b": (0.3, 0.7)}))
    monkeypatch.setenv("DLE_REMOTE_URL", stub_server.url)

    def no_pool(*args, **kwargs):
        raise AssertionError("a multi-prompt run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    threads = threading.active_count()
    for model in [f"ngram:{corpus}?order=2", f"table:{fig_tree_path}", "remote:top_n=4"]:
        out = tmp_path / "out.jsonl"
        code = main([*command, "--model", model, "--rule", "epsilon_ge:0.1", "--workers", "4",
                     "--prompt-file", str(prompts), "--out", str(out)])
        assert code == 0
        assert sorted({row["prompt"] for row in read_jsonl(out)}) == [0, 1, 2]
    assert threading.active_count() == threads


def test_multi_prompt_sample_seeds_each_draw_stream_once(fig_tree_path, tmp_path, monkeypatch):
    # Table contexts ignore the prompt, so every prompt's draw d reads the
    # same uniforms of stream (seed, d): 6 seedings for 3 prompts, not 18.
    seeded = []
    family = baseline.substream_family

    def counting_family(*parts):
        make = family(*parts)

        def counted(*tail):
            seeded.append(tail)
            return make(*tail)

        return counted

    monkeypatch.setattr(baseline, "substream_family", counting_family)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\na\n")
    out = tmp_path / "out.jsonl"
    code = main(["sample", "--model", f"table:{fig_tree_path}", "--rule", "epsilon_ge:0.1",
                 "--prompt-file", str(prompts), "--k", "6", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert len(read_jsonl(out)) == 18
    assert sorted(seeded) == [(draw,) for draw in range(6)]


@pytest.mark.parametrize("command", [["enumerate", "--k", "3"], ["sample", "--k", "6"]])
def test_remote_multi_prompt_runs_number_tokens_in_input_order(command, tmp_path, monkeypatch,
                                                               stub_server):
    # p and q rank x and y in opposite orders, so the client numbers x and y
    # in the order their first answer arrives: p's, as prompts run in input order.
    stub_server.configure(_two_leaf_responses({"p": (0.6, 0.4), "q": (0.3, 0.7)}))
    monkeypatch.setenv("DLE_REMOTE_URL", stub_server.url)
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("p\nq\n" * 4)
    outputs = []
    for run in range(2):
        stub_server.state.requests.clear()
        out = tmp_path / f"out{run}.jsonl"
        code = main([*command, "--model", "remote:top_n=4", "--rule", "epsilon:0.05",
                     "--prompt-file", str(prompts), "--workers", "4", "--out", str(out)])
        assert code == 0
        # One request per distinct context: 2 prompts x 3 prefixes. Repeated
        # prompt lines are answered from the run's step memo.
        assert len(stub_server.state.requests) == 6
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    manifest = json.loads((tmp_path / "out1.jsonl.manifest.json").read_text())
    assert manifest["prompt_tokens"] == [[1], [2]] * 4
    x, y, eos = 3, 4, 0
    rows = read_jsonl(out)
    assert [row["prompt"] for row in rows] == sorted(row["prompt"] for row in rows)
    if command[0] == "enumerate":
        leaves = {0: [[x, eos], [y, eos]], 1: [[y, eos], [x, eos]]}  # most likely first
        assert [(row["prompt"], row["tokens"]) for row in rows] == [
            (idx, tokens) for idx in range(8) for tokens in leaves[idx % 2]]
    else:
        assert len(rows) == 48 and {tuple(row["tokens"]) for row in rows} == {(x, eos), (y, eos)}


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


@pytest.fixture
def chain_path(tmp_path):
    """A table whose one path is six forced a's, then eos: a 7-token leaf."""
    transitions = {" ".join(["a"] * depth): {"a": 1.0} for depth in range(6)}
    transitions["a a a a a a"] = {"<eos>": 1.0}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"vocab": ["a", "<eos>"], "eos": "<eos>",
                                "transitions": transitions}))
    return str(path)


@pytest.mark.parametrize("cap", [2, 6])
def test_oracle_compare_and_enumerate_agree_on_a_length_cap_leaf(cap, chain_path, tmp_path):
    source = ["--model", f"table:{chain_path}", "--rule", "top_k:1", "--max-seq-len", str(cap)]
    out = tmp_path / "oracle.json"
    assert main(["oracle", *source, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == {"leaves": [{"tokens": [0] * cap, "text": " ".join(["a"] * cap), "q": 1.0}],
                   "total_mass": 1.0, "node_count": cap}
    out = tmp_path / "compare.csv"
    assert main(["compare", "--k", "1..2", *source, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["coverage_dle"], row["expected_coverage_closed"], row["dle_new_tokens"])
            for row in rows] == [("1.0", "1.0", str(cap))] * 2
    leaves = tmp_path / "leaves.jsonl"
    assert main(["enumerate", *source, "--k", "2", "--out", str(leaves)]) == 0
    assert [(row["tokens"], row["stop_reason"]) for row in read_jsonl(leaves)] == \
        [([0] * cap, "length-cap")]


@pytest.mark.parametrize("cap", [[], ["--max-seq-len", "7"]])
def test_oracle_lists_the_leaf_that_ends_within_the_cap(cap, chain_path, tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--model", f"table:{chain_path}", "--rule", "top_k:1", *cap,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["leaves"] == [{"tokens": [0] * 6 + [1], "text": "a a a a a a <eos>", "q": 1.0}]


def test_oracle_max_depth_is_an_unrecognized_argument(chain_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--model", f"table:{chain_path}", "--rule", "top_k:1",
              "--max-depth", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-depth 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("enumerate --model table:{fig} --rule top_k:2 --k 2 --prompt-file {tmp}",
     "cannot read prompt file {tmp}: "),
    ("compare --model table:{fig} --rule top_k:2 --k 5..3", "bad k range '5..3'\n"),
    ("enumerate --model table:{fig} --rule top_k:2 --k 2 --policy randbranch:x",
     "bad randbranch seed 'x'\n"),
    (f"enumerate --model table:{{fig}} --rule top_k:2 --k 2 --policy randbranch:{2 ** 64}",
     f"seed {2 ** 64} is outside -2**63..2**63-1\n"),
    (f"sample --model table:{{fig}} --rule top_k:2 --k 2 --seed {2 ** 64}",
     f"seed {2 ** 64} is outside -2**63..2**63-1\n"),
    (f"sample --model table:{{fig}} --rule top_k:2 --k 2 --seed {-2 ** 63 - 1}",
     f"seed {-2 ** 63 - 1} is outside -2**63..2**63-1\n"),
    ("enumerate --model ngram:{eos_corpus} --rule top_k:2 --k 2",
     "corpus must not contain the reserved token '<eos>'\n"),
    ("vote --in {rows} --extract bogus:x", "unknown extractor 'bogus'\n"),
    (f"compare --model table:{{fig}} --rule top_k:2 --k 2 --policy randbranch:{2 ** 64}",
     f"seed {2 ** 64} is outside -2**63..2**63-1\n"),
    ("vote --in {not_json}", "{not_json} line 2: not JSON: Expecting value: line 1 column 1"),
    ("cache-sim --in {not_json}",
     "{not_json} line 2: not JSON: Expecting value: line 1 column 1"),
    ("vote --in {blank}", "no sequences found in {blank}\n"),
    ("cache-sim --in {blank}", "no sequences found in {blank}\n"),
], ids=["prompt-file-is-a-directory", "k-range-reversed", "randbranch-x", "randbranch-2**64",
        "seed-2**64", "seed-below-2**63", "corpus-with-eos", "extract-bogus",
        "compare-randbranch-2**64", "vote-not-json",
        "cache-sim-not-json", "vote-blank", "cache-sim-blank"])
def test_bad_run_inputs_exit_2_without_traceback(argv, message, fig_tree_path, tmp_path, capsys):
    paths = {"fig": fig_tree_path, "tmp": tmp_path, "eos_corpus": tmp_path / "eos.txt",
             "rows": tmp_path / "rows.jsonl", "not_json": tmp_path / "bad.jsonl",
             "blank": tmp_path / "blank.jsonl"}
    paths["eos_corpus"].write_text("a <eos> b\n")
    paths["rows"].write_text('{"text": "a", "q": 0.5}\n')
    paths["not_json"].write_text('{"text": "a", "q": 0.5, "tokens": [0]}\nnot json\n')
    paths["blank"].write_text("\n \n")
    out = tmp_path / "out"
    assert main([*argv.format(**paths).split(), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(**paths))
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name, what", [
    ("enumerate --model table:{fig} --rule top_k:2 --k 2 --prompt-file {bad}", "prompts.txt",
     "prompt file"),
    ("ngram-train --corpus {bad}", "corpus.txt", "corpus"),
    ("enumerate --model ngram:{bad} --rule top_k:2 --k 2", "corpus.txt", "corpus"),
    ("enumerate --model table:{bad} --rule top_k:2 --k 2", "table.json", "table model"),
    ("enumerate --model ngram:{bad} --rule top_k:2 --k 2", "ngram.json", "ngram model"),
    ("vote --in {bad}", "rows.jsonl", "leaves file"),
    ("cache-sim --in {bad}", "rows.jsonl", "leaves file"),
    ("cache-sim --in {rows}", "good.jsonl.manifest.json", "manifest"),
], ids=["prompt-file", "ngram-train-corpus", "ngram-corpus", "table-model", "ngram-json",
        "vote-in", "cache-sim-in", "cache-sim-manifest"])
def test_non_utf8_input_files_exit_2_without_traceback(argv, name, what, fig_tree_path, tmp_path,
                                                      capsys):
    rows = tmp_path / "good.jsonl"
    rows.write_text('{"text": "a", "q": 0.5, "tokens": [0]}\n')
    bad = tmp_path / name
    bad.write_bytes(b"a \xff b\n")
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / "out"
    code = main([*argv.format(fig=fig_tree_path, bad=bad, rows=rows).split(), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: cannot read {what} {bad}: 'utf-8' codec can't "
                                       "decode byte 0xff in position 2: invalid start byte\n")
    assert sorted(tmp_path.iterdir()) == inputs


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


# Counts above sys.maxsize used to overflow in `PrefixCache._blocks` or in
# `list(range(...))`. Only values past the bound are run: a huge count
# within it is a real request and would start allocating. A k range of
# 10**17, within the bound, is the exception: its 8 * 10**17-byte list fits
# no 64-bit address space, so asking for it fails at once instead of
# allocating (test_k_ranges_no_address_space_holds_exit_2_without_traceback).
@pytest.mark.parametrize("command, flag, value", [
    (["cache-sim"], "--block", "99999999999999999999"),
    (["compare"], "--k", "99999999999999999999"),
    (["compare"], "--k", "1..99999999999999999999"),
    (["compare"], "--k", "99999999999999999999..99999999999999999999"),
    (["enumerate"], "--k", "99999999999999999999"),
    (["enumerate"], "--token-budget", "99999999999999999999"),
    (["ngram-train"], "--order", "99999999999999999999"),
])
def test_counts_past_sys_maxsize_exit_2_without_traceback(command, flag, value, two_leaf_path,
                                                         tmp_path, capsys):
    if command[0] == "cache-sim":
        leaves = tmp_path / "leaves.jsonl"
        leaves.write_text('{"tokens": [0, 2]}\n')
        source = ["--in", str(leaves)]
    elif command[0] == "ngram-train":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\nb a\n")
        source = ["--corpus", str(corpus)]
    else:
        source = ["--model", f"table:{two_leaf_path}", "--rule", "top_k:2"]
    out = tmp_path / "out"
    try:
        code = main([*command, *source, flag, value, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert f"must be <= {sys.maxsize}, got 99999999999999999999" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("compare", "--k", f"1..{10**17}"),
])
def test_k_ranges_no_address_space_holds_exit_2_without_traceback(command, flag, value,
                                                                  two_leaf_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([command, "--model", f"table:{two_leaf_path}", "--rule", "top_k:2",
                 flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: k range 1..{10**17}")
    assert "Traceback" not in err
    assert not out.exists()


def test_count_flags_document_their_bound(capsys):
    for command, flag in [("cache-sim", "--block"), ("compare", "--k"), ("enumerate", "--k"),
                          ("enumerate", "--token-budget"), ("ngram-train", "--order")]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
        assert f"<= {sys.maxsize}" in options.split(f"{flag} ", 1)[1].split(" --", 1)[0]


@pytest.fixture
def looping_ngram(tmp_path):
    """An n-gram spec under which most paths loop until the length cap."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat\nthe dog sat on the log\n")
    return ["--model", f"ngram:{corpus}?order=2&alpha=0.01", "--rule", "top_p:0.9"]


def test_compare_on_a_looping_ngram_lists_its_capped_leaves(looping_ngram, tmp_path):
    source = [*looping_ngram, "--max-seq-len", "12"]
    out = tmp_path / "oracle.json"
    assert main(["oracle", *source, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["leaves"]), doc["node_count"]) == (22, 56)
    assert any(len(leaf["tokens"]) == 12 for leaf in doc["leaves"])
    assert main(["compare", *source, "--k", "1..4", "--out", str(tmp_path / "c.csv")]) == 0


def test_compare_on_a_looping_ngram_exits_2_without_traceback(looping_ngram, tmp_path,
                                                              monkeypatch, capsys):
    # At cap 40 the leaves hold 112,650 tokens, past a bound lowered to 1,000.
    monkeypatch.setattr(oracle, "MAX_CAPPED_TOKENS", 1000)
    code = main(["compare", *looping_ngram, "--k", "1..4", "--max-seq-len", "40",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: oracle walk past 1000 leaf tokens with paths cut at --max-seq-len 40: "
                   "lower it or narrow --rule\n")


@pytest.mark.parametrize("command", [["oracle"], ["compare", "--k", "1..4"]])
def test_a_wide_rule_at_the_default_cap_exits_2_at_the_token_bound(command, looping_ngram,
                                                                    tmp_path, capsys):
    # Each leaf holds 512 tokens, so the walk stops after about 512 of them.
    out = tmp_path / "out"
    code = main([command[0], *looping_ngram[:2], "--rule", "top_k:8", *command[1:],
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: oracle walk past {oracle.MAX_CAPPED_TOKENS} leaf tokens with paths cut at "
        f"--max-seq-len {DEFAULT_MAX_SEQ_LEN}: lower it or narrow --rule\n")
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(model_seed=st.integers(0, 10_000),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:3"]),
       k_lo=st.integers(1, 12), k_span=st.integers(0, 12),
       seeds=st.integers(1, 3))
def test_compare_rows_match_the_per_k_reference(model_seed, rule, policy, k_lo, k_span, seeds):
    model = make_random_table_model(model_seed)
    args = (model, parse_rule(rule), (), list(range(k_lo, k_lo + k_span + 1)),
            BranchPolicy.parse(policy), seeds, 8)
    rows = _compare_rows(*args)
    expected = reference_compare_rows(*args)
    assert rows == expected
    assert [{key: str(v) for key, v in row.items()} for row in rows] == \
        [{key: str(v) for key, v in row.items()} for row in expected]


class CountingModel:
    """Delegates to a model, recording the context of every query."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.queries = []

    def context(self, prompt, generated):
        return self.inner.context(prompt, generated)

    def next_distribution(self, prompt, generated):
        self.queries.append(self.inner.context(prompt, generated))
        return self.inner.next_distribution(prompt, generated)


@pytest.mark.parametrize("model_seed", [3, 11, 40])
def test_compare_sample_seeds_query_each_context_once(model_seed, monkeypatch):
    # The --sample-seeds runs share model and rule, so together
    # they ask the model once per distinct context they draw.
    model = CountingModel(make_random_table_model(model_seed))
    runs = []
    sample = cli.sample_sequences

    def counting_sample(*args, **kwargs):
        before = len(model.queries)
        run = sample(*args, **kwargs)
        runs.append((run, model.queries[before:]))
        return run

    monkeypatch.setattr(cli, "sample_sequences", counting_sample)
    args = (model, parse_rule("top_p:0.9"), (), [1, 4, 16], BranchPolicy("probfirst"), 6, 8)
    rows = _compare_rows(*args)
    assert len(runs) == 6
    drawn = {model.context((), tokens[:i]) for run, _ in runs
             for tokens, _ in run.sequences for i in range(len(tokens))}
    queries = [query for _, queries in runs for query in queries]
    assert sorted(queries, key=repr) == sorted(drawn, key=repr)
    assert [{key: str(v) for key, v in row.items()} for row in rows] == \
        [{key: str(v) for key, v in row.items()} for row in reference_compare_rows(*args)]


@pytest.mark.parametrize("command, message", [
    (["enumerate", "--model", "table:{missing}.json"], "cannot read table model {missing}.json: "),
    (["enumerate", "--model", "ngram:{missing}.json"], "cannot read ngram model {missing}.json: "),
    (["enumerate", "--model", "ngram:{missing}.txt"], "cannot read corpus {missing}.txt: "),
    (["ngram-train", "--corpus", "{missing}.txt"], "cannot read corpus {missing}.txt: "),
])
def test_missing_model_and_corpus_files_exit_2_without_traceback(command, message, tmp_path,
                                                                capsys):
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in command]
    if command[0] == "enumerate":
        argv += ["--rule", "top_k:2", "--k", "2"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(missing=missing))
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["enumerate", "--rule", "top_k:3", "--k", "5"],
    ["compare", "--rule", "top_k:3", "--k", "1..3"],
])
def test_non_finite_table_weights_exit_2_without_traceback(command, tmp_path, capsys):
    # JSON's NaN literal used to pass validation and silently drop branch "a".
    table = tmp_path / "nan.json"
    table.write_text('{"vocab": ["a", "b", "<eos>"], "eos": "<eos>", "transitions": '
                     '{"": {"a": NaN, "b": 0.5, "<eos>": 0.5}, "a": {"<eos>": 1.0}, '
                     '"b": {"<eos>": 1.0}}}')
    out = tmp_path / "out"
    code = main([*command, "--model", f"table:{table}", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: distribution has non-finite entries\n"
    assert not out.exists()


def _ngram_doc_without(field):
    doc = train_ngram_model("a b\nb a\n", order=2, alpha=1.0).to_dict()
    del doc[field]
    return doc


@pytest.mark.parametrize("kind, doc, message", [
    ("table", {"vocab": ["a", "<eos>"], "eos": "<eos>", "transitions": []},
     "table model field 'transitions' must be an object"),
    ("table", [1, 2], "table model document must be a JSON object"),
    ("table", {"vocab": 5, "eos": "<eos>", "transitions": {}},
     "table model field 'vocab' must be an array of strings"),
    ("table", {"vocab": ["a", "<eos>"], "eos": "<eos>", "transitions": {"": [1.0]}},
     "table model transition '' must be an object"),
    ("ngram", _ngram_doc_without("context_counts"),
     "n-gram model document missing key 'context_counts'"),
    ("ngram", dict(_ngram_doc_without("kind"), context_counts=[[0, 1]]),
     "n-gram model field 'context_counts' must hold [context, count] pairs"),
    ("ngram", dict(_ngram_doc_without("kind"), alpha=float("nan")),
     "alpha must be a finite number > 0, got nan"),
    ("ngram", dict(_ngram_doc_without("kind"), context_counts=[[[], 2], [[0], 2], [[1], -1]]),
     "pair counts must be >= 1 and sum to their context's count"),
    ("ngram", dict(_ngram_doc_without("kind"), context_counts=[[[], 2 ** 70]]),
     "n-gram model field 'context_counts' must hold [context, count] pairs"),
    ("ngram", dict(_ngram_doc_without("kind"), context_counts=[[[], 2.7], [[0], 2], [[1], 2]]),
     "n-gram model field 'context_counts' must hold [context, count] pairs"),
    ("ngram", dict(_ngram_doc_without("kind"), pair_counts=[[[], 0, 2 ** 70]]),
     "n-gram model field 'pair_counts' must hold [context, token id, count] triples"),
    ("ngram", dict(_ngram_doc_without("kind"), context_counts=[[[], 2], [[0], 2], [[1], 2],
                                                               [[99], 1]]),
     "n-gram model field 'context_counts' must hold distinct contexts of at most order - 1 "
     "token ids in [0, 3)"),
    ("ngram", dict(_ngram_doc_without("kind"), alpha=10 ** 400),
     "n-gram model field 'alpha' is an integer past the float range"),
    ("ngram", dict(_ngram_doc_without("kind"), tokenization="xyz"),
     "unknown tokenization 'xyz' (use char or whitespace)"),
    ("table", {"vocab": ["a", "b"], "eos": "<eos>", "transitions": {}},
     "eos token '<eos>' not in vocab"),
])
def test_malformed_model_documents_exit_2_without_traceback(kind, doc, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = main(["enumerate", "--model", f"{kind}:{path}", "--rule", "top_k:2", "--k", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, message", [
    (["cache-sim"], "--capacity", "abc", "expected an integer, got 'abc'"),
    (["cache-sim"], "--capacity", "-1", "must be >= 0, got -1"),
    (["sample", "--k", "3"], "--temperature", "nan", "must be a number >= 0, got nan"),
    (["compare", "--k", "1..3"], "--sample-seeds", "0", "must be >= 1, got 0"),
    (["compare", "--k", "1..3"], "--sample-seeds", "nan", "expected an integer, got 'nan'"),
    (["sample", "--k", "3"], "--max-seq-len", "0", "must be >= 1, got 0"),
    (["enumerate", "--k", "3"], "--max-seq-len", "-2", "must be >= 1, got -2"),
    (["compare", "--k", "1..3"], "--max-seq-len", "x", "expected an integer, got 'x'"),
    (["oracle"], "--max-seq-len", "0", "must be >= 1, got 0"),
    (["enumerate", "--k", "3"], "--early-stop-n", "abc", "expected an integer, got 'abc'"),
    (["enumerate", "--k", "3"], "--early-stop-n", "0", "must be >= 1, got 0"),
    (["enumerate", "--k", "3"], "--early-stop-n", "-1", "must be >= 1, got -1"),
    (["sample", "--k", "3"], "--temperature", "abc", "expected a number, got 'abc'"),
])
def test_out_of_range_values_exit_2_without_traceback(command, flag, value, message,
                                                       two_leaf_path, tmp_path, capsys):
    if command[0] == "cache-sim":
        leaves = tmp_path / "leaves.jsonl"
        leaves.write_text('{"tokens": [0, 2]}\n')
        source = ["--in", str(leaves)]
    else:
        source = ["--model", f"table:{two_leaf_path}", "--rule", "top_k:2"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, *source, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {message}" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()



@pytest.mark.parametrize("spec, message", [
    ("ngram:{corpus}?order=abc", "model option order must be an integer, got 'abc'"),
    ("ngram:{corpus}?alpha=x", "model option alpha must be a number, got 'x'"),
    ("remote:top_n=x", "model option top_n must be an integer, got 'x'"),
    ("ngram:{corpus}?alpha=nan", "alpha must be a finite number > 0, got nan"),
    ("ngram:{corpus}?alpha=inf", "alpha must be a finite number > 0, got inf"),
    ("ngram:{corpus}?alpah=0.5",
     "unknown model option 'alpah' (allowed: order, alpha, tokenize)"),
    ("ngram:{model}?order=5", "a .json n-gram model takes no options, got ?order=5"),
    ("remote:topn=5,url=http://localhost:1",
     "unknown model option 'topn' (allowed: top_n, eos, url)"),
    ("ngram:", "ngram model spec needs a path"),
    ("ngram:{corpus}?order", "bad option 'order', expected key=value"),
    ("remote:top_n=0,url=http://127.0.0.1:9", "top_n must be >= 1, got 0"),
])
def test_bad_model_spec_options_exit_2_without_traceback(spec, message, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a\n")
    model = tmp_path / "model.json"
    main(["ngram-train", "--corpus", str(corpus), "--out", str(model)])
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["enumerate", "--model", spec.format(corpus=corpus, model=model), "--rule", "top_k:2",
                 "--k", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_ngram_train_counts_a_huge_order_within_the_longest_line(tmp_path):
    # No context reaches past its line start, so an order above the longest
    # line (3 tokens and eos) counts the rows of order 4.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\nb a\nc\n")
    models = {}
    for order in ["4", "99999999999"]:
        models[order] = tmp_path / f"model-{order}.json"
        code = main(["ngram-train", "--corpus", str(corpus), "--order", order,
                     "--out", str(models[order])])
        assert code == 0
    huge, small = (json.loads(models[order].read_text()) for order in ["99999999999", "4"])
    assert (huge.pop("order"), small.pop("order")) == (99999999999, 4)
    assert huge == small
    out = tmp_path / "leaves.jsonl"
    assert main(["enumerate", "--model", f"ngram:{models['99999999999']}", "--rule", "top_k:2",
                 "--k", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_ngram_train_rejects_a_non_finite_alpha(alpha, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a\n")
    out = tmp_path / "model.json"
    code = main(["ngram-train", "--corpus", str(corpus), "--alpha", alpha, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: alpha must be a finite number > 0, got {alpha}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["enumerate", "--rule", "top_k:2", "--k", "2", "--out", "{blocked}"],
    ["compare", "--rule", "top_k:2", "--k", "1..2", "--out", "{blocked}"],
    ["oracle", "--rule", "top_k:2", "--out", "{blocked}"],
    ["enumerate", "--rule", "top_k:2", "--k", "2", "--out", "{ok}", "--dump-tree", "{blocked}"],
])
def test_unwritable_output_directory_exits_2_without_traceback(command, two_leaf_path, tmp_path,
                                                               capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    blocked = blocker / "sub" / "out"
    argv = [arg.format(blocked=blocked, ok=tmp_path / "ok") for arg in command]
    code = main([*argv, "--model", f"table:{two_leaf_path}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert "Traceback" not in err


def _seeded_corpus(seed: int, lines: int) -> str:
    rng = random.Random(seed)
    words = "the a cat dog sat ran on mat".split()
    return "\n".join(" ".join(rng.choice(words) for _ in range(rng.randint(2, 7)))
                     for _ in range(lines)) + "\n"


# SHA-256 of `dle enumerate --dump-tree` output per policy. The tree's
# storage may change; node ids, statuses and floats, and so these bytes, may not.
DUMP_TREE_SHA256 = {
    "probfirst": "a4b526abeb45b2e33d417b43068f5b568957cace2a2124287a93a977f7366c83",
    "divfirst": "af55c0dc2b4e3fac3e06758b84559f433c192af7c792a0fc0bdcab9ead1b70bc",
    "randbranch:5": "184e704e1578fcf1c06527ecec72a85dbb78e9547bd74515b33653cdd5ef51d1",
    "globalprob": "a46bc869b4e5c97c99a528d675e4d330936933efd8d711e054760f75ccd4a5bb",
    "dfs": "d07d5636ddd0c547c03fc611aee4204287d349155fd53e6bd2f4f999fb8cc3a3",
}


@pytest.mark.parametrize("policy", sorted(DUMP_TREE_SHA256))
def test_dump_tree_bytes_are_pinned(policy, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(_seeded_corpus(11, 40))
    tree_path = tmp_path / "tree.json"
    code = main(["enumerate", "--model", f"ngram:{corpus}?order=2&alpha=0.5&tokenize=char",
                 "--rule", "top_p:0.7+top_k:3", "--policy", policy, "--k", "40",
                 "--max-seq-len", "8", "--early-stop-n", "2", "--out", str(tmp_path / "l.jsonl"),
                 "--dump-tree", str(tree_path)])
    assert code == 0
    doc = json.loads(tree_path.read_text())
    assert {"leaf", "pruned-early-stop", "expanded", "unexpanded"} <= {
        n["status"] for n in doc["nodes"]}
    assert hashlib.sha256(tree_path.read_bytes()).hexdigest() == DUMP_TREE_SHA256[policy]
