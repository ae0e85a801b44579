"""The benchmark tracer's targets still exist under the names it wraps.

`e2ebench/tracer.py` wraps package functions by module and attribute name.
A rename in the package would otherwise show only in a traced benchmark run.
The per-context step memo must call the model and the truncation rule through
those names, once per distinct context, or the traced counts mean nothing.
"""

import importlib.util
import json
import sys
import threading
from pathlib import Path
from unittest import mock

from dle import engine
from dle.engine import Budget, BranchPolicy
from dle.model import train_ngram_model
from dle.truncation import Composite, TopK, TopP
from reference import WindowContextModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_observes_the_enumeration_layers():
    tracer = load_tracer().Tracer()
    model = train_ngram_model("a b c\na c b\nb a c\n", order=2, alpha=1.0)
    tracer.install()
    try:
        result = engine.enumerate_leaves(model, Composite(rules=(TopP(p=0.9), TopK(k=2))), (),
                                         BranchPolicy("probfirst"),
                                         Budget(max_leaves=5, max_seq_len=6))
    finally:
        tracer.uninstall()
    assert len(result.leaves) == 5
    names = {span.name for span in tracer.spans}
    assert {"engine.greedy_rollout", "engine.select_branch", "truncation.active_set",
            "model.next_distribution", "tree.expand_node", "tree.path_tokens"} <= names
    frontier_sizes = [s.observed for s in tracer.spans if s.name == "engine.select_branch"]
    assert frontier_sizes and all(isinstance(size, int) for size in frontier_sizes)


def test_tracer_observes_each_closed_form_call_of_compare(tmp_path):
    from dle import cli

    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "vocab": ["a", "b", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 0.7, "b": 0.3}, "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}}}))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["compare", "--model", f"table:{table}", "--rule", "epsilon:0.05",
                         "--k", "2..5", "--sample-seeds", "2", "--out", str(tmp_path / "c.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span.name for span in tracer.spans]
    assert names.count("metrics.expected_coverage_closed_form") == 1
    assert names.count("oracle.enumerate_all_leaves") == 1
    assert names.count("baseline.sample_sequences") == 2


def test_step_memo_calls_the_traced_names_once_per_context():
    tracer = load_tracer().Tracer()
    model = train_ngram_model("a b c a\na c b\nb a c c\nc a b\n", order=2, alpha=0.5)
    tracer.install()
    try:
        result = engine.enumerate_leaves(model, Composite(rules=(TopP(p=0.9), TopK(k=3))), (),
                                         BranchPolicy("probfirst"),
                                         Budget(max_leaves=12, max_seq_len=6), keep_tree=True)
    finally:
        tracer.uninstall()
    tree = result.tree
    expanded = list(tree.children)
    contexts = {model.context((), tree.path_tokens(node_id)) for node_id in expanded}
    assert len(contexts) < len(expanded) == result.stats.generated_tokens
    names = [span.name for span in tracer.spans]
    assert names.count("model.next_distribution") == len(contexts)
    assert names.count("truncation.active_set") == len(contexts)
    assert names.count("tree.expand_node") == len(expanded)


def test_windows_with_equal_count_rows_share_one_traced_step():
    # "a", "b" and "c" are each followed once by "x", and "d" and "e" by
    # "y": eight windows, five distinct rows.
    tracer = load_tracer().Tracer()
    model = train_ngram_model("a x\nb x\nc x\nd y\ne y\n", order=2, alpha=0.5)
    tracer.install()
    try:
        result = engine.enumerate_leaves(model, TopK(k=5), (), BranchPolicy("probfirst"),
                                         Budget(max_leaves=20, max_seq_len=4), keep_tree=True)
    finally:
        tracer.uninstall()
    tree = result.tree
    prefixes = [tree.path_tokens(node_id) for node_id in tree.children]
    keys = {model.context((), prefix) for prefix in prefixes}
    windows = {WindowContextModel(model).context((), prefix) for prefix in prefixes}
    assert len(keys) == 5 < len(windows) == 8
    names = [span.name for span in tracer.spans]
    assert names.count("model.next_distribution") == len(keys)
    assert names.count("truncation.active_set") == len(keys)


def test_randbranch_select_spans_observe_the_live_frontier_size():
    # `engine.frontier_max` is the largest size these spans observe. A
    # randbranch frontier keeps picked entries in its mass array until half
    # are dead, so its length must count live branch points only.
    added = []
    extend = engine.Frontier.extend

    def counting_extend(frontier, branches):
        added.append((added[-1] if added else 0) + len(branches))
        return extend(frontier, branches)

    tracer = load_tracer().Tracer()
    model = train_ngram_model("a b c a\na c b\nb a c c\nc a b\n", order=2, alpha=0.5)
    tracer.install()
    try:
        with mock.patch.object(engine.Frontier, "extend", counting_extend):
            result = engine.enumerate_leaves(model, TopK(k=3), (), BranchPolicy("randbranch", 5),
                                             Budget(max_leaves=10 ** 6, max_seq_len=5))
    finally:
        tracer.uninstall()
    assert result.frontier_exhausted
    observed = [s.observed for s in tracer.spans if s.name == "engine.select_branch"]
    # Pick i follows the (i + 1)-th extend and leaves what was added minus i + 1 picks.
    assert observed == [total - picks for picks, total in enumerate(added[:len(observed)], 1)]
    assert observed[-1] == 0 and len(observed) > 100


def test_multi_prompt_enumerate_queries_each_context_of_the_run_once_on_the_main_thread(tmp_path):
    # The benchmark's multi_prompt workload counts these spans; one step memo
    # per run makes them the distinct contexts of all prompts together.
    from dle import cli

    corpus = "a b c a\na c b\nb a c c\nc a b\nb b a c\n"
    (tmp_path / "corpus.txt").write_text(corpus)
    (tmp_path / "prompts.txt").write_text("a\nb\na b\nc a\na\n")
    model = train_ngram_model(corpus, order=3, alpha=0.5)
    rule, budget = TopK(k=2), Budget(max_leaves=6, max_seq_len=5)
    per_prompt = []
    for line in ["a", "b", "a b", "c a", "a"]:
        prompt = model.encode_prompt(line)
        tree = engine.enumerate_leaves(model, rule, prompt, BranchPolicy("probfirst"), budget,
                                       engine.EarlyStopConfig(10), keep_tree=True).tree
        per_prompt.append({model.context(prompt, tree.path_tokens(node_id))
                           for node_id in tree.children})
    distinct = set().union(*per_prompt)
    assert len(distinct) < sum(map(len, per_prompt))

    spec = f"ngram:{tmp_path / 'corpus.txt'}?order=3&alpha=0.5"
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["enumerate", "--model", spec, "--rule", "top_k:2",
                         "--prompt-file", str(tmp_path / "prompts.txt"),
                         "--k", "6", "--max-seq-len", "5", "--workers", "2",
                         "--out", str(tmp_path / "leaves.jsonl")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span.name for span in tracer.spans]
    assert names.count("model.next_distribution") == len(distinct)
    assert names.count("truncation.active_set") == len(distinct)
    assert {span.thread for span in tracer.spans} == {threading.get_ident()}


def test_multi_prompt_sample_has_one_traced_span_per_prompt(tmp_path):
    # The benchmark's `baseline.sample_sequences` span wraps `dle.cli.sample_sequences`
    # and observes the steps of the `SampleRun` it returns: one run per prompt.
    from dle import cli

    (tmp_path / "corpus.txt").write_text("a b c a\na c b\nb a c c\nc a b\n")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("a\nb\nc\n")
    out = tmp_path / "samples.jsonl"
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["sample", "--model", f"ngram:{tmp_path / 'corpus.txt'}?order=2&alpha=0.5",
                         "--rule", "top_p:0.9", "--prompt-file", str(prompts), "--k", "5",
                         "--seed", "2", "--max-seq-len", "6", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    tokens = [0, 0, 0]
    for line in out.read_text().splitlines():
        row = json.loads(line)
        tokens[row["prompt"]] += len(row["tokens"])
    spans = [span for span in tracer.spans if span.name == "baseline.sample_sequences"]
    assert [span.observed for span in spans] == tokens
