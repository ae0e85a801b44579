import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dle
from dle.errors import ConfigError, EmptyCorpus, MissingTransition, RemoteError
from dle.model import (NgramModel, TableModel, Vocabulary, _count_windows, _splitter,
                       parse_model_spec, train_ngram_model)
from dle.remote import RemoteModel
from reference import (DenseTableModel, WindowContextModel, dict_count_lists, dict_ngram_counts,
                       dict_train_ngram_model, loop_next_distribution)


def test_table_lookup_matches_document():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 0.9, "b": 0.1}, "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}}}
    model = TableModel.from_dict(doc)
    probs = model.next_distribution((), ()).dense()
    assert probs.tolist() == [0.9, 0.1, 0.0]


def test_table_default_distribution_fallback():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 1.0}},
           "default": {"<eos>": 1.0}}
    model = TableModel.from_dict(doc)
    assert model.next_distribution((), (0, 1)).dense().tolist() == [0.0, 0.0, 1.0]


def test_table_missing_transition_without_default():
    doc = {"vocab": ["a", "<eos>"], "eos": "<eos>", "transitions": {"": {"a": 1.0}}}
    model = TableModel.from_dict(doc)
    with pytest.raises(MissingTransition):
        model.next_distribution((), (0,))


def test_table_rejects_bad_distributions():
    base = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>"}
    with pytest.raises(ConfigError):
        TableModel.from_dict({**base, "transitions": {"": {"a": 0.9, "b": 0.2}}})
    with pytest.raises(ConfigError):
        TableModel.from_dict({**base, "transitions": {"": {"a": 1.2, "b": -0.2}}})
    with pytest.raises(ConfigError):
        TableModel.from_dict({**base, "transitions": {"": {"zzz": 1.0}}})


@pytest.mark.parametrize("rows, message", [
    ({"": {"a": 0.5, "b": 0.5}, "a": {"a": float("nan"), "<eos>": 1.0}, "b": {"b": 1.2, "a": -0.2}},
     "distribution has non-finite entries"),
    ({"": {"a": 0.5, "b": 0.5}, "a": {"a": float("inf")}}, "distribution has non-finite entries"),
    ({"": {"a": 0.5, "b": 0.5}, "a": {"b": 1.2, "a": -0.2}, "b": {"a": float("nan")}},
     "distribution has negative entries"),
    ({"": {"a": 0.5, "b": 0.5}, "b": {"a": float("-inf"), "b": 1.0}},
     "distribution has negative entries"),
    ({"": {"a": 0.5, "b": 0.5}, "a": {"a": 0.9, "b": 0.2}, "b": {"b": -1.0}},
     "distribution sums to 1.1, expected 1 within 1e-09"),
])
def test_table_reports_the_first_bad_row(rows, message):
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>", "transitions": rows}
    with pytest.raises(ConfigError) as excinfo:
        TableModel.from_dict(doc)
    assert str(excinfo.value) == message


def test_table_rejects_a_bad_default_and_non_numeric_weights():
    base = {"vocab": ["a", "<eos>"], "eos": "<eos>", "transitions": {"": {"a": 1.0}}}
    with pytest.raises(ConfigError, match="non-finite"):
        TableModel.from_dict({**base, "default": {"a": float("nan"), "<eos>": 1.0}})
    for weight in ["lots", "1.0", True, None]:
        with pytest.raises(ConfigError) as excinfo:
            TableModel.from_dict({**base, "transitions": {"": {"a": weight}}})
        assert str(excinfo.value) == f"transition weights must be numbers, got {weight!r} for 'a'"
    with pytest.raises(ConfigError, match="non-finite"):  # an integer past the float range
        TableModel.from_dict({**base, "transitions": {"": {"a": 10 ** 400}}})


def test_table_rows_are_read_only(fig_tree_model):
    row = fig_tree_model.next_distribution((), ())
    assert (row.ids.tolist(), row.probs.tolist()) == ([0, 1], [0.9, 0.1])
    assert (row.floor, row.size) == (0.0, 9)
    with pytest.raises(TypeError):
        row.probs[0] = 0.5
    with pytest.raises(AttributeError):
        row.floor = 0.5


def test_table_contexts_spelled_twice_keep_the_last_weights():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"a": {"<eos>": 1.0}, "": {"a": 1.0}, " a ": {"b": 1.0}}}
    model = TableModel.from_dict(doc)
    assert model.next_distribution((), (0,)).dense().tolist() == [0.0, 1.0, 0.0]


def test_table_calls_are_bit_identical():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 0.7, "b": 0.3}}}
    model = TableModel.from_dict(doc)
    first = model.next_distribution((), ())
    second = model.next_distribution((), ())
    assert first.dense().tobytes() == second.dense().tobytes()


def test_table_round_trip_and_prompt_encoding(fig_tree_model, fig_tree_path):
    clone = TableModel.from_file(fig_tree_path)
    for context in ((), (0,), (0, 2), (1,)):
        assert clone.next_distribution((), context).dense().tobytes() == \
            fig_tree_model.next_distribution((), context).dense().tobytes()
    assert fig_tree_model.encode_prompt("a c") == (0, 2)
    assert fig_tree_model.decode((0, 2)) == "a c"


# Weights that make a table row invalid.
BAD_WEIGHTS = [math.nan, math.inf, -math.inf, -0.25, "x", None, [1.0]]


@st.composite
def _weight_maps(draw, tokens):
    """A token -> weight map: probabilities that sum to 1, sometimes off by
    about the tolerance or more, with listed zeros of either sign and, now
    and then, an unknown token, a numeric string or a bad weight."""
    unknown = ["zz"] * draw(st.sampled_from([0] * 9 + [1]))
    listed = draw(st.lists(st.sampled_from(tokens + unknown), min_size=1,
                           max_size=min(len(tokens), 12), unique=True))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(listed), max_size=len(listed)))
    scale = draw(st.sampled_from([1.0] * 12 + [1 + 1e-9, 1 - 1e-9, 1 + 3e-9, 1.1, 0.5]))
    weights = dict(zip(listed, [w / math.fsum(raw) * scale for w in raw]))
    for token in draw(st.lists(st.sampled_from(tokens), max_size=3)):
        weights.setdefault(token, draw(st.sampled_from([0.0, -0.0])))
    if draw(st.sampled_from([False] * 19 + [True])):
        weights[draw(st.sampled_from(listed))] = draw(st.sampled_from(BAD_WEIGHTS + ["0.5"]))
    return weights


@st.composite
def _table_docs(draw):
    tokens = [f"t{i}" for i in range(draw(st.sampled_from([1, 2, 5, 9, 30, 140])))] + ["<eos>"]
    words = st.sampled_from(tokens[:4] + ["zz"] * draw(st.sampled_from([0] * 9 + [1])))
    # Few contexts over few words, spelled with stray spaces: keys often repeat one.
    spell = st.builds(lambda ctx, sep, pad: pad + sep.join(ctx) + pad,
                      st.lists(words, max_size=2), st.sampled_from([" ", "  "]),
                      st.sampled_from(["", "", " "]))
    doc = {"vocab": tokens, "eos": "<eos>",
           "transitions": draw(st.dictionaries(spell, _weight_maps(tokens), max_size=6))}
    default = draw(st.sampled_from(["absent"] * 4 + ["map"] * 3 + ["list"]))
    if default != "absent":
        doc["default"] = draw(_weight_maps(tokens)) if default == "map" else []
    return doc


def _loaded(loader, doc):
    """The compressed arrays a loader keeps, or its ConfigError text."""
    try:
        model = loader(doc)
    except ConfigError as exc:
        return str(exc)
    return (bytes(model._ids), bytes(model._probs), bytes(model._indptr), model._transitions,
            model._default)


@settings(max_examples=300, deadline=None)
@given(doc=_table_docs())
# numpy's dense sum is 1.1 where the listed entries, added in order, give
# 1.0999999999999999; and 1.000000001, past the tolerance, where they give
# 1.0000000009999999.
@example(doc={"vocab": [f"t{i}" for i in range(16)] + ["<eos>"], "eos": "<eos>", "transitions": {
    "": {"t5": 0.21801242236024845, "t8": 0.5403726708074533, "t12": 0.34161490683229817}}})
@example(doc={"vocab": [f"t{i}" for i in range(16)] + ["<eos>"], "eos": "<eos>", "transitions": {
    "": {"t4": 0.7349397597710843, "t9": 0.19277108453012048, "t12": 0.07228915669879518}}})
@example(doc={"vocab": ["a", "<eos>"], "eos": "<eos>", "transitions": {},
              "default": {"<eos>": 1.0, "a": -0.0}})
def test_sparse_table_load_matches_the_dense_loader(doc):
    assert _loaded(TableModel.from_dict, doc) == _loaded(DenseTableModel.from_dict, doc)


def test_table_load_holds_its_listed_entries_not_a_dense_stack():
    vocab = [f"t{i}" for i in range(4_999)] + ["<eos>"]
    rng = np.random.default_rng(0)
    doc = {"vocab": vocab, "eos": "<eos>", "transitions": {
        f"t{i}": dict(zip(rng.choice(vocab, 3, replace=False).tolist(), [0.5, 0.25, 0.25]))
        for i in range(1_000)}}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        model = TableModel.from_dict(doc)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model._probs) == 3_000
    # A dense 1,000 x 5,000 float64 stack alone is 40 MB.
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB in {seconds:.3f} s"


def test_ngram_single_line_counts():
    # Line "a b" contributes events a, b, eos; vocab {a, b, eos}.
    model = train_ngram_model("a b", order=1, alpha=1.0)
    probs = model.next_distribution((), ()).dense()
    assert probs.tolist() == pytest.approx([2 / 6, 2 / 6, 2 / 6])


def test_ngram_alpha_to_zero_recovers_frequencies():
    model = train_ngram_model("a a a b", order=1, alpha=1e-9)
    probs = model.next_distribution((), ()).dense()
    a, b = probs[0], probs[1]
    assert a / (a + b) == pytest.approx(0.75, abs=1e-6)
    assert b / (a + b) == pytest.approx(0.25, abs=1e-6)
    assert probs[model.vocab.eos_id] == pytest.approx(0.2, abs=1e-6)


def test_ngram_unseen_context_is_uniform():
    model = train_ngram_model("a b\nb a", order=2, alpha=0.5)
    # The eos token never precedes anything in training, so the context is
    # unseen and the conditional is pure smoothing.
    row = model.next_distribution((model.vocab.eos_id,), ())
    assert row == ((), (), 1 / 3, 3)
    assert row.dense().tolist() == pytest.approx([1 / 3] * 3)


def test_ngram_rejects_bad_parameters():
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="alpha must be a finite number > 0"):
            train_ngram_model("a b", order=1, alpha=alpha)
    with pytest.raises(ConfigError):
        train_ngram_model("a b", order=0, alpha=1.0)
    with pytest.raises(EmptyCorpus):
        train_ngram_model("\n\n", order=1, alpha=1.0)


def test_ngram_smoothing_floor():
    model = train_ngram_model("a b a\nb b a", order=2, alpha=0.25)
    size = model.vocab.size
    counts = {tuple(ctx): count for ctx, count in model.to_dict()["context_counts"]}
    for ctx in [(), (0,), (1,)]:
        probs = model.next_distribution(ctx, ()).dense()
        ctx_count = counts.get(ctx[-1:], 0)
        floor = 0.25 / (ctx_count + 0.25 * size)
        assert probs.min() >= floor - 1e-15
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_ngram_char_tokenization_and_round_trip(tmp_path):
    model = train_ngram_model("ab\nba", order=2, alpha=1.0, tokenization="char")
    assert model.vocab.tokens == ("a", "b", "<eos>")
    assert model.decode((0, 1)) == "ab"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    clone = NgramModel.from_file(str(path))
    assert clone.next_distribution((), (0,)).dense().tobytes() == \
        model.next_distribution((), (0,)).dense().tobytes()


def test_ngram_document_with_inconsistent_counts_is_rejected():
    doc = train_ngram_model("ab\nba", order=2, alpha=1.0, tokenization="char").to_dict()
    orphan = dict(doc, pair_counts=doc["pair_counts"] + [[[2], 0, 1]])
    with pytest.raises(ConfigError, match="no count"):
        NgramModel.from_dict(orphan)
    outside = dict(doc, pair_counts=doc["pair_counts"] + [[[0], 3, 1]])
    with pytest.raises(ConfigError, match="outside the vocabulary"):
        NgramModel.from_dict(outside)
    duplicate = dict(doc, pair_counts=doc["pair_counts"] + doc["pair_counts"][:1])
    with pytest.raises(ConfigError, match="duplicate"):
        NgramModel.from_dict(duplicate)
    # Rows that are not distributions: their masses would reach the output.
    contexts, pairs = doc["context_counts"], doc["pair_counts"]
    for context_counts, pair_counts in [
        (contexts + [[[2], -1]], pairs),  # a negative context count, so a negative floor
        ([[ctx, -1 if ctx == [0] else count] for ctx, count in contexts], pairs),
        (contexts + [[[2], 1]], pairs + [[[2], 0, 5]]),  # a pair count above its context's
        (contexts + [[[2], -3]], pairs + [[[2], 0, -3]]),  # a negative one, sums matching
        (contexts + [[[2], 0]], pairs + [[[2], 0, 0]]),
    ]:
        with pytest.raises(ConfigError, match="pair counts must be >= 1 and sum to"):
            NgramModel.from_dict(dict(doc, context_counts=context_counts, pair_counts=pair_counts))
    # Contexts that are not distinct lists of at most order - 1 token ids: each
    # would load as a row that no window reaches.
    for context in [[1.5], [99], [-1], ["a"], [True], [0, 1], [0]]:
        with pytest.raises(ConfigError, match="'context_counts' must hold distinct contexts"):
            NgramModel.from_dict(dict(doc, context_counts=contexts + [[context, 1]],
                                      pair_counts=pairs + [[context, 0, 1]]))
    # Counts that are not JSON integers: truncated, they would pass the sum check.
    for field, value in [("context_counts", 2.7), ("context_counts", "2"),
                         ("pair_counts", 1.5), ("pair_counts", True)]:
        rows = [[*entry[:-1], value] if i == 0 else entry for i, entry in enumerate(doc[field])]
        with pytest.raises(ConfigError, match=f"field '{field}' must hold"):
            NgramModel.from_dict(dict(doc, **{field: rows}))
    # Pair contexts whose ids are not JSON integers: equal to [1], they would
    # load as its counts.
    for context in [[1.0], [True]]:
        rows = [[context, *entry[1:]] if entry[0] == [1] else entry for entry in pairs]
        with pytest.raises(ConfigError, match="field 'pair_counts' must hold"):
            NgramModel.from_dict(dict(doc, pair_counts=rows))


def _row_bits(row) -> tuple:
    return (list(row.ids), np.array(row.probs, np.float64).tobytes(), row.floor.hex(), row.size)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=6),
       order=st.integers(1, 4), alpha=st.sampled_from([0.01, 0.5, 1.0]),
       queries=st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=3),
                                  st.lists(st.integers(0, 3), max_size=3)), min_size=1, max_size=12))
# The windows "a" and "c" are each followed once by "b": one row, one key.
@example(lines=["ab", "cb"], order=2, alpha=0.5, queries=[([], [0]), ([], [2]), ([0], [])])
# "a" and "c" list the same continuations, "b" and eos, with swapped counts: two keys.
@example(lines=["ab", "ab", "a", "cb", "c", "c"], order=2, alpha=0.5, queries=[([], [0]), ([], [2])])
# The window "b b" is unseen.
@example(lines=["ab"], order=3, alpha=0.5, queries=[([1], [1]), ([0], [1]), ([], [1, 1])])
def test_equal_row_keys_give_bit_identical_rows(lines, order, alpha, queries):
    model = train_ngram_model("\n".join(lines), order, alpha, tokenization="char")
    windowed = WindowContextModel(model)
    seen = {tuple(ctx) for ctx, _ in model.to_dict()["context_counts"]}
    row_of_key, key_of_window = {}, {}
    for prompt, generated in queries:
        prompt, generated = ([t % model.vocab.size for t in part] for part in (prompt, generated))
        key, window = model.context(prompt, generated), windowed.context(prompt, generated)
        bits = _row_bits(model.next_distribution(prompt, generated))
        assert row_of_key.setdefault(key, bits) == bits
        assert key_of_window.setdefault(window, key) == key
        assert (key == -1) == (window not in seen)


def test_ngram_calls_are_bit_identical():
    model = train_ngram_model("a b a b", order=2, alpha=1.0)
    assert model.next_distribution((), (0,)) == model.next_distribution((), (0,))


def test_vocabulary_invariants():
    with pytest.raises(ConfigError):
        Vocabulary(tokens=(), eos_id=0)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a", "a"), eos_id=0)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a",), eos_id=5)
    vocab = Vocabulary(tokens=("a", "<eos>"), eos_id=1)
    assert vocab.size == 2 and vocab.ids_of(["<eos>"]) == (1,)


def test_remote_renormalizes_returned_logprobs(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.3}})
    model = RemoteModel(base_url=stub_server.url, top_n=5)
    probs = model.next_distribution((), ()).dense()
    raw = np.exp([-0.1, -2.3])
    expected = raw / raw.sum()
    x_id, y_id = model._ids["x"], model._ids["y"]
    assert probs[x_id] == pytest.approx(expected[0])
    assert probs[y_id] == pytest.approx(expected[1])
    assert probs.sum() == pytest.approx(1.0)


def test_remote_vocab_is_rebuilt_only_when_a_token_is_interned(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.3}})
    model = RemoteModel(base_url=stub_server.url, top_n=5)
    first = model.vocab
    assert model.vocab is first and first.tokens == ("<eos>",)
    model.next_distribution((), ())
    grown = model.vocab
    assert grown is not first and grown.tokens == ("<eos>", "x", "y")
    assert model.vocab is grown
    model.next_distribution((), ())  # interns nothing new
    assert model.vocab is grown
    model.encode_prompt("z")
    assert model.vocab.tokens == ("<eos>", "x", "y", "z")


def test_remote_top_one_is_point_mass(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.3}})
    model = RemoteModel(base_url=stub_server.url, top_n=1)
    probs = model.next_distribution((), ()).dense()
    assert probs.max() == pytest.approx(1.0)
    assert (probs > 0).sum() == 1


def test_remote_retries_transient_failures(stub_server):
    stub_server.configure({"": {"x": -0.5}}, fail_first=2)
    model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=3, backoff=0.01)
    probs = model.next_distribution((), ()).dense()
    assert probs.max() == pytest.approx(1.0)
    assert len(stub_server.state.requests) == 3


def test_remote_gives_up_after_retries(stub_server):
    stub_server.configure({"": {"x": -0.5}}, fail_first=99)
    model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=2, backoff=0.01)
    with pytest.raises(RemoteError) as excinfo:
        model.next_distribution((), ())
    assert excinfo.value.attempts == 3


def test_remote_rejects_malformed_payload(stub_server):
    # A payload without a top_logprobs entry, then an empty top_logprobs entry.
    for payload, message in [({"choices": []}, "malformed endpoint payload"),
                             (None, "endpoint returned no log-probabilities")]:
        stub_server.configure({"": {}}, payload=payload)
        model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=0)
        with pytest.raises(RemoteError, match=message):
            model.next_distribution((), ())


def test_remote_request_carries_prompt_and_generated_text(stub_server):
    stub_server.configure({"hello world": {"!": -0.1}, "hello world!": {"<eos>": -0.1}})
    model = RemoteModel(base_url=stub_server.url, top_n=1)
    prompt = model.encode_prompt("hello world")
    model.next_distribution(prompt, ())
    bang = model._ids["!"]
    model.next_distribution(prompt, (bang,))
    prompts = [r["prompt"] for r in stub_server.state.requests]
    assert prompts == ["hello world", "hello world!"]
    assert all(r["max_tokens"] == 1 for r in stub_server.state.requests)


def test_remote_sends_bearer_token_from_environment(stub_server, monkeypatch):
    monkeypatch.setenv("DLE_REMOTE_KEY", "sk-test-123")
    stub_server.configure({"": {"x": -0.5}})
    model = RemoteModel(base_url=stub_server.url, top_n=1)
    model.next_distribution((), ())
    assert stub_server.state.auth_headers == ["Bearer sk-test-123"]


def test_remote_low_mass_warning(stub_server, caplog):
    stub_server.configure({"": {"x": -4.0, "y": -4.1}})
    model = RemoteModel(base_url=stub_server.url, top_n=2, low_mass_warn=0.5)
    with caplog.at_level("WARNING"):
        model.next_distribution((), ())
    assert any("raw probability mass" in rec.message for rec in caplog.records)


def test_parse_model_spec_variants(fig_tree_path, tmp_path, monkeypatch):
    model = parse_model_spec(f"table:{fig_tree_path}")
    assert isinstance(model, TableModel)

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a")
    ngram = parse_model_spec(f"ngram:{corpus}?order=2&alpha=0.5")
    assert isinstance(ngram, NgramModel)
    assert ngram.order == 2 and ngram.alpha == 0.5

    stored = tmp_path / "model.json"
    stored.write_text(json.dumps(ngram.to_dict()))
    again = parse_model_spec(f"ngram:{stored}")
    assert isinstance(again, NgramModel)

    monkeypatch.setenv("DLE_REMOTE_URL", "http://127.0.0.1:9/nowhere")
    remote = parse_model_spec("remote:top_n=7")
    assert isinstance(remote, RemoteModel)
    assert remote.top_n == 7

    with pytest.raises(ConfigError):
        parse_model_spec("magic:stuff")
    with pytest.raises(ConfigError):
        parse_model_spec("table:")


FOOTPRINT_SCRIPT = """
import sys
import dle, dle.cli
from dle.model import parse_model_spec
parse_model_spec("table:" + sys.argv[1])
parse_model_spec("ngram:" + sys.argv[2] + "?order=2")
code = dle.cli.main(["compare", "--model", "table:" + sys.argv[1], "--rule", "epsilon_ge:0.1",
                     "--k", "1..4", "--sample-seeds", "3", "--out", sys.argv[3]])
print(code, sorted({"urllib.request", "http.client", "ssl", "email", "concurrent.futures",
                    "logging", "statistics", "fractions", "decimal"} & set(sys.modules)))
remote = parse_model_spec("remote:url=http://127.0.0.1:9/nowhere")
print(type(remote) is dle.RemoteModel, type(remote).__module__)
"""


def test_local_models_load_no_http_stack(fig_tree_path, tmp_path):
    # Nor `concurrent.futures`, which loads `logging`; and `compare`'s sampled
    # mean and std load no `statistics`, with its `fractions` and `decimal`.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dle.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(fig_tree_path), str(corpus),
                          str(tmp_path / "compare.csv")],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.splitlines() == ["0 []", "True dle.remote"]


REMOTE_RUN_SCRIPT = """
import sys
from dle.cli import main
code = main(["enumerate", "--model", "remote:top_n=2", "--rule", "top_k:1", "--k", "1",
             "--workers", "4", "--prompt-file", sys.argv[1], "--out", sys.argv[2]])
print(code, "concurrent.futures" in sys.modules)
"""


def test_remote_multi_prompt_runs_load_no_thread_pool(stub_server, tmp_path):
    stub_server.configure({"p": {"<eos>": 0.0}, "q": {"<eos>": 0.0}})
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("p\nq\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dle.__file__).resolve().parents[1]),
               DLE_REMOTE_URL=stub_server.url)
    out = subprocess.run([sys.executable, "-c", REMOTE_RUN_SCRIPT, str(prompts),
                          str(tmp_path / "out.jsonl")],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.splitlines() == ["0 False"]
    assert len(stub_server.state.requests) == 2


def test_remote_requires_url(monkeypatch):
    monkeypatch.delenv("DLE_REMOTE_URL", raising=False)
    with pytest.raises(ConfigError):
        RemoteModel()


@st.composite
def _corpora(draw):
    """Lines over letters whose first appearance is mostly out of sorted
    order, some of them repeated; empty and short lines included."""
    lines = draw(st.lists(st.text(alphabet="dcb a", max_size=12), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(lines), max_size=4))
    return "\n".join(lines + repeats)


@settings(max_examples=150, deadline=None)
@given(corpus=_corpora(), order=st.one_of(st.integers(1, 6), st.integers(7, 20)),
       alpha=st.sampled_from([1.0, 0.5, 0.1, 1e-3]),
       tokenization=st.sampled_from(["char", "whitespace"]))
@example(corpus="d c b a\nd c b a\nb\n\nc a", order=6, alpha=0.5, tokenization="whitespace")
@example(corpus="dcba\ndcba\nb\nca", order=5, alpha=0.5, tokenization="char")
# Orders above the longest line (5 tokens with eos included): every context
# stops at its line start.
@example(corpus="dcba\ndcba\nb\nca", order=6, alpha=0.5, tokenization="char")
@example(corpus="d c b a\nb\n\nc a", order=40, alpha=0.5, tokenization="whitespace")
def test_ngram_rows_match_the_count_dicts(corpus, order, alpha, tokenization):
    tokenize = _splitter(tokenization)
    assume(any(tokenize(line) for line in corpus.splitlines()))
    model = train_ngram_model(corpus, order=order, alpha=alpha, tokenization=tokenization)
    reference = dict_train_ngram_model(corpus, order=order, alpha=alpha,
                                       tokenization=tokenization)
    tokens, context_counts, pair_counts = dict_ngram_counts(corpus, order, tokenize)
    assert model.vocab.tokens == reference.vocab.tokens == tokens
    assert set(model._rows) == set(reference._rows) == set(context_counts)
    _assert_rows_in_length_then_lexicographic_order(model)

    doc = model.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.dumps(reference.to_dict(), sort_keys=True) == text
    assert json.dumps({**doc, **dict_count_lists(context_counts, pair_counts)}, sort_keys=True) == text
    loaded = NgramModel.from_dict(json.loads(text))
    assert json.dumps(loaded.to_dict(), sort_keys=True) == text

    # Every context, plus unseen ones: eos never ends a window, and a short
    # window of the first token may never start a line.
    eos = len(tokens) - 1
    unseen = [(eos,) * (order - 1), (0,) * (order - 1), (eos,) * min(1, order - 1)]
    for ctx in [*context_counts, *unseen]:
        expected = loop_next_distribution(context_counts, pair_counts, ctx, alpha, len(tokens))
        row = model.next_distribution(ctx, ())
        assert row.dense().tobytes() == expected.tobytes()
        # The row lists the observed continuations only.
        assert list(row.ids) == [t for t in range(len(tokens)) if (ctx, t) in pair_counts]
        assert reference.next_distribution(ctx, ()).dense().tobytes() == expected.tobytes()
        assert loaded.next_distribution(ctx, ()).dense().tobytes() == expected.tobytes()


def _assert_rows_in_length_then_lexicographic_order(model):
    by_context = sorted(model._rows, key=lambda ctx: (len(ctx), ctx))
    assert [model._rows[ctx] for ctx in by_context] == list(range(len(model._rows)))


# Windows whose packed keys pass int64, so counting takes the rank step:
# lines of 15 to 30 of 320 characters, or of 1 to 20 of 3,000 words.
@pytest.mark.parametrize("order, tokenization", [(12, "char"), (20, "char"), (7, "whitespace")])
def test_ngram_rows_past_int64_match_the_count_dicts(order, tokenization):
    rng = random.Random(order)
    if tokenization == "char":
        alphabet = [chr(0x100 + i) for i in range(320)]
        corpus = "\n".join("".join(rng.choices(alphabet, k=rng.randint(15, 30)))
                           for _ in range(60))
    else:
        words = [f"w{i}" for i in range(3000)]
        corpus = "\n".join(" ".join(rng.choices(words, k=rng.randint(1, 20))) for _ in range(300))
    model = train_ngram_model(corpus, order=order, alpha=0.5, tokenization=tokenization)
    reference = dict_train_ngram_model(corpus, order=order, alpha=0.5,
                                       tokenization=tokenization)
    size = model.vocab.size
    assert size > 300 and (size + 1) ** (order - 1) * size > 2 ** 63
    assert model.vocab.tokens == reference.vocab.tokens
    assert model.to_dict() == reference.to_dict()
    _assert_rows_in_length_then_lexicographic_order(model)
    for ctx, row in reference._rows.items():
        assert model._totals[model._rows[ctx]] == reference._totals[row]
        assert (model.next_distribution(ctx, ()).dense().tobytes()
                == reference.next_distribution(ctx, ()).dense().tobytes())


def test_ngram_counts_that_even_ranked_codes_cannot_pack_are_refused():
    # Over 2**31 ids, two ranked codes times (V + 1) times V already pass int64.
    ids = np.array([0, 1, 2, 0, 1, 2], np.int32)
    with pytest.raises(ConfigError, match="too many distinct contexts to count at order 3"):
        _count_windows(ids, np.array([3, 3]), 3, 2 ** 31)


def test_ngram_row_over_a_wide_vocabulary_lists_the_observed_continuations():
    size = 200_001
    vocab = Vocabulary(tokens=tuple(map(str, range(size))), eos_id=size - 1)
    pairs = np.array([[0, 7, 2], [0, 199_999, 1], [1, 3, 5]])
    model = NgramModel(vocab, 2, 1.0, "whitespace", {(5,): 0, (6,): 1}, [3, 5], pairs)
    row = model.next_distribution((5,), ())
    assert list(row.ids) == [7, 199_999]
    assert row.probs == (3 / (3 + size), 2 / (3 + size))
    assert row.floor == 1 / (3 + size) and row.size == size
    assert model.next_distribution((4,), ()) == ((), (), 1 / size, size)
