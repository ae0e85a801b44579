import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dle.errors import ConfigError, EmptyCorpus, MissingTransition, RemoteError
from dle.model import (NgramModel, RemoteModel, TableModel, Vocabulary, _tokenize,
                       parse_model_spec, train_ngram_model, validate_sequence)
from reference import dict_count_lists, dict_ngram_counts, loop_next_distribution


def test_table_lookup_matches_document():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 0.9, "b": 0.1}, "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}}}
    model = TableModel.from_dict(doc)
    probs = model.next_distribution((), ())
    assert probs.tolist() == [0.9, 0.1, 0.0]


def test_table_default_distribution_fallback():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 1.0}},
           "default": {"<eos>": 1.0}}
    model = TableModel.from_dict(doc)
    assert model.next_distribution((), (0, 1)).tolist() == [0.0, 0.0, 1.0]


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


def test_table_calls_are_bit_identical():
    doc = {"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
           "transitions": {"": {"a": 0.7, "b": 0.3}}}
    model = TableModel.from_dict(doc)
    first = model.next_distribution((), ())
    second = model.next_distribution((), ())
    assert np.array_equal(first, second)


def test_table_round_trip_and_prompt_encoding(fig_tree_model, tmp_path):
    doc = fig_tree_model.to_dict()
    clone = TableModel.from_dict(doc)
    assert np.array_equal(clone.next_distribution((), ()),
                          fig_tree_model.next_distribution((), ()))
    assert fig_tree_model.encode_prompt("a c") == (0, 2)
    assert fig_tree_model.decode((0, 2)) == "a c"


def test_ngram_single_line_counts():
    # Line "a b" contributes events a, b, eos; vocab {a, b, eos}.
    model = train_ngram_model("a b", order=1, alpha=1.0)
    probs = model.next_distribution((), ())
    assert probs.tolist() == pytest.approx([2 / 6, 2 / 6, 2 / 6])


def test_ngram_alpha_to_zero_recovers_frequencies():
    model = train_ngram_model("a a a b", order=1, alpha=1e-9)
    probs = model.next_distribution((), ())
    a, b = probs[0], probs[1]
    assert a / (a + b) == pytest.approx(0.75, abs=1e-6)
    assert b / (a + b) == pytest.approx(0.25, abs=1e-6)
    assert probs[model.vocab.eos_id] == pytest.approx(0.2, abs=1e-6)


def test_ngram_unseen_context_is_uniform():
    model = train_ngram_model("a b\nb a", order=2, alpha=0.5)
    # The eos token never precedes anything in training, so the context is
    # unseen and the conditional is pure smoothing.
    probs = model.next_distribution((model.vocab.eos_id,), ())
    assert probs.tolist() == pytest.approx([1 / 3] * 3)


def test_ngram_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        train_ngram_model("a b", order=1, alpha=0.0)
    with pytest.raises(ConfigError):
        train_ngram_model("a b", order=0, alpha=1.0)
    with pytest.raises(EmptyCorpus):
        train_ngram_model("\n\n", order=1, alpha=1.0)


def test_ngram_smoothing_floor():
    model = train_ngram_model("a b a\nb b a", order=2, alpha=0.25)
    size = model.vocab.size
    counts = {tuple(ctx): count for ctx, count in model.to_dict()["context_counts"]}
    for ctx in [(), (0,), (1,)]:
        probs = model.next_distribution(ctx, ())
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
    assert np.array_equal(clone.next_distribution((), (0,)),
                          model.next_distribution((), (0,)))


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


def test_ngram_calls_are_bit_identical():
    model = train_ngram_model("a b a b", order=2, alpha=1.0)
    assert np.array_equal(model.next_distribution((), (0,)),
                          model.next_distribution((), (0,)))


def test_vocabulary_invariants():
    with pytest.raises(ConfigError):
        Vocabulary(tokens=(), eos_id=0)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a", "a"), eos_id=0)
    with pytest.raises(ConfigError):
        Vocabulary(tokens=("a",), eos_id=5)
    vocab = Vocabulary(tokens=("a", "<eos>"), eos_id=1)
    validate_sequence((0, 0, 1), vocab)
    with pytest.raises(ConfigError):
        validate_sequence((1, 0), vocab)
    with pytest.raises(ConfigError):
        validate_sequence((0, 9), vocab)


def test_remote_renormalizes_returned_logprobs(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.3}})
    model = RemoteModel(base_url=stub_server.url, top_n=5)
    probs = model.next_distribution((), ())
    raw = np.exp([-0.1, -2.3])
    expected = raw / raw.sum()
    x_id, y_id = model._ids["x"], model._ids["y"]
    assert probs[x_id] == pytest.approx(expected[0])
    assert probs[y_id] == pytest.approx(expected[1])
    assert probs.sum() == pytest.approx(1.0)
    assert model.last_raw_mass == pytest.approx(raw.sum())


def test_remote_top_one_is_point_mass(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.3}})
    model = RemoteModel(base_url=stub_server.url, top_n=1)
    probs = model.next_distribution((), ())
    assert probs.max() == pytest.approx(1.0)
    assert (probs > 0).sum() == 1


def test_remote_retries_transient_failures(stub_server):
    stub_server.configure({"": {"x": -0.5}}, fail_first=2)
    model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=3, backoff=0.01)
    probs = model.next_distribution((), ())
    assert probs.max() == pytest.approx(1.0)
    assert len(stub_server.state.requests) == 3


def test_remote_gives_up_after_retries(stub_server):
    stub_server.configure({"": {"x": -0.5}}, fail_first=99)
    model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=2, backoff=0.01)
    with pytest.raises(RemoteError) as excinfo:
        model.next_distribution((), ())
    assert excinfo.value.attempts == 3


def test_remote_rejects_malformed_payload(stub_server):
    stub_server.configure({"": {}})
    model = RemoteModel(base_url=stub_server.url, top_n=1, max_retries=0)
    with pytest.raises(RemoteError):
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


def test_remote_requires_url(monkeypatch):
    monkeypatch.delenv("DLE_REMOTE_URL", raising=False)
    with pytest.raises(ConfigError):
        RemoteModel()


_CORPORA = st.lists(st.text(alphabet="abcd ", max_size=12), min_size=1, max_size=8).map("\n".join)


@settings(max_examples=120, deadline=None)
@given(corpus=_CORPORA, order=st.integers(1, 4), alpha=st.sampled_from([1.0, 0.5, 0.1, 1e-3]),
       tokenization=st.sampled_from(["char", "whitespace"]))
def test_ngram_rows_match_the_count_dicts(corpus, order, alpha, tokenization):
    tokenize = lambda line: _tokenize(line, tokenization)  # noqa: E731
    assume(any(tokenize(line) for line in corpus.splitlines()))
    model = train_ngram_model(corpus, order=order, alpha=alpha, tokenization=tokenization)
    tokens, context_counts, pair_counts = dict_ngram_counts(corpus, order, tokenize)
    assert model.vocab.tokens == tokens

    eos = len(tokens) - 1  # never inside a context
    for ctx in [*context_counts, (eos,) * (order - 1), (0,) * (order - 1)]:
        expected = loop_next_distribution(context_counts, pair_counts, ctx, alpha, len(tokens))
        assert model.next_distribution(ctx, ()).tobytes() == expected.tobytes()

    doc = model.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.dumps({**doc, **dict_count_lists(context_counts, pair_counts)}, sort_keys=True) == text
    assert json.dumps(NgramModel.from_dict(json.loads(text)).to_dict(), sort_keys=True) == text
