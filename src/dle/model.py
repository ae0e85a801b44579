"""Pluggable conditional next-token probability sources.

Three backends share one protocol, ``next_distribution(prompt, generated)``:

* TableModel — explicit transition table loaded from JSON. Transition keys
  are space-joined token strings of the generated prefix (prompt excluded),
  with an optional default distribution for unlisted contexts.
* NgramModel — add-alpha smoothed n-gram model trained from plain text, one
  training sequence per line, end-of-sequence appended once per line.
* RemoteModel — adapter for HTTP endpoints that serve per-token
  log-probabilities. The returned top-N tokens are treated as the entire
  support and renormalized; the raw mass of the set is recorded so callers
  can detect when N is too small.

Table and n-gram models are immutable after construction and safe for
concurrent read-only queries. The remote client bounds in-flight requests
with a semaphore and retries transient failures with exponential backoff.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyCorpus, MissingTransition, RemoteError

log = logging.getLogger(__name__)

DIST_SUM_TOL = 1e-9
REMOTE_URL_ENV = "DLE_REMOTE_URL"
REMOTE_KEY_ENV = "DLE_REMOTE_KEY"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token strings plus the designated end-of-sequence id."""

    tokens: tuple[str, ...]
    eos_id: int

    def __post_init__(self):
        if not self.tokens:
            raise ConfigError("vocabulary must be non-empty")
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("vocabulary tokens must be unique")
        if not 0 <= self.eos_id < len(self.tokens):
            raise ConfigError(f"eos id {self.eos_id} outside vocabulary of size {len(self.tokens)}")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def _index(self) -> dict[str, int]:
        # Built on first lookup, so vocabularies that are never searched
        # (RemoteModel rebuilds one per access) do not pay for it.
        return {tok: i for i, tok in enumerate(self.tokens)}

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ConfigError(f"token {token!r} not in vocabulary") from None


def validate_distribution(probs: np.ndarray, vocab_size: int) -> np.ndarray:
    """Check non-negativity, length, and unit mass within tolerance."""
    if len(probs) != vocab_size:
        raise ConfigError(f"distribution length {len(probs)} != vocabulary size {vocab_size}")
    if (probs < 0.0).any():
        raise ConfigError("distribution has negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise ConfigError(f"distribution sums to {total!r}, expected 1 within {DIST_SUM_TOL}")
    return probs


def validate_sequence(token_ids: Sequence[int], vocab: Vocabulary) -> None:
    """Ids in range; at most one eos and only at the final position."""
    for i, tok in enumerate(token_ids):
        if not 0 <= tok < vocab.size:
            raise ConfigError(f"token id {tok} outside vocabulary")
        if tok == vocab.eos_id and i != len(token_ids) - 1:
            raise ConfigError("eos token before final position")


class TableModel:
    """Explicit transition table over a fixed vocabulary.

    Contexts are tuples of generated token ids (prompt excluded). A context
    with no entry falls back to the default distribution when one is
    configured, otherwise the lookup raises MissingTransition.
    """

    kind = "table"

    def __init__(self, vocab: Vocabulary,
                 transitions: dict[tuple[int, ...], np.ndarray],
                 default: np.ndarray | None = None):
        self.vocab = vocab
        self._transitions = {}
        for ctx, probs in transitions.items():
            arr = np.asarray(probs, dtype=np.float64)
            arr.setflags(write=False)
            self._transitions[tuple(ctx)] = validate_distribution(arr, vocab.size)
        if default is not None:
            default = np.asarray(default, dtype=np.float64)
            default.setflags(write=False)
            validate_distribution(default, vocab.size)
        self._default = default

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> np.ndarray:
        probs = self._transitions.get(tuple(generated))
        if probs is None:
            probs = self._default
        if probs is None:
            raise MissingTransition(f"no transition for context {tuple(generated)!r} and no default")
        return probs

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return tuple(self.vocab.id_of(tok) for tok in text.split())

    def decode(self, token_ids: Sequence[int]) -> str:
        return " ".join(self.vocab.tokens[t] for t in token_ids)

    @classmethod
    def from_dict(cls, doc: dict) -> "TableModel":
        try:
            tokens = tuple(doc["vocab"])
            eos_token = doc["eos"]
            raw_transitions = doc["transitions"]
        except KeyError as exc:
            raise ConfigError(f"table model document missing key {exc}") from exc
        if eos_token not in tokens:
            raise ConfigError(f"eos token {eos_token!r} not in vocab")
        vocab = Vocabulary(tokens=tokens, eos_id=tokens.index(eos_token))

        def to_vector(weights: dict) -> np.ndarray:
            vec = np.zeros(vocab.size)
            for tok, p in weights.items():
                vec[vocab.id_of(tok)] = float(p)
            return vec

        transitions = {}
        for key, weights in raw_transitions.items():
            ctx = tuple(vocab.id_of(tok) for tok in key.split())
            transitions[ctx] = to_vector(weights)
        default = to_vector(doc["default"]) if "default" in doc else None
        return cls(vocab, transitions, default)

    @classmethod
    def from_file(cls, path: str) -> "TableModel":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load table model from {path}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        doc = {
            "vocab": list(self.vocab.tokens),
            "eos": self.vocab.tokens[self.vocab.eos_id],
            "transitions": {
                " ".join(self.vocab.tokens[t] for t in ctx): {
                    self.vocab.tokens[i]: float(p) for i, p in enumerate(vec) if p > 0.0
                }
                for ctx, vec in self._transitions.items()
            },
        }
        if self._default is not None:
            doc["default"] = {
                self.vocab.tokens[i]: float(p) for i, p in enumerate(self._default) if p > 0.0
            }
        return doc


EOS_TOKEN = "<eos>"


def _tokenize(text: str, mode: str) -> list[str]:
    if mode == "char":
        return list(text)
    if mode in ("whitespace", "ws"):
        return text.split()
    raise ConfigError(f"unknown tokenization {mode!r} (use char or whitespace)")


class NgramModel:
    """Add-alpha smoothed n-gram model.

    P(v | ctx) = (count(ctx, v) + alpha) / (count(ctx) + alpha * |V|), where
    ctx is the trailing (order - 1)-token window of the full prefix (prompt
    included), shortened near the start of a sequence. Every conditional is
    strictly positive, so the model never rules a token out on its own.

    Counts are stored as compressed rows: ``_rows`` maps each context to a
    row r, ``_totals[r]`` is the context's count, and the observed
    continuations are ``_next_ids[_indptr[r]:_indptr[r + 1]]`` (ascending)
    with their counts at the same offsets of ``_next_counts``.
    """

    kind = "ngram"

    def __init__(self, vocab: Vocabulary, order: int, alpha: float, tokenization: str,
                 rows: dict[tuple[int, ...], int], totals: list[int], pairs: np.ndarray):
        """Build from counts already keyed by row.

        rows maps each context to its row index, totals[row] is the
        context's count, and pairs is an (n, 3) integer array of
        (row, token id, count) triples in any order.
        """
        if order < 1:
            raise ConfigError(f"order must be >= 1, got {order}")
        if alpha <= 0.0:
            raise ConfigError(f"alpha must be > 0, got {alpha}")
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        self.tokenization = tokenization
        self._rows = rows
        self._totals = totals
        row_of, next_ids = pairs[:, 0], pairs[:, 1]
        if len(pairs) and not 0 <= next_ids.min() <= next_ids.max() < vocab.size:
            raise ConfigError("pair count for a token id outside the vocabulary")
        key = row_of * vocab.size + next_ids
        by_key = np.argsort(key)
        if (np.diff(key[by_key]) == 0).any():
            raise ConfigError("duplicate pair count")
        self._next_ids = next_ids[by_key]
        self._next_counts = pairs[by_key, 2]
        self._indptr = np.zeros(len(totals) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(totals)), out=self._indptr[1:])

    def _context(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple[int, ...]:
        full = tuple(prompt) + tuple(generated)
        width = self.order - 1
        return full[-width:] if width else ()

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> np.ndarray:
        row = self._rows.get(self._context(prompt, generated))
        ctx_count = 0 if row is None else self._totals[row]
        size = self.vocab.size
        denom = ctx_count + self.alpha * size
        probs = np.full(size, self.alpha / denom)
        if ctx_count:
            lo, hi = self._indptr[row:row + 2]
            probs[self._next_ids[lo:hi]] = (self._next_counts[lo:hi] + self.alpha) / denom
        return probs

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return tuple(self.vocab.id_of(tok) for tok in _tokenize(text, self.tokenization))

    def decode(self, token_ids: Sequence[int]) -> str:
        sep = "" if self.tokenization == "char" else " "
        return sep.join(self.vocab.tokens[t] for t in token_ids)

    def to_dict(self) -> dict:
        contexts = sorted(self._rows)
        return {
            "kind": "ngram",
            "order": self.order,
            "alpha": self.alpha,
            "tokenization": self.tokenization,
            "vocab": list(self.vocab.tokens),
            "eos": self.vocab.tokens[self.vocab.eos_id],
            "context_counts": [[list(ctx), self._totals[self._rows[ctx]]] for ctx in contexts],
            "pair_counts": [[list(ctx), token, count]
                            for ctx in contexts
                            for token, count in zip(*self._row(self._rows[ctx]))],
        }

    def _row(self, row: int) -> tuple[list[int], list[int]]:
        lo, hi = self._indptr[row:row + 2]
        return self._next_ids[lo:hi].tolist(), self._next_counts[lo:hi].tolist()

    @classmethod
    def from_dict(cls, doc: dict) -> "NgramModel":
        tokens = tuple(doc["vocab"])
        vocab = Vocabulary(tokens=tokens, eos_id=tokens.index(doc["eos"]))
        rows: dict[tuple[int, ...], int] = {}
        totals: list[int] = []
        for ctx, count in doc["context_counts"]:
            rows[tuple(ctx)] = len(totals)
            totals.append(int(count))
        triples = ((rows[tuple(ctx)], tok, count) for ctx, tok, count in doc["pair_counts"])
        try:
            pairs = _int_triples(triples, len(doc["pair_counts"]))
        except KeyError as exc:
            raise ConfigError(f"pair count for context {exc.args[0]!r}, which has no count") from None
        return cls(vocab, int(doc["order"]), float(doc["alpha"]), doc["tokenization"],
                   rows, totals, pairs)

    @classmethod
    def from_file(cls, path: str) -> "NgramModel":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load ngram model from {path}: {exc}") from exc
        return cls.from_dict(doc)


def _int_triples(triples, n: int) -> np.ndarray:
    """An (n, 3) int64 array from an iterable of n integer triples."""
    return np.fromiter(itertools.chain.from_iterable(triples), np.int64, 3 * n).reshape(n, 3)


def train_ngram_model(corpus: str, order: int, alpha: float,
                      tokenization: str = "whitespace") -> NgramModel:
    """Train an add-alpha n-gram model from text, one sequence per line."""
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    if alpha <= 0.0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    lines = [_tokenize(line, tokenization) for line in corpus.splitlines()]
    lines = [toks for toks in lines if toks]
    if not lines:
        raise EmptyCorpus("corpus is empty after tokenization")

    token_set = sorted({tok for line in lines for tok in line})
    if EOS_TOKEN in token_set:
        raise ConfigError(f"corpus must not contain the reserved token {EOS_TOKEN!r}")
    tokens = tuple(token_set) + (EOS_TOKEN,)
    vocab = Vocabulary(tokens=tokens, eos_id=len(tokens) - 1)

    width = order - 1
    context_counts: dict[tuple[int, ...], int] = {}
    pair_counts: dict[tuple[tuple[int, ...], int], int] = {}
    for line in lines:
        ids = [vocab.id_of(tok) for tok in line] + [vocab.eos_id]
        for i, nxt in enumerate(ids):
            ctx = tuple(ids[max(0, i - width):i]) if width else ()
            context_counts[ctx] = context_counts.get(ctx, 0) + 1
            pair_counts[(ctx, nxt)] = pair_counts.get((ctx, nxt), 0) + 1
    del lines  # the token strings are not needed while the rows are built
    # The context dict becomes the row index in place.
    totals = list(context_counts.values())
    for row, ctx in enumerate(context_counts):
        context_counts[ctx] = row
    pairs = _int_triples(((context_counts[ctx], tok, count)
                          for (ctx, tok), count in pair_counts.items()), len(pair_counts))
    del pair_counts  # freed before the rows are sorted, which copies the triples
    return NgramModel(vocab, order, alpha, tokenization, context_counts, totals, pairs)


class RemoteModel:
    """Adapter for an HTTP endpoint serving top-N next-token log-probabilities.

    The request body carries the prompt text, a request for exactly one new
    token, and the number of top alternatives. Token strings are interned
    into a growing vocabulary with stable ids. Base URL and auth token come
    from the DLE_REMOTE_URL / DLE_REMOTE_KEY environment variables unless
    given explicitly.
    """

    kind = "remote"

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 top_n: int = 20, eos_token: str = EOS_TOKEN,
                 max_retries: int = 3, backoff: float = 0.1, timeout: float = 10.0,
                 max_in_flight: int = 8, low_mass_warn: float = 0.5):
        base_url = base_url or os.environ.get(REMOTE_URL_ENV)
        if not base_url:
            raise ConfigError(f"remote model needs a base URL ({REMOTE_URL_ENV} unset)")
        if top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {top_n}")
        self.base_url = base_url
        self.api_key = api_key if api_key is not None else os.environ.get(REMOTE_KEY_ENV)
        self.top_n = top_n
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.low_mass_warn = low_mass_warn
        self._semaphore = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()
        self._tokens: list[str] = [eos_token]
        self._ids: dict[str, int] = {eos_token: 0}
        self._prompt_words = True
        self.last_raw_mass: float | None = None

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(tokens=tuple(self._tokens), eos_id=0)

    def _intern(self, token: str) -> int:
        with self._lock:
            idx = self._ids.get(token)
            if idx is None:
                idx = len(self._tokens)
                self._tokens.append(token)
                self._ids[token] = idx
            return idx

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return tuple(self._intern(word) for word in text.split())

    def decode(self, token_ids: Sequence[int]) -> str:
        return "".join(self._tokens[t] for t in token_ids)

    def _request_text(self, prompt: Sequence[int], generated: Sequence[int]) -> str:
        prompt_text = " ".join(self._tokens[t] for t in prompt)
        return prompt_text + self.decode(tuple(generated))

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.base_url, data=body, headers=headers, method="POST")
        last_status = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._semaphore:
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                last_status = exc.code
                if exc.code < 500:
                    raise RemoteError(f"endpoint rejected request: HTTP {exc.code}",
                                      attempts=attempt + 1, last_status=exc.code) from exc
            except (urllib.error.URLError, TimeoutError, OSError, json.JSONDecodeError):
                pass
        raise RemoteError(f"endpoint unreachable after {self.max_retries + 1} attempts",
                          attempts=self.max_retries + 1, last_status=last_status)

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> np.ndarray:
        payload = {
            "prompt": self._request_text(prompt, generated),
            "max_tokens": 1,
            "logprobs": self.top_n,
        }
        doc = self._post(payload)
        try:
            top = doc["choices"][0]["logprobs"]["top_logprobs"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise RemoteError(f"malformed endpoint payload: {doc!r}") from exc
        if not top:
            raise RemoteError("endpoint returned no log-probabilities")

        ids = [self._intern(tok) for tok in top.keys()]
        raw = np.exp(np.fromiter(top.values(), dtype=np.float64))
        raw_mass = float(raw.sum())
        self.last_raw_mass = raw_mass
        if raw_mass < self.low_mass_warn:
            log.warning("top-%d tokens cover only %.3f raw probability mass; "
                        "truncation thresholds may be unreliable", self.top_n, raw_mass)
        probs = np.zeros(len(self._tokens))
        probs[ids] = raw / raw_mass
        return probs


Model = TableModel | NgramModel | RemoteModel


def parse_model_spec(spec: str) -> Model:
    """Build a model from CLI syntax.

    ``table:PATH`` — transition-table JSON document.
    ``ngram:PATH`` — serialized model (.json) or a corpus file with options,
    e.g. ``ngram:corpus.txt?order=2&alpha=1.0&tokenize=char``.
    ``remote`` — log-probability endpoint, e.g. ``remote:top_n=10,eos=</s>``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "table":
        if not rest:
            raise ConfigError("table model spec needs a path: table:PATH")
        return TableModel.from_file(rest)
    if kind == "ngram":
        path, _, query = rest.partition("?")
        if not path:
            raise ConfigError("ngram model spec needs a path")
        if path.endswith(".json"):
            return NgramModel.from_file(path)
        options = _parse_options(query, sep="&")
        try:
            with open(path, encoding="utf-8") as fh:
                corpus = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read corpus {path}: {exc}") from exc
        return train_ngram_model(
            corpus,
            order=int(options.get("order", 1)),
            alpha=float(options.get("alpha", 1.0)),
            tokenization=options.get("tokenize", "whitespace"),
        )
    if kind == "remote":
        options = _parse_options(rest, sep=",")
        kwargs = {}
        if "top_n" in options:
            kwargs["top_n"] = int(options["top_n"])
        if "eos" in options:
            kwargs["eos_token"] = options["eos"]
        if "url" in options:
            kwargs["base_url"] = options["url"]
        return RemoteModel(**kwargs)
    raise ConfigError(f"unknown model kind {kind!r} (use table, ngram, or remote)")


def _parse_options(text: str, sep: str) -> dict[str, str]:
    options: dict[str, str] = {}
    for item in filter(None, text.split(sep)):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"bad option {item!r}, expected key=value")
        options[key.strip()] = value.strip()
    return options
