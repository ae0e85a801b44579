"""Pluggable conditional next-token probability sources.

Three backends share one protocol: ``next_distribution(prompt, generated)``,
which returns a `SparseRow`, and ``context(prompt, generated)``, the hashable
part of the prefix that the next distribution depends on. Two prefixes with
equal contexts get the same distribution, so callers may reuse a step
computed for either:

* TableModel — explicit transition table loaded from JSON. Transition keys
  are space-joined token strings of the generated prefix (prompt excluded),
  with an optional default distribution for unlisted contexts.
* NgramModel — add-alpha smoothed n-gram model trained from plain text, one
  training sequence per line, end-of-sequence appended once per line.
* RemoteModel — adapter for HTTP endpoints that serve per-token
  log-probabilities. The returned top-N tokens are treated as the entire
  support and renormalized; a warning is logged when their raw mass is too
  small to trust threshold rules.

Table and n-gram models are immutable after construction and safe for
concurrent read-only queries. The remote client bounds in-flight requests
with a semaphore and retries transient failures with exponential backoff.
"""

from __future__ import annotations

import array
import itertools
import json
import logging
import math
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

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
        # Built on first lookup, so vocabularies that are never searched do
        # not pay for it.
        return {tok: i for i, tok in enumerate(self.tokens)}

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ConfigError(f"token {token!r} not in vocabulary") from None

    def ids_of(self, tokens) -> tuple[int, ...]:
        """The ids of an iterable of tokens, looked up without a Python call per token."""
        try:
            return tuple(map(self._index.__getitem__, tokens))
        except KeyError as exc:
            raise ConfigError(f"token {exc.args[0]!r} not in vocabulary") from None


class SparseRow(NamedTuple):
    """A next-token distribution over the ids 0..size-1, stored by its listed entries.

    `ids` ascend, `probs[i]` is the probability of `ids[i]`, and every id not
    listed has probability `floor`. No listed probability is below the
    floor. Both are read-only sequences of Python numbers (tuples, or
    read-only memoryviews of a model's arrays). A model's listed entries are
    its observed continuations (n-gram), its table entries or its top-N
    tokens, so a row costs those, not the vocabulary size.
    """

    ids: Sequence[int]
    probs: Sequence[float]
    floor: float
    size: int

    def dense(self) -> np.ndarray:
        """The row as one float64 array of `size` probabilities."""
        probs = np.full(self.size, self.floor)
        probs[np.asarray(self.ids, dtype=np.intp)] = self.probs
        return probs


def _array(typecode: str, values: np.ndarray) -> memoryview:
    """`values` as a read-only memoryview of an `array.array` of int64 ('q')
    or float64 ('d'), copied without an intermediate bytes object. Its items
    and the items of its slices, which share its memory, come out as Python
    numbers."""
    out = array.array(typecode)
    dtype = {"q": np.int64, "d": np.float64}[typecode]
    out.frombytes(np.ascontiguousarray(values, dtype=dtype).view(np.uint8))
    return memoryview(out).toreadonly()


def validate_distribution(probs: np.ndarray, vocab_size: int) -> np.ndarray:
    """Check length, finite non-negative entries, and unit mass within tolerance.

    probs is one distribution or a 2-D stack of them, one per row. A stack is
    checked in one pass, and the error describes the first bad row.
    """
    rows = np.atleast_2d(probs)
    if rows.shape[-1] != vocab_size:
        raise ConfigError(f"distribution length {rows.shape[-1]} != vocabulary size {vocab_size}")
    negative = (rows < 0.0).any(axis=1)
    non_finite = ~np.isfinite(rows).all(axis=1)
    totals = rows.sum(axis=1)
    bad = np.flatnonzero(negative | non_finite | (np.abs(totals - 1.0) > DIST_SUM_TOL))
    if len(bad):
        row = bad[0]
        if negative[row]:
            raise ConfigError("distribution has negative entries")
        if non_finite[row]:
            raise ConfigError("distribution has non-finite entries")
        raise ConfigError(f"distribution sums to {float(totals[row])!r}, "
                          f"expected 1 within {DIST_SUM_TOL}")
    return probs


class TableModel:
    """Explicit transition table over a fixed vocabulary.

    Contexts are tuples of generated token ids (prompt excluded). A context
    with no entry falls back to the default distribution when one is
    configured, otherwise the lookup raises MissingTransition.
    """

    def __init__(self, vocab: Vocabulary, contexts: Sequence[tuple[int, ...]],
                 rows: np.ndarray, default: np.ndarray | None = None):
        """rows[i] is the dense next-token distribution after contexts[i].

        The model validates rows and default, then keeps their entries
        that are not +0.0 as compressed rows and drops the dense arrays: row
        r lists ``_ids[_indptr[r]:_indptr[r + 1]]`` (ascending) with their
        probabilities at the same offsets of ``_probs``, and the default is
        the row after the last context's. A -0.0 entry is kept, so a row's
        `dense()` is the given row byte for byte. The three are read-only
        memoryviews of ``array.array``s, which hold no object the cyclic GC
        tracks, and a row is a pair of slices of them.
        """
        self.vocab = vocab
        rows = np.asarray(rows, dtype=np.float64)
        validate_distribution(rows, vocab.size)
        self._transitions = dict(zip(map(tuple, contexts), range(len(rows))))
        self._default = None
        if default is not None:
            default = np.asarray(default, dtype=np.float64)
            validate_distribution(default, vocab.size)
            self._default = len(rows)
            rows = np.concatenate((rows, default[np.newaxis]))
        row_of, ids = np.nonzero((rows != 0.0) | np.signbit(rows))
        self._ids = _array("q", ids)
        self._probs = _array("d", rows[row_of, ids])
        self._indptr = _array("q", np.searchsorted(row_of, np.arange(len(rows) + 1)))

    def context(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple[int, ...]:
        """The generated tokens: transitions do not depend on the prompt."""
        return tuple(generated)

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> SparseRow:
        row = self._transitions.get(tuple(generated), self._default)
        if row is None:
            raise MissingTransition(f"no transition for context {tuple(generated)!r} and no default")
        lo, hi = self._indptr[row], self._indptr[row + 1]
        return SparseRow(self._ids[lo:hi], self._probs[lo:hi], 0.0, self.vocab.size)

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return self.vocab.ids_of(text.split())

    def decode(self, token_ids: Sequence[int]) -> str:
        return " ".join(self.vocab.tokens[t] for t in token_ids)

    @classmethod
    def from_dict(cls, doc: dict) -> "TableModel":
        what = "table model"
        tokens = tuple(_field(doc, "vocab", "an array of strings", what))
        eos_token = _field(doc, "eos", "a string", what)
        raw_transitions = _field(doc, "transitions", "an object", what)
        if eos_token not in tokens:
            raise ConfigError(f"eos token {eos_token!r} not in vocab")
        vocab = Vocabulary(tokens=tokens, eos_id=tokens.index(eos_token))
        # Keys that name the same context keep the last one's weights.
        weights_of: dict[tuple[int, ...], dict] = {}
        for key, weights in raw_transitions.items():
            if not isinstance(weights, dict):
                raise ConfigError(f"{what} transition {key!r} must be an object")
            weights_of[vocab.ids_of(key.split())] = weights
        rows = _weight_rows(vocab, list(weights_of.values()))
        default = None
        if "default" in doc:
            default = _weight_rows(vocab, [_field(doc, "default", "an object", what)])[0]
        return cls(vocab, list(weights_of), rows, default)

    @classmethod
    def from_file(cls, path: str) -> "TableModel":
        return cls.from_dict(_load_json(path, "table model"))


def _load_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {what} from {path}: {exc}") from exc


def read_corpus(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc


_JSON_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "an array": lambda v: isinstance(v, list),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _field(doc, name: str, kind: str, what: str):
    """doc[name], checked to be of a `_JSON_KINDS` kind.

    A document that is not a JSON object, a missing key or a value of the
    wrong kind raises ConfigError naming the field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a JSON object")
    if name not in doc:
        raise ConfigError(f"{what} document missing key {name!r}")
    if not _JSON_KINDS[kind](doc[name]):
        raise ConfigError(f"{what} field {name!r} must be {kind}")
    return doc[name]


def _weight_rows(vocab: Vocabulary, weights: list[dict]) -> np.ndarray:
    """A (len(weights), V) array whose row i holds weights[i], a token -> weight map."""
    chain = itertools.chain.from_iterable
    cols = np.fromiter(chain(map(vocab.ids_of, weights)), np.intp)
    try:
        values = np.fromiter(chain(step.values() for step in weights), np.float64, len(cols))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"transition weights must be numbers: {exc}") from None
    counts = np.fromiter(map(len, weights), np.intp, len(weights))
    rows = np.repeat(np.arange(len(weights)), counts)
    out = np.zeros((len(weights), vocab.size))
    out[rows, cols] = values
    return out


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
    with their counts at the same offsets of ``_next_counts`` and their
    smoothed counts, count + alpha, at those of ``_next_weights``.
    ``_indptr``, ``_next_ids`` and ``_next_weights`` are read-only
    memoryviews of ``array.array``s: a slice of one gives Python numbers, at
    numpy's 8 bytes per item.
    """

    def __init__(self, vocab: Vocabulary, order: int, alpha: float, tokenization: str,
                 rows: dict[tuple[int, ...], int], totals: list[int], pairs: np.ndarray):
        """Build from counts already keyed by row.

        rows maps each context to its row index, totals[row] is the
        context's count, and pairs is an (n, 3) integer array of
        (row, token id, count) triples in any order.
        """
        _check_order_alpha(order, alpha)
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
        del key  # freed first, so the per-pair arrays below add nothing to the peak memory
        self._next_ids = _array("q", next_ids[by_key])
        self._next_counts = pairs[by_key, 2]
        self._next_weights = _array("d", self._next_counts + alpha)
        indptr = np.zeros(len(totals) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(totals)), out=indptr[1:])
        self._indptr = _array("q", indptr)

    def context(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple[int, ...]:
        """The trailing (order - 1)-token window of prompt + generated, read
        from the tail in O(order)."""
        width, tail = self.order - 1, len(generated)
        if tail >= width:
            return tuple(generated[tail - width:])
        return tuple(prompt[max(0, len(prompt) - width + tail):]) + tuple(generated)

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> SparseRow:
        """The observed continuations of the context, with the smoothed
        weight of an unseen one as the floor."""
        row = self._rows.get(self.context(prompt, generated))
        ctx_count = 0 if row is None else self._totals[row]
        size = self.vocab.size
        denom = ctx_count + self.alpha * size
        if not ctx_count:
            return SparseRow((), (), self.alpha / denom, size)
        lo, hi = self._indptr[row], self._indptr[row + 1]
        probs = tuple([w / denom for w in self._next_weights[lo:hi]])
        return SparseRow(self._next_ids[lo:hi], probs, self.alpha / denom, size)

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return self.vocab.ids_of(_tokenize(text, self.tokenization))

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
        what = "n-gram model"
        tokens = tuple(_field(doc, "vocab", "an array of strings", what))
        eos_token = _field(doc, "eos", "a string", what)
        if eos_token not in tokens:
            raise ConfigError(f"eos token {eos_token!r} not in vocab")
        vocab = Vocabulary(tokens=tokens, eos_id=tokens.index(eos_token))
        order = _field(doc, "order", "an integer", what)
        alpha = _field(doc, "alpha", "a number", what)
        tokenization = _field(doc, "tokenization", "a string", what)
        context_counts = _field(doc, "context_counts", "an array", what)
        pair_counts = _field(doc, "pair_counts", "an array", what)
        rows: dict[tuple[int, ...], int] = {}
        totals: list[int] = []
        try:
            for ctx, count in context_counts:
                rows[tuple(ctx)] = len(totals)
                totals.append(int(count))
        except (TypeError, ValueError):
            raise ConfigError(f"{what} field 'context_counts' must hold [context, count] "
                              "pairs") from None
        triples = ((rows[tuple(ctx)], tok, count) for ctx, tok, count in pair_counts)
        try:
            pairs = _int_triples(triples, len(pair_counts))
        except KeyError as exc:
            raise ConfigError(f"pair count for context {exc.args[0]!r}, which has no count") from None
        except (TypeError, ValueError):
            raise ConfigError(f"{what} field 'pair_counts' must hold [context, token id, count] "
                              "triples") from None
        return cls(vocab, order, float(alpha), tokenization, rows, totals, pairs)

    @classmethod
    def from_file(cls, path: str) -> "NgramModel":
        return cls.from_dict(_load_json(path, "ngram model"))


def _check_order_alpha(order: int, alpha: float) -> None:
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    if not 0.0 < alpha < math.inf:  # also false for NaN
        raise ConfigError(f"alpha must be a finite number > 0, got {alpha}")


def _int_triples(triples, n: int) -> np.ndarray:
    """An (n, 3) int64 array from an iterable of n integer triples."""
    return np.fromiter(itertools.chain.from_iterable(triples), np.int64, 3 * n).reshape(n, 3)


def train_ngram_model(corpus: str, order: int, alpha: float,
                      tokenization: str = "whitespace") -> NgramModel:
    """Train an add-alpha n-gram model from text, one sequence per line."""
    _check_order_alpha(order, alpha)
    lines = [_tokenize(line, tokenization) for line in corpus.splitlines()]
    lines = [toks for toks in lines if toks]
    if not lines:
        raise EmptyCorpus("corpus is empty after tokenization")

    token_set = sorted({tok for line in lines for tok in line})
    if EOS_TOKEN in token_set:
        raise ConfigError(f"corpus must not contain the reserved token {EOS_TOKEN!r}")
    tokens = tuple(token_set) + (EOS_TOKEN,)
    vocab = Vocabulary(tokens=tokens, eos_id=len(tokens) - 1)

    # One id array over all lines, eos appended to each.
    lengths = np.fromiter(map(len, lines), np.intp, len(lines)) + 1
    tokens_with_eos = itertools.chain.from_iterable((*line, EOS_TOKEN) for line in lines)
    ids = np.fromiter(map(vocab._index.__getitem__, tokens_with_eos), np.int32,
                      int(lengths.sum()))
    # The token strings are not needed while the rows are built. fromiter
    # stops at its count, so the unfinished chain would keep them alive.
    del tokens_with_eos, lines
    # No context reaches past its line start: a wider window adds no row.
    window = min(order, int(lengths.max()))
    heads, totals, pairs = _count_windows(ids, lengths, window, vocab.size)
    del ids

    # The context tuples of each length, built from one int object per id.
    shared = np.array(range(vocab.size), dtype=object)
    known = (heads >= 0).sum(axis=0)
    rows: dict[tuple[int, ...], int] = {}
    for size in range(window):
        of_size = np.flatnonzero(known == size)
        columns = shared[heads[window - 1 - size:, of_size]].tolist()
        rows.update(zip(zip(*columns) if size else [()] * len(of_size), of_size.tolist()))
    return NgramModel(vocab, order, alpha, tokenization, rows, totals, pairs)


def _count_windows(ids: np.ndarray, lengths: np.ndarray, order: int,
                   vocab_size: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The n-gram counts of lines concatenated in `ids`, `lengths` long each.

    Returns (heads, totals, pairs) in `NgramModel`'s row layout: column r of
    heads is row r's (order - 1)-token context, padded on the left with -1
    where it is shortened near a line start. A helper, so its position-sized
    temporaries are freed before the context tuples are built.
    """
    # Row j of windows holds, for each position, the token width - j places
    # before it, or -1 before its line start. Sorted, the windows are ordered
    # by length, then lexicographically; a row is one run of equal windows.
    width = order - 1
    offsets = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    windows = np.full((width, len(ids)), -1, dtype=np.int32)
    for back in range(1, order):
        windows[width - back, back:] = np.where(offsets[back:] >= back, ids[:-back], -1)
    del offsets
    by_window = np.lexsort(windows[::-1]) if width else np.arange(len(ids))
    windows = windows[:, by_window]
    starts = np.flatnonzero(np.r_[True, (np.diff(windows, axis=1) != 0).any(axis=0)])
    totals = np.diff(np.r_[starts, len(ids)])
    rows = np.repeat(np.arange(len(starts)), totals)
    keys, counts = np.unique(rows * vocab_size + ids[by_window], return_counts=True)
    pairs = np.stack([keys // vocab_size, keys % vocab_size, counts], axis=1)
    return windows[:, starts], totals.tolist(), pairs


class RemoteModel:
    """Adapter for an HTTP endpoint serving top-N next-token log-probabilities.

    The request body carries the prompt text, a request for exactly one new
    token, and the number of top alternatives. Token strings are interned
    into a growing vocabulary with stable ids. Base URL and auth token come
    from the DLE_REMOTE_URL / DLE_REMOTE_KEY environment variables unless
    given explicitly.
    """

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
        self._vocab = Vocabulary(tokens=(eos_token,), eos_id=0)

    @property
    def vocab(self) -> Vocabulary:
        # Tokens are only ever appended, so the count identifies a generation.
        with self._lock:
            if self._vocab.size != len(self._tokens):
                self._vocab = Vocabulary(tokens=tuple(self._tokens), eos_id=0)
            return self._vocab

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

    def context(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple:
        """The whole prefix: the endpoint may condition on all of it."""
        return tuple(prompt), tuple(generated)

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

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> SparseRow:
        """The returned top-N tokens, renormalized, with floor 0."""
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
        if raw_mass < self.low_mass_warn:
            log.warning("top-%d tokens cover only %.3f raw probability mass; "
                        "truncation thresholds may be unreliable", self.top_n, raw_mass)
        ids, probs = zip(*sorted(zip(ids, (raw / raw_mass).tolist())))
        return SparseRow(ids, probs, 0.0, len(self._tokens))


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
            if query:
                raise ConfigError(f"a .json n-gram model takes no options, got ?{query}")
            return NgramModel.from_file(path)
        options = _parse_options(query, "&", ("order", "alpha", "tokenize"))
        return train_ngram_model(
            read_corpus(path),
            order=_number(options, "order", int, 1),
            alpha=_number(options, "alpha", float, 1.0),
            tokenization=options.get("tokenize", "whitespace"),
        )
    if kind == "remote":
        options = _parse_options(rest, ",", ("top_n", "eos", "url"))
        kwargs = {}
        if "top_n" in options:
            kwargs["top_n"] = _number(options, "top_n", int)
        if "eos" in options:
            kwargs["eos_token"] = options["eos"]
        if "url" in options:
            kwargs["base_url"] = options["url"]
        return RemoteModel(**kwargs)
    raise ConfigError(f"unknown model kind {kind!r} (use table, ngram, or remote)")


def _parse_options(text: str, sep: str, allowed: tuple[str, ...]) -> dict[str, str]:
    options: dict[str, str] = {}
    for item in filter(None, text.split(sep)):
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"bad option {item!r}, expected key=value")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"unknown model option {key!r} (allowed: {', '.join(allowed)})")
        options[key] = value.strip()
    return options


def _number(options: dict[str, str], key: str, kind: type, default=None):
    """Option `key` converted by `kind` (int or float), or the default when absent."""
    if key not in options:
        return default
    try:
        return kind(options[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"model option {key} must be {noun}, got {options[key]!r}") from None
