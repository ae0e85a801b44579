"""Pluggable conditional next-token probability sources.

Three backends share one protocol: ``next_distribution(prompt, generated)``,
which returns a `SparseRow`, and ``context(prompt, generated)``, a hashable
key of the prefix. Two prefixes with equal contexts get the same
distribution, so callers may reuse a step computed for either:

* TableModel — explicit transition table loaded from JSON. Transition keys
  are space-joined token strings of the generated prefix (prompt excluded),
  with an optional default distribution for unlisted contexts.
* NgramModel — add-alpha smoothed n-gram model trained from plain text, one
  training sequence per line, end-of-sequence appended once per line, and
  counted with one sort of one packed int64 key per token.
* RemoteModel — adapter for HTTP endpoints that serve per-token
  log-probabilities. It lives in `dle.remote`, which `parse_model_spec`
  imports only for ``remote:`` specs, so local runs never load its HTTP
  stack.
"""

from __future__ import annotations

import array
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, EmptyCorpus, MissingTransition

if TYPE_CHECKING:
    from .remote import RemoteModel

DIST_SUM_TOL = 1e-9


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


class TableModel:
    """Explicit transition table over a fixed vocabulary.

    Contexts are tuples of generated token ids (prompt excluded). A context
    with no entry falls back to the default distribution when one is
    configured, otherwise the lookup raises MissingTransition.
    """

    def __init__(self, vocab: Vocabulary, contexts: Sequence[tuple[int, ...]],
                 lengths: np.ndarray, ids: np.ndarray, probs: np.ndarray):
        """Row i is the next `lengths[i]` entries of `ids` and `probs`: the
        distribution after contexts[i] or, one row past them, the default.

        Each row is checked from its listed entries (`_check_rows`), and those
        that are not +0.0 are kept: row r lists ``_ids[_indptr[r]:_indptr[r +
        1]]`` (ascending) with their probabilities at the same offsets of
        ``_probs``. Kept -0.0 entries make a row's `dense()` its weights' dense
        row byte for byte. The three are read-only memoryviews of
        ``array.array``s, which hold no object the cyclic GC tracks.
        """
        self.vocab = vocab
        self._transitions = dict(zip(map(tuple, contexts), range(len(contexts))))
        self._default = len(contexts) if len(lengths) > len(contexts) else None
        row_of = np.repeat(np.arange(len(lengths)), lengths)
        by_id = np.lexsort((ids, row_of))
        ids, probs = ids[by_id], probs[by_id]
        _check_rows(lengths, row_of, ids, probs, vocab.size)
        keep = (probs != 0.0) | np.signbit(probs)
        self._ids = _array("q", ids[keep])
        self._probs = _array("d", probs[keep])
        self._indptr = _array("q", np.searchsorted(row_of[keep], np.arange(len(lengths) + 1)))

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
        vocab = _vocabulary(doc, what)
        raw_transitions = _field(doc, "transitions", "an object", what)
        # Keys that name the same context keep the last one's weights.
        weights_of: dict[tuple[int, ...], dict] = {}
        for key, weights in raw_transitions.items():
            if not isinstance(weights, dict):
                raise ConfigError(f"{what} transition {key!r} must be an object")
            weights_of[vocab.ids_of(key.split())] = weights
        parts = [_listed(vocab, list(weights_of.values()))]
        if "default" in doc:
            parts.append(_listed(vocab, [_field(doc, "default", "an object", what)]))
        return cls(vocab, list(weights_of), *map(np.concatenate, zip(*parts)))

    @classmethod
    def from_file(cls, path: str) -> "TableModel":
        return cls.from_dict(read_input(path, "table model", json.loads))


def read_input(path: str, what: str, parse=str):
    """`parse(text)` for the UTF-8 text of the input file at `path`. A file
    that cannot be opened or decoded, or whose text `parse` rejects with a
    ValueError (a JSONDecodeError is one), is a configuration error naming
    `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


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


def _vocabulary(doc, what: str) -> Vocabulary:
    """The Vocabulary of a model document's `vocab` and `eos` fields."""
    tokens = tuple(_field(doc, "vocab", "an array of strings", what))
    eos_token = _field(doc, "eos", "a string", what)
    if eos_token not in tokens:
        raise ConfigError(f"eos token {eos_token!r} not in vocab")
    return Vocabulary(tokens=tokens, eos_id=tokens.index(eos_token))


def _listed(vocab: Vocabulary, weights: list[dict]) -> tuple[np.ndarray, ...]:
    """(entries per row, token ids, weights) of token -> weight maps, chained.
    Each weight must be a JSON number: an int or a float, not a bool."""
    chain = itertools.chain.from_iterable
    ids = np.fromiter(vocab.ids_of(chain(weights)), np.intp)
    if not set(map(type, chain(step.values() for step in weights))) <= {int, float}:
        token, weight = next((token, weight) for step in weights for token, weight in step.items()
                             if type(weight) not in (int, float))
        raise ConfigError(f"transition weights must be numbers, got {weight!r} for {token!r}")
    try:
        values = np.fromiter(chain(step.values() for step in weights), np.float64, len(ids))
    except OverflowError:  # an integer past the float range
        raise ConfigError("distribution has non-finite entries") from None
    return np.fromiter(map(len, weights), np.intp, len(weights)), ids, values


def _check_rows(lengths: np.ndarray, row_of: np.ndarray, ids: np.ndarray, probs: np.ndarray,
                size: int) -> None:
    """Raise ConfigError for the first row r, the entries j with row_of[j] == r
    (row_of ascends), that has a negative or non-finite entry or a sum off 1
    by more than DIST_SUM_TOL. The sum is numpy's over the dense row. On
    non-negative entries `bincount`'s sum is within (lengths[r] * eps) * total
    of it, so only rows that close to the bound, or past it, are made dense.
    """
    negative = np.bincount(row_of, probs < 0.0, len(lengths)) > 0
    non_finite = np.bincount(row_of, ~np.isfinite(probs), len(lengths)) > 0
    totals = np.bincount(row_of, probs, len(lengths))
    slack = lengths * 2.0 ** -52 * totals
    for row in np.flatnonzero(negative | non_finite | (np.abs(totals - 1.0) > DIST_SUM_TOL - slack)):
        if negative[row]:
            raise ConfigError("distribution has negative entries")
        if non_finite[row]:
            raise ConfigError("distribution has non-finite entries")
        lo, hi = np.searchsorted(row_of, (row, row + 1))
        total = SparseRow(ids[lo:hi], probs[lo:hi], 0.0, size).dense().sum()
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ConfigError(f"distribution sums to {float(total)!r}, "
                              f"expected 1 within {DIST_SUM_TOL}")


EOS_TOKEN = "<eos>"


def _splitter(mode: str):
    """The tokenizer of a tokenization mode: text -> list of token strings."""
    if mode == "char":
        return list
    if mode in ("whitespace", "ws"):
        return str.split
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
                 rows: dict[tuple[int, ...], int], totals: Sequence[int], pairs: np.ndarray):
        """Build from counts already keyed by row.

        rows maps each context to its row index, totals[row] is the
        context's count, and pairs is an (n, 3) integer array of
        (row, token id, count) triples in any order. Each pair count must be
        at least 1 and each context's count the sum of its pair counts.
        tokenization must be a mode `_splitter` knows.
        """
        _check_order_alpha(order, alpha)
        self._split = _splitter(tokenization)
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        self.tokenization = tokenization
        self._rows = rows
        totals = np.asarray(totals)
        row_of, next_ids = pairs[:, 0], pairs[:, 1]
        if len(pairs) and not 0 <= next_ids.min() <= next_ids.max() < vocab.size:
            raise ConfigError("pair count for a token id outside the vocabulary")
        key = row_of * vocab.size + next_ids
        by_key = np.argsort(key)
        if (np.diff(key[by_key]) == 0).any():
            raise ConfigError("duplicate pair count")
        del key  # freed first, so the per-pair arrays below add nothing to the peak memory
        counts = pairs[:, 2]
        if (counts < 1).any() or (np.bincount(row_of, counts, len(totals)) != totals).any():
            raise ConfigError("pair counts must be >= 1 and sum to their context's count")
        self._totals = totals.tolist()
        self._next_ids = _array("q", next_ids[by_key])
        self._next_counts = pairs[by_key, 2]
        self._next_weights = _array("d", self._next_counts + alpha)
        indptr = np.zeros(len(totals) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(totals)), out=indptr[1:])
        self._indptr = _array("q", indptr)
        # Row -> `context` key once looked up; (count, ids, weights) -> first such row.
        self._keys: list[int | None] = [None] * len(totals)
        self._first_row: dict[tuple[int, bytes, bytes], int] = {}

    def _window(self, prompt: Sequence[int], generated: Sequence[int]) -> tuple[int, ...]:
        """The trailing (order - 1)-token window of prompt + generated, read
        from the tail in O(order)."""
        width, tail = self.order - 1, len(generated)
        if tail >= width:
            return tuple(generated[tail - width:])
        return tuple(prompt[max(0, len(prompt) - width + tail):]) + tuple(generated)

    def context(self, prompt: Sequence[int], generated: Sequence[int]) -> int:
        """The key of the window's row: the first row with the same count,
        continuations and weights, or -1 for an unseen window. Windows with
        equal keys get the same distribution. Filled on a row's first lookup."""
        row = self._rows.get(self._window(prompt, generated))
        if row is None:
            return -1
        key = self._keys[row]
        if key is None:
            lo, hi = self._indptr[row], self._indptr[row + 1]
            key = self._keys[row] = self._first_row.setdefault(
                (self._totals[row], self._next_ids[lo:hi].tobytes(),
                 self._next_weights[lo:hi].tobytes()), row)
        return key

    def next_distribution(self, prompt: Sequence[int], generated: Sequence[int]) -> SparseRow:
        """The observed continuations of the context, with the smoothed
        weight of an unseen one as the floor."""
        row = self._rows.get(self._window(prompt, generated))
        ctx_count = 0 if row is None else self._totals[row]
        size = self.vocab.size
        denom = ctx_count + self.alpha * size
        if not ctx_count:
            return SparseRow((), (), self.alpha / denom, size)
        lo, hi = self._indptr[row], self._indptr[row + 1]
        probs = tuple([w / denom for w in self._next_weights[lo:hi]])
        return SparseRow(self._next_ids[lo:hi], probs, self.alpha / denom, size)

    def encode_prompt(self, text: str) -> tuple[int, ...]:
        return self.vocab.ids_of(self._split(text))

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
        vocab = _vocabulary(doc, what)
        order = _field(doc, "order", "an integer", what)
        alpha = _field(doc, "alpha", "a number", what)
        tokenization = _field(doc, "tokenization", "a string", what)
        context_counts = _field(doc, "context_counts", "an array", what)
        pair_counts = _field(doc, "pair_counts", "an array", what)
        rows: dict[tuple[int, ...], int] = {}
        totals = array.array("q")  # no int object per count: __init__ makes the list
        try:
            for ctx, count in context_counts:
                rows[tuple(ctx)] = len(totals)
                totals.append(_json_int(count))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{what} field 'context_counts' must hold [context, count] "
                              "pairs") from None
        _check_order_alpha(order, alpha)
        try:
            alpha = float(alpha)
        except OverflowError:  # an integer past the float range
            raise ConfigError(f"{what} field 'alpha' is an integer past the float range") from None
        # Any other context would load as a row that no window reaches.
        ids = list(itertools.chain.from_iterable(rows))
        if (len(rows) < len(totals) or max(map(len, rows), default=0) >= order or ids and (
                set(map(type, ids)) != {int} or not 0 <= min(ids) <= max(ids) < vocab.size)):
            raise ConfigError(f"{what} field 'context_counts' must hold distinct contexts of at "
                              f"most order - 1 token ids in [0, {vocab.size})")
        triples = ((rows[tuple(ctx)], _json_int(tok), _json_int(count))
                   for ctx, tok, count in pair_counts)
        try:
            pairs = np.fromiter(itertools.chain.from_iterable(triples), np.int64,
                                3 * len(pair_counts)).reshape(-1, 3)
            # A context of [1.0] or [true] found the row of [1] by ==.
            if {type(i) for ctx, _, _ in pair_counts for i in ctx} - {int}:
                raise TypeError("pair context ids must be integers")
        except KeyError as exc:
            raise ConfigError(f"pair count for context {exc.args[0]!r}, which has no count") from None
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{what} field 'pair_counts' must hold [context, token id, count] "
                              "triples") from None
        return cls(vocab, order, alpha, tokenization, rows, totals, pairs)

    @classmethod
    def from_file(cls, path: str) -> "NgramModel":
        return cls.from_dict(read_input(path, "ngram model", json.loads))


def _check_order_alpha(order: int, alpha: float) -> None:
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    if not 0.0 < alpha < math.inf:  # also false for NaN
        raise ConfigError(f"alpha must be a finite number > 0, got {alpha}")


def _json_int(value) -> int:
    """`value` if it is a JSON integer (an int, not a bool), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def train_ngram_model(corpus: str, order: int, alpha: float,
                      tokenization: str = "whitespace") -> NgramModel:
    """Train an add-alpha n-gram model from text, one sequence per line."""
    _check_order_alpha(order, alpha)
    lines = [toks for toks in map(_splitter(tokenization), corpus.splitlines()) if toks]
    if not lines:
        raise EmptyCorpus("corpus is empty after tokenization")

    token_set = set().union(*lines)
    if EOS_TOKEN in token_set:
        raise ConfigError(f"corpus must not contain the reserved token {EOS_TOKEN!r}")
    vocab = Vocabulary(tokens=(*sorted(token_set), EOS_TOKEN), eos_id=len(token_set))

    # One id array over all lines, eos appended to each.
    for line in lines:
        line.append(EOS_TOKEN)
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    ids = np.fromiter(map(vocab._index.__getitem__, itertools.chain.from_iterable(lines)),
                      np.int32, int(lengths.sum()))
    del lines  # the token strings are not needed while the rows are built
    # No context reaches past its line start: a wider window adds no row.
    heads, totals, pairs = _count_windows(ids, lengths, min(order, int(lengths.max())),
                                          vocab.size)
    del ids
    return NgramModel(vocab, order, alpha, tokenization, _context_rows(heads, vocab.size),
                      totals, pairs)


def _context_rows(heads: np.ndarray, vocab_size: int) -> dict[tuple[int, ...], int]:
    """Context tuple -> row of `_count_windows`' heads, from one int object per
    id. A helper, so its temporaries are freed before the model is built."""
    shared = np.array(range(vocab_size), dtype=object)
    known = (heads >= 0).sum(axis=0)
    rows: dict[tuple[int, ...], int] = {}
    for size in range(len(heads) + 1):
        of_size = np.flatnonzero(known == size)
        columns = shared[heads[len(heads) - size:, of_size]].tolist()
        rows.update(zip(zip(*columns) if size else [()] * len(of_size), of_size.tolist()))
    return rows


def _count_windows(ids: np.ndarray, lengths: np.ndarray, order: int,
                   vocab_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-gram counts of lines concatenated in `ids`, `lengths` long each,
    as (heads, totals, pairs) in `NgramModel`'s row layout: column r of heads
    is row r's (order - 1)-token context, padded on the left with -1 where it
    is shortened near a line start. A helper, so its position-sized
    temporaries are freed before the context tuples are built.

    One sort of one int64 key per position counts them all. A position's code
    packs its window, oldest token first, in base V + 1 (digit 0 before its
    line start, id + 1 otherwise), and its key is code * V + token. Sorted,
    keys run by window length, then lexicographically: a run of equal keys is
    one pair, a run of equal codes one row. Before a digit that could pass
    int64, the codes become their order-preserving ranks, and each row's
    code is decoded back through them; ConfigError if the ranks could too.
    """
    width, base = order - 1, vocab_size + 1
    offsets = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    codes = np.zeros(len(ids), np.int64)
    ranked = []  # per digit: the codes a rank step replaced before it, or None
    for back in range(width, 0, -1):
        ranked.append(None)
        if (int(codes.max()) + 1) * base * vocab_size > 2 ** 63:
            ranked[-1], codes = np.unique(codes, return_inverse=True)
            if len(ranked[-1]) * base * vocab_size > 2 ** 63:
                raise ConfigError(f"too many distinct contexts to count at order {order} "
                                  f"over {vocab_size} tokens")
        codes *= base
        codes[back:] += np.where(offsets[back:] >= back, ids[:-back] + 1, 0)
    del offsets
    codes *= vocab_size
    codes += ids
    codes.sort()
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    codes, next_ids = np.divmod(codes[starts], vocab_size)
    new_row = np.r_[True, codes[1:] != codes[:-1]]
    totals = np.diff(np.r_[starts[new_row], len(ids)])
    pairs = np.stack([np.cumsum(new_row) - 1, next_ids, np.diff(np.r_[starts, len(ids)])], axis=1)
    codes = codes[new_row]
    heads = np.empty((width, len(codes)), np.int32)
    for column in range(width - 1, -1, -1):
        codes, heads[column] = np.divmod(codes, base)
        if ranked[column] is not None:
            codes = ranked[column][codes]
    return heads - 1, totals, pairs


def parse_model_spec(spec: str) -> TableModel | NgramModel | RemoteModel:
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
            read_input(path, "corpus"),
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
        from .remote import RemoteModel
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
