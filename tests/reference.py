"""Test references: naive predecessors of the package's hot paths, and the
independent checkers its formulas are verified against.

Each predecessor is the straightforward algorithm the package used before
its optimized form replaced it; property tests require the optimized code to
return bit-identical results. The checkers (Monte Carlo coverage, top-k by
mass, sequence probability, marginal gain, the one-shot seed mix) compute the
same quantities by a different route than the package does.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from dle.baseline import sample_sequences
from dle.cache_sim import CacheStats
from dle.engine import (Budget, BranchPolicy, EnumerationResult, TokenStats,
                        enumerate_leaves)
from dle.errors import ConfigError, ExpandingExpandedNode, ModelError
from dle.metrics import _check_masses, compensated_sum, coverage_curve
from dle.model import (DIST_SUM_TOL, NgramModel, SparseRow, TableModel, Vocabulary, _array,
                       _field, _listed, _splitter)
from dle.oracle import enumerate_all_leaves
from dle.tree import (EXPANDED, FAILED, LEAF, PRUNED_EARLY_STOP, STOP_EOS, STOP_LENGTH_CAP,
                      UNEXPANDED, Leaf)
from dle.truncation import Composite, Epsilon, MinP, TopK, TopP, active_set


class UnmemoizedModel:
    """Model proxy whose context is a fresh object on every call.

    No per-context step memo ever hits on it, so each decoding step queries
    the model and the truncation rule, as before the memo existed.
    """

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab

    def context(self, prompt, generated):
        return object()

    def next_distribution(self, prompt, generated):
        return self.inner.next_distribution(prompt, generated)


class WindowContextModel:
    """N-gram model proxy whose context is the trailing (order - 1)-token
    window of prompt + generated: the key `NgramModel.context` returned
    before windows with equal count rows shared one.

    A step memo keyed by it computes a step once per distinct window.
    """

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab

    def context(self, prompt, generated):
        sequence = tuple(prompt) + tuple(generated)
        return sequence[max(0, len(sequence) - (self.inner.order - 1)):]

    def next_distribution(self, prompt, generated):
        return self.inner.next_distribution(prompt, generated)


def mix(seed: int, *parts: int | str | bytes) -> int:
    """The 64-bit FNV-1a mix of (seed, *parts) in one pass: the seed of the
    stream `substream_family(seed, *parts[:i])(*parts[i:])`, for every i.
    An int part, from -2**63..2**63-1, is hashed as its 8 little-endian bytes
    modulo 2**64, a str as its UTF-8 bytes."""
    prime, mask = 0x100000001B3, 2 ** 64 - 1

    def fnv1a(part) -> int:
        if isinstance(part, int):
            data = (part % 2 ** 64).to_bytes(8, "little")
        else:
            data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h = 0xCBF29CE484222325
        for byte in data:
            h = ((h ^ byte) * prime) & mask
        return h

    h = fnv1a(seed)
    for part in parts:
        h = ((h ^ fnv1a(part)) * prime) & mask
    return h ^ (h >> 33)


@dataclass(frozen=True)
class ScanRecord:
    """A branch point as the reference scan records it, apart from the tree."""

    node_id: int
    position: int        # index of the alternative token in the generated sequence
    token: int
    log_mass: float
    edge_weight: float
    discovered: int      # the scan's own counter, in the order rollouts return branches


def linear_select_branch(frontier: list[ScanRecord], policy: BranchPolicy, rng=None) -> int:
    """Index of the record the policy picks next, by one scan of the list.
    Ties end on the discovery counter."""
    if policy.kind == "randbranch":
        if rng is None:
            rng = random.Random(mix(policy.seed, "randbranch"))
        prefix_sums = list(itertools.accumulate(math.exp(bp.log_mass) for bp in frontier))
        pick = rng.random() * prefix_sums[-1]
        for i, acc in enumerate(prefix_sums):
            if pick < acc:
                return i
        return len(frontier) - 1
    if policy.kind == "probfirst":
        key = lambda i: (-frontier[i].log_mass, frontier[i].position,
                         frontier[i].token, frontier[i].discovered)
    elif policy.kind == "divfirst":
        key = lambda i: (frontier[i].position, frontier[i].token, frontier[i].discovered)
    elif policy.kind == "globalprob":
        key = lambda i: (-frontier[i].edge_weight, frontier[i].position,
                         frontier[i].token, frontier[i].discovered)
    else:  # dfs
        key = lambda i: (-frontier[i].position, frontier[i].token, frontier[i].discovered)
    return min(range(len(frontier)), key=key)


def early_stop_check(new_tokens_after_branch, sibling_continuations, n: int) -> bool:
    """True when the first n post-branch tokens equal a recorded sibling suffix."""
    if len(new_tokens_after_branch) < n:
        return False
    head = tuple(new_tokens_after_branch[:n])
    return any(tuple(sib[:n]) == head for sib in sibling_continuations if len(sib) >= n)


@dataclass(slots=True)
class TreeNode:
    id: int
    parent: int | None
    token: int | None            # incoming token id; None for the root
    edge_weight: float           # renormalized step weight, or exactly 1.0 when forced
    log_mass: float              # log of the path probability from the root
    depth: int = 0               # generated tokens from the root to this node
    status: str = UNEXPANDED
    children: list[int] = field(default_factory=list)


class NodeTree:
    """`PrunedTree` as one `TreeNode` object per node, each with its own
    children list, as the package stored it before the parallel lists."""

    root = 0

    def __init__(self):
        self.nodes: list[TreeNode] = [TreeNode(id=0, parent=None, token=None,
                                               edge_weight=1.0, log_mass=0.0)]

    def expand_node(self, node_id: int, active) -> list[TreeNode]:
        node = self.nodes[node_id]
        if node.status != UNEXPANDED:
            raise ExpandingExpandedNode(f"node {node_id} has status {node.status!r}")
        nodes, base, depth = self.nodes, node.log_mass, node.depth + 1
        first = len(nodes)
        for token, weight, log_weight in zip(active.token_ids, active.weights, active.log_weights):
            nodes.append(TreeNode(len(nodes), node_id, token, weight, base + log_weight, depth))
        node.children.extend(range(first, len(nodes)))
        node.status = EXPANDED
        return nodes[first:]

    def path_tokens(self, node_id: int) -> tuple[int, ...]:
        out: list[int] = []
        node = self.nodes[node_id]
        while node.parent is not None:
            out.append(node.token)
            node = self.nodes[node.parent]
        return tuple(reversed(out))

    def mark_path(self, node_id: int, stop_node_id: int, status: str) -> None:
        node = self.nodes[node_id]
        while True:
            node.status = status
            if node.id == stop_node_id or node.parent is None:
                break
            node = self.nodes[node.parent]

    def to_dict(self) -> dict:
        return {"nodes": [{"id": n.id, "parent": n.parent, "token": n.token,
                           "edge_weight": n.edge_weight, "log_mass": n.log_mass,
                           "status": n.status} for n in self.nodes]}


def node_greedy_rollout(model, rule, tree: NodeTree, start_node: int, prompt, budget,
                        stats: TokenStats, early_stop, sibling_leaves, steps: dict):
    """`engine.greedy_rollout` on a `NodeTree`: (leaf or None, branch nodes)."""
    stats.rollouts += 1
    node_id = start_node
    prefix = list(tree.path_tokens(start_node))
    inherited = len(prefix)
    appended: list[int] = []
    branches: list[TreeNode] = []
    eos_id = model.vocab.eos_id
    check_merges = early_stop is not None and start_node != tree.root
    candidates = sibling_leaves

    def make_leaf(stop_reason: str) -> Leaf:
        node = tree.nodes[node_id]
        node.status = LEAF
        stats.new_tokens += len(appended)
        return Leaf(tokens=tuple(prefix), q=math.exp(node.log_mass), log_q=node.log_mass,
                    stop_reason=stop_reason, new_tokens=len(appended),
                    reused_prefix_len=len(prompt) + inherited, node_id=node_id)

    if prefix and prefix[-1] == eos_id:
        return make_leaf(STOP_EOS), branches
    while True:
        if len(prefix) >= budget.max_seq_len:
            return make_leaf(STOP_LENGTH_CAP), branches
        spent = stats.generated_tokens + len(appended)
        if budget.max_new_tokens is not None and spent >= budget.max_new_tokens:
            stats.discarded_tokens += len(appended)
            return None, branches
        context = model.context(prompt, prefix)
        active = steps.get(context)
        if active is None:
            try:
                probs = model.next_distribution(tuple(prompt), tuple(prefix))
            except ModelError:
                tree.mark_path(node_id, start_node, FAILED)
                stats.discarded_tokens += len(appended)
                raise
            active = steps[context] = active_set(probs, rule)
        children = tree.expand_node(node_id, active)
        branches += children[1:]
        position = len(prefix)
        node_id = children[0].id
        token = children[0].token
        prefix.append(token)
        appended.append(token)
        if token == eos_id:
            return make_leaf(STOP_EOS), branches
        if check_merges:
            candidates = [c for c in candidates if c[position] == token]
            if not candidates:
                check_merges = False
            elif len(appended) == early_stop.n:
                tree.mark_path(node_id, start_node, PRUNED_EARLY_STOP)
                stats.wasted_tokens += len(appended)
                stats.early_stop_triggers += 1
                return None, branches


def node_enumerate_leaves(model, rule, prompt, policy, budget, early_stop=None,
                          keep_tree=False, steps=None) -> EnumerationResult:
    """`enumerate_leaves` on a `NodeTree`. Each round's early-stop candidates
    are found by scanning every completed leaf: those that agree with the
    branch point on every token before its position and have at least n
    tokens after it. Each branch is picked by `linear_select_branch`, whose
    ties end on a discovery counter kept here, in the order rollouts return
    branches, not on node ids."""
    tree = NodeTree()
    stats = TokenStats()
    records: list[ScanRecord] = []
    discovery = itertools.count()
    rng = random.Random(mix(policy.seed, "randbranch")) if policy.kind == "randbranch" else None
    leaves: list[Leaf] = []
    if steps is None:
        steps = {}
    degraded = False
    start = tree.root
    while True:
        candidates = ()
        if early_stop is not None and start != tree.root:
            position = tree.nodes[start].depth - 1
            shared = tree.path_tokens(start)[:position]
            candidates = [leaf.tokens for leaf in leaves
                          if len(leaf.tokens) > position + early_stop.n
                          and leaf.tokens[:position] == shared]
        try:
            leaf, branches = node_greedy_rollout(model, rule, tree, start, prompt, budget, stats,
                                                 early_stop, candidates, steps)
        except ModelError:
            if not leaves:
                raise
            degraded = True
            break
        records += [ScanRecord(node.id, node.depth - 1, node.token, node.log_mass,
                               node.edge_weight, next(discovery)) for node in branches]
        if leaf is not None:
            leaves.append(leaf)
        if ((budget.max_leaves is not None and len(leaves) >= budget.max_leaves)
                or (budget.max_new_tokens is not None
                    and stats.generated_tokens >= budget.max_new_tokens)
                or not records):
            break
        start = records.pop(linear_select_branch(records, policy, rng)).node_id
    return EnumerationResult(leaves=leaves, frontier_exhausted=not records, stats=stats,
                             degraded=degraded, tree=tree if keep_tree else None)


def sparse_row(probs) -> SparseRow:
    """A dense distribution as a `SparseRow` with floor 0, listing every
    entry that is not +0.0, as `TableModel` stores its rows."""
    probs = np.asarray(probs, dtype=np.float64)
    ids = np.flatnonzero((probs != 0.0) | np.signbit(probs))
    return SparseRow(tuple(ids.tolist()), tuple(probs[ids].tolist()), 0.0, len(probs))


def greedy_token(probs: np.ndarray) -> int:
    """Argmax token id of a dense distribution; ties broken by lowest id."""
    return int(np.argmax(probs))


def dense_apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """`truncation.apply_temperature` on a dense distribution, as the package
    did before models returned sparse rows: p^(1/T) renormalized, T=0 and an
    overflowing T give the argmax point mass."""
    if temperature == 1.0:
        return probs
    out = np.zeros_like(probs)
    if temperature > 0.0:
        positive = probs > 0.0
        with np.errstate(over="ignore"):
            logits = np.log(probs[positive]) / temperature
        top = logits.max()
        if math.isfinite(top):
            scaled = np.exp(logits - top)
            out[positive] = scaled / scaled.sum()
            return out
    out[greedy_token(probs)] = 1.0
    return out


def sorting_member_ids(probs: np.ndarray, rule) -> np.ndarray:
    """Member ids by sorting the full vocabulary per rank rule, then intersecting."""
    if isinstance(rule, Composite):
        ids = sorting_member_ids(probs, rule.rules[0])
        for sub in rule.rules[1:]:
            ids = np.intersect1d(ids, sorting_member_ids(probs, sub), assume_unique=True)
        return ids
    positive = probs > 0.0
    if isinstance(rule, TopK):
        order = np.lexsort((np.arange(len(probs)), -probs))
        order = order[positive[order]]
        return np.sort(order[: rule.k])
    if isinstance(rule, TopP):
        order = np.lexsort((np.arange(len(probs)), -probs))
        order = order[positive[order]]
        cum = np.cumsum(probs[order])
        cut = int(np.searchsorted(cum, rule.p - 1e-12, side="left"))
        return np.sort(order[: cut + 1])
    if isinstance(rule, MinP):
        return np.nonzero(probs >= rule.p_min * probs.max())[0]
    if isinstance(rule, Epsilon):
        if rule.inclusive:
            return np.nonzero(probs >= rule.eps)[0]
        return np.nonzero(probs > rule.eps)[0]
    raise TypeError(f"unknown truncation rule: {rule!r}")


def numpy_active_set(probs: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray, float]:
    """(token ids, weights, raw mass) of the truncated step on a dense
    distribution, every stage in numpy whatever the number of survivors:
    `truncation.active_set` before small pools finished on Python floats and
    before models returned sparse rows."""
    ids = sorting_member_ids(probs, rule)
    if len(ids) <= 1:
        g = greedy_token(probs)
        return np.array([g], dtype=np.int64), np.array([1.0]), float(probs[g])
    raw = probs[ids]
    raw_mass = float(raw.sum())
    weights = raw / raw_mass
    # Canonical order: weight descending, token id ascending.
    order = np.lexsort((ids, -weights))
    return ids[order].astype(np.int64), weights[order], raw_mass


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


def _weight_rows(vocab: Vocabulary, weights: list[dict]) -> np.ndarray:
    """A (len(weights), V) array whose row i holds weights[i], a token -> weight
    map, parsed by the package's `_listed`."""
    counts, cols, values = _listed(vocab, weights)
    rows = np.repeat(np.arange(len(weights)), counts)
    out = np.zeros((len(weights), vocab.size))
    out[rows, cols] = values
    return out


class DenseTableModel(TableModel):
    """`TableModel` loaded through a dense (contexts x V) stack, as the
    package did before it checked each row from its listed weights: the
    stack is validated in one pass, then its entries that are not +0.0 are
    kept as the same compressed rows."""

    def __init__(self, vocab: Vocabulary, contexts, rows: np.ndarray, default=None):
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

    @classmethod
    def from_dict(cls, doc: dict) -> "DenseTableModel":
        what = "table model"
        tokens = tuple(_field(doc, "vocab", "an array of strings", what))
        eos_token = _field(doc, "eos", "a string", what)
        raw_transitions = _field(doc, "transitions", "an object", what)
        if eos_token not in tokens:
            raise ConfigError(f"eos token {eos_token!r} not in vocab")
        vocab = Vocabulary(tokens=tokens, eos_id=tokens.index(eos_token))
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


def dict_ngram_counts(corpus: str, order: int, tokenize) -> tuple[tuple[str, ...], dict, dict]:
    """Vocabulary plus (context -> count) and ((context, token) -> count) dicts,
    one context tuple and two dict updates per token."""
    lines = [toks for toks in map(tokenize, corpus.splitlines()) if toks]
    tokens = tuple(sorted({tok for line in lines for tok in line})) + ("<eos>",)
    id_of = {tok: i for i, tok in enumerate(tokens)}
    width = order - 1
    context_counts: dict = {}
    pair_counts: dict = {}
    for line in lines:
        ids = [id_of[tok] for tok in line] + [len(tokens) - 1]
        for i, nxt in enumerate(ids):
            ctx = tuple(ids[max(0, i - width):i]) if width else ()
            context_counts[ctx] = context_counts.get(ctx, 0) + 1
            pair_counts[(ctx, nxt)] = pair_counts.get((ctx, nxt), 0) + 1
    return tokens, context_counts, pair_counts


def dict_train_ngram_model(corpus: str, order: int, alpha: float,
                           tokenization: str = "whitespace") -> NgramModel:
    """`train_ngram_model` before numpy counting: the count dicts of
    `dict_ngram_counts`, with the context dict turned into the row index in
    place (rows in first-appearance order)."""
    tokens, context_counts, pair_counts = dict_ngram_counts(
        corpus, order, _splitter(tokenization))
    totals = list(context_counts.values())
    for row, ctx in enumerate(context_counts):
        context_counts[ctx] = row
    pairs = np.array([(context_counts[ctx], tok, count)
                      for (ctx, tok), count in pair_counts.items()], dtype=np.int64)
    return NgramModel(Vocabulary(tokens=tokens, eos_id=len(tokens) - 1), order, alpha,
                      tokenization, context_counts, totals, pairs)


def loop_next_distribution(context_counts: dict, pair_counts: dict, ctx: tuple,
                           alpha: float, size: int) -> np.ndarray:
    """Add-alpha conditional filled one vocabulary entry at a time."""
    ctx_count = context_counts.get(ctx, 0)
    denom = ctx_count + alpha * size
    probs = np.full(size, alpha / denom)
    if ctx_count:
        for token in range(size):
            pair = pair_counts.get((ctx, token))
            if pair:
                probs[token] = (pair + alpha) / denom
    return probs


def dict_count_lists(context_counts: dict, pair_counts: dict) -> dict:
    """The count fields of a serialized n-gram document, from the count dicts."""
    return {
        "context_counts": [[list(ctx), count] for ctx, count in sorted(context_counts.items())],
        "pair_counts": [[list(ctx), token, count]
                        for (ctx, token), count in sorted(pair_counts.items())],
    }


def pairwise_repeated_tokens(generations) -> int:
    """Sum over generations of the longest prefix shared with any earlier one,
    by comparing every pair token by token."""
    repeated = 0
    for j in range(1, len(generations)):
        best = 0
        for earlier in generations[:j]:
            n = min(len(generations[j]), len(earlier))
            lcp = next((i for i in range(n) if generations[j][i] != earlier[i]), n)
            best = max(best, lcp)
        repeated += best
    return repeated


def pairwise_repetition_rate(generations) -> float:
    """Repetition rate from the pairwise longest-common-prefix loop."""
    total = sum(len(g) for g in generations)
    return pairwise_repeated_tokens(generations) / total if total else 0.0


class _TrieNode:
    __slots__ = ("children", "last_access")

    def __init__(self):
        self.children: dict[tuple, "_TrieNode"] = {}
        self.last_access = 0


class WalkingPrefixCache:
    """PrefixCache on a trie of linked node objects, each holding its own
    children dict and last access. Its LRU eviction walks the whole trie for
    the least recently used childless block other than the one the
    insertion is extending."""

    def __init__(self, block_size: int = 1, capacity: int | None = None,
                 eviction: str = "none"):
        self.block_size = block_size
        self.capacity = capacity
        self.eviction = eviction
        self.cached_tokens = 0
        self._root = _TrieNode()
        self._clock = 0

    def _blocks(self, stream) -> list[tuple]:
        size = self.block_size
        return [tuple(stream[i * size:(i + 1) * size]) for i in range(len(stream) // size)]

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def match(self, stream) -> int:
        node = self._root
        matched = 0
        for block in self._blocks(stream):
            child = node.children.get(block)
            if child is None:
                break
            child.last_access = self._tick()
            matched += self.block_size
            node = child
        return matched

    def insert(self, stream) -> None:
        node = self._root
        for block in self._blocks(stream):
            child = node.children.get(block)
            if child is None:
                if self.capacity is not None and self.cached_tokens + self.block_size > self.capacity:
                    if self.eviction != "lru" or not self._walk_evict(protect=node):
                        return
                child = node.children[block] = _TrieNode()
                self.cached_tokens += self.block_size
            child.last_access = self._tick()
            node = child

    def _walk_evict(self, protect) -> bool:
        victim = None
        stack = [self._root]
        while stack:
            node = stack.pop()
            for key, child in node.children.items():
                if child.children:
                    stack.append(child)
                elif child is not protect and (victim is None or child.last_access < victim[2]):
                    victim = (node, key, child.last_access)
        if victim is None:
            return False
        del victim[0].children[victim[1]]
        self.cached_tokens -= self.block_size
        return True


def two_walk_simulate(streams, cache) -> CacheStats:
    """`simulate` matching each stream against the cache, then inserting it:
    two walks over its cached prefix."""
    if not streams:
        raise ConfigError("simulate needs at least one stream")
    actual = 0
    for stream in streams:
        actual += cache.match(stream)
        cache.insert(stream)
    return CacheStats(actual_hits=actual, theoretical_hits=pairwise_repeated_tokens(streams),
                      flat_length=sum(map(len, streams)))


def neumaier_loop_sum(values) -> float:
    """Neumaier summation one value at a time."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def reference_compare_rows(model, rule, prompt_ids, ks, policy, seeds, max_seq_len,
                           with_tokens) -> list[dict]:
    """`compare`/`coverage-curve` rows with the closed form and the sampled
    coverage summed by the loop for every k, re-deduplicating each seed's
    first k draws."""
    masses = np.asarray(enumerate_all_leaves(model, rule, prompt_ids,
                                             max_seq_len=max_seq_len).masses(), dtype=np.float64)
    max_k = max(ks)
    result = enumerate_leaves(model, rule, prompt_ids, policy,
                              Budget(max_leaves=max_k, max_seq_len=max_seq_len))
    dle_curve = coverage_curve([(lf.tokens, lf.q) for lf in result.leaves])
    dle_tokens = []
    acc = 0
    for leaf in result.leaves:
        acc += leaf.new_tokens
        dle_tokens.append(acc)

    sampled_cov: dict[int, list[float]] = {k: [] for k in ks}
    sampled_tok: dict[int, list[int]] = {k: [] for k in ks}
    for seed in range(seeds):
        run = sample_sequences(model, rule, prompt_ids, max_k, seed, max_seq_len=max_seq_len)
        for k in ks:
            head = run.sequences[:k]
            unique: dict[tuple[int, ...], float] = {}
            for tokens, q in head:
                unique.setdefault(tokens, q)
            sampled_cov[k].append(neumaier_loop_sum(unique.values()))
            sampled_tok[k].append(sum(len(t) for t, _ in head))

    rows = []
    for k in ks:
        idx = min(k, len(dle_curve)) - 1
        row = {
            "k": k,
            "coverage_dle": dle_curve[idx] if dle_curve else 0.0,
            "expected_coverage_closed": neumaier_loop_sum(masses * (1.0 - (1.0 - masses) ** k)),
            "coverage_sampled_mean": statistics.fmean(sampled_cov[k]),
            "coverage_sampled_std": statistics.pstdev(sampled_cov[k]) if seeds > 1 else 0.0,
        }
        if with_tokens:
            row["dle_new_tokens"] = dle_tokens[idx] if dle_tokens else 0
            row["sampled_new_tokens"] = statistics.fmean(sampled_tok[k])
        rows.append(row)
    return rows


def np_substream(seed: int, *parts) -> np.random.Generator:
    """A numpy Generator deterministically derived from (seed, *parts)."""
    return np.random.default_rng(mix(seed, *parts))


def mc_coverage_numpy(masses: np.ndarray, cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per-trial unique-draw coverage, vectorized.

    uniforms has shape (trials, k); each row is one trial of k draws from
    the categorical with cumulative weights `cum`. Returns the summed mass
    of the distinct leaves hit in each trial.
    """
    idx = np.searchsorted(cum, uniforms, side="right")
    np.minimum(idx, len(masses) - 1, out=idx)
    idx.sort(axis=1)
    first = np.ones(idx.shape, dtype=bool)
    first[:, 1:] = idx[:, 1:] != idx[:, :-1]
    return np.where(first, masses[idx], 0.0).sum(axis=1)


def monte_carlo_coverage_from_masses(masses, k: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of expected unique-set coverage of k draws.

    Each trial draws k leaves i.i.d. from the leaf-mass categorical — the
    distribution a step-wise sampler induces over terminated sequences —
    deduplicates, and sums the distinct masses. Returns (mean, standard
    error of the mean).
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    arr = np.asarray(masses, dtype=np.float64)
    cum = np.cumsum(arr)
    uniforms = np_substream(seed, "mc-coverage").random((trials, k))
    # Scale into the covered mass so draws always land on a leaf.
    uniforms *= cum[-1]
    per_trial = mc_coverage_numpy(arr, cum, uniforms)
    return float(per_trial.mean()), float(per_trial.std(ddof=1) / np.sqrt(trials))


def monte_carlo_expected_coverage(model, rule, k: int, trials: int,
                                  seed: int) -> tuple[float, float]:
    """Monte Carlo expected coverage for a model/rule pair, empty prompt."""
    masses = enumerate_all_leaves(model, rule).masses()
    return monte_carlo_coverage_from_masses(masses, k, trials, seed)


def top_k_by_mass(oracle_set, k: int) -> list[tuple[tuple[int, ...], float]]:
    """The k largest-mass leaves; ties keep first-discovered order."""
    if k > len(oracle_set.leaves):
        raise ValueError(f"k={k} exceeds leaf count {len(oracle_set.leaves)}")
    indexed = sorted(range(len(oracle_set.leaves)),
                     key=lambda i: (-oracle_set.leaves[i][1], i))
    return [oracle_set.leaves[i] for i in indexed[:k]]


def sequence_probability(model, rule, prompt, completion) -> float:
    """Probability of a completion under the truncated step distribution.

    Product of the renormalized per-step weights, computed in log space.
    Returns 0.0 as soon as any step's token falls outside the active set.
    """
    log_q = 0.0
    generated: list[int] = []
    for token in completion:
        active = active_set(model.next_distribution(tuple(prompt), tuple(generated)), rule)
        if token not in active.token_ids:
            return 0.0
        log_q += math.log(active.weights[active.token_ids.index(token)])
        generated.append(int(token))
    return math.exp(log_q)


def marginal_gain_closed_form(masses, k: int) -> float:
    """Expected coverage gain of draw k+1, sum_x q_x^2 (1 - q_x)^k; non-increasing in k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arr = _check_masses(masses)
    return compensated_sum(arr * arr * (1.0 - arr) ** k)
