"""Span tracing of `dle` layers from outside the package.

`Tracer.install()` replaces each target with a wrapper at the name its
callers look it up by (a module global or a class attribute) and
`uninstall()` puts the originals back, so untraced passes run the
unmodified package. Spans stay in memory: (id, parent id, pass id, name,
start, end, thread, observation). A span opened on a worker thread with no
open span of its own takes the main thread's innermost open span as its
parent, so time spent in a thread pool is charged below the command that
started it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def _frontier_size(args, kwargs, result):
    return len(args[0])


def _survivors(args, kwargs, result):
    return len(result)


def _token_stats(args, kwargs, result):
    return {"new": result.stats.new_tokens, "generated": result.stats.generated_tokens,
            "early_stop_triggers": result.stats.early_stop_triggers}


def _sample_steps(args, kwargs, result):
    return sum(len(tokens) for tokens, _ in result.sequences)


def _node_count(args, kwargs, result):
    return result.node_count


# (module, attribute path, span name, observer of (args, kwargs, result)).
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("dle.cli", "main", "cli.main", None),
    ("dle.cli", "parse_model_spec", "model.parse_model_spec", None),
    ("dle.model", "train_ngram_model", "model.train_ngram_model", None),
    ("dle.model", "NgramModel.next_distribution", "model.next_distribution", None),
    ("dle.model", "TableModel.next_distribution", "model.next_distribution", None),
    ("dle.cli", "enumerate_leaves", "engine.enumerate_leaves", _token_stats),
    ("dle.engine", "greedy_rollout", "engine.greedy_rollout", None),
    ("dle.engine", "select_branch", "engine.select_branch", _frontier_size),
    ("dle.engine", "active_set", "truncation.active_set", _survivors),
    ("dle.baseline", "active_set", "truncation.active_set", _survivors),
    ("dle.oracle", "active_set", "truncation.active_set", _survivors),
    ("dle.tree", "PrunedTree.expand_node", "tree.expand_node", None),
    ("dle.tree", "PrunedTree.path_tokens", "tree.path_tokens", None),
    ("dle.cli", "sample_sequences", "baseline.sample_sequences", _sample_steps),
    ("dle.cli", "simulate", "cache_sim.simulate", None),
    ("dle.cache_sim", "PrefixCache.match", "cache_sim.PrefixCache.match", None),
    ("dle.cache_sim", "PrefixCache.insert", "cache_sim.PrefixCache.insert", None),
    ("dle.cache_sim", "theoretical_hit_count", "cache_sim.theoretical_hit_count", None),
    ("dle.metrics", "repetition_rate", "metrics.repetition_rate", None),
    ("dle.cli", "coverage", "metrics.coverage", None),
    ("dle.cli", "coverage_curve", "metrics.coverage_curve", None),
    ("dle.cli", "expected_coverage_closed_form", "metrics.expected_coverage_closed_form", None),
    ("dle.cli", "majority_vote", "aggregate.majority_vote", None),
    ("dle.cli", "enumerate_all_leaves", "oracle.enumerate_all_leaves", _node_count),
]


@dataclass
class Span:
    id: int
    parent: int | None
    pass_id: int
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    observed: Any = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, observe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                main = tracer._main_stack
                parent = main[-1].id if main and stack is not main else None
            span = Span(next(tracer._ids), parent, tracer.pass_id, name,
                        time.perf_counter(), thread=threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                span.observed = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "pass": s.pass_id,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "thread": s.thread, "observed": s.observed}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out
