"""The traced run: per-layer metrics from spans, next to untraced passes.

Half of --seconds runs untraced passes, half runs passes with the tracer
installed. Each traced pass yields one value per metric and the run
reports the median across passes; `trace.overhead_s` is the difference of
the two median pass times. The command rates and exact output figures
(leaves_per_s, tokens_per_leaf, ...) come from the untraced passes and
their outputs. A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import Tracer, self_times
from workloads import read_rows, timed_passes

# The layer predicted to have the largest self time on each workload.
PREDICTED_TOP = {
    "enum_frontier": "engine.select_branch",
    "multi_prompt": "model.next_distribution",
    "replay_compare": "cache_sim.PrefixCache.insert",
}

# name -> unit. Span-derived names are "<layer>.<function>.<calls|s|self_s>".
PER_LAYER = {
    "engine.select_branch.calls": "count",
    "engine.select_branch.s": "s",
    "engine.frontier_max": "count",
    "engine.enumerate_leaves.self_s": "s",
    "engine.greedy_rollout.self_s": "s",
    "tree.expand_node.calls": "count",
    "tree.expand_node.s": "s",
    "tree.path_tokens.s": "s",
    "engine.useful_token_ratio": "ratio",
    "engine.early_stop_triggers": "count",
    "model.next_distribution.calls": "count",
    "model.next_distribution.s": "s",
    "truncation.active_set.calls": "count",
    "truncation.active_set.s": "s",
    "truncation.active_set.survivors_mean": "tokens",
    "model.parse_model_spec.s": "s",
    "baseline.sample_sequences.self_s": "s",
    "baseline.memo_hit_ratio": "ratio",
    "cache_sim.PrefixCache.insert.s": "s",
    "cache_sim.PrefixCache.match.s": "s",
    "cache_sim.theoretical_hit_count.s": "s",
    "metrics.repetition_rate.s": "s",
    "aggregate.majority_vote.s": "s",
    "metrics.expected_coverage_closed_form.s": "s",
    "metrics.coverage.s": "s",
    "cli.main.self_s": "s",
    "oracle.enumerate_all_leaves.s": "s",
    "oracle.node_count": "count",
    "wall_s": "s",
    "trace.overhead_s": "s",
    "leaves_per_s": "1/s",
    "draws_per_s": "1/s",
    "streams_per_s": "1/s",
    "tokens_per_leaf": "tokens",
    "coverage": "mass",
    "cache_hit_rate": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the self time of every layer."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    observed: dict[str, list] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        if s.observed is not None:
            observed.setdefault(s.name, []).append(s.observed)

    def under_sampling(span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "baseline.sample_sequences":
                return True
        return False

    stats = observed.get("engine.enumerate_leaves", [])
    survivors = observed.get("truncation.active_set", [])
    sampled_calls = sum(1 for s in spans
                        if s.name == "model.next_distribution" and under_sampling(s))
    sampled_steps = sum(observed.get("baseline.sample_sequences", []))
    out = {
        "engine.frontier_max": max(observed.get("engine.select_branch", [0])),
        "engine.useful_token_ratio": _ratio(sum(o["new"] for o in stats),
                                            sum(o["generated"] for o in stats)),
        "engine.early_stop_triggers": sum(o["early_stop_triggers"] for o in stats),
        "truncation.active_set.survivors_mean": _ratio(sum(survivors), len(survivors)),
        "baseline.memo_hit_ratio": 1.0 - sampled_calls / sampled_steps if sampled_steps else 0.0,
        "oracle.node_count": sum(observed.get("oracle.enumerate_all_leaves", [])),
    }
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(layer, 0)
        elif kind == "s":
            out[name] = total.get(layer, 0.0)
        elif kind == "self_s":
            out[name] = own.get(layer, 0.0)
    return out, own


def output_metrics(wl, passes) -> dict[str, float]:
    """Command rates over the untraced passes and exact figures of the outputs."""
    def seconds(prefix: str) -> float:
        return statistics.median(sum(t for name, _, t in codes if name.startswith(prefix))
                                 for _, codes in passes)

    leaves = draws = streams = generated = 0
    hit_rate = 0.0
    coverages = []
    for step in wl.steps:
        if step.name.startswith("enumerate"):
            leaves += len(read_rows(step.output))
            doc = json.loads(Path(f"{step.output}.metrics.json").read_text(encoding="utf-8"))
            for prompt in doc["prompts"]:
                generated += sum(prompt["tokens"][key] for key in
                                 ("new", "wasted_early_stop", "discarded_budget"))
                coverages.append(prompt["coverage"])
        elif step.name.startswith("sample"):
            draws += len(read_rows(step.output))
        elif step.name.startswith("cache-sim"):
            streams += wl.streams
            if step.name == "cache-sim-lru":
                hit_rate = json.loads(step.output.read_text(encoding="utf-8"))["actual_rate"]
    return {
        "leaves_per_s": _ratio(leaves, seconds("enumerate")),
        "draws_per_s": _ratio(draws, seconds("sample")),
        "streams_per_s": _ratio(streams, seconds("cache-sim")),
        "tokens_per_leaf": _ratio(generated, leaves),
        "coverage": _ratio(sum(coverages), len(coverages)),
        "cache_hit_rate": hit_rate,
    }


def traced_run(wl, reference, args, tally: dict, record: dict) -> dict:
    plain, _ = timed_passes(wl, reference, args.seconds / 2, tally)
    tracer = Tracer()

    def next_pass() -> None:
        tracer.pass_id += 1

    tracer.install()
    try:
        traced, _ = timed_passes(wl, reference, args.seconds / 2, tally, on_pass=next_pass)
    finally:
        tracer.uninstall()

    per_pass: dict[int, list] = {}
    for span in tracer.spans:
        per_pass.setdefault(span.pass_id, []).append(span)
    samples = [span_metrics(spans) for _, spans in sorted(per_pass.items())]
    plain_wall = statistics.median(w for w, _ in plain)
    traced_wall = statistics.median(w for w, _ in traced)
    values = {name: statistics.median(m[name] for m, _ in samples)
              for name in samples[0][0]}
    values["wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values.update(output_metrics(wl, plain))

    own = {}
    for _, layer_self in samples:
        for name, t in layer_self.items():
            own.setdefault(name, []).append(t)
    ranked = sorted(((statistics.median(v), k) for k, v in own.items()
                     if k != "cli.main"), reverse=True)
    top = ranked[0][1] if ranked else None
    predicted = PREDICTED_TOP[wl.name]
    print(f"largest layer by self time: {top} (predicted {predicted}); "
          f"untraced {plain_wall:.4f} s x{len(plain)}, traced {traced_wall:.4f} s x{len(traced)}")
    print("self time by layer: " + ", ".join(f"{k} {t:.4f}" for t, k in ranked[:6]))
    record.update({"largest_layer": top, "predicted_largest_layer": predicted,
                   "untraced_wall_samples_s": [w for w, _ in plain],
                   "traced_wall_samples_s": [w for w, _ in traced]})
    trace_path = Path.cwd() / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(trace_path)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
