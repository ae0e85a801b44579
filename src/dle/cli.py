"""Command-line entry point.

Commands: enumerate, sample, compare, coverage-curve, cache-sim, vote,
ngram-train, oracle. Exit codes: 0 ok, 2 configuration error, 3 model or
transport error, 4 internal invariant violation.

Deterministic runs are byte-reproducible: output rows carry no timestamps,
JSON keys are sorted, and every random component draws from a named
substream of the run seed. Each run writes a manifest echoing the full
configuration next to its primary output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .aggregate import majority_vote, parse_extractor
from .baseline import sample_sequences
from .cache_sim import PrefixCache, simulate
from .engine import (Budget, BranchPolicy, EarlyStopConfig, EnumerationResult,
                     enumerate_leaves)
from .errors import ConfigError, DleError, InvariantViolation, ModelError
from .metrics import coverage, coverage_curve, expected_coverage_closed_form
from .model import parse_model_spec, train_ngram_model
from .oracle import enumerate_all_leaves
from .truncation import parse_rule


def _read_prompts(path: str | None, model) -> list[tuple[str, tuple[int, ...]]]:
    if path is None:
        return [("", ())]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read prompt file {path}: {exc}") from exc
    lines = [line for line in lines if line.strip()] or [""]
    return [(line, model.encode_prompt(line)) for line in lines]


def _parse_early_stop(text: str) -> EarlyStopConfig | None:
    if text == "off":
        return None
    try:
        return EarlyStopConfig(enabled=True, n=int(text))
    except ValueError as exc:
        raise ConfigError(f"--early-stop-n expects an integer or 'off', got {text!r}") from exc


def _parse_k_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            start, stop = int(lo), int(hi)
        else:
            start = stop = int(lo)
    except ValueError as exc:
        raise ConfigError(f"bad k range {text!r}, expected N or N..M") from exc
    if start < 1 or stop < start:
        raise ConfigError(f"bad k range {text!r}")
    return list(range(start, stop + 1))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, command: str, config: dict, extras: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "versions": {"dle": __version__, "python": sys.version.split()[0]},
    }
    if extras:
        manifest.update(extras)
    _write_json(Path(str(out) + ".manifest.json"), manifest)


def _leaf_row(model, leaf) -> dict:
    return {
        "tokens": list(leaf.tokens),
        "text": model.decode(leaf.tokens),
        "q": leaf.q,
        "log_q": leaf.log_q,
        "new_tokens": leaf.new_tokens,
        "reused_prefix": leaf.reused_prefix_len,
        "stop_reason": leaf.stop_reason,
        "order": leaf.order,
    }


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def _read_jsonl(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _run_prompts(args, command: str, model, config: dict, run_one, rows_of) -> tuple[list, bool]:
    """Run `run_one` on every prompt, then write the rows and the manifest.

    A thread pool serves multi-prompt runs only. `rows_of(prompt_ids, result)`
    turns one result into output rows; multi-prompt rows also carry the
    prompt's index. Returns the results and whether any of them is degraded.
    """
    prompt_ids = [ids for _, ids in _read_prompts(args.prompt_file, model)]
    if len(prompt_ids) > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_one, prompt_ids))
    else:
        results = [run_one(prompt_ids[0])]
    rows = []
    for idx, (ids, result) in enumerate(zip(prompt_ids, results)):
        for row in rows_of(ids, result):
            if len(prompt_ids) > 1:
                row["prompt"] = idx
            rows.append(row)
    degraded = any(result.degraded for result in results)
    out = Path(args.out)
    _write_jsonl(out, rows)
    _write_manifest(out, command, config, extras={
        "degraded": degraded, "prompt_tokens": [list(ids) for ids in prompt_ids]})
    return results, degraded


def _degraded_exit(degraded: bool, warning: str) -> int:
    if degraded:
        print(f"warning: {warning}", file=sys.stderr)
        return 3
    return 0


def cmd_enumerate(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    policy = BranchPolicy.parse(args.policy)
    if args.k is None and args.token_budget is None:
        raise ConfigError("enumerate needs --k and/or --token-budget")
    budget = Budget(max_leaves=args.k, max_new_tokens=args.token_budget,
                    max_seq_len=args.max_seq_len)
    early_stop = _parse_early_stop(args.early_stop_n)

    def run_one(prompt_ids) -> EnumerationResult:
        return enumerate_leaves(model, rule, prompt_ids, policy, budget, early_stop,
                                keep_tree=args.dump_tree is not None)

    results, degraded = _run_prompts(args, "enumerate", model, {
        "model": args.model, "rule": args.rule, "policy": args.policy,
        "k": args.k, "token_budget": args.token_budget, "max_seq_len": args.max_seq_len,
        "early_stop_n": args.early_stop_n, "prompt_file": args.prompt_file,
    }, run_one, lambda _, result: [_leaf_row(model, leaf) for leaf in result.leaves])
    metrics = [{
        "prompt": idx,
        "leaves": len(result.leaves),
        "coverage": coverage([(lf.tokens, lf.q) for lf in result.leaves]),
        "frontier_exhausted": result.frontier_exhausted,
        "degraded": result.degraded,
        "tokens": {
            "new": result.stats.new_tokens,
            "wasted_early_stop": result.stats.wasted_tokens,
            "discarded_budget": result.stats.discarded_tokens,
            "model_calls": result.stats.model_calls,
            "early_stop_triggers": result.stats.early_stop_triggers,
        },
    } for idx, result in enumerate(results)]
    _write_json(Path(f"{Path(args.out)}.metrics.json"), {"prompts": metrics})
    if args.dump_tree is not None:
        if len(results) == 1 and results[0].tree is not None:
            results[0].tree.dump(args.dump_tree)
        else:
            raise ConfigError("--dump-tree supports single-prompt runs only")
    return _degraded_exit(degraded, "partial results (model errors); outputs marked degraded")


def cmd_sample(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)

    def run_one(prompt_ids):
        return sample_sequences(model, rule, prompt_ids, args.k, args.seed,
                                args.temperature, args.max_seq_len)

    def rows_of(prompt_ids, run) -> list[dict]:
        return [{
            "tokens": list(tokens),
            "text": model.decode(tokens),
            "q": q,
            "log_q": float("-inf") if q == 0.0 else math.log(q),
            "new_tokens": len(tokens),
            "reused_prefix": len(prompt_ids),
            "stop_reason": "eos" if tokens and tokens[-1] == model.vocab.eos_id else "length-cap",
            "order": draw,
            "draw": draw,
        } for draw, (tokens, q) in enumerate(run.sequences)]

    _, degraded = _run_prompts(args, "sample", model, {
        "model": args.model, "rule": args.rule, "k": args.k, "seed": args.seed,
        "temperature": args.temperature, "prompt_file": args.prompt_file,
    }, run_one, rows_of)
    return _degraded_exit(degraded, "degraded sample run (model errors)")


def _compare_rows(model, rule, prompt_ids, ks, policy, seeds, temperature,
                  max_seq_len, with_tokens) -> list[dict]:
    oracle_set = enumerate_all_leaves(model, rule, prompt_ids, max_depth=max_seq_len)
    masses = oracle_set.masses()
    max_k = max(ks)

    result = enumerate_leaves(model, rule, prompt_ids, policy,
                              Budget(max_leaves=max_k, max_seq_len=max_seq_len))
    dle_curve = coverage_curve([(lf.tokens, lf.q) for lf in result.leaves], "dle")
    dle_tokens = []
    acc = 0
    for leaf in result.leaves:
        acc += leaf.new_tokens
        dle_tokens.append(acc)

    sampled_cov: dict[int, list[float]] = {k: [] for k in ks}
    sampled_tok: dict[int, list[int]] = {k: [] for k in ks}
    for seed in range(seeds):
        run = sample_sequences(model, rule, prompt_ids, max_k, seed, temperature, max_seq_len)
        for k in ks:
            head = run.sequences[:k]
            unique: dict[tuple[int, ...], float] = {}
            for tokens, q in head:
                unique.setdefault(tokens, q)
            sampled_cov[k].append(coverage(list(unique.items())))
            sampled_tok[k].append(sum(len(t) for t, _ in head))

    rows = []
    for k in ks:
        idx = min(k, len(dle_curve.values)) - 1
        row = {
            "k": k,
            "coverage_dle": dle_curve.values[idx] if dle_curve.values else 0.0,
            "expected_coverage_closed": expected_coverage_closed_form(masses, k),
            "coverage_sampled_mean": statistics.fmean(sampled_cov[k]),
            "coverage_sampled_std": statistics.pstdev(sampled_cov[k]) if seeds > 1 else 0.0,
        }
        if with_tokens:
            row["dle_new_tokens"] = dle_tokens[idx] if dle_tokens else 0
            row["sampled_new_tokens"] = statistics.fmean(sampled_tok[k])
        rows.append(row)
    return rows


def _write_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_compare(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    policy = BranchPolicy.parse(args.policy)
    prompts = _read_prompts(args.prompt_file, model)
    ks = _parse_k_range(args.k)
    rows = _compare_rows(model, rule, prompts[0][1], ks, policy, args.sample_seeds,
                         args.temperature, args.max_seq_len, with_tokens=True)
    out = Path(args.out)
    _write_csv(out, rows)
    _write_manifest(out, "compare", {
        "model": args.model, "rule": args.rule, "policy": args.policy, "k": args.k,
        "sample_seeds": args.sample_seeds, "temperature": args.temperature,
    })
    return 0


def cmd_coverage_curve(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    policy = BranchPolicy.parse(args.policy)
    prompts = _read_prompts(args.prompt_file, model)
    ks = list(range(1, args.k_max + 1))
    rows = _compare_rows(model, rule, prompts[0][1], ks, policy, args.sample_seeds,
                         args.temperature, args.max_seq_len, with_tokens=False)
    out = Path(args.out)
    _write_csv(out, rows)
    _write_manifest(out, "coverage-curve", {
        "model": args.model, "rule": args.rule, "policy": args.policy,
        "k_max": args.k_max, "sample_seeds": args.sample_seeds,
    })
    return 0


def cmd_cache_sim(args) -> int:
    rows = _read_jsonl(args.infile)
    manifest_path = Path(args.infile + ".manifest.json")
    prompt_tokens: dict[int, list[int]] = {}
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for idx, ids in enumerate(manifest.get("prompt_tokens", [])):
            prompt_tokens[idx] = list(ids)
    streams = []
    for row in rows:
        prompt = prompt_tokens.get(row.get("prompt", 0), [])
        streams.append(tuple(prompt) + tuple(row["tokens"]))
    if not streams:
        raise ConfigError(f"no sequences found in {args.infile}")

    capacity = None if args.capacity == "inf" else int(args.capacity)
    cache = PrefixCache(block_size=args.block, capacity=capacity, eviction=args.evict)
    stats = simulate(streams, cache)
    payload = stats.to_dict()
    if args.out:
        _write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_vote(args) -> int:
    rows = _read_jsonl(args.infile)
    if not rows:
        raise ConfigError(f"no sequences found in {args.infile}")
    extractor = parse_extractor(args.extract)
    labeled = [(extractor(row["text"]), float(row["q"])) for row in rows]
    result = majority_vote(labeled, weighting=args.weighting)
    payload = {
        "winner": result.winner,
        "weights": result.weights,
        "total_mass": result.total_mass,
        "weighting": args.weighting,
    }
    if args.out:
        _write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_ngram_train(args) -> int:
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            corpus = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {args.corpus}: {exc}") from exc
    model = train_ngram_model(corpus, order=args.order, alpha=args.alpha,
                              tokenization=args.tokenize)
    _write_json(Path(args.out), model.to_dict())
    print(f"trained order-{args.order} model over {model.vocab.size} tokens -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    prompts = _read_prompts(args.prompt_file, model)
    oracle_set = enumerate_all_leaves(model, rule, prompts[0][1], max_depth=args.max_depth)
    payload = {
        "leaves": [{"tokens": list(tokens), "text": model.decode(tokens), "q": q}
                   for tokens, q in oracle_set.leaves],
        "total_mass": oracle_set.total_mass,
        "node_count": oracle_set.node_count,
    }
    if args.out:
        _write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", required=True, help="table:PATH | ngram:PATH[?opts] | remote[:opts]")
        p.add_argument("--rule", required=True, help="e.g. epsilon:0.05 or top_p:0.95+top_k:10")
        p.add_argument("--prompt-file", default=None, help="one prompt per line; omitted = empty prompt")
        p.add_argument("--max-seq-len", type=int, default=512)
        p.add_argument("--workers", type=_positive_int, default=4,
                       help="worker pool size for multi-prompt runs")

    p = sub.add_parser("enumerate", help="distinct-leaf enumeration")
    add_model_args(p)
    p.add_argument("--policy", default="probfirst",
                   help="probfirst|divfirst|randbranch:SEED|globalprob|dfs")
    p.add_argument("--k", type=int, default=None, help="maximum number of leaves")
    p.add_argument("--token-budget", type=int, default=None, help="maximum generated tokens")
    p.add_argument("--early-stop-n", default="10", help="merge length n, or 'off'")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-tree", default=None, help="write the decoding tree as JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="i.i.d. sampling baseline")
    add_model_args(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare", help="enumeration vs sampling coverage and tokens")
    add_model_args(p)
    p.add_argument("--policy", default="probfirst")
    p.add_argument("--k", required=True, help="k range, e.g. 1..32 or 8")
    p.add_argument("--sample-seeds", type=_positive_int, default=10)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("coverage-curve", help="per-k coverage CSV")
    add_model_args(p)
    p.add_argument("--policy", default="probfirst")
    p.add_argument("--k-max", type=_positive_int, required=True)
    p.add_argument("--sample-seeds", type=_positive_int, default=10)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coverage_curve)

    p = sub.add_parser("cache-sim", help="prefix-cache replay over a leaves file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--capacity", default="inf", help="max cached tokens, or 'inf'")
    p.add_argument("--block", type=int, default=1, help="tokens per cache block")
    p.add_argument("--evict", default="none", choices=["none", "lru"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cache_sim)

    p = sub.add_parser("vote", help="majority vote over a leaves file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--extract", default="identity", help="identity | suffix:STR | regex:PAT")
    p.add_argument("--weighting", default="uniform", choices=["uniform", "prob"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("ngram-train", help="train an add-alpha n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tokenize", default="whitespace", choices=["char", "whitespace"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ngram_train)

    p = sub.add_parser("oracle", help="exhaustive enumeration (debugging)")
    add_model_args(p)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except DleError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
