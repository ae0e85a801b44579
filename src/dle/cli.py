"""Command-line entry point.

Commands: enumerate, sample, compare (the per-k coverage curve), cache-sim,
vote, ngram-train, oracle. Exit codes: 0 ok, 2 configuration error (an input
file that cannot be read or is not UTF-8 is one), 3 model or transport
error, 4 internal invariant violation.

Deterministic runs are byte-reproducible: output rows carry no timestamps,
JSON keys are sorted, and every random component draws from a named
substream of the run seed. Each run writes a manifest echoing the full
configuration next to its primary output.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import operator
import sys
from array import array
from pathlib import Path

import numpy as np

from . import __version__
from .aggregate import majority_vote, parse_extractor
from .baseline import sample_sequences
from .cache_sim import PrefixCache, simulate
from .engine import (Budget, BranchPolicy, EarlyStopConfig, EnumerationResult,
                     enumerate_leaves)
from .errors import ConfigError, DleError, InvariantViolation, ModelError
from .metrics import (check_coverage, compensated_prefix_sums, coverage, coverage_curve,
                      expected_coverage_closed_form, population_std)
from .model import parse_model_spec, read_input, train_ngram_model
from .oracle import enumerate_all_leaves
from .tree import DEFAULT_MAX_SEQ_LEN, STOP_EOS, STOP_LENGTH_CAP
from .truncation import parse_rule


def _read_prompts(path: str | None, model) -> list[tuple[int, ...]]:
    """Token ids of each non-blank line of the prompt file; one empty prompt
    when there is no file or it holds only blank lines."""
    if path is None:
        return [()]
    lines = [line for line in read_input(path, "prompt file").split("\n") if line.strip()] or [""]
    return [model.encode_prompt(line) for line in lines]


def _single_prompt(args, model) -> tuple[int, ...]:
    """The prompt of a command that runs one prompt; a file with more is an error."""
    prompts = _read_prompts(args.prompt_file, model)
    if len(prompts) > 1:
        raise ConfigError(f"{args.command} supports single-prompt runs only")
    return prompts[0]


def _parse_k_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        start = _count(lo)
        stop = _count(hi) if sep else start
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad k range {text!r}: {exc}") from None
    if stop < start:
        raise ConfigError(f"bad k range {text!r}")
    try:  # within sys.maxsize, yet maybe past any address space at 8 bytes a slot
        return list(range(start, stop + 1))
    except MemoryError:
        raise ConfigError(f"--k: k range {start}..{stop} is too long to hold") from None


def _count(text: str, minimum: int = 1) -> int:
    """An integer argument from minimum to sys.maxsize: a count above that
    cannot index or size a list."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be <= {sys.maxsize}, got {value}")
    return value


def _capacity(text: str) -> int | None:
    """Cache capacity in tokens: 'inf' (unbounded, None) or an integer >= 0."""
    return None if text == "inf" else _count(text, minimum=0)


def _early_stop_n(text: str) -> str:
    """Early-stop merge length: 'off' or an integer >= 1, kept as given for
    the manifest."""
    if text != "off":
        _count(text)
    return text


def _temperature(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return value


def _open_out(path: Path, **kwargs):
    """Open an output file for writing, creating its directory; a path that
    cannot be created or written is a configuration error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_json(out: str | None, payload: dict) -> None:
    """Write the payload to `out`, or print it when no output file is given."""
    if out:
        _write_json(Path(out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _write_manifest(out: Path, args, extras: dict | None = None) -> None:
    # The config is every parsed option but the command and its handler, the
    # output paths and the ignored --workers.
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "out", "dump_tree", "workers")}
    manifest = {
        "command": args.command,
        "config": config,
        "versions": {"dle": __version__, "python": sys.version.split()[0]},
    }
    if extras:
        manifest.update(extras)
    _write_json(Path(str(out) + ".manifest.json"), manifest)


def _leaf_row(model, leaf, order: int) -> dict:
    return {
        "tokens": list(leaf.tokens),
        "text": model.decode(leaf.tokens),
        "q": leaf.q,
        "log_q": leaf.log_q,
        "new_tokens": leaf.new_tokens,
        "reused_prefix": leaf.reused_prefix_len,
        "stop_reason": leaf.stop_reason,
        "order": order,
    }


def _write_jsonl(path: Path, rows) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
    with _open_out(path) as fh:
        for row in rows:
            fh.write(encode(row))
            fh.write("\n")


def _read_jsonl(path: str) -> list[tuple[int, dict]]:
    """(line number, row) for each non-blank line of a JSONL file; a line
    that is not JSON is a configuration error naming it."""
    rows = []
    for lineno, line in enumerate(read_input(path, "leaves file").split("\n"), 1):
        if line.strip():
            try:
                rows.append((lineno, json.loads(line)))
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: not JSON: {exc}") from None
    return rows


def _column(path: str, rows: list[tuple[int, dict]], key: str, convert,
            default=None) -> list:
    """`convert(row[key])` for each row of `_read_jsonl(path)`, with `default`
    standing in for a missing key when it is given. A row that is not an
    object, lacks a key that has no default or holds a value `convert`
    rejects is a configuration error naming the file, the line and the key."""
    values = []
    for lineno, row in rows:
        if not isinstance(row, dict) or (key not in row and default is None):
            raise ConfigError(f"{path} line {lineno}: missing key {key!r}")
        value = row.get(key, default)
        try:
            values.append(convert(value))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path} line {lineno}: bad {key!r} value {value!r}") from None
    return values


def _tokens(value) -> tuple:
    """A token sequence: an array of hashable tokens."""
    if not isinstance(value, list):
        raise TypeError(value)
    tokens = tuple(value)
    hash(tokens)  # a TypeError for a nested array
    return tokens


def _mass(value) -> float:
    """A probability mass: a JSON number, finite and >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    q = float(value)
    if not 0.0 <= q < math.inf:  # also false for NaN
        raise ValueError(q)
    return q


def _index(value) -> int:
    """A prompt index: a JSON integer."""
    if isinstance(value, bool):
        raise TypeError(value)
    return operator.index(value)


def _manifest_prompts(infile: str) -> dict[int, tuple]:
    """Prompt index -> prompt tokens, from the `prompt_tokens` list of the
    manifest next to `infile`; empty when there is no manifest."""
    path = infile + ".manifest.json"
    if not Path(path).exists():
        return {}
    manifest = read_input(path, "manifest", json.loads)
    prompts = manifest.get("prompt_tokens", []) if isinstance(manifest, dict) else None
    malformed = ConfigError(f"{path}: 'prompt_tokens' must be an array of token arrays")
    if not isinstance(prompts, list):
        raise malformed
    try:
        return dict(enumerate(map(_tokens, prompts)))
    except TypeError:
        raise malformed from None


def _run_prompts(args, prompt_ids: list[tuple[int, ...]], run_one, rows_of) -> tuple[list, bool]:
    """Run `run_one(prompt_ids, steps)` on every prompt, then write the rows
    and the manifest. Prompts run in input order and share one step memo, so
    a context seen under any prompt is computed once.
    `rows_of(prompt_ids, result)` turns one result into output rows;
    multi-prompt rows also carry the prompt's index. Returns the results and
    whether any of them is degraded."""
    steps: dict = {}
    results = [run_one(ids, steps) for ids in prompt_ids]

    def rows():  # a generator, so one prompt's rows are held at a time
        for idx, (ids, result) in enumerate(zip(prompt_ids, results)):
            for row in rows_of(ids, result):
                if len(prompt_ids) > 1:
                    row["prompt"] = idx
                yield row

    degraded = any(result.degraded for result in results)
    out = Path(args.out)
    _write_jsonl(out, rows())
    _write_manifest(out, args, extras={
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
    early_stop = None if args.early_stop_n == "off" else EarlyStopConfig(int(args.early_stop_n))
    prompt_ids = _read_prompts(args.prompt_file, model)
    if args.dump_tree is not None and len(prompt_ids) > 1:
        raise ConfigError("--dump-tree supports single-prompt runs only")

    def run_one(prompt_ids, steps) -> EnumerationResult:
        return enumerate_leaves(model, rule, prompt_ids, policy, budget, early_stop,
                                keep_tree=args.dump_tree is not None, steps=steps)

    results, degraded = _run_prompts(args, prompt_ids, run_one, lambda _, result: [
        _leaf_row(model, leaf, order) for order, leaf in enumerate(result.leaves)])
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
            "model_calls": result.stats.generated_tokens,
            "early_stop_triggers": result.stats.early_stop_triggers,
        },
    } for idx, result in enumerate(results)]
    _write_json(Path(f"{Path(args.out)}.metrics.json"), {"prompts": metrics})
    if args.dump_tree is not None:
        _write_json(Path(args.dump_tree), results[0].tree.to_dict())
    return _degraded_exit(degraded, "partial results (model errors); outputs marked degraded")


def cmd_sample(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    prompts = _read_prompts(args.prompt_file, model)
    # Draw d of every prompt reads the same stream, so the prompts share its
    # uniforms, kept as doubles, as they share the step memo. One prompt reads
    # each stream once, and storing them would only cost memory.
    streams = [array("d") for _ in range(args.k)] if len(prompts) > 1 else None

    def run_one(prompt_ids, steps):
        return sample_sequences(model, rule, prompt_ids, args.k, args.seed, args.temperature,
                                args.max_seq_len, steps, streams)

    def rows_of(prompt_ids, run) -> list[dict]:
        return [{
            "tokens": list(tokens),
            "text": model.decode(tokens),
            "q": q,
            "log_q": float("-inf") if q == 0.0 else math.log(q),
            "new_tokens": len(tokens),
            "reused_prefix": len(prompt_ids),
            "stop_reason": STOP_EOS if tokens[-1:] == (model.vocab.eos_id,) else STOP_LENGTH_CAP,
            "order": draw,
            "draw": draw,
        } for draw, (tokens, q) in enumerate(run.sequences)]

    _, degraded = _run_prompts(args, prompts, run_one, rows_of)
    return _degraded_exit(degraded, "degraded sample run (model errors)")


def _sampled_curve(run, ks) -> tuple[list[float], list[int]]:
    """Unique-set coverage and drawn tokens of the first k draws, for each k,
    from one pass: coverage at k is the compensated prefix sum of the masses
    first seen in those draws, the same floats as summing their unique set."""
    seen: set[tuple[int, ...]] = set()
    first_masses: list[float] = []
    unique_counts = [0]
    tokens = [0]
    for seq, q in run.sequences:
        if seq not in seen:
            seen.add(seq)
            first_masses.append(q)
        unique_counts.append(len(first_masses))
        tokens.append(tokens[-1] + len(seq))
    prefix = [0.0] + compensated_prefix_sums(first_masses).tolist()
    heads = [min(k, len(run.sequences)) for k in ks]
    covs = [check_coverage(prefix[unique_counts[h]]) for h in heads]
    return covs, [tokens[h] for h in heads]


def _compare_rows(model, rule, prompt_ids, ks, policy, seeds, max_seq_len) -> list[dict]:
    oracle_set = enumerate_all_leaves(model, rule, prompt_ids, max_seq_len)
    masses = np.asarray(oracle_set.masses(), dtype=np.float64)
    max_k = max(ks)

    result = enumerate_leaves(model, rule, prompt_ids, policy,
                              Budget(max_leaves=max_k, max_seq_len=max_seq_len))
    dle_curve = coverage_curve([(lf.tokens, lf.q) for lf in result.leaves])
    dle_tokens = list(itertools.accumulate(leaf.new_tokens for leaf in result.leaves))

    steps: dict = {}  # the seeds share model and rule, so one step memo
    sampled = [_sampled_curve(sample_sequences(model, rule, prompt_ids, max_k, seed,
                                               max_seq_len=max_seq_len, steps=steps), ks)
               for seed in range(seeds)]
    closed = expected_coverage_closed_form(masses, ks)

    rows = []
    for i, k in enumerate(ks):
        idx = min(k, len(dle_curve)) - 1
        covs = [cov[i] for cov, _ in sampled]
        rows.append({
            "k": k,
            "coverage_dle": dle_curve[idx] if dle_curve else 0.0,
            "expected_coverage_closed": closed[i],
            "coverage_sampled_mean": math.fsum(covs) / seeds,
            "coverage_sampled_std": population_std(covs),
            "dle_new_tokens": dle_tokens[idx] if dle_tokens else 0,
            "sampled_new_tokens": math.fsum(tok[i] for _, tok in sampled) / seeds,
        })
    return rows


def _write_csv(path: Path, rows: list[dict]) -> None:
    with _open_out(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_compare(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    policy = BranchPolicy.parse(args.policy)
    prompt_ids = _single_prompt(args, model)
    rows = _compare_rows(model, rule, prompt_ids, _parse_k_range(args.k), policy,
                         args.sample_seeds, args.max_seq_len)
    out = Path(args.out)
    _write_csv(out, rows)
    _write_manifest(out, args)
    return 0


def cmd_cache_sim(args) -> int:
    rows = _read_jsonl(args.infile)
    tokens = _column(args.infile, rows, "tokens", _tokens)
    prompt_of = _column(args.infile, rows, "prompt", _index, default=0)
    prompts = _manifest_prompts(args.infile)
    streams = [prompts.get(idx, ()) + generated for idx, generated in zip(prompt_of, tokens)]
    if not streams:
        raise ConfigError(f"no sequences found in {args.infile}")

    cache = PrefixCache(block_size=args.block, capacity=args.capacity, eviction=args.evict)
    _emit_json(args.out, simulate(streams, cache).to_dict())
    return 0


def cmd_vote(args) -> int:
    rows = _read_jsonl(args.infile)
    if not rows:
        raise ConfigError(f"no sequences found in {args.infile}")
    extractor = parse_extractor(args.extract)
    texts = _column(args.infile, rows, "text", str.__str__)  # a TypeError for a non-string
    masses = _column(args.infile, rows, "q", _mass)
    result = majority_vote([(extractor(text), q) for text, q in zip(texts, masses)],
                           weighting=args.weighting)
    _emit_json(args.out, {
        "winner": result.winner,
        "weights": result.weights,
        "total_mass": result.total_mass,
        "weighting": args.weighting,
    })
    return 0


def cmd_ngram_train(args) -> int:
    model = train_ngram_model(read_input(args.corpus, "corpus"), order=args.order,
                              alpha=args.alpha, tokenization=args.tokenize)
    _write_json(Path(args.out), model.to_dict())
    print(f"trained order-{args.order} model over {model.vocab.size} tokens -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    model = parse_model_spec(args.model)
    rule = parse_rule(args.rule)
    prompt_ids = _single_prompt(args, model)
    oracle_set = enumerate_all_leaves(model, rule, prompt_ids, args.max_seq_len)
    _emit_json(args.out, {
        "leaves": [{"tokens": list(tokens), "text": model.decode(tokens), "q": q}
                   for tokens, q in oracle_set.leaves],
        "total_mass": oracle_set.total_mass,
        "node_count": oracle_set.node_count,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", required=True, help="table:PATH | ngram:PATH[?opts] | remote[:opts]")
        p.add_argument("--rule", required=True, help="e.g. epsilon:0.05 or top_p:0.95+top_k:10")
        p.add_argument("--prompt-file", default=None, help="one prompt per line; omitted = empty prompt")
        p.add_argument("--max-seq-len", type=_count, default=DEFAULT_MAX_SEQ_LEN)
        p.add_argument("--workers", type=_count, default=4,
                       help="ignored: prompts run in sequence")

    p = sub.add_parser("enumerate", help="distinct-leaf enumeration")
    add_model_args(p)
    p.add_argument("--policy", default="probfirst",
                   help="probfirst|divfirst|randbranch:SEED|globalprob|dfs")
    p.add_argument("--k", type=_count, default=None,
                   help=f"maximum number of leaves, <= {sys.maxsize}")
    p.add_argument("--token-budget", type=_count, default=None,
                   help=f"maximum generated tokens, <= {sys.maxsize}")
    p.add_argument("--early-stop-n", type=_early_stop_n, default="10",
                   help="merge length n, or 'off'")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-tree", default=None, help="write the decoding tree as JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="i.i.d. sampling baseline")
    add_model_args(p)
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=_temperature, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare", help="per-k coverage and tokens, enumeration vs sampling")
    add_model_args(p)
    p.add_argument("--policy", default="probfirst")
    p.add_argument("--k", required=True, help=f"k range, e.g. 1..32 or 8; ends <= {sys.maxsize}")
    p.add_argument("--sample-seeds", type=_count, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cache-sim", help="prefix-cache replay over a leaves file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--capacity", type=_capacity, default="inf",
                   help="max cached tokens, or 'inf'")
    p.add_argument("--block", type=_count, default=1,
                   help=f"tokens per cache block, <= {sys.maxsize}")
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
    p.add_argument("--order", type=_count, default=2, help=f"n-gram order, <= {sys.maxsize}")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tokenize", default="whitespace", choices=["char", "whitespace"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ngram_train)

    p = sub.add_parser("oracle", help="exhaustive enumeration (debugging)")
    add_model_args(p)
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
