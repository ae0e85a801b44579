"""The benchmark's workloads: generated inputs, CLI steps and output checks.

A workload is built once per run from the seed. One pass runs its steps in
order; each step is one `dle` CLI command (`dle.cli.main(argv)`) or, for
`repetition_rate`, one library call, and names the primary output file its
digest is taken from. Manifests are never digested because they echo the
temporary paths.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

WORKERS = "2"
TOL = 1e-6

SIZES = {
    "enum_frontier": {
        "full": {"vocab": 370, "lines": 400, "models": 4, "k": 300, "max_seq_len": 40},
        "tiny": {"vocab": 40, "lines": 40, "models": 2, "k": 20, "max_seq_len": 12},
    },
    "multi_prompt": {
        "full": {"vocab": 1750, "lines": 3000, "prompts": 128, "k_enum": 2,
                 "k_sample": 8, "max_seq_len": 32},
        "tiny": {"vocab": 60, "lines": 60, "prompts": 3, "k_enum": 5,
                 "k_sample": 20, "max_seq_len": 8},
    },
    "replay_compare": {
        "full": {"streams": 500, "length": 64, "prompt_len": 16,
                 "depth": 8, "branching": 3, "k": 256, "sample_seeds": 10},
        "tiny": {"streams": 30, "length": 16, "prompt_len": 4,
                 "depth": 3, "branching": 3, "k": 8, "sample_seeds": 2},
    },
}


@dataclass
class Step:
    """One command of a pass and the file its result is judged by."""

    name: str
    output: Path
    argv: list[str] | None = None
    call: Callable[[], int] | None = None
    check: Callable[[Path], str | None] = lambda path: None


@dataclass
class Workload:
    name: str
    model_specs: list[str]
    steps: list[Step]
    streams: int = 0            # streams each cache-sim step replays


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    """Rows of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_leaves(max_per_prompt: int) -> Callable[[Path], str | None]:
    """Leaves are distinct per prompt, at most k per prompt, Σq ≤ 1, and
    their count per prompt is the one the metrics file reports."""
    def check(path: Path) -> str | None:
        by_prompt: dict[int, list[dict]] = {}
        for row in read_rows(path):
            by_prompt.setdefault(row.get("prompt", 0), []).append(row)
        if not by_prompt:
            return "no leaves"
        reported = json.loads(Path(f"{path}.metrics.json").read_text(encoding="utf-8"))
        counts = {m["prompt"]: m["leaves"] for m in reported["prompts"]}
        if counts != {p: len(rows) for p, rows in by_prompt.items()}:
            return "leaf rows disagree with the metrics file"
        for prompt, rows in by_prompt.items():
            if len({tuple(r["tokens"]) for r in rows}) != len(rows):
                return f"duplicate leaves for prompt {prompt}"
            if len(rows) > max_per_prompt:
                return f"{len(rows)} leaves for prompt {prompt} > k={max_per_prompt}"
            if math.fsum(r["q"] for r in rows) > 1.0 + TOL:
                return f"leaf mass of prompt {prompt} exceeds 1"
        return None
    return check


def _check_samples(prompts: int, k: int) -> Callable[[Path], str | None]:
    def check(path: Path) -> str | None:
        rows = read_rows(path)
        if len(rows) != prompts * k:
            return f"{len(rows)} draws, expected {prompts * k}"
        if any(not 0.0 < r["q"] <= 1.0 + TOL for r in rows):
            return "draw mass outside (0, 1]"
        return None
    return check


def _check_cache(flat: int) -> Callable[[Path], str | None]:
    def check(path: Path) -> str | None:
        stats = json.loads(path.read_text(encoding="utf-8"))
        if not 0 <= stats["actual_hits"] <= stats["theoretical_hits"] <= stats["flat_length"]:
            return "cache accounting out of order"
        if stats["flat_length"] != flat:
            return f"flat length {stats['flat_length']} != {flat}"
        return None
    return check


def _check_compare(path: Path) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    cols = header.split(",")
    rows = [dict(zip(cols, map(float, line.split(",")))) for line in lines]
    if not rows:
        return "no compare rows"
    for key in ("coverage_dle", "expected_coverage_closed"):
        values = [r[key] for r in rows]
        if any(b < a - TOL for a, b in zip(values, values[1:])):
            return f"{key} decreases with k"
        if values[-1] > 1.0 + TOL:
            return f"{key} exceeds 1"
    return None


def _check_vote(path: Path) -> str | None:
    return None if json.loads(path.read_text(encoding="utf-8"))["winner"] else "no vote winner"


def _check_rate(path: Path) -> str | None:
    rate = json.loads(path.read_text(encoding="utf-8"))["repetition_rate"]
    return None if 0.0 <= rate <= 1.0 else f"repetition rate {rate} outside [0, 1]"


def enum_frontier(seed: int, size: dict, tmp: Path, out: Path, generate: bool) -> Workload:
    models = [tmp / f"ngram{i}.json" for i in range(size["models"])]
    if generate:
        from dle import cli

        for i, model_json in enumerate(models):
            corpus = tmp / f"corpus{i}.txt"
            corpus.write_text(inputs.zipf_corpus(seed * 1000 + i, size["vocab"], size["lines"],
                                                 4, 16), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["ngram-train", "--corpus", str(corpus), "--order", "3",
                                 "--alpha", "0.01", "--out", str(model_json)])
            if code != 0:
                raise RuntimeError("ngram-train failed on the generated corpus")
    specs = [f"ngram:{model_json}" for model_json in models]
    steps = []
    # One empty-prompt call per model, the policies alternating. Several
    # independent trees per pass keep the work close to equal across seeds.
    # A call with one prompt starts no thread pool, whatever --workers says.
    for i, spec in enumerate(specs):
        policy = "probfirst" if i % 2 == 0 else f"randbranch:{seed}"
        name = f"enumerate-{policy.split(':')[0]}-{i}"
        leaves = out / f"{name}.jsonl"
        steps.append(Step(
            name=name, output=leaves,
            argv=["enumerate", "--model", spec, "--rule", "top_p:0.5+top_k:4",
                  "--max-seq-len", str(size["max_seq_len"]), "--k", str(size["k"]),
                  "--policy", policy, "--workers", WORKERS, "--out", str(leaves)],
            check=_check_leaves(size["k"])))
    return Workload("enum_frontier", specs, steps)


def multi_prompt(seed: int, size: dict, tmp: Path, out: Path, generate: bool) -> Workload:
    corpus, prompts = tmp / "corpus.txt", tmp / "prompts.txt"
    if generate:
        text = inputs.zipf_corpus(seed, size["vocab"], size["lines"], 4, 16)
        corpus.write_text(text, encoding="utf-8")
        prompts.write_text(inputs.prompt_lines(seed, text, size["prompts"], 2),
                           encoding="utf-8")
    spec = f"ngram:{corpus}?order=3&alpha=0.01"
    common = ["--model", spec, "--rule", "min_p:0.2+top_k:8", "--prompt-file", str(prompts),
              "--max-seq-len", str(size["max_seq_len"]), "--workers", WORKERS]
    leaves, samples = out / "leaves.jsonl", out / "samples.jsonl"
    steps = [
        Step("enumerate", leaves, ["enumerate", *common, "--k", str(size["k_enum"]),
                                   "--out", str(leaves)],
             check=_check_leaves(size["k_enum"])),
        Step("sample", samples, ["sample", *common, "--k", str(size["k_sample"]),
                                 "--seed", str(seed), "--out", str(samples)],
             check=_check_samples(size["prompts"], size["k_sample"])),
    ]
    return Workload("multi_prompt", [spec], steps)


def replay_compare(seed: int, size: dict, tmp: Path, out: Path, generate: bool) -> Workload:
    """Model-free stream replay (cache-sim, repetition rate, vote), then
    compare on a table model."""
    from dle import metrics

    streams = tmp / "streams.jsonl"
    if generate:
        prompt, rows = inputs.branching_streams(seed, size["streams"], size["length"],
                                                size["prompt_len"], share=0.8, vocab=1000)
        inputs.write_jsonl(streams, rows)
        inputs.write_json(Path(f"{streams}.manifest.json"), {"prompt_tokens": [prompt]})
    rows = read_rows(streams)
    flat = size["prompt_len"] * len(rows) + sum(len(r["tokens"]) for r in rows)
    rate_out = out / "repetition.json"

    def repetition() -> int:
        # metrics.repetition_rate is looked up at call time, so the traced
        # pass sees its wrapper.
        generations = [r["tokens"] for r in read_rows(streams)]
        inputs.write_json(rate_out, {"repetition_rate": metrics.repetition_rate(generations)})
        return 0

    none_out, lru_out, vote_out = out / "cache-none.json", out / "cache-lru.json", out / "vote.json"
    steps = [
        Step("cache-sim-none", none_out,
             ["cache-sim", "--in", str(streams), "--evict", "none", "--capacity", "inf",
              "--block", "1", "--out", str(none_out)], check=_check_cache(flat)),
        Step("cache-sim-lru", lru_out,
             ["cache-sim", "--in", str(streams), "--evict", "lru", "--block", "4",
              "--capacity", str(flat // 4), "--out", str(lru_out)], check=_check_cache(flat)),
        Step("repetition-rate", rate_out, call=repetition, check=_check_rate),
        Step("vote", vote_out, ["vote", "--in", str(streams), "--weighting", "prob",
                                "--out", str(vote_out)], check=_check_vote),
    ]

    table = tmp / "table.json"
    if generate:
        inputs.write_json(table, inputs.table_model(seed, 24, size["branching"], size["depth"]))
    spec = f"table:{table}"
    csv_out = out / "compare.csv"
    steps.append(Step("compare", csv_out,
                      ["compare", "--model", spec, "--rule", "epsilon:0.005",
                       "--k", f"1..{size['k']}", "--sample-seeds", str(size["sample_seeds"]),
                       "--max-seq-len", str(size["depth"] + 2), "--out", str(csv_out)],
                      check=_check_compare))
    return Workload("replay_compare", [spec], steps, streams=len(rows))


WORKLOADS = {
    "enum_frontier": enum_frontier,
    "multi_prompt": multi_prompt,
    "replay_compare": replay_compare,
}


def build(name: str, seed: int, size: str, tmp: Path, out: Path,
          generate: bool = True) -> Workload:
    """Describe the workload's steps, first writing its inputs under tmp
    when `generate` is set; outputs go to out."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, SIZES[name][size], tmp, out, generate)


def _run_step(step: Step) -> int:
    from dle import cli

    try:
        return cli.main(step.argv) if step.argv is not None else step.call()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # A crash is a failed command: report it and go on with the pass.
        traceback.print_exc()
        return 1


def run_pass(wl: Workload) -> tuple[float, list[tuple[str, int, float]]]:
    """One pass over the workload's steps: (wall seconds, [(step, exit, seconds)]).

    Outputs of an earlier pass are removed first, so a step that writes
    nothing cannot pass on a stale file.
    """
    for step in wl.steps:
        step.output.unlink(missing_ok=True)
    steps = []
    start = time.perf_counter()
    for step in wl.steps:
        t0 = time.perf_counter()
        code = _run_step(step)
        steps.append((step.name, code, time.perf_counter() - t0))
    return time.perf_counter() - start, steps


def judge(wl: Workload, codes: list[tuple[str, int, float]],
          reference: dict[str, str] | None) -> tuple[dict[str, str], list[str]]:
    """Digest every step's output and list the steps that failed, with why."""
    digests, problems = {}, []
    for step, (name, code, _) in zip(wl.steps, codes):
        if code != 0:
            problems.append(f"{name}: exit code {code}")
            continue
        if not step.output.is_file():
            problems.append(f"{name}: no output {step.output.name}")
            continue
        digests[name] = sha256(step.output)
        if reference is not None and reference.get(name) != digests[name]:
            problems.append(f"{name}: output digest differs from the reference")
            continue
        why = step.check(step.output)
        if why:
            problems.append(f"{name}: {why}")
    return digests, problems


def yardstick_seconds() -> float:
    """Wall time of a fixed piece of work that never calls the program.

    Its mix follows a pass: nested-dict inserts (tree and cache-sim),
    JSON encode and decode (CLI input and output), small numpy sorts and
    sums (model and truncation). The host's speed swings over seconds to
    minutes; the ratio of the median pass to the median yardstick of a run
    mostly loses them.
    """
    def work() -> None:
        rng = random.Random(7)
        trie: dict = {}
        for _ in range(3000):
            node = trie
            for _ in range(40):
                node = node.setdefault(rng.randrange(40), {})
        rows = [json.dumps({"tokens": list(range(i, i + 64)), "q": i / 7}) for i in range(2000)]
        [json.loads(row) for row in rows]
        values = np.arange(5000.0)
        for _ in range(300):
            np.argsort(values[::-1])
            np.cumsum(values)

    gc.collect()
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def timed_passes(wl, reference, seconds: float, tally: dict,
                 on_pass=None) -> tuple[list, list[float]]:
    """Repeat passes for `seconds` (at least three); check each one after timing it.

    Returns the passes as (wall seconds, step codes) and the times of the
    yardsticks run before the first pass and after each. Time spent in
    `on_pass` extends the deadline.
    """
    results = []
    yardsticks = [yardstick_seconds()]
    deadline = time.perf_counter() + seconds
    while len(results) < 3 or time.perf_counter() < deadline:
        gc.collect()
        wall, codes = run_pass(wl)
        yardsticks.append(yardstick_seconds())
        if on_pass is not None:
            t0 = time.perf_counter()
            on_pass()
            deadline += time.perf_counter() - t0
        _, problems = judge(wl, codes, reference)
        tally["attempted"] += len(codes)
        tally["failed"] += len({p.split(":")[0] for p in problems})
        tally["problems"].extend(problems)
        results.append((wall, codes))
    return results, yardsticks
