"""Seeded, offline input generation for the end-to-end benchmark.

Every generator draws from `random.Random` keyed on (seed, name), so the
same seed writes byte-identical files on any platform. Sizes are fixed per
workload rather than drawn, which keeps the amount of work close to equal
across seeds: only which words, branches and masses appear changes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r ** s) for r in range(1, n + 1)))


def _draw(rng: random.Random, cum: list[float]) -> int:
    return min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)


def zipf_corpus(seed: int, vocab: int, lines: int, min_len: int, max_len: int) -> str:
    """Word corpus with Markov structure and Zipf-distributed successors.

    Each word ranks its successors by one shared random permutation rotated
    by a per-word offset; the next word is drawn by Zipf rank from the
    previous word's ranking. Every word appears at least once, so the
    trained vocabulary has exactly `vocab` words.
    """
    rng = _rng(seed, "corpus")
    words = [f"w{i}" for i in range(vocab)]
    cum = _zipf_cum(vocab, 1.1)
    ranking = list(range(vocab))
    rng.shuffle(ranking)
    offsets = [rng.randrange(vocab) for _ in range(vocab)]
    out = [" ".join(words[i:i + 8]) for i in range(0, vocab, 8)]
    for _ in range(lines):
        length = rng.randint(min_len, max_len)
        word = ranking[_draw(rng, cum)]
        line = [word]
        for _ in range(length - 1):
            word = (ranking[_draw(rng, cum)] + offsets[word]) % vocab
            line.append(word)
        out.append(" ".join(words[w] for w in line))
    return "\n".join(out) + "\n"


def prompt_lines(seed: int, corpus: str, count: int, words: int) -> str:
    """`count` prompts, each the first `words` words of a random corpus line."""
    rng = _rng(seed, "prompts")
    lines = [line.split() for line in corpus.splitlines() if len(line.split()) >= words]
    return "\n".join(" ".join(rng.choice(lines)[:words]) for _ in range(count)) + "\n"


def table_model(seed: int, vocab: int, branching: int, depth: int) -> dict:
    """Full `branching`-ary table model whose eos mass rises with depth.

    Every node at generated depth d < depth has `branching` word children
    and, from d >= 1, an eos child with mass d / depth; nodes at `depth`
    emit eos only. Step weights stay above 0.01, so an `epsilon:0.005`
    rule keeps the whole tree and the leaf count is fixed by the shape.
    """
    rng = _rng(seed, "table")
    tokens = [f"t{i}" for i in range(vocab)]
    transitions: dict[str, dict[str, float]] = {}
    level = [""]
    for d in range(depth + 1):
        nxt = []
        for ctx in level:
            if d == depth:
                transitions[ctx] = {"<eos>": 1.0}
                continue
            eos = d / depth
            raw = [rng.uniform(0.2, 1.0) for _ in range(branching)]
            scale = (1.0 - eos) / sum(raw)
            children = rng.sample(tokens, branching)
            step = {tok: w * scale for tok, w in zip(children, raw)}
            if eos:
                step["<eos>"] = eos
            transitions[ctx] = step
            nxt.extend(f"{ctx} {tok}".strip() for tok in children)
        level = nxt
    return {"vocab": tokens + ["<eos>"], "eos": "<eos>", "transitions": transitions}


def branching_streams(seed: int, count: int, length: int, prompt_len: int,
                      share: float, vocab: int) -> tuple[list[int], list[dict]]:
    """Synthetic leaf rows behind one shared prompt.

    A `share` of the streams copy a random earlier stream up to a random cut
    and continue with fresh tokens; the rest are fresh throughout. Rows
    carry the fields `cache-sim` and `vote` read: tokens, text and q.
    """
    rng = _rng(seed, "streams")
    prompt = [rng.randrange(vocab) for _ in range(prompt_len)]
    streams: list[list[int]] = []
    for _ in range(count):
        if streams and rng.random() < share:
            base = rng.choice(streams)
            cut = rng.randrange(1, length)
            tokens = base[:cut] + [rng.randrange(vocab) for _ in range(length - cut)]
        else:
            tokens = [rng.randrange(vocab) for _ in range(length)]
        streams.append(tokens)
    weights = [rng.random() for _ in range(count)]
    total = sum(weights)
    rows = [{"tokens": tokens, "text": " ".join(f"a{t % 7}" for t in tokens[-2:]),
             "q": w / total, "order": i}
            for i, (tokens, w) in enumerate(zip(streams, weights))]
    return prompt, rows


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")
