"""Brute-force ground truth: every leaf of the pruned tree.

It is the `oracle` command's output and the source of `compare`'s leaf
masses. The walk is intentionally naive — exhaustive depth-first traversal,
plain float products — so it cannot share bugs with the optimized
enumeration engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .tree import DEFAULT_MAX_SEQ_LEN
from .truncation import TruncationRule, active_set

MAX_CAPPED_TOKENS = 2 ** 18  # leaf tokens a walk may hold once it has found a length-capped leaf


@dataclass(frozen=True)
class OracleLeafSet:
    leaves: tuple[tuple[tuple[int, ...], float], ...]  # (tokens, mass) in discovery order
    total_mass: float
    node_count: int

    def masses(self) -> list[float]:
        return [q for _, q in self.leaves]


def enumerate_all_leaves(model, rule: TruncationRule, prompt: Sequence[int] = (),
                         max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> OracleLeafSet:
    """Exhaustive depth-first traversal of every active-set child. As in the
    engine, a path ends at eos or at `max_seq_len` tokens. Once the walk has a
    capped leaf, leaves holding over MAX_CAPPED_TOKENS tokens raise ConfigError.

    The walk uses an explicit stack rather than a self-referencing closure,
    so no reference cycle keeps the leaf list alive after the call. Children
    are pushed in reverse, so leaves come out in depth-first discovery order.
    """
    prompt = tuple(prompt)
    eos_id = model.vocab.eos_id
    leaves: list[tuple[tuple[int, ...], float]] = []
    node_count = held = 0
    capped = False
    stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    while stack:
        generated, mass = stack.pop()
        ended = generated and generated[-1] == eos_id
        if ended or len(generated) >= max_seq_len:
            leaves.append((generated, mass))
            held += len(generated)
            capped = capped or not ended
            if capped and held > MAX_CAPPED_TOKENS:
                raise ConfigError(f"oracle walk past {MAX_CAPPED_TOKENS} leaf tokens with paths "
                                  f"cut at --max-seq-len {max_seq_len}: lower it or narrow --rule")
            continue
        node_count += 1
        active = active_set(model.next_distribution(prompt, generated), rule)
        stack.extend(reversed([(generated + (token,), mass * weight)
                               for token, weight in zip(active.token_ids, active.weights)]))
    total = 0.0
    for _, q in leaves:
        total += q
    return OracleLeafSet(leaves=tuple(leaves), total_mass=total, node_count=node_count)
