"""Brute-force ground truth: every leaf of the pruned tree.

It is the `oracle` command's output and the source of `compare`'s leaf
masses. The walk is intentionally naive — exhaustive depth-first traversal,
plain float products — so it cannot share bugs with the optimized
enumeration engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DepthExceeded
from .tree import DEFAULT_MAX_SEQ_LEN
from .truncation import TruncationRule, active_set


@dataclass(frozen=True)
class OracleLeafSet:
    leaves: tuple[tuple[tuple[int, ...], float], ...]  # (tokens, mass) in discovery order
    total_mass: float
    node_count: int

    def masses(self) -> list[float]:
        return [q for _, q in self.leaves]


def enumerate_all_leaves(model, rule: TruncationRule, prompt: Sequence[int] = (),
                         max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> OracleLeafSet:
    """Exhaustive depth-first traversal of every active-set child, down to the
    paths that end in eos; a path that reaches `max_seq_len` tokens first raises DepthExceeded.

    The walk uses an explicit stack rather than a self-referencing closure,
    so no reference cycle keeps the leaf list alive after the call. Children
    are pushed in reverse, so leaves come out in depth-first discovery order.
    """
    prompt = tuple(prompt)
    eos_id = model.vocab.eos_id
    leaves: list[tuple[tuple[int, ...], float]] = []
    node_count = 0
    stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    while stack:
        generated, mass = stack.pop()
        if generated and generated[-1] == eos_id:
            leaves.append((generated, mass))
            continue
        node_count += 1
        if len(generated) >= max_seq_len:
            raise DepthExceeded(f"path {generated!r} reached the length cap {max_seq_len} "
                                "without eos (--max-seq-len)")
        active = active_set(model.next_distribution(prompt, generated), rule)
        stack.extend(reversed([(generated + (token,), mass * weight)
                               for token, weight in zip(active.token_ids, active.weights)]))
    total = 0.0
    for _, q in leaves:
        total += q
    return OracleLeafSet(leaves=tuple(leaves), total_mass=total, node_count=node_count)
