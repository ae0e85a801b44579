"""Arena-allocated pruned decoding tree.

Nodes share prefixes by construction; a leaf's token sequence is
materialized lazily by walking parent links. Path mass accumulates in log
space to survive long sequences and is only exponentiated at reporting
boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ExpandingExpandedNode
from .truncation import ActiveSet

UNEXPANDED = "unexpanded"
EXPANDED = "expanded"
LEAF = "leaf"
PRUNED_EARLY_STOP = "pruned-early-stop"
FAILED = "failed"

STOP_EOS = "eos"
STOP_LENGTH_CAP = "length-cap"
STOP_EARLY = "early-stop"


@dataclass(slots=True)
class TreeNode:
    id: int
    parent: int | None
    token: int | None            # incoming token id; None for the root
    edge_weight: float           # renormalized step weight, or exactly 1.0 when forced
    log_mass: float              # log of the path probability from the root
    status: str = UNEXPANDED
    children: list[int] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class BranchPoint:
    """An unexplored alternative child recorded during a rollout."""

    node_id: int
    position: int                # index of the alternative token in the generated sequence
    token_id: int
    log_mass: float
    edge_weight: float
    discovered: int              # monotonically increasing counter; final tie-breaker

    @property
    def mass(self) -> float:
        return math.exp(self.log_mass)


@dataclass(frozen=True)
class Leaf:
    """A terminated sequence with its probability mass and token accounting."""

    tokens: tuple[int, ...]      # generated tokens, end-of-sequence included when present
    q: float
    log_q: float
    stop_reason: str             # eos | length-cap
    new_tokens: int              # tokens generated fresh by this leaf's rollout
    reused_prefix_len: int       # prompt plus inherited generated prefix
    order: int                   # generation order index
    node_id: int = -1


class PrunedTree:
    """One decoding tree per prompt, mutated by exactly one worker."""

    def __init__(self):
        self.nodes: list[TreeNode] = [TreeNode(id=0, parent=None, token=None,
                                               edge_weight=1.0, log_mass=0.0)]

    @property
    def root(self) -> int:
        return 0

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def add_child(self, parent_id: int, token: int, edge_weight: float) -> int:
        parent = self.nodes[parent_id]
        child = TreeNode(
            id=len(self.nodes),
            parent=parent_id,
            token=token,
            edge_weight=edge_weight,
            log_mass=parent.log_mass + math.log(edge_weight),
        )
        self.nodes.append(child)
        parent.children.append(child.id)
        return child.id

    def expand_node(self, node_id: int, active: ActiveSet) -> list[int]:
        """Create children for the active set.

        Two or more survivors branch with their renormalized weights; a
        single survivor becomes one forced child with edge weight exactly
        1.0, leaving the path mass unchanged. Children come back in the
        active set's canonical order (weight descending, id ascending), so
        the first child is the greedy continuation.
        """
        node = self.nodes[node_id]
        if node.status != UNEXPANDED:
            raise ExpandingExpandedNode(f"node {node_id} has status {node.status!r}")
        if len(active) <= 1:
            children = [self.add_child(node_id, int(active.token_ids[0]), 1.0)]
        else:
            children = [
                self.add_child(node_id, int(tok), float(w))
                for tok, w in zip(active.token_ids, active.weights)
            ]
        node.status = EXPANDED
        return children

    def path_tokens(self, node_id: int) -> tuple[int, ...]:
        """Generated tokens from the root to node_id, inclusive."""
        out: list[int] = []
        node = self.nodes[node_id]
        while node.parent is not None:
            out.append(node.token)
            node = self.nodes[node.parent]
        return tuple(reversed(out))

    def depth(self, node_id: int) -> int:
        depth = 0
        node = self.nodes[node_id]
        while node.parent is not None:
            depth += 1
            node = self.nodes[node.parent]
        return depth

    def mark_path(self, node_id: int, stop_node_id: int, status: str) -> None:
        """Set status on nodes from node_id up to stop_node_id, inclusive."""
        node = self.nodes[node_id]
        while True:
            node.status = status
            if node.id == stop_node_id or node.parent is None:
                break
            node = self.nodes[node.parent]

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "parent": n.parent,
                    "token": n.token,
                    "edge_weight": n.edge_weight,
                    "log_mass": n.log_mass,
                    "status": n.status,
                }
                for n in self.nodes
            ]
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def flatten(prompt: Sequence[int], leaves: Sequence[Leaf]) -> list[tuple[int, ...]]:
    """One token stream per leaf: prompt followed by the generated tokens."""
    prompt = tuple(prompt)
    return [prompt + leaf.tokens for leaf in leaves]


def flat_length(streams: Sequence[Sequence[int]]) -> int:
    return sum(len(s) for s in streams)
