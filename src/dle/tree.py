"""The pruned decoding tree, stored as parallel lists indexed by node id.

Node 0 is the root. A node's parent, incoming token, edge weight, path log
mass, depth and status sit at its id in the lists of those names; the
children of a node are created together, so an expanded node records them
as one range of consecutive ids. Nodes share prefixes by construction; a
leaf's token sequence is materialized lazily by walking parent links. Path
mass accumulates in log space to survive long sequences and is only
exponentiated at reporting boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExpandingExpandedNode
from .truncation import ActiveSet

UNEXPANDED = "unexpanded"
EXPANDED = "expanded"
LEAF = "leaf"
PRUNED_EARLY_STOP = "pruned-early-stop"
FAILED = "failed"

STOP_EOS = "eos"
STOP_LENGTH_CAP = "length-cap"
DEFAULT_MAX_SEQ_LEN = 512  # generated tokens before a path is cut


@dataclass(frozen=True)
class Leaf:
    """A terminated sequence with its probability mass and token accounting."""

    tokens: tuple[int, ...]      # generated tokens, end-of-sequence included when present
    q: float
    log_q: float
    stop_reason: str             # eos | length-cap
    new_tokens: int              # tokens generated fresh by this leaf's rollout
    reused_prefix_len: int       # prompt plus inherited generated prefix
    node_id: int = -1


class PrunedTree:
    """One decoding tree per prompt, mutated by exactly one worker.

    The lists are changed in place and never rebound, so a reader may keep them.
    """

    __slots__ = ("parent", "token", "edge_weight", "log_mass", "depth", "status", "children")
    root = 0

    def __init__(self):
        self.parent: list[int | None] = [None]
        self.token: list[int | None] = [None]   # incoming token id; None for the root
        self.edge_weight = [1.0]                # renormalized step weight; exactly 1.0 when forced
        self.log_mass = [0.0]                   # log of the path probability from the root
        self.depth = [0]                        # generated tokens from the root to the node
        self.status = [UNEXPANDED]
        self.children: dict[int, range] = {}    # expanded node id -> its children's ids

    def expand_node(self, node_id: int, active: ActiveSet) -> range:
        """Create children for the active set and return their ids.

        Two or more survivors branch with their renormalized weights; a
        single survivor becomes one forced child with edge weight exactly
        1.0, leaving the path mass unchanged. Children come in the active
        set's canonical order (weight descending, id ascending), so the first
        child is the greedy continuation. Ids are handed out in that order,
        so across rollouts they number the children in the order they were
        discovered.
        """
        status = self.status
        if status[node_id] != UNEXPANDED:
            raise ExpandingExpandedNode(f"node {node_id} has status {status[node_id]!r}")
        first, size = len(status), len(active.token_ids)
        self.parent.extend([node_id] * size)
        self.token.extend(active.token_ids)
        self.edge_weight.extend(active.weights)
        self.log_mass.extend(map(self.log_mass[node_id].__add__, active.log_weights))
        self.depth.extend([self.depth[node_id] + 1] * size)
        status.extend([UNEXPANDED] * size)
        status[node_id] = EXPANDED
        children = self.children[node_id] = range(first, first + size)
        return children

    def path_tokens(self, node_id: int) -> tuple[int, ...]:
        """Generated tokens from the root to node_id, inclusive."""
        parent, token = self.parent, self.token
        out: list[int] = []
        while node_id != self.root:
            out.append(token[node_id])
            node_id = parent[node_id]
        out.reverse()
        return tuple(out)

    def mark_path(self, node_id: int, stop_node_id: int, status: str) -> None:
        """Set status on nodes from node_id up to stop_node_id, inclusive."""
        while True:
            self.status[node_id] = status
            if node_id == stop_node_id or node_id == self.root:
                break
            node_id = self.parent[node_id]

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"id": i, "parent": parent, "token": token, "edge_weight": weight,
                 "log_mass": log_mass, "status": status}
                for i, (parent, token, weight, log_mass, status) in enumerate(zip(
                    self.parent, self.token, self.edge_weight, self.log_mass, self.status))
            ]
        }
