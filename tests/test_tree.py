import json
import math
import random

import pytest

from dle.errors import ExpandingExpandedNode
from dle.tree import LEAF, PrunedTree
from dle.truncation import ActiveSet


def make_active(pairs):
    ids = tuple(t for t, _ in pairs)
    weights = tuple(w for _, w in pairs)
    return ActiveSet(token_ids=ids, weights=weights, log_weights=tuple(map(math.log, weights)),
                     raw_mass=math.fsum(weights))


def extend_path(tree, node_id, token, edge_weight):
    """Expand node_id with `token` at edge_weight and a second, filler
    child (token 99); return the id of the `token` child."""
    children = tree.expand_node(node_id, make_active([(token, edge_weight),
                                                      (99, 1.0 - edge_weight)]))
    return next(c for c in children if tree.token[c] == token)


def test_branching_children_inherit_scaled_mass():
    tree = PrunedTree()
    node = extend_path(tree, tree.root, token=0, edge_weight=0.9)
    children = tree.expand_node(node, make_active([(1, 0.7), (2, 0.3)]))
    masses = [math.exp(tree.log_mass[c]) for c in children]
    assert masses == pytest.approx([0.63, 0.27])
    assert [tree.depth[c] for c in children] == [2, 2]
    assert tree.children[node] == children == range(3, 5)
    assert [tree.parent[c] for c in children] == [node, node]


def test_singleton_expansion_keeps_mass():
    tree = PrunedTree()
    node = extend_path(tree, tree.root, token=0, edge_weight=0.4)
    [child] = tree.expand_node(node, make_active([(3, 1.0)]))
    assert tree.token[child] == 3
    assert tree.edge_weight[child] == 1.0
    assert tree.log_mass[child] == tree.log_mass[node]  # bit-exact
    assert math.exp(tree.log_mass[child]) == pytest.approx(0.4)


def test_symmetric_split_halves_mass():
    tree = PrunedTree()
    children = tree.expand_node(tree.root, make_active([(0, 0.5), (1, 0.5)]))
    for c in children:
        assert math.exp(tree.log_mass[c]) == pytest.approx(0.5)


def test_expanding_twice_raises():
    tree = PrunedTree()
    tree.expand_node(tree.root, make_active([(0, 1.0)]))
    with pytest.raises(ExpandingExpandedNode):
        tree.expand_node(tree.root, make_active([(0, 1.0)]))


def test_child_weights_sum_to_one_random():
    rng = random.Random(3)
    for _ in range(100):
        size = rng.randint(2, 6)
        raw = [rng.random() + 0.01 for _ in range(size)]
        total = sum(raw)
        pairs = [(i, w / total) for i, w in enumerate(raw)]
        tree = PrunedTree()
        children = tree.expand_node(tree.root, make_active(pairs))
        weight_sum = sum(tree.edge_weight[c] for c in children)
        assert abs(weight_sum - 1.0) <= 1e-9


def test_path_mass_recomputes_from_edges():
    rng = random.Random(5)
    tree = PrunedTree()
    node = tree.root
    log_product = 0.0
    for _ in range(40):
        w = rng.uniform(0.05, 1.0)
        node = extend_path(tree, node, token=0, edge_weight=w)
        log_product += math.log(w)
    assert tree.log_mass[node] == pytest.approx(log_product, abs=1e-9)
    assert len(tree.path_tokens(node)) == tree.depth[node] == 40


def test_path_tokens_walks_parents():
    tree = PrunedTree()
    a = extend_path(tree, tree.root, token=4, edge_weight=0.5)
    b = extend_path(tree, a, token=7, edge_weight=0.5)
    assert tree.path_tokens(b) == (4, 7)
    assert tree.path_tokens(tree.root) == ()


def test_dump_format():
    tree = PrunedTree()
    node = extend_path(tree, tree.root, token=1, edge_weight=0.25)
    tree.status[node] = LEAF
    doc = json.loads(json.dumps(tree.to_dict()))
    assert {n["id"] for n in doc["nodes"]} == {0, 1, 2}
    entry = doc["nodes"][node]
    assert entry["parent"] == 0
    assert entry["token"] == 1
    assert entry["edge_weight"] == 0.25
    assert entry["status"] == "leaf"
    assert "depth" not in entry
    assert entry["log_mass"] == pytest.approx(math.log(0.25))
