"""The benchmark tracer's targets still exist under the names it wraps.

`e2ebench/tracer.py` wraps package functions by module and attribute name.
A rename in the package would otherwise show only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dle.engine import Budget, BranchPolicy
from dle.model import train_ngram_model
from dle.truncation import Composite, TopK, TopP

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_observes_the_enumeration_layers():
    from dle import engine

    tracer = load_tracer().Tracer()
    model = train_ngram_model("a b c\na c b\nb a c\n", order=2, alpha=1.0)
    tracer.install()
    try:
        result = engine.enumerate_leaves(model, Composite(rules=(TopP(p=0.9), TopK(k=2))), (),
                                         BranchPolicy("probfirst"),
                                         Budget(max_leaves=5, max_seq_len=6))
    finally:
        tracer.uninstall()
    assert len(result.leaves) == 5
    names = {span.name for span in tracer.spans}
    assert {"engine.greedy_rollout", "engine.select_branch", "truncation.active_set",
            "model.next_distribution", "tree.expand_node", "tree.path_tokens"} <= names
    frontier_sizes = [s.observed for s in tracer.spans if s.name == "engine.select_branch"]
    assert frontier_sizes and all(isinstance(size, int) for size in frontier_sizes)
