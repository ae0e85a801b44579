"""Every module-level name and every method in the package is used inside the
package, and every test reference is used by a test.

A function, class, constant or method in `src/dle/*.py` that no other code in
`src/dle/` refers to is reached by no CLI command: it is dead, or it is a
checker that belongs in `tests/reference.py`. `__init__.py` only re-exports,
so its imports do not count as uses. A method counts as used when its name is
read anywhere in the package, as an attribute or a name. A reference in
`tests/reference.py` that no test reads, directly or through another used
reference, checks nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dle"

# Called from outside the package: the benchmark computes its repetition-rate
# step with `metrics.repetition_rate` and records `_kernels.BACKEND`.
USED_OUTSIDE = {("metrics", "repetition_rate"), ("_kernels", "BACKEND")}

# Methods kept for callers outside the package: the model protocol, which
# every backend offers, and the methods the benchmark's tracer
# (`e2ebench/tracer.py`) wraps by class and name.
PROTOCOL_METHODS = {"context", "next_distribution", "encode_prompt", "decode"}
TRACED_METHODS = {("NgramModel", "next_distribution"), ("TableModel", "next_distribution"),
                  ("PrunedTree", "expand_node"), ("PrunedTree", "path_tokens"),
                  ("PrefixCache", "match"), ("PrefixCache", "insert")}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def module_level_names(tree: ast.Module) -> list[str]:
    return [name for node in tree.body for name in defined_names(node)]


def methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) for each function defined in a module-level class
    body, dunder methods left out: Python calls them."""
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as a name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def test_every_module_level_name_is_used_in_the_package():
    modules = _modules()
    used = set().union(*map(used_names, modules.values()))
    unused = [f"{module}.{name}" for module, tree in modules.items()
              for name in module_level_names(tree)
              if name not in used and (module, name) not in USED_OUTSIDE]
    assert unused == []


def test_every_method_is_used_in_the_package():
    modules = _modules()
    used = set().union(*map(used_names, modules.values()))
    defined = {method for tree in modules.values() for method in methods(tree)}
    assert TRACED_METHODS <= defined  # the list names no method that is gone
    unused = [f"{module}.{cls}.{name}" for module, tree in modules.items()
              for cls, name in methods(tree)
              if name not in used and name not in PROTOCOL_METHODS
              and (cls, name) not in TRACED_METHODS]
    assert unused == []


def test_every_reference_is_used_by_a_test():
    reference = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    reads = {name: used_names(node) for node in reference.body for name in defined_names(node)}
    used = set().union(*(used_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in sorted(TESTS.glob("test_*.py"))))
    reached: set[str] = set()
    pending = [name for name in reads if name in used]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += [other for other in reads if other in reads[name]]
    assert sorted(set(reads) - reached) == []
