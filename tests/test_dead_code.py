"""Every module-level name in the package is used inside the package.

A function, class or constant in `src/dle/*.py` that no other code in
`src/dle/` refers to is reached by no CLI command: it is dead, or it is a
checker that belongs in `tests/reference.py`. `__init__.py` only re-exports,
so its imports do not count as uses.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dle"

# Called from outside the package: the benchmark computes its repetition-rate
# step with `metrics.repetition_rate` and records `_kernels.BACKEND`.
USED_OUTSIDE = {("metrics", "repetition_rate"), ("_kernels", "BACKEND")}


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as a name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_module_level_name_is_used_in_the_package():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*map(used_names, modules.values()))
    unused = [f"{module}.{name}" for module, tree in modules.items()
              for name in module_level_names(tree)
              if name not in used and (module, name) not in USED_OUTSIDE]
    assert unused == []
