"""The library's modules import each other at module level, and without a cycle.

An import of sympdec inside a function body hides a dependency from the
module's header, and it is how an import cycle gets written around.  This
test parses every src/sympdec/*.py with ast and fails, naming them, on any
sympdec import inside a function or lambda, and on any cycle in the graph of
the module-level imports between the package's modules.  An import of the
package itself, or of a name it defines rather than a module, is an edge to
__init__.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sympdec

SRC = Path(sympdec.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _named(node) -> set[str] | None:
    """The package modules an import statement names, or None when it imports
    nothing from sympdec; a module with no .py source (the compiled kernel)
    is named too."""
    if isinstance(node, ast.Import):
        parts = [a.name.split(".") for a in node.names if a.name.split(".")[0] == "sympdec"]
        return {p[1] if len(p) > 1 else "__init__" for p in parts} or None
    module = node.module
    if node.level:   # relative, so inside the package
        module = f"sympdec.{module}" if module else "sympdec"
    if module == "sympdec":
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    if module and module.startswith("sympdec."):
        return {module.split(".")[1]}
    return None


def _imports(path: Path) -> tuple[set[str], list[str]]:
    """(the package modules path imports outside any function, the lines of
    its sympdec imports inside one)."""
    top, nested = set(), []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(child, FUNCTIONS)
            if isinstance(child, (ast.Import, ast.ImportFrom)) and _named(child) is not None:
                if inside:
                    nested.append(f"{path.name}:{child.lineno}")
                else:
                    top.update(_named(child) & MODULES)
            visit(child, inside)

    visit(ast.parse(path.read_text()), False)
    return top, nested


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of graph (module -> modules it imports), as the modules along
    it with the first repeated at the end, or None."""
    done, path = set(), []

    def visit(node):
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in path:
                return path[path.index(nxt):] + [nxt]
            if nxt not in done:
                found = visit(nxt)
                if found:
                    return found
        done.add(path.pop())
        return None

    for node in sorted(graph):
        found = None if node in done else visit(node)
        if found:
            return found
    return None


def test_library_imports_sit_at_module_level_and_form_no_cycle():
    # the cycle search itself finds a cycle and passes a chain
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}}) is None
    graph, nested = {}, []
    for path in sorted(SRC.glob("*.py")):
        graph[path.stem], inner = _imports(path)
        nested += inner
    assert graph["lifting"] >= {"induced"} and graph["cli"] >= {"__init__", "lifting"}
    assert not nested, f"sympdec imported inside a function at {', '.join(nested)}"
    cycle = _cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"
