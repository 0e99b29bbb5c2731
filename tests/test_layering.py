"""The package's runtime import graph is a DAG, no function imports, no
module but `__init__` imports a name it never uses, the log of a
majority vote is taken in `model` only, the objective's exp is taken
there too, and instances are interned in `binder` only.

Every `src/relsyn/*.py` module is parsed with `ast`; imports under
`if TYPE_CHECKING:` are type-only and left out of the graph.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relsyn"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """Import statements outside `if TYPE_CHECKING:` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _targets(node) -> set[str]:
    """Sibling modules of the package named by one import statement."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("relsyn.")}
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "relsyn":
            return set()  # standard library
        module = module.partition(".")[2]
    if module:
        return {module.split(".")[0]}
    # `from . import a, b` names the modules themselves.
    return {a.name for a in node.names if a.name in MODULES}


def _parse(name: str) -> ast.AST:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _graph() -> dict[str, set[str]]:
    graph = {}
    for name in MODULES:
        deps = set()
        for node in _runtime_imports(_parse(name)):
            deps |= _targets(node)
        graph[name] = deps - {name}
    return graph


def test_known_modules_found():
    assert {"model", "scheduler", "binder", "synthesizer", "redundancy", "cli"} <= set(MODULES)


def test_runtime_import_graph_is_acyclic():
    graph = _graph()
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        if name in path:
            cycle = path[path.index(name):] + (name,)
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph.get(name, ())):
            visit(dep, path + (name,))
        done.add(name)

    for name in MODULES:
        visit(name, ())


@pytest.mark.parametrize("name", MODULES)
def test_no_function_body_imports(name):
    for func in ast.walk(_parse(name)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nested = [n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
            where = getattr(func, "name", "<lambda>")
            assert not nested, f"{name}.{where} imports at line {nested[0].lineno}"


# The oracle is the independent ground truth: from the production modules it
# may take result types only, never scheduling, binding or synthesis code.
ORACLE_ALLOWED = {"scheduler": {"Schedule"}, "binder": {"Binding", "Instance"}}


def test_oracle_imports_only_result_types_from_production_modules():
    for node in _runtime_imports(_parse("oracle")):
        for target in _targets(node) - {"model"}:
            assert target in ORACLE_ALLOWED, f"oracle imports {target}"
            assert isinstance(node, ast.ImportFrom) and node.module, (
                f"oracle imports the module {target} itself (line {node.lineno})"
            )
            names = {alias.name for alias in node.names}
            assert names <= ORACLE_ALLOWED[target], (
                f"oracle imports {sorted(names - ORACLE_ALLOWED[target])} from {target}"
            )


def _calls(node: ast.AST, name: str) -> bool:
    """Whether `node` calls `name` or `<module>.name`."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == name)
        or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
    )


@pytest.mark.parametrize("name", [m for m in MODULES if m != "model"])
def test_vote_logs_come_from_model(name):
    # model._log_vote keeps the guard for a vote that underflows to 0.
    for node in ast.walk(_parse(name)):
        if _calls(node, "log") and any(_calls(arg, "nmr_reliability") for arg in node.args):
            pytest.fail(f"{name} takes the log of nmr_reliability at line {node.lineno}")


def _callers(tree: ast.AST, name: str) -> set[str]:
    """Qualified names of the functions and classes (or `<module>`) whose own
    code calls `name`."""
    found, stack = set(), [(tree, "<module>")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if _calls(child, name):
                found.add(scope)
            stack.append((child, inner))
    return found


def test_one_home_for_the_objective_and_for_interned_instances():
    # model holds the objective's exp, oracle its own ground truth and
    # charlib the soft-error model; elsewhere only _Pricing.ceiling, a
    # bound, takes an exp.  Only binder's code names binder._unit.
    callers = {
        f"{name}.{scope}"
        for name in ("scheduler", "binder", "synthesizer", "redundancy", "cli")
        for scope in _callers(_parse(name), "exp")
    }
    assert callers == {"redundancy._Pricing.ceiling"}
    for name in [m for m in MODULES if m != "binder"]:
        tree = _parse(name)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "_unit" not in names, f"{name} names binder._unit"


def _bound_names(node) -> list[str]:
    """The names one import statement binds in its module."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(name):
    # `__init__` imports to re-export; elsewhere an imported name is read
    # somewhere in the module, annotations included.
    tree = _parse(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            unused = [b for b in _bound_names(node) if b not in used]
            assert not unused, f"{name} imports {unused} at line {node.lineno} and never uses them"
