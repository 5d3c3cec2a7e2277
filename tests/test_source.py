"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "netreg"


def test_no_runtime_asserts():
    # python -O strips assert statements, so runtime checks must raise typed errors
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    # __init__.py imports only to re-export, so it is exempt
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            name: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node)
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    # a module-level private function that nothing in the package names is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert trees
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and node.name not in named
    ]
    assert unreferenced == []


def test_every_error_is_raised_or_caught():
    # an exception class that no module but errors.py names has lost its
    # last caller; __init__.py only re-exports
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert classes
    named = {
        node.id
        for path in SRC.glob("*.py")
        if path.name not in ("errors.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name)
    }
    assert sorted(classes - named) == []


def test_runtime_imports_are_numpy_and_the_standard_library():
    # scipy and the test tools stay test-only
    allowed = set(sys.stdlib_module_names) | {"numpy", "netreg"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # not an import, or one relative to the package
                continue
            foreign += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


def test_no_environment_reads():
    # behaviour follows the arguments alone, so no hidden setting can creep in
    env = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in env)
        or (isinstance(node, ast.Attribute) and node.attr in env)
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(alias.name in env for alias in node.names))
    ]
    assert reads == []


def test_benchmark_trace_targets_resolve():
    # the benchmark's traced run wraps these library functions by module and name
    path = SRC.parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LIBRARY_LAYERS
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.LIBRARY_LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
