"""Every name a module under ``src/repro`` imports is referenced.

Deleting code strands the imports it used, and no linter runs on this
tree.  This check parses each module with the standard library's
``ast`` and reports imported names the module never references.
Package ``__init__`` files import to re-export, so they are skipped;
an import statement marked ``F401`` (the pyflakes code for an unused
import) is exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as ``"weakref.WeakSet"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _referenced(ast.parse(node.value, mode="eval"))
        except SyntaxError:
            return set()
    return set()


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names |= {elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant)}
    return names


def _unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("F401" in line for line in statement):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = _referenced(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    assert MODULES
    unused = {str(path.relative_to(SRC)): _unused_imports(path)
              for path in MODULES}
    assert {module: names for module, names in unused.items()
            if names} == {}
