"""Every name imported in ``src/hmfx``, ``tests`` and ``scripts`` is used.

An import that nothing reads still costs its import time and hides which
modules depend on which.  A name bound by ``import a.b`` counts as used
when the dotted name ``a.b`` is read somewhere in the module; a name bound
by ``from m import x`` or ``as x`` when ``x`` is read.  The package's
``__init__.py`` (its re-exports) and imports marked ``# noqa: F401`` are
exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hmfx"
SCANNED = (PACKAGE, ROOT / "tests", ROOT / "scripts")
EXEMPT = {PACKAGE / "__init__.py"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _read_names(tree: ast.Module) -> set[str]:
    """Every name and dotted prefix the module reads."""
    read = set()
    for node in ast.walk(tree):
        dotted = _dotted(node)
        if dotted is not None:
            parts = dotted.split(".")
            read.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return read


def _unused_imports(path: pathlib.Path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = _read_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) not in read:
                yield f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"


def test_every_import_is_used():
    unused = [entry for d in SCANNED for path in sorted(d.rglob("*.py"))
              if path not in EXEMPT for entry in _unused_imports(path)]
    assert not unused, "imports nothing reads:\n" + "\n".join(unused)
