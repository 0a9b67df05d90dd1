"""Every module of the package uses each name it imports.

The package's test dependencies include no linter, so this check reads
the source with the standard library's ast: a name bound by an import
statement must be read somewhere else in the module.  __init__.py is
left out, since its imports are the public names it re-exports.
"""

import ast
import pathlib

import sketchlsq


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_modules_use_every_name_they_import():
    package = pathlib.Path(sketchlsq.__file__).parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
