"""What the package imports.

Every module uses each name it imports.  The package's test dependencies
include no linter, so this check reads the source with the standard
library's ast: a name bound by an import statement must be read somewhere
else in the module.  __init__.py is left out, since its imports are the
public names it re-exports.

Importing the package leaves scipy.io and scipy.sparse unloaded; the
Matrix Market layer loads them on its first read or write.
"""

import ast
import json
import pathlib
import subprocess
import sys

import sketchlsq

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Run in a fresh child from the repository root, with src on the path as
# tools/bench_pairs.py puts it: this process may have loaded scipy.io already.
FOOTPRINT_CODE = """
import json, os, sys
sys.path.insert(0, os.path.abspath("src"))
import sketchlsq
lazy = ("scipy.io", "scipy.sparse")
loaded_by_import = [name for name in lazy if name in sys.modules]
import numpy as np
from sketchlsq.mmio import read_matrix, write_matrix
a = np.random.default_rng(3).standard_normal((7, 4)) * 1e-300
write_matrix(sys.argv[1], a)
kept = read_matrix(sys.argv[1]).tobytes() == a.tobytes()
print(json.dumps({"file": sketchlsq.__file__, "loaded": loaded_by_import,
                  "kept": kept}))
"""


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


def test_import_leaves_matrix_market_io_unloaded(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CODE, str(tmp_path / "a.mtx")],
        cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert pathlib.Path(out["file"]).is_relative_to(ROOT / "src")
    assert out["loaded"] == []
    assert out["kept"]
