"""Every name a module of the package imports is used in that module,
every name it exports exists, and a field scan imports no more of numpy
than it needs, and no thread pool."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "resonance_lab"


def _unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads;
    import lines marked `# noqa` (deliberate re-exports) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "annotations":  # from __future__
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_names_and_noqa():
    src = ("from itertools import combinations, product\n"
           "import os.path\n"
           "from .osalg import is_resonant  # noqa: F401  re-export\n"
           "product(os.path.sep)\n")
    assert _unused_imports(src) == [(1, "combinations")]


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_export_resolves():
    names = ["resonance_lab"] + [f"resonance_lab.{p.stem}"
                                 for p in sorted(PACKAGE.glob("*.py"))
                                 if p.name != "__init__.py"]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        stale = [a for a in getattr(module, "__all__", ())
                 if not hasattr(module, a)]
        if stale:
            missing[name] = stale
    assert missing == {}


def test_a_field_scan_leaves_numpy_random_unimported():
    # the field kernel draws its sketch from the stdlib `random`: importing
    # numpy.random would add about 6 MB to every process that scans.  Scans
    # run in one thread, and concurrent.futures costs about 7 ms of import
    code = ("import sys\n"
            "import resonance_lab as rl\n"
            "rl.scan_resonance(rl.catalog('braid-K4'), rl.make_ring('F4'))\n"
            "print(any(m in sys.modules\n"
            "          for m in ('numpy.random', 'concurrent.futures')))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
