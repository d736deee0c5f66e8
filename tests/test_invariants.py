"""The package's invariant checks are explicit raises, so that they still
run under `python -O`, which strips every `assert` statement."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "resonance_lab"


def _asserts(source: str) -> list:
    """Line numbers of the assert statements of a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_scan_sees_assert_statements():
    src = ("def f(x):\n"
           "    assert x, 'gone under -O'\n"
           "    if not x:\n"
           "        raise AssertionError('kept')\n")
    assert _asserts(src) == [2]


def test_package_modules_have_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _asserts(p.read_text()) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


# each check fed the wrong answer by one patched helper
_BROKEN = """
import sys
import numpy as np
import resonance_lab as rl
from resonance_lab import neighborly, oracle, osalg
from resonance_lab.graphs import Graph, parse_graph

assert False  # stripped under -O: reaching the checks proves the flag
m, Z4, F5 = rl.catalog("braid-K4"), rl.make_ring("Z4"), rl.make_ring("F5")
point = oracle.scan_resonance(m, Z4).points[0]
pair = ([point.lam], [point.witness])


def fit():
    oracle.kernel_field = lambda M: [(1,) + (0,) * (M.ncols - 1)]
    oracle.fit_forms([(1, 0), (0, 1)], F5, 1)


def group():
    oracle._minors = lambda lam, eta, ring: np.ones((len(lam), 15), int)
    oracle._group_by_graph(*pair, m, Z4)


def graph():
    osalg._minor_graph = lambda lam, eta, ring: Graph.from_edges(6, [])
    osalg.pair_graph(point.lam, point.witness, m, Z4)


def report():
    neighborly.v1_contains = lambda *args, **kwargs: False
    neighborly.component_report(parse_graph("12|34|56", 6), m, F5)


for check in (fit, group, graph, report):
    try:
        check()
        print(check.__name__, "passed")
    except AssertionError as exc:
        print(check.__name__, exc)
"""


def test_invariant_checks_fire_under_python_O():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    lines = out.stdout.splitlines()
    assert lines[0] == "fit interpolated form fails to vanish"
    assert lines[1] == "group trivial line (1, 2) missing from pair graph"
    assert lines[2] == "graph trivial line (1, 2) missing from pair graph"
    assert lines[3].startswith("report sampled weight (")
    assert lines[3].endswith(" is not in the component of Graph(12|34|56)")
    assert len(lines) == 4
