"""The kernel shapes that the traced CI runs read.

The benchmark tracer keys the cost per candidate of each field-scan kernel
call as `<nrows>x<ncols>.F<q>`, from the 4th and 5th positional arguments
of `_kernels.scan_nullities` and the field of its 2nd.  The traced CI steps
fail unless `19x7.F4` and `48x5.F9` (field-scan) and `29x3.F2` and `15x2.F3`
(decompose) read a cost, so a change that moves those arguments or the
shapes of these scans fails here, and not only in CI.
"""

import pytest

from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import decomposition_check
from resonance_lab.rings import make_ring


@pytest.fixture
def shapes(monkeypatch):
    """The tracer's shape key of every `scan_nullities` call, read the way
    the tracer reads it: positional arguments only."""
    keys = []
    real = _kernels.scan_nullities

    def recorded(*args, **kwargs):
        assert not kwargs, kwargs
        keys.append(f"{args[3]}x{args[4]}.F{args[1].cardinality}")
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "scan_nullities", recorded)
    return keys


def test_the_deletedb3_f4_scan_runs_shape_19x7(shapes):
    oracle.scan_resonance(catalog("deletedB3"), make_ring("F4"))
    assert shapes == ["19x7.F4"]


def test_the_hessian_f9_component_runs_shape_48x5(shapes):
    m = catalog("hessian")
    oracle.scan_component(parse_graph("123|456|789|αβγ", m.n), m,
                          make_ring("F9"))
    assert shapes == ["48x5.F9"]


@pytest.mark.parametrize("name,spec,key", [("deletedB3", "F2", "29x3.F2"),
                                           ("braid-K4", "F3", "15x2.F3")])
def test_decompose_runs_the_traced_small_shapes(shapes, name, spec, key):
    decomposition_check(catalog(name), make_ring(spec))
    assert key in shapes
