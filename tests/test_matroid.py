"""Fixture catalog, line derivation, and incidence matrices."""

import json
from itertools import combinations

import pytest

from resonance_lab.matroid import (Matroid, catalog, catalog_names,
                                   format_line, from_lines, incidence_matrix,
                                   line_of, load_matroid, parse_points,
                                   point_label)
from resonance_lab.rings import make_ring, rank_field


def test_parse_points_compact_and_greek():
    assert parse_points("136") == (1, 3, 6)
    assert parse_points("17α") == (1, 7, 10)
    assert parse_points("28a") == (2, 8, 10)
    assert parse_points("αβγ") == (10, 11, 12)
    with pytest.raises(ValueError):
        parse_points("1z3")


def test_format_line_round_trip():
    assert format_line((1, 3, 6)) == "136"
    assert format_line((10, 11, 12)) == "αβγ"
    assert point_label(10) == "α"


def test_from_lines_validation():
    with pytest.raises(ValueError):
        from_lines(5, [(1, 2)])  # too short
    with pytest.raises(ValueError):
        from_lines(5, [(1, 2, 6)])  # out of range
    with pytest.raises(ValueError):
        from_lines(5, [(1, 2, 3), (1, 2, 4)])  # two lines sharing two points


def test_catalog_line_sets():
    braid = catalog("braid-K4")
    assert braid.n == 6
    assert braid.lines == ((1, 3, 6), (1, 4, 5), (2, 3, 5), (2, 4, 6))

    nonfano = catalog("nonfano")
    assert nonfano.n == 7
    assert nonfano.lines == ((1, 3, 6), (1, 4, 5), (2, 3, 5), (2, 4, 6),
                             (3, 4, 7), (5, 6, 7))

    db3 = catalog("deletedB3")
    assert db3.n == 8
    assert db3.lines == ((1, 2, 8), (1, 3, 6), (1, 4, 7), (2, 3, 5),
                         (2, 4, 6), (3, 4, 8), (5, 6, 7, 8))
    assert db3.trivial_lines == ((1, 5), (2, 7), (3, 7), (4, 5))

    osam = catalog("olive-samansky")
    assert osam.n == 10
    assert (1, 2, 5, 6) in osam.lines and (3, 4, 7, 8) in osam.lines

    hess = catalog("hessian")
    assert hess.n == 12
    assert len(hess.lines) == 9
    assert all(len(L) == 4 for L in hess.lines)

    pen = catalog("pencil-4")
    assert pen.lines == ((1, 2, 3, 4),)
    assert pen.rank == 2

    with pytest.raises(ValueError):
        catalog("fano")
    assert "braid-K4" in catalog_names()


def test_line_of_closure():
    m = catalog("braid-K4")
    assert line_of(m, 1, 3) == (1, 3, 6)
    assert line_of(m, 1, 2) == (1, 2)  # trivial


def test_second_whitney_counts():
    assert catalog("braid-K4").second_whitney() == 11
    # non-Fano: 6 lines of 3 plus 3 trivial pairs: 6*2 + 3 = 15
    assert catalog("nonfano").second_whitney() == 15


def test_incidence_ranks_match_known_values():
    braid = catalog("braid-K4")
    for spec, want in [("Q", 4), ("F3", 4), ("F5", 4)]:
        ring = make_ring(spec)
        M = incidence_matrix(braid, braid.lines, ring)
        assert (M.nrows, M.ncols) == (4, 6)
        assert rank_field(M) == want
    hess = catalog("hessian")
    M = incidence_matrix(hess, hess.lines, make_ring("F3"))
    assert (M.nrows, M.ncols) == (9, 12)
    assert rank_field(M) == 6


def test_load_matroid_round_trip(tmp_path):
    p = tmp_path / "pencil.json"
    p.write_text(json.dumps({"n": 3, "lines": [[1, 2, 3]], "name": "tiny"}))
    m = load_matroid(p)
    assert m.n == 3 and m.lines == ((1, 2, 3),) and m.name == "tiny"


FIXTURES = [n for n in catalog_names() if not n.startswith("pencil-")]


@pytest.mark.parametrize("name", FIXTURES + ["pencil-5"])
def test_cached_lines_equal_a_fresh_recomputation(name):
    m = catalog(name)
    fresh = Matroid(m.n, m.lines, m.name)  # nothing cached yet
    before = hash(fresh)
    covered = {p for L in m.lines for p in combinations(L, 2)}
    trivial = tuple(p for p in combinations(range(1, m.n + 1), 2)
                    if p not in covered)
    for mat in (m, fresh):
        assert mat.trivial_lines == trivial
        assert mat.all_lines == tuple(sorted(m.lines + trivial))
        # computed once: every later access returns the same object
        assert mat.trivial_lines is mat.trivial_lines
        assert mat.all_lines is mat.all_lines
    assert hash(fresh) == before == hash(m)
    assert fresh == m and fresh == Matroid(m.n, m.lines, m.name)
    assert fresh != Matroid(m.n, m.lines, m.name + "'")
