"""The batched Howell form behind Z/N scan witnesses: for every generator
list it must return `rings.howell_form`'s rows, row for row, including the
non-canonical ones the reverse-order reduction above the pivots leaves."""

import random

import numpy as np
import pytest

from resonance_lab import _kernels
from resonance_lab.rings import _gcdex, _unit_to_divisor, howell_form


def _batched(lists, N, n):
    """`_howell_forms` on lists of rows padded with zero rows to one array,
    read back as lists of tuples: the nonzero rows in order."""
    m = max((len(rows) for rows in lists), default=0)
    G = np.zeros((len(lists), m, n), dtype=np.int64)
    for b, rows in enumerate(lists):
        if rows:
            G[b, :len(rows)] = rows
    H = _kernels._howell_forms(G, N)
    assert H.shape == (len(lists), n, n)
    for h in H:  # row c holds the row with its pivot in column c, or zeros
        for c, row in enumerate(h.tolist()):
            assert not any(row) or (row[c] and not any(row[:c]))
    return [[tuple(r) for r in h if any(r)] for h in H.tolist()]


def _random_lists(rng, N, n, count):
    """Generator lists of 0 to 2n + 1 rows: more rows than columns, single
    rows, all-zero rows among nonzero ones, and sparse rows, whose columns
    often hold a single nonzero entry or none."""
    out = []
    for _ in range(count):
        rows = []
        for _ in range(rng.randrange(2 * n + 2)):
            kind = rng.random()
            if kind < 0.15:
                rows.append([0] * n)
            elif kind < 0.45:
                rows.append([rng.randrange(N) if rng.random() < 0.35 else 0
                             for _ in range(n)])
            else:
                rows.append([rng.randrange(N) for _ in range(n)])
        out.append(rows)
    return out


@pytest.mark.parametrize("N", [4, 6, 8, 9, 12, 27, 36, 72])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_equals_howell_form_on_random_lists(N, n):
    rng = random.Random(f"howell:{N}:{n}")
    lists = _random_lists(rng, N, n, 80)
    lists += [[], [[0] * n], [[0] * n] * 3,
              [[rng.randrange(1, N)] + [0] * (n - 1)],
              [[rng.randrange(N) for _ in range(n)] for _ in range(3 * n)]]
    assert any(len(rows) > n for rows in lists)
    got = _batched(lists, N, n)
    for rows, form in zip(lists, got):
        assert form == howell_form(rows, N), rows


def test_equals_howell_form_on_lists_with_unequal_lengths_in_one_batch():
    # entries given out of range reduce mod N, as in the reference
    rows = [[[5, -1, 2]], [], [[0, 0, 0], [0, 0, 0]],
            [[2, 2, 0], [2, 0, 2], [0, 2, 2], [1, 3, 0], [3, 3, 3]]]
    assert _batched(rows, 4, 3) == [howell_form(r, 4) for r in rows]


def test_empty_batches():
    assert _kernels._howell_forms(np.zeros((0, 2, 3), dtype=np.int64),
                                  4).shape == (0, 3, 3)
    assert not _kernels._howell_forms(np.zeros((2, 0, 3), dtype=np.int64),
                                      4).any()


def test_keeps_the_non_canonical_reverse_order_reduction():
    # the docstring's Z4 pair: the same module, two different forms
    first = [(1, 1, 0), (0, 1, 1), (0, 0, 2)]
    second = [(1, 0, 1), (0, 1, 1), (0, 0, 2)]
    got = _batched([first, second], 4, 3)
    assert got[0][0] == (1, 0, 3) and got[1][0] == (1, 0, 1)
    assert got == [howell_form(first, 4), howell_form(second, 4)]


def test_merge_order_and_saturation_rows():
    # Z12: the pivot merges 8, 6 and 9 in pool order through their gcd,
    # and the cleared and saturation rows reach later columns
    rows = [[8, 1, 0], [6, 0, 1], [9, 5, 7], [0, 4, 6]]
    assert _batched([rows], 12, 3) == [howell_form(rows, 12)]
    assert _batched([rows[::-1]], 12, 3) == [howell_form(rows[::-1], 12)]


def test_gcdex_arrays_match_the_reference_recurrence():
    a, b = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
    g, s, t = _kernels._gcdex_arrays(a.ravel(), b.ravel())
    want = [_gcdex(x, y) for x, y in zip(a.ravel().tolist(),
                                         b.ravel().tolist())]
    assert list(zip(g.tolist(), s.tolist(), t.tolist())) == want


@pytest.mark.parametrize("N", [4, 6, 12, 72])
def test_tables_match_the_reference_helpers(N):
    gst, unit = _kernels._howell_tables(N)
    assert gst.shape == (3, N, N)
    for a in range(N):
        assert unit[a] == _unit_to_divisor(a, N)
        for b in range(N):
            assert tuple(gst[:, a, b].tolist()) == _gcdex(a, b)
