"""Exhaustive scans, interpolation, and the regulus demonstration."""

import itertools
import random

import numpy as np
import pytest

from resonance_lab import _kernels, oracle, osalg
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog, from_lines
from resonance_lab.neighborly import CapExceeded, z_gamma
from resonance_lab.oracle import (fit_forms, regulus_check, scan_component,
                                  scan_resonance)
from resonance_lab.osalg import wedge_is_zero, z_of
from resonance_lab.rings import is_parallel, make_ring

F2 = make_ring("F2")
F3 = make_ring("F3")
F5 = make_ring("F5")

# basis of the weight space of the nonfano graph 127|3|4|5|6 over F2,
# solved by hand from the six line sums
NF_K = ((0, 1, 1, 0, 0, 1, 1), (1, 0, 0, 1, 0, 1, 1), (1, 1, 0, 0, 1, 1, 0))
NF_POLE = (0, 0, 1, 1, 1, 1, 0)


def _f2_combos(basis):
    for coef in itertools.product([0, 1], repeat=len(basis)):
        if not any(coef):
            continue
        v = [0] * len(basis[0])
        for c, b in zip(coef, basis):
            if c:
                v = [(x + y) % 2 for x, y in zip(v, b)]
        yield tuple(v)


def test_scan_nonfano_f2_full_classification():
    m = catalog("nonfano")
    rep = scan_resonance(m, F2)
    assert rep.universe == 127
    # expected set: three points per line (pairs inside the line), plus the
    # seven points of the essential component
    expected = set(_f2_combos(NF_K))
    for line in m.lines:
        for i, j in itertools.combinations(line, 2):
            v = [0] * m.n
            v[i - 1] = v[j - 1] = 1
            expected.add(tuple(v))
    assert {p.lam for p in rep.points} == expected
    assert len(rep.points) == 25
    for p in rep.points:
        assert p.dim_z == len(z_of(p.lam, m, F2))
    top = [p.lam for p in rep.points if p.dim_z >= 3]
    assert top == [NF_POLE]
    assert sum(len(pts) for _, pts in rep.groups) == 25
    assert all(any(x == 0 for x in p.lam) for p in rep.points)


def test_scan_pencil3_f3_closed_form():
    m = catalog("pencil-3")
    rep = scan_resonance(m, F3)
    assert rep.universe == 13
    assert {p.lam for p in rep.points} == {
        lam for lam in itertools.product(range(3), repeat=3)
        if any(lam) and sum(lam) % 3 == 0 and lam[next(
            i for i, x in enumerate(lam) if x)] == 1}
    assert len(rep.points) == 4
    for p in rep.points:
        assert p.dim_z == 2


def test_scan_resonance_needs_finite_ring():
    with pytest.raises(ValueError):
        scan_resonance(catalog("pencil-3"), make_ring("Q"))


def test_scan_cap_and_env(monkeypatch):
    m = catalog("nonfano")
    F4 = make_ring("F4")
    with pytest.raises(CapExceeded):
        scan_resonance(m, F4, cap=100)
    monkeypatch.setenv("RESONANCE_LAB_CAP", "100")
    with pytest.raises(CapExceeded):
        scan_resonance(m, F4)
    monkeypatch.setenv("RESONANCE_LAB_CAP", str(10 ** 9))
    assert scan_resonance(m, F2).cap == 10 ** 9


def test_scan_jobs_deterministic():
    # jobs=1 is accepted, and means what omitting it means; nothing else is
    m, F4 = catalog("nonfano"), make_ring("F4")
    g = parse_graph("127|3|4|5|6", m.n)
    with pytest.raises(ValueError, match="one thread"):
        scan_resonance(m, F4, jobs=2)
    with pytest.raises(ValueError, match="one thread"):
        scan_component(g, m, F4, jobs=2)
    a = scan_resonance(m, F4).to_jsonable()
    b = scan_resonance(m, F4, jobs=1).to_jsonable()
    c = scan_component(g, m, F4).to_jsonable()
    d = scan_component(g, m, F4, jobs=1).to_jsonable()
    for rep in (a, b, c, d):
        rep.pop("seconds")
    assert a == b and c == d


def test_scan_reports_the_worker_count_that_ran():
    # every scan runs in one thread, so no report carries a worker count
    m, F4 = catalog("nonfano"), make_ring("F4")
    g = parse_graph("127|3|4|5|6", m.n)
    for rep in (scan_resonance(m, F4, jobs=1), scan_component(g, m, F4)):
        assert not hasattr(rep, "jobs")
        assert "jobs" not in rep.to_jsonable()


def test_scan_z4_pencil_matches_rank_two_condition():
    m = catalog("pencil-3")
    Z4 = make_ring("Z4")
    rep = scan_resonance(m, Z4)
    assert rep.universe == 63

    def partner_exists(lam):
        s = sum(lam) % 4
        for eta in itertools.product(range(4), repeat=3):
            t = sum(eta) % 4
            if all((s * e) % 4 == (t * l) % 4 for l, e in zip(lam, eta)) \
                    and not is_parallel(lam, eta, Z4):
                return True
        return False

    expected = {lam for lam in itertools.product(range(4), repeat=3)
                if any(lam) and partner_exists(lam)}
    assert {p.lam for p in rep.points} == expected
    for p in rep.points:
        assert p.witness is not None
        assert wedge_is_zero(p.lam, p.witness, m, Z4)
        assert not is_parallel(p.lam, p.witness, Z4)


def test_scan_field_raises_when_nullity_disagrees_with_z(monkeypatch):
    # every point of the hyperplane of sum zero of pencil-3/F3 has nullity
    # 2, so the kernel scans no nullity-1 candidate: bump a hit to 3
    real = _kernels.scan_nullities

    def bumped(*args):
        out = real(*args)
        assert 1 not in out
        out[list(out).index(2)] = 3
        return out

    monkeypatch.setattr(_kernels, "scan_nullities", bumped)
    with pytest.raises(ValueError, match="disagrees"):
        scan_resonance(catalog("pencil-3"), F3)


def test_scan_modn_raises_on_partner_outside_z(monkeypatch):
    m = catalog("pencil-3")
    Z4 = make_ring("Z4")
    # (1,1,2) is reported (its line sum is 0, so Z holds every eta with
    # zero sum); (0,1,0) is not parallel to it and a_lambda ∧ a_eta != 0,
    # so the wedge check must refuse it
    bad_lam, bad_eta = (1, 1, 2), (0, 1, 0)
    assert osalg.is_resonant(bad_lam, m, Z4)
    assert not wedge_is_zero(bad_lam, bad_eta, m, Z4)
    assert not is_parallel(bad_lam, bad_eta, Z4)

    real = _kernels._smith_kernels

    def wrong_z(L, ring, nrows, ncols, coords):
        gens = real(L, ring, nrows, ncols, coords)
        return [[bad_eta] if tuple(lam) == bad_lam else z
                for lam, z in zip(coords.tolist(), gens)]

    monkeypatch.setattr(_kernels, "_smith_kernels", wrong_z)
    with pytest.raises(ValueError, match="not resonant"):
        scan_resonance(m, Z4)


def test_scan_modn_raises_when_mask_disagrees_with_z(monkeypatch):
    m = catalog("pencil-3")
    Z4 = make_ring("Z4")
    flagged = (1, 0, 0)
    assert not osalg.is_resonant(flagged, m, Z4)
    index = list(itertools.product(range(4), repeat=3)).index(flagged)
    real = _kernels.scan_lengths

    def lowered(L, ring, dim, nrows, ncols, start, stop):
        out = real(L, ring, dim, nrows, ncols, start, stop)
        out[index - start] -= 1  # a shorter d_lambda module: Z(lambda) grows
        return out

    monkeypatch.setattr(_kernels, "scan_lengths", lowered)
    with pytest.raises(ValueError, match="disagrees"):
        scan_resonance(m, Z4)


@pytest.mark.parametrize("name,spec", [
    ("pencil-3", "Z4"), ("pencil-3", "Z6"), ("pencil-3", "Z9"),
    ("pencil-3", "Z12"), ("pencil-4", "Z8")])
def test_scan_modn_matches_is_resonant_on_every_weight(name, spec):
    m, ring = catalog(name), make_ring(spec)
    rep = scan_resonance(m, ring)
    expected = [lam for lam in itertools.product(range(ring.n), repeat=m.n)
                if osalg.is_resonant(lam, m, ring)]
    assert [p.lam for p in rep.points] == expected


def test_scan_modn_matches_is_resonant_braid_sampled():
    m, ring = catalog("braid-K4"), make_ring("Z4")
    rep = scan_resonance(m, ring)
    reported = [p.lam for p in rep.points]
    assert len(reported) == 975
    assert all(osalg.is_resonant(lam, m, ring) for lam in reported)
    rest = sorted(set(itertools.product(range(4), repeat=m.n))
                  - set(reported) - {(0,) * m.n})
    rng = random.Random(7)
    for lam in rng.sample(rest, 1000):
        assert not osalg.is_resonant(lam, m, ring), lam


def test_scan_modn_does_not_depend_on_walk_block(monkeypatch):
    # pencil-4/Z6 walks 1295 weights: with blocks of 100 the walk crosses
    # 12 block boundaries and must report exactly the same points
    m, ring = catalog("pencil-4"), make_ring("Z6")
    full = scan_resonance(m, ring).to_jsonable()
    assert full["resonant_count"] > 0
    monkeypatch.setattr(oracle, "_WALK_BLOCK", 100)
    small = scan_resonance(m, ring).to_jsonable()
    for rep in (full, small):
        rep.pop("seconds")
    assert small == full


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_scan_computes_each_z_once(monkeypatch):
    rows = []
    real = _kernels._smith_kernels

    def counted(L, ring, nrows, ncols, coords):
        rows.extend(coords.tolist())
        return real(L, ring, nrows, ncols, coords)

    monkeypatch.setattr(_kernels, "_smith_kernels", counted)
    modn = _count_calls(monkeypatch, osalg, "kernel_modn")
    modn_fallback = _count_calls(monkeypatch, _kernels, "kernel_modn")
    field = _count_calls(monkeypatch, osalg, "kernel_field")
    rep = scan_resonance(catalog("pencil-3"), make_ring("Z4"))
    assert len(rows) == len(rep.points) == 27
    assert [tuple(r) for r in rows] == [p.lam for p in rep.points]
    assert not modn and not modn_fallback
    assert not field
    # a field scan takes every Z(lambda) from one batched echelon form
    z = _count_calls(monkeypatch, osalg, "z_of")
    direct = _count_calls(monkeypatch, oracle, "kernel_field")
    echelon = _count_calls(monkeypatch, _kernels, "echelon_kernels")
    rep = scan_resonance(catalog("nonfano"), F3)
    assert len(rep.points) > 0
    assert not field and not z and not direct
    assert len(echelon) == 1


def test_scan_component_braid_f5():
    m = catalog("braid-K4")
    cs = scan_component(parse_graph("12|34|56", 6), m, F5)
    assert cs.dim_k == 2
    assert cs.universe == 6
    assert cs.strata == ((2, 6),)
    assert cs.depth_strata() == ((1, 6),)
    assert len(cs.carrier) == 6


def test_scan_component_olive_samansky_f2():
    m = catalog("olive-samansky")
    cs = scan_component(parse_graph("1234|5678|9α", 10), m, F2)
    assert cs.dim_k == 4
    assert cs.universe == 15
    assert cs.strata == ((1, 12), (2, 3))
    assert set(cs.carrier) == {(1, 1, 1, 1, 0, 0, 0, 0, 1, 1),
                               (0, 0, 0, 0, 1, 1, 1, 1, 1, 1),
                               (1, 1, 1, 1, 1, 1, 1, 1, 0, 0)}


def test_scan_component_hessian_f3():
    m = catalog("hessian")
    g = parse_graph("123|456|789|αβγ", 12)
    cs = scan_component(g, m, F3)
    assert cs.dim_k == 6
    assert cs.universe == 364
    assert cs.strata == ((1, 315), (2, 36), (3, 13))
    assert len(cs.carrier) == 49
    # spot check the batched dimensions against the exact solver
    for lam, d in cs.points[::7]:
        assert len(z_gamma(lam, g, m, F3)) == d


def test_scan_component_with_no_rows_keeps_every_column():
    # no nontrivial lines and the discrete graph: Z_Gamma has no equations,
    # so every weight of K = F3^4 has dim Z_Gamma = 4
    m, g = from_lines(4, [], "free4"), parse_graph("1|2|3|4", 4)
    cs = scan_component(g, m, F3)
    assert cs.dim_k == 4
    assert cs.strata == ((4, 40),)
    for lam in _kernels.decode_candidates(np.arange(40), 3, 4).tolist():
        assert len(z_gamma(lam, g, m, F3)) == 4


def test_fit_forms_basics():
    fit = fit_forms([(1, 0, 0)], F3, 1)
    assert fit.proj_dim == 2 and fit.dim == 2
    assert fit.monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert fit_forms([(1, 0, 0)], F3, 2).dim == 5
    p2 = [v for v in itertools.product([0, 1], repeat=3)
          if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    assert len(p2) == 7
    assert fit_forms(p2, F2, 1).dim == 0
    assert fit_forms(p2, F2, 2).dim == 0


def test_fit_forms_errors():
    with pytest.raises(ValueError):
        fit_forms([], F3, 1)
    with pytest.raises(ValueError):
        fit_forms([(1, 0)], make_ring("Z4"), 1)


def test_regulus_counts():
    r3 = regulus_check(F3)
    assert r3.carrier_count == 16 == r3.expected
    assert r3.all_depth_one and r3.ok
    r5 = regulus_check(F5, seed=1)
    assert r5.carrier_count == 36 == r5.expected
    assert r5.all_depth_one
    assert regulus_check(F3).planes == r3.planes  # same seed, same planes


def test_regulus_check_is_capped(monkeypatch):
    monkeypatch.delenv("RESONANCE_LAB_CAP", raising=False)

    def no_sampling(*args):
        raise AssertionError("a plane was sampled before the cap check")

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "span", no_sampling)
        with pytest.raises(CapExceeded):
            regulus_check(make_ring("F257"))  # 257**4 > 10**8
    monkeypatch.setenv("RESONANCE_LAB_CAP", "80")
    with pytest.raises(CapExceeded):
        regulus_check(make_ring("F3"))
    monkeypatch.setenv("RESONANCE_LAB_CAP", "81")
    assert regulus_check(make_ring("F3")).ok
