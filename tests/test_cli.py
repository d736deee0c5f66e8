"""End-to-end CLI behavior: pinned outputs, formats, exit codes."""

import json

import pytest

from resonance_lab.cli import main, parse_weight
from resonance_lab.rings import make_ring


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_resonant_pinned_output(capsys):
    rc, out, _ = run(capsys, "resonant", "--matroid", "nonfano",
                     "--ring", "F2", "--weight", "0011110")
    assert rc == 0
    assert out == "resonant; dim Z = 3\n"


def test_schubert_pinned_output(capsys):
    rc, out, _ = run(capsys, "schubert", "--k", "5", "--pieri", "1,1,1,1")
    assert rc == 0
    assert out == "3*W(3,1) + 2*W(2,2)\n"


def test_kernel_pinned_output(capsys):
    rc, out, _ = run(capsys, "kernel", "--matroid", "hessian",
                     "--ring", "F3", "--lines", "all")
    assert rc == 0
    assert out.splitlines()[0] == "rank 6, nullity 6"


def test_json_round_trip(capsys):
    rc, out, _ = run(capsys, "scan", "--matroid", "nonfano", "--ring", "F2",
                     "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["verb"] == "scan"
    assert rep["resonant_count"] == 25
    assert rep["universe"] == 127
    rc, out, _ = run(capsys, "resonant", "--matroid", "nonfano",
                     "--ring", "F2", "--weight", "0011110",
                     "--format", "json")
    assert json.loads(out)["dim_z"] == 3


@pytest.mark.parametrize("spec,head", [
    ("Z4", "braid-K4 over Z4: 975 resonant weights of 4095 nonzero weights"),
    ("F3", "braid-K4 over F3: 20 resonant projective classes of 364")])
def test_scan_text_counts_what_the_scan_walks(capsys, spec, head):
    # a Z/N scan walks all N^n - 1 nonzero tuples, a field scan one
    # representative per projective class
    rc, out, _ = run(capsys, "scan", "--matroid", "braid-K4", "--ring", spec)
    assert rc == 0
    assert out.splitlines()[0].startswith(head + " (")
    rc, out, _ = run(capsys, "scan", "--matroid", "braid-K4", "--ring", spec,
                     "--format", "json")
    rep = json.loads(out)
    assert set(rep) == {"matroid", "ring", "universe", "resonant_count",
                        "points", "groups", "seconds", "cap", "verb"}


def test_component_csv(capsys):
    rc, out, _ = run(capsys, "component", "--matroid", "braid-K4",
                     "--ring", "F5", "--graph", "12|34|56", "--format", "csv")
    assert rc == 0
    assert out == "dim_z,count\n2,6\n"


def test_depth_verb(capsys):
    rc, out, _ = run(capsys, "depth", "--matroid", "nonfano", "--ring", "F2",
                     "--graph", "127|3|4|5|6", "--weight", "0011110")
    assert rc == 0
    assert out == "depth = 2\n"


def test_directrices_verb(capsys):
    rc, out, _ = run(capsys, "directrices", "--matroid", "olive-samansky",
                     "--ring", "F2", "--graph", "1234|5678|9α",
                     "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["dim_k"] == 4
    assert rep["poles"] == 2
    assert len(rep["members"]) == 3
    pole_bases = {d["basis"][0] for d in rep["members"] if d["pole"]}
    assert pole_bases == {"1111000011", "0000111111"}


def test_pair_graph_verb(capsys):
    rc, out, _ = run(capsys, "pair-graph", "--matroid", "deletedB3",
                     "--ring", "Z4", "--weight", "11112222",
                     "--partner", "23100123")
    assert rc == 0
    assert out.splitlines()[0] == "edges: 15 27 37 45 57 68"


def test_domain_errors_exit_one(capsys):
    rc, out, err = run(capsys, "info", "--matroid", "fano")
    assert rc == 1 and out == ""
    assert err.startswith("error:")
    rc, _, err = run(capsys, "resonant", "--matroid", "nonfano",
                     "--ring", "F2", "--weight", "001")
    assert rc == 1 and "entries" in err
    rc, _, err = run(capsys, "depth", "--matroid", "nonfano", "--ring", "F2",
                     "--graph", "127|3|4|5|6", "--weight", "1000000")
    assert rc == 1 and "outside K" in err


def test_modulus_on_a_prime_field_exits_one(capsys):
    rc, out, err = run(capsys, "scan", "--matroid", "braid-K4",
                       "--ring", "F3^1:5")
    assert rc == 1 and out == ""
    assert err == "error: modulus only applies to extension fields\n"


def test_degree_names_a_carrier_dimension_above_its_space(capsys):
    rc, out, err = run(capsys, "degree", "--k", "4", "--codims", "1,1,1")
    assert rc == 1 and out == ""
    assert err == "error: expected carrier dimension 5 exceeds dim P^3 = 3\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["resonant", "--matroid", "nonfano"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # scans run in one thread
        main(["scan", "--matroid", "nonfano", "--ring", "F2", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("RESONANCE_LAB_CAP", "10")
    rc, _, err = run(capsys, "scan", "--matroid", "nonfano", "--ring", "F2")
    assert rc == 1
    assert "exceed" in err


def test_parse_weight_forms():
    Q = make_ring("Q")
    F2 = make_ring("F2")
    assert parse_weight("1,1,0,0,-1,-1", Q, 6)[4] == -1
    assert str(parse_weight("1/2,0,0", Q, 3)[0]) == "1/2"
    assert parse_weight("0011110", F2, 7) == (0, 0, 1, 1, 1, 1, 0)
    v = parse_weight("10000000011", make_ring("F13"), 11)
    assert v[-1] == 1
    with pytest.raises(ValueError):
        parse_weight("00z1110", F2, 7)
    with pytest.raises(ValueError):
        parse_weight("1,2", F2, 3)


def test_weight_alpha_digits():
    F13 = make_ring("F13")
    assert parse_weight("αβγ", F13, 3) == (10, 11, 12)
    assert parse_weight("abc", F13, 3) == (10, 11, 12)
