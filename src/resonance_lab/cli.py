"""Command line front end.

Every verb builds one report dict; ``--format text`` and ``--format json``
are two renderings of that same object, so the JSON is schema-stable and the
text never drifts from it.  Exit codes: 0 success, 1 domain error (unknown
fixture, malformed weights, cap exceeded), 2 usage error (from argparse).
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import matroid as mat
from . import osalg
from .graphs import Graph, is_neighborly, parse_graph
from .linegeom import directrices, span
from .neighborly import (CapExceeded, decomposition_check, enumerate_neighborly,
                         z_gamma)
from .oracle import fit_forms, scan_component, scan_resonance
from .rings import Rationals, kernel_field, kernel_modn, make_ring, rank_field
from .schubert import SchubertClass, carrier_degree, pieri, product, special

_VALUE_CHARS = {str(d): d for d in range(10)}
_VALUE_CHARS.update({"α": 10, "β": 11, "γ": 12, "a": 10, "b": 11, "c": 12})


def parse_weight(text: str, ring, n: int) -> tuple:
    """A weight vector: comma list ("1,1,2,0") or compact digits ("0011110").

    Compact form uses one character per coordinate, with α/β/γ (or a/b/c)
    standing for 10/11/12.  Values are coerced into the ring.
    """
    t = text.strip()
    if "," in t or "-" in t or "/" in t:
        parts = [p.strip() for p in t.split(",")]
        try:
            vals = [Fraction(p) if isinstance(ring, Rationals) else int(p)
                    for p in parts]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed weight entry in {text!r}")
    else:
        vals = []
        for ch in t:
            if ch not in _VALUE_CHARS:
                raise ValueError(f"bad weight digit {ch!r} in {text!r}")
            vals.append(_VALUE_CHARS[ch])
    if len(vals) != n:
        raise ValueError(f"weight {text!r} has {len(vals)} entries, expected {n}")
    return ring.coerce_vector(vals)


def _compact(vec) -> str:
    chars = []
    for v in vec:
        if isinstance(v, int) and 0 <= v <= 12:
            chars.append(mat.point_label(v) if v >= 10 else str(v))
        else:
            return ",".join(str(x) for x in vec)
    return "".join(chars)


def _load_matroid(source: str) -> mat.Matroid:
    try:
        return mat.catalog(source)
    except ValueError:
        if os.path.exists(source):
            return mat.load_matroid(source)
        raise ValueError(f"unknown matroid {source!r} (not a catalog name or file); "
                         f"catalog: {', '.join(mat.catalog_names())}")


def _parse_lines(spec: str, m: mat.Matroid):
    if spec == "all":
        return list(m.lines)
    out = []
    for part in spec.replace("|", ",").split(","):
        part = part.strip()
        if part:
            out.append(mat.parse_points(part))
    if not out:
        raise ValueError("empty line selection")
    return out


def _parse_shape(text: str):
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        parts.append(0)
    if len(parts) != 2:
        raise ValueError(f"shape {text!r} must be one or two integers")
    return tuple(parts)


# ---------------------------------------------------------------- verbs

def _cmd_info(args) -> dict:
    m = _load_matroid(args.matroid)
    return {
        "verb": "info",
        "name": m.name or args.matroid,
        "n": m.n,
        "rank": m.rank,
        "nontrivial_lines": [mat.format_line(L) for L in m.lines],
        "trivial_line_count": len(m.trivial_lines),
        "second_whitney": m.second_whitney(),
    }


def _text_info(r) -> list:
    return [
        f"{r['name']}: n = {r['n']}, rank {r['rank']}",
        "nontrivial lines: " + " ".join(r["nontrivial_lines"]),
        f"trivial lines: {r['trivial_line_count']}",
        f"dim A^2 = {r['second_whitney']}",
    ]


def _cmd_lines(args) -> dict:
    m = _load_matroid(args.matroid)
    return {
        "verb": "lines",
        "name": m.name or args.matroid,
        "nontrivial": [mat.format_line(L) for L in m.lines],
        "trivial": [mat.format_line(L) for L in m.trivial_lines],
    }


def _text_lines(r) -> list:
    out = [f"nontrivial ({len(r['nontrivial'])}): " + " ".join(r["nontrivial"])]
    out.append(f"trivial ({len(r['trivial'])}): " + " ".join(r["trivial"]))
    return out


def _incidence_report(args) -> tuple:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    lines = _parse_lines(args.lines, m)
    M = mat.incidence_matrix(m, lines, ring)
    return m, ring, lines, M


def _cmd_incidence(args) -> dict:
    m, ring, lines, M = _incidence_report(args)
    rep = {
        "verb": "incidence",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "lines": [mat.format_line(L) for L in lines],
        "shape": [len(M.rows), M.ncols],
        "rows": [[str(x) for x in row] for row in M.rows],
    }
    if ring.is_field:
        rep["rank"] = rank_field(M)
    return rep


def _text_incidence(r) -> list:
    out = [f"incidence matrix {r['shape'][0]}x{r['shape'][1]} over {r['ring']}"]
    out.extend("  " + " ".join(row) for row in r["rows"])
    if "rank" in r:
        out.append(f"rank {r['rank']}")
    return out


def _cmd_kernel(args) -> dict:
    m, ring, lines, M = _incidence_report(args)
    rep = {
        "verb": "kernel",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "lines": [mat.format_line(L) for L in lines],
    }
    if ring.is_field:
        basis = kernel_field(M)
        rep["rank"] = m.n - len(basis)
        rep["nullity"] = len(basis)
        rep["basis"] = [[str(x) for x in b] for b in basis]
    else:
        gens = kernel_modn(M)
        rep["generators"] = [[str(x) for x in g] for g in gens]
    return rep


def _text_kernel(r) -> list:
    if "rank" in r:
        out = [f"rank {r['rank']}, nullity {r['nullity']}"]
        out.extend("  " + _compact([int(x) if x.lstrip('-').isdigit() else x
                                    for x in b]) for b in r["basis"])
        return out
    out = [f"kernel generators over {r['ring']} (Howell form): {len(r['generators'])}"]
    out.extend("  " + ",".join(g) for g in r["generators"])
    return out


def _cmd_resonant(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    lam = parse_weight(args.weight, ring, m.n)
    rep = {
        "verb": "resonant",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "weight": [str(x) for x in lam],
        "resonant": osalg.is_resonant(lam, m, ring),
    }
    if ring.is_field:
        rep["dim_z"] = len(osalg.z_of(lam, m, ring))
    else:
        rep["kernel_generators"] = [[str(x) for x in g]
                                    for g in osalg.z_of(lam, m, ring)]
    return rep


def _text_resonant(r) -> list:
    word = "resonant" if r["resonant"] else "not resonant"
    if "dim_z" in r:
        return [f"{word}; dim Z = {r['dim_z']}"]
    return [word]


def _cmd_pair_graph(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    lam = parse_weight(args.weight, ring, m.n)
    eta = parse_weight(args.partner, ring, m.n)
    g = osalg.pair_graph(lam, eta, m, ring)
    return {
        "verb": "pair-graph",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "edges": [mat.format_line(e) for e in sorted(g.edges)],
        "blocks": [mat.format_line(b) for b in g.blocks],
        "cone_vertices": list(g.cone_vertices),
        "neighborly": is_neighborly(g, m),
    }


def _text_pair_graph(r) -> list:
    return [
        "edges: " + " ".join(r["edges"]),
        "blocks: " + " | ".join(r["blocks"]),
        "cone vertices: " + (" ".join(map(str, r["cone_vertices"])) or "none"),
        f"neighborly (clique-closure): {'yes' if r['neighborly'] else 'no'}",
    ]


def _cmd_neighborly(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    graphs = enumerate_neighborly(m, ring, partitions_only=not args.graphs,
                                  full_support=args.full_support, cap=args.cap)
    return {
        "verb": "neighborly",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "partitions_only": not args.graphs,
        "full_support": args.full_support,
        "count": len(graphs),
        "graphs": [repr(g) for g in graphs],
    }


def _text_neighborly(r) -> list:
    kind = "partitions" if r["partitions_only"] else "graphs"
    out = [f"{r['count']} neighborly {kind} with resonance over {r['ring']}"]
    out.extend("  " + g for g in r["graphs"])
    return out


def _graph_arg(args, m) -> Graph:
    return parse_graph(args.graph, m.n)


def _cmd_component(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    g = _graph_arg(args, m)
    scan = scan_component(g, m, ring, cap=args.cap)
    rep = scan.to_jsonable()
    rep["verb"] = "component"
    return rep


def _blocks_str(blocks) -> str:
    return "|".join(mat.format_line(b) for b in blocks)


def _text_component(r) -> list:
    out = [f"component {_blocks_str(r['graph'])} over {r['ring']}: "
           f"dim K = {r['dim_K']}",
           f"universe {r['universe']} projective classes, "
           f"{len(r['carrier'])} with dim Z >= 2 ({r['seconds']:.3f} s)"]
    for s in r["strata"]:
        out.append(f"  dim Z = {s['dim_Z']}: {s['count']}")
    if r["carrier"]:
        out.append("carrier: " + " ".join(_compact(c["point"])
                                          for c in r["carrier"]))
    return out


def _csv_component(r) -> list:
    out = ["dim_z,count"]
    out.extend(f"{s['dim_Z']},{s['count']}" for s in r["strata"])
    return out


def _cmd_directrices(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    g = _graph_arg(args, m)
    arr = directrices(g, m, ring)
    return {
        "verb": "directrices",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "graph": repr(g),
        "dim_k": arr.k.dim,
        "members": [{
            "blocks": [mat.format_line(b) for b in d.blocks],
            "dim": d.dim,
            "pole": d.is_pole,
            "basis": [_compact(v) for v in d.space.basis],
        } for d in arr.members],
        "poles": len(arr.poles),
        "proper": len(arr.proper_part),
    }


def _text_directrices(r) -> list:
    out = [f"dim K = {r['dim_k']}; {len(r['members'])} directrices "
           f"({r['poles']} poles, {r['proper']} proper)"]
    for d in r["members"]:
        tag = "pole" if d["pole"] else f"dim {d['dim']}"
        out.append(f"  blocks {' '.join(d['blocks'])}: {tag}, "
                   f"basis {' '.join(d['basis'])}")
    return out


def _cmd_depth(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    g = _graph_arg(args, m)
    xi = parse_weight(args.weight, ring, m.n)
    arr = directrices(g, m, ring)
    if not arr.k.contains(xi):
        raise ValueError("weight lies outside K(graph)")
    dep = arr.depth(xi)
    rep = {
        "verb": "depth",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "graph": repr(g),
        "weight": [str(x) for x in xi],
        "depth": dep,
        "in_carrier": dep >= 1,
    }
    if ring.is_field:
        rep["dim_z_gamma"] = len(z_gamma(xi, g, m, ring))
    return rep


def _text_depth(r) -> list:
    return [f"depth = {r['depth']}"]


def _cmd_schubert(args) -> dict:
    if args.k < 3:
        raise ValueError("need k >= 3 for lines in P^(k-1)")
    c = special(args.k, 0)
    factors = []
    if args.pieri:
        for part in args.pieri.split(","):
            s = int(part)
            factors.append(s)
            c = pieri(c, s)
    if args.times:
        shape = _parse_shape(args.times)
        c = product(c, SchubertClass.from_terms(args.k, {shape: 1}))
    return {
        "verb": "schubert",
        "k": args.k,
        "pieri": factors,
        "times": args.times,
        "result": c.poly_str(),
        "terms": [[list(s), coeff] for s, coeff in c.terms],
    }


def _text_schubert(r) -> list:
    return [r["result"]]


def _cmd_degree(args) -> dict:
    codims = [int(p) for p in args.codims.split(",")]
    deg = carrier_degree(codims, args.k, args.depth)
    rep = deg.to_jsonable()
    rep["verb"] = "degree"
    return rep


def _text_degree(r) -> list:
    return [f"degree = {r['degree']} (class {r['product']['poly']}; "
            f"target W{tuple(r['target'])})"]


def _cmd_scan(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    rep = scan_resonance(m, ring, cap=args.cap).to_jsonable()
    rep["verb"] = "scan"
    return rep


def _text_scan(r) -> list:
    # a field scan walks projective classes, a Z/N scan every nonzero tuple
    if make_ring(r["ring"]).is_field:
        counted = f"projective classes of {r['universe']}"
    else:
        counted = f"weights of {r['universe']} nonzero weights"
    out = [f"{r['matroid']} over {r['ring']}: {r['resonant_count']} resonant "
           f"{counted} ({r['seconds']:.3f} s)"]
    for grp in r["groups"]:
        pts = " ".join(_compact(p) for p in grp["points"])
        out.append(f"  {_blocks_str(grp['graph'])}: {pts}")
    return out


def _cmd_decompose(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    rep = decomposition_check(m, ring, cap=args.cap).to_jsonable()
    rep["verb"] = "decompose"
    return rep


def _text_decompose(r) -> list:
    out = [f"{r['matroid']} over {r['ring']}: scan {r['scan_count']} points, "
           f"component union {r['union_count']}",
           f"equal: {'yes' if r['equal'] else 'no'}; "
           f"nesting: {'ok' if r['nesting_ok'] else 'violated'}; "
           f"graphs: {len(r['graphs'])}"]
    if r["missing"]:
        out.append("missing from union: "
                   + " ".join(",".join(v) for v in r["missing"]))
    if r["extra"]:
        out.append("extra in union: "
                   + " ".join(",".join(v) for v in r["extra"]))
    return out


def _cmd_fit(args) -> dict:
    m = _load_matroid(args.matroid)
    ring = make_ring(args.ring)
    if not ring.is_field:
        raise ValueError("form fitting needs a field")
    g = _graph_arg(args, m)
    scan = scan_component(g, m, ring, cap=args.cap)
    pts = scan.carrier
    if not pts:
        raise ValueError("empty carrier; nothing to fit")
    if args.no_span:
        coords = list(pts)
        ambient = m.n
    else:
        S = span(ring, pts, m.n)
        coords = [S.coordinates_of(p) for p in pts]
        ambient = S.dim
    fit = fit_forms(coords, ring, args.degree)
    rep = fit.to_jsonable()
    rep.update({
        "verb": "fit",
        "matroid": m.name or args.matroid,
        "ring": ring.spec,
        "graph": repr(g),
        "carrier_points": len(pts),
        "span_dim": ambient,
    })
    return rep


def _text_fit(r) -> list:
    out = [f"carrier: {r['carrier_points']} points spanning P^{r['span_dim'] - 1}",
           f"degree-{r['degree']} forms vanishing on it: dim {r['dim']}"]
    for b in r["basis"]:
        terms = [f"{c}*x^{list(e)}" for c, e in zip(b, r["monomials"])
                 if c not in ("0", "0/1")]
        out.append("  " + " + ".join(terms))
    return out


_HANDLERS = {
    "info": (_cmd_info, _text_info),
    "lines": (_cmd_lines, _text_lines),
    "incidence": (_cmd_incidence, _text_incidence),
    "kernel": (_cmd_kernel, _text_kernel),
    "resonant": (_cmd_resonant, _text_resonant),
    "pair-graph": (_cmd_pair_graph, _text_pair_graph),
    "neighborly": (_cmd_neighborly, _text_neighborly),
    "component": (_cmd_component, _text_component),
    "directrices": (_cmd_directrices, _text_directrices),
    "depth": (_cmd_depth, _text_depth),
    "schubert": (_cmd_schubert, _text_schubert),
    "degree": (_cmd_degree, _text_degree),
    "scan": (_cmd_scan, _text_scan),
    "decompose": (_cmd_decompose, _text_decompose),
    "fit": (_cmd_fit, _text_fit),
}


def _add_common(p, fmt=("text", "json")):
    p.add_argument("--format", choices=fmt, default="text")


def _add_matroid_ring(p, ring_default=None):
    p.add_argument("--matroid", required=True,
                   help="catalog name or matroid JSON path")
    if ring_default is None:
        p.add_argument("--ring", required=True, help="Q, Fq, or Zn")
    else:
        p.add_argument("--ring", default=ring_default, help="Q, Fq, or Zn")


def _add_scan_opts(p):
    p.add_argument("--cap", type=int, default=None,
                   help="membership-test budget (RESONANCE_LAB_CAP overrides default)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resonance-lab",
        description="Exact tools for degree-one resonance of rank-3 matroids.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="fixture summary")
    p.add_argument("--matroid", required=True)
    _add_common(p)

    p = sub.add_parser("lines", help="nontrivial and trivial lines")
    p.add_argument("--matroid", required=True)
    _add_common(p)

    for verb, hlp in (("incidence", "line-sum incidence matrix"),
                      ("kernel", "kernel of the line-sum system")):
        p = sub.add_parser(verb, help=hlp)
        _add_matroid_ring(p)
        p.add_argument("--lines", default="all",
                       help='"all" (nontrivial) or comma list like 136,145')
        _add_common(p)

    p = sub.add_parser("resonant", help="test one weight for resonance")
    _add_matroid_ring(p)
    p.add_argument("--weight", required=True)
    _add_common(p)

    p = sub.add_parser("pair-graph", help="graph of a resonant pair")
    _add_matroid_ring(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--partner", required=True)
    _add_common(p)

    p = sub.add_parser("neighborly", help="enumerate neighborly graphs with resonance")
    _add_matroid_ring(p, ring_default="Q")
    p.add_argument("--graphs", action="store_true",
                   help="all neighborly graphs, not only partition-induced ones")
    p.add_argument("--full-support", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("component", help="scan one combinatorial component")
    _add_matroid_ring(p)
    p.add_argument("--graph", required=True, help='blocks like "12|34|56"')
    _add_scan_opts(p)
    _add_common(p, fmt=("text", "json", "csv"))

    p = sub.add_parser("directrices", help="directrix arrangement of a component")
    _add_matroid_ring(p)
    p.add_argument("--graph", required=True)
    _add_common(p)

    p = sub.add_parser("depth", help="depth of a weight in a component")
    _add_matroid_ring(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", required=True)
    _add_common(p)

    p = sub.add_parser("schubert", help="products in the Chow ring of G(2,k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pieri", default="",
                   help="comma list of special codimensions to multiply")
    p.add_argument("--times", default="",
                   help="extra factor as a shape, e.g. 2,0")
    _add_common(p)

    p = sub.add_parser("degree", help="expected carrier degree from directrix codimensions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--codims", required=True, help="comma list, codim of each directrix in K")
    p.add_argument("--depth", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("scan", help="exhaustive resonance scan")
    _add_matroid_ring(p)
    _add_scan_opts(p)
    _add_common(p)

    p = sub.add_parser("decompose", help="scan vs. union-of-components check")
    _add_matroid_ring(p)
    p.add_argument("--cap", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("fit", help="interpolate forms vanishing on a carrier")
    _add_matroid_ring(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--no-span", action="store_true",
                   help="fit in K coordinates instead of the carrier span")
    _add_scan_opts(p)
    _add_common(p)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, to_text = _HANDLERS[args.verb]
    try:
        report = handler(args)
    except (ValueError, OSError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif fmt == "csv":
        print("\n".join(_csv_component(report)))
    else:
        print("\n".join(to_text(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
