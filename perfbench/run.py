"""Layered benchmark of the exact resonance scans.

    python3 perfbench/run.py --workload field-scan --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` there and nowhere else.  Each run

* times `setup_s` as the median wall time of several fresh processes that
  import the package and build the workload's fixtures, rings and tables;
* warms up on the workload's tiny inputs, then repeats passes over the
  workload's jobs (`jobs=1`, one process) for about `--seconds` seconds;
* checks every job of every pass against its pinned output and against the
  first pass, and afterwards runs the seeded sampling checks;
* with `--trace 1`, spends half the time untraced and half with the layer
  functions wrapped by `spans.Tracer`, and reports per-layer metrics plus
  the tracing overhead; the spans go to `perfbench/out/`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
`python3 perfbench/selftest.py` checks the harness itself on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 7

# The metrics of the result line.  The pass-time tail and the fail ratio
# are printed by name too, but kept out of the result line: a run has too
# few passes for a steady tail, and the fail ratio is 0 when all is well
# (the result line carries it as failed / attempted).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "weights_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Matrix shapes (rows x cols, field) the kernel sees: the deletedB3 d_lambda
# system and the Hessian component system on field-scan; the full-scan and
# component systems inside decomposition_check on decompose.
KERNEL_SHAPES = (
    "19x8.F3", "19x8.F4", "48x6.F9",
    "11x6.F3", "11x6.F4", "15x2.F3", "15x3.F4", "15x5.F3", "15x5.F4",
    "15x6.F3", "15x6.F4", "15x7.F3", "19x8.F2", "21x3.F3", "21x6.F3",
    "21x7.F3", "26x7.F2", "27x7.F2", "28x5.F2", "28x7.F2", "28x8.F2",
    "29x3.F2", "29x4.F2", "29x7.F2",
)

PER_LAYER = {
    "kernels.scan_nullities.calls": "count",
    "kernels.candidates": "count",
    "kernels.scan_nullities.self_s": "s",
    **{f"kernels.us_per_candidate.{s}": "us" for s in KERNEL_SHAPES},
    "kernels.build_digit_map.calls": "count",
    "kernels.build_digit_map.self_s": "s",
    **{f"rings.{f}.{k}": u
       for f in ("smith_normal_form", "howell_form", "kernel_modn", "kernel_field")
       for k, u in (("calls", "count"), ("us_per_call", "us"))},
    **{f"osalg.{f}.{k}": u
       for f in ("z_of", "is_resonant", "pair_graph")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "oracle.scan_resonance.self_s": "s",
    "oracle.scan_component.self_s": "s",
    "oracle.resonant_ratio": "ratio",
    "neighborly.enumerate_neighborly.self_s": "s",
    "neighborly.k_gamma.calls": "count",
    "neighborly.graphs_tested": "count",
    "neighborly.yield_ratio": "ratio",
    "graphs.is_neighborly.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import resonance_lab from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import resonance_lab
    except ImportError as exc:
        print(f"perfbench: cannot import resonance_lab from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(resonance_lab.__file__).resolve().is_relative_to(src):
        print(f"perfbench: resonance_lab resolved outside {src}: "
              f"{resonance_lab.__file__}", file=sys.stderr)
        sys.exit(2)
    return resonance_lab


def environment() -> dict:
    import numpy
    from resonance_lab import _kernels, oracle
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cap = os.environ.get("RESONANCE_LAB_CAP")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": has_numba,
        "backend": _kernels.backend_name(),
        "jobs": 1,
        "cap": int(cap) if cap else oracle.DEFAULT_CAP,
        "machine": platform.machine(),
    }


class Ledger:
    """Jobs and checks attempted, and the ones that raised or mismatched."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def run_pass(workload, ledger, first, job_walls, tracer=None) -> tuple:
    """One pass over the jobs; returns (wall seconds, reports) and appends
    each job's wall time to `job_walls[job name]`."""
    import workloads
    reports = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        span = tracer.open(f"bench.{job.name}") if tracer else None
        t1 = time.perf_counter()
        try:
            reports.append(job.call())
        except Exception:
            reports.append(traceback.format_exc())
        finally:
            job_walls.setdefault(job.name, []).append(time.perf_counter() - t1)
            if tracer:
                tracer.close(span)
    wall = time.perf_counter() - t0
    for i, (job, rep) in enumerate(zip(workload.jobs, reports)):
        if isinstance(rep, str):
            ledger.record(job.name, [f"raised\n{rep}"])
            continue
        problems = []
        got = job.digest(rep)
        if got != job.pin:
            problems.append(f"output {got} != pinned {job.pin}")
        fp = workloads.fingerprint(rep)
        if first[i] is None:
            first[i] = fp
        elif fp != first[i]:
            problems.append("report differs from the first pass")
        ledger.record(job.name, problems)
    return wall, reports


def timed_passes(workload, ledger, seconds, first, job_walls, min_passes=1,
                 tracer=None):
    """Passes until the next one would overrun `seconds` (at least `min_passes`)."""
    walls, last = [], None
    start = time.perf_counter()
    while True:
        wall, reports = run_pass(workload, ledger, first, job_walls, tracer)
        walls.append(wall)
        if all(not isinstance(r, str) for r in reports):
            last = reports
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + wall > seconds:
            return walls, last


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with too few samples for any percentile above the
    median to qualify, the slowest sample."""
    xs = sorted(values)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def setup_probe(workload_name: str, seed: int) -> None:
    """Body of a fresh set-up process: import, fixtures, rings, tables."""
    import_program()
    import workloads
    wl = workloads.build(workload_name, seed)
    for ring in wl.rings:
        ring.tables()


def measure_setup(workload_name: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def run_checks(workload, reports, seed, ledger) -> None:
    for job, rep in zip(workload.jobs, reports):
        if job.check is None:
            continue
        rng = random.Random(f"{seed}:check:{job.name}")
        try:
            problems = job.check(rep, rng)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        ledger.record(f"check {job.name}", problems)


def per_pass(total: float, passes: int) -> float:
    return total / passes if passes else 0.0


def layer_metrics(tracer, passes, overhead) -> tuple:
    """Per-layer metrics from the spans of `passes` traced passes, and the
    per-candidate cost of kernel shapes outside KERNEL_SHAPES."""
    s = tracer.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)
    out = {}

    scans = tracer.notes_for("kernels.scan_nullities")
    out["kernels.scan_nullities.calls"] = per_pass(len(scans), passes)
    out["kernels.candidates"] = per_pass(sum(n[3] for _, n in scans), passes)
    out["kernels.scan_nullities.self_s"] = per_pass(
        get("kernels.scan_nullities", "self_s"), passes)
    by_shape: dict = {}
    for i, (rows, cols, ring, cands) in scans:
        key = f"{rows}x{cols}.{ring}"
        t, c = by_shape.get(key, (0.0, 0))
        by_shape[key] = (t + tracer.ends[i] - tracer.starts[i], c + cands)
    for shape in KERNEL_SHAPES:
        t, c = by_shape.get(shape, (0.0, 0))
        out[f"kernels.us_per_candidate.{shape}"] = 1e6 * t / c if c else 0.0
    out["kernels.build_digit_map.calls"] = per_pass(
        get("kernels.build_digit_map", "calls"), passes)
    out["kernels.build_digit_map.self_s"] = per_pass(
        get("kernels.build_digit_map", "self_s"), passes)

    for f in ("smith_normal_form", "howell_form", "kernel_modn", "kernel_field"):
        calls = get(f"rings.{f}", "calls")
        out[f"rings.{f}.calls"] = per_pass(calls, passes)
        out[f"rings.{f}.us_per_call"] = (
            1e6 * get(f"rings.{f}", "total_s") / calls if calls else 0.0)
    for f in ("z_of", "is_resonant", "pair_graph"):
        out[f"osalg.{f}.calls"] = per_pass(get(f"osalg.{f}", "calls"), passes)
        out[f"osalg.{f}.self_s"] = per_pass(get(f"osalg.{f}", "self_s"), passes)

    for f in ("scan_resonance", "scan_component"):
        out[f"oracle.{f}.self_s"] = per_pass(get(f"oracle.{f}", "self_s"), passes)
    found = [n for f in ("oracle.scan_resonance", "oracle.scan_component")
             for _, n in tracer.notes_for(f)]
    universe = sum(u for u, _ in found)
    out["oracle.resonant_ratio"] = (
        sum(p for _, p in found) / universe if universe else 0.0)

    out["neighborly.enumerate_neighborly.self_s"] = per_pass(
        get("neighborly.enumerate_neighborly", "self_s"), passes)
    out["neighborly.k_gamma.calls"] = per_pass(get("neighborly.k_gamma", "calls"), passes)
    tested = get("graphs.is_neighborly", "calls")
    kept = sum(n for _, n in tracer.notes_for("neighborly.enumerate_neighborly"))
    out["neighborly.graphs_tested"] = per_pass(tested, passes)
    out["neighborly.yield_ratio"] = kept / tested if tested else 0.0
    out["graphs.is_neighborly.self_s"] = per_pass(
        get("graphs.is_neighborly", "self_s"), passes)
    out["trace.overhead_ratio"] = overhead

    extra = {f"kernels.us_per_candidate.{k}": 1e6 * t / c
             for k, (t, c) in by_shape.items() if k not in KERNEL_SHAPES and c}
    return out, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_program()
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload_name, seed, seconds, trace, tiny=False, pins=None) -> dict:
    """One benchmark run; prints the human-readable lines and returns the
    result object.  `tiny` and `pins` serve the self-test."""
    import workloads
    from spans import Tracer

    env = environment()
    setup = [] if trace else measure_setup(workload_name, seed)
    wl = workloads.build(workload_name, seed, tiny=tiny)
    if pins:
        for job in wl.jobs:
            job.pin = pins.get(job.name, job.pin)
    ledger = Ledger()
    warm = workloads.Workload("warmup", wl.warmup)
    run_pass(warm, ledger, [None] * len(warm.jobs), {})
    first = [None] * len(wl.jobs)
    job_walls: dict = {}
    if trace:
        walls, reports = timed_passes(wl, ledger, seconds / 2, first, job_walls)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_reports = timed_passes(wl, ledger, seconds / 2, first,
                                                  {}, tracer=tracer)
        finally:
            tracer.uninstall()
        reports = traced_reports or reports
    else:
        walls, reports = timed_passes(wl, ledger, seconds, first, job_walls,
                                      min_passes=2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if reports:
        run_checks(wl, reports, seed, ledger)

    wall = statistics.median(walls)
    info = {"workload": workload_name, "seed": seed, "trace": int(trace),
            "tiny": tiny, "passes": len(walls), "pass_walls_s": walls,
            "env": env, "job_walls_s": job_walls}
    if trace:
        overhead = statistics.median(traced) / wall
        metrics, extra = layer_metrics(tracer, len(traced), overhead)
        units = PER_LAYER
        info.update(traced_passes=len(traced), traced_walls_s=traced,
                    spans=len(tracer.names), other_shapes_us=extra)
    else:
        universe = sum(j.universe(r) for j, r in zip(wl.jobs, reports)) if reports else 0
        tail_s, tail_pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "weights_per_s": universe / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        info.update(setup_samples_s=setup, wall_tail_s=tail_s,
                    tail_percentile=tail_pct, weights_per_pass=universe)
    fail_ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    info.update(attempted=ledger.attempted, failed=ledger.failed,
                fail_ratio=fail_ratio, problems=ledger.problems)

    print(f"workload {workload_name}  seed {seed}  trace {int(trace)}  "
          f"passes {len(walls)}" + (f" + {len(traced)} traced" if trace else ""))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if not trace:
        print(f"  {'wall_tail_s':42s} {tail_s:14.6g} s"
              f"  (p{tail_pct:.0f} of {len(walls)} passes)")
    print(f"  {'fail_ratio':42s} {fail_ratio:14.6g} ratio"
          f"  ({ledger.failed} of {ledger.attempted} jobs and checks)")
    for p in ledger.problems:
        print(f"  FAIL {p}", file=sys.stderr)
    print("env " + json.dumps(env))

    if not tiny:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
        info["metrics"] = metrics
        stem.with_suffix(".json").write_text(json.dumps(info, indent=1))
        if trace:
            tracer.dump(stem.with_name(stem.name + "-spans.json"))

    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
