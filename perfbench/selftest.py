"""Self-test of the benchmark harness on tiny inputs (under a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the result object
has exactly the contract's keys and every metric named in BENCHMARK.json
with its unit, and that the tiny run passes its pins.  It then checks that
a deliberately wrong pin and a scan that drops its resonant weights are
reported as failures, and that tracing leaves the program unwrapped.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import run

problems = []


def expect(cond: bool, msg: str) -> None:
    print(("ok    " if cond else "FAIL  ") + msg)
    if not cond:
        problems.append(msg)


def check_result(res: dict, units: dict, label: str) -> None:
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
           f"{label}: correct, {res['failed']} of {res['attempted']} failed")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == units, f"{label}: every metric present with its unit")
    expect(all(isinstance(v["value"], float) for v in res["metrics"].values()),
           f"{label}: metric values are numbers")


def main() -> int:
    run.import_program()
    import workloads
    from resonance_lab import oracle, osalg, rings

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json lists the end-to-end metrics")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json lists the per-layer metrics")

    originals = (oracle.scan_resonance, osalg.z_of, rings.smith_normal_form,
                 oracle.is_resonant)
    for name in workloads.NAMES:
        check_result(run.run(name, 0, 0.5, False, tiny=True), run.END_TO_END,
                     f"{name} untraced")
        check_result(run.run(name, 0, 0.5, True, tiny=True), run.PER_LAYER,
                     f"{name} traced")
    expect((oracle.scan_resonance, osalg.z_of, rings.smith_normal_form,
            oracle.is_resonant) == originals, "tracing restores the program")

    job = workloads.build("field-scan", 0, tiny=True).jobs[0]
    bad = dict(job.pin, points=job.pin["points"] + 1)
    res = run.run("field-scan", 0, 0.5, False, tiny=True, pins={job.name: bad})
    expect(not res["correct"] and res["failed"] >= 1,
           "a wrong pin is reported as a failure")

    rep = job.call()
    dropped = dataclasses.replace(rep, points=())
    expect(job.check(rep, random.Random(0)) == [],
           "the sampling check passes the real scan")
    expect(len(job.check(dropped, random.Random(0))) > 0,
           "the sampling check catches a scan that drops resonant weights")

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
