"""Smoke test of the benchmark at tiny scale; exits non-zero on the first failed claim.

    python3 perfbench/smoke.py

It claims that every workload runs without failures, traced and untraced;
that every metric named in BENCHMARK.json is emitted with its unit and
direction; that the exact counters repeat under the same seed; that a
check fed a deliberately wrong expected value is counted as one failure
and written as a record that replays; that the orbit-rank certificate
rejects a wrong dimension even when the radical basis agrees with it; and
that latencies are scaled by the reference kernel's speed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import sys

from source import ROOT, use_checkout_source

use_checkout_source()

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coadorbits import basic, functionals  # noqa: E402

RESULTS = run.RESULTS / "smoke"
SEED = 7

TINY = {
    "orbit-sampling": dict(make_inputs=lambda seed, rounds: [
        checks[:40] for checks in workloads.orbit_sampling_inputs(seed, rounds)], rounds=1),
    "orbit-rank": dict(make_inputs=functools.partial(
        workloads.orbit_rank_inputs, random_systems=(("A", 5), ("B", 3)),
        orbit_systems=(("A", 5), ("D", 4))), rounds=1),
    "basic-scan": dict(make_inputs=functools.partial(workloads.basic_scan_inputs, ns=(4, 5)),
                       rounds=1),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def claim(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def check_metrics(specs: list[dict], result: dict, record: dict, label: str) -> None:
    emitted = result["metrics"]
    claim(set(emitted) == {spec["name"] for spec in specs},
          f"{label}: the metrics emitted are exactly those in BENCHMARK.json")
    for spec in specs:
        name = spec["name"]
        claim(emitted[name]["unit"] == spec["unit"]
              and record["metrics"][name]["better"] == spec["better"]
              and isinstance(emitted[name]["value"], (int, float)),
              f"{label}: {name} has value, unit {spec['unit']} and direction {spec['better']}")


def wrong_expectation() -> None:
    """A decompose check told to expect the wrong phi fails once, and its record replays."""
    checks = [c for c in workloads.orbit_sampling_inputs(SEED, 1)[0] if c.name == "decompose"]
    good = checks[:3]
    base = next(c for c in checks if c.phi)
    bad = dataclasses.replace(base, stamp=base.stamp + ":wrong",
                              phi={root: value + 1 for root, value in base.phi.items()})
    failures = run.Failures(RESULTS / "failures-wrong-expectation.jsonl")
    done = run.run_rounds(tiny("orbit-sampling"), [good + [bad]], failures)
    claim(done.attempted == len(good) + 1 and done.failed == 1,
          f"a wrong expected value counts one failure ({done.failed} of {done.attempted})")
    failures.write()
    with open(failures.path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    claim(len(records) == 1 and records[0]["seed"] == bad.stamp
          and {"kind", "n", "word", "functional", "reason"} <= set(records[0]),
          "the failure is written with its seed stamp, kind, n and inputs")
    record = records[0]
    start = functionals.functional_from_json(record["functional"])
    word = functionals.word_from_json(record["word"])
    got = basic.decompose(functionals.coadjoint_apply(word, start))
    claim({str(r): str(v) for r, v in got.map.phi.items()} != record["phi"],
          "replaying the record reproduces the disagreement")


def rank_certificate() -> None:
    """Wrong orbit-rank results whose rank and radical agree with each other still fail."""
    checks = workloads.orbit_rank_inputs(SEED, 1, random_systems=(("A", 5), ("B", 3)),
                                         orbit_systems=())[0]
    for check in checks:
        dim, radical = check.execute({})
        claim(check.verdict((dim, radical)) is None, f"{check.stamp}: the true result passes")
        claim(check.verdict((dim + 2, radical[:-2])) is not None,
              f"{check.stamp}: dimension + 2 with a correct, shorter radical fails")
        claim(check.verdict((dim - 2, radical + [radical[0]] * 2)) is not None,
              f"{check.stamp}: dimension - 2 with repeated radical vectors fails")


def kernel_scaling() -> None:
    """Latencies keep their value at the nominal kernel time and halve when it doubles."""
    for kernel_ns, factor in ((reference.NOMINAL_NS, 1.0), (2 * reference.NOMINAL_NS, 0.5)):
        done = run.Pass()
        done.latencies.extend((1000, 3000, 5000, 7000))
        done.refs = [(0, kernel_ns), (1, kernel_ns), (3, kernel_ns)]
        claim(list(done.scaled()) == [ns * factor for ns in done.latencies],
              f"latencies timed while the kernel takes {kernel_ns} ns are scaled by {factor}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    claim([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")
    shutil.rmtree(RESULTS, ignore_errors=True)
    for name in workloads.WORKLOADS:
        result, record = run.measure(tiny(name), SEED, 0.2, False, RESULTS)
        claim(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{name}: untraced run passes all {result['attempted']} checks")
        check_metrics(bench["end_to_end"], result, record, f"{name} untraced")
        counters = []
        for _ in range(2):
            result, record = run.measure(tiny(name), SEED, 0.2, True, RESULTS)
            claim(result["correct"], f"{name}: traced run passes all {result['attempted']} checks")
            with open(RESULTS / f"counters-{name}-seed{SEED}.json", encoding="utf-8") as handle:
                counters.append(json.load(handle)["counters"])
        check_metrics(bench["per_layer"], result, record, f"{name} traced")
        claim(counters[0] == counters[1] and any(counters[0].values()),
              f"{name}: the exact counters repeat under the same seed")
    wrong_expectation()
    rank_certificate()
    kernel_scaling()
    return 0


if __name__ == "__main__":
    sys.exit(main())
