"""Run one workload of the coadorbits benchmark and print its metrics.

    python3 perfbench/run.py --workload orbit-rank --seed 1 --seconds 30 --trace 0

One process, no threads, one check at a time (a closed loop). Inputs are
generated from the seed before timing; each check's verdict is judged
outside its timed span, and every failed check is written to
perfbench/results/ as a replayable JSON record.

--trace 0 measures the end-to-end metrics: whole passes over the generated
rounds of checks end at the pass boundary nearest to --seconds, and every
execution of every check is a latency sample. Times are scaled to the
speed of a reference machine, measured by the kernel in reference.py,
timed between checks and around each set-up; the run record keeps the
unscaled values too. --trace 1 runs each check of
the workload's first rounds untraced and traced (tracing.py), back to back,
and reports the per-layer metrics; the spans and the exact counters go to
perfbench/results/. The last line of standard output is the result object;
the line before it is the run record (machine, source, tail percentile,
fail ratio, units and directions).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import reference
import tracing
from source import ROOT, SRC, use_checkout_source

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

# Fresh processes timed for setup_s, before and after the timed run; the
# median is reported. The machine's speed drifts over seconds, so the
# probes are not all taken in one stretch.
SETUP_PROBES = (6, 6)
# The untraced run times the reference kernel after the first check that
# ends this long after the last kernel run, and scales each check by the
# median of the nearest REF_WINDOW kernel times.
REF_EVERY_NS = 20_000_000
REF_WINDOW = 9

END_TO_END = {
    "setup_s": ("s", "lower"),
    "checks_per_s": ("1/s", "higher"),
    "check_p50_ms": ("ms", "lower"),
    "check_tail_ms": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

_TIMED_LAYERS = (
    "functionals.coadjoint_apply_one", "functionals.coadjoint_apply", "functionals.skew_form",
    "functionals.orbit_dimension", "functionals.radical_basis", "linalg.rank",
    "linalg.kernel_basis", "linalg.det", "polynomials.Polynomial.evaluate",
    "polynomials.Polynomial.__mul__", "orbits.orbit_chart", "orbits.contains",
    "orbits.chart_point", "orbits.construct_group_word", "basic.decompose",
    "basic.derived_set", "basic.s_of",
)
# Exact for a given seed: a later change that did the same work reports the same values.
COUNTERS = tuple(f"{layer}.calls" for layer in _TIMED_LAYERS) + (
    "orbits.singular_set.calls", "roots.structure_table.entries", "functionals.skew_form.nnz",
    "linalg.rank.cells", "linalg.rank.nnz", "polynomials.Polynomial.evaluate.terms",
    "orbits.orbit_chart.terms", "basic.chains_in.chains", "basic.special_pair_tests",
    "functionals.max_coef_bits",
)
CACHES = (
    ("cache.system.hit_ratio", "coadorbits.roots", "_system"),
    ("cache.structure_table.hit_ratio", "coadorbits.roots", "_structure_table"),
    ("cache.ad_chains.hit_ratio", "coadorbits.functionals", "_ad_chains"),
    ("cache.singular_data.hit_ratio", "coadorbits.orbits", "_singular_data"),
)
PER_LAYER = {
    "roots.structure_table.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in _TIMED_LAYERS},
    **{name: ("bits" if name.endswith("_bits") else "count", "lower") for name in COUNTERS},
    "functionals.density": ("ratio", "lower"),
    "orbits.contains.hit_ratio": ("ratio", "higher"),
    **{name: ("ratio", "higher") for name, _, _ in CACHES},
    "oracle.inputs_s": ("s", "lower"),
    "trace.untraced_checks_per_s": ("1/s", "higher"),
    "trace.traced_checks_per_s": ("1/s", "higher"),
    "trace.overhead_checks_per_s": ("1/s", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}


def _source_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest()}


def _setup_times(workload: str, probes: int) -> list[tuple[float, int]]:
    """Set-up times of fresh processes, from before `import coadorbits` to warm caches.

    Each is paired with the reference kernel's time around it, in ns.
    """
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe failed with code {done.returncode}")
        seconds, ref_ns = done.stdout.split()[-2:]
        times.append((float(seconds), int(ref_ns)))
    return times


def tail(latencies_ns: list[int], percentile: float) -> float:
    """The nearest-rank percentile of the latencies, in ms."""
    ordered = sorted(latencies_ns)
    return ordered[math.ceil(percentile / 100 * len(ordered)) - 1] / 1e6


class Failures:
    """Failed checks as replayable JSON records, one per seed stamp."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.records: dict[str, dict] = {}

    def add(self, record: dict, reason: str) -> None:
        record["reason"] = reason
        self.records.setdefault(str(record.get("seed")) + ":" + str(record.get("n")), record)

    def write(self) -> None:
        if self.records:
            with open(self.path, "w", encoding="utf-8") as out:
                for record in self.records.values():
                    out.write(json.dumps(record, sort_keys=True) + "\n")


def _samples() -> array:
    # 8 bytes a sample, not a Python int's 36: the samples grow with the
    # number of passes, and they count in the run's peak memory.
    return array("q")


@dataclass
class Pass:
    latencies: array = field(default_factory=_samples)  # ns: every untraced execution
    traced: array = field(default_factory=_samples)     # ns: every traced execution
    refs: list = field(default_factory=list)            # (latencies before it, kernel ns)
    next_ref_ns: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0

    def time_reference(self) -> None:
        t0 = perf_counter_ns()
        reference.kernel()
        now = perf_counter_ns()
        self.refs.append((len(self.latencies), now - t0))
        self.next_ref_ns = now + REF_EVERY_NS

    def scaled(self) -> array:
        """Every untraced latency scaled to the reference machine's speed, in ns.

        A latency is scaled by the median of the REF_WINDOW kernel times
        nearest to the last kernel run before it.
        """
        kernel_ns = [ns for _, ns in self.refs]
        half = REF_WINDOW // 2
        out = array("d")
        for k, (start, _) in enumerate(self.refs):
            end = self.refs[k + 1][0] if k + 1 < len(self.refs) else len(self.latencies)
            lo = max(0, min(k - half, len(kernel_ns) - REF_WINDOW))
            factor = reference.NOMINAL_NS / statistics.median(kernel_ns[lo:lo + REF_WINDOW])
            out.extend(ns * factor for ns in self.latencies[start:end])
        return out


def checks_per_s(latencies) -> float:
    return len(latencies) / (sum(latencies) / 1e9)


def run_rounds(workload, rounds: list[list], failures: Failures, *, seconds: float = 0.0,
               tracer=None) -> Pass:
    """Run checks one at a time, in order, in whole passes over `rounds`.

    The run ends at the pass boundary nearest to `seconds`, after one pass at
    least, so every check runs the same number of times. Without a tracer,
    the reference kernel is timed first and then between checks, every
    REF_EVERY_NS. With a tracer, each check runs untraced and traced back to
    back, in alternating order, so that the machine's drifting speed falls
    on both alike.
    """
    out = Pass()
    state: dict = {}
    if tracer is None:
        reference.kernel()
        out.time_reference()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for checks in rounds:
            _run_round(workload, checks, state, failures, out, tracer)
        out.passes += 1
        now = perf_counter()
        if now + (now - pass_start) / 2 >= start + seconds:
            return out


def _run_round(workload, checks: list, state: dict, failures: Failures, out: Pass,
               tracer) -> None:
    collected = [] if workload.round_verdicts else None
    for k, check in enumerate(checks):
        if tracer is None:
            if perf_counter_ns() >= out.next_ref_ns:
                out.time_reference()
            ok, result = _attempt(check, state, failures, out, out.latencies)
        else:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        ok, result = _attempt(check, state, failures, out, out.traced, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    ok, result = _attempt(check, state, failures, out, out.latencies)
        if ok and collected is not None:
            collected.append((check, result))
    if collected is not None:
        for record, reason in workload.round_verdicts(collected):
            out.attempted += 1
            if reason is not None:
                out.failed += 1
                failures.add(dict(record, seed=f"pass {out.passes}"), reason)


def _attempt(check, state: dict, failures: Failures, out: Pass, latencies: array,
             tracer=None) -> tuple[bool, object]:
    """Execute one check, timed into `latencies`, then judge it: (passed, result)."""
    result = reason = None
    t0 = perf_counter_ns()
    try:
        if tracer is None:
            result = check.execute(state)
        else:
            result = tracer.run_check(len(latencies), check.execute, state)
    except Exception:
        reason = "raised " + traceback.format_exc()
    latencies.append(perf_counter_ns() - t0)
    out.attempted += 1
    if reason is None:
        try:
            reason = check.verdict(result)
        except Exception:
            reason = "verdict raised " + traceback.format_exc()
    if reason is not None:
        out.failed += 1
        failures.add(check.record(result), reason)
    return reason is None, result


def _layers_self_s(tracer) -> float:
    return sum(s for name, (_, s) in tracer.layer_stats().items() if name != tracer.CHECK_SPAN)


def _per_layer(tracer, untraced_ns: int, traced_ns: int, checks: int, pass_self_s: float,
               wrapper_s: float, inputs_s: float) -> dict[str, float]:
    stats = tracer.layer_stats()
    out: dict[str, float] = {}
    for layer in ("roots.structure_table", "orbits.singular_set") + _TIMED_LAYERS:
        out[f"{layer}.calls"], out[f"{layer}.self_s"] = stats[layer]
    for name in COUNTERS:
        out.setdefault(name, tracer.counters.get(name, 0))
    out["functionals.density"] = tracer.density_sum / max(tracer.density_count, 1)
    contains_calls = stats["orbits.contains"][0]
    out["orbits.contains.hit_ratio"] = (tracer.counters.get("orbits.contains.hits", 0)
                                        / max(contains_calls, 1))
    for name, module, attr in CACHES:
        info = getattr(sys.modules[module], attr).cache_info()
        out[name] = info.hits / max(info.hits + info.misses, 1)
    out["oracle.inputs_s"] = inputs_s
    untraced = checks / (untraced_ns / 1e9)
    traced = checks / (traced_ns / 1e9)
    out["trace.untraced_checks_per_s"] = untraced
    out["trace.traced_checks_per_s"] = traced
    out["trace.overhead_checks_per_s"] = untraced - traced
    # The layers' self time, less the cost of the wrappers nested in them,
    # against the untraced time: the share of the run no layer accounts for.
    out["trace.unaccounted_share"] = (abs(untraced_ns / 1e9 - (pass_self_s - wrapper_s))
                                      / (untraced_ns / 1e9))
    return out


def measure(workload, seed: int, seconds: float, trace: bool, results: Path) -> tuple[dict, dict]:
    """Run the workload; return (result object, run record). Files go to `results`."""
    import workloads

    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}"
    failures = Failures(results / f"failures-{tag}-trace{int(trace)}.jsonl")
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), **_source_record(),
    }

    tracer = tracing.Tracer() if trace else None
    if tracer is None:
        setup = _setup_times(workload.name, SETUP_PROBES[0])
        workloads.warm(workload)
    else:
        tracer.install()
        tracer.active = True
        workloads.warm(workload)
        tracer.active = False
        tracer.uninstall()

    t0 = perf_counter()
    rounds = workload.make_inputs(seed, workload.rounds)
    inputs_s = perf_counter() - t0
    record["inputs_s"] = inputs_s
    # Inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    if tracer is None:
        t0 = perf_counter()
        run = run_rounds(workload, rounds, failures, seconds=seconds)
        record["wall_s"] = perf_counter() - t0
        # Read before the percentiles below sort the samples into a list.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += _setup_times(workload.name, SETUP_PROBES[1])
        scaled = run.scaled()
        metrics = {
            "setup_s": statistics.median(t * reference.NOMINAL_NS / ns for t, ns in setup),
            "checks_per_s": checks_per_s(scaled),
            "check_p50_ms": statistics.median(scaled) / 1e6,
            "check_tail_ms": tail(scaled, workload.tail_percentile),
            "peak_rss_mib": peak_rss_mib,
        }
        kernel_ns = [ns for _, ns in run.refs]
        record["reference"] = {
            "nominal_ns": reference.NOMINAL_NS, "runs": len(kernel_ns),
            "median_ns": statistics.median(kernel_ns),
            "quartiles_ns": statistics.quantiles(kernel_ns, n=4) if len(kernel_ns) > 1 else None,
        }
        record["unscaled"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "checks_per_s": checks_per_s(run.latencies),
            "check_p50_ms": statistics.median(run.latencies) / 1e6,
            "check_tail_ms": tail(run.latencies, workload.tail_percentile),
        }
        record["setup_samples"] = [{"s": t, "kernel_ns": ns} for t, ns in setup]
        specs = END_TO_END
        record["tail_percentile"] = workload.tail_percentile
    else:
        # The untraced executions are the reference the tracing overhead
        # and the layers' self times are measured against.
        trace_rounds = rounds[:workload.trace_rounds]
        before = _layers_self_s(tracer)
        first_span = len(tracer.span_name)
        run = run_rounds(workload, trace_rounds, failures, tracer=tracer)
        pass_self_s = _layers_self_s(tracer) - before
        span_cost_ns = tracing.span_cost_ns()
        wrapper_s = tracer.nested_spans(first_span) * span_cost_ns / 1e9
        untraced_ns, traced_ns = sum(run.latencies), sum(run.traced)
        metrics = _per_layer(tracer, untraced_ns, traced_ns, len(run.traced),
                             pass_self_s, wrapper_s, inputs_s)
        record["trace_breakdown_s"] = {
            "untraced": untraced_ns / 1e9, "traced": traced_ns / 1e9,
            "layers_self": pass_self_s,
            "nested_wrappers": wrapper_s,
            "checks_self": tracer.layer_stats()[tracer.CHECK_SPAN][1],
        }
        specs = PER_LAYER
        tracer.write_spans(results / f"spans-{tag}.tsv")
        counters = {name: metrics[name] for name in COUNTERS}
        with open(results / f"counters-{tag}.json", "w", encoding="utf-8") as out:
            json.dump({"workload": workload.name, "seed": seed, "rounds": len(trace_rounds),
                       "counters": counters}, out, indent=1, sort_keys=True)
        record["spans"] = len(tracer.span_name)
        record["span_cost_ns"] = span_cost_ns
    gc.unfreeze()
    failures.write()
    record.update(passes=run.passes, samples=len(run.latencies),
                  attempted=run.attempted, failed=run.failed,
                  fail_ratio=run.failed / run.attempted)
    record["metrics"] = {name: {"value": metrics[name], "unit": unit, "better": better}
                         for name, (unit, better) in specs.items()}
    with open(results / f"run-{tag}-trace{int(trace)}.json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in specs.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    result, record = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), RESULTS)
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
