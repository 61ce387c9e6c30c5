"""Spans and counters of the traced run, recorded from outside the package.

`Tracer.install` replaces each public function or method named in LAYERS by
a wrapper, in its defining module and wherever another package module bound
the same object under a name (`functionals.rank`, `basic.det`, ...), and
`uninstall` puts the originals back. While the tracer is active a wrapper
records a span (name, start, end, parent span, check id) in memory, adds the
span's duration minus the time its child spans cover to the layer's self
time, and updates the layer's counters. Counter bookkeeping is charged to
no layer: its time is added to the parent's child time. The spans are
written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns


def _observe_functional(tracer: "Tracer", f) -> None:
    values = f.values
    tracer.density_sum += len(values) / len(f.system.roots)
    tracer.density_count += 1
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values.values()), default=0)
    if bits > tracer.counters["functionals.max_coef_bits"]:
        tracer.counters["functionals.max_coef_bits"] = bits


def _table_entries(tracer, args, table) -> None:
    key = (table.system.kind, table.system.n)
    if key not in tracer.tables_seen:
        tracer.tables_seen.add(key)
        tracer.counters["roots.structure_table.entries"] += len(table.table)


def _applied(tracer, args, f) -> None:
    _observe_functional(tracer, f)


def _skew_form(tracer, args, form) -> None:
    _observe_functional(tracer, args[0])
    tracer.counters["functionals.skew_form.nnz"] += sum(1 for row in form.rows for x in row if x)


def _rank_input(tracer, args, _) -> None:
    rows = args[0]
    tracer.counters["linalg.rank.cells"] += len(rows) * len(rows[0]) if rows else 0
    tracer.counters["linalg.rank.nnz"] += sum(1 for row in rows for x in row if x)


def _evaluated_terms(tracer, args, _) -> None:
    tracer.counters["polynomials.Polynomial.evaluate.terms"] += len(args[0].terms)


def _contains_hit(tracer, args, inside) -> None:
    tracer.counters["orbits.contains.hits"] += inside is True


def _chart_terms(tracer, args, chart) -> None:
    tracer.counters["orbits.orbit_chart.terms"] += sum(
        len(poly.terms) for poly in chart.constraints.values())


def _chains(tracer, args, chains) -> None:
    tracer.counters["basic.chains_in.chains"] += len(chains)
    # derived_set tests every ordered pair of the subset's chains.
    tracer.counters["basic.special_pair_tests"] += len(chains) ** 2


# (layer name, module, attribute or Class.method, counter observer)
LAYERS = (
    ("roots.structure_table", "coadorbits.roots", "structure_table", _table_entries),
    ("functionals.coadjoint_apply_one", "coadorbits.functionals", "coadjoint_apply_one", None),
    ("functionals.coadjoint_apply", "coadorbits.functionals", "coadjoint_apply", _applied),
    ("functionals.skew_form", "coadorbits.functionals", "skew_form", _skew_form),
    ("functionals.orbit_dimension", "coadorbits.functionals", "orbit_dimension", None),
    ("functionals.radical_basis", "coadorbits.functionals", "radical_basis", None),
    ("linalg.rank", "coadorbits.linalg", "rank", _rank_input),
    ("linalg.kernel_basis", "coadorbits.linalg", "kernel_basis", None),
    ("linalg.det", "coadorbits.linalg", "det", None),
    ("polynomials.Polynomial.evaluate", "coadorbits.polynomials", "Polynomial.evaluate",
     _evaluated_terms),
    ("polynomials.Polynomial.__mul__", "coadorbits.polynomials", "Polynomial.__mul__", None),
    ("orbits.orbit_chart", "coadorbits.orbits", "orbit_chart", _chart_terms),
    ("orbits.contains", "coadorbits.orbits", "contains", _contains_hit),
    ("orbits.chart_point", "coadorbits.orbits", "chart_point", None),
    ("orbits.construct_group_word", "coadorbits.orbits", "construct_group_word", None),
    ("orbits.singular_set", "coadorbits.orbits", "singular_set", None),
    ("basic.decompose", "coadorbits.basic", "decompose", None),
    ("basic.derived_set", "coadorbits.basic", "derived_set", None),
    ("basic.chains_in", "coadorbits.basic", "chains_in", _chains),
    ("basic.s_of", "coadorbits.basic", "s_of", None),
)

class Tracer:
    # The root span of every check; its self time is work no traced layer covers.
    CHECK_SPAN = "check"

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_check = array("q")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.tables_seen: set = set()
        self.density_sum = 0.0
        self.density_count = 0
        self.check = -1
        self.active = False
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._run_check = self._wrap(self.CHECK_SPAN, lambda fn, *args: fn(*args), None)
        self._check_name_id = len(self.names) - 1

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, observe):
        nid = self._name_id(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, checks = self.span_parent, self.span_check
        self_ns, calls = self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            checks.append(self.check)
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                self_ns[nid] += t1 - t0 - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(self, args, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t1
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever the package binds it.

        The first install finds the bindings; later ones, cheap enough to run
        around every check, reuse them.
        """
        if not self._patches:
            self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _find_patches(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "coadorbits" or name.startswith("coadorbits.")]
        for layer, module_name, path, observe in LAYERS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owners = [getattr(module, owner_name)]
                original = vars(owners[0])[attr]
            else:
                owners = package
                original = getattr(module, attr)
            wrapper = self._wrap(layer, original, observe)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original, wrapper))

    def run_check(self, check_id: int, fn, *args):
        """Run one check under a root span, with the layers recording."""
        self.check = check_id
        self.active = True
        try:
            return self._run_check(fn, *args)
        finally:
            self.active = False

    def nested_spans(self, first: int) -> int:
        """Spans from span `first` on whose parent is a layer span, not a check's root span.

        Each one's wrapper cost lands in its parent layer's self time.
        """
        names, parents, root = self.span_name, self.span_parent, self._check_name_id
        return sum(1 for sid in range(first, len(names))
                   if parents[sid] >= 0 and names[parents[sid]] != root)

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds). Names are unique after install."""
        return {name: (self.calls[k], self.self_ns[k] / 1e9) for k, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\tcheck\n")
            names = self.names
            for sid, (nid, start, end, parent, check) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_check)):
                out.write(f"{sid}\t{names[nid]}\t{start}\t{end}\t{parent}\t{check}\n")


def span_cost_ns() -> float:
    """The time one recorded span adds to its caller, in ns.

    A no-op wrapped by a tracer of its own is timed against the bare no-op;
    the fastest of five rounds of 20000 calls is taken for each.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop, None)
    tracer.active = True
    calls = 20000
    bare = traced = math.inf
    for _ in range(5):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter_ns()
        bare, traced = min(bare, t1 - t0), min(traced, t2 - t1)
    return (traced - bare) / calls
