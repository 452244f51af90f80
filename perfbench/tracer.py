"""Spans and counters recorded around percolab's public functions.

The tracer replaces module attributes with wrappers, at the attribute each
caller looks up (``percolab.cli.fkg_sweep`` for the CLI, ``percolab.exact.
cluster_size_table`` for exact's own calls, ...), and puts every original
back on exit.  A span is (name, start, end, parent index, run id), where the
run id is the benchmark iteration.  Spans and counters stay in memory and are
written out when the benchmark ends.

In a fork-started pool worker the wrappers are inherited; they check the
process id and call straight through, so only the benchmark's own process
records anything.  Worker-side growth is seen through the arrays the pool
returns to the parent; its time waits for tracing inside the program.
"""

import contextlib
import functools
import gzip
import os
import time
from collections import defaultdict

import numpy as np

import percolab.cli
import percolab.coupling
import percolab.estimators
import percolab.exact
import percolab.exploration
import percolab.lattices
import percolab.streams

_LATTICE_NAMES = {spec: name for name, spec in percolab.cli.LATTICES.items()}
GROWTH_LATTICES = ("tree3", "tri", "z2", "z3")
SUBCOMMANDS = ("decay", "meanfield", "verify-domination")

# Span name -> every (owner, attribute) through which callers reach it.
WRAPPED = {
    "core.grow": [(percolab.estimators, "grow_cluster_size")],
    "streams.derive_key": [(percolab.estimators, "replicate_key"),
                           (percolab.streams, "derive_key")],
    "streams.stream": [(percolab.coupling, "stream")],
    "estimators.collect": [(percolab.cli, "psi_curve"),
                           (percolab.estimators, "estimate_magnetization")],
    "estimators.fit": [(percolab.cli, "decay_fit")],
    "exact.cluster_table": [(percolab.exact, "cluster_size_table"),
                            (percolab.exact, "cluster_members_table")],
    "exact.fkg_sweep": [(percolab.cli, "fkg_sweep")],
    "exact.pivotal": [(percolab.cli, "max_conditional_pivotal"),
                      (percolab.exact, "max_conditional_pivotal")],
    "exact.strassen": [(percolab.cli, "strassen_dominates")],
    "exact.verify": [(percolab.cli, "verify_certificate")],
    "exact.make_oracle": [(percolab.cli, "make_conditional_oracle"),
                          (percolab.exact, "make_conditional_oracle")],
    "exploration.next_edge": [(percolab.exploration.ClusterFirstRule, "next_edge")],
    "coupling.run": [(percolab.coupling, "couple_sequential")],
    "coupling.margin": [(percolab.cli, "domination_margin")],
    "coupling.order_check": [(percolab.coupling, "exhaustive_order_check")],
    "lattices.build_ball": [(percolab.cli, "build_ball"),
                            (percolab.lattices, "build_ball")],
    "cli.write": [(percolab.cli, "_write_json"), (percolab.cli, "_write_csv")],
}
POOL_ATTR = (percolab.estimators, "ProcessPoolExecutor")

# Calls of the stand-in function that calibrates the wrappers' own cost.
_PROBE_CALLS = 20_000

# Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    [("core.grow_calls", "count"), ("core.grow_s", "s"), ("core.vertices", "count")]
    + [(f"core.us_per_vertex.{lat}", "us") for lat in GROWTH_LATTICES]
    + [("core.grow_us_p50", "us"), ("core.grow_us_p99", "us"),
       ("core.truncated_fraction", "ratio"),
       ("streams.derive_key_calls", "count"), ("streams.derive_key_s", "s"),
       ("streams.stream_calls", "count"), ("streams.stream_s", "s"),
       ("streams.keyed_uniform_ns", "ns"),
       ("estimators.collect_s", "s"), ("estimators.overhead_s", "s"),
       ("estimators.pool_sessions", "count"), ("estimators.pool_fallbacks", "count"),
       ("estimators.fit_s", "s"),
       ("exact.cluster_table_calls", "count"), ("exact.cluster_table_s", "s"),
       ("exact.fkg_sweep_s", "s"), ("exact.fkg_steps", "count"),
       ("exact.pivotal_s", "s"), ("exact.strassen_s", "s"),
       ("exact.coupling_pairs", "count"), ("exact.verify_s", "s"),
       ("exact.oracle_calls", "count"), ("exact.oracle_useful_ratio", "ratio"),
       ("exploration.next_edge_calls", "count"), ("exploration.next_edge_s", "s"),
       ("coupling.runs", "count"), ("coupling.run_s", "s"),
       ("coupling.margin_s", "s"), ("coupling.violations", "count"),
       ("lattices.build_ball_s", "s")]
    + [(f"cli.command_s.{sub}", "s") for sub in SUBCOMMANDS]
    + [("cli.write_s", "s"), ("cli.output_bytes", "B"),
       ("trace.wall_s", "s"), ("trace.overhead", "ratio")]
)


class Tracer:
    """In-memory spans and per-run counters.

    With ``spans=False`` only the process pool is wrapped, to learn whether it
    ran; that is all a timed (untraced) run installs.
    """

    def __init__(self, spans=True):
        self.spans_on = spans
        self.pid = os.getpid()
        self.names = []
        self.spans = []          # (name index, start, end, parent, run)
        self.stack = [-1]
        self.run = 0
        self.counts = defaultdict(float)   # (run, key) -> value
        self.samples = defaultdict(list)   # (run, key) -> values
        self.pool_peak_rss_kb = 0
        self._name_ids = {}

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, key, value=1):
        self.counts[(self.run, key)] += value

    def total(self, key):
        """Counter ``key`` summed over runs."""
        return sum(v for (_, k), v in self.counts.items() if k == key)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, name_id, t0, parent):
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name_id, t0, t1, parent, self.run)
        return t1 - t0

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, self._name_id(name), t0, parent)

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after`` may replace the result."""
        tracer = self
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            idx, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx, name_id, t0, parent)
            if after is not None:
                replaced = after(tracer, args, result, dur)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace the wrapped attributes; restore every original on exit."""
        saved = []
        try:
            if self.spans_on:
                for name, targets in WRAPPED.items():
                    for owner, attr in targets:
                        original = getattr(owner, attr)
                        saved.append((owner, attr, original))
                        setattr(owner, attr, self.wrap(name, original, _AFTER.get(name)))
            owner, attr = POOL_ATTR
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _counting_pool(self, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span_totals(self):
        """(run, span name) -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            if s is not None:
                cell = out[(s[4], self.names[s[0]])]
                cell[0] += 1
                cell[1] += s[2] - s[1]
                cell[2] += s[2] - s[1] - child[i]
        return out

    def span_table(self):
        """Span name -> calls, inclusive and self seconds over all runs."""
        table = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for (_, name), (calls, incl, self_s) in self.span_totals().items():
            row = table[name]
            row["calls"] += calls
            row["inclusive_s"] += incl
            row["self_s"] += self_s
        return dict(sorted(table.items()))

    def _children(self, run, parent_name):
        """Span name -> [calls, seconds] of the direct children of the
        ``parent_name`` spans in ``run``."""
        parent_id = self._name_ids.get(parent_name)
        out = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if (s is not None and s[4] == run and s[3] >= 0
                    and self.spans[s[3]][0] == parent_id):
                cell = out[self.names[s[0]]]
                cell[0] += 1
                cell[1] += s[2] - s[1]
        return out

    def _collect_overhead(self, run, collect_s, wrapper_costs):
        """Collect time minus its growth and pool children and minus the
        tracer's calibrated cost outside each wrapped child's span."""
        wrap_s, grow_wrap_s = wrapper_costs
        kids = self._children(run, "estimators.collect")
        grow_calls, grow_s = kids.pop("core.grow", (0, 0.0))
        _, pool_s = kids.pop("estimators.pool", (0, 0.0))
        other_calls = sum(calls for calls, _ in kids.values())
        return (collect_s - grow_s - pool_s - grow_calls * grow_wrap_s
                - other_calls * wrap_s)

    def layer_metrics(self, run, wrapper_costs):
        """PER_LAYER metrics of one run, except the keyed-uniform probe and
        the trace.* metrics, which are taken once per benchmark run.

        ``wrapper_costs`` is what the module's ``wrapper_costs`` returns.
        """
        totals = self.span_totals()
        c = lambda key: self.counts.get((run, key), 0.0)
        calls = lambda name: totals[(run, name)][0] if (run, name) in totals else 0
        secs = lambda name: totals[(run, name)][1] if (run, name) in totals else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        grow_calls = c("core.grow_calls") + c("core.pool_replicates")
        grow_us = self.samples.get((run, "core.grow_us"), [])
        out = {
            "core.grow_calls": grow_calls,
            "core.grow_s": secs("core.grow"),
            "core.vertices": c("core.vertices"),
        }
        for lat in GROWTH_LATTICES:
            out[f"core.us_per_vertex.{lat}"] = 1e6 * ratio(
                c("core.grow_s." + lat), c("core.vertices." + lat))
        out.update({
            "core.grow_us_p50": float(np.percentile(grow_us, 50)) if grow_us else 0.0,
            "core.grow_us_p99": float(np.percentile(grow_us, 99)) if grow_us else 0.0,
            "core.truncated_fraction": ratio(c("core.truncated"), grow_calls),
            "streams.derive_key_calls": calls("streams.derive_key"),
            "streams.derive_key_s": secs("streams.derive_key"),
            "streams.stream_calls": calls("streams.stream"),
            "streams.stream_s": secs("streams.stream"),
            "estimators.collect_s": secs("estimators.collect"),
            "estimators.overhead_s": self._collect_overhead(
                run, secs("estimators.collect"), wrapper_costs),
            "estimators.pool_sessions": c("estimators.pool_sessions"),
            "estimators.pool_fallbacks": c("estimators.pool_attempts")
                                         - c("estimators.pool_sessions"),
            "estimators.fit_s": secs("estimators.fit"),
            "exact.cluster_table_calls": calls("exact.cluster_table"),
            "exact.cluster_table_s": secs("exact.cluster_table"),
            "exact.fkg_sweep_s": secs("exact.fkg_sweep"),
            "exact.fkg_steps": c("exact.fkg_steps"),
            "exact.pivotal_s": secs("exact.pivotal"),
            "exact.strassen_s": secs("exact.strassen"),
            "exact.coupling_pairs": c("exact.coupling_pairs"),
            "exact.verify_s": secs("exact.verify"),
            "exact.oracle_calls": calls("exact.oracle"),
            "exact.oracle_useful_ratio": ratio(c("exact.oracle_distinct"),
                                               calls("exact.oracle")),
            "exploration.next_edge_calls": calls("exploration.next_edge"),
            "exploration.next_edge_s": secs("exploration.next_edge"),
            "coupling.runs": calls("coupling.run"),
            "coupling.run_s": secs("coupling.run"),
            "coupling.margin_s": secs("coupling.margin"),
            "coupling.violations": c("coupling.violations"),
            "lattices.build_ball_s": secs("lattices.build_ball"),
        })
        for sub in SUBCOMMANDS:
            out[f"cli.command_s.{sub}"] = secs("cli.command." + sub)
        out["cli.write_s"] = secs("cli.write")
        out["cli.output_bytes"] = c("cli.output_bytes")
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: index, name, start, end, parent index, run id."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(f"{i},{self.names[s[0]]},{s[1]:.9f},{s[2]:.9f},"
                             f"{s[3]},{s[4]}\n")


# -- hooks for what the spans alone do not give ------------------------------

def _after_grow(tracer, args, result, dur):
    size, truncated = result
    lattice = _LATTICE_NAMES.get(args[0], "other")
    tracer.add("core.grow_calls")
    tracer.add("core.vertices", size)
    tracer.add("core.truncated", bool(truncated))
    tracer.add("core.grow_s." + lattice, dur)
    tracer.add("core.vertices." + lattice, size)
    tracer.samples[(tracer.run, "core.grow_us")].append(dur * 1e6)


def wrapper_costs():
    """Seconds per wrapped call that the tracer spends outside the call's
    span (wrapper frame, span bookkeeping, hook): (plain wrapper, growth
    wrapper with its hook).  Timed on a stand-in function in a scratch
    tracer, because the real calls cannot be timed without the wrapper."""
    spec = percolab.cli.LATTICES["z2"]
    costs = []
    for after in (None, _after_grow):
        probe = Tracer(spans=True)
        fn = probe.wrap("probe", lambda *args: (1, False), after)
        t0 = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            fn(spec)
        total = time.perf_counter() - t0
        costs.append((total - sum(s[2] - s[1] for s in probe.spans)) / _PROBE_CALLS)
    return tuple(costs)


def _after_fkg(tracer, args, rows, dur):
    tracer.add("exact.fkg_steps", len(rows))


def _after_strassen(tracer, args, cert, dur):
    tracer.add("exact.coupling_pairs", len(cert.coupling or ()))


def _after_make_oracle(tracer, args, oracle, dur):
    """Wrap the returned oracle so its calls and distinct traces count."""
    seen = set()

    def count(tracer, args, result, dur):
        key = (args[0].order, args[0].values)
        if key not in seen:
            seen.add(key)
            tracer.add("exact.oracle_distinct")

    return tracer.wrap("exact.oracle", oracle, count)


def _after_couple(tracer, args, pair, dur):
    tracer.add("coupling.violations", len(pair.violations))


_AFTER = {
    "core.grow": _after_grow,
    "exact.fkg_sweep": _after_fkg,
    "exact.strassen": _after_strassen,
    "exact.make_oracle": _after_make_oracle,
    "coupling.run": _after_couple,
}


def _counting_pool(tracer, base):
    """``base`` executor that counts sessions and reads the returned sizes."""

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.add("estimators.pool_attempts")
            self._bench_t0 = time.perf_counter()
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            parts = list(super().map(fn, *iterables, **kwargs))
            tracer.add("estimators.pool_sessions")
            if tracer.spans_on:
                for sizes, trunc in parts:
                    tracer.add("core.pool_replicates", len(sizes))
                    tracer.add("core.vertices", int(np.sum(sizes)))
                    tracer.add("core.truncated", int(np.sum(trunc)))
            return iter(parts)

        def __exit__(self, *exc):
            for proc in list((self._processes or {}).values()):
                tracer.pool_peak_rss_kb = max(tracer.pool_peak_rss_kb,
                                              _peak_rss_kb(proc.pid))
            try:
                return super().__exit__(*exc)
            finally:
                if tracer.spans_on:
                    tracer.spans.append((tracer._name_id("estimators.pool"),
                                         self._bench_t0, time.perf_counter(),
                                         tracer.stack[-1], tracer.run))

    return CountingPool


def _peak_rss_kb(pid):
    """VmHWM of a live process in kB, or 0 when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
