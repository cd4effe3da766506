"""Spans around the benchmark's calls into partseq, and the per-layer
figures computed from them.

A span is (name, start, end, parent, query id, probe). Names are
``<layer>.<function>``, where the layer is a module of ``src/partseq``;
spans named ``query`` group one query's calls. Probe spans are extra
calls made only to measure a layer (they are not part of what the CLI
does). Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = (
    "kbformats",
    "logic",
    "defaults",
    "autoepistemic",
    "probability",
    "possibility",
    "sequences",
    "cli",
)

# CLI subcommands the roundtrip workload runs, as <group>_<action>
CLI_COMMANDS = (
    "default_sequences",
    "default_check",
    "ael_sequences",
    "ael_check",
    "explain",
    "poss_build",
    "poss_query",
    "poss_check",
    "prob_condition",
    "prob_threshold",
    "prob_query",
    "worlds",
)


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args):
        return fn(*args)

    probe = call

    def count(self, name, n=1):
        pass

    def query(self, qid):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._qid = -1

    def _span(self, name, probe, fn, args):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._qid, probe)

    def call(self, name, fn, *args):
        return self._span(name, False, fn, args)

    def probe(self, name, fn, *args):
        return self._span(name, True, fn, args)

    def count(self, name, n=1):
        self.counts[name] += n

    @contextmanager
    def query(self, qid):
        """A root span grouping one query's calls."""
        self._qid = qid
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ("query", start, perf_counter(), None, qid, False)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, qid, probe in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": qid,
                            "probe": probe,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each per round of the workload's mix.

    A layer's self time is the time of its spans minus the part covered
    by their child spans. ``cli.self_s`` is the time of ``cli.main`` minus
    the time of the library calls that make up the same commands.
    """
    total = defaultdict(float)
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    layer_self = defaultdict(float)
    library = 0.0
    for idx, (name, start, end, parent, _, probe) in enumerate(tracer.spans):
        dur = end - start
        total[name] += dur
        durations[name].append(dur)
        layer = name.split(".")[0]
        if layer in LAYERS:
            layer_self[layer] += dur - child_time[idx]
            if layer != "cli" and not probe:
                library += dur
    counts = tracer.counts
    cli_total = layer_self.pop("cli", 0.0)

    def s(*names):
        return sum(total[n] for n in names) / rounds

    def c(name):
        return counts[name] / rounds

    m = {
        "logic.enumerate_worlds_s": (s("logic.enumerate_worlds"), "s"),
        "logic.worlds": (c("logic.worlds"), "count"),
        "logic.models_ns_per_world": (
            total["logic.models"] / max(counts["logic.models_evals"], 1) * 1e9,
            "ns",
        ),
        "defaults.extensions_s": (s("defaults.extensions"), "s"),
        "defaults.gamma_operator_s": (s("defaults.gamma_operator"), "s"),
        "defaults.extensions": (c("defaults.extensions"), "count"),
        "autoepistemic.expansions_s": (s("autoepistemic.stable_expansions"), "s"),
        "autoepistemic.omega_operator_s": (s("autoepistemic.omega_operator"), "s"),
        "autoepistemic.expansions": (c("autoepistemic.expansions"), "count"),
        "defaults.build_s": (s("defaults.build_default_sequences"), "s"),
        "defaults.sequences": (c("defaults.sequences"), "count"),
        "defaults.check_s": (s("defaults.check_default_sequence"), "s"),
        "autoepistemic.build_s": (s("autoepistemic.build_ael_sequences"), "s"),
        "autoepistemic.sequences": (c("autoepistemic.sequences"), "count"),
        "autoepistemic.check_s": (s("autoepistemic.check_ael_sequence"), "s"),
    }
    for layer in ("defaults", "autoepistemic"):
        for kind in ("clean", "corrupted"):
            name = f"{layer}.check_violations_{kind}"
            m[name] = (c(name), "count")
    m.update(
        {
            "sequences.to_json_s": (s("sequences.sequence_to_obj", "sequences.render_json"), "s"),
            "sequences.from_json_s": (s("sequences.sequence_from_json"), "s"),
            "sequences.json_mb": (c("sequences.json_bytes") / 1e6, "MB"),
            "sequences.validate_s": (s("sequences.validate_structure"), "s"),
            "kbformats.parse_s": (s("kbformats.parse_kb"), "s"),
            "kbformats.lines_per_s": (
                counts["kbformats.lines"] / total["kbformats.parse_kb"]
                if total["kbformats.parse_kb"]
                else 0.0,
                "1/s",
            ),
        }
    )
    for cmd in CLI_COMMANDS:
        runs = durations[f"cli.{cmd}"]
        m[f"cli.{cmd}_ms"] = (statistics.median(runs) * 1e3 if runs else 0.0, "ms")
    m["cli.self_s"] = ((cli_total - library) / rounds if cli_total else 0.0, "s")
    m.update(
        {
            "probability.lottery_space_s": (s("probability.lottery_space"), "s"),
            "probability.threshold_s": (
                s("probability.threshold", "probability.threshold_prob"),
                "s",
            ),
            "probability.threshold_rejected": (c("probability.threshold_rejected"), "count"),
            "probability.orders_s": (s("probability.enumerate_threshold_orders"), "s"),
            "probability.orders_accepted": (c("probability.orders_accepted"), "count"),
            "probability.condition_s": (s("probability.condition", "probability.extend"), "s"),
            "probability.cond_prob_s": (
                s("probability.cond_prob", "probability.persistent_prob"),
                "s",
            ),
            "possibility.build_s": (s("possibility.build_poss_sequence"), "s"),
            "possibility.check_s": (s("possibility.check_poss_sequence"), "s"),
            "possibility.query_s": (s("possibility.possibility", "possibility.necessity"), "s"),
        }
    )
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = (layer_self[layer] / rounds, "s")
    return m
