"""One benchmark worker process: set up a workload from its seed, then
run its queries in a closed loop with one client.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up, report the set-up time and exit), ``run``
(untraced loop, end-to-end figures) or ``trace`` (untraced and traced
rounds of the mix in turn, per-layer figures). The result is one JSON
object on the last line of standard output. ``bench/run.py`` starts it.
"""

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import NullTracer, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_REPORTED_FAILURES = 20
# Fixed, so that a faster program is compared on the same percentile
# (bench/README.md says why it is not p99).
TAIL_PERCENTILE = 90


# The host's speed drifts: on the 2-vCPU VM where this benchmark was
# built, the same pure-Python work ran up to 1.5 times slower for tens of
# seconds at a time, in CPU time as much as in wall time, with no steal
# time to account for it. So every timing is also taken on a fixed
# calibration loop, run every CALIBRATE_EVERY_S, and scaled to a host on
# which that loop takes REFERENCE_S (its time there in the fast state).
REFERENCE_S = 0.00072
CALIBRATE_EVERY_S = 0.05


def calibrate():
    """Seconds taken by a fixed loop of the dict, frozenset and list work
    the program does. The collector is off, so the program's heap does
    not enter it."""
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        for i in range(500):
            key = frozenset((i & 15, (i >> 2) & 15, i % 7))
            seen[key] = seen.get(key, 0) + len(key)
            big = [x for x in key if x > 3]
            seen[len(big)] = sorted(big)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Latencies in blocks between calibrations. A block is scaled by the
    median of the calibrations around it."""

    def __init__(self):
        self.cals = [calibrate()]
        self.blocks = [[]]
        self.last = time.perf_counter()

    def add(self, seconds):
        self.blocks[-1].append(seconds)
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.cals.append(calibrate())
            self.blocks.append([])
            self.last = time.perf_counter()

    def finish(self):
        self.cals.append(calibrate())

    def raw(self):
        return [x for b in self.blocks for x in b]

    def scaled(self):
        # block i lies between calibrations i and i + 1
        out = []
        for i, block in enumerate(self.blocks):
            factor = REFERENCE_S / statistics.median(self.cals[max(i - 1, 0) : i + 3])
            out += [x * factor for x in block]
        return out

    def factor(self):
        return REFERENCE_S / statistics.median(self.cals)


class Client:
    """Sends each query, checks its answer, and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def send(self, query, tracer, layers, qid):
        """Run one query; return its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.query(qid):
                out = query.run(tracer, layers)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(query, traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            problem = query.check(out)
        except Exception:
            problem = traceback.format_exc()
        if problem:
            self._fail(query, problem)
        return elapsed

    def _fail(self, query, why):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {query.name}: {why}", file=sys.stderr)


def tail(latencies):
    """The TAIL_PERCENTILE latency (nearest rank) and how many samples lie
    beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * TAIL_PERCENTILE / 100)
    return ordered[rank - 1], len(ordered) - rank


def figures(latencies):
    value, beyond = tail(latencies)
    return {
        "throughput_qps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "tail_beyond": beyond,
    }


def round_order(rounds, seconds):
    """Indices of whole rounds, cycling through them, until ``seconds``
    have passed. Each round is one instance of the whole mix, so a run
    sees the mix in the same proportions wherever it stops."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield i % len(rounds)
        i += 1


def run_untraced(rounds, seconds):
    client = Client()
    tracer = NullTracer()
    clock = Clock()
    qid = 0
    for r in round_order(rounds, seconds):
        for q in rounds[r]:
            clock.add(client.send(q, tracer, False, qid))
            qid += 1
    clock.finish()
    result = figures(clock.scaled())
    raw = figures(clock.raw())
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        tail_percentile=TAIL_PERCENTILE,
        samples=qid,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        raw={k: raw[k] for k in ("throughput_qps", "latency_p50_ms", "latency_tail_ms")},
        calibration_ms=statistics.median(clock.cals) * 1e3,
    )
    return result


def run_traced(rounds, seconds, out_dir, tag):
    """Whole rounds, each once untraced and once traced (in alternating
    order), until ``seconds`` have passed; per-layer figures are per
    traced round, scaled like the end-to-end timings."""
    client = Client()
    null, tracer = NullTracer(), Tracer()
    clock = Clock()
    took = {null: 0.0, tracer: 0.0}
    done = 0
    for r in round_order(rounds, seconds):
        for tr in (null, tracer) if done % 2 == 0 else (tracer, null):
            for i, q in enumerate(rounds[r]):
                elapsed = client.send(q, tr, True, done * len(rounds[r]) + i)
                took[tr] += elapsed
                clock.add(elapsed)
        done += 1
    clock.finish()
    factor = clock.factor()
    metrics = {}
    for name, (value, unit) in layer_metrics(tracer, done).items():
        if unit in ("s", "ms", "ns"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (took[tracer] / took[null], "ratio")
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{tag}.jsonl")
    (out_dir / f"layers-{tag}.json").write_text(
        json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=1)
    )
    return {
        "attempted": client.attempted,
        "failed": client.failed,
        "rounds": done,
        "per_layer": metrics,
    }


def main():
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, str(SRC))
    import partseq

    if Path(partseq.__file__).resolve().parent != (SRC / "partseq").resolve():
        raise SystemExit(f"partseq imported from {partseq.__file__}, not from {SRC}")
    import workloads

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        rounds = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
        setup_s = time.perf_counter() - _STARTED
        cal = statistics.median(calibrate() for _ in range(15))
        setup = {"setup_s": setup_s * REFERENCE_S / cal, "raw_setup_s": setup_s}
        if mode == "setup":
            result = setup
        elif mode == "run":
            result = {**run_untraced(rounds, seconds), **setup}
        else:
            tag = f"{workload}-seed{seed}"
            result = run_traced(rounds, seconds, HERE / "_out", tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
