"""partseq benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload search|roundtrip|weighted \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the source in
``src/partseq``. Each run starts fresh single-process workers
(``bench/worker.py``). With ``--trace 0`` it prints the end-to-end
figures: set-up time (median of several fresh set-ups), throughput,
median and tail latency, peak memory and the failed ratio. Timings are
scaled by a calibration loop to a reference host speed (``worker.py``
says why); the figures as timed are printed beside them. With
``--trace 1`` it prints the per-layer figures of a traced run and writes
the spans to ``bench/_out``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "roundtrip", "weighted")
SETUPS = 5  # fresh set-ups per untraced run, the median is reported
TIME_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def worker(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), mode]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1)
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partseq" / "__init__.py").is_file():
        print(f"bench: no partseq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, closed loop, 1 client")
    if args.trace:
        res = worker(args, "trace", deadline)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["per_layer"].items()}
        print(f"per-layer figures per round of the mix ({res['rounds']} traced rounds)")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    else:
        setups = [worker(args, "setup", deadline) for _ in range(SETUPS - 1)]
        res = worker(args, "run", deadline)
        setups.append({"setup_s": res["setup_s"], "raw_setup_s": res["raw_setup_s"]})
        res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"timings scaled to the reference host (calibration loop {res['calibration_ms']:.4g} ms here)")
        for name, m in metrics.items():
            raw = f"  (as timed here: {res['raw'][name]:.6g})" if name in res["raw"] else ""
            print(f"{name} {m['value']:.6g} {m['unit']}{raw}")
        print(
            f"  latency_tail_ms is p{res['tail_percentile']:g}: {res['tail_beyond']} of "
            f"{res['samples']} samples beyond it"
        )
        print(f"  setup_s is the median of {SETUPS} fresh set-ups")
        print(f"failed_ratio {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
