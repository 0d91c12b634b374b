"""One workload in one fresh process: set up, run the closed loop, check.

Started by run.py, never by hand.  Set-up (interpreter start, importing
chainalign, generating and writing the instances, computing expectations)
ends with a line "ready" on stdout; run.py times set-up up to that line.
Unless --setup-only, the process then runs the closed loop, checks every
report outside the timed region and prints one JSON line with its results.

One client, one thread: each operation is an in-process call to
``chainalign.cli.main`` with the report captured from stdout.  After one
untimed warm-up operation, the timed loop runs for at least --seconds and
at least one full cycle of the instances, so every instance is checked and
counted in aligned_fraction.
With --trace 1 every operation runs untraced and then traced, and the
two give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# the only run-dependent field of a report; blanked before comparing reports
ELAPSED = re.compile(r'"elapsed_ms": [^,\n}]*')


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_op(cli, instances, idx, records, first_text, tracer=None) -> float:
    """One operation on instance idx; returns its latency."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(instances[idx].argv)
        else:
            tracer.op_id += 1
            span = tracer.open("cli")
            try:
                rc = cli.main(instances[idx].argv)
            finally:
                tracer.close(span)
    latency = time.perf_counter() - t0
    text = out.getvalue()
    if tracer is not None:
        tracer.add("report.bytes_out", len(text))
    if rc != 0:
        print(f"operation on instance {idx} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
    key = hashlib.sha256(ELAPSED.sub("", text).encode()).hexdigest()
    records.append((idx, rc, key))
    first_text.setdefault((idx, key), text)
    return latency


def run_loop(cli, instances, seconds, min_ops, records, first_text, tracer=None):
    """Closed loop over the instances for at least ``seconds`` and
    ``min_ops`` operations; returns (untraced, traced) latencies.

    With a tracer every operation runs twice in a row, untraced and then
    traced, so slow drift of the machine's speed cancels out of the
    overhead."""
    untraced: list[float] = []
    traced: list[float] = []
    begin = time.perf_counter()
    while len(untraced) < min_ops or time.perf_counter() - begin < seconds:
        idx = len(untraced) % len(instances)
        untraced.append(run_op(cli, instances, idx, records, first_text))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_op(cli, instances, idx, records, first_text, tracer))
    return untraced, traced


def verify(checks, instances, records, first_text):
    """Failed operation count and aligned fraction per verified instance.

    An operation fails when it exits non-zero, when its report fails the
    checks, or when it differs from the first report of the same instance.
    """
    verdict = {}
    for (idx, key), text in first_text.items():
        try:
            verdict[idx, key] = checks.check(instances[idx], text)
        except checks.CheckFailed as exc:
            print(f"instance {idx}: check failed: {exc}", file=sys.stderr)
            verdict[idx, key] = None
    first_key: dict[int, str] = {}
    failed = 0
    for idx, rc, key in records:
        same = first_key.setdefault(idx, key) == key
        if not same:
            print(f"instance {idx}: report differs between runs of the same input",
                  file=sys.stderr)
        if rc != 0 or verdict[idx, key] is None or not same:
            failed += 1
    fractions = [verdict[idx, key] for idx, key in first_key.items() if verdict[idx, key] is not None]
    return failed, fractions


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values."""
    s = sorted(values)
    q = len(s) // 4
    return statistics.fmean(s[q:len(s) - q])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest nearest-rank percentile with at least ten
    samples beyond it, never below the median; returns (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    i = max(n - 11, (n + 1) // 2 - 1)
    return s[i], 100.0 * (i + 1) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import chainalign
    from chainalign import cli

    if Path(chainalign.__file__).resolve().parent != (ROOT / "src" / "chainalign").resolve():
        print(f"chainalign imported from {chainalign.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{args.scale}"
    instances = workloads.build(args.workload, args.seed, workdir, args.scale)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    baseline = rss_mb()
    records: list = []
    first_text: dict = {}
    # one untimed operation, so lazy initialisation is not timed as work
    run_op(cli, instances, 0, records, first_text)
    tracer = spans.Tracer() if args.trace else None
    min_ops = 1 if args.trace else len(instances)
    latencies, traced = run_loop(cli, instances, args.seconds, min_ops, records, first_text, tracer)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, fractions = verify(checks, instances, records, first_text)
    attempted = len(records)
    tail_s, tail_pct = tail(latencies)
    if tracer is not None:
        tracer.save(workdir / "spans.npz")
        metrics = spans.layer_metrics(tracer, len(traced), statistics.fmean(latencies))
        metrics["memory.baseline_mb"] = baseline
    else:
        metrics = {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak,
            "aligned_fraction": interquartile_mean(fractions) if fractions else 0.0,
            "ok_ops_frac": 1.0 - failed / attempted,
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "instances": len(instances),
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "goldens": all("value" in i.expect for i in instances) if instances[0].kind == "static" else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics,
                      "details": details}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
