"""chainalign benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pair_homolog --seed 1 --seconds 32 --trace 0

The workload runs in a fresh child process (perfbench/worker.py) with the
BLAS and OpenMP thread counts pinned to 1.  Set-up is timed SETUPS times,
each in its own fresh process from spawn to the child's "ready" line, and
setup_s is the median.  The last line of stdout is a JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the run's details (sample count, tail percentile, nproc, CPython and numpy
versions).  See perfbench/README.md for every metric.

Exits non-zero without a result when the checkout holds no chainalign
sources, when a child fails, or when the run would exceed DEADLINE seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
DEADLINE = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> tuple[float, bytes]:
    """Run one worker; return (seconds until its "ready" line, the rest of
    its stdout).  The child is killed and reaped if the deadline passes."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
        try:
            buf = b""
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while b"\n" not in buf:
                    if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                        raise ChildFailed("set-up did not finish before the deadline")
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        raise ChildFailed(f"worker exited during set-up with code {proc.wait()}")
                    buf += chunk
            setup = time.perf_counter() - start
            line, rest = buf.split(b"\n", 1)
            if line != b"ready":
                raise ChildFailed(f"unexpected first line from worker: {line[:200]!r}")
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed("run did not finish before the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise ChildFailed(f"worker exited with code {proc.returncode}")
        return setup, rest + out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances for the benchmark's own tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE

    if not (ROOT / "src" / "chainalign" / "__init__.py").is_file():
        print(f"error: no chainalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", args.scale]
    try:
        setups = [run_child(worker + ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
        setup, out = run_child(worker, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(out.decode().strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    details = dict(result["details"], setup_runs_s=setups)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
