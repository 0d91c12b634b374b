"""Record golden values and walk digests of the pair_homolog workload.

Run from the repository root at a commit whose answers are trusted:

    python3 perfbench/record_goldens.py

It solves every pair_homolog instance of seeds 0..SEEDS-1 through the library, the
same calls the CLI makes, and writes perfbench/goldens.json.  The benchmark
then requires every later commit to reproduce each value and walk exactly.
Seeds 0-63 were used while the benchmark was written.  Seeds 64-127 were
not, so they are held out for checking a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = 128


def dumps(table: dict) -> str:
    """JSON with one line per seed, so a re-recording diffs by seed."""
    blocks = []
    for w, seeds in table.items():
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(r, separators=(',', ':'))}" for s, r in seeds.items())
        blocks.append(f" {json.dumps(w)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    table = {"pair_homolog": {str(s): workloads.record_goldens(s) for s in range(SEEDS)}}
    workloads.GOLDENS.write_text(dumps(table), encoding="utf-8")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
