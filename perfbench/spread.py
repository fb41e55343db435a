"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds 15]

Runs ``run.py`` once per (workload, seed) with ``--trace 0``, one run at a
time, and prints, per workload and end-to-end metric, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median.  Also writes every run's result
line to ``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("local-identities", "global-laws", "monte-carlo", "trajectories")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args(argv)
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / "spread.jsonl"
    for workload in NAMES:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", args.seconds,
                                   "--trace", "0"],
                                  cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print(f"{workload}: {len(runs)} runs, "
              f"failed/attempted {sorted({(r['failed'], r['attempted']) for r in runs})[:3]}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {name:46s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {100 * share:6.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
