"""Run the benchmark on several seeds and summarize each metric's spread.

Usage, from the root of a checkout::

    python3 bench/spread.py --workload solve --seeds 1-10 [--out FILE]

It makes one untraced run per seed.  For every end-to-end metric it prints
the median over the runs and the distance between the first and third
quartiles as a share of the median, as ``statistics.quantiles(values, n=4)``
gives them, next to the metric's bound from ``BENCHMARK.json``.  Runs are made one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="an inclusive range 'a-b'")
    ap.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:40s} median {median:12.6g}  spread {shown:>8s}  bound {bounds.get(name)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
