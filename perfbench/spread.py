"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --seeds 1-10 [--workload cli-short ...] [--out FILE]

Runs each workload once per seed, one process after another, and reports
per metric the median and the interquartile range as a share of the
median (statistics.quantiles, n=4), next to the metric's bound in
BENCHMARK.json.  Exits 1 when any spread exceeds its bound or a run is
not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", default=None, help="also write the report as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report, ok = {}, True
    for workload in args.workload or [w["name"] for w in BENCH["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok &= spread <= bounds[name]
            report[workload][name] = {"median": median, "spread": spread, "bound": bounds[name], "values": vals}
            print(f"{workload:14s} {name:22s} median {median:12.6g}  spread {spread:6.3f}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
