"""Compare the exact decoders' solved counts of two runs, with no tolerance.

    python3 perfbench/counts.py BASE.json NEW.json

Each file holds the result of a traced exact-mid run with the same --seed:
the last output line of `run.py --workload exact-mid --trace 1`, or the
output of `run.py --workload all --trace 1` (as in baseline.json).  The
node budget is deterministic, so for one seed the counts repeat exactly.
Exits 1 when an attempted count differs or a solved count is lower in NEW;
a higher solved count (a search that now fits the budget) is reported only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_counts(path: str) -> dict[str, int]:
    """decode.attempted.* and decode.<alg>.solved.* of one result file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = json.loads(text.strip().splitlines()[-1])
    if "workloads" in data:
        data = data["workloads"]["exact-mid"]["traced"]
    return {
        name: m["value"]
        for name, m in data["metrics"].items()
        if name.startswith("decode.") and (".solved." in name or ".attempted." in name)
    }


def compare(base: dict[str, int], new: dict[str, int]) -> tuple[list[str], list[str]]:
    """(regressions, gains) of new against base, one line each."""
    regressions, gains = [], []
    for name in sorted(base.keys() | new.keys()):
        b, n = base.get(name), new.get(name)
        line = f"{name}: {b} -> {n}"
        if b is None or n is None or (".attempted." in name and b != n) or n < b:
            regressions.append(line)
        elif n > b:
            gains.append(line)
    return regressions, gains


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    regressions, gains = compare(load_counts(argv[0]), load_counts(argv[1]))
    for line in regressions:
        print(f"worse: {line}")
    for line in gains:
        print(f"better: {line}")
    if not regressions:
        print("ok: no solved count lower, no attempted count changed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
