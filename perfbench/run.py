"""spanrel benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With --trace 0 the last stdout line carries the end-to-end metrics,
measured untraced.  With --trace 1 it carries the per-layer metrics of a
traced run, which alternates untraced and traced passes over the same
corpus, gates on identical outputs, and reports the tracing overhead.
--workload all runs every workload in its own process, one after another,
prints a table and ends with one JSON line holding every result.

Exit codes: 0 pass, 1 a correctness gate failed (the result line still
prints, with "correct": false), 2 the spanrel sources are missing or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cli-short", "library-long", "exact-mid")
SETUP_REPEATS = 7

# One thread per process: NumPy's BLAS would otherwise use both cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads RunConfig defaults from this file; every run uses the
# built-in defaults, as the library path does.
os.environ.pop("SPANREL_CONFIG", None)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pipeline_sent_per_s", "1/s"),
    ("score_sent_per_s", "1/s"),
    ("decode_sent_per_s", "1/s"),
    ("solved_frac", "frac"),
)


class MissingSources(RuntimeError):
    """The checkout holds no importable spanrel package under src/."""


def import_spanrel() -> None:
    """Import spanrel from this checkout's src/."""
    if not (SRC / "spanrel" / "__init__.py").is_file():
        raise MissingSources(f"no spanrel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spanrel
    import workloads  # noqa: F401  (imports numpy, jsonschema and the CLI)

    if not Path(spanrel.__file__).resolve().is_relative_to(SRC):
        raise MissingSources(f"spanrel imported from {spanrel.__file__}, not {SRC}")


# Run in a fresh interpreter: the import a user's process pays once.
_IMPORT_PROBE = (
    "import sys\n"
    "from time import perf_counter\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "t0 = perf_counter()\n"
    "import spanrel, workloads\n"
    "print(perf_counter() - t0)\n"
)


def import_seconds() -> float:
    """Median import time of spanrel (with numpy, jsonschema and the CLI)
    over SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return _median(times)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _another_pass(done: int, elapsed: float, seconds: float) -> bool:
    """Whole passes only: start one more if it should end within seconds."""
    return done == 0 or elapsed + elapsed / done <= seconds


def _check_passes(passes) -> list[str]:
    """Every pass over the same corpus must give identical outputs and counts."""
    errors = []
    for k, p in enumerate(passes[1:], start=1):
        if p.digest != passes[0].digest:
            errors.append(f"pass {k} output bytes differ from pass 0")
        if p.outcomes != passes[0].outcomes:
            errors.append(f"pass {k} solved counts differ from pass 0")
    return errors + [e for p in passes for e in p.errors]


def _result(passes, errors: list[str], metrics: dict) -> dict:
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        **({"errors": errors[:20]} if errors else {}),
    }


def _run_pass(workload, state: dict, tracer=None):
    t0 = perf_counter()
    res = workload.run_pass(state, tracer)
    res.seconds = perf_counter() - t0 - sum(b.yardstick_s for b in res.batches)
    return res


def run_untraced(workload, seed: int, seconds: float, import_s: float, workdir: str) -> dict:
    from yardstick import host_scale

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(perf_counter() - t0)
    passes = []
    t_start = perf_counter()
    while _another_pass(len(passes), perf_counter() - t_start, seconds):
        passes.append(_run_pass(workload, state))
        if passes[-1].errors:
            break
    batches = [b for p in passes for b in p.batches]
    stages = {
        "pipeline_sent_per_s": lambda b: b.score_s + b.decode_s + b.verify_s,
        "score_sent_per_s": lambda b: b.score_s,
        "decode_sent_per_s": lambda b: b.decode_s,
    }
    # Throughputs on the reference host's scale (see yardstick.py); the
    # unscaled medians go to the line before the result, for the record.
    rates = {name: [b.sentences / stage(b) for b in batches] for name, stage in stages.items()}
    scales = [host_scale(b.yardstick_s) for b in batches]
    print("unscaled: " + " ".join(f"{name}={_median(r):.6g}" for name, r in rates.items())
          + f" host_scale={_median(scales):.4f} batches={len(batches)}")
    values = {
        "setup_s": import_s + _median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        **{name: _median([r * k for r, k in zip(rs, scales)]) for name, rs in rates.items()},
        "solved_frac": passes[0].solved / passes[0].decodes,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return _result(passes, _check_passes(passes), metrics)


def run_traced(workload, seed: int, seconds: float, workdir: str, trace_path: Path) -> dict:
    from spantrace import Tracer, per_layer_metrics

    state = workload.setup(seed, workdir)
    tracer = Tracer()
    plain, traced = [], []
    t_start = perf_counter()
    while _another_pass(len(traced), perf_counter() - t_start, seconds):
        plain.append(_run_pass(workload, state))
        with tracer.installed():
            traced.append(_run_pass(workload, state, tracer))
        if plain[-1].errors or traced[-1].errors:
            break
    overhead = sum(p.seconds for p in traced) / sum(p.seconds for p in plain) - 1.0
    tracer.write(str(trace_path))
    metrics = per_layer_metrics(tracer, len(traced), traced[0].outcomes, overhead)
    return _result(plain + traced, _check_passes(plain + traced), metrics)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_spanrel()
    import workloads

    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if trace:
            trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
            result = run_traced(workload, seed, seconds, workdir, trace_path)
        else:
            result = run_untraced(workload, seed, seconds, import_seconds(), workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, untraced and (with --trace 1) traced."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        for mode in (0, 1) if trace else (0,):
            label = "traced" if mode else "untraced"
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                return 2
            code = max(code, proc.returncode)
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("unscaled: "):
                    result["unscaled"] = line.removeprefix("unscaled: ")
            results.setdefault(name, {})[label] = result
            print(f"{name} ({label}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
    import numpy
    from yardstick import REFERENCE_S

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "machine": platform.machine(),
           "yardstick_reference_s": REFERENCE_S, "seed": seed, "seconds": seconds}
    print(json.dumps({"env": env, "workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
