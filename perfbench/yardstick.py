"""A fixed yardstick of host speed, timed right after every measured batch.

The benchmark runs on a shared host whose speed drifts by 20-30% over a few
minutes as other tenants load it.  On a 2-core AMD EPYC guest (Python 3.11,
NumPy 2.4), the per-minute median of 12 minutes of back-to-back
library-long batches ranged from 188 to 233 sentences/s, with no change of
code or input.  No choice of estimator inside a 30 s run removes that: the
drift is slower than a run.

The yardstick is a fixed piece of work that uses no spanrel code: a K*K
pair grid of the same sizes as library-long's (NumPy gather, matmul, tanh,
softmax, partial sort) and a pure-Python dict and list loop (the kind of
work the CLI's schema validation is).  Its time moves with the host, not
with the program.  Each batch's throughput is multiplied by (the
yardstick's time next to that batch) / REFERENCE_S, which reads in
sentences per second on a host as fast as the one REFERENCE_S was measured
on.  A change to spanrel moves the batch time and leaves the yardstick
alone, so it moves the scaled throughput in full.

    python3 perfbench/yardstick.py   # median of 50 yardstick runs
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

if __name__ == "__main__":  # one BLAS thread, as in run.py
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Median yardstick time on the machine above, from `python3 perfbench/yardstick.py`.
REFERENCE_S = 0.0433

_RNG = np.random.default_rng(0)
_SPANS = _RNG.standard_normal((80, 64))
_W_PAIR = _RNG.standard_normal((128, 64)) * 0.1
_W_OUT = _RNG.standard_normal((64, 8))


def _array_work() -> None:
    for k in (40, 50, 60, 70, 80):
        heads = np.repeat(np.arange(k), k)
        tails = np.tile(np.arange(k), k)
        grid = np.concatenate([_SPANS[:k][heads], _SPANS[:k][tails]], axis=1)
        logits = np.tanh(grid @ _W_PAIR) @ _W_OUT
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        np.argpartition(-probs[:, 1], k)


def _interpreter_work() -> None:
    table: dict[tuple[str, int], list[int]] = {}
    for i in range(20_000):
        key = ("k", i % 251)
        seen = table.get(key)
        table[key] = [i] if seen is None else seen + [i] if len(seen) < 4 else seen[1:] + [i]
    sorted(table.items(), key=lambda kv: sum(kv[1]))


def yardstick() -> float:
    """Wall time of one fixed yardstick run, in seconds."""
    t0 = perf_counter()
    for _ in range(3):
        _array_work()
    for _ in range(5):
        _interpreter_work()
    return perf_counter() - t0


def host_scale(yardstick_s: float) -> float:
    """Factor that turns a rate measured next to yardstick_s into a rate on
    the reference host: above 1 when this host ran slower than it."""
    return yardstick_s / REFERENCE_S


if __name__ == "__main__":
    print(statistics.median(yardstick() for _ in range(50)))
