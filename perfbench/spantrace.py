"""Span tracer that wraps spanrel's public functions from outside.

Each wrapped function is replaced at the module attribute its caller looks
up (``spanrel.pipeline.relation_representations`` is what ``forward``
calls, ``spanrel.cli.validate_document`` is what the CLI loader calls).
Every call records a span: name, start, end and parent, kept in memory.
``restore()`` puts the originals back.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the time its child spans cover;
spans nest strictly because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Schemas the workloads validate; the per-layer list names each one.
SCHEMAS = ("sentences", "params", "score", "structure", "constraints")
ALGORITHMS = ("unconstrained", "entity_first", "joint", "relation_first")
EXACT = ("joint", "relation_first")
BUCKETS = ("len10-19", "len20-29", "len30-39")

# (module, attribute, span name); a name may be reached from two modules.
WRAPPED = (
    ("spanrel.formats", "read_json", "formats.read_json"),
    ("spanrel.cli", "read_json", "formats.read_json"),
    ("spanrel.formats", "validate_document", "formats.validate_document"),
    ("spanrel.cli", "validate_document", "formats.validate_document"),
    ("spanrel.formats", "instances_from_score_doc", "formats.instances_from_score_doc"),
    ("spanrel.cli", "score_document", "formats.score_document"),
    ("spanrel.cli", "structure_document", "formats.structure_document"),
    ("spanrel.cli", "structures_from_doc", "formats.structures_from_doc"),
    ("spanrel.cli", "write_json", "formats.write_json"),
    ("spanrel.cli", "params_from_json", "params.params_from_json"),
    ("spanrel.cli", "forward", "pipeline.forward"),
    ("spanrel.pipeline", "forward", "pipeline.forward"),
    ("spanrel.pipeline", "encode_tokens", "representation.encode_tokens"),
    ("spanrel.pipeline", "enumerate_spans", "representation.enumerate_spans"),
    ("spanrel.pipeline", "span_representations", "representation.span_representations"),
    ("spanrel.pipeline", "relation_representations", "representation.relation_representations"),
    ("spanrel.pipeline", "classify_spans", "representation.classify_spans"),
    ("spanrel.pipeline", "classify_relations", "representation.classify_relations"),
    ("spanrel.pipeline", "filter_and_refine", "filter_refine.filter_and_refine"),
    ("spanrel.filter_refine", "ranking_scores", "filter_refine.ranking_scores"),
    ("spanrel.filter_refine", "top_k_select", "filter_refine.top_k_select"),
    ("spanrel.filter_refine", "read", "filter_refine.read"),
    ("spanrel.filter_refine", "process", "filter_refine.process"),
    ("spanrel.filter_refine", "multi_head_attention", "numerics.multi_head_attention"),
    ("spanrel.filter_refine", "feed_forward", "numerics.feed_forward"),
    ("spanrel.cli", "decode", "decode"),
    ("spanrel.decode", "decode", "decode"),
    ("spanrel.cli", "check_constraints", "decode.check_constraints"),
    ("spanrel.decode", "check_constraints", "decode.check_constraints"),
)

# Spans the benchmark opens itself around each CLI step.
CLI_STEPS = ("cli.score", "cli.decode", "cli.verify")


def span_names() -> list[str]:
    """Every span name the per-layer report covers, in report order."""
    names = []
    for base in dict.fromkeys(name for _, _, name in WRAPPED):
        if base == "formats.validate_document":
            names += [f"{base}.{s}" for s in SCHEMAS]
        elif base == "filter_refine.filter_and_refine":
            names += [f"{base}.span", f"{base}.pair"]
        elif base == "decode":
            names += [f"decode.{a}" for a in ALGORITHMS]
        else:
            names.append(base)
    return names + list(CLI_STEPS)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [
        ("formats.bytes_read", "bytes"),
        ("formats.bytes_written", "bytes"),
        ("representation.pair_rows", "count"),
        ("filter_refine.span.kept_frac", "frac"),
        ("filter_refine.pair.kept_frac", "frac"),
        ("pipeline.forward.ms_p50", "ms"),
        ("pipeline.forward.ms_p90", "ms"),
        ("decode.joint.ms_p50", "ms"),
        ("decode.joint.ms_p90", "ms"),
        ("decode.relation_first.ms_p90", "ms"),
    ]
    for bucket in BUCKETS:
        out.append((f"decode.attempted.{bucket}", "count"))
        out += [(f"decode.{alg}.solved.{bucket}", "count") for alg in EXACT]
    out.append(("trace.overhead_frac", "frac"))
    return out


class Tracer:
    """Records spans and counters while installed; restores on exit."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._fr_seen: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping -----------------------------------------------------------

    def _span_name(self, base: str, args, kwargs) -> str:
        if base == "formats.validate_document":
            schema = kwargs.get("schema_name", args[1] if len(args) > 1 else "?")
            return f"{base}.{schema}"
        if base == "decode":
            alg = kwargs.get("algorithm", args[1] if len(args) > 1 else "?")
            return f"decode.{alg}"
        if base == "filter_refine.filter_and_refine":
            # forward filters spans first, then pairs of kept spans.
            parent = self._stack[-1] if self._stack else -1
            seen = self._fr_seen.get(parent, 0)
            self._fr_seen[parent] = seen + 1
            return f"{base}.{'span' if seen == 0 else 'pair'}"
        return base

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "formats.read_json":
            self.count("formats.bytes_read", os.path.getsize(args[0]))
        elif name == "formats.write_json":
            self.count("formats.bytes_written", os.path.getsize(args[0]))
        elif name == "representation.relation_representations":
            self.count("representation.pair_rows", result[0].shape[0])
        elif name.startswith("filter_refine.filter_and_refine."):
            level = name.rsplit(".", 1)[1]
            valid = kwargs.get("valid")
            n_valid = int(np.sum(valid)) if valid is not None else len(args[0])
            self.count(f"filter_refine.{level}.kept", len(result.kept_indices))
            self.count(f"filter_refine.{level}.valid", n_valid)

    def _wrap(self, original, base: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = self._span_name(base, args, kwargs)
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, base in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, base))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- reporting ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name, plus durations in ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ms": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
            row["ms"].append((end - start) * 1e3)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer_metrics(
    tracer: Tracer, passes: int, outcomes: dict[str, int], overhead: float
) -> dict[str, dict]:
    """Per-layer metrics for one traced pass (totals divided by passes).

    outcomes holds the per-bucket attempted and solved counts of one pass.
    """
    agg = tracer.aggregate()
    values: dict[str, float] = {}
    for name in span_names():
        row = agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"] // passes
        values[f"{name}.total_s"] = row["total_s"] / passes
        values[f"{name}.self_s"] = row["self_s"] / passes
    c = tracer.counters
    values["formats.bytes_read"] = int(c.get("formats.bytes_read", 0)) // passes
    values["formats.bytes_written"] = int(c.get("formats.bytes_written", 0)) // passes
    values["representation.pair_rows"] = int(c.get("representation.pair_rows", 0)) // passes
    for level in ("span", "pair"):
        valid = c.get(f"filter_refine.{level}.valid", 0)
        kept = c.get(f"filter_refine.{level}.kept", 0)
        values[f"filter_refine.{level}.kept_frac"] = kept / valid if valid else 0.0

    def ms(name: str) -> list[float]:
        return agg.get(name, {}).get("ms", [])

    values["pipeline.forward.ms_p50"] = percentile(ms("pipeline.forward"), 50)
    values["pipeline.forward.ms_p90"] = percentile(ms("pipeline.forward"), 90)
    values["decode.joint.ms_p50"] = percentile(ms("decode.joint"), 50)
    values["decode.joint.ms_p90"] = percentile(ms("decode.joint"), 90)
    values["decode.relation_first.ms_p90"] = percentile(ms("decode.relation_first"), 90)
    for bucket in BUCKETS:
        values[f"decode.attempted.{bucket}"] = outcomes.get(f"attempted.{bucket}", 0)
        for alg in EXACT:
            key = f"{alg}.solved.{bucket}"
            values[f"decode.{key}"] = outcomes.get(key, 0)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
