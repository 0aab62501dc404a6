"""The benchmark's workloads, their seeded inputs and correctness gates.

Every workload is a closed loop with one caller: the next sentence (or,
on the CLI path, the next step) starts only after the previous one has
finished.  A pass runs the workload's whole corpus once; a pass is split
into batches, and each throughput is the median over batches of
sentences per second, so one slow outlier batch cannot move it.  Right
after each batch the host yardstick runs (see yardstick.py), untimed as
part of the batch, so that each batch's rate can be put on the scale of
the reference host.

The program sees only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import spanrel.cli as cli
from spanrel.formats import load_constraint_set, write_json
from spanrel.params import init_params, params_to_json

from spantrace import BUCKETS, EXACT, Tracer
from yardstick import yardstick

# spanrel/__init__ re-exports the decode() function under the name of its
# module, so attribute access on the package would find the function.
decode_mod = importlib.import_module("spanrel.decode")
pipeline_mod = importlib.import_module("spanrel.pipeline")

PARAMS = {"dim": 64, "heads": 4, "max_span_width": 12, "seed": 0}
BUDGET = 200_000  # node budget of the exact decoders
OBJECTIVE_TOL = 1e-9
VOCAB_SIZE = 2000


def _words(rng: np.random.Generator, n: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < n:
        words["".join(rng.choice(letters, int(rng.integers(2, 11))))] = None
    return list(words)


def make_corpus(
    seed: int, count: int, lo: int, hi: int, batches: int
) -> list[list[tuple[str, ...]]]:
    """count sentences of lo..hi tokens drawn with Zipf weights from the
    fixed vocabulary.

    Lengths are spread evenly over lo..hi and dealt round-robin into
    batches, so every batch covers the whole length range; order inside a
    batch is shuffled.  Same arguments, same corpus.
    """
    rng = np.random.default_rng([seed, count, lo, hi])
    # One vocabulary for every seed; the seed draws the sentences.  With a
    # vocabulary per seed, its few most frequent words set much of a
    # corpus's cost: library-long's decode rate moved 10% between seeds.
    vocab = _words(np.random.default_rng(0), VOCAB_SIZE)
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1)
    weights /= weights.sum()
    lengths = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    out = []
    for b in range(batches):
        mine = [lengths[i] for i in range(b, count, batches)]
        rng.shuffle(mine)
        out.append(
            [tuple(vocab[j] for j in rng.choice(VOCAB_SIZE, n, p=weights)) for n in mine]
        )
    return out


def bucket(length: int) -> str:
    lo = length // 10 * 10
    return f"len{lo}-{lo + 9}"


# ---------------------------------------------------------------------------
# gates


def structure_gate(structure, constraints, instance, where: str) -> list[str]:
    """Errors for every constraint violation of a solved structure."""
    return [
        f"{where}: {v.kind}: {v.detail}"
        for v in decode_mod.check_constraints(structure, constraints, instance)
    ]


def objective_gate(objectives: dict[str, float | None], where: str) -> list[str]:
    """Joint is exact: where it finished it must match or beat the staged
    decoders that finished, within OBJECTIVE_TOL."""
    joint = objectives.get("joint")
    if joint is None:
        return []
    return [
        f"{where}: joint objective {joint!r} below {alg} {objectives[alg]!r}"
        for alg in ("entity_first", "relation_first")
        if objectives.get(alg) is not None and joint < objectives[alg] - OBJECTIVE_TOL
    ]


# ---------------------------------------------------------------------------
# passes


@dataclass
class Batch:
    sentences: int
    score_s: float = 0.0
    decode_s: float = 0.0
    verify_s: float = 0.0
    yardstick_s: float = 0.0  # the host yardstick, run right after the batch


@dataclass
class PassResult:
    batches: list[Batch]
    attempted: int
    failed: int = 0
    decodes: int = 0
    solved: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the whole pass, yardstick runs excluded


@dataclass
class Workload:
    """A corpus of count sentences of lo..hi tokens, dealt into batches."""

    count: int
    lo: int
    hi: int
    batches: int = 1

    def setup(self, seed: int, workdir: str) -> dict:
        constraints = load_constraint_set("conll04")
        params = init_params(constraints.inventory, **PARAMS)
        corpus = make_corpus(seed, self.count, self.lo, self.hi, self.batches)
        return {"constraints": constraints, "params": params, "corpus": corpus}

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError


class CliShort(Workload):
    """score -> decode -> verify through spanrel.cli.main, files on disk."""

    def setup(self, seed: int, workdir: str) -> dict:
        state = super().setup(seed, workdir)
        # A fresh directory per set-up: overwriting a file that was just
        # written makes the filesystem flush it first, which a single CLI
        # run never pays.
        workdir = tempfile.mkdtemp(dir=workdir)
        paths = {k: os.path.join(workdir, f"{k}.json") for k in ("sentences", "params", "scores", "structures")}
        sentences = [s for batch in state["corpus"] for s in batch]
        write_json(paths["params"], params_to_json(state["params"]))
        write_json(paths["sentences"], {"sentences": [{"tokens": list(t)} for t in sentences]})
        state.update(paths=paths, sentences=len(sentences))
        return state

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> PassResult:
        p = state["paths"]
        n = state["sentences"]
        steps = (
            ("score", ["score", p["sentences"], p["params"], "-o", p["scores"]]),
            ("decode", ["decode", p["scores"], "-o", p["structures"], "--algorithm", "entity-first", "--constraints", "conll04"]),
            ("verify", ["verify", p["structures"], p["scores"]]),
        )
        for key in ("scores", "structures"):  # as above: every pass writes new files
            if os.path.exists(p[key]):
                os.remove(p[key])
        batch = Batch(n)
        res = PassResult([batch], attempted=n, decodes=n)
        for step, argv in steps:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{step}") if tracer else nullcontext()
            with redirect_stdout(out), redirect_stderr(err), span:
                t0 = perf_counter()
                code = cli.main(argv)
                elapsed = perf_counter() - t0
            setattr(batch, f"{step}_s", elapsed)
            if code != 0:
                res.errors.append(f"cli {step} exited {code}: {err.getvalue().strip()}")
                res.failed = n
                return res
        batch.yardstick_s = yardstick()
        if out.getvalue() != "ok: no violations\n":
            res.errors.append(f"verify printed {out.getvalue()!r}")
        h = hashlib.sha256()
        for key in ("scores", "structures"):
            with open(p[key], "rb") as fh:
                h.update(fh.read())
        res.digest = h.hexdigest()
        res.solved = n
        return res


def _shipped_path(sentences, state, res: PassResult, h, where: str) -> list:
    """score -> decode(entity_first) -> verify one batch in memory, stage by
    stage; returns (instance, structure) per sentence."""
    params, cons = state["params"], state["constraints"]
    batch = Batch(len(sentences))
    t0 = perf_counter()
    insts = [pipeline_mod.forward(tokens, params).instance for tokens in sentences]
    t1 = perf_counter()
    structures = [decode_mod.decode(inst, "entity_first", cons, True, None) for inst in insts]
    t2 = perf_counter()
    violations = [decode_mod.check_constraints(st, cons, inst) for st, inst in zip(structures, insts)]
    t3 = perf_counter()
    batch.score_s, batch.decode_s, batch.verify_s = t1 - t0, t2 - t1, t3 - t2
    batch.yardstick_s = yardstick()
    res.batches.append(batch)
    res.attempted += len(sentences)
    for i, (inst, st, found) in enumerate(zip(insts, structures, violations)):
        res.errors += [f"{where} sentence {i} entity_first: {v.kind}: {v.detail}" for v in found]
        _digest(h, inst, st)
    return list(zip(insts, structures))


class LibraryLong(Workload):
    """forward -> decode(entity_first) -> check_constraints in memory."""

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> PassResult:
        res = PassResult([], attempted=0)
        h = hashlib.sha256()
        for b, sentences in enumerate(state["corpus"]):
            _shipped_path(sentences, state, res, h, f"batch {b}")
            res.decodes += len(sentences)
            res.solved += len(sentences)
        res.digest = h.hexdigest()
        return res


class ExactMid(Workload):
    """The in-memory shipped path, then the exact decoders per sentence.

    The end-to-end timings cover the shipped path only: the cost of exact
    search on random sentences is too heavy-tailed to compare across seeds
    (see perfbench/README.md).  solved_frac counts the exact decoders'
    calls only, and their timings show in the traced run.
    """

    def run_pass(self, state: dict, tracer: Tracer | None = None) -> PassResult:
        cons = state["constraints"]
        res = PassResult([], attempted=0)
        out = res.outcomes
        for bk in BUCKETS:
            out[f"attempted.{bk}"] = 0
            for alg in EXACT:
                out[f"{alg}.solved.{bk}"] = 0
        h = hashlib.sha256()
        for b, sentences in enumerate(state["corpus"]):
            shipped = _shipped_path(sentences, state, res, h, f"batch {b}")
            for i, (inst, ef) in enumerate(shipped):
                where = f"batch {b} sentence {i}"
                structures = {"entity_first": ef}
                for alg in ("unconstrained", *EXACT):
                    try:
                        structures[alg] = decode_mod.decode(
                            inst, alg, cons, alg != "unconstrained", BUDGET
                        )
                    except decode_mod.BudgetExceededError:
                        structures[alg] = None
                    res.attempted += 1
                    h.update(alg.encode())
                    _digest(h, inst, structures[alg])
                for alg in EXACT:
                    if structures[alg] is not None:
                        res.errors += structure_gate(structures[alg], cons, inst, f"{where} {alg}")
                objectives = {a: st.score if st is not None else None for a, st in structures.items()}
                res.errors += objective_gate(objectives, where)
                res.decodes += len(EXACT)
                res.solved += sum(structures[alg] is not None for alg in EXACT)
                bk = bucket(inst.length)
                out[f"attempted.{bk}"] += 1
                for alg in EXACT:
                    out[f"{alg}.solved.{bk}"] += structures[alg] is not None
        res.digest = h.hexdigest()
        return res


def _digest(h, inst, structure) -> None:
    """Fold the exact bytes of one scored sentence and its decode into h."""
    h.update(repr((inst.spans, inst.pairs)).encode())
    h.update(inst.entity_logits.tobytes())
    h.update(inst.relation_logits.tobytes())
    if structure is None:
        h.update(b"budget")
    else:
        h.update(repr((structure.entity_labels, structure.relation_labels, structure.score)).encode())


WORKLOADS = {
    "cli-short": CliShort(count=300, lo=5, hi=25),
    "library-long": LibraryLong(count=1000, lo=40, hi=80, batches=10),
    "exact-mid": ExactMid(count=120, lo=10, hi=39, batches=6),
}
