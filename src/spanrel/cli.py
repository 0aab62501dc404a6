"""Command-line interface.

Subcommands: score (forward pass over sentences), decode (structures
from a score file), verify (constraint check of a structure file), bench
(synthetic decoding throughput), dump-attention (CSV export of refine
attention and ranking scores), init-params (fresh random parameter file).

Exit codes: 0 success, 1 constraint violations (or a failed bench
assertion), 2 input or schema errors, 3 search budget exceeded.  A JSON
file of RunConfig defaults may be pointed to by $SPANREL_CONFIG;
explicit flags win over it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields as dataclass_fields
from functools import cache

from . import bench as bench_mod
from .decode import (
    BudgetExceededError,
    ConstraintSet,
    check_constraints,
    decode,
)
from .formats import (
    BUNDLED_CONSTRAINTS,
    FormatError,
    load_constraint_set,
    load_document,
    load_score_file,
    load_sentences,
    load_structure_file,
    read_json_stdlib,
    score_document,
    structure_document,
    structures_from_doc,
    write_json,
)
# The CLI reads through load_document and scores through forward_stacks;
# perfbench/spantrace.py wraps read_json, validate_document and forward here,
# so they stay importable from this module.
from .formats import read_json, validate_document  # noqa: F401
from .params import init_params, params_from_json, params_to_json
from .pipeline import RunConfig, forward, forward_stacks, normalize_algorithm  # noqa: F401
from .representation import TypeInventory


def _env_config() -> dict:
    path = os.environ.get("SPANREL_CONFIG")
    if not path:
        return {}
    doc = read_json_stdlib(path)  # RunConfig, not a schema, checks it
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config file must hold a JSON object")
    known = {f.name for f in dataclass_fields(RunConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise FormatError(f"{path}: unknown config keys {unknown}")
    return dict(doc)


def _make_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from env-file defaults overridden by the flags given: each
    flag is stored under its field's name, and is None unless given."""
    merged = _env_config()
    for field in dataclass_fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            merged[field.name] = value
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def _load_params(path: str):
    doc = load_document(path, "params")
    try:
        return params_from_json(doc)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _constraints(source: str | None, instances: list) -> ConstraintSet | None:
    """The constraint set named by source, else the task rules alone (unique
    type, non-overlap, endpoint consistency); it must use the score file's
    types.  None when there is neither a source nor a sentence."""
    if source is not None:
        constraints = load_constraint_set(source)
    elif instances:
        constraints = ConstraintSet(instances[0].inventory)
    else:
        return None
    if instances and constraints.inventory != instances[0].inventory:
        raise FormatError("constraint file types do not match the score file inventory")
    return constraints


# ---------------------------------------------------------------------------
# subcommands


def cmd_score(args: argparse.Namespace) -> int:
    config = _make_config(args)
    sentences = load_sentences(args.sentences)
    params = _load_params(args.params)
    # Each sentence is packed as soon as its stack is scored, and the
    # stack's ForwardResults (attention, refined rows, ranking vectors) dropped.
    results = forward_stacks(sentences, params, config)
    write_json(args.output, score_document(results, config.seed))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    config = _make_config(args)
    instances = load_score_file(args.scores)[1]
    algorithm = config.algorithm
    constraints = _constraints(args.constraints, instances)
    use_bias = config.use_bias and algorithm != "unconstrained"
    structures = []
    for pos, inst in enumerate(instances):  # the first sentence to fail is named
        try:
            structures.append(decode(inst, algorithm, constraints, use_bias, config.budget))
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"sentence {pos}: {exc}") from exc
        except ValueError as exc:  # an objective past the float64 range
            raise FormatError(f"{args.output} not written: sentence {pos}: {exc}") from exc
    doc = structure_document(instances, structures, algorithm, use_bias, args.constraints)
    write_json(args.output, doc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    struct_doc = load_structure_file(args.structures)
    instances = load_score_file(args.scores)[1]
    constraints = _constraints(args.constraints or struct_doc.get("constraints"), instances)
    structures = structures_from_doc(struct_doc, instances)
    total = 0
    for pos, (st, inst) in enumerate(zip(structures, instances)):
        for v in check_constraints(st, constraints, inst):
            total += 1
            print(f"sentence {pos}: {v.kind}: {v.detail}")
    if total == 0:
        print("ok: no violations")
        return 0
    print(f"{total} violation(s)")
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    config = _make_config(args)
    for flag in ("count", "length"):
        value = getattr(args, flag)
        if value < 1:
            raise FormatError(f"--{flag} must be positive, got {value}")
    constraints = load_constraint_set(args.constraints)
    instances = bench_mod.synthetic_instances(
        count=args.count,
        length=args.length,
        seed=config.seed,
        constraints=constraints,
    )
    rows = bench_mod.run_bench(
        instances,
        constraints,
        use_bias=config.use_bias,
        budget=config.budget,
    )
    sys.stdout.write(bench_mod.format_table(rows))
    if args.assert_ordering and not bench_mod.ordering_ok(rows):
        print("ordering assertion failed: entity_first is not fast enough", file=sys.stderr)
        return 1
    return 0


def cmd_dump_attention(args: argparse.Namespace) -> int:
    config = _make_config(args)
    sentences = load_sentences(args.sentences)
    params = _load_params(args.params)
    os.makedirs(args.output, exist_ok=True)
    for pos, result in forward_stacks(sentences, params, config):
        length = result.instance.length
        for level, fr in (
            ("span", result.span_filter),
            ("relation", result.pair_filter),
        ):
            stem = os.path.join(args.output, f"sentence_{pos:04d}_{level}")
            with open(f"{stem}_ranking.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["candidate", "score"])
                writer.writerows(enumerate(map(repr, fr.ranking_scores.tolist())))
            with open(f"{stem}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["candidate", "head", "token", "weight"])
                att = fr.read_attention
                if att is None:
                    continue
                for k, original in enumerate(fr.kept_indices):
                    for head in range(att.shape[0]):
                        for tok in range(length):
                            writer.writerow(
                                [original, head, tok, repr(float(att[head, k, tok]))]
                            )
    return 0


def cmd_init_params(args: argparse.Namespace) -> int:
    if args.constraints is not None:
        inventory = load_constraint_set(args.constraints).inventory
    elif args.entity_types and args.relation_types:
        inventory = TypeInventory.from_names(
            [t for t in args.entity_types.split(",") if t],
            [t for t in args.relation_types.split(",") if t],
        )
    else:
        raise FormatError(
            "need --constraints or both --entity-types and --relation-types"
        )
    params = init_params(
        inventory,
        dim=args.dim,
        heads=args.heads,
        hidden=args.hidden,
        max_span_width=args.max_span_width,
        seed=args.seed if args.seed is not None else 0,
    )
    write_json(args.output, params_to_json(params))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p.add_argument("--k-span", type=int, default=None, dest="k_span")
    p.add_argument("--k-rel", type=int, default=None, dest="k_rel")
    p.add_argument("--depth", type=int, default=None, help="refine repetitions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanrel",
        description="Span-based entity and relation scoring with constrained decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="run the forward pass over sentences")
    p.add_argument("sentences", help="sentences JSON file")
    p.add_argument("params", help="model parameter JSON file")
    p.add_argument("-o", "--output", required=True, help="score file to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("decode", help="decode a score file into structures")
    p.add_argument("scores", help="score JSON file")
    p.add_argument("-o", "--output", required=True, help="structure file to write")
    p.add_argument(
        "--algorithm",
        default=None,
        help="unconstrained | entity-first | joint | relation-first",
    )
    p.add_argument(
        "--constraints",
        default=None,
        help=f"constraint file path or one of {', '.join(BUNDLED_CONSTRAINTS)}",
    )
    p.add_argument("--no-bias", action="store_false", default=None, dest="use_bias",
                   help="ignore the bias table")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check a structure file against constraints")
    p.add_argument("structures", help="structure JSON file")
    p.add_argument("scores", help="score JSON file it was decoded from")
    p.add_argument(
        "--constraints",
        default=None,
        help="constraint source; defaults to the one recorded in the structure file",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the decoders on synthetic sentences")
    p.add_argument("--count", type=int, default=100, help="sentences to generate")
    p.add_argument("--length", type=int, default=20, help="tokens per sentence")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--constraints", default="conll04")
    p.add_argument("--no-bias", action="store_false", default=None, dest="use_bias")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument(
        "--assert-ordering",
        action="store_true",
        help="fail unless entity-first is at least 3x faster than joint",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "dump-attention", help="export refine attention weights and ranking scores as CSV"
    )
    p.add_argument("sentences")
    p.add_argument("params")
    p.add_argument("-o", "--output", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("init-params", help="write a fresh random parameter file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--max-span-width", type=int, default=12, dest="max_span_width")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--constraints", default=None, help="take types from this file")
    p.add_argument("--entity-types", default=None, help="comma-separated names")
    p.add_argument("--relation-types", default=None, help="comma-separated names")
    p.set_defaults(func=cmd_init_params)

    return parser


# One parser per process: building one takes about 2 ms, and each one
# built per command left its actions in reference cycles for the collector.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, OSError, KeyError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
