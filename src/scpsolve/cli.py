"""Command-line front end.

Subcommands: ``solve`` an instance file and emit a JSON report, ``gen`` a
seeded random instance, ``oracle`` for the exact enumeration answer, and
``dee`` for dead-end-elimination preprocessing.  Data goes to stdout or
``--out``; diagnostics go to stderr.  ``solve`` exits 0 only when the
bounds certify the reported assignment optimal; without a certificate it
exits 3 on the iteration cap and 4 when the solve stopped before the cap,
by the residual rule or by a relaxation gap.  All commands exit 1 on bad
input and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields, replace

from .instances import (
    Assignment,
    InstanceError,
    ScpInstance,
    instance_chunks,
    load_instance,
    random_instance,
)
from .oracle import OracleSizeError, brute_force, goldstein_reduce
from .solver import (
    TERMINATION_MAX_ITER,
    SolveReport,
    SolverParams,
    default_params,
    solve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 3
EXIT_UNCERTIFIED = 4

# a negative number in any float syntax; argparse's own pattern takes only
# -123 and -1.5, so it would read the -1e3 of ``--range -1e3 1e3`` as an option
NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def build_report(
    instance: ScpInstance,
    report: SolveReport,
    assignment: Assignment,
    params: SolverParams,
) -> dict:
    """Machine-readable solve report, one JSON object per solve, in a fixed
    key order.  ``time_sec`` is the only entry not determined by the input.
    ``excluded_pairs`` is ``SolveReport.excluded_pairs`` of the instance
    solved, the reduced one under ``--dee``."""
    return {
        "problem": instance.name,
        "p": instance.partition.p,
        "n0": instance.partition.n0,
        "lbd": report.lbd,
        "ubd": report.ubd,
        "rel_gap": report.rel_gap,
        "iter": report.iterations,
        "time_sec": report.time_sec,
        "assignment": list(assignment.choice),
        "termination": report.termination,
        "certified": report.certified,
        "excluded_pairs": report.excluded_pairs,
        "params": asdict(params),
    }


def _write_output(chunks, out_path) -> None:
    """Write the strings of ``chunks``, in order, to ``out_path`` or stdout."""
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    target = instance
    reduction = None
    if args.dee:
        reduction = goldstein_reduce(instance)
        target = reduction.reduced
        sizes = "x".join(str(len(b)) for b in reduction.kept)
        print(
            f"dead-end elimination: {instance.partition.n0} -> "
            f"{target.partition.n0} rotamers ({sizes})",
            file=sys.stderr,
        )
    # each SolverParams field has a solve flag with the field's name as dest
    flags = ((f.name, getattr(args, f.name)) for f in fields(SolverParams))
    params = replace(default_params(target), **{k: v for k, v in flags if v is not None})
    report = solve(target, params)
    if report.excluded_pairs is None:
        outcome = "none can go by the upper bound at the start, exact bound skipped"
    else:
        m = target.partition.m
        pairs = (sum(m) ** 2 - sum(mi * mi for mi in m)) // 2
        outcome = f"{report.excluded_pairs} of {pairs} rotamer pairs excluded"
    print(f"dead-end pairs: {outcome}", file=sys.stderr)
    assignment = report.assignment
    if reduction is not None:
        assignment = reduction.to_original(assignment)
    doc = build_report(instance, report, assignment, params)
    _write_output([json.dumps(doc, indent=2) + "\n"], args.out)
    if report.certified:
        return EXIT_OK
    if report.termination == TERMINATION_MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_UNCERTIFIED


def cmd_gen(args) -> int:
    inst = random_instance(
        args.p, args.m_max, (args.range[0], args.range[1]), args.seed
    )
    _write_output(instance_chunks(inst), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    result = brute_force(instance, limit=args.limit)
    doc = {
        "problem": instance.name,
        "optimum": result.optimum,
        "assignment": list(result.argmin.choice),
        "enumerated": result.enumerated,
    }
    _write_output([json.dumps(doc, indent=2) + "\n"], args.out)
    return EXIT_OK


def cmd_dee(args) -> int:
    instance = load_instance(args.instance)
    reduction = goldstein_reduce(instance)
    _write_output(instance_chunks(reduction.reduced), args.out)
    for i, block in enumerate(reduction.kept):
        print(
            f"block {i + 1}: kept {len(block)}/{instance.partition.m[i]} "
            f"rotamers {list(block)}",
            file=sys.stderr,
        )
    return EXIT_OK


class ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser, and that of each subcommand, that reads every
    NEGATIVE_NUMBER as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="scpsolve",
        description="Certified side-chain positioning solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="path to an instance file")
    p_solve.add_argument("--out", default=None, help="write the report here")
    p_solve.add_argument("--beta", type=float, default=None)
    p_solve.add_argument("--gamma", type=float, default=None)
    p_solve.add_argument("--eps", type=float, default=None, dest="epsilon")
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--t", type=int, default=None, dest="t_consecutive")
    p_solve.add_argument("--dee", action="store_true", help="preprocess with DEE")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--m-max", type=int, required=True)
    p_gen.add_argument("--range", type=float, nargs=2, default=(-10.0, 10.0))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser("oracle", help="exact answer by enumeration")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--limit", type=int, default=1_000_000)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_dee = sub.add_parser("dee", help="dead-end elimination preprocessing")
    p_dee.add_argument("instance")
    p_dee.add_argument("--out", default=None)
    p_dee.set_defaults(func=cmd_dee)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, OracleSizeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
