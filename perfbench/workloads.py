"""The three workloads: inputs from a seed, timed operations, answer checks.

A workload's ``inputs`` are one round; ``run_op`` runs and times one of
them.  Each operation is called through its module attribute
(``scpsolve.solver.solve``, ``scpsolve.cli.main``) so that the traced run,
which patches those attributes, times the same calls.  Calibration samples
taken before, during and after each operation give the host's slowness
while it ran (``calibration.py``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import scpsolve.cli as cli
import scpsolve.solver as solver
from scpsolve import (
    Assignment,
    RotamerPartition,
    ScpInstance,
    brute_force,
    canonicalize_energy,
    default_params,
    is_feasible,
    objective,
    random_instance,
    save_instance,
)

from perfbench import calibration
from perfbench.structured import structured_instance

# certification as the acceptance gate counts it
CERT_GAP = 1e-6
# the acceptance gate's corpus
CORPUS_SIZE = 200
CORPUS_SEED = 20260808
INSTANCE_SEED = 42000
# dense: block sizes of random_instance(80, 20, (-10, 10), seed=3), n0 = 803
DENSE_SIZE_SEED = 3
DENSE_ITER_CAP = 100
STRUCTURED_PER_ROUND = 4
EXIT_CODES_OK = (cli.EXIT_OK, cli.EXIT_MAX_ITER)
REPORT_FIELDS = {"assignment", "ubd", "lbd", "rel_gap", "iter", "time_sec"}


@dataclass
class Op:
    """One timed operation and what its check needs."""

    seconds: float
    solve_s: float = 0.0
    iterations: int = 0
    rel_gap: float = math.inf
    result: object = None
    error: str | None = None
    # host slowness while the operation ran, from calibration samples
    slowness: float = 1.0


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def ref_wall(self) -> float:
        """Seconds of the round at the calibration's reference speed."""
        return sum(op.seconds / op.slowness for op in self.ops)


def calibrated_op(workload, item, before: float) -> tuple[Op, float]:
    """Run one operation after the calibration sample ``before``; return it
    with its slowness, and the sample taken after it."""
    position = calibration.mark()
    op = workload.run_op(item)
    after = calibration.sample()
    op.slowness = calibration.slowness([before, *calibration.since(position), after])
    return op, after


def run_round(workload) -> Round:
    done = Round()
    before = calibration.sample()
    for item in workload.inputs:
        op, before = calibrated_op(workload, item, before)
        done.ops.append(op)
    return done


def run_paired_round(workload, tracer) -> tuple[Round, Round]:
    """Every operation once untraced and once traced, alternating which
    goes first, so that drift in the machine's speed mostly cancels out of
    the tracing overhead."""
    plain, traced = Round(), Round()
    before = calibration.sample()
    for k, item in enumerate(workload.inputs):
        for with_trace in (False, True) if k % 2 == 0 else (True, False):
            if not with_trace:
                op, before = calibrated_op(workload, item, before)
                plain.ops.append(op)
                continue
            tracer.install()
            try:
                op, before = calibrated_op(workload, item, before)
            finally:
                tracer.remove()
            traced.ops.append(op)
    return plain, traced


def slack(value: float) -> float:
    """The acceptance gate's tolerance on bounds around an energy."""
    return 1e-6 * (1.0 + abs(value))


def energy_of(choice, instance: ScpInstance) -> float | None:
    """Energy of a 1-based choice vector, or None if it is not feasible."""
    m = instance.partition.m
    if len(choice) != len(m) or any(
        not isinstance(c, int) or not 1 <= c <= mi for c, mi in zip(choice, m)
    ):
        return None
    x = Assignment(tuple(choice)).to_indicator(instance.partition)
    if not is_feasible(x, instance.partition):
        return None
    return objective(x, instance.energy)


def same_energy(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * (1.0 + abs(a))


def check_sandwich(report, optimum: float) -> bool:
    """corpus: lbd <= brute-force optimum <= ubd."""
    return report.lbd - slack(optimum) <= optimum <= report.ubd


def check_library_report(report, instance: ScpInstance) -> bool:
    """dense: the assignment is feasible, its energy is ubd, lbd <= ubd."""
    if report.assignment is None:
        return False
    energy = energy_of(list(report.assignment.choice), instance)
    return (
        energy is not None
        and same_energy(energy, report.ubd)
        and report.lbd - slack(report.ubd) <= report.ubd
    )


def check_cli_report(doc: dict, instance: ScpInstance, planted: Assignment) -> bool:
    """structured: the report's assignment is feasible on the original
    instance, its energy is ubd, and lbd <= the planted energy."""
    energy = energy_of(doc.get("assignment"), instance)
    planted_energy = objective(planted.to_indicator(instance.partition), instance.energy)
    return (
        energy is not None
        and same_energy(energy, doc["ubd"])
        and doc["lbd"] - slack(planted_energy) <= planted_energy
    )


def timed_solve(instance: ScpInstance, params=None) -> Op:
    started = time.perf_counter()
    try:
        report = solver.solve(instance, params)
    except Exception as exc:  # counted as a failed operation
        return Op(time.perf_counter() - started, error=repr(exc))
    return Op(
        time.perf_counter() - started,
        report.time_sec,
        report.iterations,
        report.rel_gap,
        result=report,
    )


def warm_up() -> None:
    """One small solve so lazy library set-up is not timed."""
    solver.solve(random_instance(3, 3, (-10.0, 10.0), seed=0))


class Corpus:
    """The acceptance gate's 200 instances (p 2-6, m <= 5) in seeded order,
    one library solve each with default parameters."""

    calibration_kernel = "interpreter"

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(CORPUS_SEED)
        corpus = [
            random_instance(int(rng.integers(2, 7)), 5, (-10, 10), seed=INSTANCE_SEED + i)
            for i in range(CORPUS_SIZE)
        ]
        order = np.random.default_rng(self.seed).permutation(CORPUS_SIZE)
        self.inputs = [corpus[i] for i in order]
        warm_up()

    def run_op(self, instance) -> Op:
        return timed_solve(instance)

    def check(self, rounds: list[Round]) -> list[bool]:
        optima = [brute_force(instance).optimum for instance in self.inputs]
        return [
            op.error is None and check_sandwich(op.result, optimum)
            for r in rounds
            for op, optimum in zip(r.ops, optima)
        ]


class Dense:
    """One dense i.i.d. instance with p = 80 and n0 = 803, solved by the
    library with default parameters up to DENSE_ITER_CAP iterations."""

    calibration_kernel = "blas"

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self) -> None:
        sizes = random_instance(80, 20, (-10, 10), seed=DENSE_SIZE_SEED).partition.m
        rng = np.random.default_rng(self.seed)
        partition = RotamerPartition(tuple(int(v) for v in rng.permutation(sizes)))
        raw = rng.uniform(-10.0, 10.0, size=(partition.n0, partition.n0))
        energy = canonicalize_energy(0.5 * (raw + raw.T), partition)
        instance = ScpInstance(partition, energy, f"dense-seed{self.seed}")
        self.params = replace(default_params(instance), max_iter=DENSE_ITER_CAP)
        self.inputs = [instance]
        warm_up()

    def run_op(self, instance) -> Op:
        return timed_solve(instance, self.params)

    def check(self, rounds: list[Round]) -> list[bool]:
        return [
            op.error is None and check_library_report(op.result, instance)
            for r in rounds
            for op, instance in zip(r.ops, self.inputs)
        ]


class Structured:
    """Protein-like instances written to files and solved the way users do:
    ``scpsolve solve FILE --dee --out REPORT``, in-process."""

    calibration_kernel = "mixed"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for k in range(STRUCTURED_PER_ROUND):
            instance, planted = structured_instance(self.seed * 1000 + k)
            path = self.workdir / f"instance-{k}.json"
            save_instance(instance, path)
            self.inputs.append((instance, planted, path))
        warm_up()

    def run_op(self, item) -> Op:
        path = item[2]
        out = path.with_name(path.stem + "-report.json")
        started = time.perf_counter()
        try:
            code = cli.main(["solve", str(path), "--dee", "--out", str(out)])
        except Exception as exc:  # counted as a failed operation
            return Op(time.perf_counter() - started, error=repr(exc))
        seconds = time.perf_counter() - started
        if code not in EXIT_CODES_OK:
            return Op(seconds, error=f"exit code {code}")
        try:
            doc = json.loads(out.read_text())
            out.unlink()
        except (OSError, ValueError) as exc:
            return Op(seconds, error=repr(exc))
        missing = REPORT_FIELDS - doc.keys()
        if missing:
            return Op(seconds, error=f"report lacks {sorted(missing)}")
        return Op(seconds, doc["time_sec"], doc["iter"], doc["rel_gap"], result=doc)

    def check(self, rounds: list[Round]) -> list[bool]:
        return [
            op.error is None and check_cli_report(op.result, instance, planted)
            for r in rounds
            for op, (instance, planted, _) in zip(r.ops, self.inputs)
        ]


WORKLOADS = {"corpus": Corpus, "dense": Dense, "structured": Structured}
