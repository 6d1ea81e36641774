"""scpsolve benchmark: one workload per process, closed loop, BLAS pinned.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|dense|structured \
        --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed.  One *round* runs the
whole input set once, one operation after the other (a closed loop with a
single client); rounds repeat until ``--seconds`` have passed, at least
one.  Every operation's answer is checked.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give every metric with its base and the
environment stamp.  Exits 1 without a result when the checkout holds no
``src/scpsolve``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def import_program():
    """Import scpsolve from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "scpsolve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scpsolve package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import scpsolve

    if Path(scpsolve.__file__).resolve().parent != (src / "scpsolve").resolve():
        sys.exit(f"perfbench: scpsolve imported from {scpsolve.__file__}, not {src}")


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` inside it, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_setup(workload, import_s: float) -> float:
    """Set-up seconds at reference speed: the import scaled by calibration
    samples right after it, plus the median of SETUP_REPEATS preparations,
    each scaled by the samples around and during it."""
    from perfbench import calibration

    before = statistics.median(calibration.sample() for _ in range(SETUP_REPEATS))
    import_ref_s = import_s / calibration.slowness([before])
    prepare_ref_s = []
    for _ in range(SETUP_REPEATS):
        position = calibration.mark()
        started = time.perf_counter()
        workload.prepare()
        seconds = time.perf_counter() - started
        after = calibration.sample()
        samples = [before, *calibration.since(position), after]
        prepare_ref_s.append(seconds / calibration.slowness(samples))
        before = after
    return import_ref_s + statistics.median(prepare_ref_s)


def run(args) -> int:
    import_program()
    import_s = time.perf_counter() - T_START

    from perfbench import calibration, workloads
    from perfbench.tracing import Tracer

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        calibration.select(workload.calibration_kernel)
        calibration.warm_up()
        with calibration.periodic_sampling():
            setup_s = timed_setup(workload, import_s)
            tracer = Tracer() if args.trace else None
            rounds, untraced = [], []
            deadline = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < deadline:
                if tracer is None:
                    rounds.append(workloads.run_round(workload))
                else:
                    plain, traced = workloads.run_paired_round(workload, tracer)
                    untraced.append(plain)
                    rounds.append(traced)
        checks = workload.check(untraced + rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ops = [op for r in rounds for op in r.ops]
    attempted = len(checks)
    failed = sum(not ok for ok in checks)
    first = rounds[0].ops
    certified = sum(op.rel_gap <= workloads.CERT_GAP for op in first)
    wall = statistics.median(r.wall for r in rounds)
    ref_wall = statistics.median(r.ref_wall for r in rounds)
    solve_s = sum(op.solve_s for op in ops)
    ref_solve_s = sum(op.solve_s / op.slowness for op in ops)
    iters = sum(op.iterations for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (ref_wall, "s"),
        "ms_per_iter_ref": (1e3 * ref_solve_s / iters if iters else 0.0, "ms"),
        "iters_total": (sum(op.iterations for op in first), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "rounds": len(rounds),
        "ops_per_round": len(first),
        "wall_s": wall,
        "ms_per_iter": 1e3 * solve_s / iters if iters else 0.0,
        "host_slowness": wall / ref_wall,
        "certified_frac": f"{certified}/{len(first)}",
        "final_gap": percentile([op.rel_gap for op in first], 50),
        "failed_frac": f"{failed}/{attempted}",
        "op_s_p50": {"value": percentile([op.seconds for op in ops], 50), "ops": len(ops)},
        "op_s_p95": {"value": percentile([op.seconds for op in ops], 95), "ops": len(ops)},
    }
    if tracer is not None:
        layer = tracer.metrics(len(rounds))
        info["absent"] = tracer.absent
        info["not_run"] = tracer.not_run()
        plain_wall = statistics.median(r.ref_wall for r in untraced)
        info["tracing_overhead"] = {
            "untraced_wall_ref_s": plain_wall,
            "traced_wall_ref_s": ref_wall,
            "overhead_frac": ref_wall / plain_wall - 1.0,
        }
        reported = layer
    else:
        reported = end_to_end

    print(json.dumps({"environment": environment(args.workload, args.seed)}))
    print(json.dumps({"info": info}))
    for name, (value, unit) in {**end_to_end, **(layer if tracer else {})}.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "dense", "structured"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
