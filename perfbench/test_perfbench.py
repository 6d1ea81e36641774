"""Tests of the benchmark's own parts: the structured generator, the answer
checks, the host-speed calibration, and the refusal to run without the
program."""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import calibration
from perfbench.structured import structured_instance
from perfbench.workloads import Op, Round, Structured, check_cli_report
from scpsolve import goldstein_reduce, is_feasible, objective, save_instance

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def generated():
    return structured_instance(7)


def test_same_seed_gives_identical_instance_files(tmp_path):
    paths = []
    for k, seed in enumerate((7, 7, 8)):
        path = tmp_path / f"instance-{k}.json"
        save_instance(structured_instance(seed)[0], path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_planted_assignment_is_feasible(generated):
    instance, planted = generated
    assert instance.partition.p == 60 and instance.partition.n0 == 630
    assert max(instance.partition.m) <= 20
    assert is_feasible(planted.to_indicator(instance.partition), instance.partition)


def test_dee_keeps_well_under_all_rotamers(generated):
    instance, planted = generated
    reduction = goldstein_reduce(instance)
    assert reduction.reduced.partition.n0 <= 0.6 * instance.partition.n0


def _honest_report(instance, planted):
    energy = objective(planted.to_indicator(instance.partition), instance.energy)
    return {"assignment": list(planted.choice), "ubd": energy, "lbd": energy - 1.0}


def test_honest_report_passes(generated):
    assert check_cli_report(_honest_report(*generated), *generated)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc, m: doc.update(ubd=doc["ubd"] + 1.0),
        lambda doc, m: doc.update(ubd=doc["ubd"] - 1e-3),
        lambda doc, m: doc.update(lbd=doc["ubd"] + 1.0),
        lambda doc, m: doc["assignment"].__setitem__(0, m[0] + 1),
        lambda doc, m: doc["assignment"].__setitem__(0, 0),
        lambda doc, m: doc["assignment"].pop(),
    ],
    ids=["ubd_up", "ubd_down", "lbd_above_planted", "choice_too_big", "choice_zero", "short"],
)
def test_tampered_report_counts_as_failed(generated, tamper):
    instance, planted = generated
    doc = _honest_report(instance, planted)
    tamper(doc, instance.partition.m)
    assert not check_cli_report(doc, instance, planted)

    workload = Structured(0, None)
    workload.inputs = [(instance, planted, None)]
    rounds = [Round([Op(1.0, result=doc)]), Round([Op(1.0, error="exit code 1")])]
    assert workload.check(rounds) == [False, False]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_time_divides_out_host_slowness():
    calibration.select("mixed")
    ref = calibration.REF_SECONDS["mixed"]
    assert calibration.slowness([ref, ref]) == pytest.approx(1.0)
    assert calibration.slowness([1.5 * ref, 1.5 * ref, 1.5 * ref]) == pytest.approx(1.5)
    slow_host = Round([Op(3.0, slowness=1.5), Op(1.0, slowness=0.5)])
    assert slow_host.wall == 4.0
    assert slow_host.ref_wall == pytest.approx(4.0)
    assert Round([Op(3.0, slowness=1.5)]).ref_wall == pytest.approx(2.0)


def test_periodic_sampling_samples_long_operations_and_stops():
    calibration.select("interpreter")
    position = calibration.mark()
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.periodic_sampling():
        ends = time.perf_counter() + 3 * calibration.PERIOD
        while time.perf_counter() < ends:
            pass
    assert len(calibration.since(position)) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler
