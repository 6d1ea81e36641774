import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import acceptance_corpus, make_instance
from scpsolve import (
    SolverParams,
    brute_force,
    certified,
    goldstein_reduce,
    load_instance,
    random_instance,
    relative_gap,
    save_instance,
    serialize_instance,
)
import scpsolve.solver as solver_module
from scpsolve.cli import EXIT_ERROR, EXIT_MAX_ITER, EXIT_OK, EXIT_UNCERTIFIED, main


@pytest.fixture
def derived_path(tmp_path, derived_instance):
    path = tmp_path / "derived.json"
    save_instance(derived_instance, path)
    return path


def assert_exits_1_cleanly(*argv):
    """Run the CLI in a fresh process: it must exit 1 with an ``error:``
    line, and print no traceback or warning."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "scpsolve.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


class TestSolveCommand:
    def test_derived_instance_report(self, derived_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", str(derived_path), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["problem"] == "derived-2x2"
        assert doc["p"] == 2 and doc["n0"] == 4
        assert doc["ubd"] == 6.0
        assert doc["assignment"] == [1, 2]
        assert doc["termination"] in ("gap_closed", "residual")
        assert doc["rel_gap"] == relative_gap(doc["ubd"], doc["lbd"])
        assert certified(doc["lbd"], doc["ubd"])
        assert doc["certified"] is True

    def test_single_rotamer_instance(self, tmp_path):
        inst = make_instance((1,), [[-2.5]], name="tiny")
        path = tmp_path / "tiny.json"
        save_instance(inst, path)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["ubd"] == -2.5
        assert abs(doc["lbd"] + 2.5) <= 1e-9
        assert doc["rel_gap"] <= 1e-12

    def test_iteration_cap_exit_code(self, derived_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", str(derived_path), "--max-iter", "1", "--out", str(out)])
        assert code == EXIT_MAX_ITER
        doc = json.loads(out.read_text())
        assert doc["termination"] == "max_iter"
        assert not certified(doc["lbd"], doc["ubd"])
        assert doc["certified"] is False

    def test_certified_at_the_cap_exits_0(self, tmp_path):
        # a single rotamer certifies at its first check, iteration 10,
        # where the cap also stops it: the exit code follows the certificate
        path = tmp_path / "one.json"
        save_instance(make_instance((1,), [[3.5]]), path)
        out = tmp_path / "report.json"
        code = main(["solve", str(path), "--max-iter", "10", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert (doc["termination"], doc["iter"]) == ("max_iter", 10)
        assert doc["certified"] is True

    def test_residual_stop_without_certificate_exit_code(self, tmp_path, monkeypatch):
        # corpus instance 146, with the relaxation stop and the dead-end
        # pairs switched off, meets the residual rule with a 2.4% gap left
        # (with its 14 pairs excluded it certifies at iteration 60)
        monkeypatch.setattr(solver_module, "RELAXATION_GAP_RTOL", 0.0)
        monkeypatch.setattr(solver_module, "dead_end_pairs", lambda *args: None)
        inst = next(itertools.islice(acceptance_corpus(), 146, None))
        path = tmp_path / "c146.json"
        save_instance(inst, path)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_UNCERTIFIED
        doc = json.loads(out.read_text())
        assert doc["termination"] == "residual"
        assert not certified(doc["lbd"], doc["ubd"])
        assert doc["certified"] is False
        assert doc["rel_gap"] > 0.02

    def test_relaxation_gap_stop_exit_code(self, tmp_path):
        # corpus instance 147, whose relaxation is not tight, stops at
        # iteration 300 with the relaxation converged below the incumbent
        inst = next(itertools.islice(acceptance_corpus(), 147, None))
        path = tmp_path / "c147.json"
        save_instance(inst, path)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_UNCERTIFIED
        doc = json.loads(out.read_text())
        assert doc["termination"] == "relaxation_gap"
        assert doc["iter"] == 300
        assert not certified(doc["lbd"], doc["ubd"])
        assert doc["certified"] is False

    def test_dead_end_pairs_reported(self, tmp_path, capsys):
        # corpus instance 146 loses 14 of its 29 pairs of rotamers in
        # distinct blocks and certifies; on p=20 seed 3 the upper bound at
        # the start shows that no pair can go, and the report says so
        inst = next(itertools.islice(acceptance_corpus(), 146, None))
        skipped = random_instance(20, 10, (-10, 10), seed=3)
        for instance, code, line, count in (
            (inst, EXIT_OK, "14 of 29 rotamer pairs excluded", 14),
            (skipped, EXIT_MAX_ITER, "none can go by the upper bound at the start, exact bound skipped", None),
        ):
            path = tmp_path / "instance.json"
            save_instance(instance, path)
            out = tmp_path / "report.json"
            assert main(["solve", str(path), "--max-iter", "100", "--out", str(out)]) == code
            assert capsys.readouterr().err == f"dead-end pairs: {line}\n"
            assert json.loads(out.read_text())["excluded_pairs"] == count

    def test_param_overrides_echoed(self, derived_path, tmp_path):
        out = tmp_path / "report.json"
        main(["solve", str(derived_path), "--beta", "2", "--t", "50", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["params"]["beta"] == 2.0
        assert doc["params"]["t_consecutive"] == 50

    def test_report_key_order_and_params(self, derived_path, tmp_path):
        out = tmp_path / "report.json"
        main(["solve", str(derived_path), "--eps", "1e-8", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert list(doc) == [
            "problem",
            "p",
            "n0",
            "lbd",
            "ubd",
            "rel_gap",
            "iter",
            "time_sec",
            "assignment",
            "termination",
            "certified",
            "excluded_pairs",
            "params",
        ]
        assert list(doc["params"].items()) == [
            ("beta", 1.0),
            ("gamma", 0.9),
            ("epsilon", 1e-8),
            ("max_iter", 2 * 5 + 10_000),
            ("t_consecutive", 100),
        ]

    def test_every_param_settable_by_its_flag(self, derived_path, tmp_path):
        values = {
            "beta": ("--beta", 3.0),
            "gamma": ("--gamma", 0.5),
            "epsilon": ("--eps", 1e-6),
            "max_iter": ("--max-iter", 7),
            "t_consecutive": ("--t", 2),
        }
        assert set(values) == {f.name for f in dataclasses.fields(SolverParams)}
        out = tmp_path / "report.json"
        argv = ["solve", str(derived_path), "--out", str(out)]
        for flag, value in values.values():
            argv += [flag, str(value)]
        main(argv)
        doc = json.loads(out.read_text())
        assert doc["params"] == {name: value for name, (_, value) in values.items()}

    @pytest.mark.parametrize(
        "flag",
        [
            ["--beta", "inf"],
            ["--beta", "0.5"],
            ["--gamma", "1.5"],
            ["--eps", "inf"],
            ["--max-iter", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_param_exits_1_cleanly(self, flag, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen", "--p", "4", "--m-max", "4", "--seed", "1", "--out", str(inst)])
        assert_exits_1_cleanly("solve", str(inst), *flag)

    def test_deeply_nested_file_exits_1_cleanly(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert_exits_1_cleanly("solve", str(path))

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_dee_preprocessing_maps_assignment_back(self, tmp_path):
        from test_oracle import dominated_instance

        inst = dominated_instance()
        path = tmp_path / "dom.json"
        save_instance(inst, path)
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--dee", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n0"] == inst.partition.n0
        assert doc["assignment"] == list(brute_force(inst).argmin.choice)
        assert doc["ubd"] == brute_force(inst).optimum


class TestGenCommand:
    def test_byte_identical_for_same_flags(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["gen", "--p", "3", "--m-max", "4", "--seed", "11"]
        assert main(flags + ["--out", str(a)]) == EXIT_OK
        assert main(flags + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bounds", [("0", "inf"), ("nan", "nan"), ("0", "1e308")], ids=" ".join)
    def test_bad_range_exits_1_cleanly(self, bounds):
        assert_exits_1_cleanly("gen", "--p", "3", "--m-max", "3", "--range", *bounds)

    @pytest.mark.parametrize("low", ["-1e3", "-1000"])
    def test_negative_range_bound_in_any_float_syntax(self, tmp_path, low):
        out = tmp_path / "wide.json"
        argv = ["gen", "--p", "2", "--m-max", "2", "--range", low, "1e3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        energy = load_instance(out).energy
        assert np.all(np.abs(energy) <= 1e3)
        assert np.max(np.abs(energy)) > 10.0  # the range was used, not the default

    def test_trivial_instance(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["gen", "--p", "1", "--m-max", "1", "--seed", "0", "--out", str(out)]) == EXIT_OK
        inst = load_instance(out)
        assert inst.partition.m == (1,)

    def test_gen_solve_oracle_end_to_end(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--p", "4", "--m-max", "3", "--seed", "21", "--out", str(inst_path)])
        rpt_path = tmp_path / "rpt.json"
        main(["solve", str(inst_path), "--out", str(rpt_path)])
        doc = json.loads(rpt_path.read_text())
        opt = brute_force(load_instance(inst_path)).optimum
        tol = 1e-6 * (1.0 + abs(opt))
        assert doc["lbd"] - tol <= opt <= doc["ubd"]


class TestOracleCommand:
    def test_derived_instance(self, derived_path, tmp_path, capsys):
        assert main(["oracle", str(derived_path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimum"] == 6.0
        assert doc["assignment"] == [1, 2]
        assert doc["enumerated"] == 4

    def test_zero_instance(self, tmp_path, capsys):
        inst = make_instance((2, 2), np.zeros((4, 4)), name="zero")
        path = tmp_path / "zero.json"
        save_instance(inst, path)
        assert main(["oracle", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["optimum"] == 0.0

    def test_oversized_instance(self, derived_path, capsys):
        assert main(["oracle", str(derived_path), "--limit", "2"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err and "4" in err


class TestDeeCommand:
    def test_singleton_blocks_identity(self, tmp_path, capsys):
        inst = make_instance((1, 1), np.eye(2), name="tiny")
        path = tmp_path / "tiny.json"
        save_instance(inst, path)
        out = tmp_path / "reduced.json"
        assert main(["dee", str(path), "--out", str(out)]) == EXIT_OK
        assert load_instance(out) == inst

    def test_dominated_instance_reduces(self, tmp_path, capsys):
        from test_oracle import dominated_instance

        inst = dominated_instance()
        path = tmp_path / "dom.json"
        save_instance(inst, path)
        out = tmp_path / "reduced.json"
        assert main(["dee", str(path), "--out", str(out)]) == EXIT_OK
        reduced = load_instance(out)
        assert reduced.partition.m == (1, 1, 1)
        summary = capsys.readouterr().err
        assert "kept 1/3" in summary

    def test_reduced_file_resolves(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--p", "3", "--m-max", "4", "--seed", "31", "--out", str(inst_path)])
        reduced_path = tmp_path / "reduced.json"
        assert main(["dee", str(inst_path), "--out", str(reduced_path)]) == EXIT_OK
        rpt = tmp_path / "rpt.json"
        assert main(["solve", str(reduced_path), "--out", str(rpt)]) in (EXIT_OK, EXIT_MAX_ITER)
        doc = json.loads(rpt.read_text())
        # elimination preserves the optimum, so the sandwich still brackets it
        opt = brute_force(load_instance(inst_path)).optimum
        tol = 1e-6 * (1.0 + abs(opt))
        assert doc["lbd"] - tol <= opt <= doc["ubd"]


def test_gen_and_dee_write_what_serialize_instance_renders(tmp_path, capsys):
    """Both commands write row by row, to ``--out`` and to stdout alike."""
    gen = ["gen", "--p", "6", "--m-max", "5", "--seed", "9"]
    generated = serialize_instance(random_instance(6, 5, (-10.0, 10.0), 9))
    path = tmp_path / "inst.json"
    assert main(gen + ["--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == generated.encode("utf-8")
    assert main(gen) == EXIT_OK
    assert capsys.readouterr().out == generated
    reduced = serialize_instance(goldstein_reduce(load_instance(path)).reduced)
    out = tmp_path / "reduced.json"
    assert main(["dee", str(path), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == reduced.encode("utf-8")
    assert main(["dee", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == reduced


@pytest.mark.parametrize("command", ["solve", "oracle", "dee"])
def test_nonfinite_energy_rejected(command, tmp_path, capsys):
    for value in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"name": "bad", "p": 2, "m": [1, 1], "E": [[0.0, {value}], [{value}, 0.0]]}}'
        )
        assert main([command, str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error: energy matrix has non-finite entries" in captured.err
        assert captured.out == ""


def test_energy_overflowing_symmetrization_rejected(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"name": "huge", "p": 2, "m": [1, 1], "E": [[0.0, 1.7e308], [1.7e308, 0.0]]}')
    assert main(["solve", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "error: energy magnitude exceeds half the float range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "must be a JSON object"),
        ('{"name": 3, "p": 1, "m": [1], "E": [[0]]}', "'name' must be a string"),
        ('{"name": "x", "p": 1.0, "m": [1], "E": [[0]]}', "'p' must be an integer"),
        ('{"name": "x", "p": true, "m": [1], "E": [[0]]}', "'p' must be an integer"),
        ('{"name": "x", "p": 2, "m": [1], "E": [[0]]}', "'m' must be a list of p"),
        ('{"name": "x", "p": 1, "m": 1, "E": [[0]]}', "'m' must be a list of p"),
        ('{"name": "x", "p": 1, "m": [1.5], "E": [[0]]}', "block sizes must be integers"),
        ('{"name": "x", "p": 1, "m": [false], "E": [[0]]}', "block sizes must be integers"),
        ('{"name": "x", "p": 1, "m": [2], "E": [[0, 1], [1]]}', "'E' must be square"),
        ('{"name": "x", "p": 1, "m": [2], "E": [[0, 1], 1]}', "'E' must be square"),
    ],
)
def test_malformed_document_rejected(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_energies_beyond_the_projection_rejected(tmp_path, capsys):
    # self energies of 1e17 swamp the trace p + 1 in the simplex projection
    inst = make_instance((2, 2), np.diag([1e17] * 4), name="huge-self")
    path = tmp_path / "huge-self.json"
    save_instance(inst, path)
    assert main(["solve", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "lost to rounding" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
