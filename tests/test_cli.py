import itertools
import json

import numpy as np
import pytest

from conftest import acceptance_corpus, make_instance
from scpsolve import brute_force, certified, load_instance, relative_gap, save_instance
from scpsolve.cli import EXIT_ERROR, EXIT_MAX_ITER, EXIT_OK, EXIT_UNCERTIFIED, main


@pytest.fixture
def derived_path(tmp_path, derived_instance):
    path = tmp_path / "derived.json"
    save_instance(derived_instance, path)
    return path


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

    def test_residual_stop_without_certificate_exit_code(self, tmp_path):
        # corpus instance 146 meets the residual rule with a 2.4% gap left
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
            "params",
        ]
        assert list(doc["params"].items()) == [
            ("beta", 1.0),
            ("gamma", 0.9),
            ("epsilon", 1e-8),
            ("max_iter", 2 * 5 + 10_000),
            ("t_consecutive", 100),
            ("bound_period", 100),
        ]

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
