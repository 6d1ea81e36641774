"""The package namespace is the user API, the benchmark's hooks still find
every name they patch, and src/ holds nothing that the program does not
reach."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import scpsolve
import scpsolve.cli as cli
from perfbench.tracing import Tracer
from scpsolve import random_instance, save_instance

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = {
    # instances
    "Assignment",
    "InstanceError",
    "RotamerPartition",
    "ScpInstance",
    "canonicalize_energy",
    "is_feasible",
    "load_instance",
    "objective",
    "parse_instance",
    "random_instance",
    "save_instance",
    "serialize_instance",
    # solver
    "SolveReport",
    "SolverParams",
    "default_params",
    "solve",
    # bounds
    "relative_gap",
    "certified",
    # oracle
    "DeeReduction",
    "OracleResult",
    "OracleSizeError",
    "brute_force",
    "goldstein_reduce",
}


def benchmark_imports():
    """Names the benchmark's modules import from the package namespace."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "scpsolve":
                names.update(alias.name for alias in node.names)
    return names


# the field that holds the name a node reads, calls or imports
NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_src_holds_only_what_the_program_reaches():
    # what only the tests or the demos use belongs in them, built from the
    # pieces a solve runs: each module-level function and class of the
    # package, and each method but a dunder of a class outside PUBLIC_API,
    # is named in src/ or the benchmark (its tests aside) or is public
    src = sorted((ROOT / "src" / "scpsolve").glob("*.py"))
    reached = set(PUBLIC_API)
    for path in src + sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            for node in ast.walk(ast.parse(path.read_text())):
                if type(node) in NAMED:
                    reached.add(getattr(node, NAMED[type(node)]))
    unreached = []
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef) and node.name not in PUBLIC_API:
                methods = (f.name for f in node.body if isinstance(f, ast.FunctionDef))
                names += [f"{node.name}.{name}" for name in methods if not name.startswith("__")]
            unreached += [f"{path.stem}.{name}" for name in names if name.split(".")[-1] not in reached]
    assert unreached == []


def test_namespace_is_the_user_api():
    public = {
        name
        for name, value in vars(scpsolve).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == PUBLIC_API


def test_benchmark_imports_are_public():
    names = benchmark_imports()
    assert names
    assert names <= PUBLIC_API


def test_tracer_finds_every_hook(tmp_path):
    # random_instance seed 703 keeps one gap open for two checkpoints, so a
    # traced CLI solve with DEE reaches every span, both roundings included
    path = tmp_path / "inst.json"
    save_instance(random_instance(4, 4, (-10, 10), seed=703), path)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        code = cli.main(["solve", str(path), "--dee", "--out", str(tmp_path / "rpt.json")])
    finally:
        tracer.remove()
    assert code == cli.EXIT_OK
    assert tracer.not_run() == []


def test_import_leaves_scipy_out():
    # scipy.linalg would add about 0.4 s and 28 MB to every process that
    # imports scpsolve
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, scpsolve, scpsolve.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
