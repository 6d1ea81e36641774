"""Certified global solver for protein side-chain positioning.

The package models side-chain positioning as a binary quadratic program
(one rotamer per position, quadratic energy), relaxes it to a facially
reduced doubly nonnegative program, solves the relaxation with a
Peaceman-Rachford splitting method, and certifies global optimality by
matching Lagrangian-dual lower bounds against rounded feasible upper
bounds.

This namespace holds the user API.  The lifting, projection, bound and
iteration kernels stay importable from ``scpsolve.lifting``,
``scpsolve.projections``, ``scpsolve.bounds`` and ``scpsolve.solver``.
"""

from .bounds import certified, relative_gap
from .instances import (
    Assignment,
    InstanceError,
    RotamerPartition,
    ScpInstance,
    canonicalize_energy,
    is_feasible,
    load_instance,
    objective,
    parse_instance,
    random_instance,
    save_instance,
    serialize_instance,
)
from .oracle import (
    DeeReduction,
    OracleResult,
    OracleSizeError,
    brute_force,
    goldstein_reduce,
)
from .solver import SolveReport, SolverParams, default_params, solve

__version__ = "0.1.0"
