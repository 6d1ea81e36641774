"""Shared fixtures and helpers for the test suite.

Besides the fixtures and the enumeration of feasible points, this holds the
explicit constraint matrices of the lifted geometry ([-1 | A], its exposing
matrix H'H), the QR face basis and the closed-form basis written one block
at a time.  The solver never forms them; the tests use them as independent
references for the face basis in ``scpsolve.lifting``.  It also holds the
PRSM iteration written pass by pass, unfused, from the solver's start and
on the solver's gangster set (``reference_iterations``), against which the
solver's iterates are compared bit for bit, and an instance file reader and writer built on
one ``json.loads`` or ``json.dumps`` of the whole document
(``reference_parse_instance``,
``reference_serialize_instance``, with ``reference_canonicalize_energy``),
against which the row-at-a-time ones are compared byte for byte."""

import itertools
import json
import math

import numpy as np
import pytest

from scpsolve import Assignment, InstanceError, RotamerPartition, ScpInstance, canonicalize_energy, objective, random_instance
from scpsolve.bounds import one_opt
from scpsolve import oracle, projections, solver
from scpsolve.instances import SYMMETRY_RTOL
from scpsolve.lifting import build_geometry, lift_indicator
from scpsolve.projections import (
    FIRST_GUESS,
    GUARD,
    MIN_ORDER,
    LapackError,
    rank_one_psd_trace,
    tridiagonal_psd_trace,
)

# the acceptance gate's fixed corpus
CORPUS_SIZE = 200
CORPUS_SEED = 20260808
INSTANCE_SEED = 42000

# 2 positions x 2 rotamers; diagonal self energies (1, 3, 2, 1), cross-block
# pair energies [[5, 2], [1, 4]].  The four feasible selections cost
# 13, 6, 7, 12, so the optimum is 6 at choice (1, 2).
DERIVED_E = np.array(
    [
        [1.0, 0.0, 5.0, 2.0],
        [0.0, 3.0, 1.0, 4.0],
        [5.0, 1.0, 2.0, 0.0],
        [2.0, 4.0, 0.0, 1.0],
    ]
)


def make_instance(m, entries, name="test"):
    partition = RotamerPartition(tuple(m))
    return ScpInstance(partition, canonicalize_energy(np.asarray(entries, dtype=float), partition), name)


def acceptance_corpus(size=CORPUS_SIZE, corpus_seed=CORPUS_SEED, instance_seed=INSTANCE_SEED):
    """The acceptance corpus: p uniform in 2..6, m_max 5, energies in (-10, 10).
    Other seeds give corpus-like instances held out from the gate."""
    rng = np.random.default_rng(corpus_seed)
    for i in range(size):
        p = int(rng.integers(2, 7))
        yield random_instance(p, 5, (-10, 10), seed=instance_seed + i)


def row_sum_matrix(partition: RotamerPartition) -> np.ndarray:
    """p x n0 matrix whose row i has ones exactly on block i's columns."""
    A = np.zeros((partition.p, partition.n0))
    for i, (off, mi) in enumerate(zip(partition.offsets, partition.m)):
        A[i, off : off + mi] = 1.0
    return A


def homogenized_constraints(partition: RotamerPartition) -> np.ndarray:
    """p x (n0+1) matrix [-1 | A]; feasible lifted vectors lie in its null space."""
    A = row_sum_matrix(partition)
    return np.hstack([-np.ones((partition.p, 1)), A])


def exposing_matrix(partition: RotamerPartition) -> np.ndarray:
    """H'H for the homogenized constraints H: PSD, rank p, annihilates every
    feasible lifted matrix.  Used for invariant checks, not in the solver."""
    H = homogenized_constraints(partition)
    return H.T @ H


def gangster_values(M, gangster: np.ndarray) -> np.ndarray:
    """Entries of M at the gangster indices, in their canonical order."""
    return np.asarray(M)[gangster[:, 0], gangster[:, 1]]


def qr_face_basis(partition: RotamerPartition) -> np.ndarray:
    """Reference face basis: the null space of [-1 | A] from a complete QR
    of its transpose, dropping the first p columns."""
    H = homogenized_constraints(partition)
    Q, _ = np.linalg.qr(H.T, mode="complete")
    return Q[:, partition.p :]


def blockwise_face_basis(partition: RotamerPartition) -> np.ndarray:
    """Reference closed-form face basis, written one block at a time:
    column 0 is [1; 1/m_i on block i] normalized, and each block with
    m_i > 1 adds [1'/sqrt(m_i); I - 11'/(m_i - sqrt(m_i))] on its rows."""
    V = np.zeros((partition.n0 + 1, partition.n0 + 1 - partition.p))
    V[0, 0] = 1.0
    col = 1
    for off, mi in zip(partition.offsets, partition.m):
        rows = slice(off + 1, off + 1 + mi)
        V[rows, 0] = 1.0 / mi
        if mi > 1:
            root = math.sqrt(mi)
            block = V[rows, col : col + mi - 1]
            block[0] = 1.0 / root
            block[1:] = np.eye(mi - 1) - 1.0 / (mi - root)
            col += mi - 1
    V[:, 0] /= np.linalg.norm(V[:, 0])
    return V


def zero_border_diag(M) -> np.ndarray:
    """A copy of M with row 0, column 0 and the diagonal zeroed: the mask of
    the dual steps, written out."""
    out = np.array(M, dtype=float)
    out[0, :] = 0.0
    out[:, 0] = 0.0
    np.fill_diagonal(out, 0.0)
    return out


def reference_simplex(d, total):
    """Sort-and-threshold projection onto {x >= 0, sum(x) = total}."""
    u = np.sort(d)[::-1]
    thresholds = (np.cumsum(u) - total) / np.arange(1, d.size + 1)
    active = np.nonzero(u > thresholds)[0]
    return np.maximum(d - thresholds[active[-1]], 0.0)


def reference_psd_trace(M, total, start=None):
    """PSD/trace projection as a factor: symmetrize; with a start at order
    MIN_ORDER or more, the rank-one path when the start has one column and
    it succeeds, else the tridiagonal route on a finite S where LAPACK is
    bound and none of its routines fails; else the full ``eigh``,
    gathering the eigenpairs whose projected eigenvalue is above
    order*eps*total."""
    S = M + M.T
    S *= 0.5
    if start is not None and S.shape[0] >= MIN_ORDER:
        width = start.shape[1]
        if width == 1:
            G = rank_one_psd_trace(S, total, start[:, 0])
            if G is not None:
                return G
        lapack = projections.lapack()
        if lapack is not None and np.all(np.isfinite(S)):
            try:
                return tridiagonal_psd_trace(S, total, width + GUARD if width else FIRST_GUESS, lapack)
            except LapackError:
                pass
    w, U = np.linalg.eigh(S)
    w = reference_simplex(w, total)
    keep = w > S.shape[0] * np.finfo(float).eps * total
    return U[:, keep] * np.sqrt(w[keep])


def reference_box_gangster(M, gangster):
    """Box/gangster projection of a copy of M, symmetrized first."""
    out = M + M.T
    out *= 0.5
    np.clip(out, 0.0, 1.0, out=out)
    out[gangster[:, 0], gangster[:, 1]] = 0.0
    out[0, 0] = 1.0
    return out


def solve_start(instance):
    """The solve's start: the 1-opt descent (``bounds.one_opt``) from each
    block's first smallest self energy, and its energy."""
    self_energy = np.diagonal(instance.energy)
    smallest = []
    for off, mi in zip(instance.partition.offsets, instance.partition.m):
        block = list(self_energy[off : off + mi])
        smallest.append(block.index(min(block)) + 1)
    start = one_opt(Assignment(tuple(smallest)), instance)
    return start, objective(start.to_indicator(instance.partition), instance.energy)


def reference_pair_lower_bounds(instance):
    """The ordered pair bound of every pair of rotamers in distinct blocks,
    from its definition, block pair by block pair: for r in i and s in j,
    E_rr + E_ss + 2 E_rs + sum_{k not in {i, j}} min_{t in k} [E_tt + 2 E_rt
    + 2 E_st + 2 sum_{l > k, l not in {i, j}} min_{u in l} E_tu], in O(n0^3).
    Entries with r and s in one block are NaN."""
    partition, E = instance.partition, instance.energy
    p, offsets = partition.p, partition.offsets
    blocks = [np.arange(off, off + mi) for off, mi in zip(offsets, partition.m)]
    block_of = np.repeat(np.arange(p), partition.m)
    least = np.minimum.reduceat(E, offsets, axis=1)
    bound = np.full((partition.n0, partition.n0), np.nan)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            others = np.array([k for k in range(p) if k not in (i, j)], dtype=int)
            rows = np.concatenate([blocks[k] for k in others]) if others.size else np.zeros(0, int)
            later = np.arange(p)[None, :] > block_of[rows, None]
            later[:, [i, j]] = False
            tail = E[rows, rows] + 2.0 * (least[rows] * later).sum(axis=1)
            share = tail[:, None, None] + 2.0 * E[np.ix_(rows, blocks[i])][:, :, None] + 2.0 * E[np.ix_(rows, blocks[j])][:, None, :]
            value = np.add.outer(np.diagonal(E)[blocks[i]], np.diagonal(E)[blocks[j]]) + 2.0 * E[np.ix_(blocks[i], blocks[j])]
            for k in others:
                value = value + share[block_of[rows] == k].min(axis=0)
            bound[np.ix_(blocks[i], blocks[j])] = value
    return bound


def solve_geometry(instance):
    """The lifted geometry a solve of ``instance`` runs on: its gangster
    set holds the dead-end pairs at the energy of ``solve_start``
    (``oracle.dead_end_pairs``, looked up at call time, so a test that
    patches it away in the solve can patch it away here too)."""
    start, energy = solve_start(instance)
    return build_geometry(instance, oracle.dead_end_pairs(instance, start, energy))


def reference_iterations(instance, params, iterations):
    """``iterations`` PRSM iterations on ``solve_geometry`` from
    ``initialize``'s G and Z and Y lifted from ``solve_start``, one numpy
    pass at a time, with the mask and the box projection applied to copies
    and the norms taken by ``np.linalg.norm``; beta becomes
    ``solver.BETA_STEP`` times ``params.beta`` after iteration
    ``solver.BETA_STEP_AT``, as in ``solve``.  Returns the factor G of R,
    Y, Z and the residuals (primal, dual) of every iteration, in order."""
    geometry = solve_geometry(instance)
    G, _, Z = solver.initialize(geometry)
    start, _ = solve_start(instance)
    Y = lift_indicator(start.to_indicator(instance.partition))
    beta = params.beta
    step = params.gamma * beta
    residuals = []
    for iteration in range(1, iterations + 1):
        shifted = Z / beta
        shifted += Y
        W = geometry.face.congruence(shifted)
        G = reference_psd_trace(W, geometry.partition.p + 1.0, G)
        F = geometry.face.apply(G)
        vrv = F @ F.T
        Z_half = zero_border_diag(Y - vrv) * step + Z
        target = (geometry.lifted_cost + Z_half) / beta
        Y_new = reference_box_gangster(vrv - target, geometry.gangster)
        primal = Y_new - vrv
        Z = zero_border_diag(primal) * step + Z_half
        dual_res = beta * float(np.linalg.norm(Y_new - Y))
        Y = Y_new
        primal_res = float(np.linalg.norm(primal) / np.linalg.norm(Y))
        residuals.append((primal_res, dual_res))
        if iteration == solver.BETA_STEP_AT:
            beta = solver.BETA_STEP * params.beta
            step = params.gamma * beta
    return G, Y, Z, residuals


def reference_canonicalize_energy(raw_matrix, partition: RotamerPartition) -> np.ndarray:
    """Canonicalization with a copy of the input and whole-matrix temporaries."""
    arr = np.array(raw_matrix, dtype=float)
    n0 = partition.n0
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InstanceError(f"energy matrix must be square, got shape {arr.shape}")
    if arr.shape[0] != n0:
        raise InstanceError(f"energy order {arr.shape[0]} != total rotamers {n0}")
    # NaN would slip through the symmetry comparison below
    if not np.all(np.isfinite(arr)):
        raise InstanceError("energy matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
    # beyond half the float range, arr - arr.T and arr + arr.T can overflow
    if scale > 0.5 * np.finfo(float).max:
        raise InstanceError("energy magnitude exceeds half the float range")
    if float(np.max(np.abs(arr - arr.T))) > SYMMETRY_RTOL * scale:
        raise InstanceError("energy matrix is asymmetric beyond tolerance")
    sym = 0.5 * (arr + arr.T)
    sym[partition.same_block] = 0.0
    sym.flags.writeable = False
    return sym


def reference_serialize_instance(inst: ScpInstance) -> str:
    """Render an instance as a one-line JSON document (lossless floats)."""
    doc = {
        "name": inst.name,
        "p": inst.partition.p,
        "m": list(inst.partition.m),
        "E": inst.energy.tolist(),
    }
    return json.dumps(doc) + "\n"


def reference_parse_instance(text: str) -> ScpInstance:
    """Parse the JSON instance format with one ``json.loads`` of the whole
    document; the matrix is re-canonicalized."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid instance JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError("instance JSON is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("name", "p", "m", "E"):
        if key not in doc:
            raise InstanceError(f"instance document missing field {key!r}")
    name = doc["name"]
    p, m, E = doc["p"], doc["m"], doc["E"]
    if not isinstance(name, str):
        raise InstanceError("field 'name' must be a string")
    if not isinstance(p, int) or isinstance(p, bool):
        raise InstanceError("field 'p' must be an integer")
    if not isinstance(m, list) or len(m) != p:
        raise InstanceError("field 'm' must be a list of p block sizes")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in m):
        raise InstanceError("block sizes must be integers")
    partition = RotamerPartition(tuple(m))
    if not isinstance(E, list) or len(E) != partition.n0:
        raise InstanceError(f"field 'E' must be a {partition.n0}-row matrix")
    if any(not isinstance(row, list) or len(row) != partition.n0 for row in E):
        raise InstanceError("field 'E' must be square")
    # numpy would convert strings ("3.5") and booleans to floats
    if not set().union(*(map(type, row) for row in E)) <= {int, float}:
        raise InstanceError("field 'E' must contain only numbers")
    try:
        entries = np.array(E, dtype=float)
    except OverflowError as exc:
        raise InstanceError(f"field 'E' has an entry too large for a float: {exc}") from exc
    energy = reference_canonicalize_energy(entries, partition)
    return ScpInstance(partition, energy, name)


def feasible_indicators(partition):
    """All feasible 0/1 vectors of a partition, in lexicographic choice order."""
    for combo in itertools.product(*[range(mi) for mi in partition.m]):
        x = np.zeros(partition.n0)
        for off, c in zip(partition.offsets, combo):
            x[off + c] = 1.0
        yield x


@pytest.fixture
def derived_instance():
    return make_instance((2, 2), DERIVED_E, name="derived-2x2")


@pytest.fixture
def eigh_orders(monkeypatch):
    """The order of every matrix passed to the projection's full
    eigendecomposition, ``projections.eigh``, during the test, so a test
    can tell it from any other eigensolve."""
    orders = []
    eigh = projections.eigh

    def counting(a):
        orders.append(np.shape(a)[0])
        return eigh(a)

    monkeypatch.setattr(projections, "eigh", counting)
    return orders
