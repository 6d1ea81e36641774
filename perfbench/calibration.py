"""Host-speed calibration: a fixed kernel timed around and during operations.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same corpus round reads 11.7 s in one minute and 17.7 s in the next.
So the benchmark times a kernel, which calls nothing of scpsolve and does
the same work on every run, right before and right after each operation,
and every ``PERIOD`` seconds while one runs (from a SIGALRM handler, which
Python runs between bytecodes, so never inside a LAPACK call).  The
geometric mean of the samples over the kernel's reference time is the
host's slowness during the operation, and the operation's time divided by
it is its time at reference speed: what the gated metrics report.  A
change to the program moves them in full; a change in the host's speed
mostly cancels out.  The periodic samples add under 1.5% to the timed
operations, on every commit alike.

A slowdown does not hit all work alike: when interpreter-bound code runs
30% slower, a large LAPACK call runs about 15-20% slower.  So
each workload picks the kernel that does its kind of work:

- ``interpreter``: a Python loop and small eigh/matmul/clip calls, like a
  PRSM iteration on a small instance (``corpus``);
- ``blas``: one 300x300 matrix product, like the large kernels of
  ``dense``;
- ``mixed``: both, for work split between Python-level loops and
  mid-sized LAPACK calls (``structured``: DEE, then a solve with n0=330).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((24, 24))
_A = 0.5 * (_A + _A.T)
_G = _rng.standard_normal((300, 300))


def _interpreter() -> None:
    acc = 0
    table = {}
    for i in range(3000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    X = _A
    for _ in range(8):
        lam, V = np.linalg.eigh(X)
        X = _A + 0.01 * np.clip((V * np.maximum(lam, 0.0)) @ V.T, -1.0, 1.0)


def _blas() -> None:
    _G @ _G


def _mixed() -> None:
    _interpreter()
    _blas()


KERNELS = {"interpreter": _interpreter, "blas": _blas, "mixed": _mixed}
# median kernel seconds on a 2-vCPU shared host (numpy 2.4.6 with
# scipy-openblas 0.3.31, Python 3.11.7); only ratios between runs on one
# machine mean anything
REF_SECONDS = {"interpreter": 1.4e-3, "blas": 1.4e-3, "mixed": 2.8e-3}

_kernel = _interpreter
_ref_seconds = REF_SECONDS["interpreter"]
_periodic: list[float] = []
# set while a sample runs, so the alarm handler does not nest another one
_busy = False


def select(name: str) -> None:
    """Use the kernel ``name`` from KERNELS for every sample that follows."""
    global _kernel, _ref_seconds
    _kernel, _ref_seconds = KERNELS[name], REF_SECONDS[name]


def sample() -> float:
    """Seconds the kernel takes now, timed on its second call so that
    caches a large operation left cold do not count."""
    global _busy
    _busy = True
    try:
        _kernel()
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        _busy = False


def warm_up(calls: int = 50) -> None:
    for _ in range(calls):
        _kernel()


def slowness(samples) -> float:
    """Host slowness from kernel samples: 1 is reference speed, 1.3 means
    the kernel runs 30% slower."""
    return math.exp(statistics.fmean(math.log(s) for s in samples)) / _ref_seconds


def mark() -> int:
    """Position in the periodic samples, for ``since``."""
    return len(_periodic)


def since(position: int) -> list[float]:
    return _periodic[position:]


def _on_alarm(signum, frame) -> None:
    if not _busy:
        _periodic.append(sample())


@contextmanager
def periodic_sampling():
    """Take a sample every PERIOD seconds of wall time inside the block."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
