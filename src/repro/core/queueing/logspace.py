"""The two log-space primitives the queueing models share (numpy + ``math`` only).

:func:`log_factorials` is the process-wide table of ``log(k!)`` that the
scalar M/M/c formulas and the solver's kernel index; :func:`logsumexp`
is the reduction behind both normalising constants.  Each returns, bit
for bit, what the special-function library the tests use as an oracle
returns (its ``gammaln(k + 1)`` and ``logsumexp``; see
``tests/test_solver.py``), so that library — whose import cost more than
a whole ``steady_columnar`` run — is not a dependency of the run path.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# cephes lgam, the routine gammaln runs: below x = 13 the log of an
# exactly accumulated product (k! itself for x = k + 1), from 13 up
# Stirling's formula plus a correction series in p = 1/x²
_LOG_SQRT_2PI = 0.91893853320467274178
_SERIES = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)

_TABLE_LOCK = threading.Lock()
_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])
_LOG_FACTORIALS.setflags(write=False)


def _stirling(start: int, stop: int) -> np.ndarray:
    """``lgam(k + 1)`` for ``k = start .. stop − 1``, ``start ≥ 12``.

    The logarithm must be libm's: ``np.log``'s SIMD kernel differs from
    it in the last bit of some arguments (first at ``k = 9169``), which
    would move ``achieved_probability`` bytes.  The rest is float64
    arithmetic in cephes' order, which numpy reproduces.
    """
    x = np.arange(start, stop, dtype=float) + 1.0
    log_x = np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)
    q = (x - 0.5) * log_x - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    series = np.full_like(p, _SERIES[0])
    for coefficient in _SERIES[1:]:
        series = series * p + coefficient
    short = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    q_corrected = q + np.where(x >= 1000.0, short, series) / x
    return np.where(x > 1.0e8, q, q_corrected)


def log_factorials(n: int) -> np.ndarray:
    """Table of ``log(k!)`` for ``k = 0 .. ≥ n``, grown once and shared.

    The returned array has length at least ``n + 1``, is shared
    process-wide and is read-only.  Growth doubles to the next power of
    two and computes only the new tail (an entry depends on its index
    alone, so growth never changes existing ones) in a Python-level
    ``math.log`` loop: about 0.2 µs an entry, once per process.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n + 1 > table.shape[0]:
        with _TABLE_LOCK:
            table = _LOG_FACTORIALS
            if n + 1 > table.shape[0]:
                size = max(1024, table.shape[0])
                while size < n + 1:
                    size *= 2
                table = np.concatenate([table, _stirling(table.shape[0], size)])
                table.setflags(write=False)
                _LOG_FACTORIALS = table
    return table


def logsumexp(a: np.ndarray) -> float:
    """``log Σ exp(a_i)`` of a 1-D float vector whose maximum is finite.

    The oracle library's reduction without its array-API wrapper (~100 µs a call):
    the maxima are pulled out of the sum and counted, the rest is summed
    shifted (``−inf`` entries add nothing).  numpy ufuncs throughout —
    ``math.log1p`` rounds differently — so the result is bit-identical.
    """
    a_max = a.max()
    is_max = a == a_max
    m = np.count_nonzero(is_max)
    shifted = a - a_max
    shifted[is_max] = -np.inf
    s = np.exp(shifted, out=shifted).sum() / m
    return np.log1p(s) + np.log(m) + a_max


__all__ = ["log_factorials", "logsumexp"]
