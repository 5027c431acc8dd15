"""The benchmark's clock, and host-speed calibration.

Times are measured as CPU time of the benchmark process (``clock_ns``).
The library runs on one thread with BLAS pinned to one thread, so this is
the operation's wall time minus the time the process was not running
because the host or another process held its CPU.  On a shared host those
gaps hit about one operation in a thousand with several milliseconds each,
which on their own would decide a p99.9 tail.  Raw wall times are printed
beside the reported ones.

The speed one process gets on a shared host also drifts by 20-40% over
minutes, in CPU time as in wall time, so two runs of the same code can
differ by more than any bound worth keeping.  The benchmark therefore times
a fixed kernel, independent of kfpca, after each set-up, at least every ``PERIOD_S``
seconds of a loop and after it.  Every reported time is multiplied by
``REFERENCE_MS / c``, where ``c`` is the mean of the kernel readings taken
just before and just after that time was measured, or the reading after it
if there is none before.  Times are thus reported
at the host speed at which the kernel takes ``REFERENCE_MS``.

The kernel does the kinds of arithmetic kfpca does: one block of the
pairwise Gram, norm and inverse-norm arrays of ``kendall_tau_hat`` (arrays
larger than a core's cache), then, for about as long, small-vector
operations like those on a 51-point grid and 51 x 51 symmetric
eigensolves.  Its large arrays
are allocated once, so its speed does not depend on what the allocator
kept from the operations before it.
"""

import time

import numpy as np

# about the kernel's median time between operations on a 2-vCPU Xeon
# (Sapphire Rapids) KVM guest
REFERENCE_MS = 14.0
PERIOD_S = 0.5

clock_ns = time.process_time_ns

_rng = np.random.default_rng(20210202)
_CURVES = _rng.standard_normal((4000, 101))
_BLOCK = _CURVES[:128].copy()
_Q = np.einsum("ij,ij->i", _CURVES, _CURVES)
_NRM = np.empty((128, 4000))
_INV = np.empty_like(_NRM)
_MASK = np.empty(_NRM.shape, dtype=bool)
_ACC = np.empty((128, 101))
_SMALL = _rng.standard_normal(51)
_SYM = _rng.standard_normal((51, 51))
_SYM = _SYM + _SYM.T


def kernel() -> float:
    """One pass of the fixed calibration work; returns a checksum."""
    np.matmul(_BLOCK, _CURVES.T, out=_NRM)
    np.multiply(_NRM, -2.0, out=_NRM)
    np.add(_NRM, _Q[:128, None], out=_NRM)
    np.add(_NRM, _Q[None, :], out=_NRM)
    np.maximum(_NRM, 0.0, out=_NRM)
    np.greater(_NRM, 1e-9, out=_MASK)
    _INV.fill(0.0)
    np.divide(1.0, _NRM, out=_INV, where=_MASK)
    np.matmul(_INV, _CURVES, out=_ACC)
    y = _SMALL
    for _ in range(400):
        y = np.cumsum(y * 0.5) - y.mean()
    for _ in range(8):
        vals = np.linalg.eigvalsh(_SYM)
    return float(_ACC[0, 0] + y[0] + vals[0])


class Calibrator:
    """Kernel readings in ms, taken when ``due`` says a loop should."""

    def __init__(self):
        self.readings_ms = []
        self._last = -float("inf")

    def read(self) -> int:
        """Time the kernel once; returns the reading's index."""
        t0 = clock_ns()
        kernel()
        t1 = clock_ns()
        self.readings_ms.append((t1 - t0) / 1e6)
        self._last = time.perf_counter()
        return len(self.readings_ms) - 1

    def warm_up(self, n: int = 3):
        """Untimed kernel passes, so that the first reading is not a cold one."""
        for _ in range(n):
            kernel()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PERIOD_S


def scaled(times, before, readings_ms):
    """Each time scaled to the reference host speed.

    ``before[i]`` is the index of the last reading taken before ``times[i]``
    was measured, or -1 if there is none; the reading after it is
    ``before[i] + 1``, which must exist.
    """
    out = []
    for t, k in zip(times, before):
        after = readings_ms[k + 1]
        c = after if k < 0 else 0.5 * (readings_ms[k] + after)
        out.append(t * REFERENCE_MS / c)
    return out
