"""Host-speed calibration: fixed kernels that share no code with rotalg.

The reference machine's speed drifts between states about 1.5x apart that
last seconds to minutes (a fixed pure-Python loop timed for minutes has an
interquartile range of 15-19% of its median), so raw wall times of one
seed, taken minutes apart, spread as much as the bound allows.  The runner
therefore runs a short kernel before every operation (and once after the
last) and scales each operation's time by REF / (local kernel time): the
reported times are seconds at the speed where the kernel takes REF.  The
kernels use only the standard library or numpy, never rotalg, so a faster
program lowers the reported times and the kernels do not move.

Two kernels, chosen per workload by the kind of work that dominates it:

- ``python``: Fraction arithmetic, tuple hashing, set and dict updates and
  sorting, the interpreter work of the exact engine and the suites.
- ``lapack``: a dense Hermitian eigenvalue solve of a fixed 200x200 complex
  matrix, the work that dominates the float norm.

Each takes about 5 ms on the reference machine.
"""
from __future__ import annotations

import functools
import statistics
import time
from fractions import Fraction

REF = {"python": 0.005, "lapack": 0.005}
KERNEL = {"lattice-join": "python", "lattice-query": "python",
          "operator-norm": "lapack", "exact-algebra": "python"}
WINDOW = 2          # kernel times on each side of an operation in its median


def _python_kernel() -> None:
    acc, seen, counts = Fraction(0), set(), {}
    for i in range(250):
        x = Fraction(i % 17 + 1, i % 13 + 2)
        acc = (acc + x) * Fraction(1, 2)
        key = (x, i & 7)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
        if len(seen) > 40:
            seen = set(sorted(seen)[:20])


@functools.cache
def _hermitian():
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    return x @ x.conj().T


def _lapack_kernel() -> None:
    import numpy as np
    np.linalg.eigvalsh(_hermitian())


_KERNELS = {"python": _python_kernel, "lapack": _lapack_kernel}


def kernel_time(kind: str) -> float:
    """Seconds one run of the kernel takes now."""
    run = _KERNELS[kind]
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def scaled(times: list[float], kernel_times: list[float], kind: str) -> list[float]:
    """Operation i ran between kernel_times[i] and kernel_times[i + 1];
    scale it by REF over the median of the kernel times within WINDOW
    places of that gap."""
    out = []
    for i, dt in enumerate(times):
        near = kernel_times[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(dt * REF[kind] / statistics.median(near))
    return out
