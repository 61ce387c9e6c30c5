"""A fixed reference kernel that measures the machine's current speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
over seconds and minutes, for every process alike: the process's CPU time
tracks its wall time, so the slow stretches are not preemption. A timing
taken in a slow stretch reads slow whatever the code under test does.

So the untraced run times this kernel between checks, and every set-up
probe times it around its set-up. The kernel uses only builtins, never the
package, so a change to the package cannot change it. A time t measured
while the kernel takes r ns is reported as t * NOMINAL_NS / r: the time t
would have taken on a machine where the kernel takes NOMINAL_NS. Its work
mixes what the package spends its time on: exact rational elimination
written on integer pairs with gcd (as `fractions` does), dictionaries and
sets of small tuples, and multi-word integer arithmetic.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter_ns

# A round figure inside the kernel's range on the 2-core host the benchmark
# was tuned on: 0.7 ms in its fast stretches, 1.5 ms in its slow ones.
NOMINAL_NS = 1_000_000

_SIZE = 10
_MATRIX = tuple(tuple(((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(_SIZE))
                for i in range(_SIZE))
_MODULUS = 2**127 - 1


def _sub_mul(a: tuple[int, int], k: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - k * b on reduced (numerator, denominator) pairs."""
    num = a[0] * k[1] * b[1] - k[0] * b[0] * a[1]
    den = a[1] * k[1] * b[1]
    g = gcd(num, den)
    return num // g, den // g


def kernel() -> int:
    """One fixed unit of work; returns a checksum so that nothing is skipped."""
    m = [list(row) for row in _MATRIX]
    for col in range(_SIZE):
        pivot = next((i for i in range(col, _SIZE) if m[i][col][0]), None)
        if pivot is None:
            continue
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        for i in range(col + 1, _SIZE):
            if m[i][col][0]:
                num = m[i][col][0] * top[col][1]
                den = m[i][col][1] * top[col][0]
                g = gcd(num, den)
                k = (num // g, den // g)
                m[i] = [_sub_mul(x, k, y) for x, y in zip(m[i], top)]
    seen: set = set()
    counts: dict = {}
    for i in range(900):
        key = (i % 13, i % 17, i % 5)
        if key not in seen:
            seen.add(key)
            counts[key[:2]] = counts.get(key[:2], 0) + 1
    big = 1
    for i in range(1, 200):
        big = big * (2**61 - i) % _MODULUS
    return m[-1][-1][0] + len(counts) + big % 97


def time_kernel(repeats: int) -> list[int]:
    """The times of `repeats` kernel runs, in ns, after one untimed run.

    Imports nothing, so that a set-up probe can time it before its set-up.
    """
    kernel()
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - t0)
    return times
