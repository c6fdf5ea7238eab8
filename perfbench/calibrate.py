"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The benchmark times this loop next to the operations, in the same process
where it can, and scales each end-to-end time by ``REFERENCE_S`` over the
loop's median time: the result is the time the operation would take on a
machine where the loop takes ``REFERENCE_S``.  The loop shares no code
with the library (integer arithmetic, gcd, tuples, a dict and a list), so
a change to the library moves the scaled time exactly as it moves the raw
one.  Do not change the loop: scaled times are comparable only while it
stays the same.
"""

import math
import time

REFERENCE_S = 0.010


def loop() -> int:
    acc = 0
    table = {}
    x = 123456789123456789
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        acc += math.gcd((x * (i + 1)) // 7 + i, 1001 * i + 1)
        acc += sum([i, i + 1, i + 2])
    return acc


def measure() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


if __name__ == "__main__":
    import statistics

    print(statistics.median(measure() for _ in range(3)))
