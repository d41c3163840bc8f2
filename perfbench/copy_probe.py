"""Host copy bandwidth: one array, its first half copied onto its second.

Bytes moved per copy are counted as read plus write, the array's size,
the same convention as the computed apply_circuit bytes.  Run as a
script for the memory-sized probe, so its allocation stays out of the
benchmark process's peak resident memory:

    python3 perfbench/copy_probe.py BYTES REPEATS
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np


def copy_gbps(nbytes: int, repeats: int) -> float:
    buf = np.ones(nbytes // 8)
    half = buf.size // 2
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(buf[half:2 * half], buf[:half])
        times.append(time.perf_counter() - start)
    return 2 * half * 8 / statistics.median(times) / 1e9


if __name__ == "__main__":
    print(copy_gbps(int(sys.argv[1]), int(sys.argv[2])))
