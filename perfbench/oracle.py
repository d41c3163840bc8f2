"""Independent reference results that the benchmark checks the program against.

Nothing here imports qsca: each function restates one rule from the
paper in the plainest form, so a wrong answer from the program cannot
also be a wrong answer here.
"""

from __future__ import annotations

import numpy as np


class Diverged(Exception):
    """The reference scan passed its safety bound, as StepDivergedError does."""

    def __init__(self, time_index: int):
        super().__init__(f"scan diverged at step {time_index}")
        self.time_index = time_index


def _trim(origin: int, bits: list[int]) -> tuple[int, tuple[int, ...]]:
    lo, hi = 0, len(bits)
    while lo < hi and bits[lo] == 0:
        lo += 1
    while hi > lo and bits[hi - 1] == 0:
        hi -= 1
    return (origin + lo if lo < hi else 0), tuple(bits[lo:hi])


def parity_filter_step(r: int, origin: int, bits: tuple[int, ...]
                       ) -> tuple[int, tuple[int, ...]]:
    """One left-to-right scan of the parity filter automaton.

    A site becomes 1 exactly when its window (r updated left bits, the
    old center, r old right bits) is nonzero with even weight.  The scan
    starts r sites left of the support and stops past the old support
    once the r latest new bits are zero; it gives up after the support
    width plus 64(r+1) sites, the program's default bound.
    """
    if not bits:
        return 0, ()
    width = len(bits)
    limit = width + 64 * (r + 1)
    old = (0,) * r + tuple(bits) + (0,) * (2 * r + 1)
    out: list[int] = []
    new_sum = 0          # weight of the last r new bits
    old_sum = sum(old[0:r + 1])  # weight of old[n .. n+r]
    n = 0
    while n < width + r or new_sum:
        if n >= limit:
            raise Diverged(0)
        s = new_sum + old_sum
        bit = 1 if s and not s & 1 else 0
        out.append(bit)
        new_sum += bit - (out[n - r] if n >= r else 0)
        n += 1
        old_sum += (old[n + r] if n + r < len(old) else 0) - old[n - 1]
    return _trim(origin - r, out)


def parity_filter_evolve(r: int, bits: tuple[int, ...], steps: int
                         ) -> list[tuple[int, tuple[int, ...]]]:
    """Rows (origin, bits) of `steps` scans from a configuration at origin 0."""
    rows = [_trim(0, list(bits))]
    for t in range(1, steps + 1):
        try:
            rows.append(parity_filter_step(r, *rows[-1]))
        except Diverged:
            raise Diverged(t) from None
    return rows


def pbm_text(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    """Plain PBM (P1) of the rows over their common site range."""
    live = [(o, b) for o, b in rows if b]
    if live:
        lo = min(o for o, _ in live)
        hi = max(o + len(b) for o, b in live)
    else:
        lo, hi = 0, 1
    lines = ["P1", f"{hi - lo} {len(rows)}"]
    for o, b in rows:
        cells = ["0"] * (hi - lo)
        for i, bit in enumerate(b):
            if bit:
                cells[o - lo + i] = "1"
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def chain_step_word(r: int, n: int, word: int) -> int:
    """Bounded-lattice step of an n-site word, site 1 most significant.

    Cells outside 1..n are fixed zeros.  Valid as a reference for the
    unbounded scan only when sites 1..r of the word are zero, which is
    how the benchmark samples words.
    """
    bits = tuple((word >> (n - s)) & 1 for s in range(1, n + 1))
    origin, out = parity_filter_step(r, 1, bits)
    result = 0
    for i, bit in enumerate(out):
        site = origin + i
        if bit and 1 <= site <= n:
            result |= 1 << (n - site)
    return result


def window_operator(r: int) -> np.ndarray:
    """U as a 0/1 matrix: column x holds 1 at x with its center rewritten."""
    width = 2 * r + 1
    dim = 2 ** width
    x = np.arange(1, dim, dtype=np.int64)
    parity = np.bitwise_count(x) & 1
    y = (x & ~(1 << r)) | ((1 ^ parity) << r)
    mat = np.zeros((dim, dim), dtype=np.int8)
    mat[y, x] = 1
    return mat


def blocked_form(r: int) -> np.ndarray:
    """diag(identity on 2^(2r) words, antidiagonal (1, ..., 1, 0))."""
    dim = 2 ** (2 * r + 1)
    k = 2 ** (2 * r)
    m = dim - k
    want = np.zeros((dim, dim), dtype=np.int8)
    want[:k, :k] = np.eye(k, dtype=np.int8)
    idx = np.arange(m - 1)
    want[k + idx, k + m - 1 - idx] = 1
    return want


def affine_destinations(n: int, gates: list[tuple[str, int, int]]
                        ) -> np.ndarray:
    """Where each basis index lands under a NOT/CN circuit.

    NOT and CN are affine maps x -> Ax + b over GF(2), so the circuit is
    one such map, folded here gate by gate on n row masks.  The returned
    array d satisfies out[d[x]] == in[x] for the state vectors.
    Gates are ("X", q, 0) or ("CN", control, target), qubits 1-based with
    qubit 1 most significant.
    """
    rows = [1 << (n - q) for q in range(1, n + 1)]
    offset = [0] * n
    for kind, a, b in gates:
        if kind == "X":
            offset[a - 1] ^= 1
        else:
            rows[b - 1] ^= rows[a - 1]
            offset[b - 1] ^= offset[a - 1]
    x = np.arange(2 ** n, dtype=np.int64)
    dest = np.zeros_like(x)
    for q in range(1, n + 1):
        bit = (np.bitwise_count(x & rows[q - 1]) & 1).astype(np.int64)
        dest |= (bit ^ offset[q - 1]) << (n - q)
    return dest


def stage_pattern_instances(L: int, r: int) -> int:
    """Number of L-block particles of (r+1)-bit blocks, ends nonzero."""
    words = 2 ** (r + 1)
    if L == 1:
        return words - 1
    return (words - 1) ** 2 * words ** (L - 2)
