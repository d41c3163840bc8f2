"""State-vector simulator and word kernels for the automaton's gate set.

The gate set, `Circuit`, the GF(2) fold `affine_fold` and the one-word
image `int_image` live in the numpy-free `qsca.gates`; this module runs
them on arrays, qubit 1 the most significant index bit.  `affine_image`
maps int64 basis indices through a fold, one table lookup per 12 index
bits.  A state runs only NOT/CN circuits: apply_circuit moves the
amplitudes by one gather through the inverse map, and a circuit holding
a reset raises TypeError before any 2^n array is made.  Every gate is
its own inverse (the pairwise CNs of a collective CN act on disjoint
qubits and commute), so the inverse map is the fold of the circuit
reversed.  The gather writes 2^12 outputs at a time: the inverse image
of index (h << 12) | l is high[h] ^ low[l], where low folds the 12 least
significant qubits (carrying b) and high the rest, so no 2^n index
array is built and the output state is apply_circuit's peak memory.

`word_image` pushes int64 basis words through a circuit, resets
included: one `affine_image` per NOT/CN run and `BlockReset.mask` per
reset, -1 where a literal reset meets a zero block.  Both kernels refuse
registers above 63 qubits (`check_word_width`).  circuit_matrix never
runs states: it pushes the words 0..2^n-1 through `word_image` and
scatters ones into a zeroed matrix, its whole peak memory apart from a
few 2^n-entry word arrays.

Every dense matrix passes one size check, `_check_dense`, before its
first 2^n-sized array: at most the 256 MiB of a complex
MAX_DENSE_DIMENSION-square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import MAX_DENSE_DIMENSION, DimensionTooLarge
# Not and Cn stay readable here, where the benchmark builds its circuits
from .gates import (BlockReset, Circuit, Cn, GateOp, Not, affine_fold,
                    check_word_width)

__all__ = [
    "ArrayEq",
    "StateVector",
    "apply_circuit",
    "circuit_matrix",
    "affine_image",
    "word_image",
]

_CHUNK_QUBITS = 12  # a gather writes 2^12 outputs per np.take


def _check_dense(entries: int, itemsize: int) -> None:
    """Refuse more bytes than the dense budget, the 256 MiB of a complex
    MAX_DENSE_DIMENSION-square matrix (a row pad not counted)."""
    budget = 16 * MAX_DENSE_DIMENSION ** 2
    if entries * itemsize > budget:
        raise DimensionTooLarge(f"{entries * itemsize} bytes exceeds the "
                                f"dense budget of {budget >> 20} MiB")


def square_zeros(dim: int, dtype=float) -> np.ndarray:
    """A zero dim x dim matrix whose rows are one 64-byte cache line apart
    more than they need to be: the [:, :dim] view of a wider buffer.

    At dim = 2^k a contiguous row stride is a power of two, so every
    entry of a column falls into the same few cache sets and a transposed
    read (`m == m.T`, `m - m.T`) misses on each entry; the pad spreads a
    column over all sets (Lam, Rothberg & Wolf, ASPLOS-IV (1991)).
    """
    itemsize = np.dtype(dtype).itemsize
    _check_dense(dim * dim, itemsize)
    return np.zeros((dim, dim + 64 // itemsize), dtype=dtype)[:, :dim]


class ArrayEq:
    """Value equality for frozen dataclasses with array fields, declared
    with eq=False: equal when the types match and every field is
    np.array_equal.  The hash agrees with it (+ 0 turns -0.0 into 0.0),
    so the arrays must be read-only: `_freeze` stores each one as a
    read-only copy."""

    def _freeze(self, name: str, dtype) -> np.ndarray:
        """Replace field `name` by a read-only copy as dtype; return it."""
        a = np.array(getattr(self, name), dtype=dtype)
        a.flags.writeable = False
        object.__setattr__(self, name, a)
        return a

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(tuple((v + 0).tobytes() if isinstance(v, np.ndarray)
                          else v for v in self._values()))


@dataclass(frozen=True, eq=False)
class StateVector(ArrayEq):
    """Amplitudes over 2^n basis labels, qubit 1 most significant."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        amp = self._freeze("amplitudes", complex)
        if amp.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"expected {2 ** self.n_qubits} amplitudes, got {amp.shape}")

    @classmethod
    def _owning(cls, n_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        """Wrap a complex array of 2^n_qubits amplitudes without a copy:
        the state takes it over and makes it read-only."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "amplitudes", amplitudes)
        amplitudes.flags.writeable = False
        return state


def _span(cols: Sequence[int], b: int) -> np.ndarray:
    """b xor'ed with every subset of cols: entry i takes cols[k] for each
    set bit k of i.  Built by doubling."""
    out = np.empty(2 ** len(cols), dtype=np.int64)
    out[0] = b
    for k, col in enumerate(cols):
        np.bitwise_xor(out[:2 ** k], col, out=out[2 ** k:2 ** (k + 1)])
    return out


def _gather(n: int, src: np.ndarray,
            fold: tuple[tuple[int, ...], int]) -> np.ndarray:
    """A new array out with out[y] = src[image of y under fold], filled
    2^_CHUNK_QUBITS entries at a time, so the index scratch is two arrays
    of at most that many entries."""
    cols, b = fold
    lsb_first = cols[::-1]
    k = min(n, _CHUNK_QUBITS)
    low, high = _span(lsb_first[:k], b), _span(lsb_first[k:], 0)
    idx = np.empty_like(low)
    out = np.empty_like(src)
    rows = out.reshape(len(high), len(low))
    for h, base in enumerate(high):
        np.bitwise_xor(low, base, out=idx)
        # every index is in range, and "clip" writes to out unbuffered
        np.take(src, idx, out=rows[h], mode="clip")
    return out


def affine_image(n: int, fold: tuple[tuple[int, ...], int],
                 x: np.ndarray) -> np.ndarray:
    """Images of the int64 basis indices x under a fold from affine_fold:
    the xor of one `_span` table entry per 12 bits of x, b folded into
    the table of the lowest 12.  Above 63 qubits DimensionTooLarge."""
    check_word_width(n)
    cols, b = fold
    lsb_first = cols[::-1]

    def lookup(lo: int, base: int) -> np.ndarray:
        table = _span(lsb_first[lo:lo + _CHUNK_QUBITS], base)
        return table.take((x >> lo) & (len(table) - 1))

    y = lookup(0, b)
    for lo in range(_CHUNK_QUBITS, n, _CHUNK_QUBITS):
        y ^= lookup(lo, 0)
    return y


def _is_reset(op: GateOp) -> bool:
    return isinstance(op, BlockReset)


def word_image(n: int, ops: Iterable[GateOp], x: np.ndarray) -> np.ndarray:
    """Images of the int64 basis words x under ops, -1 where a literal
    reset meets an already-zero block.

    Each word lies in [0, 2^n) or is -1, and n is at most 63 (above,
    DimensionTooLarge).  The words are not checked: any negative word
    comes back as -1, and bits above n of the others are dropped by a
    NOT/CN run but kept by a reset.
    """
    check_word_width(n)
    dead = x < 0
    for is_reset, run in groupby(ops, _is_reset):
        if not is_reset:
            x = affine_image(n, affine_fold(n, run), x)
            continue
        for op in run:
            mask = op.mask(n)
            if op.variant == "literal":
                dead |= (x & mask) == 0
            x = x & ~mask
    return np.where(dead, -1, x)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """The state after a NOT/CN/CollectiveCn circuit, bit-identical to
    running its ops one at a time: one gather through the fold of the ops
    reversed.  Peak memory is the output state and O(2^12) indices.  A
    BlockReset raises TypeError before any 2^n array is made."""
    n = state.n_qubits
    if circuit.n_qubits != n:
        raise ValueError(f"circuit on {circuit.n_qubits} qubits, state on {n}")
    fold = affine_fold(n, reversed(circuit.ops))
    return StateVector._owning(n, _gather(n, state.amplitudes, fold))


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Dense complex matrix of a circuit: column x is the image of basis
    word x, a single 1 or all zero.  Peak memory is the C-contiguous
    matrix plus a few 2^n-entry int64 word arrays; above 12 qubits, over
    the dense budget, DimensionTooLarge is raised before any of them."""
    n = circuit.n_qubits
    dim = 2 ** n
    _check_dense(dim * dim, np.dtype(complex).itemsize)
    image = word_image(n, circuit.ops, np.arange(dim, dtype=np.int64))
    cols = np.flatnonzero(image >= 0)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[image[cols], cols] = 1
    return mat
