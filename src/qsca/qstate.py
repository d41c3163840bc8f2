"""State-vector simulator for the automaton's gate set.

The gate set, `Circuit`, the word kernel `word_image` and the GF(2)
fold `affine_fold` live in the numpy-free `qsca.gates`; this module runs
circuits on states, qubit 1 the most significant index bit.  A state
runs only NOT/CN circuits: apply_circuit moves the amplitudes by one
gather through the inverse map, and a circuit holding a reset raises
TypeError before any 2^n array is made.  Every gate is its own inverse
(the pairwise CNs of a collective CN act on disjoint qubits and
commute), so the inverse map is the fold of the circuit reversed.  The
gather writes 2^12 outputs at a time: the inverse image of index
(h << 12) | l is high[h] ^ low[l], where low folds the 12 least
significant qubits (carrying b) and high the rest, so no 2^n index
array is built and the output state is apply_circuit's peak memory.

circuit_matrix never runs states: it pushes the words 0..2^n-1 through
`word_image` as one int64 array and scatters ones into a zeroed matrix,
its whole peak memory apart from a few 2^n-entry word arrays.

Every dense matrix passes one size check, `_check_dense`, before its
first 2^n-sized array: at most the 256 MiB of a complex
MAX_DENSE_DIMENSION-square matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MAX_DENSE_DIMENSION, DimensionTooLarge, Frozen
# Not and Cn stay readable here, where the benchmark builds its circuits
from .gates import Circuit, Cn, Not, affine_fold, word_image

__all__ = [
    "ArrayEq",
    "StateVector",
    "apply_circuit",
    "circuit_matrix",
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


class ArrayEq(Frozen):
    """The `Frozen` value with array fields: equal when the types match
    and every field is np.array_equal.  The hash agrees with it (+ 0
    turns -0.0 into 0.0), so the arrays must be read-only: `_freeze`
    stores each one as a read-only copy."""

    def _freeze(self, name: str, value, dtype) -> np.ndarray:
        """Set field `name` to a read-only copy of value as dtype; return
        it."""
        a = np.array(value, dtype=dtype)
        a.flags.writeable = False
        self._assign(name, a)
        return a

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(tuple((v + 0).tobytes() if isinstance(v, np.ndarray)
                          else v for v in self._values()))


class StateVector(ArrayEq):
    """Amplitudes over 2^n basis labels, qubit 1 most significant."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self._assign("n_qubits", n_qubits)
        amp = self._freeze("amplitudes", amplitudes, complex)
        if amp.shape != (2 ** n_qubits,):
            raise ValueError(
                f"expected {2 ** n_qubits} amplitudes, got {amp.shape}")

    @classmethod
    def _owning(cls, n_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        """Wrap a complex array of 2^n_qubits amplitudes without a copy:
        the state takes it over and makes it read-only."""
        state = object.__new__(cls)
        state._assign("n_qubits", n_qubits)
        state._assign("amplitudes", amplitudes)
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
