"""State-vector simulator for the automaton's gate set.

States live on n qubits with qubit 1 the most significant index bit, so
the basis label read left to right is the binary expansion of the array
index.  The gate set is deliberately small: NOT, controlled-NOT, the
collective controlled-NOT acting qubit-wise between two equal blocks,
and the block reset that funnels a block onto its all-zero word.  The
reset comes in two variants: `literal` sums dyads over the nonzero block
words only (and therefore annihilates a component whose block is already
zero), `extended` sums over all words (fixing the zero block).  Neither
variant preserves the norm.

NOT, CN and the collective CN are affine maps x -> Ax ^ b of the basis
index over GF(2) (Aaronson & Gottesman, PRA 70, 052328 (2004)).
`affine_fold` folds a run of them into one (A, b); `affine_image` maps
basis indices through a fold, one table lookup per 12 index bits, without
any state vector.  A state runs only such circuits: apply_circuit moves
the amplitudes by one gather through the inverse map, and a circuit
holding a reset raises TypeError before any 2^n array is made.  Every
gate is its own inverse (the pairwise CNs of a collective CN act on
disjoint qubits and commute), so the inverse map is the fold of the
circuit reversed.  The gather writes 2^12 outputs at a time: the inverse
image of index (h << 12) | l is high[h] ^ low[l], where low folds the 12
least significant qubits (carrying b) and high the rest, so no 2^n index
array is built and the output state is apply_circuit's peak memory.

Every op sends a basis word to one word or to nothing (a literal reset
of an already-zero block), so `word_image` pushes int64 words through a
circuit, resets included: one `affine_image` per NOT/CN run and a block
mask per reset.  Both kernels refuse registers above 63 qubits
(`check_word_width`), whose words do not fit an int64.
circuit_matrix never runs states: it pushes the words 0..2^n-1 through
`word_image` and scatters ones into a zeroed matrix, which is its whole
peak memory apart from a few 2^n-entry word arrays.

Every dense matrix passes one size check, `_check_dense`, before its
first 2^n-sized array: at most the 256 MiB of a complex
MAX_DENSE_DIMENSION-square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import MAX_DENSE_DIMENSION, RESET_VARIANTS, DimensionTooLarge

__all__ = [
    "ArrayEq",
    "StateVector",
    "Not",
    "Cn",
    "CollectiveCn",
    "BlockReset",
    "GateOp",
    "Circuit",
    "apply_circuit",
    "circuit_matrix",
    "affine_fold",
    "affine_image",
    "word_image",
    "emit_gatelist",
]

_CHUNK_QUBITS = 12  # a gather writes 2^12 outputs per np.take
_WORD_QUBITS = 63  # a basis word is an int64


def _check_dense(entries: int, itemsize: int) -> None:
    """Refuse more bytes than the dense budget, the 256 MiB of a complex
    MAX_DENSE_DIMENSION-square matrix (a row pad not counted)."""
    budget = 16 * MAX_DENSE_DIMENSION ** 2
    if entries * itemsize > budget:
        raise DimensionTooLarge(f"{entries * itemsize} bytes exceeds the "
                                f"dense budget of {budget >> 20} MiB")


def check_word_width(n: int) -> None:
    """Refuse registers whose basis words do not fit an int64."""
    if n > _WORD_QUBITS:
        raise DimensionTooLarge(f"register of {n} qubits exceeds the limit "
                                f"of {_WORD_QUBITS}")


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


# -- gate descriptions ------------------------------------------------------

def _check_first_qubit(op, *qubits: int) -> None:
    if min(qubits) < 1:
        raise ValueError(f"op {op!r} out of range, qubits start at 1")


@dataclass(frozen=True)
class Not:
    q: int

    def __post_init__(self):
        _check_first_qubit(self, self.q)


@dataclass(frozen=True)
class Cn:
    control: int
    target: int

    def __post_init__(self):
        _check_first_qubit(self, self.control, self.target)
        if self.control == self.target:
            raise ValueError("control and target must differ")


@dataclass(frozen=True)
class CollectiveCn:
    """Qubit-wise controlled-NOT between two disjoint equal-length blocks."""

    control_block: int
    target_block: int
    block_len: int

    def __post_init__(self):
        _check_first_qubit(self, self.control_block, self.target_block)
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        c, t, w = self.control_block, self.target_block, self.block_len
        if c < t + w and t < c + w:
            raise ValueError("blocks overlap")


@dataclass(frozen=True)
class BlockReset:
    """Funnel one block onto its all-zero word.

    variant `literal` accumulates the nonzero block words only and
    annihilates components whose block is already zero; `extended` also
    keeps those components.
    """

    block: int
    block_len: int
    variant: str = "extended"

    def __post_init__(self):
        _check_first_qubit(self, self.block)
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.variant not in RESET_VARIANTS:
            raise ValueError(f"variant must be one of {RESET_VARIANTS}")


GateOp = Union[Not, Cn, CollectiveCn, BlockReset]


def _top_qubit(op: GateOp) -> int:
    """The highest qubit an op touches."""
    if isinstance(op, Not):
        return op.q
    if isinstance(op, Cn):
        return max(op.control, op.target)
    if isinstance(op, CollectiveCn):
        return max(op.control_block, op.target_block) + op.block_len - 1
    if isinstance(op, BlockReset):
        return op.block + op.block_len - 1
    raise TypeError(f"not a gate op: {op!r}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; ops are applied first to last."""

    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in self.ops:
            if _top_qubit(op) > self.n_qubits:
                raise ValueError(
                    f"op {op!r} out of range for {self.n_qubits} qubits")


def affine_fold(n: int, ops: Iterable[GateOp]) -> tuple[tuple[int, ...], int]:
    """Fold a run of NOT/CN/CollectiveCn ops into x -> Ax ^ b over GF(2).

    Returns (cols, b) on basis indices: cols[j - 1] is the image under A
    of the index bit of qubit j, and b the image of index 0.  The fold
    keeps one integer row mask per output qubit, so it costs O(1) per
    two-qubit gate and O(n^2) to turn the rows into columns.  An op that
    reaches past qubit n raises ValueError, and a BlockReset TypeError.
    """
    rows = [1 << (n - q) for q in range(1, n + 1)]
    b = 0
    for op in ops:
        if isinstance(op, BlockReset):
            raise TypeError(f"not a NOT/CN op: {op!r}")
        if _top_qubit(op) > n:
            raise ValueError(f"op {op!r} out of range for {n} qubits")
        if isinstance(op, Not):
            b ^= 1 << (n - op.q)
            pairs = ()
        elif isinstance(op, Cn):
            pairs = ((op.control, op.target),)
        else:
            pairs = ((op.control_block + k, op.target_block + k)
                     for k in range(op.block_len))
        for c, t in pairs:
            rows[t - 1] ^= rows[c - 1]
            b ^= ((b >> (n - c)) & 1) << (n - t)
    cols = tuple(
        sum(((rows[q - 1] >> (n - j)) & 1) << (n - q) for q in range(1, n + 1))
        for j in range(1, n + 1))
    return cols, b


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
            mask = (2 ** op.block_len - 1) << (n + 1 - op.block - op.block_len)
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


# -- text formats -----------------------------------------------------------
# One op per line, 1-based qubit indices:
#   X <q>
#   CN <control> <target>
#   CCN <control_block_start> <target_block_start> <len>
#   RESET <block_start> <len> <literal|extended>

def emit_gatelist(circuit: Circuit) -> str:
    lines = []
    for op in circuit.ops:
        if isinstance(op, Not):
            lines.append(f"X {op.q}")
        elif isinstance(op, Cn):
            lines.append(f"CN {op.control} {op.target}")
        elif isinstance(op, CollectiveCn):
            lines.append(
                f"CCN {op.control_block} {op.target_block} {op.block_len}")
        elif isinstance(op, BlockReset):
            lines.append(f"RESET {op.block} {op.block_len} {op.variant}")
        else:
            raise TypeError(f"not a gate op: {op!r}")
    return "\n".join(lines) + ("\n" if lines else "")
