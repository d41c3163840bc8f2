"""Gate-by-gate reference for the state-vector executor.

Each gate runs on a copy of the state, one gate at a time, with no
fold.  NOT and CN are slice-swapping kernels that read their array
argument as (2^n)-by-anything; NOT writes out of place and CN works in
place.  The reset is the sum of its dyads over an index gather; the
package runs resets only on basis words.  The tests compare
`apply_circuit` (NOT/CN circuits) and `circuit_matrix` (resets too)
against `gate_by_gate`.

`word_image_by_gate` pushes basis words through a circuit as Python ints,
one gate at a time, for `word_image`; `affine_image_by_qubit` maps words
through a fold one qubit at a time, for `affine_image`.

The other references build what the package never builds itself: a
basis state from its bits, the propagation circuit as one gate list,
and a mesh rotation as a dense matrix.
"""

import numpy as np

from qsca.gates import BlockReset, Circuit, CollectiveCn, Cn, Not
from qsca.qstate import StateVector


def basis_state(bits):
    """Computational basis vector labeled by the given bits."""
    bits = tuple(bits)
    if not bits or not {0, 1}.issuperset(bits):
        raise ValueError("need a nonempty tuple of 0/1 bits")
    amp = np.zeros(2 ** len(bits), dtype=complex)
    amp[int("".join(map(str, bits)), 2)] = 1.0
    return StateVector(len(bits), amp)


def stage_circuit(plan, reset_variant="extended"):
    """All stages of a propagation plan concatenated into one circuit."""
    ops = []
    for m in range(1, plan.padding + 1):
        ops.extend(plan.stage_ops(m, reset_variant))
    return Circuit(plan.n_qubits, tuple(ops))


def embedded(i, j, u, dimension):
    """The 2x2 block u on modes (i, j) of the identity."""
    mat = np.eye(dimension, dtype=complex)
    mat[np.ix_([i, j], [i, j])] = u
    return mat


def _not_into(src, dst, q):
    vs = src.reshape(2 ** (q - 1), 2, -1)
    vd = dst.reshape(2 ** (q - 1), 2, -1)
    vd[:, 0] = vs[:, 1]
    vd[:, 1] = vs[:, 0]


def _cn_inplace(buf, control, target):
    a, b = min(control, target), max(control, target)
    view = buf.reshape(2 ** (a - 1), 2, 2 ** (b - a - 1), 2, -1)
    if control < target:
        lo = view[:, 1, :, 0]
        hi = view[:, 1, :, 1]
    else:
        lo = view[:, 0, :, 1]
        hi = view[:, 1, :, 1]
    tmp = lo.copy()
    lo[...] = hi
    hi[...] = tmp


def _checked(state, op):
    """Raise ValueError when op reaches outside the state's qubits."""
    Circuit(state.n_qubits, (op,))


def apply_not(state, q):
    _checked(state, Not(q))
    out = np.empty_like(state.amplitudes)
    _not_into(state.amplitudes, out, q)
    return StateVector(state.n_qubits, out)


def apply_cn(state, control, target):
    _checked(state, Cn(control, target))
    buf = state.amplitudes.copy()
    _cn_inplace(buf, control, target)
    return StateVector(state.n_qubits, buf)


def apply_collective_cn(state, control_block, target_block, block_len):
    _checked(state, CollectiveCn(control_block, target_block, block_len))
    buf = state.amplitudes.copy()
    for k in range(block_len):
        _cn_inplace(buf, control_block + k, target_block + k)
    return StateVector(state.n_qubits, buf)


def apply_block_reset(state, block, block_len, variant="extended"):
    """The reset as its sum of dyads |0><w| on the block: output word y,
    its block zero, gets the amplitudes of y | w added one block word w
    at a time in ascending order (w >= 1 for literal), by a sequential
    np.add.accumulate over an index gather."""
    _checked(state, BlockReset(block, block_len, variant))
    n = state.n_qubits
    shift = n + 1 - block - block_len
    words = np.arange(2 ** n)
    zeroed = words[(words >> shift) % 2 ** block_len == 0]
    first = 1 if variant == "literal" else 0
    terms = state.amplitudes[
        zeroed[:, None] | np.arange(first, 2 ** block_len) << shift]
    out = np.zeros_like(state.amplitudes)
    out[zeroed] = np.add.accumulate(terms, axis=1)[:, -1]
    return StateVector(n, out)


def gate_by_gate(state, ops):
    """The circuit run one op at a time through the single-gate kernels."""
    for op in ops:
        if isinstance(op, Not):
            state = apply_not(state, op.q)
        elif isinstance(op, Cn):
            state = apply_cn(state, op.control, op.target)
        elif isinstance(op, CollectiveCn):
            state = apply_collective_cn(state, op.control_block,
                                        op.target_block, op.block_len)
        else:
            state = apply_block_reset(state, op.block, op.block_len,
                                      op.variant)
    return state


def affine_image_by_qubit(n, fold, x):
    """Images of int64 words x under a fold (cols, b) of affine_fold: b
    xor'ed with cols[j - 1] for each qubit j whose bit is set in x."""
    cols, b = fold
    y = np.full_like(x, b)
    for j, col in enumerate(cols, start=1):
        y ^= ((x >> (n - j)) & 1) * col
    return y


def word_image_by_gate(n, ops, words):
    """Basis words (Python ints) after the ops, one gate at a time; -1
    where a literal reset meets an already-zero block, and -1 stays -1."""
    def flip_if(w, control, target):
        return w ^ ((w >> (n - control)) & 1) << (n - target)

    out = []
    for w in words:
        for op in ops:
            if w < 0:
                break
            if isinstance(op, Not):
                w ^= 1 << (n - op.q)
            elif isinstance(op, Cn):
                w = flip_if(w, op.control, op.target)
            elif isinstance(op, CollectiveCn):
                for k in range(op.block_len):
                    w = flip_if(w, op.control_block + k, op.target_block + k)
            else:
                mask = sum(1 << (n - q)
                           for q in range(op.block, op.block + op.block_len))
                w = -1 if op.variant == "literal" and not w & mask \
                    else w & ~mask
        out.append(w)
    return out
