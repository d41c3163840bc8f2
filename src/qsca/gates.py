"""The automaton's gate set, its one word kernel and the window circuits.

Qubit 1 is the most significant bit of a basis index.  `word_image`
pushes basis words through a circuit one op at a time, each op one
whole-word step on a Python int or an int64 array alike; `affine_fold`
folds a NOT/CN run into one GF(2) map for `qstate.apply_circuit`.  No
numpy is imported, so `circuit` and `frt-quantum` start without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Union

from .errors import (MAX_RADIUS, RESET_VARIANTS, DimensionTooLarge, Frozen,
                     RadiusError)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Not",
    "Cn",
    "CollectiveCn",
    "BlockReset",
    "GateOp",
    "Circuit",
    "affine_fold",
    "word_image",
    "build_uf_circuit",
    "chain_circuit",
    "emit_gatelist",
]

_WORD_QUBITS = 63  # a basis word is an int64


def check_word_width(n: int) -> None:
    """Refuse registers whose basis words do not fit an int64."""
    if n > _WORD_QUBITS:
        raise DimensionTooLarge(f"register of {n} qubits exceeds the limit "
                                f"of {_WORD_QUBITS}")


def check_radius(r: int) -> None:
    """Refuse a radius outside 1..MAX_RADIUS."""
    if not 1 <= r <= MAX_RADIUS:
        raise RadiusError(f"radius must be in 1..{MAX_RADIUS}, got {r}")


# -- gate descriptions ------------------------------------------------------

def _check_first_qubit(op, *qubits: int) -> None:
    if min(qubits) < 1:
        raise ValueError(f"op {op!r} out of range, qubits start at 1")


class Not(Frozen):
    def __init__(self, q: int):
        self._assign("q", q)
        _check_first_qubit(self, q)


class Cn(Frozen):
    def __init__(self, control: int, target: int):
        self._assign("control", control)
        self._assign("target", target)
        _check_first_qubit(self, control, target)
        if control == target:
            raise ValueError("control and target must differ")


class CollectiveCn(Frozen):
    """Qubit-wise controlled-NOT between two disjoint equal-length blocks."""

    def __init__(self, control_block: int, target_block: int, block_len: int):
        self._assign("control_block", control_block)
        self._assign("target_block", target_block)
        self._assign("block_len", block_len)
        _check_first_qubit(self, control_block, target_block)
        if block_len < 1:
            raise ValueError("block_len must be >= 1")
        c, t, w = control_block, target_block, block_len
        if c < t + w and t < c + w:
            raise ValueError("blocks overlap")


class BlockReset(Frozen):
    """Funnel one block onto its all-zero word.

    variant `literal` accumulates the nonzero block words only and
    annihilates components whose block is already zero; `extended` also
    keeps those components.
    """

    def __init__(self, block: int, block_len: int, variant: str = "extended"):
        self._assign("block", block)
        self._assign("block_len", block_len)
        self._assign("variant", variant)
        _check_first_qubit(self, block)
        if block_len < 1:
            raise ValueError("block_len must be >= 1")
        if variant not in RESET_VARIANTS:
            raise ValueError(f"variant must be one of {RESET_VARIANTS}")

    def mask(self, n: int) -> int:
        """The block's bits in a basis index of n qubits."""
        w = self.block_len
        return (2 ** w - 1) << (n + 1 - self.block - w)


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


class Circuit(Frozen):
    """Ordered gate list, held as a tuple; ops are applied first to last."""

    def __init__(self, n_qubits: int, ops: Iterable[GateOp]):
        ops = tuple(ops)
        self._assign("n_qubits", n_qubits)
        self._assign("ops", ops)
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in ops:
            if _top_qubit(op) > n_qubits:
                raise ValueError(
                    f"op {op!r} out of range for {n_qubits} qubits")


def affine_fold(n: int, ops: Iterable[GateOp]) -> tuple[tuple[int, ...], int]:
    """Fold a run of NOT/CN/CollectiveCn ops into x -> Ax ^ b over GF(2),
    the map `qstate.apply_circuit` gathers a state through.

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


def word_image(n: int, ops: Iterable[GateOp], x: int | np.ndarray
               ) -> int | np.ndarray:
    """The images of basis words x, one Python int or an int64 array,
    under ops: each op is one whole-word step, so x is touched only by
    ^ >> << & | * and comparisons, and no numpy is imported.

    A literal reset that meets a zero block ors -1 into the word: no op
    on at most 63 qubits touches the sign bit, so every negative word
    comes back as -1, the mark of an annihilated one.  Bits above n pass
    through unchanged.  Above 63 qubits DimensionTooLarge; an op past
    qubit n raises ValueError, a non-op TypeError.
    """
    check_word_width(n)
    for op in ops:
        if _top_qubit(op) > n:
            raise ValueError(f"op {op!r} out of range for {n} qubits")
        if isinstance(op, Not):
            x = x ^ 1 << (n - op.q)
        elif isinstance(op, Cn):
            x = x ^ (x >> (n - op.control) & 1) << (n - op.target)
        elif isinstance(op, CollectiveCn):
            low = n + 1 - op.block_len  # block at q ends at bit low - q
            block = x >> (low - op.control_block) & (1 << op.block_len) - 1
            x = x ^ block << (low - op.target_block)
        else:
            mask = op.mask(n)
            if op.variant == "literal":
                x = x | ((x & mask) == 0) * -1
            x = x & ~mask
    return x | (x < 0) * -1


# -- the window rule as gates -----------------------------------------------

def build_uf_circuit(r: int, site: int, n_qubits: int) -> Circuit:
    """Window update at one site as gates: neighbor CNs, then NOT.

    Controls run over the r left then r right neighbors (nearest-last on
    the left, nearest-first on the right); out-of-range controls are
    dropped since a fixed-zero control never fires.
    """
    check_radius(r)
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    ops: list = []
    for k in range(r, 0, -1):
        if site - k >= 1:
            ops.append(Cn(site - k, site))
    for k in range(1, r + 1):
        if site + k <= n_qubits:
            ops.append(Cn(site + k, site))
    ops.append(Not(site))
    return Circuit(n_qubits, tuple(ops))


def chain_circuit(r: int, n_sites: int) -> Circuit:
    """The whole-chain step as the per-site circuits for sites
    1..n_sites concatenated (boundary-truncated).

    Genuinely unitary, but it disagrees with the automaton on components
    containing null windows; in particular the vacuum is not fixed (the
    unconditional NOTs fire).
    """
    check_radius(r)
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    return Circuit(n_sites, tuple(
        op for site in range(1, n_sites + 1)
        for op in build_uf_circuit(r, site, n_sites).ops))


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
