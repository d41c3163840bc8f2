"""The quantum transition operator of the window rule.

The operator U sends each nonzero window word x (as a basis state) to
its updated word f(x) and annihilates the all-zero word.  It is a 0/1
matrix with a zero column at the null word and a zero row at the single
word missing from f's image (zero sides, center 1), and it is a partial
isometry: U U+ and U+ U are the identity minus the rank-one projectors
on those two words.

This module builds U as an explicit matrix, verifies the isometry
identities with integer arithmetic, produces the basis ordering that
brings U to the block form diag(identity, antidiagonal(1,...,1,0)),
expresses U as a NOT/controlled-NOT circuit on the window, assembles the
whole-chain step in both its unitary-circuit and partial-isometry
readings, and runs the one-shot superposition update demonstration.

MAX_RADIUS stays at 6 (dimension 2^13 = 8192).  The isometry check works
on sparse integer products and takes well under a second there, but U
itself is still a dense int8 matrix: 64 MiB at r=6, 1 GiB at r=7 and
16 GiB at r=8.  Raising the limit waits for a representation of U that
is not dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DimensionTooLarge, RadiusError
from .qstate import Circuit, Cn, Not, uniform_superposition_nonnull
from .sca_core import Rule, f_window

__all__ = [
    "MAX_RADIUS",
    "TransitionOperator",
    "BasisPartition",
    "IsometryReport",
    "ParallelismReport",
    "build_uf_matrix",
    "check_partial_isometry",
    "partition_basis",
    "represent_blocked",
    "build_uf_circuit",
    "total_step",
    "parallelism_demo",
    "emit_matrix_triplets",
    "emit_matrix_csv",
]

MAX_RADIUS = 6  # dimension 2^13 = 8192


def _word_bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def _word_index(bits: Sequence[int]) -> int:
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


def _check_radius(r: int) -> Rule:
    if not 1 <= r <= MAX_RADIUS:
        raise RadiusError(f"radius must be in 1..{MAX_RADIUS}, got {r}")
    return Rule(r)


@dataclass(frozen=True)
class TransitionOperator:
    """U as a dense 0/1 matrix over the 2^(2r+1) window words."""

    radius: int
    matrix: np.ndarray
    null_word: tuple[int, ...]
    preimage_word: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def null_index(self) -> int:
        return _word_index(self.null_word)

    @property
    def preimage_index(self) -> int:
        """Index of the single word absent from the image."""
        return _word_index(self.preimage_word)


def build_uf_matrix(r: int) -> TransitionOperator:
    """Assemble U column by column from the window map."""
    rule = _check_radius(r)
    width = rule.window_len
    dim = 2 ** width
    mat = np.zeros((dim, dim), dtype=np.int8)
    for x in range(1, dim):
        y = _word_index(f_window(rule, _word_bits(x, width)))
        mat[y, x] = 1
    null_word = (0,) * width
    preimage_word = (0,) * r + (1,) + (0,) * r
    return TransitionOperator(r, mat, null_word, preimage_word)


@dataclass(frozen=True)
class IsometryReport:
    """Integer residuals of the two isometry identities.

    range_residual:   max |U U+ - (I - |p><p|)| with p the missing word.
    support_residual: max |U+ U - (I - |0><0|)| with 0 the null word.
    norm_deviation:   max | ||Uv|| - ||v|| | over sampled v with zero
                      null-word amplitude (the subspace where U is
                      claimed to preserve norms).
    """

    range_residual: int
    support_residual: int
    norm_deviation: float

    @property
    def ok(self) -> bool:
        return (self.range_residual == 0 and self.support_residual == 0
                and self.norm_deviation <= 1e-12)


def _defect_residual(gram: sparse.csr_matrix, defect: int) -> int:
    """max |gram - (I - |d><d|)| over all entries, from the sparse difference."""
    target = np.ones(gram.shape[0], dtype=np.int64)
    target[defect] = 0
    diff = gram - sparse.diags_array(target, format="csr", dtype=np.int64)
    return int(abs(diff).max())


def check_partial_isometry(t_op: TransitionOperator, samples: int = 20,
                           rng: np.random.Generator | None = None
                           ) -> IsometryReport:
    """Exact integer residuals of the two isometry identities.

    U is taken as a sparse int64 matrix, so U U+ and U+ U are exact
    integer products for any integer U (no 0/1 or injectivity structure
    is assumed).  With one nonzero per column they cost O(dim) instead
    of the dense O(dim^3); reading the dense matrix is an O(dim^2) scan.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    mat = sparse.csr_matrix(t_op.matrix, dtype=np.int64)
    dim = t_op.dimension
    range_residual = _defect_residual(mat @ mat.T, t_op.preimage_index)
    support_residual = _defect_residual(mat.T @ mat, t_op.null_index)

    matf = mat.astype(float)
    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v[t_op.null_index] = 0.0
        worst = max(worst, abs(np.linalg.norm(matf @ v) - np.linalg.norm(v)))
    return IsometryReport(range_residual, support_residual, worst)


@dataclass(frozen=True)
class BasisPartition:
    """Window words split into rule-invariant and center-flipped classes.

    invariant_words are sorted ascending.  flipped_words are arranged so
    that column x lands on row pair-of-x along the antidiagonal: the
    null word first, then the center-0 flipped words ascending, then
    their center-flips descending, and the missing word last.  The last
    antidiagonal entry pairs the null word's zero column with the
    missing word's zero row, producing the trailing 0.
    """

    radius: int
    invariant_words: tuple[tuple[int, ...], ...]
    flipped_words: tuple[tuple[int, ...], ...]


def partition_basis(r: int) -> BasisPartition:
    rule = _check_radius(r)
    width = rule.window_len
    center = 1 << r
    invariant = []
    mids = []
    for x in range(1, 2 ** width):
        y = _word_index(f_window(rule, _word_bits(x, width)))
        if y == x:
            invariant.append(x)
        elif not x & center:
            mids.append(x)
    flipped = [0] + mids + [m ^ center for m in reversed(mids)] + [center]
    return BasisPartition(
        r,
        tuple(_word_bits(x, width) for x in sorted(invariant)),
        tuple(_word_bits(x, width) for x in flipped))


def represent_blocked(t_op: TransitionOperator,
                      partition: BasisPartition) -> np.ndarray:
    """U conjugated by the partition's basis permutation."""
    order = [_word_index(w) for w in
             partition.invariant_words + partition.flipped_words]
    return t_op.matrix[np.ix_(order, order)]


def build_uf_circuit(r: int, site: int, n_qubits: int) -> Circuit:
    """Window update at one site as gates: neighbor CNs, then NOT.

    Controls run over the r left then r right neighbors (nearest-last on
    the left, nearest-first on the right); out-of-range controls are
    dropped since a fixed-zero control never fires.
    """
    _check_radius(r)
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


def total_step(r: int, n_sites: int, mode: str):
    """Whole-chain step over n_sites cells.

    unitary_circuit: the concatenation of the per-site circuits for
    sites 1..n_sites (boundary-truncated).  Genuinely unitary, but it
    disagrees with the automaton on components containing null windows;
    in particular the vacuum is not fixed (the unconditional NOTs fire).

    partial_isometry: the sparse 0/1 matrix of the composition of
    per-site factors C_i (I - P_i) + P_i, where P_i projects onto the
    components whose site-i window reads all zero.  On basis states this
    is exactly the classical bounded-lattice step (cells outside the
    chain are fixed zeros), so the vacuum is fixed.
    """
    rule = _check_radius(r)
    if mode == "unitary_circuit":
        ops: list = []
        for site in range(1, n_sites + 1):
            ops.extend(build_uf_circuit(r, site, n_sites).ops)
        return Circuit(n_sites, tuple(ops))
    if mode != "partial_isometry":
        raise ValueError(f"unknown mode {mode!r}")
    if n_sites > 14:
        raise DimensionTooLarge(
            f"partial_isometry mode supports up to 14 sites, got {n_sites}")
    n = n_sites
    words = np.arange(2 ** n, dtype=np.int64)
    new = np.zeros_like(words)
    for site in range(1, n + 1):
        parity = np.zeros_like(words)
        nonzero = np.zeros_like(words)
        for s in range(max(1, site - r), site):
            bit = (new >> (n - s)) & 1
            parity ^= bit
            nonzero |= bit
        for s in range(site, min(n, site + r) + 1):
            bit = (words >> (n - s)) & 1
            parity ^= bit
            nonzero |= bit
        new |= ((1 ^ parity) & nonzero) << (n - site)
    data = np.ones(words.size, dtype=float)
    return sparse.csr_matrix((data, (new, words)),
                             shape=(2 ** n, 2 ** n))


@dataclass(frozen=True)
class ParallelismReport:
    """One application of U to the uniform nonzero superposition.

    The image should carry equal amplitude 1/sqrt(2^(2r+1) - 1) on every
    word except the missing one, with unit norm.
    """

    radius: int
    applications: int
    image_count: int
    expected_amplitude: float
    max_deviation: float
    norm: float

    @property
    def ok(self) -> bool:
        dim = 2 ** (2 * self.radius + 1)
        return (self.image_count == dim - 1
                and self.max_deviation <= 1e-12
                and abs(self.norm - 1.0) <= 1e-12)


def parallelism_demo(r: int) -> ParallelismReport:
    t_op = build_uf_matrix(r)
    psi = uniform_superposition_nonnull(2 * r + 1)
    out = t_op.matrix.astype(float) @ psi.amplitudes
    expected = 1.0 / np.sqrt(t_op.dimension - 1)
    target = np.full(t_op.dimension, expected, dtype=complex)
    target[t_op.preimage_index] = 0.0
    return ParallelismReport(
        radius=r,
        applications=1,
        image_count=int(np.count_nonzero(out)),
        expected_amplitude=expected,
        max_deviation=float(np.abs(out - target).max()),
        norm=float(np.linalg.norm(out)),
    )


# -- text formats -----------------------------------------------------------

def emit_matrix_triplets(matrix: np.ndarray) -> str:
    """Nonzero entries as `row col value`, 1-based, row-major ascending."""
    mat = np.asarray(matrix)
    lines = []
    for i, j in zip(*np.nonzero(mat)):
        v = mat[i, j]
        text = str(int(v)) if float(v) == int(v) else f"{float(v):.17g}"
        lines.append(f"{i + 1} {j + 1} {text}")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_matrix_csv(matrix: np.ndarray) -> str:
    """Dense integer CSV for matrices of dimension at most 4096."""
    mat = np.asarray(matrix)
    if mat.shape[0] > 4096:
        raise DimensionTooLarge("CSV export supports dimensions up to 4096")
    rows = [",".join(str(int(v)) for v in row) for row in mat]
    return "\n".join(rows) + "\n"
