"""The quantum transition operator of the window rule.

The operator U sends each nonzero window word x (as a basis state) to
its updated word f(x) and annihilates the all-zero word.  It is a 0/1
matrix with a zero column at the null word and a zero row at the single
word missing from f's image (zero sides, center 1), and it is a partial
isometry: U U+ and U+ U are the identity minus the rank-one projectors
on those two words.  That is, f is injective on nonzero words with one
word missing from its image, so this module stores U as that word map,
filled by the rule kernel `window_centers` that the whole-chain step
shares, and checks the isometry identities from preimage counts.  It
also produces the basis ordering that brings U to the block form
diag(identity, antidiagonal(1,...,1,0)), the whole-chain step in its
partial-isometry reading, and the one-shot superposition update.  The
NOT/controlled-NOT circuit of the window rule, `build_uf_circuit`, and
its concatenation over a chain, `chain_circuit`, live in the numpy-free
`qsca.gates`.

MAX_RADIUS stays at 6 (dimension 2^13 = 8192).  The dense paths do not
bound it: each refuses more than the dense budget (`qstate.square_zeros`,
so the int8 U stops at r = 6); the word-map commands need their own limit.

U and the partial-isometry chain step are both a `WordMap`.  Only its
`tocsc` imports scipy, and nothing in the package calls it.
"""

from __future__ import annotations

import numpy as np

from .errors import (MAX_DENSE_DIMENSION, MAX_RADIUS, DimensionTooLarge,
                     Frozen)
# build_uf_circuit stays readable here, where the benchmark reads it
from .gates import build_uf_circuit, check_radius
from .qstate import ArrayEq, square_zeros

__all__ = [
    "MAX_RADIUS",
    "WordMap",
    "TransitionOperator",
    "BasisPartition",
    "IsometryReport",
    "ParallelismReport",
    "window_centers",
    "build_uf_matrix",
    "check_partial_isometry",
    "partition_basis",
    "represent_blocked",
    "block_form_ok",
    "total_step",
    "parallelism_demo",
    "emit_matrix_triplets",
    "check_csv_dimension",
    "emit_matrix_csv",
]


def window_centers(windows: np.ndarray) -> np.ndarray:
    """The window rule's new center over int64 window words: 1 xor the
    parity, 0 for the all-zero window (words hold only window bits)."""
    w = np.asarray(windows, dtype=np.int64)
    return ((w != 0) & (np.bitwise_count(w) % 2 == 0)).astype(np.int64)


class WordMap(ArrayEq):
    """A map of basis words under the radius-r rule: image[x] is the
    index of x's image, -1 where x is annihilated (the leftmost cell is
    the most significant bit).  The image is a read-only int64 copy; two
    maps are equal when their types, radii and images are."""

    def __init__(self, radius: int, image: np.ndarray):
        self._assign("radius", radius)
        self._freeze("image", image, np.int64)

    @property
    def dimension(self) -> int:
        return self.image.size

    def mapped(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, images) over the words that have an image."""
        src = np.flatnonzero(self.image >= 0)
        return src, self.image[src]

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """matrix @ vector, summing where two words share an image."""
        src, dest = self.mapped()
        out = np.zeros(self.dimension, dtype=np.result_type(vector, float))
        np.add.at(out, dest, vector[src])
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense int8 matrix, derived on demand, within the dense budget."""
        mat = square_zeros(self.dimension, np.int8)
        src, dest = self.mapped()
        mat[dest, src] = 1
        return mat

    def tocsc(self):
        """The sparse counterpart of `matrix`: a float scipy CSC matrix."""
        from scipy import sparse
        src, dest = self.mapped()
        indptr = np.concatenate(([0], np.cumsum(self.image >= 0)))
        return sparse.csc_matrix((np.ones(src.size), dest, indptr),
                                 shape=(self.dimension, self.dimension))


class TransitionOperator(WordMap):
    """U as the word map of one window of 2r+1 cells."""

    null_index = 0

    @property
    def preimage_index(self) -> int:
        """Index of the single word absent from the image."""
        return 1 << self.radius


def build_uf_matrix(r: int) -> TransitionOperator:
    """U from the window rule applied to every word at once."""
    check_radius(r)
    words = np.arange(2 ** (2 * r + 1), dtype=np.int64)
    image = (words & ~(1 << r)) | (window_centers(words) << r)
    image[0] = -1
    return TransitionOperator(r, image)


class IsometryReport(Frozen):
    """Integer residuals of the two isometry identities.

    range_residual:   max |U U+ - (I - |p><p|)| with p the missing word.
    support_residual: max |U+ U - (I - |0><0|)| with 0 the null word.
    norm_deviation:   max | ||Uv|| - ||v|| | over sampled v with zero
                      null-word amplitude (the subspace where U is
                      claimed to preserve norms).
    """

    def __init__(self, range_residual: int, support_residual: int,
                 norm_deviation: float):
        self._assign("range_residual", range_residual)
        self._assign("support_residual", support_residual)
        self._assign("norm_deviation", norm_deviation)

    @property
    def ok(self) -> bool:
        return (self.range_residual == 0 and self.support_residual == 0
                and self.norm_deviation <= 1e-12)


def _norm(v: np.ndarray) -> float:
    """2-norm summed in ascending order, so equal for any permutation."""
    return float(np.sqrt(np.sort(v.real ** 2 + v.imag ** 2).sum()))


def check_partial_isometry(t_op: TransitionOperator,
                           rng: np.random.Generator | None = None
                           ) -> IsometryReport:
    """Exact residuals of the two isometry identities in O(dim).

    U U+ = diag(counts), counts[y] being the number of words mapped to
    y; U+ U has the mapped indicator on its diagonal and a 1 at (x, x')
    for every pair of distinct words sharing an image.  On a partial
    permutation the 20 sampled norm deviations are exactly 0 (`_norm`).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    dim = t_op.dimension
    _, dest = t_op.mapped()
    counts = np.bincount(dest, minlength=dim)
    words = np.arange(dim)
    range_residual = int(np.abs(counts - (words != t_op.preimage_index)).max())
    support_residual = int(counts.max() > 1 or np.any(
        (t_op.image >= 0) != (words != t_op.null_index)))

    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v[t_op.null_index] = 0.0
        worst = max(worst, abs(_norm(t_op.apply(v)) - _norm(v)))
    return IsometryReport(range_residual, support_residual, worst)


class BasisPartition(ArrayEq):
    """Window word indices split into invariant and center-flipped classes,
    each a read-only int64 array.

    invariant_words are sorted ascending.  flipped_words are arranged so
    that column x lands on row pair-of-x along the antidiagonal: the
    null word first, then the center-0 flipped words ascending, then
    their center-flips descending, and the missing word last.  The last
    antidiagonal entry pairs the null word's zero column with the
    missing word's zero row, producing the trailing 0.
    """

    def __init__(self, radius: int, invariant_words: np.ndarray,
                 flipped_words: np.ndarray):
        self._assign("radius", radius)
        self._freeze("invariant_words", invariant_words, np.int64)
        self._freeze("flipped_words", flipped_words, np.int64)


def partition_basis(r: int) -> BasisPartition:
    image = build_uf_matrix(r).image
    center = 1 << r
    words = np.arange(1, image.size, dtype=np.int64)
    moved = image[1:] != words
    mids = words[moved & ((words & center) == 0)]
    flipped = np.concatenate(([0], mids, mids[::-1] ^ center, [center]))
    return BasisPartition(r, words[~moved], flipped)


def _blocked_image(t_op: TransitionOperator,
                   partition: BasisPartition) -> np.ndarray:
    """U's image in the partition's basis order: entry pos[x] holds
    pos[U x], -1 at the null word's position."""
    order = np.concatenate((partition.invariant_words,
                            partition.flipped_words))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    blocked = np.full(order.size, -1, dtype=np.int64)
    src, dest = t_op.mapped()
    blocked[pos[src]] = pos[dest]
    return blocked


def represent_blocked(t_op: TransitionOperator,
                      partition: BasisPartition) -> np.ndarray:
    """U conjugated by the partition's basis permutation, dense int8."""
    return WordMap(t_op.radius, _blocked_image(t_op, partition)).matrix


def block_form_ok(t_op: TransitionOperator,
                  partition: BasisPartition) -> bool:
    """Whether U in the partition's basis order is diag(I_k,
    antidiag(1, ..., 1, 0)), k the number of invariant words: decided on
    words, the blocked image must read 0..k-1, -1, dim-2 down to k."""
    dim, k = t_op.dimension, len(partition.invariant_words)
    want = np.concatenate((np.arange(k), [-1], np.arange(dim - 2, k - 1, -1)))
    return np.array_equal(_blocked_image(t_op, partition), want)


def total_step(r: int, n_sites: int, mode: str) -> WordMap:
    """Whole-chain step over n_sites >= 1 cells; mode must be
    "partial_isometry" (the unitary-circuit reading is
    `gates.chain_circuit`).

    The result is the `WordMap` of the composition of per-site
    factors C_i (I - P_i) + P_i, where P_i projects onto the components
    whose site-i window reads all zero.  On basis states this
    is exactly the classical bounded-lattice step (cells outside the
    chain are fixed zeros), so the vacuum is fixed.  Each site applies
    `window_centers` to all words, left neighbors already updated.
    Despite the mode's name the composition is not a partial isometry:
    each factor is U plus the dyad of the all-zero window, and U already
    maps the window whose only 1 is its center onto that window, so
    words share images.  For n = 1..14 and r = 1..3 the largest number
    of words sharing one image follows a(n) = a(n-1) + a(n-r-1) with
    a(n) = n + 1 up to n = r + 1 (observed, not proved); at r = 1 these
    are the Fibonacci numbers, 987 at n = 14, where 13,226 of the 16,384
    words have no preimage.
    """
    check_radius(r)
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    if mode != "partial_isometry":
        raise ValueError(f"unknown mode {mode!r}")
    if n_sites > 14:
        raise DimensionTooLarge(
            f"partial_isometry mode supports up to 14 sites, got {n_sites}")
    new = np.arange(2 ** n_sites, dtype=np.int64)
    window_mask = (1 << (2 * r + 1)) - 1
    for site in range(1, n_sites + 1):
        # window cells site-r..site+r, with cell site+r at bit 0
        shift = n_sites - site - r
        window = (new >> shift if shift >= 0 else new << -shift) & window_mask
        bit = n_sites - site
        new = (new & ~(1 << bit)) | (window_centers(window) << bit)
    return WordMap(r, new)


class ParallelismReport(Frozen):
    """One application of U to the uniform nonzero superposition.

    The image should carry equal amplitude 1/sqrt(2^(2r+1) - 1) on every
    word except the missing one, with unit norm.
    """

    def __init__(self, radius: int, applications: int, image_count: int,
                 expected_amplitude: float, max_deviation: float,
                 norm: float):
        self._assign("radius", radius)
        self._assign("applications", applications)
        self._assign("image_count", image_count)
        self._assign("expected_amplitude", expected_amplitude)
        self._assign("max_deviation", max_deviation)
        self._assign("norm", norm)

    @property
    def ok(self) -> bool:
        dim = 2 ** (2 * self.radius + 1)
        return (self.image_count == dim - 1
                and self.max_deviation <= 1e-12
                and abs(self.norm - 1.0) <= 1e-12)


def parallelism_demo(r: int) -> ParallelismReport:
    """Apply U once to psi, the equal superposition of every nonzero
    window word with amplitude 1/sqrt(2^(2r+1) - 1).  The target carries
    that amplitude on every word except the one missing from U's image."""
    t_op = build_uf_matrix(r)
    expected = 1.0 / np.sqrt(t_op.dimension - 1)
    psi = np.full(t_op.dimension, expected, dtype=complex)
    psi[t_op.null_index] = 0.0
    out = t_op.apply(psi)
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

def emit_matrix_triplets(word_map: WordMap) -> str:
    """The map's matrix entries as `row col 1`, 1-based, row-major
    ascending."""
    src, dest = word_map.mapped()
    order = np.argsort(dest, kind="stable")  # src ascends within a row
    return "".join(f"{i + 1} {j + 1} 1\n"
                   for i, j in zip(dest[order].tolist(), src[order].tolist()))


def check_csv_dimension(dimension: int) -> None:
    """Refuse, before anything is built, a CSV of more than 4096 rows."""
    if dimension > MAX_DENSE_DIMENSION:
        raise DimensionTooLarge(
            f"CSV export supports dimensions up to {MAX_DENSE_DIMENSION}")


def emit_matrix_csv(matrix: np.ndarray) -> str:
    """Dense integer CSV for matrices of dimension at most 4096."""
    mat = np.asarray(matrix)
    check_csv_dimension(mat.shape[0])
    rows = [",".join(str(int(v)) for v in row) for row in mat]
    return "\n".join(rows) + "\n"
