"""Factorization of unitaries into embedded 2x2 rotations plus phases.

Triangular nulling (Reck et al., PRL 73, 58 (1994)): walking columns
left to right and rows bottom-up within each column, each
below-diagonal entry is zeroed by a 2x2 unitary acting on the (pivot
row, offending row) pair.  For a unitary input the eliminated matrix is
then diagonal with unit-modulus entries, so the original factors as
(rotation product) times a phase diagonal.  This is the mesh picture of
a unitary as a chain of two-mode mixers and phase shifters; only
genuinely unitary matrices qualify, and the non-unitary transition
operator itself is rejected with NotUnitary (its circuit form, which is
unitary, decomposes fine).

Every rotation of column c shares the pivot row c and touches each
partner row w_k once, so the entries b_k it nulls are all known when
the column starts.  With a_1 the diagonal entry and p_0 the pivot row
at that point, the pivot after k rotations obeys

    rho_k^2   = |a_1|^2 + sum_{j<=k} |b_j|^2,
    rho_k p_k = conj(a_1) p_0 + sum_{j<=k} conj(b_j) w_j,

so a column is one cumulative sum over its partner rows plus one
broadcast update of them, O(1) numpy calls instead of O(n).

A plan is its arrays: rotation k acts on the mode pair `modes[k]`
(m x 2) with the 2x2 block `blocks[k]` (m x 2 x 2), and all rotations
are validated in one vectorized pass.  A plan is a Reck mesh: its
rotations come in nulling order, pivots never decreasing and, within
one pivot, partners strictly decreasing, which is the order
`reck_decompose` emits.  Reconstruction applies the run of each pivot,
last pivot first.  Applied in reverse, a run is the affine recurrence
x <- u00 x + u01 w_k on the pivot row, which an inclusive odd-even scan
evaluates in O(K n) work with no division.

Mode indices are 0-based in code; the text format is 1-based like every
other format in this package.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitary
from .qstate import ArrayEq

__all__ = [
    "ReckPlan",
    "reck_decompose",
    "reck_reconstruct",
    "emit_reck_plan",
]


def _unitarity_residual(u: np.ndarray) -> float:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max(initial=0.0))


def _rotation_residual(u: np.ndarray) -> float:
    """`_unitarity_residual` of 2x2 blocks in closed form, the largest over
    a stack (..., 2, 2): per block, the largest of the three distinct
    entries of |U+U - I|, two diagonal, one off."""
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    p, q, s, t = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    residual = np.maximum.reduce([
        np.abs(np.abs(p) ** 2 + np.abs(s) ** 2 - 1.0),
        np.abs(np.abs(q) ** 2 + np.abs(t) ** 2 - 1.0),
        np.abs(p.conj() * q + s.conj() * t)])
    return float(np.max(residual, initial=0.0))


class ReckPlan(ArrayEq):
    """Rotations applied in order, then the phase diagonal.

    Rotation k acts on modes `modes[k]` = (i, j), 0-based, with the 2x2
    block `blocks[k]`; all three arrays are read-only copies.  The
    rotations must be in nulling order (pivots i never decrease, and
    partners j strictly decrease within one pivot), so each mode pair
    occurs at most once.
    """

    def __init__(self, dimension: int, modes: np.ndarray, blocks: np.ndarray,
                 phases: np.ndarray):
        n = dimension
        self._assign("dimension", n)
        phases = self._freeze("phases", phases, complex)
        if phases.shape != (n,):
            raise ValueError("need one phase per mode")
        if not np.abs(np.abs(phases) - 1.0).max(initial=0.0) <= 1e-12:
            raise ValueError("phases must have unit modulus")
        modes = np.asarray(modes)
        if modes.ndim != 2 or modes.shape[1] != 2:
            raise ValueError("rotation modes must be an m x 2 array")
        if not np.issubdtype(modes.dtype, np.integer):
            raise ValueError("rotation modes must be integers")
        modes = self._freeze("modes", modes, np.int64)
        blocks = self._freeze("blocks", blocks, complex)
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 2):
            raise ValueError("rotation blocks must be an m x 2 x 2 array")
        if len(blocks) != len(modes):
            raise ValueError("need one 2x2 block per rotation")
        i, j = modes.T
        if not ((0 <= i) & (i < j) & (j < n)).all():
            raise ValueError(f"rotation modes must satisfy 0 <= i < j < {n}")
        di, dj = np.diff(i), np.diff(j)
        if not ((di > 0) | ((di == 0) & (dj < 0))).all():
            raise ValueError("rotations must be in nulling order: pivots "
                             "ascending, partners descending within a pivot")
        residual = _rotation_residual(blocks)
        if not residual <= 1e-12:
            raise NotUnitary(residual)

    @property
    def rotations(self) -> np.ndarray:
        """`modes` under its old name, kept only because the benchmark
        counts rotations by it; once the benchmark reads `len(plan.modes)`
        this alias goes."""
        return self.modes


def reck_decompose(u: np.ndarray) -> ReckPlan:
    """Null the below-diagonal entries of a unitary with 2x2 rotations.

    Entries already within 1e-10 of zero are set to exactly zero and
    emit no rotation, so permutation-like matrices produce short plans.
    The residual diagonal becomes the phase list after renormalizing
    each entry to unit modulus.
    """
    work = np.asarray(u, dtype=complex).copy()
    residual = _unitarity_residual(work)
    if not residual <= 1e-10:
        raise NotUnitary(residual)
    n = work.shape[0]
    modes, blocks = [], []
    for col in range(n - 1):
        below = work[:col:-1, col]              # rows n-1 .. col+1
        keep = np.abs(below) > 1e-10
        b = below[keep]
        rows = np.arange(n - 1, col, -1)[keep]
        work[col + 1:, col] = 0.0
        if not len(b):
            continue
        a1 = work[col, col]
        rho = np.sqrt(abs(a1) ** 2 + np.cumsum(np.abs(b) ** 2))
        a = np.concatenate(([a1], rho[:-1]))
        partners = work[rows, col + 1:]
        # sums[0] is the pivot row p_0 and sums[k] = rho_k p_k; partner k
        # becomes (a_k w_k - b_k p_{k-1}) / rho_k, with p_{k-1} read as
        # sums[k-1] / rho_{k-1} and rho_0 taken as 1
        sums = np.empty((len(b) + 1, n - col - 1), dtype=complex)
        sums[0] = work[col, col + 1:]
        np.multiply(b.conj()[:, None], partners, out=sums[1:])
        np.cumsum(sums[1:], axis=0, out=sums[1:])
        sums[1:] += a1.conjugate() * sums[0]
        partners *= (a / rho)[:, None]
        partners -= (b / (rho * np.concatenate(([1.0], rho[:-1]))))[:, None] \
            * sums[:-1]
        work[rows, col + 1:] = partners
        work[col, col + 1:] = sums[-1] / rho[-1]
        work[col, col] = rho[-1]
        g = np.empty((len(b), 2, 2), dtype=complex)
        g[:, 0, 0], g[:, 0, 1] = a.conj(), b.conj()
        g[:, 1, 0], g[:, 1, 1] = -b, a
        g /= rho[:, None, None]
        modes.append(np.column_stack((np.full(len(b), col), rows)))
        blocks.append(g.conj().transpose(0, 2, 1))
    diag = np.diag(work)
    return ReckPlan(n,
                    np.concatenate(modes) if modes
                    else np.empty((0, 2), dtype=np.int64),
                    np.concatenate(blocks) if blocks else np.empty((0, 2, 2)),
                    diag / np.abs(diag))


def _affine_scan(alpha: np.ndarray, x: np.ndarray) -> None:
    """In place, x[k] <- alpha[k] x[k-1] + x[k] for k = 1, 2, ... in
    order, by odd-even reduction: fold each pair (2m, 2m+1) into row
    2m+1, scan the odd rows recursively, then finish the even rows.
    O(len(x)) row updates in O(log len(x)) numpy calls, no division."""
    if len(x) < 2:
        return
    x[1::2] += alpha[1::2, None] * x[:-1:2]
    _affine_scan(alpha[1::2] * alpha[:-1:2], x[1::2])
    x[2::2] += alpha[2::2, None] * x[1:-1:2]


def _apply_run(mat: np.ndarray, modes: np.ndarray, blocks: np.ndarray) -> None:
    """Left-multiply `mat` in place by one run of rotations, last first."""
    i, js, u = modes[0, 0], modes[::-1, 1], blocks[::-1]
    partners = mat[js]
    # x_0 is the pivot row and x_k = u00_k x_{k-1} + u01_k w_k
    x = np.empty((len(js) + 1, mat.shape[1]), dtype=complex)
    x[0] = mat[i]
    np.multiply(u[:, 0, 1, None], partners, out=x[1:])
    _affine_scan(np.concatenate(([0.0], u[:, 0, 0])), x)
    partners *= u[:, 1, 1, None]
    partners += u[:, 1, 0, None] * x[:-1]
    mat[js] = partners
    mat[i] = x[-1]


def reck_reconstruct(plan: ReckPlan) -> np.ndarray:
    """Multiply the plan back out: rotations in listed order, phases last.

    The run of K rotations on pivot c is applied as one scan of O(K n)
    work in O(log K) numpy calls, so a plan of n(n-1)/2 rotations costs
    O(n^3), like one 2x2 update per rotation.  Runs go last pivot first,
    so every row the run of pivot c meets is still zero left of column
    c, and the run only touches columns c..
    """
    mat = np.diag(plan.phases).astype(complex)
    pivots = plan.modes[:, 0]
    starts = np.flatnonzero(np.diff(pivots, prepend=-1)).tolist()
    for lo, hi in reversed(list(zip(starts, starts[1:] + [len(pivots)]))):
        _apply_run(mat[:, pivots[lo]:], plan.modes[lo:hi],
                   plan.blocks[lo:hi])
    return mat


# -- text format ------------------------------------------------------------
# R <i> <j> <u00re> <u00im> <u01re> <u01im> <u10re> <u10im> <u11re> <u11im>
# P <k> <re> <im>
# with 1-based mode indices and 17-significant-digit decimals.

def emit_reck_plan(plan: ReckPlan) -> str:
    lines = []
    for (i, j), block in zip(plan.modes.tolist(),
                             plan.blocks.reshape(-1, 4).tolist()):
        vals = " ".join(f"{e.real:.17g} {e.imag:.17g}" for e in block)
        lines.append(f"R {i + 1} {j + 1} {vals}")
    for k, ph in enumerate(plan.phases.tolist()):
        lines.append(f"P {k + 1} {ph.real:.17g} {ph.imag:.17g}")
    return "\n".join(lines) + ("\n" if lines else "")
