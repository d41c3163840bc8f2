"""Factorization of unitaries into embedded 2x2 rotations plus phases.

Triangular nulling: walking columns left to right and rows bottom-up
within each column, each below-diagonal entry is zeroed by a 2x2 unitary
acting on the (pivot row, offending row) pair.  For a unitary input the
eliminated matrix is then diagonal with unit-modulus entries, so the
original factors as (rotation product) times a phase diagonal.  This is
the mesh picture of a unitary as a chain of two-mode mixers and phase
shifters; only genuinely unitary matrices qualify, and the non-unitary
transition operator itself is rejected with NotUnitary (its circuit
form, which is unitary, decomposes fine).

Mode indices are 0-based in code; the text format is 1-based like every
other format in this package.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, ParseError

__all__ = [
    "EmbeddedRotation",
    "ReckPlan",
    "reck_decompose",
    "reck_reconstruct",
    "emit_reck_plan",
    "parse_reck_plan",
]


def _unitarity_residual(u: np.ndarray) -> float:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _rotation_residual(u: np.ndarray) -> float:
    """`_unitarity_residual` of a 2x2 block in closed form: the largest
    of the three distinct entries of |U+U - I|, two diagonal, one off."""
    (p, q), (s, t) = u.tolist()
    if not all(map(cmath.isfinite, (p, q, s, t))):
        raise ValueError("matrix has non-finite entries")
    return max(abs(abs(p) ** 2 + abs(s) ** 2 - 1.0),
               abs(abs(q) ** 2 + abs(t) ** 2 - 1.0),
               abs(p.conjugate() * q + s.conjugate() * t))


@dataclass(frozen=True)
class EmbeddedRotation:
    """A 2x2 unitary acting on modes i < j of a larger space (0-based)."""

    i: int
    j: int
    u: np.ndarray

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got {self.i}, {self.j}")
        u = np.asarray(self.u, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError("rotation block must be 2x2")
        residual = _rotation_residual(u)
        if not residual <= 1e-12:
            raise NotUnitary(residual)
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    def embedded(self, dimension: int) -> np.ndarray:
        mat = np.eye(dimension, dtype=complex)
        mat[self.i, self.i] = self.u[0, 0]
        mat[self.i, self.j] = self.u[0, 1]
        mat[self.j, self.i] = self.u[1, 0]
        mat[self.j, self.j] = self.u[1, 1]
        return mat


@dataclass(frozen=True)
class ReckPlan:
    """Rotations applied in order, then the phase diagonal."""

    dimension: int
    rotations: tuple[EmbeddedRotation, ...]
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotations", tuple(self.rotations))
        phases = np.asarray(self.phases, dtype=complex)
        if phases.shape != (self.dimension,):
            raise ValueError("need one phase per mode")
        if not np.abs(np.abs(phases) - 1.0).max() <= 1e-12:
            raise ValueError("phases must have unit modulus")
        n = self.dimension
        if len(self.rotations) > n * (n - 1) // 2:
            raise ValueError("too many rotations for the dimension")
        for rot in self.rotations:
            if rot.j >= n:
                raise ValueError(f"rotation on mode {rot.j} out of range")
        phases = phases.copy()
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)


def reck_decompose(u: np.ndarray) -> ReckPlan:
    """Null the below-diagonal entries of a unitary with 2x2 rotations.

    Entries already within 1e-10 of zero emit no rotation, so
    permutation-like matrices produce short plans.  The residual
    diagonal becomes the phase list after renormalizing each entry to
    unit modulus.
    """
    work = np.asarray(u, dtype=complex).copy()
    residual = _unitarity_residual(work)
    if not residual <= 1e-10:
        raise NotUnitary(residual)
    n = work.shape[0]
    rotations: list[EmbeddedRotation] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            b = work[row, col]
            if abs(b) <= 1e-10:
                work[row, col] = 0.0
                continue
            a = work[col, col]
            rho = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / rho
            pair = g @ work[[col, row], :]
            work[col, :] = pair[0]
            work[row, :] = pair[1]
            work[row, col] = 0.0
            rotations.append(EmbeddedRotation(col, row, g.conj().T))
    diag = np.diag(work)
    phases = diag / np.abs(diag)
    return ReckPlan(n, tuple(rotations), phases)


def reck_reconstruct(plan: ReckPlan) -> np.ndarray:
    """Multiply the plan back out: rotations in listed order, phases last.

    Each rotation touches only rows i and j, so its 2x2 block is applied
    to those two rows in place: O(n) per rotation, O(n^3) per plan.
    """
    mat = np.diag(plan.phases).astype(complex)
    for rot in reversed(plan.rotations):
        rows = [rot.i, rot.j]
        mat[rows] = rot.u @ mat[rows]
    return mat


# -- text format ------------------------------------------------------------
# R <i> <j> <u00re> <u00im> <u01re> <u01im> <u10re> <u10im> <u11re> <u11im>
# P <k> <re> <im>
# with 1-based mode indices and 17-significant-digit decimals.

def emit_reck_plan(plan: ReckPlan) -> str:
    lines = []
    for rot in plan.rotations:
        vals = []
        for entry in rot.u.ravel():
            vals.append(f"{entry.real:.17g}")
            vals.append(f"{entry.imag:.17g}")
        lines.append(f"R {rot.i + 1} {rot.j + 1} " + " ".join(vals))
    for k, ph in enumerate(plan.phases):
        lines.append(f"P {k + 1} {ph.real:.17g} {ph.imag:.17g}")
    return "\n".join(lines) + "\n"


def parse_reck_plan(text: str) -> ReckPlan:
    rotations: list[EmbeddedRotation] = []
    phases: dict[int, complex] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "R" and len(fields) == 11:
                i, j = int(fields[1]) - 1, int(fields[2]) - 1
                vals = [float(x) for x in fields[3:]]
                block = np.array(
                    [complex(vals[2 * k], vals[2 * k + 1]) for k in range(4)]
                ).reshape(2, 2)
                rotations.append(EmbeddedRotation(i, j, block))
            elif fields[0] == "P" and len(fields) == 4:
                mode = int(fields[1]) - 1
                if mode in phases:
                    raise ParseError(f"second phase line for mode {mode + 1}",
                                     line_no=line_no)
                phases[mode] = complex(float(fields[2]), float(fields[3]))
            else:
                raise ParseError(f"unrecognized plan line {line!r}",
                                 line_no=line_no)
        except (ValueError, NotUnitary) as err:
            raise ParseError(str(err), line_no=line_no) from None
    if not phases or sorted(phases) != list(range(len(phases))):
        raise ParseError("phase lines must cover modes 1..N")
    dim = len(phases)
    try:
        return ReckPlan(dim, tuple(rotations),
                        np.array([phases[k] for k in range(dim)]))
    except ValueError as err:
        raise ParseError(str(err)) from None
