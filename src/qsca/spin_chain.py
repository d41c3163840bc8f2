"""Hermitian generators and the chain Hamiltonian of the window rule.

Each site update is a NOT conditioned through controlled-NOTs on its
2r neighbors, and every gate in that factorization admits a Hermitian
generator G with exp(i pi G) equal to the gate.  Two generator variants
ship side by side:

  literal   (sigma_z + sigma_x)/2 for NOT and (1 - sigma_z)(sigma_x - 1)/2
            for CN, exactly as conventionally written.  These do NOT
            exponentiate to their gates: the CN form is -2 times a
            projector, so exp(i pi G) is the identity, and the NOT form
            has eigenvalues +-1/sqrt(2).  Both facts are asserted by the
            test suite as documented findings.
  verified  the projector normalizations (1 - sigma_x)/2 and
            (1 - sigma_z)(1 - sigma_x)/4, whose exponentials reproduce
            NOT and CN exactly.

The chain Hamiltonian is the sum over sites of the site generator
(NOT generator plus the CN generators toward the r neighbors on each
side, free boundaries).  Everything is expanded into Pauli terms with
real coefficients and X/Z factors only, so the dense realization is a
real symmetric matrix by construction.

Because the per-site generators at different sites do not commute, the
exponential of the summed Hamiltonian is not the product of the per-site
gate unitaries; sum_product_gap measures that distance instead of
asserting equality.  A site generator acts by X and Z on its own site
and by Z only on its neighbours, so `apply_site_exponential` applies
its exponential in closed form, one 2x2 block per pair of words that
differ at the site, in O(4^n) per site against O(8^n) for an eigh and
a dense product; the summed Hamiltonian keeps its one eigh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionTooLarge, NotHermitian
from .qstate import DENSE_LIMIT, circuit_matrix
from .quantize import total_step

__all__ = [
    "GENERATOR_VARIANTS",
    "PauliTerm",
    "HamiltonianSum",
    "SumProductReport",
    "generator_not",
    "generator_cn",
    "build_site_hamiltonian",
    "build_chain_hamiltonian",
    "to_dense",
    "matrix_exp_hermitian",
    "apply_site_exponential",
    "sum_product_gap",
    "emit_hamiltonian_terms",
]

GENERATOR_VARIANTS = ("literal", "verified")

_ID = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a product of X/Z factors on distinct sites.

    factors is a site-sorted tuple of (site, op) pairs with op in
    {"X", "Z"}; unlisted sites act as identity, and an empty tuple is a
    scalar multiple of the identity.
    """

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        factors = tuple(sorted((int(s), op) for s, op in self.factors))
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site in factors")
        for _, op in factors:
            if op not in ("X", "Z"):
                raise ValueError(f"factor op must be X or Z, got {op!r}")
        object.__setattr__(self, "factors", factors)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)


@dataclass(frozen=True)
class HamiltonianSum:
    n_sites: int
    radius: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.support and not (1 <= t.support[0] and
                                  t.support[-1] <= self.n_sites):
                raise ValueError(f"term {t} out of range")


def _merge(terms: Iterable[PauliTerm]) -> tuple[PauliTerm, ...]:
    """Combine like factors and drop vanished terms, in canonical order."""
    acc: dict[tuple[tuple[int, str], ...], float] = {}
    for t in terms:
        acc[t.factors] = acc.get(t.factors, 0.0) + t.coefficient
    out = [PauliTerm(c, f) for f, c in acc.items() if c != 0.0]
    out.sort(key=lambda t: (t.support, tuple(op for _, op in t.factors)))
    return tuple(out)


def _check_variant(variant: str) -> None:
    if variant not in GENERATOR_VARIANTS:
        raise ValueError(f"variant must be one of {GENERATOR_VARIANTS}")


def generator_not(variant: str) -> np.ndarray:
    """2x2 generator of the NOT gate."""
    _check_variant(variant)
    if variant == "literal":
        return (_SZ + _SX) / 2
    return (_ID - _SX) / 2


def generator_cn(variant: str) -> np.ndarray:
    """4x4 generator of the CN gate, control on the first slot."""
    _check_variant(variant)
    if variant == "literal":
        ctrl, tgt = _ID - _SZ, _SX - _ID
        coeff = 0.5
    else:
        ctrl, tgt = _ID - _SZ, _ID - _SX
        coeff = 0.25
    return coeff * np.kron(ctrl, tgt)


def _not_terms(i: int, variant: str) -> list[PauliTerm]:
    if variant == "literal":
        return [PauliTerm(0.5, ((i, "Z"),)), PauliTerm(0.5, ((i, "X"),))]
    return [PauliTerm(0.5, ()), PauliTerm(-0.5, ((i, "X"),))]


def _cn_terms(control: int, target: int, variant: str) -> list[PauliTerm]:
    # (1 - Z_c)(X_t - 1)/2 or (1 - Z_c)(1 - X_t)/4, distributed.
    if variant == "literal":
        return [
            PauliTerm(0.5, ((target, "X"),)),
            PauliTerm(-0.5, ()),
            PauliTerm(-0.5, ((control, "Z"), (target, "X"))),
            PauliTerm(0.5, ((control, "Z"),)),
        ]
    return [
        PauliTerm(0.25, ()),
        PauliTerm(-0.25, ((target, "X"),)),
        PauliTerm(-0.25, ((control, "Z"),)),
        PauliTerm(0.25, ((control, "Z"), (target, "X"))),
    ]


def build_site_hamiltonian(i: int, r: int, n_sites: int,
                           variant: str = "verified") -> HamiltonianSum:
    """Generator of the site-i update: NOT plus CN toward each neighbor.

    Out-of-range neighbors are dropped (free boundaries).  All factors
    involve X only on site i and Z only on neighbors, so the terms
    commute with each other and exp(i pi H_i) is exactly the site gate
    product for the verified variant.
    """
    _check_variant(variant)
    if not 1 <= i <= n_sites:
        raise ValueError(f"site {i} out of range")
    terms = _not_terms(i, variant)
    for k in range(1, r + 1):
        for j in (i - k, i + k):
            if 1 <= j <= n_sites:
                terms.extend(_cn_terms(j, i, variant))
    return HamiltonianSum(n_sites, r, _merge(terms))


def build_chain_hamiltonian(n_sites: int, r: int,
                            variant: str = "verified") -> HamiltonianSum:
    """Sum of all site generators, merged into a single Pauli expansion."""
    _check_variant(variant)
    if n_sites < 1:
        raise ValueError("need at least one site")
    terms: list[PauliTerm] = []
    for i in range(1, n_sites + 1):
        terms.extend(build_site_hamiltonian(i, r, n_sites, variant).terms)
    return HamiltonianSum(n_sites, r, _merge(terms))


def to_dense(h: HamiltonianSum) -> np.ndarray:
    """Dense real symmetric matrix of a Pauli sum, site 1 most significant.

    Per term, X factors form a column-index xor mask and Z factors a
    sign mask, so each term scatters one diagonal of values; no Kronecker
    products are materialized.
    """
    n = h.n_sites
    if n > DENSE_LIMIT:
        raise DimensionTooLarge(
            f"{n} sites exceeds the dense limit of {DENSE_LIMIT}")
    dim = 2 ** n
    cols = np.arange(dim)
    mat = np.zeros((dim, dim))
    for term in h.terms:
        mask_x = 0
        mask_z = 0
        for site, op in term.factors:
            bit = 1 << (n - site)
            if op == "X":
                mask_x |= bit
            else:
                mask_z |= bit
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & mask_z) & 1)
        mat[cols ^ mask_x, cols] += term.coefficient * signs
    return mat


def matrix_exp_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * h) through the eigendecomposition of Hermitian h."""
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    residual = float(np.abs(h - h.conj().T).max())
    if not residual <= 1e-10:
        raise NotHermitian(residual)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * scale * vals)) @ vecs.conj().T


def apply_site_exponential(h: HamiltonianSum, site: int,
                           mat: np.ndarray) -> np.ndarray:
    """exp(i pi h) @ mat in closed form, for h = a + b X_site + c Z_site.

    a, b and c are sums of Z products on the other sites, so they are
    diagonal there, and on each pair of words that differ only at site
    the exponential is the 2x2 block
    e^{i pi a} (cos(pi w) + i sin(pi w)/w (b X + c Z)), w = sqrt(b^2 + c^2).
    Applying the blocks mixes the two rows of each pair: O(rows of mat)
    per column, where exponentiating the dense h costs an eigh.  Every
    site generator of `build_site_hamiltonian` has this form; a term
    with X on another site raises ValueError.
    """
    n = h.n_sites
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range")
    mat = np.asarray(mat)
    if mat.shape[0] != 2 ** n:
        raise ValueError(f"expected {2 ** n} rows, got {mat.shape[0]}")
    shape = (2 ** (site - 1), 2 ** (n - site))
    # words with a 0 at site, as (bits above site, bits below site)
    words = np.arange(2 ** n).reshape(shape[0], 2, shape[1])[:, 0]
    parts = {op: np.zeros(shape) for op in ("", "X", "Z")}
    for term in h.terms:
        here = ""
        mask_z = 0
        for s, op in term.factors:
            if s == site:
                here = op
            elif op == "Z":
                mask_z |= 1 << (n - s)
            else:
                raise ValueError(f"term {term} has X off site {site}")
        parts[here] += term.coefficient * (
            1.0 - 2.0 * (np.bitwise_count(words & mask_z) & 1))
    a, b, c = parts[""], parts["X"], parts["Z"]
    omega = np.hypot(b, c)
    phase = np.exp(1j * np.pi * a)
    cos = phase * np.cos(np.pi * omega)
    isin = phase * 1j * np.pi * np.sinc(omega)  # i e^{i pi a} sin(pi w) / w
    e00, e01, e11 = ((cos + isin * c)[..., None], (isin * b)[..., None],
                     (cos - isin * c)[..., None])
    rows = mat.reshape(shape[0], 2, shape[1], -1)
    top, bottom = rows[:, 0], rows[:, 1]
    out = np.empty(rows.shape, dtype=complex)
    out[:, 0] = e00 * top + e01 * bottom
    out[:, 1] = e01 * top + e11 * bottom
    return out.reshape(mat.shape)


@dataclass(frozen=True)
class SumProductReport:
    """Distance between the two readings of the chain evolution.

    sum_vs_product:     max |exp(i pi H_total) - prod_i exp(i pi H_i)|.
    product_vs_circuit: max |prod_i exp(i pi H_i) - unitary step circuit|;
                        approaches zero for the verified variant, where
                        each factor equals its site circuit exactly.
    """

    n_sites: int
    radius: int
    variant: str
    sum_vs_product: float
    product_vs_circuit: float


def sum_product_gap(n_sites: int, r: int,
                    variant: str = "verified") -> SumProductReport:
    _check_variant(variant)
    if n_sites > 8:
        raise DimensionTooLarge(
            f"gap evaluation supports up to 8 sites, got {n_sites}")
    total = matrix_exp_hermitian(
        to_dense(build_chain_hamiltonian(n_sites, r, variant)), np.pi)
    product = np.eye(2 ** n_sites, dtype=complex)
    for i in range(1, n_sites + 1):
        product = apply_site_exponential(
            build_site_hamiltonian(i, r, n_sites, variant), i, product)
    circuit = circuit_matrix(total_step(r, n_sites, "unitary_circuit"))
    return SumProductReport(
        n_sites=n_sites,
        radius=r,
        variant=variant,
        sum_vs_product=float(np.abs(total - product).max()),
        product_vs_circuit=float(np.abs(product - circuit).max()),
    )


def emit_hamiltonian_terms(h: HamiltonianSum) -> str:
    """One term per line: coefficient then site:op factors."""
    lines = []
    for term in h.terms:
        parts = [f"{term.coefficient:.17g}"]
        parts.extend(f"{site}:{op}" for site, op in term.factors)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
