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

The chain Hamiltonian is the sum over sites of the site generator,
one gate generator per gate of that site's `build_uf_circuit` (the NOT
and the CNs from its in-range neighbors).  Everything is expanded into
Pauli terms with real coefficients and X/Z factors only, and a
`HamiltonianSum` stores them as (x_mask, z_mask, coefficient) rows with
site s at bit n - s, its one form; the builders merge like rows.
`HamiltonianSum.masks` gives the rows as arrays, and `terms` reads them
as `PauliTerm` factor tuples, a view kept for the benchmark, which
reads each term's support, and for the text output.  A term with masks
(x, z) maps column word w to row w ^ x with sign (-1)^popcount(w & z),
so `to_dense` writes one diagonal per distinct X mask and the matrix is
real symmetric by construction.  Its rows are padded by one cache line
(`square_zeros`), so the transposed reads of a symmetry check do not all
land in one cache set of the 2^n-wide matrix.

Because the per-site generators at different sites do not commute, the
exponential of the summed Hamiltonian is not the product of the per-site
gate unitaries; sum_product_gap measures that distance instead of
asserting equality.  A site generator acts by X and Z on its own site
and by Z only on its neighbours, so `apply_site_exponential` applies
its exponential in closed form, one 2x2 block per pair of words that
differ at the site.  sum_product_gap builds the site product by
doubling: after sites 1..k it changes only the k high bits, so it is
held as one 2^k x 2^k block per value of the low bits, and site k + 1
turns those into half as many blocks twice as wide in one broadcast
multiply, O(4^n) in all instead of n passes of O(4^n) each.  The summed
Hamiltonian commutes with the reflection of the chain (site i to
n + 1 - i, checked exactly), so exp(i pi H) is taken on the reflection's
symmetric and antisymmetric sectors, two matrices of about half the size
instead of the whole space.  Both go through `exp_i_pi`, the one
exponential of a real symmetric matrix (a real `eigh`, then cos and sin
as two real products), which `qsca check` also runs on the generators.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (GENERATOR_VARIANTS, DimensionTooLarge, Frozen,
                     NotHermitian)
from .gates import (Not, build_uf_circuit, chain_circuit, check_word_width,
                    word_image)
from .qstate import square_zeros

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
    "exp_i_pi",
    "apply_site_exponential",
    "sum_product_gap",
    "emit_hamiltonian_terms",
]

# A Pauli term as (x_mask, z_mask, coefficient), site s at bit n - s.
Row = tuple[int, int, float]


class PauliTerm(Frozen):
    """A real coefficient times a product of X/Z factors on distinct sites:
    one row of a `HamiltonianSum` as `HamiltonianSum.terms` reads it.

    factors is a site-sorted tuple of (site, op) pairs with op in
    {"X", "Z"}; unlisted sites act as identity, and an empty tuple is a
    scalar multiple of the identity.
    """

    def __init__(self, coefficient: float,
                 factors: Iterable[tuple[int, str]]):
        factors = tuple(sorted((int(s), op) for s, op in factors))
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site in factors")
        for _, op in factors:
            if op not in ("X", "Z"):
                raise ValueError(f"factor op must be X or Z, got {op!r}")
        self._assign("coefficient", coefficient)
        self._assign("factors", factors)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)


class HamiltonianSum(Frozen):
    """A sum of Pauli terms on n_sites sites, held as its
    (x_mask, z_mask, coefficient) rows with site s at bit n_sites - s.

    A row with a negative mask, a bit at or above n_sites, or X and Z on
    one site raises ValueError.
    """

    def __init__(self, n_sites: int, rows: Iterable[Row]):
        rows = tuple((x, z, c) for x, z, c in rows)
        for x, z, c in rows:
            # a negative mask shifts down to -1, not to 0
            if (x | z) >> n_sites or x & z:
                raise ValueError(
                    f"row {(x, z, c)} is not a Pauli term on {n_sites} sites")
        self._assign("n_sites", n_sites)
        self._assign("rows", rows)

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows as read-only int64 x masks, int64 z masks and float
        coefficients, in row order.  Above 63 sites a mask does not fit
        an int64: DimensionTooLarge."""
        check_word_width(self.n_sites)
        arrays = tuple(np.array([row[k] for row in self.rows], dtype=dtype)
                       for k, dtype in enumerate((np.int64, np.int64, float)))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def terms(self) -> tuple[PauliTerm, ...]:
        """The rows as PauliTerms, in row order."""
        return tuple(PauliTerm(c, _factors(x, z, self.n_sites))
                     for x, z, c in self.rows)


def _factors(x: int, z: int, n: int) -> tuple[tuple[int, str], ...]:
    """The (site, op) factors of a row, sites ascending."""
    out = []
    rest = x | z
    while rest:
        bit = rest & -rest
        rest ^= bit
        out.append((n + 1 - bit.bit_length(), "X" if x & bit else "Z"))
    return tuple(reversed(out))


def _merge(rows: Iterable[Row], n: int) -> list[Row]:
    """Combine like masks and drop vanished rows, in canonical order:
    by support, then by the ops on it."""
    acc: dict[tuple[int, int], float] = {}
    for x, z, c in rows:
        acc[x, z] = acc.get((x, z), 0.0) + c

    def order(row: Row):
        factors = _factors(row[0], row[1], n)
        return tuple(s for s, _ in factors), tuple(op for _, op in factors)

    return sorted(((x, z, c) for (x, z), c in acc.items() if c != 0.0),
                  key=order)


def _check_variant(variant: str) -> None:
    if variant not in GENERATOR_VARIANTS:
        raise ValueError(f"variant must be one of {GENERATOR_VARIANTS}")


def _not_terms(i: int, n: int, variant: str) -> list[Row]:
    b = 1 << (n - i)
    if variant == "literal":
        return [(0, b, 0.5), (b, 0, 0.5)]
    return [(0, 0, 0.5), (b, 0, -0.5)]


def _cn_terms(control: int, target: int, n: int, variant: str) -> list[Row]:
    # (1 - Z_c)(X_t - 1)/2 or (1 - Z_c)(1 - X_t)/4, distributed.
    c, t = 1 << (n - control), 1 << (n - target)
    if variant == "literal":
        return [(t, 0, 0.5), (0, 0, -0.5), (t, c, -0.5), (0, c, 0.5)]
    return [(0, 0, 0.25), (t, 0, -0.25), (0, c, -0.25), (t, c, 0.25)]


def generator_not(variant: str) -> np.ndarray:
    """2x2 generator of the NOT gate: the dense `_not_terms` on one site."""
    _check_variant(variant)
    return to_dense(HamiltonianSum(1, _not_terms(1, 1, variant)))


def generator_cn(variant: str) -> np.ndarray:
    """4x4 generator of the CN gate, control on the first slot: the dense
    `_cn_terms` on two sites."""
    _check_variant(variant)
    return to_dense(HamiltonianSum(2, _cn_terms(1, 2, 2, variant)))


def build_site_hamiltonian(i: int, r: int, n_sites: int,
                           variant: str = "verified") -> HamiltonianSum:
    """Generator of the site-i update: one gate generator per gate of the
    site-i window circuit, the NOT and a CN from each neighbor.

    Out-of-range neighbors are dropped (free boundaries).  All factors
    involve X only on site i and Z only on neighbors, so the terms
    commute with each other and exp(i pi H_i) is exactly the site gate
    product for the verified variant.  A site outside 1..n_sites raises
    ValueError, and a radius outside 1..MAX_RADIUS RadiusError, as
    `build_uf_circuit` does.
    """
    _check_variant(variant)
    rows: list[Row] = []
    for op in build_uf_circuit(r, i, n_sites).ops:
        rows.extend(_not_terms(op.q, n_sites, variant) if isinstance(op, Not)
                    else _cn_terms(op.control, op.target, n_sites, variant))
    return HamiltonianSum(n_sites, _merge(rows, n_sites))


def build_chain_hamiltonian(n_sites: int, r: int,
                            variant: str = "verified") -> HamiltonianSum:
    """Sum of all site generators, their rows merged into one sum."""
    _check_variant(variant)
    if n_sites < 1:
        raise ValueError("need at least one site")
    return HamiltonianSum(n_sites, _merge(chain.from_iterable(
        build_site_hamiltonian(i, r, n_sites, variant).rows
        for i in range(1, n_sites + 1)), n_sites))


def to_dense(h: HamiltonianSum) -> np.ndarray:
    """Dense real symmetric matrix of a Pauli sum, site 1 most significant.

    X factors form a column-index xor mask and Z factors a sign mask, so
    the rows sharing an X mask add up, in row order, to one diagonal of
    values scattered at (w ^ x, w); no Kronecker products are
    materialized.  The result is a row-padded view: with a 2^n-element
    row stride a column would map to a few cache sets, and `h == h.T`
    would miss on every entry.  Above 12 sites, over the dense budget
    (`square_zeros`), DimensionTooLarge comes before any 2^n array.
    """
    x, z, c = h.masks
    dim = 2 ** h.n_sites
    mat = square_zeros(dim)
    cols = np.arange(dim)
    for mask in set(x.tolist()):
        same = x == mask
        vals = np.zeros(dim)
        for mask_z, coef in zip(z[same], c[same]):
            vals += coef * (1.0 - 2.0 * (np.bitwise_count(cols & mask_z) & 1))
        mat[cols ^ mask, cols] = vals
    return mat


def _check_real_symmetric(h: np.ndarray) -> None:
    if np.iscomplexobj(h):
        raise ValueError("matrix is complex, not real symmetric")
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(h, h.T):
        raise NotHermitian(float(np.abs(h - h.T).max()))


def exp_i_pi(h: np.ndarray) -> np.ndarray:
    """exp(i pi h) for a real symmetric h: a real eigh, then its cos and
    sin as two real products.  Complex or non-finite h raises ValueError,
    an asymmetric one NotHermitian."""
    h = np.asarray(h)
    _check_real_symmetric(h)
    vals, vecs = np.linalg.eigh(h)
    cos = (vecs * np.cos(np.pi * vals)) @ vecs.T
    sin = (vecs * np.sin(np.pi * vals)) @ vecs.T
    return cos + 1j * sin


def _site_blocks(h: HamiltonianSum, site: int) -> tuple[np.ndarray, ...]:
    """The 2x2 blocks (e00, e01, e11) of exp(i pi h) for
    h = a + b X_site + c Z_site, over the words with a 0 at site as
    (bits above site, bits below site); see apply_site_exponential."""
    n = h.n_sites
    x, z, coef = h.masks
    bit = 1 << (n - site)
    off = (x & ~bit) != 0
    if off.any():
        term = h.terms[int(np.argmax(off))]
        raise ValueError(f"term {term} has X off site {site}")
    words = (np.arange(2 ** (site - 1))[:, None] << (n - site + 1)
             | np.arange(2 ** (n - site)))
    signs = 1.0 - 2.0 * (np.bitwise_count(words & (z & ~bit)[:, None, None])
                         & 1)
    # row 0 sums the terms without an op on site into a, row 1 the X
    # terms into b, row 2 the Z terms into c
    weights = np.zeros((3, len(coef)))
    weights[np.where(x & bit, 1, np.where(z & bit, 2, 0)),
            np.arange(len(coef))] = coef
    a, b, c = np.tensordot(weights, signs, 1)
    omega = np.hypot(b, c)
    phase = np.exp(1j * np.pi * a)
    cos = phase * np.cos(np.pi * omega)
    isin = phase * 1j * np.pi * np.sinc(omega)  # i e^{i pi a} sin(pi w) / w
    return cos + isin * c, isin * b, cos - isin * c


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
    e00, e01, e11 = (e[..., None] for e in _site_blocks(h, site))
    rows = mat.reshape(2 ** (site - 1), 2, 2 ** (n - site), -1)
    top, bottom = rows[:, 0], rows[:, 1]
    out = np.empty(rows.shape, dtype=complex)
    out[:, 0] = e00 * top + e01 * bottom
    out[:, 1] = e01 * top + e11 * bottom
    return out.reshape(mat.shape)


def _site_product(n: int, blocks: list[tuple[np.ndarray, ...]]
                  ) -> np.ndarray:
    """The product of the site exponentials, site 1 applied first, from
    their `_site_blocks`.

    After sites 1..k the product changes only the k high bits, so it is
    held as one 2^k x 2^k block per value of the n - k low bits.  Site
    k + 1 is the top low bit b; with l the bits below it and e its 2x2
    blocks, new[l][(h', b'), (h, b)] = e_b'b[h', l] * old[(b, l)][h', h].
    """
    prod = np.ones((2 ** n, 1, 1), dtype=complex)
    for k, (e00, e01, e11) in enumerate(blocks):
        low, high = 2 ** (n - k - 1), 2 ** k
        prev = prod.reshape(2, low, high, high)
        # [l, row high, row bit, col high, col bit]
        prod = np.empty((low, high, 2, high, 2), dtype=complex)
        for row, col, e in ((0, 0, e00), (0, 1, e01), (1, 0, e01),
                            (1, 1, e11)):
            np.multiply(e.T[:, :, None], prev[col],
                        out=prod[:, :, row, :, col])
        prod = prod.reshape(low, 2 * high, 2 * high)
    return prod.reshape(2 ** n, 2 ** n)


def _exp_i_pi_by_reflection(h: np.ndarray) -> np.ndarray:
    """exp(i pi h) for a real symmetric h on 2^n words that commutes
    exactly with the bit reversal R of the words.

    On the pairs w < R(w) the symmetric sector has the basis
    (e_w + e_Rw)/sqrt2, the antisymmetric one (e_w - e_Rw)/sqrt2, and the
    palindromes join the symmetric sector as e_w; h is block diagonal on
    the two, and each block is exponentiated by `exp_i_pi`.  Both blocks
    are slices of one copy of h ordered as the p words w < R(w), their
    reverses, then the palindromes.
    """
    _check_real_symmetric(h)
    n = len(h).bit_length() - 1
    words = np.arange(2 ** n)
    rev = np.zeros_like(words)
    for b in range(n):
        rev |= ((words >> b) & 1) << (n - 1 - b)
    if not np.array_equal(h[np.ix_(rev, rev)], h):
        raise ValueError("matrix does not commute with the reflection")
    lower = np.flatnonzero(words < rev)
    upper, fixed = rev[lower], np.flatnonzero(words == rev)
    p = len(lower)
    order = np.concatenate([lower, upper, fixed])
    g = h[np.ix_(order, order)]
    same, cross = g[:p, :p], g[:p, p:2 * p]
    edge = np.sqrt(2) * g[2 * p:, :p]
    sym = exp_i_pi(np.block([[same + cross, edge.T],
                             [edge, g[2 * p:, 2 * p:]]]))
    anti = exp_i_pi(same - cross)
    plus, minus = (sym[:p, :p] + anti) / 2, (sym[:p, :p] - anti) / 2
    out = np.empty(h.shape, dtype=complex)
    out[np.ix_(lower, lower)] = out[np.ix_(upper, upper)] = plus
    out[np.ix_(lower, upper)] = out[np.ix_(upper, lower)] = minus
    out[np.ix_(fixed, lower)] = out[np.ix_(fixed, upper)] = \
        sym[p:, :p] / np.sqrt(2)
    out[np.ix_(lower, fixed)] = out[np.ix_(upper, fixed)] = \
        sym[:p, p:] / np.sqrt(2)
    out[np.ix_(fixed, fixed)] = sym[p:, p:]
    return out


class SumProductReport(Frozen):
    """Distance between the two readings of the chain evolution.

    sum_vs_product:     max |exp(i pi H_total) - prod_i exp(i pi H_i)|.
    product_vs_circuit: max |prod_i exp(i pi H_i) - unitary step circuit|;
                        approaches zero for the verified variant, where
                        each factor equals its site circuit exactly.
    """

    def __init__(self, n_sites: int, radius: int, variant: str,
                 sum_vs_product: float, product_vs_circuit: float):
        self._assign("n_sites", n_sites)
        self._assign("radius", radius)
        self._assign("variant", variant)
        self._assign("sum_vs_product", sum_vs_product)
        self._assign("product_vs_circuit", product_vs_circuit)


def sum_product_gap(n_sites: int, r: int,
                    variant: str = "verified") -> SumProductReport:
    """Both gaps of SumProductReport, for up to 8 sites: the site product
    by doubling, exp(i pi H) on the two reflection sectors."""
    _check_variant(variant)
    if n_sites > 8:
        raise DimensionTooLarge(
            f"gap evaluation supports up to 8 sites, got {n_sites}")
    if n_sites < 1:
        raise ValueError("need at least one site")
    circuit = chain_circuit(r, n_sites)
    sites = [build_site_hamiltonian(i, r, n_sites, variant)
             for i in range(1, n_sites + 1)]
    product = _site_product(n_sites, [
        _site_blocks(h, i) for i, h in enumerate(sites, start=1)])
    total = _exp_i_pi_by_reflection(to_dense(HamiltonianSum(n_sites, _merge(
        chain.from_iterable(h.rows for h in sites), n_sites))))
    sum_vs_product = float(np.abs(total - product).max())
    # the circuit permutes the words: subtract its ones from the product
    words = np.arange(2 ** n_sites)
    product[word_image(n_sites, circuit.ops, words), words] -= 1
    return SumProductReport(
        n_sites=n_sites,
        radius=r,
        variant=variant,
        sum_vs_product=sum_vs_product,
        product_vs_circuit=float(np.abs(product).max()),
    )


def emit_hamiltonian_terms(h: HamiltonianSum) -> str:
    """One term per line: coefficient then site:op factors."""
    lines = []
    for term in h.terms:
        parts = [f"{term.coefficient:.17g}"]
        parts.extend(f"{site}:{op}" for site, op in term.factors)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
