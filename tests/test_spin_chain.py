import numpy as np
import pytest
from scipy.linalg import expm

from qsca import spin_chain
from qsca.errors import DimensionTooLarge, NotHermitian, RadiusError
from qsca.qstate import circuit_matrix, square_zeros
from qsca.quantize import total_step
from qsca.spin_chain import (
    HamiltonianSum,
    PauliTerm,
    apply_site_exponential,
    build_chain_hamiltonian,
    build_site_hamiltonian,
    emit_hamiltonian_terms,
    exp_i_pi,
    generator_cn,
    generator_not,
        sum_product_gap,
    to_dense,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
CN = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]], dtype=float)


def placed(op, site, n):
    """op acting on one site of an n-site chain, site 1 leftmost."""
    mat = np.eye(1)
    for s in range(1, n + 1):
        mat = np.kron(mat, op if s == site else np.eye(2))
    return mat


def chain_oracle(n, r, variant):
    """Direct Kronecker build of the chain generator, no Pauli bookkeeping."""
    dim = 2 ** n
    total = np.zeros((dim, dim))
    eye = np.eye(dim)
    for i in range(1, n + 1):
        if variant == "literal":
            total += (placed(Z, i, n) + placed(X, i, n)) / 2
        else:
            total += (eye - placed(X, i, n)) / 2
        for k in range(1, r + 1):
            for j in (i - k, i + k):
                if not 1 <= j <= n:
                    continue
                if variant == "literal":
                    total += (eye - placed(Z, j, n)) @ \
                        (placed(X, i, n) - eye) / 2
                else:
                    total += (eye - placed(Z, j, n)) @ \
                        (eye - placed(X, i, n)) / 4
    return total


def term_oracle_not(i, variant):
    if variant == "literal":
        return [PauliTerm(0.5, ((i, "Z"),)), PauliTerm(0.5, ((i, "X"),))]
    return [PauliTerm(0.5, ()), PauliTerm(-0.5, ((i, "X"),))]


def term_oracle_cn(control, target, variant):
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


def term_oracle_merge(terms):
    acc = {}
    for t in terms:
        acc[t.factors] = acc.get(t.factors, 0.0) + t.coefficient
    out = [PauliTerm(c, f) for f, c in acc.items() if c != 0.0]
    out.sort(key=lambda t: (t.support, tuple(op for _, op in t.factors)))
    return tuple(out)


def site_terms_oracle(i, r, n, variant):
    """The site generator built and merged as PauliTerm tuples."""
    terms = term_oracle_not(i, variant)
    for k in range(1, r + 1):
        for j in (i - k, i + k):
            if 1 <= j <= n:
                terms.extend(term_oracle_cn(j, i, variant))
    return term_oracle_merge(terms)


def chain_terms_oracle(n, r, variant):
    return term_oracle_merge(t for i in range(1, n + 1)
                             for t in site_terms_oracle(i, r, n, variant))


def dense_oracle(h):
    """One diagonal scatter-add per term, in term order."""
    n = h.n_sites
    cols = np.arange(2 ** n)
    mat = np.zeros((2 ** n, 2 ** n))
    for term in h.terms:
        mask_x = mask_z = 0
        for site, op in term.factors:
            if op == "X":
                mask_x |= 1 << (n - site)
            else:
                mask_z |= 1 << (n - site)
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & mask_z) & 1)
        mat[cols ^ mask_x, cols] += term.coefficient * signs
    return mat


def sequential_site_product(n, r, variant):
    product = np.eye(2 ** n, dtype=complex)
    for i in range(1, n + 1):
        product = apply_site_exponential(
            build_site_hamiltonian(i, r, n, variant), i, product)
    return product


def sum_product_gap_oracle(n, r, variant):
    """The gaps from the sequential site product and one dense eigh."""
    total = exp_i_pi(to_dense(build_chain_hamiltonian(n, r, variant)))
    product = sequential_site_product(n, r, variant)
    circuit = circuit_matrix(total_step(r, n, "unitary_circuit"))
    return (float(np.abs(total - product).max()),
            float(np.abs(product - circuit).max()))


def reversed_words(n):
    return np.array([int(format(w, f"0{n}b")[::-1], 2) for w in range(2 ** n)])


# -- terms ------------------------------------------------------------------

def test_pauli_term_validation():
    term = PauliTerm(0.5, ((3, "Z"), (1, "X")))
    assert term.factors == ((1, "X"), (3, "Z"))
    assert term.support == (1, 3)
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((1, "Y"),))
    with pytest.raises(ValueError):
        PauliTerm(1.0, ((2, "X"), (2, "Z")))


def test_hamiltonian_sum_range_check():
    with pytest.raises(ValueError):
        HamiltonianSum(2, 1, (PauliTerm(1.0, ((3, "X"),)),))


# -- gate generators --------------------------------------------------------

def test_generators_match_kron_formulas():
    # the Pauli rows the chain is built from against the textbook forms
    i2 = np.eye(2)
    assert np.array_equal(generator_not("literal"), (Z + X) / 2)
    assert np.array_equal(generator_not("verified"), (i2 - X) / 2)
    assert np.array_equal(generator_cn("literal"),
                          0.5 * np.kron(i2 - Z, X - i2))
    assert np.array_equal(generator_cn("verified"),
                          0.25 * np.kron(i2 - Z, i2 - X))
    for variant in ("literal", "verified"):
        assert generator_not(variant).strides == square_zeros(2).strides
        assert generator_cn(variant).strides == square_zeros(4).strides


def test_generators_hermitian():
    for variant in ("literal", "verified"):
        g = generator_not(variant)
        assert np.array_equal(g, g.T)
        g = generator_cn(variant)
        assert np.array_equal(g, g.T)


def test_verified_generators_exponentiate_to_gates():
    assert np.abs(expm(1j * np.pi * generator_not("verified")) - X).max() \
        <= 1e-12
    assert np.abs(expm(1j * np.pi * generator_cn("verified")) - CN).max() \
        <= 1e-12


def test_verified_cn_generator_is_projector():
    g = generator_cn("verified")
    assert np.abs(g @ g - g).max() <= 1e-12
    assert np.trace(g) == pytest.approx(1.0)


def test_literal_generators_documented_mismatch():
    # as printed, the NOT generator rotates to a different unitary and
    # the CN generator is -2x a projector, exponentiating to the identity
    got = expm(1j * np.pi * generator_not("literal"))
    angle = np.pi / np.sqrt(2)
    want = np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * (Z + X) / np.sqrt(2)
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got - X).max() > 0.5
    got_cn = expm(1j * np.pi * generator_cn("literal"))
    assert np.abs(got_cn - np.eye(4)).max() <= 1e-12


def test_generator_variant_validation():
    with pytest.raises(ValueError):
        generator_not("printed")


# -- site and chain sums ----------------------------------------------------

def test_site_hamiltonian_locality():
    h = build_site_hamiltonian(5, 2, 9)
    for term in h.terms:
        assert all(3 <= s <= 7 for s in term.support)
    edge = build_site_hamiltonian(1, 2, 9)
    for term in edge.terms:
        assert all(1 <= s <= 3 for s in term.support)
        # only right neighbors survive at the left edge
        assert all(s >= 1 for s in term.support)


def test_site_hamiltonian_matches_kron_oracle():
    for variant in ("literal", "verified"):
        for (i, r, n) in ((3, 2, 5), (1, 1, 4), (4, 3, 6)):
            dense = to_dense(build_site_hamiltonian(i, r, n, variant))
            eye = np.eye(2 ** n)
            if variant == "literal":
                want = (placed(Z, i, n) + placed(X, i, n)) / 2
            else:
                want = (eye - placed(X, i, n)) / 2
            for k in range(1, r + 1):
                for j in (i - k, i + k):
                    if not 1 <= j <= n:
                        continue
                    if variant == "literal":
                        want = want + (eye - placed(Z, j, n)) @ \
                            (placed(X, i, n) - eye) / 2
                    else:
                        want = want + (eye - placed(Z, j, n)) @ \
                            (eye - placed(X, i, n)) / 4
            assert np.abs(dense - want).max() <= 1e-12


def test_chain_hamiltonian_matches_kron_oracle():
    for variant in ("literal", "verified"):
        for (n, r) in ((4, 1), (5, 2), (4, 3)):
            dense = to_dense(build_chain_hamiltonian(n, r, variant))
            assert np.abs(dense - chain_oracle(n, r, variant)).max() <= 1e-12
            # rows padded as by square_zeros, and the result is writeable
            assert dense.strides == square_zeros(2 ** n).strides
            assert dense.flags.writeable


def test_chain_single_site_literal():
    h = to_dense(build_chain_hamiltonian(1, 2, "literal"))
    assert np.array_equal(h, (X + Z) / 2)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_chain_hermitian_exact():
    for n, r in ((12, 1), (12, 2), (12, 3), (8, 2)):
        dense = to_dense(build_chain_hamiltonian(n, r))
        assert np.abs(dense - dense.T).max() == 0.0


def test_chain_interior_terms_shift_covariant():
    n, r = 9, 2
    for variant in ("literal", "verified"):
        for i in range(r + 1, n - r):
            here = build_site_hamiltonian(i, r, n, variant)
            there = build_site_hamiltonian(i + 1, r, n, variant)
            shifted = sorted(
                (t.coefficient, tuple((s + 1, op) for s, op in t.factors))
                for t in here.terms)
            actual = sorted((t.coefficient, t.factors) for t in there.terms)
            assert shifted == actual


def test_chain_two_site_terms_within_range():
    h = build_chain_hamiltonian(10, 3)
    for term in h.terms:
        sites = term.support
        assert len(sites) <= 2
        if len(sites) == 2:
            assert sites[1] - sites[0] <= 3


# -- dense realization ------------------------------------------------------

def test_to_dense_basics():
    assert np.array_equal(to_dense(HamiltonianSum(2, 1, ())), np.zeros((4, 4)))
    single = HamiltonianSum(2, 1, (PauliTerm(1.0, ((1, "X"),)),))
    assert np.array_equal(to_dense(single), np.kron(X, np.eye(2)))
    zz = HamiltonianSum(2, 1, (PauliTerm(0.5, ((1, "Z"), (2, "X"))),))
    assert np.array_equal(to_dense(zz), 0.5 * np.kron(Z, X))
    with pytest.raises(DimensionTooLarge):
        to_dense(HamiltonianSum(15, 1, ()))
    # at 64 sites the masks themselves overflow an int64: refused first
    with pytest.raises(DimensionTooLarge):
        to_dense(build_chain_hamiltonian(64, 1))


def test_to_dense_linear():
    a = build_chain_hamiltonian(4, 1, "literal")
    b = build_chain_hamiltonian(4, 2, "verified")
    merged = HamiltonianSum(4, 2, a.terms + b.terms)
    assert np.abs(to_dense(merged) - to_dense(a) - to_dense(b)).max() <= 1e-12


# -- exponentials -----------------------------------------------------------

def test_exp_i_pi():
    h = to_dense(build_chain_hamiltonian(3, 1))
    assert np.abs(exp_i_pi(h) - expm(1j * np.pi * h)).max() <= 1e-12
    assert np.abs(exp_i_pi(np.zeros((8, 8))) - np.eye(8)).max() <= 1e-12
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((8, 8))
    sym = raw + raw.T
    assert np.abs(exp_i_pi(sym) - expm(1j * np.pi * sym)).max() <= 1e-9
    with pytest.raises(NotHermitian):
        exp_i_pi(raw)


def test_exp_i_pi_rejects_complex_and_non_finite():
    # eigh reads one triangle, so a NaN in the other one went unnoticed
    with pytest.raises(ValueError):
        exp_i_pi(np.array([[1.0, np.nan], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        exp_i_pi(np.array([[np.inf, 0.0], [0.0, 2.0]]))
    # a Hermitian matrix with a nonzero imaginary part is not real
    with pytest.raises(ValueError, match="complex"):
        exp_i_pi(np.array([[1.0, 1j], [-1j, 1.0]]))


@pytest.mark.parametrize("variant", ["literal", "verified"])
def test_closed_form_site_exponential(variant):
    for n in range(1, 9):
        for r in range(1, 5):
            # every site up to n = 5; ends, neighbours of the ends and the
            # middle beyond
            sites = range(1, n + 1) if n <= 5 else (1, 2, r + 1, n - 1, n)
            for i in sorted(set(sites)):
                h = build_site_hamiltonian(i, r, n, variant)
                got = apply_site_exponential(h, i, np.eye(2 ** n))
                dense = to_dense(h)
                assert np.abs(got - exp_i_pi(dense)).max() <= 1e-12
                assert np.abs(got - expm(1j * np.pi * dense)).max() <= 1e-12


def test_closed_form_site_exponential_applies_to_any_rows():
    rng = np.random.default_rng(4)
    h = build_site_hamiltonian(3, 2, 5, "literal")
    mat = rng.standard_normal((32, 7)) + 1j * rng.standard_normal((32, 7))
    want = expm(1j * np.pi * to_dense(h)) @ mat
    assert np.abs(apply_site_exponential(h, 3, mat) - want).max() <= 1e-12
    assert np.abs(apply_site_exponential(h, 3, mat[:, 0])
                  - want[:, 0]).max() <= 1e-12


def test_closed_form_site_exponential_rejects_other_forms():
    h = build_site_hamiltonian(2, 1, 4)
    with pytest.raises(ValueError):
        apply_site_exponential(h, 3, np.eye(16))  # X sits on site 2
    with pytest.raises(ValueError):
        apply_site_exponential(build_chain_hamiltonian(3, 1), 1, np.eye(8))
    with pytest.raises(ValueError):
        apply_site_exponential(h, 5, np.eye(16))
    with pytest.raises(ValueError):
        apply_site_exponential(h, 2, np.eye(8))


def test_site_exponential_equals_site_circuit():
    # the verified site generator commutes term by term, so its
    # exponential is exactly the per-site gate product
    from qsca.quantize import build_uf_circuit
    for (i, r, n) in ((2, 1, 4), (3, 2, 5)):
        h = to_dense(build_site_hamiltonian(i, r, n))
        gate = exp_i_pi(h)
        want = circuit_matrix(build_uf_circuit(r, i, n))
        assert np.abs(gate - want).max() <= 1e-10


def test_sum_product_gap():
    report = sum_product_gap(5, 2)
    assert report.product_vs_circuit <= 1e-9
    assert report.sum_vs_product >= 0.0
    single = sum_product_gap(1, 1)
    assert single.sum_vs_product <= 1e-12
    with pytest.raises(DimensionTooLarge):
        sum_product_gap(9, 1)


@pytest.mark.parametrize("variant", ["literal", "verified"])
def test_sum_product_gap_matches_sequential_oracle(variant):
    for n in range(1, 9):
        for r in range(1, 5):
            report = sum_product_gap(n, r, variant)
            want = sum_product_gap_oracle(n, r, variant)
            assert abs(report.sum_vs_product - want[0]) <= 1e-12
            assert abs(report.product_vs_circuit - want[1]) <= 1e-12
            doubled = spin_chain._site_product(n, [
                spin_chain._site_blocks(
                    n, i, *build_site_hamiltonian(i, r, n, variant).masks)
                for i in range(1, n + 1)])
            assert np.array_equal(doubled,
                                  sequential_site_product(n, r, variant))


def test_sum_product_gap_argument_errors():
    with pytest.raises(ValueError):
        sum_product_gap(0, 1)
    with pytest.raises(ValueError):
        sum_product_gap(3, 1, "printed")
    for r in (0, 7):
        with pytest.raises(RadiusError):
            sum_product_gap(8, r)
    for r in (5, 6):
        report = sum_product_gap(8, r)
        assert report.product_vs_circuit <= 1e-9


def test_sum_product_gap_size_checked_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")
    monkeypatch.setattr(spin_chain, "total_step", refuse)
    monkeypatch.setattr(spin_chain, "_site_rows", refuse)
    with pytest.raises(DimensionTooLarge):
        sum_product_gap(40, 2)


def test_sum_product_gap_radius_checked_before_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran before the radius check")
    monkeypatch.setattr(spin_chain.np.linalg, "eigh", refuse)
    with pytest.raises(RadiusError):
        sum_product_gap(6, 9)


@pytest.mark.parametrize("variant", ["literal", "verified"])
def test_terms_masks_and_dense_match_oracles(variant):
    for n in range(1, 13):
        rev = reversed_words(n)
        for r in range(1, 5):
            h = build_chain_hamiltonian(n, r, variant)
            assert h.terms == chain_terms_oracle(n, r, variant)
            for i in range(1, n + 1):
                assert build_site_hamiltonian(i, r, n, variant).terms == \
                    site_terms_oracle(i, r, n, variant)
            dense = to_dense(h)
            assert np.array_equal(dense, dense_oracle(h))
            # the chain reflection i <-> n + 1 - i is an exact symmetry
            assert np.array_equal(dense[np.ix_(rev, rev)], dense)
            del dense


def test_masks_read_only_and_cached():
    h = HamiltonianSum(3, 1, (PauliTerm(0.5, ((1, "X"), (3, "Z"))),
                              PauliTerm(-0.25, ()),
                              PauliTerm(2.0, ((2, "Z"),))))
    x, z, c = h.masks
    assert x.tolist() == [4, 0, 0]
    assert z.tolist() == [1, 0, 2]
    assert c.tolist() == [0.5, -0.25, 2.0]
    assert h.masks is h.masks
    for a in h.masks:
        assert not a.flags.writeable
    empty = HamiltonianSum(2, 1, ()).masks
    assert [a.shape for a in empty] == [(0,), (0,), (0,)]


def test_to_dense_sums_shared_x_masks_in_term_order():
    # coefficients that round differently when added in another order
    terms = (PauliTerm(0.1, ((1, "X"),)), PauliTerm(0.2, ((1, "X"), (2, "Z"))),
             PauliTerm(0.3, ((1, "X"), (3, "Z"))), PauliTerm(1e-17, ()),
             PauliTerm(0.7, ((2, "Z"),)))
    h = HamiltonianSum(3, 1, terms)
    assert np.array_equal(to_dense(h), dense_oracle(h))


def test_reflection_sector_exponential():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5):
        rev = reversed_words(n)
        raw = rng.standard_normal((2 ** n, 2 ** n))
        sym = raw + raw.T
        h = sym + sym[np.ix_(rev, rev)]
        got = spin_chain._exp_i_pi_by_reflection(h)
        assert np.abs(got - exp_i_pi(h)).max() <= 1e-10
        assert np.abs(got - expm(1j * np.pi * h)).max() <= 1e-10


def test_reflection_sector_exponential_rejects():
    h = to_dense(build_chain_hamiltonian(4, 2))
    skew = h.copy()
    skew[0, 1] += 1e-3
    with pytest.raises(NotHermitian):
        spin_chain._exp_i_pi_by_reflection(skew)
    for bad in (np.nan, np.inf):
        broken = h.copy()
        broken[3, 5] = broken[5, 3] = bad
        with pytest.raises(ValueError):
            spin_chain._exp_i_pi_by_reflection(broken)
    # symmetric, but site 1 is not site 4's mirror image
    one_sided = to_dense(HamiltonianSum(4, 1, (PauliTerm(1.0, ((1, "X"),)),)))
    with pytest.raises(ValueError):
        spin_chain._exp_i_pi_by_reflection(one_sided)


# -- text format ------------------------------------------------------------

def test_emit_hamiltonian_terms_golden():
    h = build_chain_hamiltonian(1, 1, "literal")
    assert emit_hamiltonian_terms(h) == "0.5 1:X\n0.5 1:Z\n"
    n2 = emit_hamiltonian_terms(build_chain_hamiltonian(2, 1))
    lines = n2.strip().splitlines()
    assert lines[0].split()[1:] == []  # leading scalar term
    assert all(":" in part for line in lines[1:]
               for part in line.split()[1:])


def test_emit_hamiltonian_sorted_and_parsable():
    h = build_chain_hamiltonian(4, 2)
    lines = emit_hamiltonian_terms(h).strip().splitlines()
    keys = []
    for line in lines:
        parts = line.split()
        float(parts[0])
        sites = tuple(int(p.split(":")[0]) for p in parts[1:])
        ops = tuple(p.split(":")[1] for p in parts[1:])
        keys.append((sites, ops))
    assert keys == sorted(keys)
