"""Quantized soliton cellular automata: simulator and verification lab.

The package splits into a classical layer (parity filter automaton,
particle segmentation, fast-recurrence prediction), a quantum layer
(state vectors and gate kernels, the basis-level transition operator and
its circuit factorization, spin-chain generators, the block propagation
circuit), and a compilation layer (triangular mesh decomposition of
unitaries).

The namespace is lazy (PEP 562): `import qsca` loads no submodule, and
a public name or a submodule name loads its submodule on first access.
So the classical layer, `sca_core`, and the gate set, `gates`, run
without importing numpy.
"""

from importlib import import_module

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "DimensionTooLarge",
        "NotHermitian",
        "NotUnitary",
        "ParseError",
        "QscaError",
        "RadiusError",
        "StepDivergedError",
    ),
    "sca_core": (
        "BasicString",
        "Configuration",
        "FrtPrediction",
        "FrtReport",
        "Particle",
        "Rule",
        "ascii_diagram",
        "evolve",
        "frt_check",
        "frt_predict",
        "parse_configuration",
        "parse_particles",
        "pbm_diagram",
        "step",
    ),
    "gates": (
        "BlockReset",
        "Circuit",
        "CollectiveCn",
        "Cn",
        "Not",
        "build_uf_circuit",
        "emit_gatelist",
    ),
    "qstate": (
        "StateVector",
        "apply_circuit",
        "circuit_matrix",
    ),
    "quantize": (
        "BasisPartition",
        "TransitionOperator",
        "WordMap",
        "build_uf_matrix",
        "check_partial_isometry",
        "parallelism_demo",
        "partition_basis",
        "represent_blocked",
        "total_step",
    ),
    "spin_chain": (
        "HamiltonianSum",
        "PauliTerm",
        "apply_site_exponential",
        "build_chain_hamiltonian",
        "build_site_hamiltonian",
        "exp_i_pi",
        "generator_cn",
        "generator_not",
        "sum_product_gap",
        "to_dense",
    ),
    "frt_quantum": (
        "FrtRunReport",
        "FrtStagePlan",
        "run_frt",
        "stage_identity_check",
    ),
    "unitary_compile": (
        "ReckPlan",
        "emit_reck_plan",
        "reck_decompose",
        "reck_reconstruct",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
