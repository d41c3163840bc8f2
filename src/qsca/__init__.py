"""Quantized soliton cellular automata: simulator and verification lab.

The package splits into a classical layer (parity filter automaton,
particle segmentation, fast-recurrence prediction), a quantum layer
(state vectors and gate kernels, the basis-level transition operator and
its circuit factorization, spin-chain generators, the block propagation
circuit), and a compilation layer (triangular mesh decomposition of
unitaries).
"""

from .errors import (
    DimensionTooLarge,
    NotHermitian,
    NotUnitary,
    NullWordError,
    ParseError,
    QscaError,
    RadiusError,
    StepDivergedError,
)
from .sca_core import (
    BasicString,
    Configuration,
    FrtPrediction,
    FrtReport,
    Particle,
    Rule,
    Window,
    ascii_diagram,
    emit_configuration,
    evolve,
    f_window,
    frt_check,
    frt_predict,
    next_center,
    parse_configuration,
    parse_particles,
    pbm_diagram,
    render_particles,
    step,
)
from .qstate import (
    BlockReset,
    Circuit,
    CollectiveCn,
    Cn,
    Not,
    StateVector,
    apply_circuit,
    basis_state,
    circuit_matrix,
    emit_gatelist,
    parse_gatelist,
    uniform_superposition_nonnull,
)
from .quantize import (
    BasisPartition,
    TransitionOperator,
    WordMap,
    build_uf_circuit,
    build_uf_matrix,
    check_partial_isometry,
    parallelism_demo,
    partition_basis,
    represent_blocked,
    total_step,
)
from .spin_chain import (
    HamiltonianSum,
    PauliTerm,
    apply_site_exponential,
    build_chain_hamiltonian,
    build_site_hamiltonian,
    generator_cn,
    generator_not,
    matrix_exp_hermitian,
    sum_product_gap,
    to_dense,
)
from .frt_quantum import (
    FrtRunReport,
    FrtStagePlan,
    run_frt,
    stage_identity_check,
)
from .unitary_compile import (
    EmbeddedRotation,
    ReckPlan,
    emit_reck_plan,
    parse_reck_plan,
    reck_decompose,
    reck_reconstruct,
)

__version__ = "0.1.0"
