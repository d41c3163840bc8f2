"""Command-line front end.

Subcommands cover the whole laboratory: classical evolution diagrams,
the transition matrix and its identities, gate-list emission, the chain
Hamiltonian, both recurrence checkers, the superposition update, the
unitary mesh decomposition, and an all-in-one verification suite.

Exit codes: 0 all requested checks passed, 1 usage or input errors,
2 domain errors and failed verifications.  All randomized checks draw
from one generator seeded by --seed, so identical invocations produce
byte-identical output.

Each command imports only the modules it runs, so `evolve`,
`frt-classical`, `frt-quantum` and `circuit` never load numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    GENERATOR_VARIANTS,
    MAX_DENSE_DIMENSION,
    MAX_RADIUS,
    RESET_VARIANTS,
    DimensionTooLarge,
    ParseError,
    QscaError,
    parse_int,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _int(value: str) -> int:
    try:
        return parse_int(value)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _radius(value: str) -> int:
    r = _int(value)
    if not 1 <= r <= MAX_RADIUS:
        raise argparse.ArgumentTypeError(f"radius must be in 1..{MAX_RADIUS}")
    return r


def _seed(value: str) -> int:
    seed = _int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read(path: str) -> str:
    return Path(path).read_text()


# -- subcommands ------------------------------------------------------------

def cmd_evolve(args) -> int:
    from . import sca_core
    rule = sca_core.Rule(args.radius)
    config = sca_core.parse_configuration(_read(args.config))
    rows = sca_core.evolve(rule, config, args.steps)
    if args.format == "pbm":
        _write(args.out, sca_core.pbm_diagram(rows))
    else:
        _write(args.out, sca_core.ascii_diagram(rows))
    return 0


def cmd_uf(args) -> int:
    if args.seed is not None and args.action != "check":
        raise _UsageError(f"uf {args.action} takes no --seed")
    import numpy as np

    from . import quantize
    t_op = quantize.build_uf_matrix(args.radius)
    if args.action == "export":
        _write(args.out, quantize.emit_matrix_triplets(t_op))
        return 0
    if args.action == "check":
        report = quantize.check_partial_isometry(
            t_op, rng=np.random.default_rng(args.seed or 0))
        text = ("range residual {}\nsupport residual {}\n"
                "norm deviation {:.3e}\n".format(
                    report.range_residual, report.support_residual,
                    report.norm_deviation))
        mismatch = _circuit_mismatch(args.radius, t_op.image)
        if mismatch is not None:
            text += ("circuit factorization MISMATCH at word {}: "
                     "U image {}, circuit image {}\n".format(*mismatch))
        _write(args.out, text)
        return 0 if report.ok and mismatch is None else 2
    # blockform: the verdict on words, the dense matrix for the CSV only
    quantize.check_csv_dimension(t_op.dimension)
    partition = quantize.partition_basis(args.radius)
    k = len(partition.invariant_words)
    ok = quantize.block_form_ok(t_op, partition)
    text = "invariant {} flipped {}\n".format(k, t_op.dimension - k)
    text += quantize.emit_matrix_csv(
        quantize.represent_blocked(t_op, partition))
    text += "blockform {}\n".format("ok" if ok else "MISMATCH")
    _write(args.out, text)
    return 0 if ok else 2


def _circuit_mismatch(r: int, image) -> tuple[int, int, int] | None:
    """The first nonzero word x on which U, given by its image array,
    and the NOT/CN circuit of the window rule disagree, as (x, U's image,
    the circuit's image); None when they agree on every nonzero word."""
    import numpy as np

    from . import gates
    n = 2 * r + 1
    circuit = gates.build_uf_circuit(r, r + 1, n)
    words = np.arange(1, 2 ** n)
    want = gates.word_image(n, circuit.ops, words)
    bad = np.flatnonzero(image[1:] != want)
    if not bad.size:
        return None
    k = bad[0]
    return int(words[k]), int(image[k + 1]), int(want[k])


def cmd_circuit(args) -> int:
    from . import gates
    if args.total is not None:
        if args.site is not None or args.n_qubits is not None:
            raise _UsageError("--total excludes --site and --n-qubits")
        circuit = gates.chain_circuit(args.radius, args.total)
    else:
        if args.site is None or args.n_qubits is None:
            raise _UsageError("need --site and --n-qubits, or --total")
        circuit = gates.build_uf_circuit(args.radius, args.site,
                                         args.n_qubits)
    _write(args.out, gates.emit_gatelist(circuit))
    return 0


def cmd_hamiltonian(args) -> int:
    from . import spin_chain
    h = spin_chain.build_chain_hamiltonian(args.n_sites, args.radius,
                                           args.variant)
    _write(args.out, spin_chain.emit_hamiltonian_terms(h))
    return 0


def cmd_frt_classical(args) -> int:
    from . import sca_core
    rule = sca_core.Rule(args.radius)
    config = sca_core.parse_configuration(_read(args.config))
    particles = sca_core.parse_particles(rule, config)
    if not particles:
        _write(args.out, "no particles\n")
        return 0
    lines = []
    all_ok = True
    for idx, particle in enumerate(particles, start=1):
        report = sca_core.frt_check(rule, particle, horizon=args.horizon)
        pred = report.prediction
        lines.append("particle {} at {} blocks {}".format(
            idx, particle.start_site,
            " ".join(str(b) for b in particle.blocks)))
        lines.append("  ones {}  times {}  period {}".format(
            " ".join(str(l) for l in pred.l_counts),
            " ".join(str(t) for t in pred.return_times), pred.period))
        lines.append("  condition {}".format(
            "held" if report.condition_held else
            f"failed at step {report.failed_at}"))
        for chk in report.checks:
            if chk.matched is None:
                lines.append(f"  t={chk.time} pattern {chk.pattern_index}: "
                             "not applicable")
            else:
                lines.append("  t={} pattern {}: {}{}".format(
                    chk.time, chk.pattern_index,
                    "match" if chk.matched else "MISMATCH",
                    f" shift {chk.shift}" if chk.matched else ""))
        if report.condition_held and not report.all_matched:
            all_ok = False
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 2


def _parse_blocks(text: str, width: int) -> list[str]:
    """The blocks of the text as width binary digits each, `O` as zeros."""
    blocks = ["0" * width if token == "O" else token
              for token in text.split()]
    for token in blocks:
        if set(token) - {"0", "1"} or len(token) != width:
            raise ParseError(
                f"block {token!r} is not {width} binary digits")
    if not blocks:
        raise ParseError("no blocks given")
    return blocks


def cmd_frt_quantum(args) -> int:
    from . import frt_quantum
    blocks = _parse_blocks(_read(args.blocks), args.radius + 1)
    report = frt_quantum.run_frt(blocks, args.padding,
                                 reset_variant=args.variant)
    _write(args.out, frt_quantum.emit_frt_report(report))
    return 0 if report.final_ok else 2


def cmd_parallelism(args) -> int:
    from . import quantize
    report = quantize.parallelism_demo(args.radius)
    _write(args.out,
           "applications {}\nimage words {}\namplitude {:.17g}\n"
           "max deviation {:.3e}\nnorm deviation {:.3e}\n".format(
               report.applications, report.image_count,
               report.expected_amplitude, report.max_deviation,
               abs(report.norm - 1.0)))
    return 0 if report.ok else 2


def cmd_reck(args) -> int:
    if args.radius is None and args.dimension is None:
        raise _UsageError("reck needs --radius or --dimension")
    if args.radius is not None and args.dimension is not None:
        raise _UsageError("reck takes --radius or --dimension, not both")
    if args.radius is not None and args.seed is not None:
        raise _UsageError("reck --radius takes no --seed")
    import numpy as np

    from . import unitary_compile
    if args.dimension is not None and args.dimension < 1:
        raise _UsageError("--dimension must be at least 1")
    # the window circuit of radius r acts on 2r + 1 qubits
    modes = args.dimension if args.dimension is not None \
        else 2 ** (2 * args.radius + 1)
    if modes > MAX_DENSE_DIMENSION:
        raise DimensionTooLarge(
            f"{modes} modes exceeds the mesh limit of {MAX_DENSE_DIMENSION}")
    if args.dimension is not None:
        target = _haar(np.random.default_rng(args.seed or 0), args.dimension)
    else:
        from . import gates, qstate
        circuit = gates.build_uf_circuit(
            args.radius, args.radius + 1, 2 * args.radius + 1)
        target = qstate.circuit_matrix(circuit)
    plan = unitary_compile.reck_decompose(target)
    error = float(np.abs(unitary_compile.reck_reconstruct(plan) - target).max())
    _write(args.out, unitary_compile.emit_reck_plan(plan))
    return 0 if error <= 1e-9 else 2


def _haar(rng, dim: int):
    """A seeded random dim x dim unitary: the Q factor of a complex
    Gaussian matrix."""
    import numpy as np
    raw = rng.standard_normal((dim, dim)) \
        + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(raw)[0]


def cmd_check(args) -> int:
    import numpy as np

    from . import (frt_quantum, gates, qstate, quantize, sca_core,
                   spin_chain, unitary_compile)
    rng = np.random.default_rng(args.seed)
    lines = []

    def record(name: str, ok: bool, detail: str = ""):
        suffix = f"  {detail}" if detail else ""
        lines.append("{} {}{}".format("ok  " if ok else "FAIL", name, suffix))

    # window map bijectivity, on int words: the new center is 1 when a
    # nonzero window holds an even number of ones; the word with only
    # its center set is the one left out
    for r in (1, 2, 3):
        center, dim = 1 << r, 2 ** (2 * r + 1)
        images = {x & ~center | (x.bit_count() % 2 == 0) << r
                  for x in range(1, dim)}
        record(f"window map bijective r={r}",
               len(images) == dim - 1 and center not in images)

    # isometry identities
    for r in (1, 2, 3):
        report = quantize.check_partial_isometry(
            quantize.build_uf_matrix(r), rng=rng)
        record(f"partial isometry r={r}", report.ok,
               f"residuals {report.range_residual} {report.support_residual}")

    # block form, on the image words
    for r in (1, 2):
        record(f"block form r={r}", quantize.block_form_ok(
            quantize.build_uf_matrix(r), quantize.partition_basis(r)))

    # circuit factorization: the NOT/CN circuit agrees with U on every
    # nonzero word
    for r in (1, 2, 3):
        record(f"circuit factorization r={r}", _circuit_mismatch(
            r, quantize.build_uf_matrix(r).image) is None)

    # totalized chain step against the classical scan, on every word
    # with sites 1..r zero: the new row then lies within sites 1..n, so
    # its word shifted to end at site n is the image (0 for the empty row)
    rule, n = sca_core.Rule(2), 11
    rows = (sca_core.step(rule, sca_core.Configuration(1, format(w, f"0{n}b")))
            for w in range(2 ** (n - 2)))
    record("chain step matches classical scan r=2",
           [t.word << n - t.end for t in rows]
           == quantize.total_step(2, n, "partial_isometry").image[
               :2 ** (n - 2)].tolist())

    # generators: exp(i pi G) against the gate
    def exponentiates_to(generator, variant: str, gate) -> bool:
        exp = spin_chain.exp_i_pi(generator(variant))
        return np.abs(exp - gate).max() <= 1e-10

    x_gate, cn_gate = np.eye(2)[::-1], np.eye(4)[[0, 1, 3, 2]]
    record("verified generators reproduce gates",
           exponentiates_to(spin_chain.generator_not, "verified", x_gate)
           and exponentiates_to(spin_chain.generator_cn, "verified", cn_gate))
    record("literal CN generator exponentiates to identity",
           exponentiates_to(spin_chain.generator_cn, "literal", np.eye(4)))

    # chain Hamiltonian hermiticity
    h = spin_chain.to_dense(spin_chain.build_chain_hamiltonian(8, 2))
    record("chain Hamiltonian Hermitian n=8 r=2",
           np.abs(h - h.T).max() == 0.0)

    # quantum recurrence circuit
    rep = frt_quantum.stage_identity_check(2, 1, samples=9)
    record("block propagation exhaustive r=1 L=2", rep.ok)
    rep = frt_quantum.stage_identity_check(3, 2, samples=5, rng=rng)
    record("block propagation sampled r=2 L=3", rep.ok)

    # classical recurrence on random particles
    passed = matched = attempts = 0
    while passed < 10 and attempts < 400:
        attempts += 1
        L = int(rng.integers(1, 4))
        words = [int(rng.integers(1, 8))]
        for _ in range(L - 2):
            words.append(int(rng.integers(0, 8)))
        if L > 1:
            words.append(int(rng.integers(1, 8)))
        particle = sca_core.Particle(0, tuple(
            sca_core.BasicString(format(x, "03b")) for x in words))
        report = sca_core.frt_check(rule, particle)
        if report.condition_held:
            passed += 1
            if report.all_matched:
                matched += 1
    record("classical recurrence on sampled particles",
           passed > 0 and matched == passed,
           f"{matched}/{passed} detector passes matched")

    # superposition update
    record("one-shot superposition update r=2",
           quantize.parallelism_demo(2).ok)

    # mesh decomposition round trips: random unitaries, the r=1 circuit
    targets = [_haar(rng, dim) for dim in (2, 4, 8)]
    targets.append(qstate.circuit_matrix(gates.build_uf_circuit(1, 2, 3)))
    record("mesh decomposition round trip", all(
        np.abs(unitary_compile.reck_reconstruct(
            unitary_compile.reck_decompose(t)) - t).max() <= 1e-9
        for t in targets))

    failures = sum(line.startswith("FAIL") for line in lines)
    lines.append("{} checks, {} failed".format(len(lines), failures))
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 2


# -- parser -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qsca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evolve a configuration, write diagram")
    p.add_argument("config", help="configuration file (origin= line, then bits)")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--steps", type=_int, required=True)
    p.add_argument("--format", choices=("ascii", "pbm"), default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("uf", help="transition matrix exports and checks")
    p.add_argument("action", choices=("export", "check", "blockform"))
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--seed", type=_seed, help="uf check only; default 0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_uf)

    p = sub.add_parser("circuit", help="emit gate lists")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--site", type=_int)
    p.add_argument("--n-qubits", type=_int)
    p.add_argument("--total", type=_int, metavar="N_SITES",
                   help="whole-chain step over N_SITES cells")
    p.add_argument("--out")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("hamiltonian", help="emit chain Hamiltonian terms")
    p.add_argument("--n-sites", type=_int, required=True)
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--variant", choices=GENERATOR_VARIANTS,
                   default="verified")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("frt-classical",
                       help="recurrence prediction and simulation check")
    p.add_argument("config")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--horizon", type=_int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_frt_classical)

    p = sub.add_parser("frt-quantum", help="run the block propagation circuit")
    p.add_argument("--blocks", required=True,
                   help="file of whitespace-separated blocks (O for null)")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--padding", type=_int, required=True)
    p.add_argument("--variant", choices=RESET_VARIANTS,
                   default="extended")
    p.add_argument("--out")
    p.set_defaults(func=cmd_frt_quantum)

    p = sub.add_parser("parallelism", help="one-shot superposition update")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_parallelism)

    p = sub.add_parser("reck", help="decompose a unitary into a mesh plan")
    p.add_argument("--radius", type=_radius,
                   help="decompose the window-update circuit at this radius")
    p.add_argument("--dimension", type=_int,
                   help="decompose a seeded random unitary instead")
    p.add_argument("--seed", type=_seed, help="--dimension only; default 0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reck)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except QscaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
