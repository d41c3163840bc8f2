"""The three workloads: seeded inputs, oracle references and one pass's checks.

Each workload is built from a seed alone; the program receives only the
generated inputs (arrays, blocks, particles, files).  prepare() computes
the references the checks compare against and is never timed.  units()
lists the pass: (name, function of a PassContext), run in order.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from qsca import frt_quantum, qstate, quantize, sca_core, spin_chain, unitary_compile

import oracle

# Registers of this many qubits or more route to the compiled sparse
# executor of frt_quantum; smaller ones run gate by gate.  The span names
# keep the two size classes apart so a change to either path shows.
COMPILED_QUBITS = 15


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 63, size=n)]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(raw)
    return q


def _symmetric(mat: np.ndarray, tile: int = 256) -> bool:
    """Exact symmetry, compared tile by tile so the transpose stays in cache."""
    n = mat.shape[0]
    return all(np.array_equal(mat[i:i + tile, j:j + tile],
                              mat[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))


class UfOperator:
    """U, its identities, its circuit, the chain step, generators, the mesh,
    and the classical scan of sca_core."""

    name = "uf-operator"
    RADII = (1, 2, 3, 4)          # r >= 5 isometry takes minutes: out of range
    DEMO_RADII = (1, 2, 3, 4, 5)
    CHAIN_SITES = 14
    CHAIN_WORDS = 64
    GAP_SITES = 8
    DENSE_SITES = 12
    MESH_DIMS = (16, 32, 64, 128)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.iso_seeds = dict(zip(self.RADII, _seeds(rng, len(self.RADII))))
        n = self.CHAIN_SITES
        # sites 1..r stay zero so the unbounded scan never writes left of site 1
        self.chain_words = {
            r: [int(w) for w in rng.integers(1, 2 ** (n - r),
                                             size=self.CHAIN_WORDS)]
            for r in (1, 2, 3)}
        self.unitaries = {d: _random_unitary(rng, d) for d in self.MESH_DIMS}
        self.scan = ClassicalScan(_seeds(rng, 1)[0])

    def prepare(self) -> None:
        self.scan.prepare()
        self.window_ref = {r: oracle.window_operator(r) for r in self.RADII}
        self.blocked_ref = {r: oracle.blocked_form(r) for r in self.RADII}
        self.chain_ref = {
            r: [oracle.chain_step_word(r, self.CHAIN_SITES, w) for w in words]
            for r, words in self.chain_words.items()}

    def units(self):
        out = [(f"U r={r}", lambda ctx, r=r: self._window(ctx, r))
               for r in self.RADII]
        out += [(f"superposition r={r}", lambda ctx, r=r: self._demo(ctx, r))
                for r in self.DEMO_RADII]
        out += [(f"chain step r={r}", lambda ctx, r=r: self._chain(ctx, r))
                for r in self.chain_words]
        out += [(f"sum-product {v} r={r}",
                 lambda ctx, r=r, v=v: self._gap(ctx, r, v))
                for v in ("verified", "literal") for r in self.RADII]
        out += [(f"chain Hamiltonian r={r}",
                 lambda ctx, r=r: self._hamiltonian(ctx, r)) for r in (1, 2, 3)]
        out += [(f"mesh n={d}", lambda ctx, d=d: self._mesh(ctx, d))
                for d in self.MESH_DIMS]
        out += [(f"mesh of U circuit r={r}",
                 lambda ctx, r=r: self._mesh_circuit(ctx, r)) for r in (1, 2, 3)]
        return out + self.scan.units()

    def _window(self, ctx, r):
        t_op = ctx.call("quantize.build_uf_matrix", quantize.build_uf_matrix, r)
        ctx.check(f"U r={r} is the window rule",
                  np.array_equal(t_op.matrix, self.window_ref[r]))
        rep = ctx.call(f"quantize.check_partial_isometry.r{r}",
                       quantize.check_partial_isometry, t_op,
                       rng=np.random.default_rng(self.iso_seeds[r]))
        ctx.check(f"partial isometry r={r}", rep.ok
                  and rep.range_residual == 0 and rep.support_residual == 0)
        ctx.output(f"isometry r={r}", (rep.range_residual,
                                       rep.support_residual,
                                       rep.norm_deviation))
        part = ctx.call("quantize.partition_basis", quantize.partition_basis, r)
        blocked = ctx.call("quantize.represent_blocked",
                           quantize.represent_blocked, t_op, part)
        ctx.check(f"block form r={r}",
                  np.array_equal(blocked, self.blocked_ref[r]))
        circuit = ctx.call("quantize.build_uf_circuit",
                           quantize.build_uf_circuit, r, r + 1, 2 * r + 1)
        mat = ctx.call("qstate.circuit_matrix", qstate.circuit_matrix, circuit)
        mat = mat.copy()
        mat[:, 0] = 0
        ctx.check(f"circuit factorization r={r}",
                  np.array_equal(mat, self.window_ref[r]))

    def _demo(self, ctx, r):
        rep = ctx.call("quantize.parallelism_demo", quantize.parallelism_demo, r)
        ctx.check(f"superposition update r={r}",
                  rep.ok and rep.applications == 1
                  and rep.image_count == 2 ** (2 * r + 1) - 1)

    def _chain(self, ctx, r):
        op = ctx.call("quantize.total_step", quantize.total_step,
                      r, self.CHAIN_SITES, "partial_isometry").tocsc()
        got = []
        for w in self.chain_words[r]:
            lo, hi = op.indptr[w], op.indptr[w + 1]
            got.append(int(op.indices[lo]) if hi - lo == 1 else None)
        ctx.check(f"chain step matches the scan r={r}", got == self.chain_ref[r])

    def _gap(self, ctx, r, variant):
        rep = ctx.call("spin_chain.sum_product_gap", spin_chain.sum_product_gap,
                       self.GAP_SITES, r, variant)
        gaps = (rep.sum_vs_product, rep.product_vs_circuit)
        ctx.output(f"sum-product {variant} r={r}", gaps)
        if variant == "verified":
            ctx.check(f"site exponentials reproduce the circuit r={r}",
                      rep.product_vs_circuit <= 1e-9)
        else:
            # literal generators are measured, not asserted: only finite
            ctx.check(f"literal gaps finite r={r}", bool(np.isfinite(gaps).all()))

    def _hamiltonian(self, ctx, r):
        h = ctx.call("spin_chain.build_chain_hamiltonian",
                     spin_chain.build_chain_hamiltonian, self.DENSE_SITES, r)
        local = all(len(t.support) <= 2 and
                    (len(t.support) < 2 or t.support[1] - t.support[0] <= r)
                    for t in h.terms)
        dense = ctx.call("spin_chain.to_dense", spin_chain.to_dense, h)
        ctx.check(f"chain Hamiltonian local and symmetric r={r}",
                  local and _symmetric(dense))

    def _mesh(self, ctx, d):
        u = self.unitaries[d]
        plan = ctx.call(f"unitary_compile.reck_decompose.n{d}",
                        unitary_compile.reck_decompose, u)
        ctx.count("unitary_compile.rotations", len(plan.rotations))
        ctx.check(f"mesh n={d} has n(n-1)/2 rotations",
                  len(plan.rotations) == d * (d - 1) // 2)
        rec = ctx.call(f"unitary_compile.reck_reconstruct.n{d}",
                       unitary_compile.reck_reconstruct, plan)
        ctx.check(f"mesh n={d} reconstructs", np.abs(rec - u).max() <= 1e-9)

    def _mesh_circuit(self, ctx, r):
        circuit = ctx.call("quantize.build_uf_circuit",
                           quantize.build_uf_circuit, r, r + 1, 2 * r + 1)
        u = ctx.call("qstate.circuit_matrix", qstate.circuit_matrix, circuit)
        plan = ctx.call(f"unitary_compile.reck_decompose.u_r{r}",
                        unitary_compile.reck_decompose, u)
        ctx.count("unitary_compile.rotations", len(plan.rotations))
        rec = ctx.call(f"unitary_compile.reck_reconstruct.u_r{r}",
                       unitary_compile.reck_reconstruct, plan)
        ctx.check(f"mesh of U circuit r={r} reconstructs",
                  np.abs(rec - u).max() <= 1e-9)


class BlockPropagation:
    """Stage patterns on both sides of the executor threshold; a long circuit."""

    name = "block-propagation"
    SAMPLED = (3, 2, 100)                      # L, r, sampled instances: 21 qubits
    EXHAUSTIVE = ((3, 2, 1), (2, 3, 1), (4, 1, 3))  # L, r, padding: 12-14 qubits
    CIRCUIT_QUBITS = 20
    CIRCUIT_GATES = 1000

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        (self.sample_seed,) = _seeds(rng, 1)
        n = self.CIRCUIT_QUBITS
        self.gates = []
        for _ in range(self.CIRCUIT_GATES):
            if rng.integers(2):
                self.gates.append(("X", int(rng.integers(1, n + 1)), 0))
            else:
                c = int(rng.integers(1, n + 1))
                t = int(rng.integers(1, n))
                self.gates.append(("CN", c, t + (t >= c)))
        self.circuit = qstate.Circuit(n, tuple(
            qstate.Not(a) if kind == "X" else qstate.Cn(a, b)
            for kind, a, b in self.gates))
        amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        self.state = qstate.StateVector(n, amp / np.linalg.norm(amp))

    def prepare(self) -> None:
        self.dest = oracle.affine_destinations(self.CIRCUIT_QUBITS, self.gates)

    def units(self):
        out = [("stage patterns sampled r=2 L=3", self._sampled)]
        out += [(f"stage patterns exhaustive L={L} r={r} padding={p}",
                 lambda ctx, c=(L, r, p): self._exhaustive(ctx, *c))
                for L, r, p in self.EXHAUSTIVE]
        out.append(("random NOT/CN circuit", self._circuit))
        return out

    @staticmethod
    def _executor(L, r, padding):
        qubits = (L + padding) * (r + 1)
        return "compiled" if qubits >= COMPILED_QUBITS else "gates"

    def _record(self, ctx, label, rep, instances, stages):
        ctx.count("frt_quantum.instances", rep.n_instances)
        ctx.count("frt_quantum.mismatches", rep.mismatches)
        ctx.check(label, rep.ok and rep.mismatches == 0
                  and rep.n_instances == instances
                  and rep.stages_checked == stages)

    def _sampled(self, ctx):
        L, r, samples = self.SAMPLED
        rep = ctx.call(f"frt_quantum.stage_check.{self._executor(L, r, L + 1)}",
                       frt_quantum.stage_identity_check, L, r, samples=samples,
                       rng=np.random.default_rng(self.sample_seed))
        self._record(ctx, f"stage patterns sampled r={r} L={L}", rep,
                     samples, L + 1)

    def _exhaustive(self, ctx, L, r, padding):
        total = oracle.stage_pattern_instances(L, r)
        rep = ctx.call(f"frt_quantum.stage_check.{self._executor(L, r, padding)}",
                       frt_quantum.stage_identity_check, L, r,
                       padding=padding, samples=total)
        self._record(ctx, f"stage patterns exhaustive L={L} r={r}", rep,
                     total, padding)

    def _circuit(self, ctx):
        out = ctx.call("qstate.apply_circuit", qstate.apply_circuit,
                       self.state, self.circuit)
        ctx.count("qstate.apply_circuit.bytes",
                  self.CIRCUIT_GATES * 2 ** self.CIRCUIT_QUBITS * 16 * 2)
        ctx.check("random circuit permutes amplitudes as its GF(2) map",
                  np.array_equal(out.amplitudes[self.dest],
                                 self.state.amplitudes))


class ClassicalScan:
    """The per-site scan: evolutions with diagrams, particle recurrences.

    Part of uf-operator's pass.  Alone it was too noisy to be a workload:
    pure-Python passes on the 2-core test host swing by up to 45% between
    quiet and busy minutes, twice the spread of the other workloads.
    """
    # (r, bits, steps); the r = 2 row is ROADMAP item 1's evolve baseline
    EVOLVE = ((1, 170, 170), (2, 200, 200), (3, 170, 170))
    HELD = 60                # particles per radius that must hold the condition
    # seeded candidates per radius: about 7%, 16% and 28% hold at r = 1, 2, 3
    CANDIDATES = {1: 1600, 2: 800, 3: 500}
    MAX_BLOCKS = 5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.configs = [
            (r, tuple(int(b) for b in rng.integers(0, 2, size=n)), steps)
            for r, n, steps in self.EVOLVE]
        self.particles = {}
        for r, n_cands in self.CANDIDATES.items():
            words = 2 ** (r + 1)
            cands = []
            for _ in range(n_cands):
                L = int(rng.integers(1, self.MAX_BLOCKS + 1))
                ends = rng.integers(1, words, size=2)
                mid = rng.integers(0, words, size=max(L - 2, 0))
                block_words = [int(ends[0]), *map(int, mid)]
                if L > 1:
                    block_words.append(int(ends[1]))
                cands.append(sca_core.Particle(0, tuple(
                    sca_core.BasicString(tuple((x >> (r - i)) & 1
                                               for i in range(r + 1)))
                    for x in block_words)))
            self.particles[r] = cands

    def prepare(self) -> None:
        self.rows_ref = []
        for r, bits, steps in self.configs:
            try:
                rows = oracle.parity_filter_evolve(r, bits, steps)
                self.rows_ref.append((rows, oracle.pbm_text(rows)))
            except oracle.Diverged as err:
                self.rows_ref.append((err.time_index, None))

    def units(self):
        out = [(f"evolve {i + 1} r={r}", lambda ctx, i=i: self._evolve(ctx, i))
               for i, (r, _, _) in enumerate(self.configs)]
        out += [(f"recurrence r={r}", lambda ctx, r=r: self._recurrence(ctx, r))
                for r in self.particles]
        return out

    def _evolve(self, ctx, i):
        r, bits, steps = self.configs[i]
        ref, pbm = self.rows_ref[i]
        label = f"evolve r={r} {len(bits)} bits {steps} steps"
        try:
            rows = ctx.call(f"sca_core.evolve.r{r}", sca_core.evolve,
                            sca_core.Rule(r), sca_core.Configuration(0, bits),
                            steps)
        except sca_core.StepDivergedError as err:
            # the reference diverges at the same step exactly when this is right
            ctx.check(label, pbm is None and err.time_index == ref)
            return
        ctx.count("sca_core.evolve.cells", sum(len(c.bits) for c in rows[1:]))
        ctx.check(label, pbm is not None and
                  [(c.origin, c.bits) for c in rows] == ref)
        text = ctx.call("sca_core.pbm_diagram", sca_core.pbm_diagram, rows)
        ctx.check(f"{label} diagram", text == pbm)

    def _recurrence(self, ctx, r):
        rule = sca_core.Rule(r)
        held = attempts = 0
        bad = None
        for idx, particle in enumerate(self.particles[r]):
            if held == self.HELD:
                break
            attempts += 1
            rep = ctx.call("sca_core.frt_check", sca_core.frt_check,
                           rule, particle)
            if rep.condition_held:
                held += 1
                if not rep.all_matched and bad is None:
                    bad = idx
        ctx.count("sca_core.frt_check.attempts", attempts)
        ctx.count("sca_core.frt_check.held", held)
        ctx.check(f"recurrence r={r}: {self.HELD} particles held the condition",
                  held == self.HELD)
        ctx.check(f"recurrence r={r}: held particles recur on schedule"
                  + ("" if bad is None else f" (candidate {bad} did not)"),
                  bad is None)


class CliCold:
    """Five CLI commands, each in a fresh interpreter, on seeded input files."""

    name = "cli-cold"
    FRT_RADIUS, FRT_BLOCKS, FRT_PADDING = 2, 3, 4      # 21 qubits
    EVOLVE_RADIUS, EVOLVE_BITS, EVOLVE_STEPS = 2, 120, 120
    RECK_DIMENSION = 64
    UF_RADIUS = 4

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng(seed)
        self.root = root
        check_seed, uf_seed, reck_seed = (int(s) for s in
                                          rng.integers(0, 2 ** 31, size=3))
        w = self.FRT_RADIUS + 1
        words = [int(rng.integers(1, 2 ** w))]
        words += [int(x) for x in rng.integers(0, 2 ** w,
                                               size=self.FRT_BLOCKS - 2)]
        words.append(int(rng.integers(1, 2 ** w)))
        self.blocks = [format(x, f"0{w}b") for x in words]
        self.bits = tuple(int(b) for b in rng.integers(
            0, 2, size=self.EVOLVE_BITS))
        blocks_file = workdir / "particle.blocks"
        blocks_file.write_text(" ".join(self.blocks) + "\n")
        config_file = workdir / "row.config"
        config_file.write_text(
            "origin=0\n" + "".join(map(str, self.bits)) + "\n")
        self.commands = {
            "check": ["check", "--seed", str(check_seed)],
            "uf_check": ["uf", "check", "--radius", str(self.UF_RADIUS),
                         "--seed", str(uf_seed)],
            "frt_quantum": ["frt-quantum", "--blocks", str(blocks_file),
                            "--radius", str(self.FRT_RADIUS),
                            "--padding", str(self.FRT_PADDING)],
            "evolve": ["evolve", str(config_file), "--radius",
                       str(self.EVOLVE_RADIUS), "--steps",
                       str(self.EVOLVE_STEPS), "--format", "pbm"],
            "reck": ["reck", "--dimension", str(self.RECK_DIMENSION),
                     "--seed", str(reck_seed)],
        }

    def prepare(self) -> None:
        try:
            pbm = oracle.pbm_text(oracle.parity_filter_evolve(
                self.EVOLVE_RADIUS, self.bits, self.EVOLVE_STEPS))
        except oracle.Diverged:
            pbm = None
        self.expected = {
            "check": self._suite_passed,
            "uf_check": lambda out: ("range residual 0\n" in out
                                     and "support residual 0\n" in out),
            "frt_quantum": lambda out: out == self._frt_text(),
            "evolve": lambda out: out == pbm,
            "reck": self._plan_complete,
        }

    @staticmethod
    def _suite_passed(out: str) -> bool:
        lines = out.splitlines()
        return bool(lines) and re.fullmatch(r"\d+ checks, 0 failed",
                                            lines[-1]) is not None \
            and not any(ln.startswith("FAIL") for ln in lines)

    def _plan_complete(self, out: str) -> bool:
        n = self.RECK_DIMENSION
        lines = out.splitlines()
        return (sum(ln.startswith("R ") for ln in lines) == n * (n - 1) // 2
                and sum(ln.startswith("P ") for ln in lines) == n)

    def _frt_text(self) -> str:
        """The stage listing the paper's closed form predicts."""
        w = self.FRT_RADIUS + 1
        words = [int(b, 2) for b in self.blocks]
        L, p = len(words), self.FRT_PADDING
        ext = [0] + words

        def show(ws):
            return " ".join("O" if x == 0 else format(x, f"0{w}b") for x in ws)

        lines = [f"stage 0: {show(words + [0] * p)}"]
        for m in range(1, p + 1):
            base = ext[m % (L + 1)]
            live = [base ^ ext[(m + j) % (L + 1)] for j in range(1, L + 1)]
            lines.append(f"stage {m}: {show([0] * m + live + [0] * (p - m))}")
        lines.append(f"final translated by {p} blocks: ok")
        return "\n".join(lines) + "\n"

    def units(self):
        return [(f"qsca {key}", lambda ctx, key=key: self._command(ctx, key))
                for key in self.commands]

    def _command(self, ctx, key):
        res = ctx.call(f"cli.{key}", subprocess.run,
                       [sys.executable, "-m", "qsca.cli", *self.commands[key]],
                       cwd=self.root, env=cli_env(self.root),
                       capture_output=True, text=True, timeout=120)
        ctx.count("cli.nonzero_exits", int(res.returncode != 0))
        if key == "reck":
            ctx.count("unitary_compile.rotations", sum(
                ln.startswith("R ") for ln in res.stdout.splitlines()))
        ctx.output(key, hashlib.sha256(res.stdout.encode()).hexdigest())
        ctx.check(f"qsca {key} (exit {res.returncode}) output as expected",
                  res.returncode == 0 and self.expected[key](res.stdout))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def make(name: str, seed: int, root: Path, workdir: Path):
    """Build a workload; cli-cold writes its input files into workdir."""
    if name == CliCold.name:
        return CliCold(seed, root, workdir)
    for cls in (UfOperator, BlockPropagation):
        if cls.name == name:
            return cls(seed)
    raise ValueError(f"unknown workload {name!r}")
