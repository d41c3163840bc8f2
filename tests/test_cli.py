import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsca import (frt_quantum, gates, qstate, quantize, sca_core,
                  unitary_compile)
from qsca.cli import _parse_blocks, build_parser, main
from qsca.errors import ParseError
from qsca.sca_core import frt_pattern


@pytest.fixture
def config(tmp_path):
    def write(text, name="config.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- evolve -----------------------------------------------------------------

def test_evolve_ascii(capsys, config):
    code, out, _ = run(capsys, "evolve", config("origin=0\n111\n"),
                       "--radius", "1", "--steps", "2")
    assert code == 0
    assert out == "###\n#..\n...\n"


def test_evolve_pbm(capsys, config):
    code, out, _ = run(capsys, "evolve", config("origin=0\n111\n"),
                       "--radius", "1", "--steps", "2", "--format", "pbm")
    assert code == 0
    assert out == "P1\n3 3\n1 1 1\n1 0 0\n0 0 0\n"


def test_evolve_out_file(capsys, config, tmp_path):
    target = tmp_path / "diagram.txt"
    code, out, _ = run(capsys, "evolve", config("origin=0\n111\n"),
                       "--radius", "1", "--steps", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "###\n#..\n"


def test_evolve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "evolve", str(tmp_path / "absent.txt"),
                       "--radius", "1", "--steps", "1")
    assert code == 1 and "error:" in err


def test_evolve_bad_radius(capsys, config):
    code, _, err = run(capsys, "evolve", config("origin=0\n1\n"),
                       "--radius", "9", "--steps", "1")
    assert code == 1 and "radius" in err


def test_evolve_scan_limit_is_usage_error(capsys, config):
    # a step scans a fixed range, so there is no scan bound to set
    code, out, err = run(capsys, "evolve", config("origin=0\n111\n"),
                         "--radius", "1", "--steps", "1", "--scan-limit", "1")
    assert code == 1 and out == ""
    assert "error:" in err and "--scan-limit" in err
    assert "Traceback" not in err


def test_bad_config_text(capsys, config):
    code, _, err = run(capsys, "evolve", config("origin=0\n10x1\n"),
                       "--radius", "1", "--steps", "1")
    assert code == 1 and "error:" in err


# -- uf ---------------------------------------------------------------------

def test_uf_export(capsys):
    code, out, _ = run(capsys, "uf", "export", "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.split()[2] == "1" for line in lines)


def test_uf_export_matches_dense_nonzeros(capsys):
    # the triplets come from the word map; the dense U is the oracle
    for r in range(1, 7):
        code, out, _ = run(capsys, "uf", "export", "--radius", str(r))
        rows, cols = np.nonzero(quantize.build_uf_matrix(r).matrix)
        want = "".join(f"{i + 1} {j + 1} 1\n" for i, j in zip(rows, cols))
        assert code == 0 and out == want


def test_uf_check(capsys):
    code, out, _ = run(capsys, "uf", "check", "--radius", "2")
    assert code == 0
    assert "range residual 0\n" in out
    assert "support residual 0\n" in out


@pytest.fixture
def swapped_images(monkeypatch):
    """build_uf_matrix with the images of words 0 and 1 swapped: the
    null word gets an image and word 1 loses its own."""
    build = quantize.build_uf_matrix

    def swapped(r):
        image = build(r).image.copy()
        image[[0, 1]] = image[[1, 0]]
        return quantize.TransitionOperator(r, image)
    monkeypatch.setattr(quantize, "build_uf_matrix", swapped)


def test_uf_check_fails_on_swapped_images(capsys, swapped_images):
    code, out, _ = run(capsys, "uf", "check", "--radius", "2")
    assert code == 2
    assert out.startswith("range residual 0\nsupport residual 1\n")


def test_uf_check_judges_the_window_rule(capsys, monkeypatch):
    # swapping the images of words 1 and 2 keeps U a partial isometry,
    # so only the comparison with the NOT/CN circuit fails; f(1) = 1 and
    # f(2) = 2 at r = 2, each word's one 1 is off the center
    build = quantize.build_uf_matrix

    def swapped(r):
        image = build(r).image.copy()
        image[[1, 2]] = image[[2, 1]]
        return quantize.TransitionOperator(r, image)
    monkeypatch.setattr(quantize, "build_uf_matrix", swapped)
    golden = Path(__file__).parent / "golden" / "out" / "uf_check_r2.out"
    assert run(capsys, "uf", "check", "--radius", "2") == (
        2, golden.read_text() + "circuit factorization MISMATCH at word 1: "
        "U image 2, circuit image 1\n", "")


def test_uf_check_radius_limit(capsys):
    code, out, _ = run(capsys, "uf", "check", "--radius", "6")
    assert code == 0
    assert "range residual 0\n" in out
    assert "support residual 0\n" in out


def test_uf_blockform(capsys):
    code, out, _ = run(capsys, "uf", "blockform", "--radius", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "invariant 4 flipped 4"
    assert lines[-1] == "blockform ok"
    assert len(lines) == 10  # header + 8 matrix rows + verdict


@pytest.mark.parametrize("action", ["export", "blockform"])
def test_uf_seed_is_for_check_only(capsys, action):
    # export and blockform draw nothing, so a seed there is a usage error
    assert run(capsys, "uf", action, "--radius", "1", "--seed", "0") == (
        1, "", f"error: uf {action} takes no --seed\n")
    # ... and check without --seed draws as with --seed 0
    assert run(capsys, "uf", "check", "--radius", "3") \
        == run(capsys, "uf", "check", "--radius", "3", "--seed", "0")


def test_reck_seed_is_for_dimension_only(capsys):
    # the window circuit draws nothing, so a seed there is a usage error
    for seed in ("0", "5"):
        assert run(capsys, "reck", "--radius", "1", "--seed", seed) == (
            1, "", "error: reck --radius takes no --seed\n")
    # ... and --dimension without --seed draws as with --seed 0
    assert run(capsys, "reck", "--dimension", "8") \
        == run(capsys, "reck", "--dimension", "8", "--seed", "0")
    assert run(capsys, "reck", "--dimension", "8") \
        != run(capsys, "reck", "--dimension", "8", "--seed", "1")


def test_uf_blockform_refuses_csv_before_building(capsys, monkeypatch):
    def not_built(*args):
        raise AssertionError("the blocked matrix was built")
    monkeypatch.setattr(quantize, "partition_basis", not_built)
    monkeypatch.setattr(quantize, "represent_blocked", not_built)
    code, out, err = run(capsys, "uf", "blockform", "--radius", "6")
    assert code == 2 and out == ""
    assert err == "error: CSV export supports dimensions up to 4096\n"


# -- circuit and hamiltonian ------------------------------------------------

def test_circuit_site(capsys):
    code, out, _ = run(capsys, "circuit", "--radius", "1",
                       "--site", "2", "--n-qubits", "3")
    assert code == 0
    assert out == "CN 1 2\nCN 3 2\nX 2\n"


def test_circuit_total(capsys):
    code, out, _ = run(capsys, "circuit", "--radius", "1", "--total", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["CN 2 1", "X 1", "CN 1 2", "X 2"]


def test_circuit_needs_site_or_total(capsys):
    code, _, err = run(capsys, "circuit", "--radius", "1")
    assert code == 1 and "site" in err


def test_hamiltonian(capsys):
    code, out, _ = run(capsys, "hamiltonian", "--n-sites", "1",
                       "--radius", "1", "--variant", "literal")
    assert code == 0
    assert out == "0.5 1:X\n0.5 1:Z\n"


# -- recurrence checkers ----------------------------------------------------

def test_frt_classical(capsys, config):
    code, out, _ = run(capsys, "frt-classical", config("origin=0\n110\n"),
                       "--radius", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "particle 1 at 0 blocks 110"
    assert lines[2] == "  condition held"
    assert all("match" in line and "MISMATCH" not in line
               for line in lines[3:])


def test_frt_classical_golden(capsys, config):
    # particle 1 matches pattern 1 (010 111) off its grid, shifted by -4;
    # particle 2 splits at step 2, so every check from t=2 on is not
    # applicable
    code, out, _ = run(capsys, "frt-classical",
                       config("origin=0\n101010000000110110\n"),
                       "--radius", "2")
    assert code == 0
    assert out == (
        "particle 1 at 0 blocks 101 010\n"
        "  ones 2 3 1  times 2 5 6  period 6\n"
        "  condition held\n"
        "  t=2 pattern 0: match shift -1\n"
        "  t=5 pattern 1: match shift -4\n"
        "  t=6 pattern 2: match shift -3\n"
        "particle 2 at 12 blocks 110 110\n"
        "  ones 2 0 2  times 2 2 4  period 4\n"
        "  condition failed at step 2\n"
        "  t=2 pattern 0: not applicable\n"
        "  t=2 pattern 1: not applicable\n"
        "  t=4 pattern 2: not applicable\n")


def test_frt_classical_fails_on_a_wrong_prediction(capsys, config,
                                                  monkeypatch):
    # a held particle whose predicted return pattern is off by one bit
    def shifted(word, k, L, w):
        return frt_pattern(word, k, L, w) ^ 1
    monkeypatch.setattr(sca_core, "frt_pattern", shifted)
    code, out, _ = run(capsys, "frt-classical", config("origin=0\n110\n"),
                       "--radius", "2")
    assert code == 2
    assert "  condition held\n  t=2 pattern 0: MISMATCH\n" in out


def test_frt_classical_empty(capsys, config):
    code, out, _ = run(capsys, "frt-classical", config("origin=0\n000\n"),
                       "--radius", "1")
    assert code == 0 and out == "no particles\n"


def test_frt_quantum_full_return(capsys, config):
    code, out, _ = run(capsys, "frt-quantum",
                       "--blocks", config("11 01\n"),
                       "--radius", "1", "--padding", "3")
    assert code == 0
    assert out.endswith("final translated by 3 blocks: ok\n")


def test_frt_quantum_partial_return(capsys, config):
    code, out, _ = run(capsys, "frt-quantum",
                       "--blocks", config("11 01\n"),
                       "--radius", "1", "--padding", "2")
    assert code == 2
    assert out.endswith("final translated by 2 blocks: MISMATCH\n")


def test_frt_quantum_literal_annihilation(capsys, config):
    code, out, _ = run(capsys, "frt-quantum",
                       "--blocks", config("11 11\n"),
                       "--radius", "1", "--padding", "2",
                       "--variant", "literal")
    assert code == 2
    assert "(not a basis state)" in out


def test_frt_quantum_fails_on_a_dropped_bit(capsys, config, monkeypatch):
    # every stage drops the register's last bit, which is clear until
    # the particle lands in the last block
    word_image = frt_quantum.word_image
    monkeypatch.setattr(frt_quantum, "word_image",
                        lambda n, ops, x: word_image(n, ops, x) & ~1)
    code, out, _ = run(capsys, "frt-quantum",
                       "--blocks", config("11 01\n"),
                       "--radius", "1", "--padding", "3")
    assert code == 2
    assert out.endswith("stage 3: O O O 11 O\n"
                        "final translated by 3 blocks: MISMATCH\n")


def test_frt_quantum_bad_block(capsys, config):
    code, _, err = run(capsys, "frt-quantum",
                       "--blocks", config("12\n"),
                       "--radius", "1", "--padding", "1")
    assert code == 1 and "error:" in err


def test_frt_quantum_thirty_qubits(capsys, config):
    # 15 blocks of 2 qubits: tracked as an index, no state vector
    code, out, _ = run(capsys, "frt-quantum",
                       "--blocks", config("11\n"),
                       "--radius", "1", "--padding", "14")
    assert code == 0
    assert out.startswith("stage 0: 11" + " O" * 14 + "\n")
    assert out.endswith("stage 14:" + " O" * 14 + " 11\n"
                        "final translated by 14 blocks: ok\n")


def test_frt_quantum_register_too_large(capsys, config):
    code, out, err = run(capsys, "frt-quantum",
                         "--blocks", config("11\n"),
                         "--radius", "1", "--padding", "40")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# -- parallelism, reck, check -----------------------------------------------

def test_parallelism(capsys):
    code, out, _ = run(capsys, "parallelism", "--radius", "2")
    assert code == 0
    assert "image words 31\n" in out
    assert f"amplitude {1 / np.sqrt(31):.17g}\n" in out


def test_parallelism_fails_on_swapped_images(capsys, swapped_images):
    # word 1's amplitude is lost, and the null word's zero takes its place
    code, out, _ = run(capsys, "parallelism", "--radius", "2")
    assert code == 2
    assert "image words 30\n" in out and "max deviation 1.796e-01\n" in out


@pytest.mark.parametrize("r", range(1, 7))
def test_parallelism_builds_no_state_vector(capsys, monkeypatch, r):
    # psi is a plain amplitude array handed to U.apply: no StateVector is
    # made, and the output is the recorded one
    def not_built(*args):
        raise AssertionError("a StateVector was built")
    monkeypatch.setattr(qstate.StateVector, "_owning", classmethod(not_built))
    monkeypatch.setattr(qstate.StateVector, "__init__", not_built)
    golden = Path(__file__).parent / "golden" / "out" / f"parallelism_r{r}.out"
    assert run(capsys, "parallelism", "--radius", str(r)) \
        == (0, golden.read_text(), "")


def plan_line_counts(out):
    """(R lines, P lines, all lines) of an emitted reck plan."""
    kinds = [line.split()[0] for line in out.splitlines()]
    return kinds.count("R"), kinds.count("P"), len(kinds)


def test_reck_random(capsys):
    code, out, _ = run(capsys, "reck", "--dimension", "4")
    assert code == 0
    # a dense unitary needs all 4 * 3 / 2 rotations, then 4 phases
    assert plan_line_counts(out) == (6, 4, 10)


def test_reck_circuit(capsys):
    code, out, _ = run(capsys, "reck", "--radius", "1")
    assert code == 0
    # the 8 x 8 window circuit is a permutation: two swaps, 8 phases
    assert plan_line_counts(out) == (2, 8, 10)


@pytest.mark.parametrize("dimension, drawn", [
    (4096, True), (4097, False), (1000000, False)])
def test_reck_dimension_limit(capsys, monkeypatch, dimension, drawn):
    # the rng is replaced, so no matrix of either size is drawn
    class Drawn(Exception):
        pass

    def no_draw(seed):
        raise Drawn
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    if drawn:
        with pytest.raises(Drawn):
            main(["reck", "--dimension", str(dimension)])
        return
    code, out, err = run(capsys, "reck", "--dimension", str(dimension))
    assert code == 2 and out == ""
    assert err == (f"error: {dimension} modes exceeds the mesh limit "
                   "of 4096\n")


@pytest.mark.parametrize("radius, built", [(5, True), (6, False)])
def test_reck_radius_limit(capsys, monkeypatch, radius, built):
    # circuit_matrix is replaced, so no matrix of either size is built
    class Built(Exception):
        pass

    def no_build(circuit):
        raise Built
    monkeypatch.setattr(qstate, "circuit_matrix", no_build)
    if built:
        with pytest.raises(Built):
            main(["reck", "--radius", str(radius)])
        return
    code, out, err = run(capsys, "reck", "--radius", str(radius))
    assert code == 2 and out == ""
    assert err == "error: 8192 modes exceeds the mesh limit of 4096\n"


def test_reck_fails_on_a_perturbed_reconstruction(capsys, monkeypatch):
    # the plan is written either way; the exit code carries the verdict
    _, plan, _ = run(capsys, "reck", "--radius", "1")
    reconstruct = unitary_compile.reck_reconstruct
    monkeypatch.setattr(unitary_compile, "reck_reconstruct",
                        lambda plan: reconstruct(plan) + 1e-6)
    assert run(capsys, "reck", "--radius", "1") == (2, plan, "")


def test_reck_needs_target(capsys):
    code, _, err = run(capsys, "reck")
    assert code == 1 and "reck" in err


CHECK_SEED0 = """\
ok   window map bijective r=1
ok   window map bijective r=2
ok   window map bijective r=3
ok   partial isometry r=1  residuals 0 0
ok   partial isometry r=2  residuals 0 0
ok   partial isometry r=3  residuals 0 0
ok   block form r=1
ok   block form r=2
ok   circuit factorization r=1
ok   circuit factorization r=2
ok   circuit factorization r=3
ok   chain step matches classical scan r=2
ok   verified generators reproduce gates
ok   literal CN generator exponentiates to identity
ok   chain Hamiltonian Hermitian n=8 r=2
ok   block propagation exhaustive r=1 L=2
ok   block propagation sampled r=2 L=3
ok   classical recurrence on sampled particles  10/10 detector passes matched
ok   one-shot superposition update r=2
ok   mesh decomposition round trip
20 checks, 0 failed
"""


def test_check_suite(capsys):
    # the default seed is 0
    assert run(capsys, "check") == (0, CHECK_SEED0, "")


def test_check_builds_no_dense_u(capsys, monkeypatch):
    # the verdicts come from word images: no dense U, no blocked matrix,
    # and a dense circuit only as the r=1 mesh target
    def not_built(*args):
        raise AssertionError("a dense matrix was built")
    monkeypatch.setattr(quantize.WordMap, "matrix", property(not_built))
    monkeypatch.setattr(quantize, "represent_blocked", not_built)
    dense_circuits = []
    circuit_matrix = qstate.circuit_matrix

    def recorded(circuit):
        dense_circuits.append(circuit.n_qubits)
        return circuit_matrix(circuit)
    monkeypatch.setattr(qstate, "circuit_matrix", recorded)
    assert run(capsys, "check", "--seed", "0") == (0, CHECK_SEED0, "")
    assert dense_circuits == [3]


def test_check_fails_on_a_dropped_bit(capsys, monkeypatch):
    # the word kernel drops every image's last bit where check calls it;
    # frt_quantum holds its own reference, loaded before the patch
    word_image = gates.word_image
    monkeypatch.setattr(gates, "word_image",
                        lambda n, ops, x: word_image(n, ops, x) & ~1)
    failed = CHECK_SEED0.replace("20 checks, 0 failed", "20 checks, 3 failed")
    for r in (1, 2, 3):
        failed = failed.replace(f"ok   circuit factorization r={r}",
                                f"FAIL circuit factorization r={r}")
    assert run(capsys, "check", "--seed", "0") == (2, failed, "")


def test_check_deterministic(capsys):
    _, first, _ = run(capsys, "check", "--seed", "3")
    _, second, _ = run(capsys, "check", "--seed", "3")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("frt-quantum", "--blocks", "O 11", "--radius", "1", "--padding", "2"),
    ("frt-quantum", "--blocks", "11 01", "--radius", "1", "--padding", "0"),
    ("evolve", "origin=0\n111\n", "--radius", "1", "--steps", "-1"),
    ("circuit", "--radius", "1", "--site", "5", "--n-qubits", "3"),
    ("frt-classical", "origin=0\n110\n", "--radius", "2", "--horizon", "0"),
    ("reck", "--dimension", "0"),
    ("hamiltonian", "--n-sites", "0", "--radius", "1"),
    ("circuit", "--radius", "1", "--total", "0"),
])
def test_out_of_range_arguments_report_errors(capsys, config, argv):
    # file arguments (blocks, configurations) are given by their text
    argv = list(argv)
    if argv[0] in ("evolve", "frt-classical"):
        argv[1] = config(argv[1])
    if "--blocks" in argv:
        at = argv.index("--blocks") + 1
        argv[at] = config(argv[at] + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(list("01O2x \n\t")), max_size=30),
       width=st.integers(1, 4))
def test_parse_blocks_raises_only_parse_error(text, width):
    try:
        blocks = _parse_blocks(text, width)
    except ParseError:
        return
    # the validated digit strings, `O` as zeros
    assert blocks == ["0" * width if token == "O" else token
                      for token in text.split()]
    assert all(type(b) is str and len(b) == width and set(b) <= {"0", "1"}
               for b in blocks)


@pytest.mark.parametrize("argv, text, where", [
    (("evolve", "--radius", "1", "--steps", "1"), "origin=0\n101\n111\n",
     "line 3"),
    (("frt-classical", "--radius", "1"), "\n\norigin=x\n1\n", "line 3"),
    (("frt-quantum", "--radius", "1", "--padding", "1"), "11 1x\n", "'1x'"),
])
def test_parse_errors_exit_1_without_traceback(capsys, config, argv, text,
                                               where):
    # one input file per parser the command line reads
    path = config(text)
    command, *rest = argv
    files = ["--blocks", path] if command == "frt-quantum" else [path]
    code, out, err = run(capsys, command, *files, *rest)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err


def test_unknown_command(capsys):
    code, _, err = run(capsys, "fold")
    assert code == 1 and "error:" in err


def test_module_run_exits_with_the_command_code(fresh_module, config):
    # `python -m qsca.cli`, the way the benchmark starts each command,
    # exits with main's code: 0 passed, 1 usage error, 2 failed check
    golden = Path(__file__).parent / "golden" / "out" / "circuit_total.out"
    res = fresh_module("qsca.cli", "circuit", "--radius", "1", "--total", "7")
    assert (res.returncode, res.stdout, res.stderr) == (
        0, golden.read_text(), "")
    res = fresh_module("qsca.cli", "fold")
    assert res.returncode == 1 and res.stderr.startswith("error:")
    res = fresh_module("qsca.cli", "frt-quantum", "--blocks",
                       config("11 11\n"), "--radius", "1", "--padding", "2",
                       "--variant", "literal")
    assert res.returncode == 2 and "(not a basis state)" in res.stdout


# A fresh interpreter runs one command and prints its exit code, the
# modules it loaded (numpy, scipy and qsca's submodules), and which of
# dataclasses and inspect were loaded after `import qsca.cli` and after
# the command.
PROBE = ("import contextlib, io, json, sys, qsca.cli\n"
         "def stdlib():\n"
         "    return [m for m in ('dataclasses', 'inspect')\n"
         "            if m in sys.modules]\n"
         "bare = stdlib()\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = qsca.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
         "print(json.dumps([code, sorted(\n"
         "    m for m in sys.modules\n"
         "    if m in ('numpy', 'scipy') or m.startswith('qsca.')),\n"
         "    bare, stdlib()]))\n")


def probe(fresh_python, *argv):
    res = fresh_python(PROBE, *argv)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_cli_import_leaves_scipy_unloaded(fresh_python):
    # the import alone, and the two commands that once built a sparse
    # chain step (check) or a dense U (uf export)
    for argv in ([], ["check", "--seed", "1"],
                 ["uf", "export", "--radius", "6"]):
        code, modules, _, _ = probe(fresh_python, *argv)
        assert code == 0 and "scipy" not in modules, argv


@pytest.mark.parametrize("argv, loaded", [
    ((), ""),
    (("evolve", "{row}", "--radius", "2", "--steps", "120",
      "--format", "pbm"), "sca_core"),
    (("frt-classical", "{row}", "--radius", "2"), "sca_core"),
    (("check", "--seed", "1"), "numpy frt_quantum qstate quantize sca_core "
     "spin_chain unitary_compile gates"),
    (("uf", "check", "--radius", "4"), "numpy qstate quantize gates"),
    (("frt-quantum", "--blocks", "{blocks}", "--radius", "2",
      "--padding", "4"), "frt_quantum sca_core gates"),
    (("reck", "--dimension", "64"), "numpy qstate unitary_compile gates"),
    (("circuit", "--radius", "2", "--site", "3", "--n-qubits", "6"),
     "gates"),
    (("circuit", "--radius", "1", "--total", "20"), "gates"),
])
def test_commands_load_only_their_modules(fresh_python, config, argv,
                                          loaded):
    # the five benchmarked cold commands, and the four that run without
    # numpy: the classical ones, frt-quantum and circuit
    files = {"row": config("origin=0\n" + "10110" * 24 + "\n"),
             "blocks": config("101 011 110\n", "particle.blocks")}
    code, modules, bare, after = probe(
        fresh_python, *(a.format(**files) for a in argv))
    want = ["qsca.cli", "qsca.errors"] + [
        m if m == "numpy" else f"qsca.{m}" for m in loaded.split()]
    assert code == 0 and modules == sorted(want)
    # no command loads dataclasses, and one without numpy (which loads
    # inspect) loads no inspect beyond what `import qsca.cli` loads
    assert "dataclasses" not in after
    if "numpy" not in loaded:
        assert after == bare


# -- integer options --------------------------------------------------------

# one valid command line per subcommand; every option here takes an integer
# (file arguments are never read: parsing fails first)
INT_ARGV = {
    "evolve": ["row", "--radius", "1", "--steps", "1"],
    "uf": ["check", "--radius", "1", "--seed", "0"],
    "circuit": ["--radius", "1", "--site", "2", "--n-qubits", "3",
                "--total", "3"],
    "hamiltonian": ["--n-sites", "2", "--radius", "1"],
    "frt-classical": ["row", "--radius", "1", "--horizon", "3"],
    "frt-quantum": ["--blocks", "b", "--radius", "1", "--padding", "1"],
    "parallelism": ["--radius", "1"],
    "reck": ["--radius", "1", "--dimension", "2", "--seed", "0"],
    "check": ["--seed", "0"],
}


@pytest.mark.parametrize("token", ["1_0", "+1", " 5", "5 ", "\u0662",
                                   "\u0661_0", "\uff15", "0x1", ""])
def test_integer_options_read_ascii_decimals(capsys, token):
    for command, argv in INT_ARGV.items():
        build_parser().parse_args([command, *argv])
        for at, option in enumerate(argv):
            if not option.startswith("--") or option == "--blocks":
                continue
            bad = argv[:at + 1] + [token] + argv[at + 2:]
            code, out, err = run(capsys, command, *bad)
            assert code == 1 and out == "", (command, option)
            assert err == (f"error: argument {option}: "
                           f"bad integer {token!r}\n")
