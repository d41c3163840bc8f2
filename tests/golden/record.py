"""Record the golden CLI corpus: run each case below through `cli.main`
and write its exit code and stderr to cases.json and its stdout to
out/<name>.out.  `tests/test_golden.py` replays the corpus and compares
all three byte for byte.

Run from the repository root against the code whose output is wanted:

    PYTHONPATH=src python tests/golden/record.py

Input paths are relative to this directory, which is the working
directory while a case runs.  `reck --dimension` is left out: its plan
text carries floats from LAPACK, which need not agree across builds.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = {}
for seed in (0, 1, 7):
    CASES[f"check_seed{seed}"] = ["check", "--seed", str(seed)]
for r in range(1, 7):
    CASES[f"uf_check_r{r}"] = ["uf", "check", "--radius", str(r)]
    CASES[f"parallelism_r{r}"] = ["parallelism", "--radius", str(r)]
for r in range(1, 4):
    CASES[f"uf_export_r{r}"] = ["uf", "export", "--radius", str(r)]
    CASES[f"uf_blockform_r{r}"] = ["uf", "blockform", "--radius", str(r)]
    for variant in ("literal", "verified"):
        CASES[f"hamiltonian_n8_r{r}_{variant}"] = [
            "hamiltonian", "--n-sites", "8", "--radius", str(r),
            "--variant", variant]
CASES.update({
    "uf_blockform_r6_refused": ["uf", "blockform", "--radius", "6"],
    "reck_r1": ["reck", "--radius", "1"],
    "reck_r2": ["reck", "--radius", "2"],
    "reck_r6_refused": ["reck", "--radius", "6"],
    "reck_dimension5000_refused": ["reck", "--dimension", "5000"],
    "circuit_site": ["circuit", "--radius", "2", "--site", "3",
                     "--n-qubits", "6"],
    "circuit_total": ["circuit", "--radius", "1", "--total", "7"],
    "evolve_ascii": ["evolve", "inputs/row.txt", "--radius", "2",
                     "--steps", "12"],
    "evolve_pbm": ["evolve", "inputs/row.txt", "--radius", "1",
                   "--steps", "12", "--format", "pbm"],
    "frt_classical": ["frt-classical", "inputs/particles.txt",
                      "--radius", "2"],
    "frt_quantum_extended": ["frt-quantum", "--blocks", "inputs/blocks.txt",
                             "--radius", "1", "--padding", "3"],
    "frt_quantum_literal": ["frt-quantum", "--blocks",
                            "inputs/blocks_null.txt", "--radius", "1",
                            "--padding", "2", "--variant", "literal"],
    "usage_no_command": [],
    "usage_unknown_command": ["transmogrify"],
    "usage_bad_radius": ["uf", "check", "--radius", "9"],
    "usage_bad_integer": ["parallelism", "--radius", "1_0"],
    "usage_reck_no_target": ["reck"],
    "usage_circuit_no_site": ["circuit", "--radius", "1"],
    "usage_reck_radius_and_dimension": ["reck", "--radius", "1",
                                        "--dimension", "2"],
    "usage_circuit_site_and_total": ["circuit", "--radius", "1", "--site",
                                     "2", "--n-qubits", "3", "--total", "4"],
    "usage_check_negative_seed": ["check", "--seed", "-1"],
    "usage_uf_export_seed": ["uf", "export", "--radius", "1", "--seed", "1"],
    "usage_reck_radius_seed": ["reck", "--radius", "1", "--seed", "5"],
    "usage_bad_config": ["evolve", "inputs/bad_row.txt", "--radius", "1",
                         "--steps", "1"],
    "usage_missing_file": ["frt-classical", "inputs/absent.txt",
                           "--radius", "1"],
})


def run_case(argv):
    """(exit code, stdout, stderr) of `qsca *argv`, run in this directory."""
    from qsca.cli import main
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def record():
    (HERE / "out").mkdir(exist_ok=True)
    corpus = {}
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        (HERE / "out" / f"{name}.out").write_bytes(out.encode())
        corpus[name] = {"argv": argv, "exit": code, "stderr": err}
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
    (HERE / "cases.json").write_text(json.dumps(corpus, indent=1) + "\n")


if __name__ == "__main__":
    record()
