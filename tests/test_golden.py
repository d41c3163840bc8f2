"""Replay the golden CLI corpus (tests/golden, written by its record.py):
every case's stdout, stderr and exit code must match byte for byte."""

import json
from pathlib import Path

import pytest

from qsca.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_cli_case(name, capsys, monkeypatch):
    case = CORPUS[name]
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / "out" / f"{name}.out").read_bytes()
    assert captured.err == case["stderr"]
    assert code == case["exit"]
