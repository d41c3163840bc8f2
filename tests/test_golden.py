"""Replay the golden CLI corpus (tests/golden, written by its record.py):
every case's stdout, stderr and exit code must match byte for byte."""

import importlib.util
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


def test_recorder_and_corpus_list_the_same_cases():
    # a case added to record.py but never recorded, or a hand-edited
    # corpus, shows here
    spec = importlib.util.spec_from_file_location("golden_record",
                                                  GOLDEN / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    assert {name: case["argv"] for name, case in CORPUS.items()} \
        == record.CASES
    assert sorted(path.name for path in (GOLDEN / "out").iterdir()) \
        == sorted(f"{name}.out" for name in CORPUS)
