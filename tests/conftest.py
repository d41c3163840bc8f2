import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_python():
    """Run `python -c code *argv` in a new interpreter that imports qsca
    from src/, and return the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
