import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args):
    """Run `python *args` in a new interpreter that imports qsca from
    src/, and return the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def fresh_python():
    """Run `python -c code *argv` in a new interpreter that imports qsca
    from src/, and return the completed process."""
    def run(code, *argv):
        return _python("-c", code, *argv)
    return run


@pytest.fixture
def fresh_module():
    """Run `python -m module *argv` the same way."""
    def run(module, *argv):
        return _python("-m", module, *argv)
    return run


@pytest.fixture
def traced_peak():
    """Call fn(*args) under tracemalloc and return (result, peak), where
    peak is the most bytes that the call's own allocations held at once,
    the result included."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak
    return run
