"""Which functions and methods of src/qsca a run never enters.

`untraced()` runs the golden CLI corpus (tests/golden/cases.json)
through `cli.main`, or builds and runs one in-process pass of each
named benchmark workload, under `sys.setprofile`, and returns the
sorted names (`module.qualname`) of the module functions and class
members defined in src/qsca that no traced frame ran.  Call it in a
fresh interpreter: a cache filled earlier in the process would hide a
call.

    PYTHONPATH=src python tests/trace_reach.py
    PYTHONPATH=src python tests/trace_reach.py uf-operator block-propagation
"""

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsca"


def _functions(member):
    """The Python functions behind a module or class member."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [member.fget]
    if isinstance(member, cached_property):
        return [member.func]
    if callable(member):
        member = inspect.unwrap(member)
    return [member] if inspect.isfunction(member) else []


def defined_functions():
    """{code object: name} of every function and method whose source is
    a file of src/qsca; methods made at run time, say by a class
    decorator, have no such file."""
    import qsca
    modules = [qsca] + [importlib.import_module(f"qsca.{m.name}")
                        for m in pkgutil.iter_modules(qsca.__path__)]
    found = {}
    for module in modules:
        for obj in vars(module).values():
            members = [obj]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = list(vars(obj).values())
            for fn in (f for m in members for f in _functions(m)):
                if Path(fn.__code__.co_filename).parent == SRC:
                    found[fn.__code__] = f"{fn.__module__}.{fn.__qualname__}"
    return found


def _run_golden():
    sys.path.insert(0, str(ROOT / "tests" / "golden"))
    from record import HERE, run_case
    corpus = json.loads((HERE / "cases.json").read_text())
    for case in corpus.values():
        run_case(case["argv"])


def _run_workloads(names):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    import workloads
    for name in names:
        workload = workloads.make(name, 1, ROOT, ROOT)
        workload.prepare()
        ctx, _ = harness.run_pass(harness.Tracer(), 0, workload.units())
        if ctx.failed:
            raise AssertionError(f"{name}: {ctx.first_failure}")


def untraced(workload_names=()):
    """Sorted names of the src/qsca functions that the golden corpus, or
    one pass of each named workload, never enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        if workload_names:
            _run_workloads(workload_names)
        else:
            _run_golden()
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in defined_functions().items()
                  if code not in entered)


if __name__ == "__main__":
    print(json.dumps(untraced(sys.argv[1:])))
