import ast
import importlib
import inspect
import json
import pkgutil
from functools import cached_property
from pathlib import Path

import pytest

import qsca

MODULES = sorted(m.name for m in pkgutil.iter_modules(qsca.__path__))
ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"

# public names with no reference outside the tests yet, and why they stay
UNCALLED = {
    "spin_chain.apply_site_exponential":
        "the matrix-free chain (ROADMAP item 10) applies the site product "
        "to seeded states with it",
}


def test_every_module_is_listed():
    assert {"frt_quantum", "gates", "qstate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qsca.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_resolve_to_their_module():
    # the table names the module that defines each public name
    assert len(set(qsca.__all__)) == len(qsca.__all__)
    for module, names in qsca._EXPORTS.items():
        home = importlib.import_module(f"qsca.{module}")
        for name in names:
            obj = getattr(qsca, name)
            assert obj is getattr(home, name)
            assert obj.__module__ == home.__name__
    assert sorted(qsca.__all__) == sorted(
        n for names in qsca._EXPORTS.values() for n in names)


def test_dir_lists_names_and_submodules():
    listed = dir(qsca)
    assert set(qsca.__all__) <= set(listed)
    assert set(qsca._EXPORTS) <= set(listed)
    assert qsca.quantize is importlib.import_module("qsca.quantize")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsca.no_such_name
    assert not hasattr(qsca, "cli_main")


def test_star_import_binds_every_name(fresh_python):
    res = fresh_python(
        "from qsca import *\n"
        "import qsca\n"
        "print([n for n in qsca.__all__ if n not in globals()])\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_package_import_loads_no_submodule(fresh_python):
    res = fresh_python(
        "import sys, qsca\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('qsca.') or m == 'numpy'))\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_submodule_names_load_their_module(fresh_python):
    # qsca.<submodule> goes through the package's __getattr__, which
    # imports the module and returns it; gates loads no numpy
    res = fresh_python(
        "import sys, qsca\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.startswith('qsca.') or m == 'numpy')\n"
        "print(loaded(), 'gates' in vars(qsca))\n"
        "print(qsca.gates is sys.modules['qsca.gates'], loaded())\n"
        "print(qsca.frt_quantum is sys.modules['qsca.frt_quantum'])\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "[] False", "True ['qsca.errors', 'qsca.gates']", "True"]


def test_parser_constants_have_one_home():
    # the command line reads them from errors, without numpy
    from qsca import errors, gates, quantize, spin_chain
    assert quantize.MAX_RADIUS is errors.MAX_RADIUS
    assert spin_chain.GENERATOR_VARIANTS is errors.GENERATOR_VARIANTS
    assert gates.RESET_VARIANTS is errors.RESET_VARIANTS
    # one dense budget for the CSV export and `reck --dimension`
    quantize.check_csv_dimension(4096)
    with pytest.raises(errors.DimensionTooLarge):
        quantize.check_csv_dimension(4097)


def referenced_names():
    """Every name the library and the benchmark read: loaded names,
    attributes and imported names, but no strings (so no `__all__`).

    Attributes match by bare name, whatever the object: a member named
    like a CLI option (`args.site`) or like another class's field
    (`report.norm`) passes the guard without a real caller."""
    paths = sorted((ROOT / "src" / "qsca").glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def public_members(cls):
    """Names of the public methods and properties defined on cls; its
    fields are set on each instance, so they are not among them."""
    members = (property, cached_property, classmethod, staticmethod)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, members))]


def test_every_public_name_has_a_caller():
    referenced = referenced_names()
    uncalled = set()
    for name in MODULES:
        module = importlib.import_module(f"qsca.{name}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            members = public_members(obj) if inspect.isclass(obj) else []
            uncalled |= {f"{name}.{export}.{member}" for member in members
                         if member not in referenced}
            if export not in referenced:
                uncalled.add(f"{name}.{export}")
    # an entry whose name gains a caller leaves the list
    assert uncalled == set(UNCALLED)


# src/qsca functions and methods that no golden CLI case enters: the
# benchmark workload that runs each one, or None, and why it stays
UNTRACED = {
    "qsca.quantize.WordMap.tocsc": (
        "uf-operator", "its chain-step units read the step as scipy CSC"),
    "qsca.unitary_compile.ReckPlan.rotations": (
        "uf-operator", "its mesh units count the rotations of a plan"),
    "qsca.qstate.apply_circuit": (
        "block-propagation", "it runs its random NOT/CN circuit on a state"),
    "qsca.qstate._gather": (
        "block-propagation", "apply_circuit permutes the amplitudes with it"),
    "qsca.qstate._span": (
        "block-propagation", "apply_circuit's gather, its only caller, "
        "builds its index tables with it"),
    "qsca.gates.affine_fold": (
        "block-propagation", "apply_circuit's gather, its only caller, "
        "reads the inverse map from it"),
    "qsca.qstate.StateVector._owning": (
        "block-propagation", "apply_circuit wraps its output state with it"),
    "qsca.qstate.StateVector.__init__": (
        "block-propagation", "it builds its input state with the public "
        "constructor; commands build states without re-checking them"),
    "qsca.spin_chain.sum_product_gap": (
        "uf-operator", "its sum-product units compare the two gaps"),
    "qsca.spin_chain.SumProductReport.__init__": (
        "uf-operator", "sum_product_gap returns its two gaps in one"),
    "qsca.spin_chain._site_blocks": (
        "uf-operator", "sum_product_gap takes each site exponential's "
        "2x2 blocks from it"),
    "qsca.spin_chain._site_product": (
        "uf-operator", "sum_product_gap multiplies the site exponentials "
        "with it"),
    "qsca.spin_chain._exp_i_pi_by_reflection": (
        "uf-operator", "sum_product_gap exponentiates H sector by sector "
        "with it"),
    "qsca.spin_chain.PauliTerm.support": (
        "uf-operator", "its chain-Hamiltonian units check each term's "
        "locality on it"),
    "qsca.spin_chain.apply_site_exponential": (
        None, UNCALLED["spin_chain.apply_site_exponential"]),
    "qsca.errors.Frozen.__eq__": (
        None, "the README states value equality of the value types"),
    "qsca.errors.Frozen.__hash__": (
        None, "the README states a hash that agrees with that equality"),
    "qsca.errors.Frozen._values": (
        None, "the equality and hash of the value types read the fields "
        "through it"),
    "qsca.errors.Frozen.__repr__": (
        None, "errors name a bad op or term by its repr, and the command "
        "line builds none"),
    "qsca.errors.Frozen.__setattr__": (
        None, "a value refuses assignment, which no command tries; the "
        "tests assert the refusal"),
    "qsca.errors.Frozen.__delattr__": (
        None, "a value refuses deletion, which no command tries; the tests "
        "assert the refusal"),
    "qsca.qstate.ArrayEq.__eq__": (
        None, "the README states value equality of the array-holding types"),
    "qsca.qstate.ArrayEq.__hash__": (
        None, "the README states a hash that agrees with that equality"),
    "qsca.__dir__": (
        None, "dir(qsca) lists the lazily loaded names through it"),
    "qsca.errors.NotHermitian.__init__": (
        None, "exp_i_pi refuses a non-Hermitian matrix, which no command "
        "builds; the tests pass one"),
    "qsca.errors.NotUnitary.__init__": (
        None, "the Reck decomposition refuses a non-unitary target, which "
        "no command builds; the tests pass one"),
}


def traced_misses(fresh_python, *workloads):
    """The src/qsca functions that the golden corpus, or one pass of each
    workload, never enters (tests/trace_reach.py, a fresh interpreter)."""
    res = fresh_python(
        "import json, sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "from trace_reach import untraced\n"
        "names = untraced(sys.argv[1:])\n"
        "print(json.dumps(names))\n", *workloads)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def test_golden_corpus_enters_all_but_the_untraced_list(fresh_python):
    # unlike the bare-name guard, a trace cannot be passed by a member
    # that only shares its name with something a command reads; an entry
    # that a golden case starts to enter leaves the list
    assert traced_misses(fresh_python) == set(UNTRACED)
    assert all(reason.strip() for _, reason in UNTRACED.values())


def test_untraced_workload_entries_run_in_their_workload(fresh_python):
    # the entries kept for a benchmark workload are entered by one
    # in-process pass of it, and that pass fails no check
    by_workload = {}
    for name, (workload, _) in UNTRACED.items():
        if workload is not None:
            by_workload.setdefault(workload, set()).add(name)
    assert sorted(by_workload) == ["block-propagation", "uf-operator"]
    for workload, names in by_workload.items():
        assert names.isdisjoint(traced_misses(fresh_python, workload)), \
            workload


def test_public_members_lists_methods_and_properties_only():
    from qsca.sca_core import Configuration, Particle
    assert sorted(public_members(Configuration)) == ["end", "is_empty"]
    assert sorted(public_members(Particle)) == [
        "block_count", "block_len", "word"]


def test_no_private_name_is_imported_across_modules():
    crossing = []
    for path in sorted((ROOT / "src" / "qsca").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("qsca")):
                crossing += [f"{path.name}: {node.module}.{alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_")]
    assert crossing == []
