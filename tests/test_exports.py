import ast
import dataclasses
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import pytest

import qsca

MODULES = sorted(m.name for m in pkgutil.iter_modules(qsca.__path__))
ROOT = Path(__file__).resolve().parents[1]

# public names with no reference outside the tests yet, and why they stay
UNCALLED = {
    "spin_chain.build_site_hamiltonian":
        "the matrix-free chain (ROADMAP item 5) builds the site product "
        "from it",
    "spin_chain.apply_site_exponential":
        "the matrix-free chain (ROADMAP item 5) applies the site product "
        "to seeded states with it",
}


def test_every_module_is_listed():
    assert "frt_quantum" in MODULES and "qstate" in MODULES


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


def test_parser_constants_have_one_home():
    # the command line reads them from errors, without numpy
    from qsca import errors, qstate, quantize, spin_chain
    assert quantize.MAX_RADIUS is errors.MAX_RADIUS
    assert spin_chain.GENERATOR_VARIANTS is errors.GENERATOR_VARIANTS
    assert qstate.RESET_VARIANTS is errors.RESET_VARIANTS
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
    """Names of the public methods and properties defined on cls, not
    its dataclass fields."""
    fields = ({f.name for f in dataclasses.fields(cls)}
              if dataclasses.is_dataclass(cls) else set())
    members = (property, cached_property, classmethod, staticmethod)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and name not in fields
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


def test_public_members_lists_methods_and_properties_only():
    from qsca.sca_core import Configuration, Particle
    assert sorted(public_members(Configuration)) == ["end", "is_empty"]
    assert sorted(public_members(Particle)) == [
        "block_count", "block_len", "flat_bits", "word"]


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
