import importlib
import pkgutil

import pytest

import qsca

MODULES = sorted(m.name for m in pkgutil.iter_modules(qsca.__path__))


def test_every_module_is_listed():
    assert "frt_quantum" in MODULES and "qstate" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qsca.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
