"""Every exported name resolves and is listed once, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import dcag

MODULES = [dcag] + [importlib.import_module(f"dcag.{info.name}")
                    for info in pkgutil.iter_modules(dcag.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_no_name_is_exported_by_two_modules():
    # dcag star-imports every module, so a second owner would silently shadow the first.
    owners = {}
    for module in MODULES[1:]:
        for name in getattr(module, "__all__", ()):
            owners.setdefault(name, []).append(module.__name__)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


def test_package_exports_every_module_name_once():
    module_names = [name for module in MODULES[1:] for name in getattr(module, "__all__", ())]
    assert len(dcag.__all__) == len(set(dcag.__all__))
    assert set(dcag.__all__) == {"__version__", *module_names}
