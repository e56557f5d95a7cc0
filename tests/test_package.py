"""The package's exports: ``alleletest/__init__.py`` names each one once, in
its table of submodules and their exports, and loads it on first use."""

import importlib

import alleletest


def test_every_exported_name_resolves():
    missing = [name for name in alleletest.__all__ if not hasattr(alleletest, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from alleletest import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(alleletest.__all__)


def test_table_lists_each_export_once_as_its_submodule_object():
    listed = [name for names in alleletest._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(alleletest.__all__) == sorted([*listed, "__version__"])
    for module, names in alleletest._EXPORTS.items():
        submodule = importlib.import_module(f"alleletest.{module}")
        for name in names:
            assert name in submodule.__all__
            assert getattr(alleletest, name) is getattr(submodule, name)
