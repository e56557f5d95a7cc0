"""The package's exports: ``alleletest/__init__.py`` names each one twice, in
its imports and in ``__all__``, and the two lists must agree."""

import inspect

import alleletest


def test_every_exported_name_resolves():
    missing = [name for name in alleletest.__all__ if not hasattr(alleletest, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from alleletest import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(alleletest.__all__)


def test_all_lists_each_public_name_that_is_not_a_module_once():
    public = [
        name for name, value in vars(alleletest).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(alleletest.__all__) == sorted([*public, "__version__"])
