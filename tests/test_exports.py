"""Every name a module of entrolab exports resolves: no stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import entrolab

MODULES = sorted(f"entrolab.{m.name}" for m in pkgutil.iter_modules(entrolab.__path__))


def test_modules_found():
    assert {"entrolab.checks", "entrolab.distributions", "entrolab.suite"} <= set(MODULES)


@pytest.mark.parametrize("name", ["entrolab", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
