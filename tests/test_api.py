"""The public names: every name in the ``__all__`` of a library module
resolves on that module, and the names removed from ``contfrac`` stay
gone."""

import importlib

import pytest

import abelianwords

MODULES = ["words", "complexity", "contfrac", "powers", "checks"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"abelianwords.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["affine_sign", "compare_with_rational",
                                  "floor_range"])
def test_removed_contfrac_names_are_gone(name):
    assert not hasattr(abelianwords, name)
    assert not hasattr(abelianwords.contfrac, name)
