"""The package's export list: what ``from tritangle import *`` binds."""

import pytest

import tritangle


def test_every_export_resolves_once():
    assert len(set(tritangle.__all__)) == len(tritangle.__all__)
    assert [name for name in tritangle.__all__ if not hasattr(tritangle, name)] == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from tritangle import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tritangle.__all__)


@pytest.mark.parametrize("name", ["GhzwMixtureParams", "ghzw_params"])
def test_removed_mixture_family_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from tritangle import {name}", {})
