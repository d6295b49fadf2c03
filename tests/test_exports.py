"""The package's public names: skewlin.__all__ and what a star import binds."""

import skewlin


def test_public_names_resolve():
    for name in skewlin.__all__:
        assert hasattr(skewlin, name), name


def test_public_names_unique_and_sorted():
    names = skewlin.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from skewlin import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(skewlin.__all__)
