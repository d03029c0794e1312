import importlib
import inspect
import pkgutil

import shoprec

import oracles


def package_modules():
    return [shoprec] + [
        importlib.import_module(f"shoprec.{info.name}") for info in pkgutil.iter_modules(shoprec.__path__)
    ]


def test_every_exported_name_resolves():
    for name in shoprec.__all__:
        assert getattr(shoprec, name, None) is not None, name


def test_no_name_is_exported_twice():
    assert len(shoprec.__all__) == len(set(shoprec.__all__))


def test_no_test_oracle_is_part_of_the_package():
    names = [name for name, fn in inspect.getmembers(oracles, inspect.isfunction) if fn.__module__ == "oracles"]
    assert names
    for name in names:
        assert name not in shoprec.__all__
        for module in package_modules():
            assert not hasattr(module, name), f"{module.__name__}.{name}"
