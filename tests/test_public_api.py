import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import shoprec
from shoprec.recommend import Recommender

import oracles

# functions and records of the layers below the engine, which are internal
LAYER_NAMES = (
    "bought_after",
    "build_precedence_index",
    "PrecedenceIndex",
    "build_iif",
    "new_user_scores",
    "fp_growth",
    "generate_rules",
    "FrequentItemset",
    "profile_weights",
    "build_postings",
    "top_k_neighbors",
)


def package_modules():
    return [shoprec] + [
        importlib.import_module(f"shoprec.{info.name}") for info in pkgutil.iter_modules(shoprec.__path__)
    ]


def test_every_exported_name_resolves():
    for name in shoprec.__all__:
        assert getattr(shoprec, name, None) is not None, name


def test_no_name_is_exported_twice():
    assert len(shoprec.__all__) == len(set(shoprec.__all__))


def test_readme_names_the_public_names_and_no_layer():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]  # as CI's Library-example step cuts it
    sentence = re.search(r"The public names, `shoprec.__all__`, are [^:]*:([^.]*)\.", library).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert names == shoprec.__all__
    assert not set(LAYER_NAMES) & set(shoprec.__all__)


def test_no_test_oracle_is_part_of_the_package():
    names = [name for name, fn in inspect.getmembers(oracles, inspect.isfunction) if fn.__module__ == "oracles"]
    assert names
    for name in names:
        assert name not in shoprec.__all__
        for module in package_modules():
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_an_engine_exposes_no_index(worked_example):
    """The indexes are shared by every engine over the dataset, so none is reachable by a public name."""
    engine = Recommender(worked_example)
    assert {name for name in vars(engine) if not name.startswith("_")} == {"config", "train"}
    for name in ("precedence", "iif", "ranked", "postings", "rules_by_item"):
        with pytest.raises(AttributeError):
            getattr(engine, name)
