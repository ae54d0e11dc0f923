"""Every source file of the program has exactly one layer."""

import os

import pytest

from perfbench import SRC_DIR
from perfbench.layers import (LAYERS, RULES, bucket_profile, layer_of_module,
                              layer_of_path, rule_of_module)


def _modules():
    root = os.path.join(SRC_DIR, "repro")
    for directory, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(directory, name),
                                      root).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(_modules())
    assert len(modules) > 100
    for module in modules:
        assert layer_of_module(module) in LAYERS


def test_every_rule_claims_a_module():
    # a rule nothing matches is a module that was renamed or removed
    claimed = {rule_of_module(module)[0] for module in _modules()}
    assert claimed == {prefix for prefix, _ in RULES}


def test_a_new_module_fails_instead_of_vanishing():
    with pytest.raises(KeyError):
        layer_of_module("newsubsystem/engine.py")


def test_paths_outside_the_program():
    assert layer_of_path("~") == "python"
    assert layer_of_path(os.__file__) == "python"
    assert layer_of_path(os.path.join(SRC_DIR, "repro", "simengine",
                                      "events.py")) == "simengine"
    assert layer_of_path(__file__) == "perfbench"


def test_bucket_profile_sums_rows_per_layer():
    regions = os.path.join(SRC_DIR, "repro", "core", "regions.py")
    stats = {(regions, 10, "f"): (3, 4, 0.5, 0.9, {}),
             (regions, 20, "g"): (1, 1, 0.25, 0.3, {}),
             ("~", 0, "<built-in len>"): (7, 7, 0.125, 0.125, {})}
    buckets = bucket_profile(stats)
    assert buckets["core.regions"] == {"self_s": 0.75, "calls": 5}
    assert buckets["python"] == {"self_s": 0.125, "calls": 7}
    assert buckets["simengine"] == {"self_s": 0.0, "calls": 0}
