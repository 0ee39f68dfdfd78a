"""Shared fixtures: the reference rig (1-D grid n=4096, half-width 20,
ladder 2^-3 .. 2^-10, Gevrey-2 weight, sigma=1.5 mollifier) and cached
regularizations of the model catalog."""

import warnings

import numpy as np
import pytest

from gfalg.distributions import ModelDistribution, regularize
from gfalg.grids import GridSpec
from gfalg.mollifier import build_mollifier
from gfalg.nets import EpsilonLadder
from gfalg.weights import WeightSequence


@pytest.fixture(scope="session")
def grid():
    return GridSpec(1, 20.0, 4096)


@pytest.fixture(scope="session")
def ladder():
    return EpsilonLadder(2.0 ** -3, 0.5, 8)


@pytest.fixture(scope="session")
def seq():
    return WeightSequence.gevrey(2.0)


@pytest.fixture(scope="session")
def moll(grid):
    return build_mollifier(1.5, grid)


@pytest.fixture(scope="session")
def catalog(grid, ladder, seq, moll):
    """kind -> regularized net, built once per session."""
    nets = {}

    def get(kind: str, **kwargs):
        key = (kind, tuple(sorted(kwargs.items())))
        if key not in nets:
            m = ModelDistribution(kind, **kwargs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                nets[key] = regularize(m, moll, ladder, grid, weight=seq)
        return nets[key]

    return get


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts of the grids.forward / grids.inverse calls made through the
    estimators module, and of the frame transforms of the spectrum reader
    nets._spectrum, from here on."""
    from gfalg import estimators, nets
    calls = {"forward": 0, "inverse": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(estimators, name, counting(estimators, name))
    monkeypatch.setattr(nets, "forward", counting(nets, "forward"))
    return calls
