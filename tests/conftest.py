import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gemi
from gemi.numerics import SeededRng
from datasets import make_planted_panels


@pytest.fixture
def rng():
    return SeededRng(20240817)


@pytest.fixture(scope="session")
def planted():
    return make_planted_panels(seed=11)


def random_features(rng, n, d):
    return rng.normal(size=(n, d))


@pytest.fixture
def gemi_env():
    """Environment for a child python that imports the same gemi as this process."""
    src = str(Path(gemi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def traced_held(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the bytes tracemalloc still traces after the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held
