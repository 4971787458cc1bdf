import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import isoresolvent.numerics
from isoresolvent import IsometricOperator


@pytest.fixture
def e1() -> IsometricOperator:
    """The running 2-d example: D(V) = span{e1}, V e1 = e2."""
    return IsometricOperator(2, [[1], [0]], [[0], [1]])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_shapes(monkeypatch) -> Counter:
    """Counts singular_values calls by the shape of their argument, until
    ``monkeypatch.undo()``."""
    shapes = Counter()
    original = isoresolvent.numerics.singular_values

    def counted(m):
        shapes[np.shape(m)] += 1
        return original(m)

    monkeypatch.setattr(isoresolvent.numerics, "singular_values", counted)
    return shapes


@pytest.fixture
def svd_matrices(monkeypatch) -> Counter:
    """Counts the matrices numpy.linalg.svd factors, by shape, until
    ``monkeypatch.undo()``: each matrix of a stacked call counts once."""
    shapes = Counter()
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        shapes[a.shape[-2:]] += math.prod(a.shape[:-2])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


@pytest.fixture
def eigh_shapes(monkeypatch) -> Counter:
    """Counts numpy.linalg.eigh calls by the shape of their argument, until
    ``monkeypatch.undo()``."""
    shapes = Counter()
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes[np.shape(a)] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


@pytest.fixture
def tracemalloc_peak():
    """``peak(fn, *args)``: the tracemalloc peak, in MB, of one call of
    ``fn(*args)`` after one untraced warm-up call."""

    def peak(fn, *args) -> float:
        fn(*args)
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    return peak
