import concurrent.futures

import numpy as np
import pytest


class _CountedWeights(np.ndarray):
    """A weight matrix that logs the row count of every product it is in."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(inputs[0].shape[0])
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


@pytest.fixture
def layer1_products():
    """Wrap a scorer's first weight matrix; returns the list that then gets
    the row count of each layer-1 product x @ W1 the scorer computes."""
    def wrap(scorer):
        w = scorer.weights[0].view(_CountedWeights)
        w.rows = []
        scorer.weights[0] = w
        return w.rows
    return wrap


@pytest.fixture
def thread_pools(monkeypatch):
    """Record the worker count of every thread pool mc_dropout_outputs starts."""
    pools = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            pools.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return pools
