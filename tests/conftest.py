"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def stray_blas_flag(monkeypatch):
    """Every np.matmul raises the invalid flag (inf - inf on a scratch
    float32), then returns the true product: the stray status flag that some
    BLAS builds leave on finite products.  Yields the list of the two
    operands' summed ranks, one per product: 5 for conv2d (a 3-D stack of
    patches times a 2-D kernel), 3 for dense (a matrix and a vector)."""
    real = np.matmul
    ranks = []

    def flagged(a, b, out=None):
        ranks.append(np.ndim(a) + np.ndim(b))
        scratch = np.full(1, np.inf, dtype=np.float32)
        np.subtract(scratch, scratch)
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", flagged)
    yield ranks
