"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def stray_blas_flag(monkeypatch):
    """Every np.matmul raises the invalid flag (inf - inf on a scratch
    float32), then returns the true product: the stray status flag that some
    BLAS builds leave on finite products.  Yields the list of the second
    operands' ranks, one per product (3: conv2d, 1: dense)."""
    real = np.matmul
    ranks = []

    def flagged(a, b):
        ranks.append(np.ndim(b))
        scratch = np.full(1, np.inf, dtype=np.float32)
        np.subtract(scratch, scratch)
        return real(a, b)

    monkeypatch.setattr(np, "matmul", flagged)
    yield ranks
