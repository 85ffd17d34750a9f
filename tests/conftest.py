"""Shared fixtures: standard quadratic targets and a logistic test problem; the Hypothesis profile."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from parlmc import LogisticRidgePotential, QuadraticPotential

# Hypothesis writes its storage (constants, even with no database) under .hypothesis/ in the working directory
# unless told otherwise: keep the checkout clean with a directory removed at exit.
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="parlmc-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)

# Every property test draws the same examples on every run, keeps none, and has no deadline on a noisy host.
settings.register_profile("parlmc", derandomize=True, database=None, deadline=None)
settings.load_profile("parlmc")


@pytest.fixture
def quad_2d():
    """Anisotropic 2-D Gaussian target with m=1, M=10."""
    return QuadraticPotential.from_diagonal([1.0, 10.0], mean=[1.0, -0.5])


@pytest.fixture
def quad_10d():
    """The desk-scale verification target: p=10, m=1, M=10."""
    return QuadraticPotential(np.diag(np.linspace(1.0, 10.0, 10)))


@pytest.fixture
def logistic_small():
    rng = np.random.default_rng(314)
    X = rng.standard_normal((40, 3))
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    return LogisticRidgePotential(X, y, ridge=0.7)
