import warnings

import numpy as np
import pytest

from dbalign.model import ModelSpec

# Hypothesis imports this module to report a failing example. Where libcst
# is installed, that import warns about mypy_extensions.TypedDict, and
# under filterwarnings = error the warning aborts the whole session instead
# of failing one test. Importing it once here, warning ignored, caches it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: hypothesis skips the patch report
        pass


def bsc_spec(flip=0.1, p_s=(0.0, 1.0), p_x=(0.5, 0.5)):
    """Binary source with a symmetric bit-flip channel."""
    return ModelSpec(
        p_x=list(p_x),
        p_y_given_x=[[1 - flip, flip], [flip, 1 - flip]],
        p_s=list(p_s),
    )


def symmetric_spec(size, diag, p_s):
    """Uniform source, symmetric channel with the given diagonal."""
    off = (1.0 - diag) / (size - 1)
    chan = np.full((size, size), off)
    np.fill_diagonal(chan, diag)
    return ModelSpec(p_x=np.full(size, 1.0 / size), p_y_given_x=chan, p_s=list(p_s))


def unit_trace_cyclic_spec(p_s=(0.3, 0.7)):
    """3-symbol uniform source whose channel has unit trace.

    Under the identity remapping the correlated and independent
    cross-column disagreement rates coincide exactly, so deletion
    detection must skip to a non-identity remapping.
    """
    chan = [
        [1 / 3, 2 / 3, 0.0],
        [0.0, 1 / 3, 2 / 3],
        [2 / 3, 0.0, 1 / 3],
    ]
    return ModelSpec(p_x=[1 / 3, 1 / 3, 1 / 3], p_y_given_x=chan, p_s=list(p_s))


def noiseless_spec(size=2, p_s=(0.0, 1.0), p_x=None):
    if p_x is None:
        p_x = np.full(size, 1.0 / size)
    return ModelSpec(p_x=p_x, p_y_given_x=np.eye(size), p_s=list(p_s))


def long_run_instance():
    """Noiseless binary (d1, d2, g1, g2) whose first column is repeated 25
    times; the detected run's 2^26-cell joint table exceeds TABLE_LIMIT."""
    rng = np.random.default_rng(0)
    cols = [0] * 25 + list(range(1, 17))
    d1 = rng.integers(1, 3, size=(400, 17), dtype=np.uint8)
    g1 = rng.integers(1, 3, size=(3000, 17), dtype=np.uint8)
    return d1, d1[:, cols], g1, g1[:, cols]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
