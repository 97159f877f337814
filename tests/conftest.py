import numpy as np
import pytest


def _masked_sigmoid(x):
    # the boolean-mask logistic that layers._sigmoid replaced; it is the
    # oracle the branch-free form must match byte for byte
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.fixture
def masked_sigmoid():
    return _masked_sigmoid
