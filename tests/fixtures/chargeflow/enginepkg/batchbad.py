"""Shape: engine module with an uncharged and a charged bulk op.

``batch_scale`` runs a vectorized op but never charges -> PAR005.
``batch_accumulate`` runs the same op and charges -> clean.
"""

import numpy as np


def batch_scale(values, tracker):
    assert tracker is not None
    return np.cumsum(values)


def batch_accumulate(values, tracker):
    tracker.add_work(float(len(values)))
    return np.cumsum(values)
