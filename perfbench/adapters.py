"""The one place that knows the shape of imondrian's scoring results."""

from __future__ import annotations

import numpy as np


def as_scores(result) -> np.ndarray:
    """Anomaly scores from ``score_all`` / ``rescore_window`` output.

    Accepts a list of ``ScoreReport`` objects, or an
    ``(expected_path_length, score)`` pair of arrays.
    """
    if isinstance(result, tuple):
        return np.asarray(result[1], dtype=float).ravel()
    return np.asarray([report.score for report in result], dtype=float)
