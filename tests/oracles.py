"""Reference implementations that the package no longer carries, kept as
test oracles.

``mixture_stats`` and ``fit_mixture`` read weighted pairs of
``BinaryMark``s one Python tuple at a time. The package sums the same
(F, 2, 2) table from arrays: over candidate pairs in the pairwise E-step
and over (parent pattern, child pattern) weights in the scan
(``transitions.pattern_stats``).
"""

from typing import Sequence

import numpy as np

from cascades import BinaryMark, DataError, FeaturePrior
from cascades.transitions import fit_mixture_from_stats


def mixture_stats(pairs: Sequence[tuple[BinaryMark, BinaryMark, float]],
                  prior: FeaturePrior) -> np.ndarray:
    """Aggregate weighted (parent, child) pairs into an (F, 2, 2) table.

    Entry [f, b, m] is the total weight of pair-features with child bit
    b and match indicator m.
    """
    width = len(prior.probs)
    table = np.zeros((width, 2, 2))
    for parent, child, w in pairs:
        if w < 0:
            raise DataError("pair weights must be nonnegative")
        for f in range(width):
            b = child.bits[f]
            table[f, b, int(parent.bits[f] == b)] += w
    return table


def fit_mixture(pairs: Sequence[tuple[BinaryMark, BinaryMark, float]],
                prior: FeaturePrior) -> float:
    return fit_mixture_from_stats(mixture_stats(pairs, prior), prior)
