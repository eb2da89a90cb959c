"""Reference implementations that the package no longer carries, kept as
test oracles.

``mixture_stats`` and ``fit_mixture`` read weighted pairs of
``BinaryMark``s one Python tuple at a time. The package sums the same
(F, 2, 2) table from arrays: over candidate pairs in the pairwise E-step
and over (parent pattern, child pattern) weights in the scan
(``transitions.pattern_stats``).

``label_family_stats`` reads a family's statistic off the (parent label,
child label) weight table that every label family used to keep.
"""

from typing import Sequence

import numpy as np

from cascades import (BinaryMark, CategoricalMatrix, DataError, FeaturePrior,
                      IdentityTransition, PriorTransition)
from cascades.transitions import fit_mixture_from_stats


def label_family_stats(spec, table: np.ndarray):
    """The statistic a label-mark transition keeps, from the (parent label,
    child label) weight table: the table for a categorical matrix, its
    parent-axis sum for a prior, None for identity."""
    if isinstance(spec, CategoricalMatrix):
        return table
    if isinstance(spec, PriorTransition):
        return table.sum(axis=0)
    assert isinstance(spec, IdentityTransition)
    return None


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
