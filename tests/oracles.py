"""Reference implementations that the package no longer carries, kept as
test oracles.

``mixture_stats`` and ``fit_mixture`` read weighted pairs of
``BinaryMark``s one Python tuple at a time. The package sums the same
(F, 2, 2) table from arrays: over candidate pairs in the pairwise E-step
(``FeatureMixture.stats_from_pairs``) and over (parent pattern, child
pattern) weights in the scan (``FeatureMixture.stats_from_patterns``).

``label_family_stats`` reads a family's statistic off the (parent label,
child label) weight table that every label family used to keep.

``component_stats`` sums e_step's responsibilities into the per-component
statistics m_step reads, as m_step did when it still accepted
responsibilities; the package sums them inside the E-step
(``estep_stats``).
"""

from typing import Sequence

import numpy as np

from cascades import (BinaryMark, CategoricalMatrix, DataError, FeaturePrior,
                      IdentityTransition, PriorTransition)
from cascades import engine
from cascades.transitions import fit_mixture_from_stats


def component_stats(model, d, resp) -> list:
    """Per-component statistics of given responsibilities: every pair's
    delay and weight, the transition statistic and the credit per parent
    mark pattern."""
    if resp.n != len(d):
        raise DataError("responsibilities do not match the dataset")
    _, pattern, n_patterns = engine._mark_patterns(d)
    out = []
    for c, comp in enumerate(model.components):
        children, parents, z = engine._pair_arrays(resp, c)
        out.append(engine.ComponentStats(
            d.times[children] - d.times[parents], z,
            comp.transition.stats_from_pairs(d, children, parents, z),
            engine._pattern_credits(pattern, n_patterns, parents, z)))
    return out


def resp_stats(model, d, resp):
    """The EStepStats m_step reads, from e_step's responsibilities; m_step
    does not read the intensity, which is left empty."""
    return engine.EStepStats(resp.baseline, np.zeros(0), component_stats(model, d, resp))


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
