"""The block prefix-sum exponential E-step (the scan) against two oracles.

The scan runs through the E-step driver with its kernels forced
(``oracles.forced_estep``), the truncation read from the model.
Untruncated (truncation mass 0), against ``_reference_scan``, the
ordered scan the block scan replaced: it walks the events one tie group
at a time and decays per-label accumulators between groups. Truncated,
against the pairwise E-step (every component forced onto pairs) on
label, composite and binary marks, with every component on the scan or
each on either kernel. The block scan sums the same terms in another
order and rebases each block's exponentials, so the statistics must
agree to 1e-12 relative, not bitwise. The last tests check which kernel
the E-step's one rule (``engine._on_scan``) chooses for each component.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascades import (BinaryMark, BinarySchema, CascadeModel, CategoricalMatrix,
                      CombinedFertility, ConstantFertility, Dataset, Event,
                      ExponentialDelay, FeatureMixture, FeaturePrior, GammaDelay, Graph,
                      HomogeneousBaseline, Hyperparams, IdentityTransition,
                      KernelComponent, LabelMark, LabelMarginal, LinearFertility,
                      MultiplicativeFertility, NumericalError, PeriodicBaseline,
                      PriorTransition, fit, fit_node, log_likelihood,
                      simulate, simulate_graph, split)
from cascades import delays as delay_mod
from cascades import engine
from cascades.config import parse_model
from cascades.engine import ComponentStats, EStepStats
from cascades.events import CompositeMark, CompositeSchema, LabelSchema
from cascades.graphs import local_data
from oracles import forced_estep, label_family_stats

RTOL = 1e-12
DEFAULT_LIMIT = engine.EXP_LIMIT


# ---------------------------------------------------------------------------
# the per-event reference


def _reference_scan(model, d, children=None, window=None):
    """The untruncated scan's statistics from one tie group at a time."""
    window = engine._resolve_window(d, window)
    b = window[1]
    n, L = len(d), d.n_label_values
    times, labels = d.times, d.label_index
    is_child = np.zeros(n, dtype=bool)
    is_child[engine._child_ids(d, children, window)] = True
    base_marks = model.baseline.mark.as_array
    comps = model.components
    C = len(comps)
    rates = np.array([c.delay.rate for c in comps])
    # weight[c][r, j]: delay rate * fertility(r) * g(j | r)
    weight = [c.delay.rate * c.fertility.rate * c.transition.g_patterns(d)
              for c in comps]
    masks = [None if comp.sources is None else np.isin(d.node_ids, comp.sources)
             for comp in comps]
    D, E = np.zeros((C, L)), np.zeros((C, L))
    z_base, lam = np.zeros(n), np.zeros(n)
    comp_z, comp_zdt = np.zeros(C), np.zeros(C)
    counts = [np.zeros((L, L)) for _ in comps]
    i = 0
    t_prev = times[0] if n else 0.0
    while i < n:
        j = i
        while j < n and times[j] == times[i]:
            j += 1
        t = times[i]
        if t > b:
            break
        dt = t - t_prev
        if dt > 0:
            decay = np.exp(-rates * dt)
            E = decay[:, None] * (E + dt * D)
            D = decay[:, None] * D
        t_prev = t
        for k in range(i, j):
            if not is_child[k]:
                continue
            lab = labels[k]
            base_val = float(model.baseline.rate_at(np.asarray([t]))[0]
                             * base_marks[lab])
            total = base_val
            per_comp = []
            for c in range(C):
                wvec = weight[c][:, lab] * D[c]
                svec = weight[c][:, lab] * E[c]
                per_comp.append((wvec, float(svec.sum())))
                total += float(wvec.sum())
            if total <= 0.0 or not np.isfinite(total):
                raise NumericalError(
                    f"event {k} at t={t!r} has zero intensity under every cause")
            lam[k] = total
            z_base[k] = base_val / total
            for c in range(C):
                wvec, sdt = per_comp[c]
                comp_z[c] += wvec.sum() / total
                comp_zdt[c] += sdt / total
                counts[c][:, lab] += wvec / total
        for k in range(i, j):
            for c in range(C):
                if masks[c] is None or masks[c][k]:
                    D[c, labels[k]] += 1.0
        i = j
    mean_dt = np.divide(comp_zdt, comp_z, out=np.zeros(C), where=comp_z > 0)
    return EStepStats(z_base, lam, [
        ComponentStats(deltas=mean_dt[c:c + 1], weights=comp_z[c:c + 1],
                       transition=label_family_stats(comps[c].transition, counts[c]),
                       credits=comp_z[c:c + 1])
        for c in range(C)])


def _assert_close(got, ref):
    for x, y in ((got.z_base, ref.z_base), (got.intensity, ref.intensity),
                 (got.comp_z, ref.comp_z), (got.comp_zdt, ref.comp_zdt)):
        np.testing.assert_allclose(x, y, rtol=RTOL, atol=0)
    assert got.n_components == ref.n_components
    for a, b in zip(got.components, ref.components):
        assert (a.transition is None) == (b.transition is None)
        if b.transition is not None:
            assert a.transition.shape == b.transition.shape
            np.testing.assert_allclose(a.transition, b.transition, rtol=RTOL, atol=0)
        np.testing.assert_allclose(a.credits, b.credits, rtol=RTOL, atol=0)


def _scan(model, d, children=None, window=None):
    """The E-step statistics with every component on the scan."""
    return forced_estep(model, d, children, window, "stats", on_scan=True)[0]


def _untruncated(model):
    return replace(model, truncation_mass=0.0)


def _blocked(events_per_block, limit, model, d, children=None, window=None):
    """``_scan`` with blocks of at most ``events_per_block`` events (None
    keeps the default) and the exponent limit ``limit``."""
    cells = max(len(model.components), 1) * d.schema.pattern_codes(d)[1]
    with pytest.MonkeyPatch.context() as mp:
        if events_per_block is not None:
            mp.setattr(engine, "PAIR_CHUNK", events_per_block * cells)
        mp.setattr(engine, "EXP_LIMIT", limit)
        return _scan(model, d, children, window)


# block sizes in events and exponent limits every oracle test runs under
BLOCKINGS = [(None, DEFAULT_LIMIT), (1, DEFAULT_LIMIT), (7, DEFAULT_LIMIT),
             (None, 1.0), (7, 7.0)]


def _assert_matches_reference(model, d, children=None, window=None):
    ref = _reference_scan(model, d, children, window)
    model = _untruncated(model)
    for size, limit in BLOCKINGS:
        _assert_close(_blocked(size, limit, model, d, children, window), ref)
    return ref


# ---------------------------------------------------------------------------
# data and models


def _label_data(times, n_labels=3, seed=0, horizon=None):
    labels = np.random.default_rng(seed).integers(1, n_labels + 1, size=len(times))
    horizon = float(np.max(times)) + 1.0 if horizon is None else horizon
    return Dataset([Event(float(t), LabelMark(int(l))) for t, l in zip(times, labels)],
                   horizon=horizon, schema=LabelSchema(n_labels))


def _uniform_times(n=200, horizon=40.0, grid=None, seed=0):
    times = np.random.default_rng(seed).uniform(0, horizon, size=n)
    if grid is not None:  # collide timestamps on a grid
        times = np.floor(times / grid) * grid
    return times


_CAT3 = CategoricalMatrix(((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6)))


def _label_model(rates=(1.3, 0.3, 2.0), periodic=True):
    mark = LabelMarginal((0.3, 0.3, 0.4))
    base = (PeriodicBaseline(10.0, (0.3, 0.8), mark) if periodic
            else HomogeneousBaseline(0.5, mark))
    return CascadeModel(base, (
        KernelComponent("cat", ConstantFertility(0.4), _CAT3, ExponentialDelay(rates[0])),
        KernelComponent("same", ConstantFertility(0.2), IdentityTransition(),
                        ExponentialDelay(rates[1])),
        KernelComponent("any", ConstantFertility(0.1),
                        PriorTransition(LabelMarginal((0.2, 0.5, 0.3))),
                        ExponentialDelay(rates[2]))))


def _composite_data(n=200, horizon=40.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.floor(rng.uniform(0, horizon, size=n) * 4) / 4
    types = rng.integers(1, 4, size=n)
    nodes = rng.choice(["u", "v", "w"], size=n)
    return Dataset([Event(float(t), CompositeMark(int(k), str(v)))
                    for t, k, v in zip(times, types, nodes)],
                   horizon=horizon, schema=CompositeSchema(3, frozenset({"u", "v", "w"})))


def _composite_model():
    return CascadeModel(
        HomogeneousBaseline(0.8, LabelMarginal((0.3, 0.3, 0.4))),
        (KernelComponent("self", ConstantFertility(0.3), _CAT3, ExponentialDelay(1.0),
                         sources=("u",)),
         KernelComponent("nbrs", ConstantFertility(0.2), IdentityTransition(),
                         ExponentialDelay(0.4), sources=("v", "w")),
         KernelComponent("none", ConstantFertility(0.2), _CAT3, ExponentialDelay(1.0),
                         sources=("absent",))))


# ---------------------------------------------------------------------------
# oracle tests


def test_label_transitions_match_reference():
    # identity, prior and categorical transitions, periodic baseline
    _assert_matches_reference(_label_model(), _label_data(_uniform_times(seed=1), seed=1))


def test_composite_sources_match_reference():
    d = _composite_data(seed=3)
    assert len(np.unique(d.times)) < len(d)  # ties really exist
    ref = _assert_matches_reference(_composite_model(), d)
    assert ref.comp_z[2] == 0.0  # no event comes from the absent source


def test_mask_and_interior_window_match_reference():
    d = _label_data(_uniform_times(grid=0.5, seed=4), seed=4)
    mask = np.zeros(len(d), dtype=bool)
    mask[::3] = True
    for children, window in ((mask, None), (None, (10.0, 30.0)), (mask, (10.0, 30.0))):
        _assert_matches_reference(_label_model(), d, children, window)
    dc = _composite_data(seed=5)
    _assert_matches_reference(_composite_model(), dc, np.arange(len(dc)) % 2 == 0, (5.0, 35.0))


def test_tie_group_straddling_a_block_cut():
    # unit-grid ties, and a group of 12 simultaneous events that would
    # straddle a 7-event cut after the 5 events before it
    times = np.concatenate([[0.0, 1.0, 1.0, 2.0, 2.0], np.full(12, 3.0),
                            np.floor(_uniform_times(n=80, horizon=20.0, seed=6)) + 4.0])
    d = _label_data(np.sort(times), seed=6)
    blocks = list(engine._scan_blocks(d.times, len(d), 7, np.inf))
    assert (5, 17) in blocks  # the group is cut out whole, longer than 7
    assert all(d.times[e] != d.times[e - 1] for _, e in blocks[:-1])
    _assert_matches_reference(_label_model(), d)


def test_bursts_beyond_underflow_match_reference():
    # rate * gap > 800: the first burst's decayed counts underflow to 0
    first = _uniform_times(n=60, horizon=5.0, seed=7)
    d = _label_data(np.concatenate([first, first + 5.0 + 850.0]), seed=7)
    _assert_matches_reference(_label_model(rates=(1.0, 1.2, 2.0), periodic=False), d)


def test_epoch_scale_times_match_reference():
    times = _uniform_times(n=150, horizon=60.0, grid=0.25, seed=8)
    _assert_matches_reference(_label_model(periodic=False), _label_data(times + 1.6e9, seed=8))


def test_burst_after_a_long_quiet_spell_matches_reference():
    # the block's first events sit about EXP_LIMIT / rate before a dense
    # burst, so each burst child's age-weighted sum is tiny next to
    # (child time - block start) * decayed count; summing it gap by gap
    # keeps it exact
    early = np.linspace(0.0, 10.0, 11)
    burst = 280.0 + np.arange(300) * 1e-5
    d = _label_data(np.concatenate([early, burst]), seed=9)
    model = _label_model(rates=(1.0, 0.05, 0.5), periodic=False)
    assert len(list(engine._scan_blocks(d.times, len(d), 1 << 20, DEFAULT_LIMIT))) == 1
    _assert_matches_reference(model, d)


def test_empty_inputs():
    model = _label_model()
    empty = Dataset([], horizon=5.0, schema=LabelSchema(3))
    stats = _scan(_untruncated(model), empty)
    assert stats.z_base.size == 0 and stats.comp_z.tolist() == [0.0, 0.0, 0.0]
    _assert_matches_reference(model, empty)
    # a window holding no children still sees every earlier event
    d = _label_data(np.array([1.0, 2.0, 8.0, 9.0]), seed=10, horizon=10.0)
    stats = _assert_matches_reference(model, d, window=(3.0, 7.0))
    assert not stats.intensity.any()
    bare = CascadeModel(HomogeneousBaseline(0.5, LabelMarginal((0.3, 0.3, 0.4))))
    stats = _assert_matches_reference(bare, _label_data(_uniform_times(seed=11), seed=11))
    np.testing.assert_array_equal(stats.z_base, 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), grid=st.sampled_from([None, 0.5, 1.0]),
       masked=st.booleans(), composite=st.booleans())
def test_block_sizes_agree(seed, grid, masked, composite):
    rng = np.random.default_rng(seed)
    if composite:
        d, model = _composite_data(int(rng.integers(1, 80)), seed=seed), _composite_model()
    else:
        n = int(rng.integers(1, 80))
        d = _label_data(_uniform_times(n, horizon=30.0, grid=grid, seed=seed), seed=seed)
        model = _label_model(rates=tuple(rng.uniform(0.05, 3.0, size=3)))
    model = _untruncated(model)
    children = rng.random(len(d)) < 0.6 if masked else None
    default = _scan(model, d, children)
    for size in (1, 7):
        _assert_close(_blocked(size, DEFAULT_LIMIT, model, d, children), default)


@pytest.mark.parametrize("size", [None, 1, 7])
def test_zero_intensity_names_the_first_such_event(size):
    # no baseline: only children with an earlier parent of their own label
    # have intensity; events 2 (tied with event 1) and 5 have none
    times, labels = [0.0, 0.5, 0.5, 1.0, 9.0, 9.5], [1, 1, 2, 2, 1, 3]
    d = Dataset([Event(t, LabelMark(l)) for t, l in zip(times, labels)],
                horizon=10.0, schema=LabelSchema(3))
    model = CascadeModel(
        HomogeneousBaseline(0.0, LabelMarginal((0.4, 0.3, 0.3))),
        (KernelComponent("k", ConstantFertility(0.5), IdentityTransition(),
                         ExponentialDelay(1.0)),), truncation_mass=0.0)
    children = np.arange(len(d)) >= 1
    with pytest.raises(NumericalError) as expected:
        _reference_scan(model, d, children)
    with pytest.raises(NumericalError) as got:
        _blocked(size, DEFAULT_LIMIT, model, d, children)
    assert str(got.value) == str(expected.value)
    assert "event 2 " in str(got.value)


def test_memory_is_bounded_by_the_block():
    # 50k events over 256 labels: one float per (event, label) would take
    # 102 MB; the scan holds a few arrays of PAIR_CHUNK floats at a time
    n, L = 50_000, 256
    rng = np.random.default_rng(12)
    d = _label_data(np.sort(rng.uniform(0, 25_000.0, size=n)), n_labels=L, seed=12)
    probs = np.full(L, 1.0 / L)
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal(tuple(probs))), (
        KernelComponent("same", ConstantFertility(0.3), IdentityTransition(),
                        ExponentialDelay(1.0)),
        KernelComponent("any", ConstantFertility(0.2), PriorTransition(LabelMarginal(
            tuple(probs))), ExponentialDelay(0.1))), truncation_mass=0.0)
    d.times, d.label_index  # cached columns belong to the dataset, not the scan
    tracemalloc.start()
    try:
        stats = _scan(model, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.intensity.size == n
    assert peak < 20 * engine.PAIR_CHUNK * 8, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# the truncated scan against the pairwise E-step


def _pairwise(model, d, children=None, window=None):
    return forced_estep(model, d, children, window, "stats", on_scan=False)[0]


def _assert_close_to_pairs(model, d, got, ref, children=None, window=None):
    """Every statistic of the scan against the pairwise E-step's, to RTOL.
    The delay samples differ in form (one summary per component against
    every pair), so their sums and the exponential refits are compared
    (for the components with exponential delays)."""
    for x, y in ((got.z_base, ref.z_base), (got.intensity, ref.intensity),
                 (got.comp_z, ref.comp_z), (got.comp_zdt, ref.comp_zdt)):
        np.testing.assert_allclose(x, y, rtol=RTOL, atol=0)
    kids = engine._child_ids(d, children, engine._resolve_window(d, window))
    lls = [float(np.log(s.intensity[kids]).sum()) - engine.compensator(model, d, window)
           for s in (got, ref)]
    assert lls[0] == pytest.approx(lls[1], rel=RTOL, abs=0)
    assert got.n_components == ref.n_components
    for comp, a, b in zip(model.components, got.components, ref.components):
        if b.transition is None and a.transition is not None:
            # the pairwise E-step keeps no statistic when it weighs no pair
            assert b.weights.size == 0 and not np.any(a.transition)
        else:
            assert (a.transition is None) == (b.transition is None)
        for x, y in ((a.transition, b.transition), (a.credits, b.credits)):
            if y is not None:
                np.testing.assert_allclose(x, y, rtol=RTOL, atol=0)
        if b.weights.sum() > 0 and comp.delay.decay_rate is not None:
            rates = [delay_mod.weighted_mle(comp.delay, s.deltas, s.weights).rate
                     for s in (a, b)]
            assert rates[0] == pytest.approx(rates[1], rel=RTOL, abs=0)


def _assert_scan_matches_pairs(model, d, children=None, window=None):
    ref = _pairwise(model, d, children, window)
    for size, limit in BLOCKINGS:
        got = _blocked(size, limit, model, d, children, window)
        _assert_close_to_pairs(model, d, got, ref, children, window)
    return ref


def _binary_data(n=240, horizon=50.0, width=3, grid=0.25, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(np.floor(rng.uniform(0, horizon, size=n) / grid) * grid)
    X = rng.integers(0, 2, size=(n, width))
    return Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                    for t, row in zip(times, X)],
                   horizon=horizon, schema=BinarySchema(tuple(f"f{k}" for k in range(width))))


_PRIOR = FeaturePrior((0.3, 0.6, 0.5))
_FERTILITIES = {
    "constant": ConstantFertility(0.3),
    "linear": LinearFertility(0.1, (0.1, 0.2, 0.05)),
    "multiplicative": MultiplicativeFertility((0.2, 1.3, 0.8, 1.1)),
    "combined": CombinedFertility((ConstantFertility(0.1),
                                   MultiplicativeFertility((0.1, 1.3, 0.8, 1.1)))),
}
_BINARY_TRANSITIONS = {
    "identity": IdentityTransition(),
    "prior": PriorTransition(_PRIOR),
    "feature_mixture": FeatureMixture(0.3, _PRIOR),
}


def _binary_model(fertility, transition, truncation=1e-6):
    return CascadeModel(HomogeneousBaseline(0.7, _PRIOR), (
        KernelComponent("k", fertility, transition, ExponentialDelay(1.1)),
        KernelComponent("slow", ConstantFertility(0.1), transition, ExponentialDelay(0.2))),
        truncation_mass=truncation)


@pytest.mark.parametrize("truncation", [1e-6, 0.05])
@pytest.mark.parametrize("transition", sorted(_BINARY_TRANSITIONS))
@pytest.mark.parametrize("fertility", sorted(_FERTILITIES))
def test_truncated_scan_on_binary_marks_matches_pairs(fertility, transition, truncation):
    d = _binary_data(seed=1)
    assert len(np.unique(d.times)) < len(d)  # ties really exist
    model = _binary_model(_FERTILITIES[fertility], _BINARY_TRANSITIONS[transition],
                          truncation)
    ref = _assert_scan_matches_pairs(model, d)
    assert ref.components[0].credits.size == len(d.feature_patterns[0])
    mask = np.arange(len(d)) % 3 > 0
    _assert_scan_matches_pairs(model, d, mask, (12.0, 40.0))


@pytest.mark.parametrize("truncation", [1e-9, 1e-6, 0.01, 0.3])
def test_truncated_scan_on_label_and_composite_marks_matches_pairs(truncation):
    d = _label_data(_uniform_times(grid=0.5, seed=13), seed=13)
    model = replace(_label_model(), truncation_mass=truncation)
    _assert_scan_matches_pairs(model, d)
    _assert_scan_matches_pairs(model, d, np.arange(len(d)) % 2 == 0, (10.0, 30.0))
    # sources-restricted components, one of which no event may parent
    dc = _composite_data(seed=14)
    ref = _assert_scan_matches_pairs(replace(_composite_model(), truncation_mass=truncation),
                                     dc)
    assert ref.comp_z[2] == 0.0


def test_truncated_scan_reads_only_children_and_parent_pools():
    # the events at w neither parent (the sources are at u) nor are
    # children, so dropping them changes no bit, as in the pairs
    d = _composite_data(n=300, seed=15)
    model = replace(_composite_model(), truncation_mass=1e-3)
    model = replace(model, components=model.components[:1])
    children = d.node_ids != "w"
    assert not children.all()
    whole = _scan(model, d, children)
    part = _scan(model, d.subset(np.nonzero(children)[0]))
    assert whole.intensity[children].tobytes() == part.intensity.tobytes()
    assert whole.components[0].transition.tobytes() == part.components[0].transition.tobytes()


def test_dense_burst_just_outside_the_cutoff():
    # a burst of 400 near-simultaneous events, all just past the later
    # children's windows: subtracting its decayed weight, most of each
    # child's untruncated sum at the larger tail masses, leaves the few
    # parents inside
    for truncation in (1e-6, 0.02, 0.2):
        cut = ExponentialDelay(1.0).cutoff(truncation)
        burst = np.arange(400) * 1e-7
        later = cut + 1e-4 + np.sort(np.random.default_rng(16).uniform(0, 3.0, size=40))
        d = _label_data(np.concatenate([burst, later]), seed=16)
        model = CascadeModel(HomogeneousBaseline(0.05, LabelMarginal((0.3, 0.3, 0.4))), (
            KernelComponent("k", ConstantFertility(0.5), _CAT3, ExponentialDelay(1.0)),
            KernelComponent("same", ConstantFertility(0.3), IdentityTransition(),
                            ExponentialDelay(1.0))), truncation_mass=truncation)
        children = d.times > burst[-1]
        assert np.all(d.times[children] - cut > burst[-1])  # no burst parent survives
        untruncated = _scan(_untruncated(model), d, children)
        scan = _scan(model, d, children)
        if truncation > 0.01:  # the burst outweighs the parents inside
            assert np.max(untruncated.intensity
                          / np.where(children, scan.intensity, 1.0)) > 2.0
        _assert_scan_matches_pairs(model, d, children)


def test_window_starts_straddling_block_cuts():
    # 7-event blocks: many children's windows start one or more blocks
    # before their own, and tied events sit on both sides of the cuts
    d = _label_data(_uniform_times(n=150, horizon=30.0, grid=0.25, seed=17), seed=17)
    model = replace(_label_model(rates=(1.3, 0.3, 2.0)), truncation_mass=1e-4)
    blocks = list(engine._scan_blocks(d.times, len(d), 7, np.inf))
    block_of = np.repeat(np.arange(len(blocks)), [e - s for s, e in blocks])
    for comp in model.components:
        cut = comp.delay.cutoff(model.truncation_mass)
        starts = np.searchsorted(d.times, d.times - cut, side="left")
        earlier = block_of[np.minimum(starts, len(d) - 1)] < block_of
        assert earlier.sum() > 50 and np.any(block_of - block_of[starts] > 1)
    _assert_scan_matches_pairs(model, d)


def _random_stream(seed, kind, grid):
    """A label, composite or binary stream of up to 90 events on (0, 30],
    a model of two or three exponential components for it, and the
    generator that drew them, for what the caller draws next."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 90))
    if kind == "label":
        d = _label_data(_uniform_times(n, horizon=30.0, grid=grid, seed=seed), seed=seed)
        return d, _label_model(rates=tuple(rng.uniform(0.05, 3.0, size=3))), rng
    if kind == "composite":
        return _composite_data(n, horizon=30.0, seed=seed), _composite_model(), rng
    d = _binary_data(n, horizon=30.0, grid=grid or 1e-9, seed=seed)
    fert = list(_FERTILITIES.values())[seed % 4]
    return d, _binary_model(fert, list(_BINARY_TRANSITIONS.values())[seed % 3]), rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["label", "composite", "binary"]),
       grid=st.sampled_from([None, 0.25, 1.0]), log_mass=st.floats(-12.0, -0.5),
       masked=st.booleans(), windowed=st.booleans())
def test_truncated_scan_matches_pairs_on_random_streams(seed, kind, grid, log_mass,
                                                        masked, windowed):
    d, model, rng = _random_stream(seed, kind, grid)
    model = replace(model, truncation_mass=10.0 ** log_mass)
    children = rng.random(len(d)) < 0.6 if masked else None
    window = (0.2 * d.horizon, 0.8 * d.horizon) if windowed else None
    ref = _pairwise(model, d, children, window)
    for size, limit in ((None, DEFAULT_LIMIT), (1, DEFAULT_LIMIT), (7, 1.0)):
        got = _blocked(size, limit, model, d, children, window)
        _assert_close_to_pairs(model, d, got, ref, children, window)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["label", "composite", "binary"]),
       grid=st.sampled_from([None, 0.25, 1.0]), log_mass=st.floats(-12.0, -0.5),
       masked=st.booleans(), windowed=st.booleans(),
       gamma=st.lists(st.booleans(), min_size=3, max_size=3))
def test_every_kernel_assignment_matches_all_pairs(seed, kind, grid, log_mass, masked,
                                                   windowed, gamma):
    # engine equivalence: each exponential component on the scan or on
    # pairs, in every combination, beside gamma components on pairs
    d, model, rng = _random_stream(seed, kind, grid)
    comps = tuple(replace(c, delay=GammaDelay(1.5, c.delay.rate)) if g else c
                  for c, g in zip(model.components, gamma))
    model = replace(model, components=comps, truncation_mass=10.0 ** log_mass)
    children = rng.random(len(d)) < 0.6 if masked else None
    window = (0.2 * d.horizon, 0.8 * d.horizon) if windowed else None
    ref = _pairwise(model, d, children, window)
    eligible = [c for c, comp in enumerate(comps) if comp.delay.decay_rate is not None]
    for chosen in itertools.product([False, True], repeat=len(eligible)):
        on_scan = [False] * len(comps)
        for c, scan in zip(eligible, chosen):
            on_scan[c] = scan
        got = forced_estep(model, d, children, window, "stats", on_scan=on_scan)[0]
        _assert_close_to_pairs(model, d, got, ref, children, window)


def test_truncated_memory_is_bounded_by_the_block():
    n, L = 50_000, 256
    rng = np.random.default_rng(18)
    d = _label_data(np.sort(rng.uniform(0, 25_000.0, size=n)), n_labels=L, seed=18)
    probs = tuple(np.full(L, 1.0 / L))
    model = CascadeModel(HomogeneousBaseline(1.0, LabelMarginal(probs)), (
        KernelComponent("same", ConstantFertility(0.3), IdentityTransition(),
                        ExponentialDelay(1.0)),
        KernelComponent("any", ConstantFertility(0.2), PriorTransition(LabelMarginal(probs)),
                        ExponentialDelay(0.1))), truncation_mass=1e-6)
    d.times, d.label_index
    tracemalloc.start()
    try:
        stats = _scan(model, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.intensity.size == n
    assert peak < 20 * engine.PAIR_CHUNK * 8, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# which kernel the E-step's one rule chooses


def _record_kernels(monkeypatch) -> list:
    """Each E-step's kernel per component, True for the scan."""
    calls, choose = [], engine._on_scan
    monkeypatch.setattr(engine, "_on_scan", lambda *a: calls.append(choose(*a)) or calls[-1])
    return calls


def test_graph_ring_node_windows_stay_pairwise(monkeypatch):
    # the benchmark's ring (edges i -> i+1 and i -> i+7, 6 types, horizon
    # 40): each node's fit sees about 60 events of three nodes, where the
    # candidate pairs are fewer than the scan's cells
    n, L = 20, 6
    names = [f"n{i:03d}" for i in range(n)]
    g = Graph(names, {names[i]: [names[(i + 1) % n], names[(i + 7) % n]] for i in range(n)})
    rows = tuple(tuple(0.75 if c == (r + 1) % L else 0.05 for c in range(L)) for r in range(L))
    d, _ = simulate_graph(g, 40.0, 1, type_marginal=(1 / L,) * L, base_rate=0.25,
                          self_rate=0.2, neighbor_rate=0.15,
                          transition=CategoricalMatrix(rows), delay=ExponentialDelay(1.0))
    calls = _record_kernels(monkeypatch)
    hyper = Hyperparams.uniform(L)
    sizes = []
    for v in names:
        dv = local_data(g, d, (v,))
        sizes.append(len(dv))
        fit_node(g, dv, v, "shared_transition", hyper, 10.0, max_iters=4)
    assert 40 < np.median(sizes) < 90
    assert calls and not any(map(any, calls))


def test_long_dense_windows_take_the_scan(monkeypatch):
    # binary marks with a slow kernel: each child has about 60 candidate
    # parents and the scan walks 2 * 8 cells per event
    rng = np.random.default_rng(19)
    n = 1200
    times = np.sort(rng.uniform(0, 400.0, size=n))
    X = rng.integers(0, 2, size=(n, 3))
    d = Dataset([Event(float(t), BinaryMark(tuple(int(b) for b in row)))
                 for t, row in zip(times, X)], horizon=400.0,
                schema=BinarySchema(("a", "b", "c")))
    model = CascadeModel(HomogeneousBaseline(0.7, _PRIOR), (KernelComponent(
        "k", _FERTILITIES["multiplicative"], _BINARY_TRANSITIONS["feature_mixture"],
        ExponentialDelay(0.6)),))
    calls = _record_kernels(monkeypatch)
    report = fit(model, d, max_iters=3, tol=0.0, engine="direct")
    assert report.engine == "direct" and calls == [[True]] * 4
    ll = log_likelihood(report.model, d)
    assert calls == [[True]] * 5
    monkeypatch.setattr(engine, "FAST_MAX_LABELS", 0)  # no component qualifies
    assert log_likelihood(report.model, d) == pytest.approx(ll, rel=RTOL, abs=0)
    pairwise = fit(model, d, max_iters=3, tol=0.0, engine="direct")
    assert calls[5:] == [[False]] * 5
    np.testing.assert_allclose(report.ll_trace, pairwise.ll_trace, rtol=1e-10, atol=0)


def test_compare_gamma_entry_scans_its_exponential_component(monkeypatch):
    # the benchmark's labels-long stream at seed 1 and the gamma model its
    # compare fits on the training split: "fast" has tens of candidate
    # parents per child, "slow" hundreds, but only "fast" may scan
    cat4 = [[0.55 if r == c else 0.15 for c in range(4)] for r in range(4)]
    truth = parse_model({
        "baseline": {"kind": "homogeneous", "rate": 0.8,
                     "mark": {"kind": "labels", "probs": [0.4, 0.3, 0.2, 0.1]}},
        "components": [
            {"name": "fast", "fertility": {"kind": "constant", "rate": 0.35},
             "transition": {"kind": "categorical", "matrix": cat4},
             "delay": {"kind": "exponential", "rate": 1.0}},
            {"name": "slow", "fertility": {"kind": "constant", "rate": 0.25},
             "transition": {"kind": "prior",
                            "mark": {"kind": "labels", "probs": [0.1, 0.2, 0.3, 0.4]}},
             "delay": {"kind": "exponential", "rate": 0.05}}]})
    train, _ = split(simulate(truth, 5000.0, seed=1)[0], 0.8)
    model = parse_model({
        "baseline": {"kind": "homogeneous", "rate": 0.5, "mark": {"kind": "empirical"}},
        "components": [
            {"name": "fast", "fertility": {"kind": "constant", "rate": 0.2},
             "transition": {"kind": "categorical", "matrix": [[0.25] * 4] * 4},
             "delay": {"kind": "exponential", "rate": 0.8}},
            {"name": "slow", "fertility": {"kind": "constant", "rate": 0.2},
             "transition": {"kind": "prior", "mark": {"kind": "empirical"}},
             "delay": {"kind": "gamma", "shape": 2.0, "rate": 0.1}}]}, data=train)
    assert len(train) > 7000
    calls = _record_kernels(monkeypatch)
    report = fit(model, train, max_iters=1, tol=0.0)
    assert report.engine == "direct" and report.iterations == 1
    assert len(calls) >= 2 and all(c == [True, False] for c in calls)


def test_few_pairs_stay_on_pairs(monkeypatch):
    # about 3,000 candidate pairs against 480 walked cells: fewer cells,
    # but fewer pairs than the scan's set-up costs
    d = _label_data(_uniform_times(n=80, horizon=40.0, seed=20), seed=20)
    model = CascadeModel(HomogeneousBaseline(0.5, LabelMarginal((0.3, 0.3, 0.4))), (
        KernelComponent("k", ConstantFertility(0.3), _CAT3, ExponentialDelay(0.3)),))
    calls = _record_kernels(monkeypatch)
    ll = log_likelihood(model, d)
    monkeypatch.setattr(engine, "SCAN_MIN_PAIRS", 0)
    assert log_likelihood(model, d) == pytest.approx(ll, rel=RTOL, abs=0)
    assert calls == [[False], [True]]


def test_fast_engine_is_the_direct_engine_at_zero_mass(monkeypatch):
    # 80 events have fewer untruncated pairs than SCAN_MIN_PAIRS, yet the
    # rule puts every untruncated component the scan covers on the scan,
    # so both fits run the same E-steps
    d = _label_data(_uniform_times(n=80, horizon=40.0, seed=20), seed=20)
    assert len(d) * (len(d) - 1) // 2 < engine.SCAN_MIN_PAIRS
    model = _label_model(periodic=False)
    assert model.truncation_mass == 1e-6
    calls, windows, pair_window = _record_kernels(monkeypatch), [], engine._pair_window
    monkeypatch.setattr(engine, "_pair_window", lambda *a: windows.append(a) or pair_window(*a))
    fast = fit(model, d, max_iters=5, tol=0.0, engine="fast")
    assert calls and all(c == [True, True, True] for c in calls)
    assert windows == []  # no untruncated pair window is built for the scan
    calls[:] = []
    direct = fit(_untruncated(model), d, max_iters=5, tol=0.0, engine="direct")
    assert calls and all(c == [True, True, True] for c in calls)
    assert fast.iterations == direct.iterations == 5
    assert fast.ll_trace == direct.ll_trace
    assert fast.model.truncation_mass == model.truncation_mass
    assert replace(fast.model, truncation_mass=0.0) == direct.model
    # a held-out score reads the model as given, here on pairs
    calls[:] = []
    held = fit(model, d, max_iters=1, tol=0.0, engine="fast", heldout=(d, None, None))
    assert held.heldout_trace[0] == log_likelihood(model, d) != fast.ll_trace[0]
    assert calls[0] == [False, False, False]
