"""Regression, winner classification, shares and orphan timing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.analytics import (
    AnalyticsError,
    CLASS_EARLY,
    CLASS_HIGHEST,
    CLASS_LATE,
    STATUS_CANONICAL,
    STATUS_MISSED,
    STATUS_ORPHANED,
    attestation_share,
    classify_winner,
    fit_marginal_value,
    orphan_comparison,
    reorg_vulnerable,
    residualize,
    unrealized_value,
)
from timinggames.relaydata import BidRecord

LAMBDA = 5.71e-6


def make_bid(slot=0, builder="b", block_hash="h", value_wei=0, arrival=0):
    return BidRecord(
        slot=slot,
        relay_id="r",
        builder_id=builder,
        block_hash=block_hash,
        value_wei=value_wei,
        num_transactions=0,
        arrival_ms=arrival,
    )


# -- residualize --------------------------------------------------------------


def test_residualize_single_group_demeans():
    values = [1.0, 2.0, 6.0]
    res = residualize(values, [0, 0, 0], ["b", "b", "b"])
    assert np.allclose(res, np.array(values) - 3.0)


def test_residualize_perfectly_explained():
    values = [5.0, 5.0, 7.0, 7.0]
    res = residualize(values, [0, 0, 1, 1], ["b"] * 4)
    assert np.max(np.abs(res)) < 1e-12


def test_residualize_recovers_noise_component():
    rng = np.random.default_rng(0)
    n = 5000
    slots = rng.integers(0, 40, n)
    builders = rng.integers(0, 8, n)
    slot_fx = rng.normal(0, 3, 40)
    builder_fx = rng.normal(0, 2, 8)
    eps = rng.normal(0, 1e-3, n)
    values = slot_fx[slots] + builder_fx[builders] + eps
    res = residualize(values, slots.tolist(), builders.tolist())
    # Residuals equal eps minus its own two-way projection; with small eps
    # the difference from eps itself stays tiny.
    eps_proj = residualize(eps, slots.tolist(), builders.tolist())
    assert np.max(np.abs(res - eps_proj)) < 1e-8


def test_residualize_zero_group_means():
    rng = np.random.default_rng(1)
    n = 2000
    slots = rng.integers(0, 25, n).tolist()
    builders = rng.integers(0, 6, n).tolist()
    values = rng.normal(0, 1, n)
    res = residualize(values, slots, builders)
    for group_of in (slots, builders):
        sums, counts = {}, {}
        for g, r in zip(group_of, res):
            sums[g] = sums.get(g, 0.0) + r
            counts[g] = counts.get(g, 0) + 1
        for g in sums:
            assert abs(sums[g] / counts[g]) < 1e-8


def test_residualize_length_mismatch():
    with pytest.raises(AnalyticsError):
        residualize([1.0], [0, 1], ["b"])


def _dense_residuals(values, slots, builders):
    """Least squares on dense one-hot slot and builder dummies."""
    s_index = {k: i for i, k in enumerate(dict.fromkeys(slots))}
    b_index = {k: i for i, k in enumerate(dict.fromkeys(builders))}
    x = np.zeros((len(values), len(s_index) + len(b_index)))
    for row, (slot, builder) in enumerate(zip(slots, builders)):
        x[row, s_index[slot]] = 1.0
        x[row, len(s_index) + b_index[builder]] = 1.0
    y = np.asarray(values, dtype=float)
    return y - x @ np.linalg.lstsq(x, y, rcond=None)[0]


def _alternating_demeaning(values, slots, builders, tolerance=1e-15, max_iter=10_000):
    """Slot then builder group demeaning, repeated until it stops moving."""
    r = np.asarray(values, dtype=float).copy()
    groups = [np.unique(np.asarray(g), return_inverse=True)[1] for g in (slots, builders)]
    for _ in range(max_iter):
        before = r.copy()
        for codes in groups:
            r -= (np.bincount(codes, r) / np.bincount(codes))[codes]
        if np.max(np.abs(r - before)) < tolerance:
            return r
    raise AssertionError("alternating demeaning did not converge")


def _two_component_panel(rng):
    """Unbalanced: slots 0-29 draw builders a-d, slots 30-59 builders e-g,
    each present builder with 1-4 bids; no builder spans both halves."""
    slots, builders = [], []
    for slot in range(60):
        pool = "abcd" if slot < 30 else "efg"
        present = rng.choice(list(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False)
        for builder in present:
            k = int(rng.integers(1, 5))
            slots += [slot] * k
            builders += [str(builder)] * k
    return slots, builders


def test_residualize_matches_dense_one_hot_fit():
    rng = np.random.default_rng(21)
    slots, builders = _two_component_panel(rng)
    values = rng.normal(0.0, 1.0, len(slots)) + 5.0 * np.asarray([ord(b) for b in builders])
    got = residualize(values, slots, builders)
    want = _dense_residuals(values, slots, builders)
    assert np.max(np.abs(got - want)) < 1e-10


def test_residualize_matches_alternating_demeaning_balanced():
    rng = np.random.default_rng(22)
    slots = [s for s in range(12) for _ in range(5) for _ in range(3)]
    builders = [b for _ in range(12) for b in range(5) for _ in range(3)]
    values = rng.normal(0.0, 1.0, len(slots)) + rng.normal(0, 3, 12)[slots]
    got = residualize(values, slots, builders)
    want = _alternating_demeaning(values, slots, builders)
    assert np.max(np.abs(got - want)) < 1e-10


def test_residualize_columns_together_equal_one_by_one():
    rng = np.random.default_rng(23)
    slots, builders = _two_component_panel(rng)
    panel = rng.normal(size=(len(slots), 2)) * [1e-3, 1e3]
    together = residualize(panel, slots, builders)
    for j in range(2):
        assert np.array_equal(together[:, j], residualize(panel[:, j], slots, builders))


def test_residualize_builds_no_slot_by_builder_array():
    # 20 000 slots x 300 builders would take 48 MB dense.
    rng = np.random.default_rng(24)
    starts = rng.integers(-60, 20_000, 300)
    slots, builders = [], []
    for slot in range(20_000):
        active = np.flatnonzero((starts <= slot) & (slot < starts + 60))
        for builder in active if len(active) else (slot % 300,):
            slots.append(slot)
            builders.append(int(builder))
    values = rng.normal(size=len(slots))
    tracemalloc.start()
    try:
        residualize(values, slots, builders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_residualize_raises_on_inaccurate_solve(monkeypatch):
    rng = np.random.default_rng(25)
    slots, builders = _two_component_panel(rng)
    values = rng.normal(size=len(slots))

    def no_solve(a, b, rcond=None):
        return np.zeros((a.shape[1],) + b.shape[1:]), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    with pytest.raises(AnalyticsError, match="inaccurate"):
        residualize(values, slots, builders)


# -- fit_marginal_value -------------------------------------------------------


def test_fit_exact_line():
    t = np.arange(0, 1001, dtype=float)
    y = LAMBDA * t
    result = fit_marginal_value(t, y - y.mean())
    assert result.slope == pytest.approx(LAMBDA, rel=1e-12)
    assert result.r_squared == pytest.approx(1.0)


def test_fit_constant_residuals():
    t = np.arange(10, dtype=float)
    result = fit_marginal_value(t, np.zeros(10))
    assert result.slope == 0.0


def test_fit_degenerate_times():
    with pytest.raises(AnalyticsError):
        fit_marginal_value([5.0, 5.0], [1.0, 2.0])


def test_fit_noisy_recovery():
    rng = np.random.default_rng(2)
    n = 100_000
    t = rng.uniform(-12000, 12000, n)
    y = LAMBDA * t + rng.normal(0, 0.005, n)
    result = fit_marginal_value(t, y)
    assert result.slope == pytest.approx(LAMBDA, rel=0.01)
    assert result.n == n


def test_regression_invariant_to_per_slot_offsets():
    rng = np.random.default_rng(3)
    n_slots, per_slot = 50, 40
    slots = np.repeat(np.arange(n_slots), per_slot)
    t = np.tile(np.linspace(0, 12000, per_slot), n_slots)
    builders = ["b"] * len(t)
    base_values = LAMBDA * t
    shifted = base_values + rng.normal(0, 5, n_slots)[slots]
    s0 = fit_marginal_value(t, residualize(base_values, slots.tolist(), builders)).slope
    s1 = fit_marginal_value(t, residualize(shifted, slots.tolist(), builders)).slope
    assert s1 == pytest.approx(s0, abs=1e-8)


# -- classify_winner ----------------------------------------------------------


def test_classify_unique_highest():
    winner = make_bid(value_wei=5, arrival=10)
    timing = classify_winner(winner, [winner, make_bid(value_wei=3, arrival=0,
                                                       block_hash="x")])
    assert timing.winner_class == CLASS_HIGHEST
    assert timing.delta_v_eth == 0.0


def test_classify_early_winner():
    winner = make_bid(slot=1, value_wei=46 * 10**15, arrival=299, block_hash="w")
    higher = make_bid(slot=1, value_wei=50 * 10**15, arrival=800, block_hash="x")
    timing = classify_winner(winner, [winner, higher])
    assert timing.winner_class == CLASS_EARLY
    assert timing.delta_t_ms == 501
    assert timing.delta_v_eth == pytest.approx(0.004)


def test_classify_late_winner():
    higher = make_bid(value_wei=10**16, arrival=100, block_hash="x")
    winner = make_bid(value_wei=10**16 - 8 * 10**14, arrival=492, block_hash="w")
    timing = classify_winner(winner, [winner, higher])
    assert timing.winner_class == CLASS_LATE
    assert timing.delta_t_ms == -392
    assert timing.delta_v_eth == pytest.approx(0.0008)


def test_classify_requires_membership():
    with pytest.raises(AnalyticsError):
        classify_winner(make_bid(block_hash="absent"), [make_bid(block_hash="x")])


def test_classify_highest_tie_breaks_to_earliest_then_hash():
    a = make_bid(value_wei=5, arrival=100, block_hash="bbb")
    b = make_bid(value_wei=5, arrival=50, block_hash="ccc")
    c = make_bid(value_wei=5, arrival=50, block_hash="aaa")
    timing = classify_winner(a, [a, b, c])
    assert timing.highest_arrival_ms == 50
    # Tie on arrival resolved by lexicographic hash: "aaa" is the highest.
    assert timing.winner_class == CLASS_HIGHEST  # equal value still HIGHEST


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_classify_trichotomy_and_nonnegative_delta(data):
    n = data.draw(st.integers(1, 8))
    bids = []
    for i in range(n):
        bids.append(
            make_bid(
                value_wei=data.draw(st.integers(0, 5)) * 10**15,
                arrival=data.draw(st.integers(0, 1000)),
                block_hash=f"h{i}",
            )
        )
    winner = bids[data.draw(st.integers(0, n - 1))]
    timing = classify_winner(winner, bids)
    assert timing.winner_class in {CLASS_EARLY, CLASS_LATE, CLASS_HIGHEST}
    assert timing.delta_v_eth >= 0.0
    max_value = max(b.value_wei for b in bids)
    assert (timing.winner_class == CLASS_HIGHEST) == (winner.value_wei == max_value)


# -- unrealized_value ---------------------------------------------------------


def _timing(cls, delta_v=0.0, delta_t=0):
    from timinggames.analytics import WinnerTiming

    return WinnerTiming(
        slot=0,
        winner_arrival_ms=0,
        highest_arrival_ms=delta_t,
        delta_t_ms=delta_t,
        delta_v_eth=delta_v,
        winner_class=cls,
    )


def test_unrealized_all_highest():
    for n in (3, 0):
        agg = unrealized_value([_timing(CLASS_HIGHEST) for _ in range(n)])
        # Float zeros, written as 0.0 in the summary's float columns.
        assert repr(agg["unrealized_eth"]) == repr(agg["realizable_eth"]) == "0.0"
        assert agg["median_delta_t_ms"] is None
        assert agg["highest_count"] == n


def test_unrealized_sums_early():
    agg = unrealized_value(
        [_timing(CLASS_EARLY, 0.01, 500), _timing(CLASS_EARLY, 0.02, 900),
         _timing(CLASS_LATE, 0.005, -100)]
    )
    assert agg["unrealized_eth"] == pytest.approx(0.03)
    assert agg["realizable_eth"] == pytest.approx(0.005)
    assert agg["median_delta_t_ms"] == 500
    assert agg["early_count"] == 2 and agg["late_count"] == 1


# -- shares and vulnerability -------------------------------------------------


def test_attestation_share_values():
    gwei = 32 * 10**9
    assert attestation_share(0, 100 * gwei) == 0.0
    assert attestation_share(98 * gwei, 100 * gwei) == pytest.approx(0.98)
    assert attestation_share(39 * gwei, 100 * gwei) == pytest.approx(0.39)


def test_attestation_share_clamped_and_validated():
    assert attestation_share(200, 100) == 1.0
    with pytest.raises(AnalyticsError):
        attestation_share(1, 0)


@given(st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_attestation_share_monotone(a, b):
    committee = 100 * 32 * 10**9
    lo, hi = sorted((a, b))
    assert attestation_share(lo * 32 * 10**9, committee) <= attestation_share(
        hi * 32 * 10**9, committee
    )


def test_reorg_vulnerable_boundaries():
    assert reorg_vulnerable(0.399) is True
    assert reorg_vulnerable(0.400) is False
    assert reorg_vulnerable(0.98) is False


# -- orphan_comparison --------------------------------------------------------


def test_orphan_comparison_hand_example():
    blocks = [
        {"arrival_ms": 1000, "status": STATUS_ORPHANED},
        {"arrival_ms": 1230, "status": STATUS_ORPHANED},
        {"arrival_ms": 100, "status": STATUS_CANONICAL},
        {"arrival_ms": 200, "status": STATUS_CANONICAL},
        {"arrival_ms": 1300, "status": STATUS_CANONICAL},
    ]
    report = orphan_comparison(blocks)
    assert report.median_orphaned_arrival_ms == 1115
    assert report.median_nonorphaned_arrival_ms == 200
    assert report.late_nonorphaned_count == 1
    assert report.considered_count == 1  # only the 1300ms block postdates 1000ms
    assert report.orphaned_count == 2
    assert report.missed_count == 0


def test_orphan_comparison_no_orphans():
    report = orphan_comparison(
        [{"arrival_ms": 100, "status": STATUS_CANONICAL},
         {"arrival_ms": None, "status": STATUS_MISSED}]
    )
    assert report.median_orphaned_arrival_ms is None
    assert report.orphaned_count == 0
    assert report.missed_count == 1
    assert report.late_nonorphaned_count == 0


def test_orphan_comparison_rejects_unknown_status():
    with pytest.raises(AnalyticsError):
        orphan_comparison([{"arrival_ms": 1, "status": "weird"}])


def test_orphan_fraction_fixture_scale():
    blocks = [{"arrival_ms": 1100, "status": STATUS_ORPHANED} for _ in range(28)]
    blocks += [{"arrival_ms": 150, "status": STATUS_CANONICAL} for _ in range(12472)]
    report = orphan_comparison(blocks)
    total = report.orphaned_count + 12472
    assert report.orphaned_count / total == pytest.approx(0.00224, abs=1e-5)
