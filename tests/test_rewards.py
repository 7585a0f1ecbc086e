"""Reward arithmetic against exact rational oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.rewards import RewardError, base_reward, compare_rewards

GWEI = 10**9


def oracle_base_reward(effective, active, factor=64):
    # Exact rational value rounded to the nearest gwei, half away from zero.
    exact = Fraction(effective * factor, math.isqrt(active))
    return (2 * exact.numerator + exact.denominator) // (2 * exact.denominator)


def test_base_reward_headline_value():
    assert base_reward(32 * GWEI, 16 * 10**15) == 16191


def test_base_reward_zero_effective():
    assert base_reward(0, 16 * 10**15) == 0


def test_base_reward_zero_active_rejected():
    with pytest.raises(RewardError):
        base_reward(32 * GWEI, 0)


def test_base_reward_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        effective = int(rng.integers(1, 2048)) * GWEI
        active = int(rng.integers(10**6, 10**9)) * GWEI
        assert base_reward(effective, active) == oracle_base_reward(effective, active)


def test_base_reward_decreasing_in_active_balance():
    r1 = base_reward(32 * GWEI, 16 * 10**15)
    r2 = base_reward(32 * GWEI, 32 * 10**15)
    assert r2 < r1


@given(
    effective=st.integers(0, 2048 * GWEI),
    active=st.integers(GWEI, 10**10 * GWEI),
    bump=st.integers(1, GWEI),
)
@settings(max_examples=200, deadline=None)
def test_base_reward_monotone(effective, active, bump):
    assert base_reward(effective + bump, active) >= base_reward(effective, active)
    assert base_reward(effective, active + bump) <= base_reward(effective, active)


def test_compare_rewards_single_block():
    result = compare_rewards([{"epoch": 0, "mev_eth": 0.048, "proposal_eth": 0.034}])
    assert result.median_mev_eth == pytest.approx(0.048)
    assert result.median_proposal_eth == pytest.approx(0.034)
    assert result.median_mev_eth - result.median_proposal_eth == pytest.approx(0.014)


def test_compare_rewards_symmetric_share():
    blocks = [{"epoch": e, "mev_eth": 0.1, "proposal_eth": 0.1} for e in range(4)]
    assert compare_rewards(blocks).mev_share_of_total == pytest.approx(0.5)


def test_compare_rewards_matches_sort_oracle_and_permutation():
    rng = np.random.default_rng(3)
    blocks = [
        {
            "epoch": int(rng.integers(0, 5)),
            "mev_eth": float(rng.random()),
            "proposal_eth": float(rng.random()),
        }
        for _ in range(100)
    ]
    result = compare_rewards(blocks)
    mev_sorted = sorted(b["mev_eth"] for b in blocks)
    median_oracle = (mev_sorted[49] + mev_sorted[50]) / 2
    assert result.median_mev_eth == pytest.approx(median_oracle, rel=0, abs=1e-15)
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    assert compare_rewards(shuffled) == result


def test_compare_rewards_empty():
    result = compare_rewards([])
    assert result.median_mev_eth is None
    assert result.mev_share_of_total is None
