"""The consensus-layer base reward, and MEV against proposal rewards.

``base_reward`` is exact integer gwei arithmetic (``math.isqrt``, multiplying
before dividing), so results are exactly reproducible.  ``compare_rewards``
sets per-block MEV beside protocol proposal rewards, in ETH.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

BASE_REWARD_FACTOR = 64


class RewardError(Exception):
    """Invalid balance input."""


def base_reward(effective_balance_gwei: int, active_balance_gwei: int) -> int:
    """effective × factor / isqrt(active), rounded to the nearest gwei
    (half away from zero), in exact integer arithmetic."""
    if active_balance_gwei <= 0:
        raise RewardError("active balance must be positive")
    s = math.isqrt(active_balance_gwei)
    num = effective_balance_gwei * BASE_REWARD_FACTOR
    return (2 * num + s) // (2 * s)


@dataclass(frozen=True)
class RewardComparison:
    per_epoch: dict  # epoch -> (median_mev_eth, median_proposal_eth)
    median_mev_eth: float | None
    median_proposal_eth: float | None
    mev_share_of_total: float | None


def compare_rewards(per_block: Sequence[dict]) -> RewardComparison:
    """Per-epoch and overall medians of MEV and proposal rewards (ETH), plus
    the MEV fraction of the combined total.

    Results are invariant under input permutation.
    """
    by_epoch: dict = {}
    mev_all = []
    proposal_all = []
    for rec in per_block:
        by_epoch.setdefault(rec["epoch"], ([], []))
        m, p = by_epoch[rec["epoch"]]
        m.append(rec["mev_eth"])
        p.append(rec["proposal_eth"])
        mev_all.append(rec["mev_eth"])
        proposal_all.append(rec["proposal_eth"])
    per_epoch = {
        epoch: (statistics.median(m), statistics.median(p))
        for epoch, (m, p) in sorted(by_epoch.items())
    }
    # fsum keeps the share permutation-invariant (exactly rounded sums).
    mev_total = math.fsum(mev_all)
    total = mev_total + math.fsum(proposal_all)
    return RewardComparison(
        per_epoch=per_epoch,
        median_mev_eth=statistics.median(mev_all) if mev_all else None,
        median_proposal_eth=statistics.median(proposal_all) if proposal_all else None,
        mev_share_of_total=mev_total / total if total > 0 else None,
    )
