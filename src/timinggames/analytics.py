"""Bid-timing analytics: marginal value of waiting, winner classification,
attestation shares and orphaned-block timing.

The regression is the two-way within estimator: ``residualize`` strips slot
and builder fixed effects from bid value and from arrival time by an exact
solve, then ``fit_marginal_value`` fits residual value on residual arrival
time by ordinary least squares (Frisch-Waugh-Lovell).  The slope is the
marginal ETH value of one extra millisecond of waiting.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .relaydata import BidRecord

REORG_SHARE_THRESHOLD = 0.40
# Largest accepted normal-equation residual of the builder solve, relative to
# the scale of its terms; a sound solve sits near 1e-15.
SOLVE_TOLERANCE = 1e-9
# Slot-builder pairs expanded at once while the builder system is assembled.
PAIR_BLOCK = 1 << 18

CLASS_EARLY = "EARLY"
CLASS_LATE = "LATE"
CLASS_HIGHEST = "HIGHEST"

STATUS_CANONICAL = "canonical"
STATUS_ORPHANED = "orphaned"
STATUS_MISSED = "missed"


class AnalyticsError(Exception):
    """Invalid analysis input."""


@dataclass(frozen=True)
class RegressionResult:
    slope: float  # ETH per millisecond
    intercept: float
    n: int
    r_squared: float


class WinnerTiming(NamedTuple):
    """One delivered slot's winner against its highest bid; the fields are
    the columns of ``analyze winners``, in order."""

    slot: int
    winner_arrival_ms: int
    highest_arrival_ms: int
    delta_t_ms: int
    delta_v_eth: float
    winner_class: str


@dataclass(frozen=True)
class OrphanReport:
    orphaned_count: int
    missed_count: int
    median_orphaned_arrival_ms: float | None
    median_nonorphaned_arrival_ms: float | None
    late_nonorphaned_count: int
    considered_count: int


def residualize(values, slot_ids: Sequence, builder_ids: Sequence) -> np.ndarray:
    """Two-way (slot, builder) fixed-effect residuals, by an exact solve.

    ``values`` is a sequence of n numbers, or an (n, k) array whose columns
    are residualized together.  Slot effects are eliminated by group means;
    the builder effects then solve the B x B normal equations built from the
    (slot, builder) cells, by least squares, so builders in separate
    connected components need no reference level and the residuals do not
    depend on one (Guimaraes & Portugal 2010).  Memory is O(n + B^2): no
    slot x builder array is formed.  Raises ``AnalyticsError`` when the
    solve misses the normal equations by more than ``SOLVE_TOLERANCE``.
    """
    if not (len(values) == len(slot_ids) == len(builder_ids)):
        raise AnalyticsError("values, slot_ids and builder_ids must align")
    if len(values) == 0:
        raise AnalyticsError("empty input")
    v = np.asarray(values, dtype=np.float64)
    columns = v.reshape(len(v), -1)
    s, n_slots = _codes(slot_ids)
    b, n_builders = _codes(builder_ids)
    slot_sizes = np.bincount(s, minlength=n_slots).astype(np.float64)

    r = columns - _group_means(s, columns, slot_sizes)
    rhs = _group_sums(b, r, n_builders)
    normal = _builder_normal_matrix(s, b, slot_sizes, n_builders)
    try:
        effects = np.linalg.lstsq(normal, rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise AnalyticsError(f"fixed-effect solve failed: {exc}") from exc
    # Rounding in the builder sums is of order eps * sum|r|, and that in the
    # solve of order eps * |normal| |effects|.
    miss = np.linalg.norm(normal @ effects - rhs, axis=0)
    scale = (
        np.linalg.norm(normal) * np.linalg.norm(effects, axis=0)
        + np.linalg.norm(_group_sums(b, np.abs(r), n_builders), axis=0)
    )
    if not np.all(miss <= SOLVE_TOLERANCE * scale):
        raise AnalyticsError(
            f"fixed-effect solve is inaccurate: normal-equation residual "
            f"{float(np.max(miss / np.where(scale > 0, scale, 1.0))):.2e} of scale"
        )
    fx = effects[b]
    r -= fx - _group_means(s, fx, slot_sizes)
    return r.reshape(v.shape)


def _group_sums(codes, x, size: int) -> np.ndarray:
    """Per-group sums of each column of the (n, k) array ``x``: (size, k)."""
    return np.stack([np.bincount(codes, col, size) for col in x.T], axis=1)


def _group_means(codes, x, sizes) -> np.ndarray:
    """Each row's group mean of each column of ``x``: (n, k)."""
    return (_group_sums(codes, x, len(sizes)) / sizes[:, None])[codes]


def _builder_normal_matrix(s, b, slot_sizes, n_builders: int) -> np.ndarray:
    """``diag(N_b) - C^T diag(1/N_s) C`` for the slot x builder count matrix C.

    C is never formed: its nonzero cells are expanded into the pairs of cells
    that share a slot, at most ``PAIR_BLOCK`` pairs (or one slot) at a time.
    """
    keys = s.astype(np.int64) * n_builders + b
    cells, count = np.unique(keys, return_counts=True)
    cell_slot = cells // n_builders
    cell_builder = cells % n_builders
    # Cells are sorted by slot: the cells of slot i are first[i]:first[i + 1].
    first = np.searchsorted(cell_slot, np.arange(len(slot_sizes) + 1))
    width = np.diff(first)[cell_slot]  # cells in each cell's slot
    weight = count / slot_sizes[cell_slot]
    pairs_before = np.concatenate(([0], np.cumsum(width)))
    slot_pairs = pairs_before[first]
    out = np.zeros(n_builders * n_builders)
    i = 0
    while i < len(slot_sizes):
        # Slots i:j, holding at most PAIR_BLOCK pairs, or one slot.
        j = int(np.searchsorted(slot_pairs, slot_pairs[i] + PAIR_BLOCK, "right")) - 1
        j = max(j, i + 1)
        lo, hi = first[i], first[j]
        reps = width[lo:hi]
        left = np.repeat(np.arange(lo, hi), reps)
        run_start = np.repeat(pairs_before[lo:hi] - pairs_before[lo], reps)
        right = np.arange(len(left)) - run_start + np.repeat(first[cell_slot[lo:hi]], reps)
        out += np.bincount(
            cell_builder[left] * n_builders + cell_builder[right],
            weight[left] * count[right],
            n_builders * n_builders,
        )
        i = j
    normal = -out.reshape(n_builders, n_builders)
    normal[np.diag_indices(n_builders)] += np.bincount(b, minlength=n_builders)
    return normal


def _codes(ids: Sequence):
    """Dense integer codes in first-seen order, and how many there are."""
    index = {key: code for code, key in enumerate(dict.fromkeys(ids))}
    codes = np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))
    return codes, len(index)


def fit_marginal_value(
    arrival_ms: Sequence[float], residuals: Sequence[float]
) -> RegressionResult:
    """OLS of residual bid value (ETH) on arrival time (ms)."""
    t = np.asarray(arrival_ms, dtype=np.float64)
    y = np.asarray(residuals, dtype=np.float64)
    if t.shape != y.shape:
        raise AnalyticsError("arrival times and residuals must align")
    n = t.size
    if n < 2:
        raise AnalyticsError("need at least 2 observations")
    t_c = t - t.mean()
    sxx = float(t_c @ t_c)
    if sxx == 0.0:
        raise AnalyticsError("arrival times are all identical")
    y_c = y - y.mean()
    slope = float(t_c @ y_c) / sxx
    intercept = float(y.mean() - slope * t.mean())
    syy = float(y_c @ y_c)
    if syy == 0.0:
        r2 = 1.0 if slope == 0.0 else 0.0
    else:
        resid = y - (intercept + slope * t)
        r2 = max(0.0, min(1.0, 1.0 - float(resid @ resid) / syy))
    return RegressionResult(slope=slope, intercept=intercept, n=n, r_squared=r2)


def _highest_bid(slot_bids: Sequence[BidRecord]) -> BidRecord:
    # Ties: earliest arrival, then lexicographic block hash.
    return min(slot_bids, key=lambda b: (-b.value_wei, b.arrival_ms, b.block_hash))


def classify_winner(
    winner: BidRecord, slot_bids: Sequence[BidRecord]
) -> WinnerTiming:
    """Place the winning bid relative to the slot's highest bid.

    HIGHEST means the winner is itself a maximal-value bid; EARLY means it
    arrived before the highest bid; LATE means at or after it.
    """
    if not any(b.dedup_key == winner.dedup_key for b in slot_bids):
        raise AnalyticsError(f"winner not among slot {winner.slot} bids")
    highest = _highest_bid(slot_bids)
    delta_v_wei = highest.value_wei - winner.value_wei
    if delta_v_wei == 0:
        cls = CLASS_HIGHEST
    elif winner.arrival_ms < highest.arrival_ms:
        cls = CLASS_EARLY
    else:
        cls = CLASS_LATE
    return WinnerTiming(
        slot=winner.slot,
        winner_arrival_ms=winner.arrival_ms,
        highest_arrival_ms=highest.arrival_ms,
        delta_t_ms=highest.arrival_ms - winner.arrival_ms,
        delta_v_eth=delta_v_wei / 1e18,
        winner_class=cls,
    )


def unrealized_value(timings: Sequence[WinnerTiming]) -> dict:
    """Aggregate value left on the table by early winners.

    EARLY deltas were forgone for good (the higher bid came after signing);
    LATE deltas were realizable in principle.
    """
    early = [t for t in timings if t.winner_class == CLASS_EARLY]
    late = [t for t in timings if t.winner_class == CLASS_LATE]
    non_highest = [t for t in timings if t.winner_class != CLASS_HIGHEST]
    return {
        "unrealized_eth": sum((t.delta_v_eth for t in early), 0.0),
        "realizable_eth": sum((t.delta_v_eth for t in late), 0.0),
        "median_delta_t_ms": (
            statistics.median(t.delta_t_ms for t in non_highest)
            if non_highest
            else None
        ),
        "early_count": len(early),
        "late_count": len(late),
        "highest_count": sum(1 for t in timings if t.winner_class == CLASS_HIGHEST),
    }


def attestation_share(block_weight_gwei: int, committee_weight_gwei: int) -> float:
    if committee_weight_gwei <= 0:
        raise AnalyticsError("committee weight must be positive")
    share = block_weight_gwei / committee_weight_gwei
    return max(0.0, min(1.0, share))


def reorg_vulnerable(share: float) -> bool:
    """A block below 40% next-slot attestation share can be displaced by a
    boosted competitor."""
    if not 0.0 <= share <= 1.0:
        raise AnalyticsError("share must lie in [0, 1]")
    return share < REORG_SHARE_THRESHOLD


def orphan_comparison(blocks: Sequence[dict]) -> OrphanReport:
    """Arrival-time contrast between orphaned and canonical blocks.

    Each record carries ``arrival_ms`` and ``status``.  Missed slots have no
    block and are only counted.  Group medians use all records of the group;
    the late count restricts attention to blocks from the earliest orphaned
    arrival onward, since earlier slots could not have been influenced by the
    orphaning episode.
    """
    orphaned = []
    nonorphaned = []
    missed = 0
    for rec in blocks:
        status = rec["status"]
        if status == STATUS_MISSED:
            missed += 1
        elif status == STATUS_ORPHANED:
            orphaned.append(rec["arrival_ms"])
        elif status == STATUS_CANONICAL:
            nonorphaned.append(rec["arrival_ms"])
        else:
            raise AnalyticsError(f"unknown block status {status!r}")
    med_orphaned = statistics.median(orphaned) if orphaned else None
    med_nonorphaned = statistics.median(nonorphaned) if nonorphaned else None
    if orphaned:
        earliest = min(orphaned)
        considered = [a for a in nonorphaned if a >= earliest]
        late = sum(1 for a in considered if a > med_orphaned)
    else:
        considered = []
        late = 0
    return OrphanReport(
        orphaned_count=len(orphaned),
        missed_count=missed,
        median_orphaned_arrival_ms=med_orphaned,
        median_nonorphaned_arrival_ms=med_nonorphaned,
        late_nonorphaned_count=late,
        considered_count=len(considered),
    )
