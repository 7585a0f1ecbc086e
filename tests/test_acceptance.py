"""End-to-end acceptance gates.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line and then asserts, so
the full suite output doubles as the acceptance report.  Gates 6 and 7 share
one simulation grid (15 cells x 20 seeds at N = 128, 1000 s) and dominate the
suite's runtime.
"""

import math
import resource
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import run_with

from timinggames import analytics, relaydata
from timinggames.analytics import (
    attestation_share,
    classify_winner,
    fit_marginal_value,
    reorg_vulnerable,
    residualize,
    unrealized_value,
)
from timinggames.cli import EXIT_OK, main
from timinggames.consensus import GENESIS_ID, BlockTree, head_from_arrays
from timinggames.relaydata import BidRecord, dedup_across_relays, dedup_within_relay
from timinggames.rewards import base_reward
from timinggames.waitinggame import (
    SimConfig,
    derive_cell_seed,
    run_simulation,
    simulate,
)

SEEDS = 20
GRID_MASTER_SEED = 2024


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: reward formulas --------------------------------------------


def test_acceptance_1_reward_formulas():
    start = time.time()
    headline = base_reward(32 * 10**9, 16 * 10**15)

    def oracle(effective, active):
        exact = Fraction(effective * 64, math.isqrt(active))
        return (2 * exact.numerator + exact.denominator) // (2 * exact.denominator)

    rng = np.random.default_rng(1)
    mismatches = 0
    for _ in range(50):
        effective = int(rng.integers(1, 2048)) * 10**9
        active = int(rng.integers(10**5, 10**9)) * 10**9
        if base_reward(effective, active) != oracle(effective, active):
            mismatches += 1
    elapsed = time.time() - start
    ok = headline == 16191 and mismatches == 0 and elapsed < 1.0
    report(1, ok, f"base_reward={headline}, mismatches={mismatches}, {elapsed:.2f}s")
    assert ok


# -- criterion 2: dedup oracle equivalence ------------------------------------


def test_acceptance_2_dedup_oracle():
    start = time.time()
    rng = np.random.default_rng(2)
    relays = ("agnostic", "ultrasound", "flashbots")
    bids = []
    for _ in range(10_000):
        bids.append(
            BidRecord(
                slot=int(rng.integers(0, 40)),
                relay_id=relays[int(rng.integers(0, 3))],
                builder_id=f"b{int(rng.integers(0, 6))}",
                block_hash=f"h{int(rng.integers(0, 50))}",
                parent_hash="",
                value_wei=int(rng.integers(1, 8)) * 10**15,
                num_transactions=0,
                arrival_ms=int(rng.integers(-2000, 12000)),
            )
        )

    def naive(group):
        best = {}
        for b in group:
            k = b.dedup_key
            if k not in best or b.arrival_ms < best[k].arrival_ms:
                best[k] = b
        return best

    ok = True
    for relay in relays:
        mine = dedup_within_relay([b for b in bids if b.relay_id == relay], relay)
        oracle = naive(b for b in bids if b.relay_id == relay)
        ok &= {b.dedup_key: b.arrival_ms for b in mine} == {
            k: b.arrival_ms for k, b in oracle.items()
        }
        ok &= dedup_within_relay(mine, relay) == mine  # idempotence
    cross = dedup_across_relays(bids)
    oracle = naive(bids)
    ok &= {b.dedup_key: b.arrival_ms for b in cross} == {
        k: b.arrival_ms for k, b in oracle.items()
    }
    ok &= dedup_across_relays(cross) == cross
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(2, ok, f"10000 bids over 3 relays, {len(cross)} unique, {elapsed:.2f}s")
    assert ok


# -- criterion 3: regression recovery -----------------------------------------


def test_acceptance_3_regression_recovery():
    start = time.time()
    true_slope = 5.71e-6
    n_slots, n_builders, per_cell = 50, 10, 200
    rng = np.random.default_rng(3)
    slot_fx = rng.normal(0, 0.5, n_slots)
    builder_fx = rng.normal(0, 0.3, n_builders)
    slots, builders, t = [], [], []
    for i in range(n_slots):
        for j in range(n_builders):
            grid = np.linspace(-12000.0, 12000.0, per_cell)
            slots.extend([i] * per_cell)
            builders.extend([j] * per_cell)
            t.extend(grid)
    t = np.asarray(t)
    clean = slot_fx[np.asarray(slots)] + builder_fx[np.asarray(builders)] + true_slope * t

    res = residualize(clean, slots, builders)
    noiseless = fit_marginal_value(t, res).slope
    noiseless_ok = abs(noiseless - true_slope) / true_slope < 1e-12

    noisy = clean + rng.normal(0, 0.01, len(t))
    res_n = residualize(noisy, slots, builders)
    noisy_slope = fit_marginal_value(t, res_n).slope
    noisy_ok = abs(noisy_slope - true_slope) / true_slope < 0.01

    elapsed = time.time() - start
    ok = noiseless_ok and noisy_ok and elapsed < 10.0
    report(
        3,
        ok,
        f"noiseless={noiseless:.3e}, noisy={noisy_slope:.3e}, "
        f"target={true_slope:.3e}, {elapsed:.2f}s",
    )
    assert ok


# -- criterion 4: winner and unrealized-value oracle ---------------------------


def test_acceptance_4_winner_oracle():
    start = time.time()
    rng = np.random.default_rng(4)
    ok = True
    timings = []
    oracle_timings = []
    for slot in range(500):
        n = int(rng.integers(2, 12))
        bids = [
            BidRecord(
                slot=slot,
                relay_id="r",
                builder_id=f"b{i}",
                block_hash=f"h{i}",
                parent_hash="",
                value_wei=int(rng.integers(1, 6)) * 10**15,
                num_transactions=0,
                arrival_ms=int(rng.integers(0, 4000)),
            )
            for i in range(n)
        ]
        winner = bids[int(rng.integers(0, n))]
        got = classify_winner(winner, bids)
        timings.append(got)

        # Brute-force full scan.
        highest = bids[0]
        for b in bids[1:]:
            if (-b.value_wei, b.arrival_ms, b.block_hash) < (
                -highest.value_wei,
                highest.arrival_ms,
                highest.block_hash,
            ):
                highest = b
        dv = (highest.value_wei - winner.value_wei) / 1e18
        if dv == 0:
            cls = analytics.CLASS_HIGHEST
        elif winner.arrival_ms < highest.arrival_ms:
            cls = analytics.CLASS_EARLY
        else:
            cls = analytics.CLASS_LATE
        oracle_timings.append(
            (slot, winner.arrival_ms, highest.arrival_ms,
             highest.arrival_ms - winner.arrival_ms, dv, cls)
        )
        ok &= (
            got.slot,
            got.winner_arrival_ms,
            got.highest_arrival_ms,
            got.delta_t_ms,
            got.delta_v_eth,
            got.winner_class,
        ) == oracle_timings[-1]

    agg = unrealized_value(timings)
    oracle_unrealized = sum(r[4] for r in oracle_timings if r[5] == analytics.CLASS_EARLY)
    ok &= agg["unrealized_eth"] == oracle_unrealized

    # Boost-vulnerability boundary as surfaced in the shares report.
    ok &= reorg_vulnerable(attestation_share(399, 1000)) is True
    ok &= reorg_vulnerable(attestation_share(400, 1000)) is False

    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(4, ok, f"500 slots, unrealized={agg['unrealized_eth']:.3f} ETH, {elapsed:.2f}s")
    assert ok


# -- criterion 5: fork-choice oracle -------------------------------------------


def _kernel_head(tree, table):
    # Thin adapter: the latest-message table as one window slot of votes.
    by_target = {}
    for validator, (_, target) in table.items():
        by_target[target] = by_target.get(target, 0) | 1 << validator
    votes = sum(1 << validator for validator in table)
    return head_from_arrays(
        tree.parent, tree.children, (1 << len(tree)) - 1, votes, [by_target], {}, 64
    )


def test_acceptance_5_fork_choice_oracle():
    start = time.time()
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        tree = BlockTree()
        for _ in range(int(rng.integers(1, 50))):
            parent = int(rng.integers(0, len(tree)))
            slot = tree.slot[parent] + 1 + int(rng.integers(0, 3))
            tree.add(slot=slot, proposer=0, parent=parent, release_time=0.0)
        table = {}
        for _ in range(int(rng.integers(0, 200))):
            validator = int(rng.integers(0, 64))
            slot = int(rng.integers(0, 40))
            target = int(rng.integers(0, len(tree)))
            # Latest-message rule: only a strictly later slot replaces.
            if validator not in table or slot > table[validator][0]:
                table[validator] = (slot, target)

        def oracle(weight):
            # Exhaustive oracle: per-vote ancestor walk, greedy descent,
            # documented tie-break toward the smaller block id.
            w = [0.0] * len(tree)
            for _, (_, target) in table.items():
                b = target
                while b is not None:
                    w[b] += weight
                    b = tree.parent[b]
            head = GENESIS_ID
            while tree.children[head]:
                best = None
                for c in tree.children[head]:
                    if best is None or w[c] > w[best]:
                        best = c
                head = best
            return head

        got = _kernel_head(tree, table)
        ok &= got == oracle(1.0)
        scale = float(rng.uniform(0.1, 100.0))
        ok &= oracle(scale) == got
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    report(5, ok, f"1000 random trees, {elapsed:.2f}s")
    assert ok


# -- criteria 6 and 7: shared simulation grid ----------------------------------


def _delayer_exposure(out):
    """(P_d, P_dd) of one run.

    P_d counts slots s >= 1 whose slot s-1 proposer is a delayer; P_dd counts
    those of them whose own proposer is a delayer too.
    """
    tree, delayers = out.tree, out.assignment.delayers
    by_slot = {tree.slot[b]: tree.proposer[b] in delayers for b in range(1, len(tree))}
    after_delayer = [by_slot[s] for s in by_slot if by_slot.get(s - 1)]
    return len(after_delayer), sum(after_delayer)


def _cell(x_d, t_d, x_index, t_index):
    """Per-run arrays of mu, Theta^d, orphan count |B|-|M|, P_d and P_dd."""
    rows = []
    for r in range(SEEDS):
        seed = derive_cell_seed(GRID_MASTER_SEED, x_index, t_index, r)
        out = simulate(SimConfig(x_d=x_d, t_d=float(t_d), seed=seed))
        m = out.metrics
        rows.append((m.mu, m.theta_d, m.b_count - m.m_count, *_delayer_exposure(out)))
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


@pytest.fixture(scope="module")
def grid():
    cells = {}
    for t_index, t_d in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 8, 11]):
        cells[(1.0, t_d)] = _cell(1.0, t_d, 10, t_index)
    for x_index, x_d in enumerate([0.0, 0.25, 0.6, 0.8, 1.0]):
        cells[(x_d, 10)] = _cell(x_d, 10, x_index, 20)
    return cells


def test_acceptance_6_phase_transition(grid):
    start = time.time()
    baseline = grid[(1.0, 0)][0].mean()
    ok = True
    details = []
    for t_d in range(9):
        mean = grid[(1.0, t_d)][0].mean()
        within = abs(mean - baseline) <= 0.05 * baseline
        ok &= within
        details.append(f"t{t_d}={mean:.3f}")
    mu11 = grid[(1.0, 11)][0].mean()
    drop_ok = mu11 <= 0.70 * baseline
    ok &= drop_ok
    elapsed = time.time() - start
    report(
        6,
        ok,
        f"baseline={baseline:.3f}, {' '.join(details)}, mu(11)={mu11:.3f} "
        f"(needs <= {0.70 * baseline:.3f})",
    )
    assert ok


def _within_two_se(mean_a, se_a, mean_b, se_b):
    return abs(mean_a - mean_b) <= 2.0 * math.sqrt(se_a**2 + se_b**2)


def _mean_se(values):
    """Mean and standard error over the runs where the value is defined."""
    values = values[~np.isnan(values)]
    return values.mean(), values.std(ddof=1) / math.sqrt(len(values))


def _per_exposure(counts, exposures):
    """Per-run ratio; nan for a run without exposure."""
    return np.divide(
        counts, exposures, out=np.full_like(counts, np.nan), where=exposures > 0
    )


def test_acceptance_7_plateau(grid):
    # The plateau is a level of orphan risk per delayer exposure, not a level
    # of raw counts.  A delayer picks its parent at slot start and only holds
    # the release back, so at t_d = 10 its block misses its own slot's 4 s
    # deadline and has 12 - t_d = 2 s to reach the next proposer.  A block is
    # orphaned when that proposer has not seen it yet: it builds on the stale
    # head and its fork loses.  If that proposer is a delayer as well, its own
    # block also misses its deadline, attesters vote for the slot s-1 block,
    # and the orphan is a delayer orphan.  Hence
    #   |B| - |M| ~ c' * P_d,  P_d  ~ x_d * |B|    (slot s-1 by a delayer)
    #   Theta^d   ~ c  * P_dd, P_dd ~ x_d^2 * |B|  (slots s-1 and s by delayers)
    # where c and c' are set by t_d and the network, not by x_d.  The raw
    # Theta^d grows as x_d^2 and mu = 1 - c' * P_d / |B| falls linearly in
    # x_d, so neither can level off; Theta^d / P_dd and (|B| - |M|) / P_d,
    # taken per run, must agree within 2 SE across the plateau shares, and a
    # small delayer share must still orphan fewer delayer blocks outright.
    plateau_x = [0.6, 0.8, 1.0]
    raw, rates = {}, {}
    for x in [0.0, 0.25] + plateau_x:
        mus, thetas, orphans, p_d, p_dd = grid[(x, 10)]
        raw[x] = (_mean_se(mus), _mean_se(thetas))
        if x > 0:
            rates[x] = (
                _mean_se(_per_exposure(thetas, p_dd)),
                _mean_se(_per_exposure(orphans, p_d)),
            )
    pair_ok = True
    for i, a in enumerate(plateau_x):
        for b in plateau_x[i + 1:]:
            for (ma, sa), (mb, sb) in zip(rates[a], rates[b]):
                pair_ok &= _within_two_se(ma, sa, mb, sb)
    plateau_floor = min(raw[x][1][0] for x in plateau_x)
    small_ok = all(raw[x][1][0] < plateau_floor for x in (0.0, 0.25))
    ok = pair_ok and small_ok

    def describe(x):
        (mu, mu_se), (theta, theta_se) = raw[x]
        text = f"x{x}: mu={mu:.3f}+-{mu_se:.3f} theta={theta:.2f}+-{theta_se:.2f}"
        if x in rates:
            (td, td_se), (o, o_se) = rates[x]
            text += f" theta/Pdd={td:.3f}+-{td_se:.3f} orphans/Pd={o:.3f}+-{o_se:.3f}"
        return text

    report(7, ok, ", ".join(describe(x) for x in [0.0, 0.25] + plateau_x))
    assert ok


# -- criterion 8: degenerate strategy identity ---------------------------------


def test_acceptance_8_degenerate_identity(tmp_path):
    # Pick the first seed whose all-honest run keeps every block; with zero
    # orphans every behavioral metric is label-independent.
    chosen = None
    for seed in range(5):
        if run_simulation(SimConfig(seed=seed)).mu == 1.0:
            chosen = seed
            break
    assert chosen is not None

    honest, honest_engine, _ = run_with(SimConfig(seed=chosen))
    degenerate, degenerate_engine, _ = run_with(SimConfig(seed=chosen, x_d=1.0, t_d=0.0))

    p1, p2 = tmp_path / "honest.csv", tmp_path / "degenerate.csv"
    relaydata.write_csv(p1, "time,kind,node,detail", honest_engine.trace())
    relaydata.write_csv(p2, "time,kind,node,detail", degenerate_engine.trace())
    trace_ok = p1.read_bytes() == p2.read_bytes()

    hm, dm = honest.metrics, degenerate.metrics
    metrics_ok = (
        (hm.b_count, hm.m_count, hm.mu, hm.theta_d)
        == (dm.b_count, dm.m_count, dm.mu, dm.theta_d)
        and dm.theta_d_normalized == 0.0
        and hm.payoff_total_eth == dm.payoff_total_eth
    )
    theta_zero_ok = hm.theta_d == 0 and run_simulation(
        SimConfig(seed=chosen + 1, x_d=0.0, t_d=9.0)
    ).theta_d == 0

    ok = trace_ok and metrics_ok and theta_zero_ok
    report(
        8,
        ok,
        f"seed={chosen}, trace_identical={trace_ok}, metrics_identical={metrics_ok}",
    )
    assert ok


# -- criterion 9: end-to-end determinism ---------------------------------------


def test_acceptance_9_determinism(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n: 32\nmean_degree: 6.0\nduration: 240\n"
        "x_values: [0.0, 1.0]\nt_values: [0.0, 9.0]\nseeds: 3\nseed: 17\n",
        encoding="utf-8",
    )
    o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    c1 = main(["sim", "sweep", "--config", str(cfg), "--out", str(o1)])
    c2 = main(["sim", "sweep", "--config", str(cfg), "--out", str(o2)])
    sweep_ok = c1 == c2 == EXIT_OK and o1.read_bytes() == o2.read_bytes()

    header = "epoch,slot,mev_wei,proposal_gwei"
    rows = [f"{e},{s},{(s + 1) * 10**15},{(s + 2) * 10**6}"
            for e in range(4) for s in range(8)]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f1.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    f2.write_text(header + "\n" + "\n".join(reversed(rows)) + "\n", encoding="utf-8")
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    a1 = main(["analyze", "rewards", "--blocks", str(f1), "--out", str(r1)])
    a2 = main(["analyze", "rewards", "--blocks", str(f2), "--out", str(r2)])
    analyze_ok = a1 == a2 == EXIT_OK and r1.read_bytes() == r2.read_bytes()

    ok = sweep_ok and analyze_ok
    report(9, ok, f"sweep_identical={sweep_ok}, analyze_permutation_stable={analyze_ok}")
    assert ok


# -- criterion 10: single-run performance --------------------------------------


def test_acceptance_10_performance():
    start = time.time()
    metrics = run_simulation(SimConfig(seed=12345))
    elapsed = time.time() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = elapsed < 60.0 and peak_mb < 1024.0 and metrics.b_count == 83
    report(10, ok, f"{elapsed:.1f}s, peak RSS {peak_mb:.0f} MB, |B|={metrics.b_count}")
    assert ok
