"""Strategy assignment, payoff model, metrics and the sweep harness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import waitinggame
from timinggames.consensus import BlockTree
from timinggames.waitinggame import (
    DEFAULT_LAMBDA_ETH_PER_MS,
    DelayPolicy,
    PayoffModel,
    SimConfig,
    StrategyAssignment,
    assign_strategies,
    delayer_orphan_count,
    derive_cell_seed,
    mainchain_rate,
    mev_payoff,
    release_time,
    run_simulation,
    simulate,
    sweep,
)

FAST = SimConfig(n=24, mean_degree=5.0, duration=240.0)


def test_assign_strategies_extremes():
    assert assign_strategies(10, 0.0, 1).delayers == frozenset()
    assert assign_strategies(10, 1.0, 1).delayers == frozenset(range(10))


def test_assign_strategies_size_and_determinism():
    a = assign_strategies(128, 0.5, 7)
    b = assign_strategies(128, 0.5, 7)
    assert len(a.delayers) == 64
    assert a.delayers == b.delayers
    assert assign_strategies(128, 0.5, 8).delayers != a.delayers


@given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_assign_strategies_size_property(n, x_d, seed):
    assignment = assign_strategies(n, x_d, seed)
    assert len(assignment.delayers) == int(round(x_d * n))
    assert all(0 <= v < n for v in assignment.delayers)


def test_assign_strategies_validation():
    with pytest.raises(ValueError):
        assign_strategies(0, 0.5, 0)
    with pytest.raises(ValueError):
        assign_strategies(10, 1.5, 0)


def test_delay_policy_range():
    DelayPolicy(0.0)
    DelayPolicy(12.0)
    with pytest.raises(ValueError):
        DelayPolicy(12.1)
    with pytest.raises(ValueError):
        DelayPolicy(-0.1)


def test_release_time_rules():
    assignment = StrategyAssignment(n=4, x_d=0.5, delayers=frozenset({1, 2}))
    policy = DelayPolicy(t_d=9.0)
    assert release_time(0, 120.0, policy, assignment) == 120.0
    assert release_time(1, 120.0, policy, assignment) == 129.0
    assert release_time(1, 120.0, DelayPolicy(0.0), assignment) == 120.0


def test_mev_payoff_values():
    model = PayoffModel()
    assert mev_payoff(0.0, model) == 0.0
    assert mev_payoff(12000.0, model) == pytest.approx(0.06852)
    assert DEFAULT_LAMBDA_ETH_PER_MS == pytest.approx(5.71e-6)
    with pytest.raises(ValueError):
        mev_payoff(-1.0, model)


def test_mainchain_rate():
    assert mainchain_rate(10, 10) == 1.0
    assert mainchain_rate(9, 10) == 0.9
    assert mainchain_rate(0, 0) is None


def test_delayer_orphan_count_hand_example():
    tree = BlockTree()
    ids = []
    prev = 0
    for slot in range(3):
        prev = tree.add(slot=slot, proposer=slot, parent=prev, release_time=0.0)
        ids.append(prev)
    orphan = tree.add(slot=3, proposer=1, parent=ids[0], release_time=0.0)
    # Delayers proposed blocks ids[1] (slot 1), ids[2] (slot 2), orphan.
    delayers = {1, 2}
    mainchain_set = set(ids)
    count, normalized = delayer_orphan_count(tree, mainchain_set, delayers)
    assert count == 1
    assert normalized == pytest.approx(1 / 3)


def test_delayer_orphan_count_empty_delayers():
    tree = BlockTree()
    tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    count, normalized = delayer_orphan_count(tree, set(), frozenset())
    assert count == 0
    assert normalized is None


def test_run_simulation_block_count_bound():
    metrics = run_simulation(FAST)
    assert metrics.b_count == 20  # floor(240 / 12)
    assert metrics.m_count <= metrics.b_count
    assert metrics.mu == metrics.m_count / metrics.b_count


def test_run_simulation_honest_baseline():
    metrics = run_simulation(FAST)
    assert metrics.theta_d == 0
    assert metrics.payoff_delayer_eth == 0.0
    assert metrics.mu >= 0.9  # honest fast network keeps nearly every block


def test_run_simulation_deterministic():
    cfg = SimConfig(n=24, mean_degree=5.0, duration=240.0, x_d=0.5, t_d=6.0, seed=11)
    m1 = run_simulation(cfg)
    m2 = run_simulation(cfg)
    assert m1 == m2


def test_simulate_output_consistency():
    cfg = SimConfig(n=24, mean_degree=5.0, duration=240.0, x_d=0.5, t_d=3.0, seed=2)
    out = simulate(cfg)
    assert out.metrics.b_count == len(out.tree) - 1
    assert out.metrics.m_count == len(out.mainchain_ids)
    assert len(out.assignment.delayers) == 12
    # Mainchain blocks form a parent-linked path.
    for earlier, later in zip(out.mainchain_ids, out.mainchain_ids[1:]):
        assert out.tree.parent[later] == earlier


def test_delayed_release_times_recorded():
    cfg = SimConfig(n=24, mean_degree=5.0, duration=240.0, x_d=1.0, t_d=9.0, seed=3)
    out = simulate(cfg)
    for b in range(1, len(out.tree)):
        slot_start = out.tree.slot[b] * 12.0
        assert out.tree.release_time[b] == pytest.approx(slot_start + 9.0)


def test_payoff_total_increases_with_delay():
    base = SimConfig(n=24, mean_degree=5.0, duration=480.0, seed=5)
    honest = run_simulation(base)
    delayed = run_simulation(
        SimConfig(n=24, mean_degree=5.0, duration=480.0, seed=5, x_d=1.0, t_d=6.0)
    )
    # Delaying stretches inter-release intervals without (at t_d = 6 on a
    # fast small network) losing blocks, so total payoff can only grow.
    if delayed.mu == 1.0:
        assert delayed.payoff_total_eth > honest.payoff_total_eth


def test_derive_cell_seed_stable_and_distinct():
    s = derive_cell_seed(42, 1, 2, 3)
    assert s == derive_cell_seed(42, 1, 2, 3)
    assert s != derive_cell_seed(42, 1, 2, 4)
    assert s != derive_cell_seed(43, 1, 2, 3)


def test_sweep_shapes_and_averaging():
    result = sweep([0.0, 1.0], [0.0], seeds=3, base_config=FAST)
    assert set(result.cells) == {(0, 0), (1, 0)}
    assert not result.errors
    cell = result.cells[(0, 0)]
    assert len(cell.mu) == 3
    assert 0.0 <= cell.mu_mean <= 1.0
    assert cell.theta_mean == 0.0  # x_d = 0 cannot orphan delayer blocks


def test_sweep_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep([0.0, 0.5], [0.0, 4.0], seeds=2, base_config=FAST).to_csv(p1)
    sweep([0.0, 0.5], [0.0, 4.0], seeds=2, base_config=FAST).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == (
        "x_d,t_d,seed_count,mu_mean,mu_std,theta_mean,theta_std,"
        "theta_norm_mean,payoff_honest_mean,payoff_delayer_mean"
    )


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep([], [0.0], seeds=1, base_config=FAST)
    with pytest.raises(ValueError):
        sweep([0.0], [0.0], seeds=0, base_config=FAST)


def test_sweep_isolates_failing_cells():
    # t_d outside [0, 12] makes the cell's policy constructor fail.
    result = sweep([0.0], [0.0, 13.0], seeds=1, base_config=FAST)
    assert (0, 0) in result.cells
    assert (0, 1) in result.errors
    assert (0, 1) not in result.cells


def test_orphans_follow_an_unseen_delayer_block():
    # A delayer builds at slot start and only holds the release back, so at
    # t_d = 11 its block has 1 s to reach the next proposer.  Every orphan is
    # a block whose proposer had not seen the slot s-1 delayer block and built
    # on a stale head; acceptance gate 7 normalizes orphan counts by exactly
    # these delayer exposures.  Building at release would see the predecessor
    # and leave no orphans at all.
    out = simulate(replace(FAST, x_d=1.0, t_d=11.0, seed=0))
    tree, delayers = out.tree, out.assignment.delayers
    on_chain = set(out.mainchain_ids)
    block_of_slot = {tree.slot[b]: b for b in range(1, len(tree))}
    orphans = [b for b in range(1, len(tree)) if b not in on_chain]
    assert orphans
    for b in orphans:
        previous = block_of_slot.get(tree.slot[b] - 1)
        assert previous is not None and tree.proposer[previous] in delayers
        assert tree.parent[b] != previous


def test_settled_votes_bound_the_vote_state(monkeypatch):
    # Settling fully spread vote slots keeps every vote bitset a few slots
    # wide, however long the run.
    widths = []
    deadline = waitinggame._ChainHandlers.on_attest_deadline

    def measured(self, engine, t, slot):
        deadline(self, engine, t, slot)
        widths.append(max(x.bit_length() for x in engine.votes))

    monkeypatch.setattr(waitinggame._ChainHandlers, "on_attest_deadline", measured)
    config = SimConfig(duration=5000.0)
    simulate(config)
    assert len(widths) == 5000 // 12
    assert max(widths) < 8 * config.n


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 1),
        ("mean_degree", 0.0),
        ("mean_degree", 128.0),
        ("duration", -5.0),
        ("duration", 0.0),
        ("x_d", 2.0),
        ("x_d", -0.1),
        ("t_d", 12.5),
        ("tau_block", 0.0),
        ("tau_attestation", -1.0),
    ],
)
def test_sim_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        replace(SimConfig(), **{field: value})
