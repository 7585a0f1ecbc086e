"""Strategy assignment, payoff model, metrics and the sweep harness."""

import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_with
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import waitinggame
from timinggames.relaydata import write_csv
from timinggames.simnet import ATTEST_DEADLINE_OFFSET, SLOT_SECONDS
from timinggames.waitinggame import (
    DEFAULT_LAMBDA_ETH_PER_MS,
    SWEEP_CSV_HEADER,
    PayoffModel,
    SimConfig,
    SweepConfig,
    assign_strategies,
    derive_cell_seed,
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
    assert SimConfig(t_d=0.0).t_d == 0.0
    assert SimConfig(t_d=12.0).t_d == 12.0
    with pytest.raises(ValueError):
        SimConfig(t_d=12.1)
    with pytest.raises(ValueError):
        SimConfig(t_d=-0.1)


def test_release_time_rules():
    # Honest proposers release at the slot start, delayers t_d seconds later.
    for t_d in (9.0, 0.0):
        out = simulate(replace(FAST, x_d=0.5, t_d=t_d, seed=4))
        tree, delayers = out.tree, out.assignment.delayers
        by_delayer = [tree.proposer[b] in delayers for b in range(1, len(tree))]
        assert set(by_delayer) == {False, True}
        for b in range(1, len(tree)):
            delay = t_d if tree.proposer[b] in delayers else 0.0
            assert tree.release_time[b] == tree.slot[b] * 12.0 + delay


@pytest.mark.parametrize("x_d", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("t_d", [0.0, 11.0])
def test_run_metrics_recount_from_the_output(x_d, t_d):
    # mu, Theta^d and the payoffs, recounted from the run's own tree, main
    # chain and delayers.  Each main-chain block earns base + lambda x the
    # ms since the previous release of any block, orphans included, in
    # (release time, id) order from genesis at 0 s.
    payoff = PayoffModel(base_value_eth=0.01)
    assert payoff.lambda_eth_per_ms == DEFAULT_LAMBDA_ETH_PER_MS == pytest.approx(5.71e-6)
    out = simulate(replace(FAST, x_d=x_d, t_d=t_d, seed=6, payoff=payoff))
    tree, chain = out.tree, set(out.mainchain_ids)
    blocks = list(range(1, len(tree)))
    by_delayer = [b for b in blocks if tree.proposer[b] in out.assignment.delayers]
    orphans = [b for b in by_delayer if b not in chain]
    earned = {False: 0.0, True: 0.0}
    released = 0.0
    for b in sorted(blocks, key=lambda b: (tree.release_time[b], b)):
        gap_ms = (tree.release_time[b] - released) * 1000.0
        released = tree.release_time[b]
        if b in chain:
            earned[b in by_delayer] += payoff.base_value_eth + payoff.lambda_eth_per_ms * gap_ms
    m = out.metrics
    assert (m.b_count, m.m_count) == (len(blocks), len(chain))
    assert m.mu == len(chain) / len(blocks)
    assert m.theta_d == len(orphans)
    assert m.theta_d_normalized == (len(orphans) / len(by_delayer) if by_delayer else None)
    assert (m.payoff_honest_eth, m.payoff_delayer_eth) == (earned[False], earned[True])
    assert m.payoff_total_eth == earned[False] + earned[True]
    if x_d == 1.0 and t_d == 11.0:
        assert 0 < m.theta_d < m.b_count  # the recount meets orphans and canonical blocks


def test_run_simulation_block_count_bound():
    metrics = simulate(FAST).metrics
    assert metrics.b_count == 20  # floor(240 / 12)
    assert metrics.m_count <= metrics.b_count
    assert metrics.mu == metrics.m_count / metrics.b_count


def test_run_simulation_honest_baseline():
    metrics = simulate(FAST).metrics
    assert metrics.theta_d == 0
    assert metrics.payoff_delayer_eth == 0.0
    assert metrics.mu >= 0.9  # honest fast network keeps nearly every block


def test_run_simulation_deterministic():
    cfg = SimConfig(n=24, mean_degree=5.0, duration=240.0, x_d=0.5, t_d=6.0, seed=11)
    m1 = simulate(cfg).metrics
    m2 = simulate(cfg).metrics
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


@pytest.mark.parametrize("n", [2, 5, 16, 128, 1000, 2048])
def test_proposers_drawn_at_once_match_one_draw_per_slot(n):
    # simulate draws every slot's proposer in one call; one integers(n)
    # call per slot start, from the same stream, gives the same nodes.
    for seed in range(5):
        at_once = np.random.default_rng(seed).integers(n, size=501).tolist()
        rng = np.random.default_rng(seed)
        assert at_once == [int(rng.integers(n)) for _ in range(501)]


def test_simulate_draws_proposers_from_their_seed_stream():
    config = SimConfig(n=24, mean_degree=5.0, duration=100.0, x_d=0.5, t_d=6.0, seed=7)
    out, _, handlers = run_with(config)
    prop_ss = np.random.SeedSequence(config.seed).spawn(4)[1]
    rng = np.random.default_rng(prop_ss)
    want = [int(rng.integers(config.n)) for _ in range(8)]
    assert handlers.proposers == want
    assert out.tree.proposer[1:] == want


def test_payoff_total_increases_with_delay():
    base = SimConfig(n=24, mean_degree=5.0, duration=480.0, seed=5)
    honest = simulate(base).metrics
    delayed = simulate(
        SimConfig(n=24, mean_degree=5.0, duration=480.0, seed=5, x_d=1.0, t_d=6.0)
    ).metrics
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
    rows, errors = sweep(SweepConfig([0.0, 1.0], [0.0], seeds=3), FAST)
    assert not errors
    cells = [dict(zip(SWEEP_CSV_HEADER.split(","), row)) for row in rows]
    assert [(c["x_d"], c["t_d"]) for c in cells] == [(0.0, 0.0), (1.0, 0.0)]
    assert all(c["seed_count"] == 3 for c in cells)  # 3 runs per cell
    assert all(0.0 <= c["mu_mean"] <= 1.0 for c in cells)
    assert cells[0]["theta_mean"] == 0.0  # x_d = 0 cannot orphan delayer blocks


def test_sweep_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    grid = SweepConfig([0.0, 0.5], [0.0, 4.0], seeds=2)
    write_csv(p1, SWEEP_CSV_HEADER, sweep(grid, FAST)[0])
    write_csv(p2, SWEEP_CSV_HEADER, sweep(grid, FAST)[0])
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "x_d,t_d,seed_count,mu_mean,mu_std,theta_mean,theta_std,"
        "theta_norm_mean,payoff_honest_mean,payoff_delayer_mean"
    )


def test_sweep_validation():
    # SweepConfig owns the grid's checks; sweep() trusts it.
    with pytest.raises(ValueError):
        SweepConfig(x_values=[])
    with pytest.raises(ValueError):
        SweepConfig(t_values=())
    with pytest.raises(ValueError):
        SweepConfig(seeds=0)
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)
    with pytest.raises(ValueError):
        SweepConfig(x_values=[0.0, float("nan")])
    with pytest.raises(TypeError):
        SweepConfig(x_values=0.5)
    with pytest.raises(TypeError):
        SweepConfig(t_values=["a"])
    with pytest.raises(TypeError):
        SweepConfig(seeds=True)
    with pytest.raises(ValueError):
        SweepConfig(jobs=1.5)
    grid = SweepConfig(x_values=[0, 1], t_values=(2,), seeds=2.0)
    assert (grid.x_values, grid.t_values, grid.seeds) == ((0.0, 1.0), (2.0,), 2)
    assert type(grid.seeds) is int and all(type(x) is float for x in grid.x_values)


def test_sweep_isolates_failing_cells():
    # t_d outside [0, 12] makes the cell's SimConfig fail, on both paths.
    for jobs in (1, 2):
        rows, errors = sweep(SweepConfig([0.0], [0.0, 13.0], seeds=2, jobs=jobs), FAST)
        assert [row[:2] for row in rows] == [(0.0, 0.0)]
        assert errors == {(0, 1): "t_d must lie in [0, 12]"}


def test_sweep_caps_worker_processes(monkeypatch):
    made = []

    class FakePool:
        """Records its size and runs the tasks here: no process starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # sweep imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(waitinggame.os, "cpu_count", lambda: 4)
    small = replace(FAST, duration=12.0)
    sweep(SweepConfig([0.0], [0.0, 1.0], seeds=1, jobs=64), small)  # 2 runs
    sweep(SweepConfig([0.0], [0.0, 1.0, 2.0], seeds=2, jobs=64), small)  # 4 CPUs
    sweep(SweepConfig([0.0], [0.0, 1.0, 2.0], seeds=2, jobs=3), small)
    sweep(SweepConfig([0.0], [0.0, 1.0], seeds=1, jobs=1), small)
    monkeypatch.setattr(waitinggame.os, "cpu_count", lambda: None)
    sweep(SweepConfig([0.0], [0.0, 1.0], seeds=1, jobs=8), small)
    assert made == [2, 4, 3]


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    small = replace(FAST, duration=120.0)
    grid = SweepConfig([0.0, 1.0], [0.0, 10.0], seeds=2)
    write_csv(serial, SWEEP_CSV_HEADER, sweep(grid, small)[0])
    write_csv(parallel, SWEEP_CSV_HEADER, sweep(replace(grid, jobs=2), small)[0])
    assert parallel.read_bytes() == serial.read_bytes()


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


@pytest.mark.parametrize("t_d", [4.0, 12.0])
def test_event_order_at_equal_times(t_d):
    # At one time a release runs before a deadline, a slot start and the end
    # of the run, and an honest block is released right after its slot start.
    duration = 4 * SLOT_SECONDS
    ties = set()
    for seed in range(4):
        out, engine, _ = run_with(SimConfig(n=16, mean_degree=4.0, duration=duration,
                                            x_d=0.5, t_d=t_d, seed=seed))
        events = [(t, kind, detail) for t, kind, _, detail in engine.trace()
                  if kind != "GOSSIP_INTERACTION"]
        position = {(kind, detail): i for i, (_, kind, detail) in enumerate(events)}
        for i, (t, kind, detail) in enumerate(events):
            if kind != "BLOCK_RELEASE":
                continue
            slot = out.tree.slot[int(detail.removeprefix("block="))]
            start = slot * SLOT_SECONDS
            if t == start:
                assert events[i - 1] == (t, "SLOT_START", f"slot={slot}")
                ties.add("slot start, honest release")
                continue
            if t == duration:
                later = ("SIM_END", "")
            elif t == start + ATTEST_DEADLINE_OFFSET:
                later = ("ATTEST_DEADLINE", f"slot={slot}")
            else:
                assert t == start + SLOT_SECONDS
                later = ("SLOT_START", f"slot={slot + 1}")
            assert events[position[later]][0] == t and position[later] > i
            ties.add(f"release, {later[0]}")
    assert ties == {
        4.0: {"slot start, honest release", "release, ATTEST_DEADLINE"},
        12.0: {"slot start, honest release", "release, SLOT_START", "release, SIM_END"},
    }[t_d]


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


def test_sim_config_caps_the_arrival_table():
    # The engine's (n, slots + 2) arrival table is capped in the config,
    # so an oversized run is refused before anything is allocated.
    n = 2**20
    cells_per_node = waitinggame.MAX_ARRIVAL_CELLS // n
    SimConfig(n=n, duration=SLOT_SECONDS * (cells_per_node - 2))  # exactly at the cap
    with pytest.raises(ValueError, match="at most"):
        SimConfig(n=n, duration=SLOT_SECONDS * (cells_per_node - 1))
    with pytest.raises(ValueError, match="at most"):
        SimConfig(duration=1.0e18)
    with pytest.raises(ValueError, match="at most"):
        SimConfig(n=2**100, mean_degree=8.0)


def test_sim_config_caps_the_gossip_draws():
    # Expected draws: n x mean_degree x duration x (1/tau_block + 1/tau_attestation).
    def draws(config):
        return (config.n * config.mean_degree * config.duration
                * (1 / config.tau_block + 1 / config.tau_attestation))

    # A mainnet-scale run (N = 8192, 1000 s) is far inside the cap.
    assert draws(SimConfig(n=8192, duration=1000.0)) < waitinggame.MAX_GOSSIP_DRAWS / 100
    # At N = 16, mean degree 4 and one 12 s slot, the cap falls at tau = 1536 / cap.
    tau = 16 * 4.0 * 12.0 * 2 / waitinggame.MAX_GOSSIP_DRAWS
    SimConfig(n=16, mean_degree=4.0, duration=12.0, tau_block=tau * 1.000001,
              tau_attestation=tau * 1.000001)
    with pytest.raises(ValueError, match="at most"):
        SimConfig(n=16, mean_degree=4.0, duration=12.0, tau_block=tau * 0.999999,
                  tau_attestation=tau * 0.999999)
    for tau in (1e-9, 1e-320):  # 1 / 1e-320 overflows to inf
        with pytest.raises(ValueError, match="at most"):
            SimConfig(n=16, duration=120.0, tau_block=tau)
    with pytest.raises(ValueError, match="at most"):
        SimConfig(n=16, duration=120.0, tau_attestation=1e-9)
