"""Topology sampling and the gossip event engine."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import gap_er_graph, run_with
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import simnet
from timinggames.relaydata import write_csv
from timinggames.simnet import (
    ATTEST_DEADLINE_OFFSET,
    EngineError,
    EventEngine,
    GossipConfig,
    SLOT_SECONDS,
    Topology,
    TopologyError,
    _connected,
    generate_er_graph,
)
from timinggames.waitinggame import SimConfig


def two_node_topology():
    return Topology(n=2, u=np.array([0]), v=np.array([1]))


class NullHandlers:
    def on_slot_start(self, engine, t, slot):
        pass

    def on_attest_deadline(self, engine, t, slot):
        pass


class ReleaseOnce(NullHandlers):
    """Node 0 releases block 1 at the first slot start."""

    def on_slot_start(self, engine, t, slot):
        if slot == 0:
            engine.publish_block(0, 1, t)


# -- topology -----------------------------------------------------------------


def test_er_graph_deterministic_and_connected():
    g1 = generate_er_graph(64, 8.0, seed=5)
    g2 = generate_er_graph(64, 8.0, seed=5)
    assert np.array_equal(g1.u, g2.u) and np.array_equal(g1.v, g2.v)
    assert g1.n == 64
    adj = [[] for _ in range(g1.n)]
    for u, v in zip(g1.u.tolist(), g1.v.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 64


def test_er_graph_mean_degree_close():
    graphs = [generate_er_graph(128, 8.0, seed=s) for s in range(10)]
    degrees = [2 * len(g.u) / g.n for g in graphs]
    assert abs(np.mean(degrees) - 8.0) < 1.0


def test_er_graph_seed_changes_graph():
    a, b = generate_er_graph(64, 8.0, 1), generate_er_graph(64, 8.0, 2)
    assert not (np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v))


@pytest.mark.parametrize(
    "n, mean_degree, seed",
    # p = 1.5, p = 0.5 exactly, and graphs that need from 4 to 29 attempts,
    # mostly for an isolated node.
    [(2, 1.5, 0), (64, 31.5, 5), (64, 3.0, 2), (600, 6.0, 3), (600, 6.0, 4), (600, 6.0, 7)],
)
def test_er_graph_matches_one_gap_at_a_time(n, mean_degree, seed):
    topo = generate_er_graph(n, mean_degree, seed)
    _, u, v = gap_er_graph(n, mean_degree, seed)
    # The same edges in the same (upper-triangle) order.
    assert topo.u.dtype == topo.v.dtype == np.int64
    assert topo.u.tolist() == u and topo.v.tolist() == v


@pytest.mark.parametrize("batch", [1, 7])
def test_er_graph_same_for_any_gap_batch(monkeypatch, batch):
    configs = [(64, 31.5, 5), (64, 3.0, 2), (600, 6.0, 3), (600, 6.0, 4)]
    want = [generate_er_graph(*config) for config in configs]
    monkeypatch.setattr(simnet, "_gap_batch", lambda p, pairs: batch)
    for config, topo in zip(configs, want):
        got = generate_er_graph(*config)
        assert np.array_equal(got.u, topo.u) and np.array_equal(got.v, topo.v)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_er_pair_frequencies_match_p(p):
    # Every pair of n = 12, the first and last of each row included, is an
    # edge in a share of the samples within 4 sigma of p.
    n, samples = 12, 10_000
    rng = np.random.default_rng(11)
    counts = np.zeros((n, n))
    for _ in range(samples):
        u, v = simnet._sample_er_pairs(n, p, rng)
        counts[u, v] += 1
    iu, ju = np.triu_indices(n, k=1)
    share = counts[iu, ju] / samples
    assert np.abs(share - p).max() < 4 * math.sqrt(p * (1 - p) / samples)


def test_er_graph_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_er_graph(1, 1.0, 0)
    with pytest.raises(ValueError):
        generate_er_graph(10, 0.0, 0)
    with pytest.raises(TopologyError):
        # Mean degree far below the connectivity threshold for n = 40.
        generate_er_graph(40, 0.05, 0)
    with pytest.raises(TopologyError):
        # p so small that an uncapped gap would overflow int64.
        generate_er_graph(40, 1e-300, 0)


def test_directed_pairs_sorted_and_complete():
    topo = generate_er_graph(16, 4.0, 3)
    pairs = [tuple(p) for p in topo.directed_pairs().tolist()]
    assert pairs == sorted(pairs)
    assert len(pairs) == 2 * len(topo.u)
    assert all((v, u) in set(pairs) for u, v in pairs)


def python_connected(n, edges):
    """Reference for ``_connected``: a depth-first search over Python lists."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def _check_connected(n, edges):
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    assert _connected(n, us, vs) == python_connected(n, edges)
    return python_connected(n, edges)


@given(st.integers(2, 60), st.floats(0.0, 0.2), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_connected_matches_python_search(n, p, no_isolated, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    if no_isolated:
        # Link every node to a random other one instead: no node is isolated,
        # and most such graphs fall apart into several components.
        edges = [(v, (v + int(rng.integers(1, n))) % n) for v in range(n)]
    _check_connected(n, edges)


def test_connected_special_shapes():
    # A path from the far end, with edges listed in reverse, is connected;
    # cutting any one edge disconnects it.
    path = [(i + 1, i) for i in reversed(range(99))]
    assert _check_connected(100, path)
    for cut in (0, 50, 98):
        assert not _check_connected(100, path[:cut] + path[cut + 1 :])
    assert _check_connected(2, [(0, 1)])
    assert not _check_connected(2, [])
    # Two components and no isolated node: the sampler's early rejection
    # never hands this shape to the search.
    rings = [(i, (i + 1) % 10) for i in range(10)]
    rings += [(u + 10, v + 10) for u, v in rings]
    assert not _check_connected(20, rings)
    assert _check_connected(20, rings + [(17, 3)])


@pytest.mark.parametrize(
    "n, mean_degree, seed", [(2, 1.5, 0), (16, 4.0, 3), (600, 6.0, 3), (2048, 8.0, 1)]
)
def test_directed_pairs_match_sorted_tuples(n, mean_degree, seed):
    topo = generate_er_graph(n, mean_degree, seed)
    pairs = topo.directed_pairs()
    assert pairs.dtype == np.int32 and pairs.shape == (2 * len(topo.u), 2)
    edges = list(zip(topo.u.tolist(), topo.v.tolist()))
    expected = sorted(edges + [(v, u) for u, v in edges])
    assert [tuple(p) for p in pairs.tolist()] == expected


# -- contact windows ----------------------------------------------------------


def _windows_engine(tau, seed):
    """An engine whose attestation clock runs at twice the block clock's mean gap."""
    return EventEngine(
        generate_er_graph(8, 3.0, 0), GossipConfig(tau_block=tau, tau_attestation=2 * tau),
        NullHandlers(), end_time=12.0, seed=seed,
    )


def _engine_gaps(engine, c, windows):
    """Gaps between class c's contact times over its first ``windows``
    windows, read through the engine's window seam, and the class's rate."""
    times = np.concatenate([engine._window(c, k)[0] for k in range(windows)])
    return np.diff(times, prepend=0.0), engine._windows[c].rate


@given(st.floats(0.1, 50.0), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_gap_sampling_positive(tau, seed):
    engine = _windows_engine(tau, seed)
    for c in (0, 1):
        gaps, _ = _engine_gaps(engine, c, windows=2)
        assert np.all(gaps >= 0.0)


def test_gap_sample_mean():
    # Each class's stream superposes every pair's clocks: mean gap 1/rate,
    # and about 1024 contacts a window.
    engine = _windows_engine(3.0, 0)
    for c in (0, 1):
        gaps, rate = _engine_gaps(engine, c, windows=10)
        assert abs(len(gaps) - 10240) < 4 * math.sqrt(10240)
        assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=0.05)
        assert rate == len(engine.topology.directed_pairs()) / (6.0, 3.0)[c]


def test_window_drawn_cold_equals_window_drawn_in_turn():
    warm = _windows_engine(1.0, 7)
    in_turn = [[warm._window(c, k) for k in range(6)] for c in (0, 1)]
    for c in (0, 1):
        for k in (5, 2, 0, 3):  # out of order, backwards included
            times, edges = _windows_engine(1.0, 7)._window(c, k)
            assert np.array_equal(times, in_turn[c][k][0])
            assert np.array_equal(edges, in_turn[c][k][1])
            again = warm._window(c, k)
            assert np.array_equal(again[0], times) and np.array_equal(again[1], edges)


@pytest.mark.parametrize("batch", [1, 7])
def test_window_same_for_any_batch(monkeypatch, batch):
    engine = _windows_engine(0.5, 3)
    windows = [[engine._window(c, k) for k in (0, 1, 9)] for c in (0, 1)]
    monkeypatch.setattr(simnet, "_WINDOW_BATCH", batch)
    for c in (0, 1):
        for k, (times, edges) in zip((0, 1, 9), windows[c]):
            other = engine._window(c, k)
            assert np.array_equal(other[0], times) and np.array_equal(other[1], edges)


def test_window_bounds_and_definition():
    # Window k holds the contacts in [k W, (k + 1) W), in time order, and
    # its pair indices lie in [0, n_dir).  The classes' generators are
    # children c = 0, 1 of the engine's seed, as SeedSequence.spawn would
    # make them, and an int seed means SeedSequence(seed).
    engine = _windows_engine(2.0, 11)
    ss = np.random.SeedSequence(11)
    for c, child in enumerate(ss.spawn(2)):
        stream = engine._windows[c]
        n_dir = len(engine.topology.directed_pairs())
        for k in (0, 4):
            times, edges = engine._window(c, k)
            width = 1024 / stream.rate
            assert k * width <= times[0] and times[-1] < (k + 1) * width
            assert np.all(np.diff(times) >= 0)
            assert edges.min() >= 0 and edges.max() < n_dir
            gen = np.random.PCG64(child)
            gen.advance(k * 2**40)
            first = np.random.Generator(gen).random()
            assert times[0] == k * width + -np.log1p(-first) / stream.rate


@pytest.mark.parametrize("c", [0, 1])
def test_pair_contact_counts_match_rate(c):
    # Over many windows, each ordered pair's contacts are Poisson at rate
    # 1 / tau_c: every pair's count lies within 4 sigma of tau's share.
    topo = generate_er_graph(6, 3.0, 2)
    engine = EventEngine(topo, GossipConfig(tau_block=0.5, tau_attestation=2.0),
                         NullHandlers(), end_time=12.0, seed=5)
    n_dir = len(topo.directed_pairs())
    windows = 200
    edges = np.concatenate([engine._window(c, k)[1] for k in range(windows)])
    span = windows * engine._windows[c].width
    expected = span / (2.0, 0.5)[c]
    counts = np.bincount(edges, minlength=n_dir)
    assert len(counts) == n_dir
    assert np.all(np.abs(counts - expected) < 4 * math.sqrt(expected)), (counts, expected)


def test_default_run_draws_under_70_percent_of_windows(monkeypatch):
    # An idle class draws nothing: of the windows that trace() replays, a
    # default run draws under 70%, and under 70% of each class's (350 of
    # 676: 197 of 338 vote windows and 153 of 338 block windows).
    drawn = []
    window = EventEngine._window

    def counted(self, c, k):
        drawn.append((c, k))
        return window(self, c, k)

    monkeypatch.setattr(EventEngine, "_window", counted)
    engine = run_with(SimConfig())[1]
    in_run = list(drawn)
    drawn.clear()
    for _ in engine.trace():
        pass
    assert len(set(drawn)) == len(drawn)
    assert len(in_run) < 0.7 * len(drawn), (len(in_run), len(drawn))
    for c in (0, 1):
        assert sum(d == c for d, _ in in_run) < 0.7 * sum(d == c for d, _ in drawn)


# -- engine -------------------------------------------------------------------


def _delivery_times(trials=4000, tau=3.0):
    topo = two_node_topology()
    times = []
    for seed in range(trials):
        engine = EventEngine(
            topo,
            GossipConfig(tau_block=tau, tau_attestation=tau),
            ReleaseOnce(),
            end_time=60.0,
            seed=seed,
        )
        engine.run()
        times.append(engine.block_arrival[1, 1])
    return np.array(times)


def test_two_node_delivery_bidirectional_mean():
    # Both ordered-pair clocks deliver, so the rate doubles and the first
    # interaction of either orientation carries the block.
    times = _delivery_times()
    delivered = times[~np.isnan(times)]
    assert len(delivered) == 4000
    assert np.mean(delivered) == pytest.approx(1.5, abs=0.08)


def test_engine_determinism():
    topo = generate_er_graph(16, 4.0, 3)

    def run_once():
        engine = EventEngine(topo, GossipConfig(), ReleaseOnce(), end_time=48.0, seed=99)
        engine.run()
        return list(engine.trace()), engine.block_seen.copy(), engine.block_arrival.copy()

    t1, s1, a1 = run_once()
    t2, s2, a2 = run_once()
    assert t1 == t2
    assert np.array_equal(s1, s2)
    assert np.array_equal(a1, a2, equal_nan=True)


def test_block_floods_whole_network():
    topo = generate_er_graph(32, 6.0, 1)
    engine = EventEngine(topo, GossipConfig(), ReleaseOnce(), end_time=60.0, seed=4)
    engine.run()
    assert engine.block_seen[:, 1].all()
    assert (engine.block_arrival[1:, 1] > 0).all()


def test_attestation_latest_wins_in_gossip():
    topo = generate_er_graph(16, 5.0, 2)

    class TwoVotes(NullHandlers):
        def on_slot_start(self, engine, t, slot):
            if slot == 0:
                engine.publish_attestation(0, validator=0, slot=0, target=1, time=t)
            elif slot == 1:
                engine.publish_attestation(0, validator=0, slot=1, target=2, time=t)

    engine = EventEngine(topo, GossipConfig(), TwoVotes(), end_time=120.0, seed=0)
    engine.run()
    assert (engine.lm_slot[:, 0] == 1).all()
    assert (engine.lm_target[:, 0] == 2).all()


def test_stale_attestation_does_not_replace():
    topo = two_node_topology()
    engine = EventEngine(topo, GossipConfig(), NullHandlers(), end_time=1.0, seed=0)
    engine.publish_attestation(0, validator=1, slot=5, target=7, time=0.0)
    engine.publish_attestation(0, validator=1, slot=5, target=8, time=0.0)
    assert engine.lm_target[0, 1] == 7
    engine.publish_attestation(0, validator=1, slot=4, target=9, time=0.0)
    assert engine.lm_target[0, 1] == 7


@pytest.mark.parametrize("validator", [2, 3, -1])
def test_attestation_rejects_validator_out_of_range(validator):
    # With n = 2, the slot-1 bit of validator 2 is validator 0's of slot 2,
    # that of validator 3 is validator 1's of slot 2, and that of validator
    # -1 is validator 1's of slot 0: an unchecked index would cast or
    # deliver those votes.
    topo = two_node_topology()
    engine = EventEngine(topo, GossipConfig(), NullHandlers(), end_time=1.0, seed=0)
    engine.publish_attestation(1, validator=1, slot=0, target=4, time=0.0)
    with pytest.raises(ValueError, match="validator"):
        engine.publish_attestation(0, validator=validator, slot=1, target=5, time=0.0)
    engine.publish_attestation(0, validator=0, slot=2, target=7, time=0.0)
    assert engine.vote_slots == [{4: 0b10}, {}, {7: 0b01}]
    assert engine.votes == [1 << 4, 1 << 1]
    assert engine.lm_target[0, 0] == 7


@pytest.mark.parametrize("node", [-1, 2])
def test_publish_rejects_node_out_of_range(node):
    # With n = 2, node -1 would index node 1's state.
    topo = two_node_topology()
    engine = EventEngine(topo, GossipConfig(), NullHandlers(), end_time=12.0, seed=0)
    with pytest.raises(ValueError, match="node"):
        engine.publish_block(node, 1, time=0.0)
    with pytest.raises(ValueError, match="node"):
        engine.publish_attestation(node, validator=0, slot=0, target=1, time=0.0)
    # Only genesis, which every node starts with.
    assert engine.blocks == [1, 1] and engine.votes == [0, 0]
    assert engine.vote_slots == []
    assert (engine.block_arrival[:, 0] == 0.0).all()
    assert np.isnan(engine.block_arrival[:, 1:]).all()


def test_slot_and_deadline_cadence():
    topo = two_node_topology()

    class Recorder(NullHandlers):
        def __init__(self):
            self.slots = []
            self.deadlines = []

        def on_slot_start(self, engine, t, slot):
            self.slots.append((t, slot))

        def on_attest_deadline(self, engine, t, slot):
            self.deadlines.append((t, slot))

    rec = Recorder()
    # Slot count is floor(duration / 12): 3 full slots fit into 40s.
    EventEngine(topo, GossipConfig(), rec, end_time=40.0, seed=0).run()
    assert rec.slots == [(0.0, 0), (SLOT_SECONDS, 1), (2 * SLOT_SECONDS, 2)]
    assert rec.deadlines == [
        (s * SLOT_SECONDS + ATTEST_DEADLINE_OFFSET, s) for s in range(3)
    ]


def test_scheduled_release_happens_at_time():
    topo = two_node_topology()

    class DelayedRelease(NullHandlers):
        def on_slot_start(self, engine, t, slot):
            if slot == 0:
                engine.schedule_release(t + 9.0, 0, 1)

    engine = EventEngine(topo, GossipConfig(), DelayedRelease(), end_time=24.0, seed=1)
    engine.run()
    assert engine.block_arrival[0, 1] == pytest.approx(9.0)


def test_handler_errors_are_wrapped():
    topo = two_node_topology()

    class Broken(NullHandlers):
        def on_slot_start(self, engine, t, slot):
            raise RuntimeError("boom")

    with pytest.raises(EngineError) as excinfo:
        EventEngine(topo, GossipConfig(), Broken(), end_time=12.0, seed=0).run()
    assert "boom" in str(excinfo.value)


def test_gossip_config_validation():
    with pytest.raises(ValueError):
        GossipConfig(tau_block=0.0)
    with pytest.raises(ValueError):
        EventEngine(two_node_topology(), GossipConfig(), NullHandlers(),
                    end_time=0.0, seed=0)


def run_trace(topo, end_time, seed):
    engine = EventEngine(topo, GossipConfig(), ReleaseOnce(), end_time=end_time, seed=seed)
    engine.run()
    return list(engine.trace())


def test_trace_csv(tmp_path):
    trace = run_trace(two_node_topology(), 13.0, 0)
    path = tmp_path / "trace.csv"
    write_csv(path, "time,kind,node,detail", trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,kind,node,detail"
    assert any("SLOT_START" in line for line in lines)
    assert any("BLOCK_RELEASE" in line for line in lines)


def test_trace_csv_times_parse_as_floats(tmp_path):
    trace = run_trace(generate_er_graph(16, 8.0, 5), 36.0, 3)
    path = tmp_path / "trace.csv"
    write_csv(path, "time,kind,node,detail", trace)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert sum(row[1] == "GOSSIP_INTERACTION" for row in rows) > 1000
    times = [float(row[0]) for row in rows]
    assert times == sorted(times)


def test_trace_starts_with_the_run():
    # Blocks published before run() seed the state without trace rows.
    engine = EventEngine(
        two_node_topology(), GossipConfig(), NullHandlers(), end_time=12.0, seed=0
    )
    engine.publish_block(0, 0, 0.0)
    engine.publish_block(1, 0, 0.0)
    assert engine.events == []
    engine.run()
    trace = list(engine.trace())
    assert trace[0] == (0.0, "SLOT_START", -1, "slot=0")
    assert all(row[1] != "BLOCK_RELEASE" for row in trace)
    assert engine.block_seen[:, 0].all()


def test_trace_puts_a_draw_after_the_events_at_its_time():
    # The run drains contacts strictly before an event, so a contact at
    # exactly a slot start or a deadline runs after it, and the trace lists
    # it there, an attestation contact before a block contact at the same
    # time.  The contact at the end time never runs and is not listed.
    engine = EventEngine(
        two_node_topology(), GossipConfig(), ReleaseOnce(), end_time=13.0, seed=0
    )
    # Hand-made windows: the first of each class holds these contacts, on
    # the edge 0 -> 1 (index 0) or 1 -> 0 (index 1), and the rest are empty.
    contacts = {0: ([4.0], [1]), 1: ([0.0, 4.0, 13.0], [0, 1, 0])}
    empty = (np.empty(0), np.empty(0, dtype=np.intp))

    def window(c, k):
        if k:
            return empty
        times, edges = contacts[c]
        return np.array(times), np.array(edges, dtype=np.intp)

    engine._window = window
    engine.run()
    assert list(engine.trace()) == [
        (0.0, "SLOT_START", -1, "slot=0"),
        (0.0, "BLOCK_RELEASE", 0, "block=1"),
        (0.0, "GOSSIP_INTERACTION", 0, "->1:block"),
        (4.0, "ATTEST_DEADLINE", -1, "slot=0"),
        (4.0, "GOSSIP_INTERACTION", 1, "->0:attestation"),
        (4.0, "GOSSIP_INTERACTION", 1, "->0:block"),
        (13.0, "SIM_END", -1, ""),
    ]
    assert engine.block_arrival[1, 1] == 0.0


def test_settling_votes_keeps_latest_messages(monkeypatch):
    # Votes every node holds move to the settled table.  At every deadline
    # the latest-message views must read as they do when nothing is ever
    # settled.  Slow vote gossip keeps slots in flight across deadlines.
    topo = generate_er_graph(12, 4.0, 1)
    gossip = GossipConfig(tau_attestation=15.0)

    class VoteMostSlots(NullHandlers):
        def __init__(self):
            self.views = []

        def on_attest_deadline(self, engine, t, slot):
            self.views.append((engine.lm_slot, engine.lm_target))
            for v in range(engine.n_nodes):
                if (v + slot) % 3:
                    engine.publish_attestation(v, v, slot, target=slot % 2, time=t)

    def run():
        handlers = VoteMostSlots()
        engine = EventEngine(topo, gossip, handlers, end_time=240.0, seed=2)
        engine.run()
        return engine, handlers.views

    settled, settled_views = run()
    with monkeypatch.context() as m:
        m.setattr(EventEngine, "_compact", lambda self, slot: None)
        dense, dense_views = run()
    assert dense.vote_base == 0 and not dense.vote_settled
    assert settled.vote_base > 10 and settled.vote_settled
    assert max(x.bit_length() for x in settled.votes) <= 4 * 12
    assert len(settled_views) == len(dense_views) == 20
    for (slot_a, target_a), (slot_b, target_b) in zip(settled_views, dense_views):
        assert np.array_equal(slot_a, slot_b)
        assert np.array_equal(target_a, target_b)
    with pytest.raises(ValueError):
        settled.publish_attestation(0, 0, settled.vote_base - 1, target=0, time=240.0)


def test_trace_of_a_default_run_streams():
    # 690,107 rows; as one list, the 710,732 rows of the same run on an
    # earlier sampler's network and contact stream took 177 MB.
    engine = run_with(SimConfig())[1]
    tracemalloc.start()
    try:
        rows = sum(1 for _ in engine.trace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 690_107
    assert peak < 8 * 2**20, peak / 2**20
