"""The per-class gossip drain against the per-interaction loop it replaced.

``LoopEngine`` is the engine without the drain: one Python loop iteration
per interaction, none skipped, over both classes' contacts merged by (time,
class), and the non-equivocation rule as a scan over the slot's targets.
It lives here as the oracle, with its own copy of the contact windows'
definition: a fresh generator per window, advanced to the window's
position, and the time kept as a running ``t += gap``.  It keeps its own
arrival array, written as each block arrives, where the engine replays
arrivals when ``block_arrival`` is read.  Its deadline
handler (``PerNodeHandlers``) is the loop over the nodes that the per-view
publish replaced, one ``publish_attestation`` call per vote.  It records its
trace inline as it runs, gossip after the last attestation deadline
included.  The engine must reproduce it bit for bit: arrival times,
bitsets, vote tables with the order of their keys, heads and metrics, and
``engine.trace()``, replayed after the run, must equal the oracle's trace.
The engine's state after a run must equal the oracle's at its last deadline.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import weakref
from collections import Counter
from functools import reduce
from operator import or_

import numpy as np
import pytest
from conftest import run_with
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from timinggames import waitinggame
from timinggames.consensus import GENESIS_ID, head_from_arrays
from timinggames.simnet import (
    _DEADLINE,
    _KIND_NAMES,
    _RELEASE,
    _SLOT_START,
    ATTEST_DEADLINE_OFFSET,
    SLOT_SECONDS,
    EngineError,
    EventEngine,
    GossipConfig,
    generate_er_graph,
)
from timinggames.waitinggame import SimConfig


class LoopEngine(EventEngine):
    """Oracle: the engine with its per-interaction gossip loop.  ``arrival``
    is its block arrival array, recorded inline; ``rows`` is the trace of
    its last run, recorded inline; ``states`` holds its ``(arrival bytes,
    blocks, votes)`` at the start of the run and after each deadline."""

    rows = None

    def __init__(self, topology, gossip, handlers, end_time, seed):
        super().__init__(topology, gossip, handlers, end_time, seed)
        self.seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self.arrival = np.full((self.n_nodes, self.n_slots + 2), np.nan)
        self.arrival[:, GENESIS_ID] = 0.0

    def _snapshot(self):
        self.states.append((self.arrival.tobytes(), list(self.blocks), list(self.votes)))

    def _arrive(self, node, new, t):
        while new:
            low = new & -new
            self.arrival[node, low.bit_length() - 1] = t
            new ^= low

    def publish_block(self, node, block_id, time):
        bit = 1 << block_id
        if not self.blocks[node] & bit:
            self.arrival[node, block_id] = time
            self.blocks[node] |= bit
        if self.rows is not None:
            self.rows.append((time, "BLOCK_RELEASE", node, f"block={block_id}"))

    def publish_attestation(self, node, validator, slot, target, time):
        k = slot - self.vote_base
        if k < 0:
            raise ValueError(f"vote of slot {slot} published after the slot settled")
        while len(self.vote_slots) <= k:
            self.vote_slots.append({})
        group = self.vote_slots[k]
        bit = 1 << validator
        if not any(bits & bit for bits in group.values()):
            group[target] = group.get(target, 0) | bit
        self.votes[node] |= bit << (k * self.n_validators)

    def _class_draws(self, c):
        """Class c's (time, edge index, block-class flag) contacts, window by
        window, from the windows' definition."""
        seed = self.seed
        child = np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, c))
        tau = (self.gossip.tau_attestation, self.gossip.tau_block)[c]
        rate = self._n_dir / tau
        width = 1024 / rate
        for k in itertools.count():
            gaps = np.random.PCG64(child)
            gaps.advance(k * 2**40)
            edges = np.random.PCG64(child)
            edges.advance(k * 2**40 + 2**39)
            gaps, edges = np.random.Generator(gaps), np.random.Generator(edges)
            t = k * width
            while True:
                t += -np.log1p(-gaps.random()) / rate
                if t >= (k + 1) * width:
                    break
                yield float(t), int(edges.random() * self._n_dir), bool(c)

    def _draws(self):
        """Both classes' contacts, merged by (time, class)."""
        return heapq.merge(self._class_draws(0), self._class_draws(1),
                           key=lambda draw: (draw[0], draw[2]))

    def run(self):
        src = self._src.tolist()
        dst = self._dst.tolist()
        blocks = self.blocks
        votes = self.votes
        arrive = self._arrive
        queue = self._queue
        self.rows = rows = []
        self.states = []
        self._snapshot()

        draws = self._draws()
        gossip_t, e, is_block = next(draws)

        while True:
            t, kind, _, payload = heapq.heappop(queue)
            while gossip_t < t:
                u = src[e]
                v = dst[e]
                if is_block:
                    a = blocks[u]
                    b = blocks[v]
                    if a != b:
                        blocks[u] = blocks[v] = a | b
                        if b & ~a:
                            arrive(u, b & ~a, gossip_t)
                        if a & ~b:
                            arrive(v, a & ~b, gossip_t)
                    rows.append((gossip_t, "GOSSIP_INTERACTION", u, f"->{v}:block"))
                else:
                    a = votes[u]
                    b = votes[v]
                    if a != b:
                        votes[u] = votes[v] = a | b
                    rows.append((gossip_t, "GOSSIP_INTERACTION", u, f"->{v}:attestation"))
                gossip_t, e, is_block = next(draws)

            try:
                if kind == _RELEASE:
                    self.publish_block(*payload, t)
                elif kind == _SLOT_START:
                    rows.append((t, "SLOT_START", -1, f"slot={payload}"))
                    self.handlers.on_slot_start(self, t, payload)
                    self._push(t + ATTEST_DEADLINE_OFFSET, _DEADLINE, payload)
                    if payload + 1 < self.n_slots:
                        self._push((payload + 1) * SLOT_SECONDS, _SLOT_START, payload + 1)
                elif kind == _DEADLINE:
                    rows.append((t, "ATTEST_DEADLINE", -1, f"slot={payload}"))
                    self.handlers.on_attest_deadline(self, t, payload)
                    self._compact(payload)
                    self._snapshot()
                else:
                    rows.append((t, "SIM_END", -1, ""))
                    return
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError((t, _KIND_NAMES[kind]), exc) from exc


class RecordingHandlers(waitinggame._ChainHandlers):
    """Chain handlers that keep, per deadline, the gossiped view and the
    heads with their order in the vote table."""

    def __init__(self, *args):
        super().__init__(*args)
        self.deadlines = []

    def on_attest_deadline(self, engine, t, slot):
        view = (list(engine.blocks), list(engine.votes), engine.vote_base)
        super().on_attest_deadline(engine, t, slot)
        heads = list(engine.vote_slots[slot - engine.vote_base].items())
        self.deadlines.append((t, view, heads))


class PerNodeHandlers(waitinggame._ChainHandlers):
    """The oracle's deadline: a loop over the nodes that computes a view's
    head at its first node and publishes each vote by its own call."""

    def on_attest_deadline(self, engine, t, slot):
        heads = {}
        for v in range(self.n):
            if v == self.tree.proposer[slot + 1]:
                continue
            view = (engine.blocks[v], engine.votes[v])
            if view not in heads:
                heads[view] = head_from_arrays(
                    self.tree.parent, self.tree.children, *view,
                    engine.vote_slots, engine.vote_settled, engine.n_validators,
                )
            engine.publish_attestation(v, v, slot, heads[view], t)


class OracleHandlers(RecordingHandlers, PerNodeHandlers):
    pass


def vote_tables(engine):
    """The vote tables with the order of their keys."""
    return [list(group.items()) for group in engine.vote_slots], list(engine.vote_settled.items())


def assert_same_run(config):
    """The engine reproduces the oracle exactly, its replayed trace included,
    and ends in the oracle's state at its last deadline."""
    want, oracle, oracle_handlers = run_with(config, LoopEngine, OracleHandlers)
    got, engine, handlers = run_with(config, EventEngine, RecordingHandlers)
    assert (engine.block_arrival.tobytes(), engine.blocks, engine.votes) == oracle.states[-1]
    assert engine.vote_base == oracle.vote_base
    assert vote_tables(engine) == vote_tables(oracle)
    assert handlers.deadlines == oracle_handlers.deadlines
    assert got.metrics == want.metrics
    assert got.mainchain_ids == want.mainchain_ids
    assert got.tree.parent == want.tree.parent
    assert got.tree.release_time == want.tree.release_time
    assert list(engine.trace()) == oracle.rows
    return oracle


def configs():
    return st.builds(
        lambda n, density, tau_b, tau_a, x_d, t_d, duration, seed: SimConfig(
            n=n,
            mean_degree=density * (n - 1),
            tau_block=tau_b,
            tau_attestation=tau_a,
            duration=duration,
            x_d=x_d,
            t_d=t_d,
            seed=seed,
        ),
        n=st.integers(2, 24),
        density=st.floats(0.3, 0.95),
        tau_b=st.floats(0.2, 6.0),
        tau_a=st.floats(0.2, 6.0),
        x_d=st.floats(0.0, 1.0),
        t_d=st.one_of(st.sampled_from([4.0, 12.0, 0.0]), st.floats(0.0, 12.0)),
        duration=st.floats(1.0, 100.0),
        seed=st.integers(0, 2**32),
    )


@given(configs())
@example(SimConfig(n=12, mean_degree=5.0, tau_block=1.0, tau_attestation=2.5,
                   duration=60.0, x_d=1.0, t_d=4.0, seed=3))
@example(SimConfig(n=12, mean_degree=5.0, tau_block=2.5, tau_attestation=1.0,
                   duration=60.0, x_d=0.5, t_d=12.0, seed=4))
# Releases after the last deadline, which run() only logs: one slot, and
# five slots whose last release comes at 57 s.
@example(SimConfig(n=12, mean_degree=5.0, tau_block=2.5, tau_attestation=1.0,
                   duration=12.0, x_d=1.0, t_d=11.0, seed=6))
@example(SimConfig(n=12, mean_degree=5.0, tau_block=1.0, tau_attestation=2.5,
                   duration=60.0, x_d=1.0, t_d=9.0, seed=5))
@settings(max_examples=40, deadline=None)
def test_drain_matches_per_interaction_loop(config):
    assume(config.tau_block != config.tau_attestation)
    assert_same_run(config)


def test_drain_matches_loop_across_windows():
    # Each class's contacts span over ten windows.
    config = SimConfig(n=16, mean_degree=4.0, tau_block=2.0, tau_attestation=3.5,
                       duration=1000.0, x_d=0.5, t_d=11.0, seed=8)
    oracle = assert_same_run(config)
    for c, name in enumerate(("attestation", "block")):
        contacts = sum(row[3].endswith(name) for row in oracle.rows)
        assert contacts > 10 * 1024
        assert oracle.end_time > 10 * oracle._windows[c].width


def idle_configs():
    """Gossip far faster than a slot, and delayers releasing at the next
    slot start: each class spends most of a slot with nothing undelivered,
    over many windows, so the drain's cursor jumps when it resumes."""
    return st.builds(
        lambda n, density, tau_b, tau_a, x_d, duration, seed: SimConfig(
            n=n, mean_degree=density * (n - 1), tau_block=tau_b, tau_attestation=tau_a,
            duration=duration, x_d=x_d, t_d=12.0, seed=seed,
        ),
        n=st.integers(2, 10),
        density=st.floats(0.3, 0.95),
        tau_b=st.floats(0.02, 0.5),
        tau_a=st.floats(0.02, 0.5),
        x_d=st.floats(0.0, 1.0),
        duration=st.floats(12.0, 48.0),
        seed=st.integers(0, 2**32),
    )


# Vote and block windows span 3.0 and 1.5 s, so a slot spans several.
IDLE_CONFIG = SimConfig(n=8, mean_degree=5.0, tau_block=0.05, tau_attestation=0.1,
                        duration=48.0, x_d=0.5, t_d=12.0, seed=2)


@given(idle_configs())
@example(IDLE_CONFIG)
@settings(max_examples=20, deadline=None)
def test_drain_matches_loop_over_idle_stretches(config):
    assume(config.tau_block != config.tau_attestation)
    assert_same_run(config)


def test_idle_classes_skip_windows(monkeypatch):
    # On IDLE_CONFIG, which matches the oracle above, each class draws
    # under half of the windows up to the last deadline, and resumes past
    # windows it skipped.
    drawn = [set(), set()]
    window = EventEngine._window

    def counted(self, c, k):
        drawn[c].add(k)
        return window(self, c, k)

    monkeypatch.setattr(EventEngine, "_window", counted)
    _, engine, _ = run_with(IDLE_CONFIG)
    last_deadline = (engine.n_slots - 1) * SLOT_SECONDS + ATTEST_DEADLINE_OFFSET
    for c in (0, 1):
        spanned = int(last_deadline // engine._windows[c].width) + 1
        assert len(drawn[c]) < spanned / 2
        # Some skipped window lies between two drawn ones.
        assert max(drawn[c]) - min(drawn[c]) + 1 > len(drawn[c])


# -- the tail after the last deadline -------------------------------------------


@pytest.mark.parametrize("config", [
    # Durations that are not a multiple of 12 s: the last deadline comes
    # 16 and 19.9 s before the end.
    SimConfig(n=16, mean_degree=5.0, tau_block=2.0, tau_attestation=3.5,
              duration=20.0, x_d=0.5, t_d=2.0, seed=11),
    SimConfig(n=16, mean_degree=5.0, tau_block=2.0, tau_attestation=3.5,
              duration=23.9, x_d=0.5, t_d=6.0, seed=12),
    # t_d = 11: the last release comes after the last deadline.
    SimConfig(n=16, mean_degree=5.0, tau_block=3.5, tau_attestation=2.0,
              duration=36.0, x_d=1.0, t_d=11.0, seed=13),
    SimConfig(n=20, mean_degree=4.0, tau_block=3.0, tau_attestation=3.0,
              duration=23.9, x_d=1.0, t_d=11.0, seed=14),
], ids=["20s", "23.9s", "36s-t_d=11", "23.9s-t_d=11"])
def test_drain_matches_loop_with_a_long_tail(config):
    assert_same_run(config)


# The one slot's delayed release at 11 s comes after its deadline at 4 s.
TAIL_CONFIG = SimConfig(n=24, mean_degree=4.0, tau_block=3.5, tau_attestation=2.0,
                        duration=23.9, x_d=1.0, t_d=11.0, seed=7)
# Five slots; the last one's release at 58 s comes after its deadline at 52 s.
LAST_SLOT_CONFIG = SimConfig(n=24, mean_degree=4.0, tau_block=2.0, tau_attestation=3.0,
                             duration=65.0, x_d=1.0, t_d=10.0, seed=9)


def late_releases(engine):
    """The ``(time, node, block id)`` of each release logged after the last
    deadline."""
    last_deadline = (engine.n_slots - 1) * SLOT_SECONDS + ATTEST_DEADLINE_OFFSET
    return [
        (t, node, int(label.removeprefix("block=")))
        for _, (t, kind, node, label) in engine.events
        if kind == "BLOCK_RELEASE" and t > last_deadline
    ]


def test_simulate_leaves_the_tail_undrained(monkeypatch):
    # A 12 s run at N = 256: a block window spans about 1.5 s.  simulate
    # draws block windows until the block has spread, none that starts at
    # or after the deadline at 4 s, and no vote window at all (the votes
    # are published at the deadline).  Reading the bitsets after it draws
    # nothing more, and reading block_arrival replays only the block
    # windows the drain drew.
    drawn = []
    window = EventEngine._window

    def counted(self, c, k):
        drawn.append((c, k * self._windows[c].width))
        return window(self, c, k)

    monkeypatch.setattr(EventEngine, "_window", counted)
    config = SimConfig(n=256, mean_degree=8.0, duration=SLOT_SECONDS, seed=1)
    _, engine, _ = run_with(config)
    starts = [start for c, start in drawn if c == 1]
    assert len(starts) == len(drawn) > 1
    assert max(starts) < ATTEST_DEADLINE_OFFSET
    assert engine.votes and engine.blocks and len(drawn) == len(starts)
    assert engine.block_arrival.size
    assert sorted(drawn[len(starts):]) == sorted((1, start) for start in starts)


def test_simulate_drains_no_further_than_the_last_deadline(monkeypatch):
    # After the last deadline no handler reads node state: a later release
    # is logged, never published, and no gossip runs up to it.
    times = []
    drain = EventEngine._drain

    def recorded(self, t):
        times.append(t)
        drain(self, t)

    monkeypatch.setattr(EventEngine, "_drain", recorded)
    for config in (TAIL_CONFIG, LAST_SLOT_CONFIG):
        times.clear()
        out, engine, _ = run_with(config)
        last_deadline = (engine.n_slots - 1) * SLOT_SECONDS + ATTEST_DEADLINE_OFFSET
        assert max(times) == times[-1] == last_deadline
        (_, node, block), = late_releases(engine)
        assert node == out.tree.proposer[block]
        assert np.isnan(engine.block_arrival[:, block]).all()
        assert not engine.blocks[node] >> block & 1


def test_engine_is_freed_by_reference_counting(monkeypatch):
    # The engine keeps its contact windows between drains.  Were they or
    # anything else to hold the engine in a cycle, the engine would wait for
    # the cyclic collector, and a wide run's peak memory would grow with the
    # engines left over.  Both runs log a release after the last deadline.
    refs = []
    late = []

    class Watched(EventEngine):
        def run(self):
            super().run()
            late.append(late_releases(self))

    def make(*args):
        engine = Watched(*args)
        refs.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(waitinggame, "EventEngine", make)
    gc.collect()
    gc.disable()
    try:
        for config in (TAIL_CONFIG, LAST_SLOT_CONFIG):
            waitinggame.simulate(config)
            assert len(late[-1]) == 1
            assert refs[-1]() is None
    finally:
        gc.enable()


# -- replayed block arrivals ----------------------------------------------------


class ReadingHandlers(waitinggame._ChainHandlers):
    """Chain handlers that read ``block_arrival`` at each slot start and,
    twice, at each deadline, where they keep it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []

    def on_slot_start(self, engine, t, slot):
        engine.block_arrival
        super().on_slot_start(engine, t, slot)

    def on_attest_deadline(self, engine, t, slot):
        super().on_attest_deadline(engine, t, slot)
        first = engine.block_arrival.tobytes()
        assert engine.block_arrival.tobytes() == first
        self.arrivals.append(first)


@given(configs())
@example(IDLE_CONFIG)
@example(TAIL_CONFIG)
@settings(max_examples=25, deadline=None)
def test_arrivals_read_mid_run_match_the_loop(config):
    _, oracle, _ = run_with(config, LoopEngine, PerNodeHandlers)
    read, engine, handlers = run_with(config, handlers_class=ReadingHandlers)
    assert handlers.arrivals == [arrival for arrival, _, _ in oracle.states[1:]]
    assert engine.block_arrival.tobytes() == oracle.states[-1][0]
    # Reading changes nothing else the run leaves.
    unread, plain, _ = run_with(config)
    assert (engine.blocks, engine.votes) == (plain.blocks, plain.votes)
    assert vote_tables(engine) == vote_tables(plain)
    assert read.metrics == unread.metrics
    assert read.mainchain_ids == unread.mainchain_ids
    assert list(engine.trace()) == list(plain.trace())


class PlannedReleases:
    """Releases ``plan[slot]``'s ``(offset, node, block)`` after each slot
    start, a block possibly from several nodes, and keeps ``block_arrival``
    and the block sets at each deadline."""

    def __init__(self, plan):
        self.plan = plan
        self.arrivals = []
        self.blocks = []

    def on_slot_start(self, engine, t, slot):
        for offset, node, block in self.plan.get(slot, ()):
            engine.schedule_release(t + offset, node, block)

    def on_attest_deadline(self, engine, t, slot):
        if not isinstance(engine, LoopEngine):
            self.blocks.append(list(engine.blocks))
            self.arrivals.append(engine.block_arrival.tobytes())


@st.composite
def release_plans(draw):
    """A network, blocks published before the run, releases per slot (a
    block may come from a second node), and blocks published after it."""
    n = draw(st.integers(2, 12))
    slots = draw(st.integers(1, 4))
    nodes = st.integers(0, n - 1)
    blocks = st.integers(1, slots + 1)
    before = draw(st.lists(st.tuples(nodes, blocks, st.floats(0.0, 1.0)), max_size=3))
    plan = draw(st.dictionaries(
        st.integers(0, slots - 1),
        st.lists(st.tuples(st.floats(0.0, 11.9), nodes, blocks), min_size=1, max_size=3),
    ))
    after = draw(st.lists(st.tuples(nodes, blocks, st.floats(0.0, 100.0)), max_size=4))
    return (n, draw(st.floats(0.3, 0.95)), draw(st.floats(0.1, 6.0)), slots,
            draw(st.integers(0, 2**32)), before, plan, after)


@given(release_plans())
@example((6, 0.5, 0.2, 3, 1, [(2, 1, 0.5)], {0: [(0.0, 0, 1), (3.0, 4, 1)], 1: [(2.0, 1, 2)]},
          [(5, 3, 40.0), (5, 3, 41.0)]))
# A publish completes the block class; a later one must not wake it at
# contacts from before the first.
@example((3, 0.5, 2.0, 2, 1, [(1, 2, 0.0)], {0: [(1.0, 0, 2)], 1: [(0.0, 0, 1)]}, []))
@example((3, 0.5, 2.0, 1, 1, [(1, 2, 0.0)], {0: [(1.0, 0, 2)]}, [(0, 1, 0.0)]))
@example((2, 0.9, 6.0, 2, 1, [(1, 2, 0.0)], {0: [(1.0, 0, 2)], 1: [(0.0, 0, 1)]}, []))
@settings(max_examples=60, deadline=None)
def test_arrivals_replay_every_publish(case):
    n, density, tau, slots, seed, before, plan, after = case
    topology = generate_er_graph(n, density * (n - 1), seed)
    gossip = GossipConfig(tau_block=tau, tau_attestation=3.0)
    engines = []
    for cls in (LoopEngine, EventEngine):
        engines.append(cls(topology, gossip, PlannedReleases(plan), slots * SLOT_SECONDS, seed))
        for node, block, time in before:
            engines[-1].publish_block(node, block, time)
    oracle, engine = engines
    assert engine.block_arrival.tobytes() == oracle.arrival.tobytes()
    oracle.run()
    engine.run()
    assert engine.handlers.blocks == [blocks for _, blocks, _ in oracle.states[1:]]
    assert engine.handlers.arrivals == [arrival for arrival, _, _ in oracle.states[1:]]
    assert engine.block_arrival.tobytes() == oracle.states[-1][0]
    # The replay's union and count of incomplete nodes are the drain's.
    assert engine._replay[4:] == engine._union[1:] + engine._left[1:]
    # Publishes after the run set the arrival of a node that lacks the block.
    want = engine.block_arrival.copy()
    for node, block, time in after:
        if np.isnan(want[node, block]):
            want[node, block] = time
        engine.publish_block(node, block, time)
        assert engine.block_arrival.tobytes() == want.tobytes()


def test_block_windows_are_drawn_at_most_twice(monkeypatch):
    # Read at every slot start and deadline of a default run, the replay
    # draws once more each block window the drain drew, and no other; a
    # read after the run draws nothing.
    drawn = []
    window = EventEngine._window

    def counted(self, c, k):
        if c == 1:
            drawn.append(k)
        return window(self, c, k)

    monkeypatch.setattr(EventEngine, "_window", counted)
    _, engine, _ = run_with(SimConfig(), handlers_class=ReadingHandlers)
    counts = Counter(drawn)
    assert set(counts.values()) == {2}
    engine.block_arrival
    assert Counter(drawn) == counts


# -- incomplete-node counts -----------------------------------------------------


def assert_counts(engine):
    """The engine's per-class unions and counts of incomplete nodes,
    recounted."""
    released = np.flatnonzero(~np.isnan(engine.block_arrival).all(axis=0))
    block_union = sum(1 << int(b) for b in released)
    assert reduce(or_, engine.blocks, 0) == block_union == engine._union[1]
    assert engine._left[1] == sum(held != block_union for held in engine.blocks)
    cast = 0
    for k, group in enumerate(engine.vote_slots):
        for bits in group.values():
            cast |= bits << (k * engine.n_validators)
    assert reduce(or_, engine.votes, 0) == cast == engine._union[0]
    assert engine._left[0] == sum(held != cast for held in engine.votes)


class CheckingHandlers(waitinggame._ChainHandlers):
    """Chain handlers that recount before and after each of their events,
    each publish and each settle."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bases = []

    def on_slot_start(self, engine, t, slot):
        if slot == 0:
            # Releases run no handler, and slots settle after the deadline
            # handler: check them where they run.
            for name in ("publish_block", "publish_attestations", "_compact"):
                setattr(engine, name, self.checked(engine, getattr(engine, name)))
        assert_counts(engine)
        super().on_slot_start(engine, t, slot)
        assert_counts(engine)

    def on_attest_deadline(self, engine, t, slot):
        assert_counts(engine)
        super().on_attest_deadline(engine, t, slot)
        assert_counts(engine)
        self.bases.append(engine.vote_base)

    @staticmethod
    def checked(engine, method):
        def call(*args):
            assert_counts(engine)
            method(*args)
            assert_counts(engine)

        return call


@given(configs())
@settings(max_examples=30, deadline=None)
def test_incomplete_counts_match_recount(config):
    _, engine, _ = run_with(config, handlers_class=CheckingHandlers)
    assert_counts(engine)


def test_incomplete_counts_while_slots_settle():
    # Fast vote gossip settles vote slots at most deadlines, and each
    # settle shifts the window and the vote union.
    for seed in range(3):
        config = SimConfig(n=20, mean_degree=6.0, tau_block=1.0, tau_attestation=0.5,
                           duration=120.0, x_d=0.5, t_d=10.0, seed=seed)
        _, engine, handlers = run_with(config, handlers_class=CheckingHandlers)
        assert_counts(engine)
        # Slots settled while the run went on, not only at its end.
        assert len(set(handlers.bases)) > 2


def test_conflicting_vote_at_another_node_is_ignored():
    # Validator 1 votes for block 5 at node 0, then for block 6 at node 1,
    # which has not received the first vote: the first target stands, and
    # node 1 counts as holding the vote.
    topology = generate_er_graph(4, 2.5, 0)
    engines = [
        cls(topology, GossipConfig(), None, 24.0, seed=0)
        for cls in (EventEngine, LoopEngine)
    ]
    for engine in engines:
        engine.publish_attestation(0, validator=1, slot=0, target=5, time=4.0)
        engine.publish_attestation(1, validator=1, slot=0, target=6, time=4.0)
        engine.publish_attestation(1, validator=2, slot=1, target=6, time=16.0)
    engine, oracle = engines
    assert engine.vote_slots == oracle.vote_slots == [{5: 0b10}, {6: 0b100}]
    assert engine.votes == oracle.votes
    assert_counts(engine)
    # Node 1 holds both votes; nodes 0, 2 and 3 lack one.
    assert engine._left[0] == 3


def test_incomplete_counts_after_each_publish():
    engine = EventEngine(generate_er_graph(4, 2.5, 0), GossipConfig(), None, 36.0, seed=0)
    steps = [  # a publish, then the (vote, block) counts of incomplete nodes
        # A fresh vote: only its publisher holds the new union.
        (lambda: engine.publish_attestation(0, 1, 0, 5, 4.0), [3, 0]),
        # The known vote completes the nodes it reaches, by a conflicting
        # publish too.
        (lambda: engine.publish_attestation(2, 1, 0, 6, 4.0), [2, 0]),
        (lambda: engine.publish_attestation(1, 1, 0, 5, 4.0), [1, 0]),
        # One fresh vote, at a node that lacks another one.
        (lambda: engine.publish_attestations(1, 7, [3], 16.0), [4, 0]),
        # Two fresh votes, at nodes 0 and 2.
        (lambda: engine.publish_attestations(1, 7, [0, 2], 16.0), [4, 0]),
        # Validators that voted already: nothing changes.
        (lambda: engine.publish_attestations(1, 8, [0, 3], 16.0), [4, 0]),
        # Blocks: a fresh one at a complete node, the known one at another
        # node, and again at that node.
        (lambda: engine.publish_block(1, 1, 12.0), [4, 3]),
        (lambda: engine.publish_block(2, 1, 12.0), [4, 2]),
        (lambda: engine.publish_block(2, 1, 12.5), [4, 2]),
    ]
    for step, left in steps:
        step()
        assert_counts(engine)
        assert engine._left == left
    # Every node completes its votes; then one fresh vote leaves only its
    # publisher complete.
    engine.votes[:] = [engine._union[0]] * 4
    engine._left[0] = 0
    engine.publish_attestations(2, 9, [1], 28.0)
    assert_counts(engine)
    assert engine._left[0] == 3


@st.composite
def vote_states(draw):
    """A network, the votes published before, and one batch to publish: a
    slot, a target and validators, some of which may have voted in that
    slot already, for this target or another, at their own node or another.
    The slot may lie past the vote window, and the oldest slots may have
    settled."""
    n = draw(st.integers(2, 12))
    slot_ids = st.integers(0, 4)
    before = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), slot_ids, st.integers(0, 3)),
        max_size=30,
    ))
    settle = draw(st.integers(-1, 2))
    batch = (
        draw(slot_ids),
        draw(st.integers(0, 3)),
        draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
    )
    return n, before, settle, batch


@given(vote_states())
@example((4, [(0, 1, 0, 1), (2, 2, 1, 3), (3, 0, 1, 1)], -1, (1, 2, [0, 2, 3, 1, 2])))
@settings(max_examples=200, deadline=None)
def test_publish_attestations_matches_a_loop(state):
    # The loop side is the oracle's own publish_attestation, which shares
    # no code with the engine's vote publishes.
    n, before, settle, (slot, target, validators) = state
    topology = generate_er_graph(n, min(1.5, n - 1), 0)
    engines = [
        cls(topology, GossipConfig(), None, 60.0, seed=0) for cls in (EventEngine, LoopEngine)
    ]
    for engine in engines:
        for node, validator, s, tgt in before:
            engine.publish_attestation(node, validator, s, tgt, 0.0)
        # Nodes that all hold a slot's votes let it settle.
        union = reduce(or_, engine.votes, 0)
        engine.votes[:] = [union if v % 2 else x for v, x in enumerate(engine.votes)]
        engine._left[0] = sum(x != union for x in engine.votes)
        engine._compact(settle)
    batch, loop = engines
    assume(slot >= batch.vote_base)
    batch.publish_attestations(slot, target, validators, 4.0)
    for v in validators:
        loop.publish_attestation(v, v, slot, target, 4.0)
    assert batch.votes == loop.votes
    assert [list(group.items()) for group in batch.vote_slots] == [
        list(group.items()) for group in loop.vote_slots
    ]
    assert batch.vote_base == loop.vote_base
    assert_counts(batch)


def test_publish_attestations_checks_its_arguments():
    engine = EventEngine(generate_er_graph(4, 2.5, 0), GossipConfig(), None, 24.0, seed=0)
    for validators in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            engine.publish_attestations(0, 1, validators, 4.0)
    engine.publish_attestations(0, 1, [], 4.0)
    assert engine.vote_slots == [] and engine.votes == [0] * 4
    for node, v in itertools.product(range(4), repeat=2):
        engine.publish_attestation(node, v, 0, 1, 4.0)
    engine._compact(0)
    assert engine.vote_base == 1
    with pytest.raises(ValueError):
        engine.publish_attestations(0, 1, [0], 16.0)


# -- the fork-choice kernel's precondition --------------------------------------


def assert_views_closed(engine, tree):
    """Every node holds genesis and the parent of each block it holds."""
    for held in engine.blocks:
        assert held & 1 << GENESIS_ID
        rest = held
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            assert b == GENESIS_ID or held >> tree.parent[b] & 1
            rest ^= low


class ClosureHandlers(waitinggame._ChainHandlers):
    """Chain handlers that check every view before and after their events
    and each release, where a block enters a view other than by gossip."""

    def on_slot_start(self, engine, t, slot):
        if slot == 0:
            publish = engine.publish_block

            def checked_publish(*args):
                publish(*args)
                assert_views_closed(engine, self.tree)

            engine.publish_block = checked_publish
        assert_views_closed(engine, self.tree)
        super().on_slot_start(engine, t, slot)
        assert_views_closed(engine, self.tree)

    def on_attest_deadline(self, engine, t, slot):
        assert_views_closed(engine, self.tree)
        super().on_attest_deadline(engine, t, slot)
        assert_views_closed(engine, self.tree)


def forking_configs():
    """Delayers releasing late enough that the next proposer may build
    beside the delayed block: all of them, or half among honest proposers."""
    return st.builds(
        lambda n, density, tau, x_d, t_d, duration, seed: SimConfig(
            n=n, mean_degree=density * (n - 1), tau_block=tau, tau_attestation=tau,
            duration=duration, x_d=x_d, t_d=t_d, seed=seed,
        ),
        n=st.integers(2, 24),
        density=st.floats(0.3, 0.95),
        tau=st.floats(0.5, 6.0),
        x_d=st.sampled_from([1.0, 0.5]),
        t_d=st.sampled_from([10.0, 11.0, 11.5]),
        duration=st.floats(12.0, 240.0),
        seed=st.integers(0, 2**32),
    )


@given(st.one_of(configs(), forking_configs()))
@settings(max_examples=40, deadline=None)
def test_views_closed_under_ancestry(config):
    run_with(config, handlers_class=ClosureHandlers)


def test_views_closed_under_ancestry_where_forks_occur():
    for t_d in (10.0, 11.0, 11.5):
        config = SimConfig(n=24, mean_degree=6.0, duration=240.0, x_d=1.0, t_d=t_d, seed=5)
        out, _, _ = run_with(config, handlers_class=ClosureHandlers)
        assert any(len(c) > 1 for c in out.tree.children)
