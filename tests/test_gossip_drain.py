"""The per-class gossip drain against the per-interaction loop it replaced.

``LoopEngine`` is the engine as it was before the drain: one Python loop
iteration per interaction in stream order, the time kept as a running
``t += gap``, and the non-equivocation rule as a scan over the slot's
targets.  It lives here as the oracle, with its own copy of the batch
draws, and records its trace inline as it runs.  The engine must reproduce
it bit for bit: arrival times, bitsets, vote tables, heads and metrics, and
``engine.trace()``, replayed after the run, must equal the oracle's trace.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_

import numpy as np
from conftest import run_with
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from timinggames import waitinggame
from timinggames.consensus import GENESIS_ID
from timinggames.simnet import (
    _DEADLINE,
    _KIND_NAMES,
    _RELEASE,
    _RNG_BATCH,
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
    """Oracle: the engine with its per-interaction gossip loop.  ``rows`` is
    the trace of its last run, recorded inline."""

    rows = None

    def publish_block(self, node, block_id, time):
        bit = 1 << block_id
        if not self.blocks[node] & bit:
            self.block_arrival[node, block_id] = time
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

    def _draws(self):
        """The stream's (gap, edge index, block-class flag) draws, one at a
        time, from batches of ``_RNG_BATCH`` gaps, then edges, then flags."""
        rng = np.random.default_rng(self._seed)
        rate_b = self._n_dir / self.gossip.tau_block
        rate_a = self._n_dir / self.gossip.tau_attestation
        total_rate = rate_b + rate_a
        while True:
            yield from zip(
                rng.exponential(1.0 / total_rate, _RNG_BATCH).tolist(),
                rng.integers(0, self._n_dir, _RNG_BATCH).tolist(),
                (rng.random(_RNG_BATCH) < rate_b / total_rate).tolist(),
            )

    def run(self):
        src = self._src.tolist()
        dst = self._dst.tolist()
        blocks = self.blocks
        votes = self.votes
        arrive = self._arrive
        queue = self._queue
        self.rows = rows = []

        draws = self._draws()
        gap, e, is_block = next(draws)
        gossip_t = gap

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
                gap, e, is_block = next(draws)
                gossip_t += gap

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
                else:
                    rows.append((t, "SIM_END", -1, ""))
                    return
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError((t, _KIND_NAMES[kind]), exc) from exc


class RecordingHandlers(waitinggame._ChainHandlers):
    """Chain handlers that keep, per deadline, the gossiped view and the heads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.deadlines = []

    def on_attest_deadline(self, engine, t, slot):
        view = (list(engine.blocks), list(engine.votes), engine.vote_base)
        super().on_attest_deadline(engine, t, slot)
        heads = dict(engine.vote_slots[slot - engine.vote_base])
        self.deadlines.append((t, view, heads))


def assert_same_run(config):
    """The engine reproduces the oracle exactly, its replayed trace included."""
    want, oracle, oracle_handlers = run_with(config, LoopEngine, RecordingHandlers)
    got, engine, handlers = run_with(config, EventEngine, RecordingHandlers)
    assert engine.block_arrival.tobytes() == oracle.block_arrival.tobytes()
    assert engine.blocks == oracle.blocks
    assert engine.votes == oracle.votes
    assert engine.vote_base == oracle.vote_base
    assert engine.vote_slots == oracle.vote_slots
    assert engine.vote_settled == oracle.vote_settled
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
@settings(max_examples=40, deadline=None)
def test_drain_matches_per_interaction_loop(config):
    assume(config.tau_block != config.tau_attestation)
    assert_same_run(config)


def test_drain_matches_loop_across_batches():
    # More draws than one batch holds: the stream crosses a batch boundary.
    config = SimConfig(n=16, mean_degree=4.0, tau_block=2.0, tau_attestation=3.5,
                       duration=1000.0, x_d=0.5, t_d=11.0, seed=8)
    oracle = assert_same_run(config)
    gossip = sum(row[1] == "GOSSIP_INTERACTION" for row in oracle.rows)
    assert gossip > _RNG_BATCH


# -- undelivered counts -------------------------------------------------------


def assert_counts(engine):
    """The engine's per-class unions and undelivered counts, recounted."""
    released = np.flatnonzero(~np.isnan(engine.block_arrival).all(axis=0))
    block_union = sum(1 << int(b) for b in released)
    assert reduce(or_, engine.blocks, 0) == block_union == engine._block_union
    assert engine._blocks_undelivered == sum(
        (block_union & ~held).bit_count() for held in engine.blocks
    )
    cast = 0
    for k, group in enumerate(engine.vote_slots):
        for bits in group.values():
            cast |= bits << (k * engine.n_validators)
    assert reduce(or_, engine.votes, 0) == cast == engine._vote_union
    assert engine._votes_undelivered == sum((cast & ~held).bit_count() for held in engine.votes)


class CheckingHandlers(waitinggame._ChainHandlers):
    """Chain handlers that recount before and after each of their events."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bases = []

    def on_slot_start(self, engine, t, slot):
        if slot == 0:
            # Releases run no handler: check them where they publish.
            publish = engine.publish_block

            def checked_publish(*args):
                assert_counts(engine)
                publish(*args)
                assert_counts(engine)

            engine.publish_block = checked_publish
        assert_counts(engine)
        super().on_slot_start(engine, t, slot)
        assert_counts(engine)

    def on_attest_deadline(self, engine, t, slot):
        assert_counts(engine)
        super().on_attest_deadline(engine, t, slot)
        assert_counts(engine)
        self.bases.append(engine.vote_base)


@given(configs())
@settings(max_examples=30, deadline=None)
def test_undelivered_counts_match_recount(config):
    _, engine, _ = run_with(config, handlers_class=CheckingHandlers)
    assert_counts(engine)


def test_undelivered_counts_while_slots_settle():
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
    assert engine._votes_undelivered == 2 + 3


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
