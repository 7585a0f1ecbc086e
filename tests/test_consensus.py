"""Fork choice against a naive ancestor-walk oracle.

``head_from_arrays`` is the simulator's one head rule.  The tests feed it a
latest-message table through ``kernel_head``, a thin adapter that holds the
table as one window slot of votes, or through the vote tables of an
``EventEngine``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.consensus import (
    BlockTree,
    ForkChoiceError,
    GENESIS_ID,
    head_from_arrays,
    mainchain,
)
from timinggames.simnet import EventEngine, GossipConfig, Topology

N_VALIDATORS = 64


def record_vote(table, validator, slot, target):
    """Latest-message rule: replace only on a strictly later slot."""
    entry = table.get(validator)
    if entry is None or slot > entry[0]:
        table[validator] = (slot, target)


def random_tree_and_votes(rng, max_blocks=50, max_votes=200):
    tree = BlockTree()
    n_blocks = int(rng.integers(1, max_blocks))
    for _ in range(n_blocks):
        parent = int(rng.integers(0, len(tree)))
        slot = tree.slot[parent] + 1 + int(rng.integers(0, 3))
        tree.add(slot=slot, proposer=int(rng.integers(0, 64)), parent=parent,
                 release_time=float(slot * 12))
    table = {}
    n_votes = int(rng.integers(0, max_votes))
    for _ in range(n_votes):
        validator = int(rng.integers(0, 64))
        target = int(rng.integers(0, len(tree)))
        record_vote(table, validator, int(rng.integers(0, 40)), target)
    return tree, table


def oracle_head(tree, table, weight=1.0, visible=None):
    # Independent oracle: subtree weight of b = sum of votes over all blocks
    # having b as an ancestor (naive per-vote ancestor walk), then greedy
    # descent with ties to the smaller id.  ``visible`` masks the tree to a
    # node's view: votes for unseen blocks and unseen children are skipped.
    w = [0.0] * len(tree)
    for _, target in table.values():
        if visible is not None and not visible[target]:
            continue
        b = target
        while b is not None:
            w[b] += weight
            b = tree.parent[b]
    head = GENESIS_ID
    while True:
        best = None
        for c in tree.children[head]:  # ascending id; strict > keeps smallest
            if visible is not None and not visible[c]:
                continue
            if best is None or w[c] > w[best]:
                best = c
        if best is None:
            return head
        head = best


def bitset(mask):
    return sum(1 << int(b) for b in np.flatnonzero(mask))


def kernel_head(tree, table, visible=None):
    """``head_from_arrays`` over ``table`` held as one window slot."""
    by_target = {}
    for validator, (_, target) in table.items():
        by_target[target] = by_target.get(target, 0) | 1 << validator
    blocks = (1 << len(tree)) - 1 if visible is None else bitset(visible)
    votes = sum(1 << validator for validator in table)
    return head_from_arrays(
        tree.parent, tree.children, blocks, votes, [by_target], {}, N_VALIDATORS
    )


def test_tree_validation():
    tree = BlockTree()
    with pytest.raises(ForkChoiceError):
        tree.add(slot=0, proposer=0, parent=5, release_time=0.0)
    b = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    with pytest.raises(ForkChoiceError):
        tree.add(slot=0, proposer=0, parent=b, release_time=0.0)


def two_node_engine(handlers=None, end_time=24.0):
    topology = Topology(n=2, edges=frozenset({(0, 1)}))
    return EventEngine(topology, GossipConfig(), handlers, end_time, seed=0)


def node_head(tree, engine, node):
    return head_from_arrays(
        tree.parent, tree.children, engine.blocks[node], engine.votes[node],
        engine.vote_slots, engine.vote_settled, engine.n_validators,
    )


def test_latest_message_rule():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=0, proposer=1, parent=0, release_time=0.0)
    engine = two_node_engine()
    for block in (GENESIS_ID, a, b):
        engine.publish_block(0, block, 0.0)
    engine.publish_attestation(0, validator=1, slot=5, target=b, time=0.0)
    assert node_head(tree, engine, 0) == b
    # Equal slot keeps the first vote.
    engine.publish_attestation(0, validator=1, slot=5, target=a, time=0.0)
    assert (engine.lm_slot[0, 1], engine.lm_target[0, 1]) == (5, b)
    assert node_head(tree, engine, 0) == b
    # A strictly later slot replaces it.
    engine.publish_attestation(0, validator=1, slot=6, target=a, time=0.0)
    assert (engine.lm_slot[0, 1], engine.lm_target[0, 1]) == (6, a)
    assert node_head(tree, engine, 0) == a


def test_head_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(300):
        tree, table = random_tree_and_votes(rng)
        assert kernel_head(tree, table) == oracle_head(tree, table)


def test_head_scaling_invariance():
    # Uniform stake factors out of every comparison: the kernel's unit-weight
    # head is the oracle's head under any uniform weight.
    rng = np.random.default_rng(9)
    for _ in range(50):
        tree, table = random_tree_and_votes(rng)
        assert kernel_head(tree, table) == oracle_head(tree, table, weight=7.5)


def test_tie_break_smaller_id():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=0, proposer=1, parent=0, release_time=0.0)
    assert a < b
    assert kernel_head(tree, {}) == a
    assert kernel_head(tree, {0: (1, b)}) == b
    assert kernel_head(tree, {0: (1, b), 1: (1, a)}) == a


def test_visibility_mask_hides_blocks_and_votes():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=1, parent=a, release_time=12.0)
    visible = np.array([True, True, False])
    assert kernel_head(tree, {0: (1, b)}, visible=visible) == a
    assert kernel_head(tree, {0: (1, b)}) == b


def test_mainchain_is_root_path():
    rng = np.random.default_rng(77)
    for _ in range(20):
        tree, table = random_tree_and_votes(rng)
        _, slots, settled = vote_bitsets(rng, table, len(tree), unreceived=False)
        chain = mainchain(tree, slots, settled, N_VALIDATORS)
        head = oracle_head(tree, table)
        assert chain == [b for b in tree.path_to_root(head) if b != GENESIS_ID]
        for earlier, later in zip(chain, chain[1:]):
            assert tree.parent[later] == earlier


def test_mainchain_counts_votes_older_than_the_last_slot():
    # Validators 1 and 2 last voted in slot 0; validator 0 alone votes in
    # slot 1.  Their slot-0 votes are still their latest messages.
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=0, proposer=1, parent=0, release_time=0.0)
    assert mainchain(tree, [{b: 0b110}, {a: 0b001}], {}, 3) == [b]
    assert mainchain(tree, [{a: 0b001}], {(0, b): 0b110}, 3) == [b]


def test_validator_view_attest_uses_strictly_earlier_arrivals():
    # Node 1 receives the slot-1 block by gossip exactly at the slot's 4 s
    # deadline, or just before it.  Only the earlier arrival counts.
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=0, parent=a, release_time=12.0)

    class Handlers:
        def on_slot_start(self, engine, t, slot):
            if slot == 1:
                engine.publish_block(0, b, t)

        def on_attest_deadline(self, engine, t, slot):
            self.head = node_head(tree, engine, 1)

    for arrival, expected in ((16.0, a), (15.999, b)):
        handlers = Handlers()
        engine = two_node_engine(handlers)
        for node in (0, 1):
            engine.publish_block(node, GENESIS_ID, 0.0)
            engine.publish_block(node, a, 0.0)
        # One block-class interaction on the edge 0 -> 1, then none.
        engine._next_draws = lambda: ([arrival, 1e9], [0, 0], [True, True])
        engine.run()
        assert engine.block_arrival[1, b] == arrival
        assert handlers.head == expected


SETTLED_BELOW = 10


def vote_bitsets(rng, table, n_blocks, unreceived=True):
    """One node's vote bitset and the vote tables holding ``table``.

    Latest votes before slot SETTLED_BELOW go to the settled table.  The
    window and the settled table also hold superseded older votes of the
    node's validators and, when ``unreceived``, the window votes of other
    validators that the node has not received.
    """
    n_slots = 40 - SETTLED_BELOW
    slots = [{} for _ in range(n_slots)]
    settled = {}
    votes = 0

    def settle(slot, validator, target):
        key = (slot, target)
        settled[key] = settled.get(key, 0) | 1 << validator

    def record(slot, validator, target, held):
        nonlocal votes
        k = slot - SETTLED_BELOW
        group = slots[k]
        group[target] = group.get(target, 0) | 1 << validator
        if held:
            votes |= 1 << (k * N_VALIDATORS + validator)

    for validator in range(N_VALIDATORS):
        latest = table.get(validator)
        if latest is None:
            if not unreceived:
                continue
            slot = int(rng.integers(SETTLED_BELOW, 40))
            record(slot, validator, int(rng.integers(0, n_blocks)), held=False)
            continue
        slot, target = latest
        if slot < SETTLED_BELOW:
            settle(slot, validator, target)
            continue
        record(slot, validator, target, held=True)
        if slot > SETTLED_BELOW:
            older = int(rng.integers(SETTLED_BELOW, slot))
            record(older, validator, int(rng.integers(0, n_blocks)), held=True)
        if rng.random() < 0.5:
            older = int(rng.integers(0, SETTLED_BELOW))
            settle(older, validator, int(rng.integers(0, n_blocks)))
    return votes, slots, settled


def test_head_from_arrays_matches_reference():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        tree, table = random_tree_and_votes(rng)
        nb = len(tree)
        votes, slots, settled = vote_bitsets(rng, table, nb)
        blocks = (1 << nb) - 1
        got = head_from_arrays(
            tree.parent, tree.children, blocks, votes, slots, settled, N_VALIDATORS
        )
        assert got == oracle_head(tree, table)


def test_head_from_arrays_respects_visibility():
    rng = np.random.default_rng(31)
    for _ in range(100):
        tree, table = random_tree_and_votes(rng)
        nb = len(tree)
        seen = rng.random(nb) < 0.7
        seen[GENESIS_ID] = True
        # Close the view under ancestry, as gossip delivery guarantees.
        for b in range(1, nb):
            if seen[b]:
                p = tree.parent[b]
                while p is not None and not seen[p]:
                    seen[p] = True
                    p = tree.parent[p]
        votes, slots, settled = vote_bitsets(rng, table, nb)
        got = head_from_arrays(
            tree.parent, tree.children, bitset(seen), votes, slots, settled,
            N_VALIDATORS,
        )
        assert got == oracle_head(tree, table, visible=seen)


@given(st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_head_oracle_property(seed):
    rng = np.random.default_rng(seed)
    tree, table = random_tree_and_votes(rng, max_blocks=20, max_votes=60)
    assert kernel_head(tree, table) == oracle_head(tree, table)
