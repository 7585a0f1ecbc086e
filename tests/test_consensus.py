"""Fork choice against a naive ancestor-walk oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames.consensus import (
    Attestation,
    BlockTree,
    ForkChoiceError,
    GENESIS_ID,
    ValidatorView,
    attest_decision,
    head_from_arrays,
    lmd_ghost_head,
    mainchain,
    proposer_boost_adjust,
    subtree_weights,
    update_latest_message,
)


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
        update_latest_message(
            table, Attestation(validator, int(rng.integers(0, 40)), target, 0.0)
        )
    return tree, table


def oracle_head(tree, table, weights=None):
    # Independent oracle: subtree weight of b = sum of votes over all blocks
    # having b as an ancestor (naive per-vote ancestor walk), then greedy
    # descent with ties to the smaller id.
    w = [0.0] * len(tree)
    for validator, (_, target) in table.items():
        weight = 1.0 if weights is None else weights[validator]
        b = target
        while b is not None:
            w[b] += weight
            b = tree.parent[b]
    head = GENESIS_ID
    while tree.children[head]:
        best = None
        for c in tree.children[head]:  # ascending id; strict > keeps smallest
            if best is None or w[c] > w[best]:
                best = c
        head = best
    return head


def test_tree_validation():
    tree = BlockTree()
    with pytest.raises(ForkChoiceError):
        tree.add(slot=0, proposer=0, parent=5, release_time=0.0)
    b = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    with pytest.raises(ForkChoiceError):
        tree.add(slot=0, proposer=0, parent=b, release_time=0.0)


def test_latest_message_rule():
    table = {}
    assert update_latest_message(table, Attestation(1, 5, 10, 0.0))
    # Equal slot keeps the first received.
    assert not update_latest_message(table, Attestation(1, 5, 11, 0.0))
    assert table[1] == (5, 10)
    # Strictly later slot replaces.
    assert update_latest_message(table, Attestation(1, 6, 11, 0.0))
    assert table[1] == (6, 11)


def test_head_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(300):
        tree, table = random_tree_and_votes(rng)
        assert lmd_ghost_head(tree, table) == oracle_head(tree, table)


def test_head_scaling_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tree, table = random_tree_and_votes(rng)
        base = lmd_ghost_head(tree, table)
        scaled = {v: 7.5 for v in range(64)}
        assert lmd_ghost_head(tree, table, scaled) == base


def test_tie_break_smaller_id():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=0, proposer=1, parent=0, release_time=0.0)
    assert a < b
    assert lmd_ghost_head(tree, {}) == a
    table = {}
    update_latest_message(table, Attestation(0, 1, b, 0.0))
    assert lmd_ghost_head(tree, table) == b


def test_subtree_weights_reject_unknown_target():
    tree = BlockTree()
    with pytest.raises(ForkChoiceError):
        subtree_weights(tree, {0: (1, 99)})


def test_visibility_mask_hides_blocks_and_votes():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=1, parent=a, release_time=12.0)
    table = {}
    update_latest_message(table, Attestation(0, 1, b, 0.0))
    visible = np.array([True, True, False])
    assert lmd_ghost_head(tree, table, visible=visible) == a


def test_proposer_boost_window():
    assert proposer_boost_adjust(3, 3.9, 100.0) == {3: pytest.approx(40.0)}
    assert proposer_boost_adjust(3, 4.0, 100.0) == {}
    assert proposer_boost_adjust(3, 1.0, 100.0, enabled=False) == {}


def test_boost_can_flip_head():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=1, parent=0, release_time=12.0)
    table = {}
    update_latest_message(table, Attestation(0, 0, a, 0.0))
    assert lmd_ghost_head(tree, table) == a
    bonus = proposer_boost_adjust(b, 1.0, 10.0)
    assert lmd_ghost_head(tree, table, bonus=bonus) == b


def test_mainchain_is_root_path():
    rng = np.random.default_rng(77)
    tree, table = random_tree_and_votes(rng)
    chain = mainchain(tree, table)
    head = lmd_ghost_head(tree, table)
    assert chain == [b for b in tree.path_to_root(head) if b != GENESIS_ID]
    for earlier, later in zip(chain, chain[1:]):
        assert tree.parent[later] == earlier


def test_validator_view_attest_uses_strictly_earlier_arrivals():
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=1, parent=a, release_time=12.0)
    view = ValidatorView(tree=tree)
    view.receive_block(a, 1.0)
    view.receive_block(b, 16.0)  # exactly at the deadline: not yet usable
    att = attest_decision(view, validator=5, slot=1, slot_block=b, now=16.0)
    assert att.target == a
    att2 = attest_decision(view, validator=5, slot=1, slot_block=b, now=16.0001)
    assert att2.target == b


N_VALIDATORS = 64
SETTLED_BELOW = 10


def vote_bitsets(rng, table, n_blocks):
    """One node's vote bitset and the vote tables holding ``table``.

    Latest votes before slot SETTLED_BELOW go to the settled table.  The
    window and the settled table also hold superseded older votes of the
    node's validators, and the window votes of other validators that the
    node has not received.
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


def bitset(mask):
    return sum(1 << int(b) for b in np.flatnonzero(mask))


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
        assert got == lmd_ghost_head(tree, table)


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
        assert got == lmd_ghost_head(tree, table, visible=seen)


@given(st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_head_oracle_property(seed):
    rng = np.random.default_rng(seed)
    tree, table = random_tree_and_votes(rng, max_blocks=20, max_votes=60)
    assert lmd_ghost_head(tree, table) == oracle_head(tree, table)
