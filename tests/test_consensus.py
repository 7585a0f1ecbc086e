"""Fork choice against a naive ancestor-walk oracle and the full-walk kernel.

``head_from_arrays`` is the simulator's one head rule.  The tests feed it a
latest-message table through ``kernel_head``, a thin adapter that holds the
table as one window slot of votes, or through the vote tables of an
``EventEngine``.  ``full_walk_head`` is the kernel as it was before it
started at the weighted targets' lowest common ancestor: it rolls weights up
over every block and descends from genesis.  The kernel must pick its head.
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


def full_walk_head(parent, children, blocks, votes, vote_slots, vote_settled, width):
    """Oracle: the head rule over every block, descending from genesis."""
    n_blocks = len(parent)
    w = [0] * n_blocks
    mask = (1 << width) - 1
    covered = 0
    for k in range(len(vote_slots) - 1, -1, -1):
        fresh = (votes >> (k * width)) & mask & ~covered
        if fresh:
            covered |= fresh
            for target, bits in vote_slots[k].items():
                if blocks >> target & 1:
                    w[target] += (fresh & bits).bit_count()
    for (_, target), bits in vote_settled.items():
        if blocks >> target & 1:
            w[target] += (bits & ~covered).bit_count()
    for b in range(n_blocks - 1, 0, -1):
        if w[b]:
            w[parent[b]] += w[b]
    head = GENESIS_ID
    while True:
        best = -1
        bw = -1
        for c in children[head]:
            if blocks >> c & 1 and w[c] > bw:
                bw = w[c]
                best = c
        if best < 0:
            return head
        head = best


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
    topology = Topology(n=2, u=np.array([0]), v=np.array([1]))
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
    # deadline, or just before it.  Only the earlier arrival counts.  A third
    # slot keeps the run going past the deadline, so that the draw at
    # exactly 16 s runs.
    tree = BlockTree()
    a = tree.add(slot=0, proposer=0, parent=0, release_time=0.0)
    b = tree.add(slot=1, proposer=0, parent=a, release_time=12.0)

    class Handlers:
        def on_slot_start(self, engine, t, slot):
            if slot == 1:
                engine.publish_block(0, b, t)

        def on_attest_deadline(self, engine, t, slot):
            if slot == 1:
                self.head = node_head(tree, engine, 1)

    for arrival, expected in ((16.0, a), (15.999, b)):
        handlers = Handlers()
        engine = two_node_engine(handlers, end_time=36.0)
        for node in (0, 1):
            engine.publish_block(node, GENESIS_ID, 0.0)
            engine.publish_block(node, a, 0.0)
        # One block-class interaction on the edge 0 -> 1, then none.
        engine._window = lambda c, k, arrival=arrival: (
            (np.array([arrival]), np.array([0], dtype=np.intp)) if (c, k) == (1, 0)
            else (np.empty(0), np.empty(0, dtype=np.intp))
        )
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


def closed_view(rng, tree, keep):
    """A random view holding genesis, closed under ancestry as gossip keeps it."""
    seen = rng.random(len(tree)) < keep
    seen[GENESIS_ID] = True
    for b in range(len(tree) - 1, 0, -1):
        if seen[b]:
            seen[tree.parent[b]] = True
    return seen


def test_head_from_arrays_respects_visibility():
    rng = np.random.default_rng(31)
    for _ in range(100):
        tree, table = random_tree_and_votes(rng)
        nb = len(tree)
        seen = closed_view(rng, tree, 0.7)
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


# -- the descent from the weighted targets' lowest common ancestor -----------


def grown_tree(rng, chain, tip, reach):
    """``chain`` blocks in a line, then ``tip`` blocks, each built on one of
    the ``reach`` newest blocks: a long chain with a bushy recent tip, or,
    with no chain and a wide reach, a bushy tree."""
    tree = BlockTree()
    for i in range(chain + tip):
        back = int(rng.integers(0, min(1 if i < chain else reach, len(tree))))
        parent = len(tree) - 1 - back
        slot = tree.slot[parent] + 1 + int(rng.integers(0, 3))
        tree.add(slot=slot, proposer=0, parent=parent, release_time=float(slot * 12))
    return tree


VOTE_SHAPES = ("none", "unheld", "recent", "anywhere", "leaf", "siblings")


def shaped_votes(rng, tree, seen, shape):
    """A latest-message table of one of the shapes ``VOTE_SHAPES`` names."""
    nb = len(tree)
    held = np.flatnonzero(seen)
    slots = rng.integers(0, 40, N_VALIDATORS)
    if shape == "none":
        return {}
    if shape == "unheld":
        # Every target is one the node has not received (when there is one).
        pool = np.flatnonzero(~seen)
        pool = pool if len(pool) else held
    elif shape == "recent":
        pool = np.arange(max(1, nb - 20), nb)
    elif shape == "anywhere":
        pool = np.arange(nb)
    elif shape == "leaf":
        # One held leaf takes every vote: the LCA is that target itself.
        leaves = [b for b in held if not any(seen[c] for c in tree.children[b])]
        pool = [max(leaves)]
    else:  # "siblings": two held siblings with equal weight, below their parent
        forks = [b for b in held if sum(seen[c] for c in tree.children[b]) > 1]
        if not forks:
            return {}
        a, b = [c for c in tree.children[max(forks)] if seen[c]][-2:]
        return {v: (int(slots[v]), (a, b)[v % 2]) for v in range(N_VALIDATORS)}
    size = int(rng.integers(1, N_VALIDATORS + 1))
    return {
        int(v): (int(slots[v]), int(rng.choice(pool)))
        for v in rng.choice(N_VALIDATORS, size, replace=False)
    }


@given(
    chain=st.integers(0, 550),
    tip=st.integers(1, 50),
    reach=st.integers(1, 600),
    keep=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
    shape=st.sampled_from(VOTE_SHAPES),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_lca_descent_matches_full_walk(chain, tip, reach, keep, shape, seed):
    rng = np.random.default_rng(seed)
    tree = grown_tree(rng, chain, tip, reach)
    seen = closed_view(rng, tree, keep)
    table = shaped_votes(rng, tree, seen, shape)
    votes, slots, settled = vote_bitsets(rng, table, len(tree))
    args = (tree.parent, tree.children, bitset(seen), votes, slots, settled, N_VALIDATORS)
    assert head_from_arrays(*args) == full_walk_head(*args)


class Guarded(list):
    """A list whose entries at ``guarded`` indices must not be read."""

    def __init__(self, items, guarded):
        super().__init__(items)
        self.guarded = guarded

    def __getitem__(self, i):
        if i in self.guarded:
            raise AssertionError(f"read entry {i}, above the LCA")
        return super().__getitem__(i)


class Unwalkable:
    def __iter__(self):
        raise AssertionError("walked the children of a block above the LCA")


@pytest.mark.parametrize("shape", ["siblings", "leaf"])
def test_descent_never_walks_above_the_lca(shape):
    # A 400-block chain, then two forks of two blocks each at its end.  The
    # votes' LCA is the fork point or one leaf; no block above it is touched.
    tree = grown_tree(np.random.default_rng(0), 400, 0, 1)
    fork = len(tree) - 1
    slot = tree.slot[fork] + 1
    a = tree.add(slot=slot, proposer=0, parent=fork, release_time=0.0)
    b = tree.add(slot=slot, proposer=1, parent=fork, release_time=0.0)
    tree.add(slot=slot + 1, proposer=0, parent=b, release_time=0.0)
    leaf = tree.add(slot=slot + 1, proposer=1, parent=a, release_time=0.0)
    if shape == "siblings":
        lca, table = fork, {0: (3, a), 1: (3, b)}
    else:
        lca, table = leaf, {0: (3, leaf), 1: (12, leaf)}
    above = set(tree.path_to_root(lca)[:-1])
    children = [Unwalkable() if x in above else c for x, c in enumerate(tree.children)]
    votes, slots, settled = vote_bitsets(np.random.default_rng(1), table, len(tree),
                                         unreceived=False)
    blocks = (1 << len(tree)) - 1
    head = head_from_arrays(Guarded(tree.parent, above), children, blocks, votes,
                            slots, settled, N_VALIDATORS)
    assert head == leaf == full_walk_head(tree.parent, tree.children, blocks, votes,
                                          slots, settled, N_VALIDATORS)
