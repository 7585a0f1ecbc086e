"""Block tree, latest-message tables and LMD-GHOST head selection.

All weights are per-validator stakes (uniform in the simulator).  Head
selection descends from the root into the child whose subtree carries the
largest summed latest-message weight, breaking ties toward the smaller block
id, and stops at a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GENESIS_ID = 0
GENESIS_SLOT = -1
TIMELY_THRESHOLD = 4.0  # seconds into the slot; strict comparison
PROPOSER_BOOST_FRACTION = 0.40


class ForkChoiceError(Exception):
    """Malformed tree or vote input."""


@dataclass(frozen=True)
class Block:
    id: int
    slot: int
    proposer: int
    parent: int | None
    release_time: float


@dataclass(frozen=True)
class Attestation:
    validator: int
    slot: int
    target: int
    creation_time: float


class BlockTree:
    """Append-only tree; the genesis sentinel (id 0, slot -1) is implicit."""

    def __init__(self):
        self.parent: list = [None]
        self.slot: list = [GENESIS_SLOT]
        self.proposer: list = [-1]
        self.release_time: list = [0.0]
        self.children: list = [[]]

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, slot: int, proposer: int, parent: int, release_time: float) -> int:
        if not 0 <= parent < len(self.parent):
            raise ForkChoiceError(f"unknown parent {parent}")
        if self.slot[parent] >= slot:
            raise ForkChoiceError(
                f"parent slot {self.slot[parent]} not below block slot {slot}"
            )
        block_id = len(self.parent)
        self.parent.append(parent)
        self.slot.append(slot)
        self.proposer.append(proposer)
        self.release_time.append(release_time)
        self.children.append([])
        self.children[parent].append(block_id)
        return block_id

    def block(self, block_id: int) -> Block:
        return Block(
            id=block_id,
            slot=self.slot[block_id],
            proposer=self.proposer[block_id],
            parent=self.parent[block_id],
            release_time=self.release_time[block_id],
        )

    def path_to_root(self, block_id: int) -> list:
        path = []
        b = block_id
        while b is not None:
            path.append(b)
            b = self.parent[b]
        path.reverse()
        return path


def update_latest_message(table: dict, attestation: Attestation) -> bool:
    """Latest-message rule: replace only on a strictly later slot.

    Equal-slot conflicting votes keep the first received.  Returns whether
    the entry was applied.
    """
    entry = table.get(attestation.validator)
    if entry is not None and attestation.slot <= entry[0]:
        return False
    table[attestation.validator] = (attestation.slot, attestation.target)
    return True


def subtree_weights(
    tree: BlockTree,
    table: dict,
    weights: dict | None = None,
    *,
    visible=None,
    bonus: dict | None = None,
) -> np.ndarray:
    """Summed latest-message weight of each block's subtree.

    ``visible`` optionally restricts the tree to a node's local view (a
    boolean mask over block ids); votes for invisible blocks are ignored.
    ``bonus`` adds flat extra weight to a block's subtree (proposer boost).
    """
    nb = len(tree)
    if weights is not None and len(set(weights.values())) == 1:
        # Uniform weights factor out of every comparison; dropping them keeps
        # exact-count ties exact under any positive rescaling.
        common = next(iter(weights.values()))
        if common <= 0:
            raise ForkChoiceError("weights must be positive")
        weights = None
        if bonus:
            bonus = {b: extra / common for b, extra in bonus.items()}
    w = np.zeros(nb)
    for validator, (_, target) in table.items():
        if target >= nb:
            raise ForkChoiceError(f"vote for unknown block {target}")
        if visible is not None and not visible[target]:
            continue
        w[target] += 1.0 if weights is None else weights[validator]
    if bonus:
        for block_id, extra in bonus.items():
            w[block_id] += extra
    for b in range(nb - 1, 0, -1):
        w[tree.parent[b]] += w[b]
    return w


def lmd_ghost_head(
    tree: BlockTree,
    table: dict,
    weights: dict | None = None,
    *,
    visible=None,
    bonus: dict | None = None,
) -> int:
    """Greedy heaviest-subtree descent from genesis; ties to smaller id."""
    w = subtree_weights(tree, table, weights, visible=visible, bonus=bonus)
    head = GENESIS_ID
    while True:
        best = None
        for c in tree.children[head]:
            if visible is not None and not visible[c]:
                continue
            if best is None or w[c] > w[best]:
                best = c
        if best is None:
            return head
        head = best


def proposer_boost_adjust(
    boosted_block: int,
    release_offset: float,
    committee_weight: float,
    *,
    enabled: bool = True,
) -> dict:
    """Flat subtree bonus for a timely block (released strictly inside the
    first 4 seconds of its slot); empty when disabled or late."""
    if not enabled or release_offset >= TIMELY_THRESHOLD:
        return {}
    return {boosted_block: PROPOSER_BOOST_FRACTION * committee_weight}


def mainchain(tree: BlockTree, table: dict, weights: dict | None = None) -> list:
    """Genesis-to-head path under the final table, genesis excluded."""
    head = lmd_ghost_head(tree, table, weights)
    return [b for b in tree.path_to_root(head) if b != GENESIS_ID]


@dataclass
class ValidatorView:
    """One validator's partial knowledge: received blocks and votes."""

    tree: BlockTree
    block_arrival: dict = field(default_factory=dict)  # block id -> local time
    table: dict = field(default_factory=dict)  # validator -> (slot, target)

    def receive_block(self, block_id: int, time: float) -> None:
        self.block_arrival.setdefault(block_id, time)

    def receive_attestation(self, attestation: Attestation) -> bool:
        return update_latest_message(self.table, attestation)

    def visible_mask(self, before: float | None = None) -> np.ndarray:
        mask = np.zeros(len(self.tree), dtype=bool)
        mask[GENESIS_ID] = True
        for b, t in self.block_arrival.items():
            if before is None or t < before:
                mask[b] = True
        return mask


def attest_decision(
    view: ValidatorView,
    validator: int,
    slot: int,
    slot_block: int | None,
    now: float,
    weights: dict | None = None,
) -> Attestation:
    """Vote at the 4-second mark of ``slot``.

    If the slot's proposed block was received strictly before ``now`` the
    head is computed with it; otherwise the vote falls back to the head of
    the previously received chain.
    """
    visible = view.visible_mask(before=now)
    if slot_block is not None and not visible[slot_block]:
        # Late or missing proposal: the mask already excludes it, so the
        # head below is the previous head.
        pass
    target = lmd_ghost_head(view.tree, view.table, weights, visible=visible)
    return Attestation(validator=validator, slot=slot, target=target, creation_time=now)


# -- bitset fast path (used by the simulation handlers) ----------------------


def head_from_arrays(
    parent: list,
    children: list,
    blocks: int,
    votes: int,
    vote_slots: list,
    vote_settled: dict,
    width: int,
) -> int:
    """LMD-GHOST head over one node's block and vote bitsets.

    ``blocks`` has bit b set when the node holds block b.  ``votes`` has bit
    ``k * width + validator`` set when it holds that validator's vote of
    window slot k, whose targets ``vote_slots[k]`` maps to validator
    bitsets.  ``vote_settled`` maps (slot, target) to the validators whose
    latest vote predates the window.  A validator's latest message is its
    highest-slot vote; votes whose target the node has not received are
    skipped.
    """
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
