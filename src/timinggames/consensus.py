"""Block tree and LMD-GHOST head selection over vote bitsets.

Every validator carries one unit of weight.  Head selection descends from
the root into the child whose subtree carries the most latest messages,
breaking ties toward the smaller block id, and stops at a leaf.
``head_from_arrays`` is the one head rule: the simulator runs it for every
proposer and attester view, and ``mainchain`` runs it once over all votes.
"""

from __future__ import annotations

GENESIS_ID = 0
GENESIS_SLOT = -1


class ForkChoiceError(Exception):
    """Malformed tree or vote input."""


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

    def path_to_root(self, block_id: int) -> list:
        path = []
        b = block_id
        while b is not None:
            path.append(b)
            b = self.parent[b]
        path.reverse()
        return path


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


def mainchain(tree: BlockTree, vote_slots: list, vote_settled: dict, width: int) -> list:
    """Genesis-to-head path over every block and every vote, genesis excluded.

    ``vote_slots`` and ``vote_settled`` are an engine's vote tables.  The
    vote bitset holds exactly the votes the window records: a bit for a vote
    never cast would hide that validator's older latest message.
    """
    votes = 0
    for k, group in enumerate(vote_slots):
        for bits in group.values():
            votes |= bits << (k * width)
    head = head_from_arrays(
        tree.parent,
        tree.children,
        (1 << len(tree)) - 1,
        votes,
        vote_slots,
        vote_settled,
        width,
    )
    return [b for b in tree.path_to_root(head) if b != GENESIS_ID]
