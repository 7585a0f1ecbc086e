"""Block tree and LMD-GHOST head selection over vote bitsets.

Every validator carries one unit of weight.  Head selection descends into
the child whose subtree carries the most latest messages, breaking ties
toward the smaller block id, and stops at a leaf.  It starts at the lowest
common ancestor of the voted blocks, which a descent from genesis reaches.
``head_from_arrays`` is the one head rule: the simulator runs it for every
proposer and attester view, and ``mainchain`` runs it once over all votes.
"""

from __future__ import annotations

import heapq

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

    Weights roll up from the weighted targets, highest id first, until one
    block holds all of it: their lowest common ancestor (LCA), or genesis
    when no target carries weight.  The descent starts there: above the LCA
    each child toward it carries all the weight and its siblings none, so a
    descent from genesis would reach the LCA under any tie rule.  This needs
    ``blocks`` closed under ancestry and parent ids below child ids, as
    gossip and ``BlockTree.add`` guarantee.  A call costs the vote window,
    the blocks from the targets up to their LCA, and the descent below it.
    """
    w: dict = {}
    mask = (1 << width) - 1
    covered = 0
    for k in range(len(vote_slots) - 1, -1, -1):
        fresh = (votes >> (k * width)) & mask & ~covered
        if fresh:
            covered |= fresh
            for target, bits in vote_slots[k].items():
                if blocks >> target & 1 and fresh & bits:
                    w[target] = w.get(target, 0) + (fresh & bits).bit_count()
    for (_, target), bits in vote_settled.items():
        if blocks >> target & 1 and bits & ~covered:
            w[target] = w.get(target, 0) + (bits & ~covered).bit_count()
    heap = [-b for b in w]
    heapq.heapify(heap)
    while len(heap) > 1:
        b = -heapq.heappop(heap)
        p = parent[b]
        if p not in w:
            heapq.heappush(heap, -p)
        w[p] = w.get(p, 0) + w[b]
    head = -heap[0] if heap else GENESIS_ID
    while True:
        best = -1
        bw = -1
        for c in children[head]:
            if blocks >> c & 1 and w.get(c, 0) > bw:
                bw = w.get(c, 0)
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
