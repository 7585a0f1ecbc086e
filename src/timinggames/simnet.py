"""Random peer-to-peer topologies and the continuous-time gossip event engine.

The engine carries two message classes between adjacent nodes.  Each node
holds what it knows of each as one Python-int bitset:

* blocks: bit ``b`` is set once the node has block ``b``;
* votes: bit ``(slot - base) * n_validators + validator`` is set once the
  node has that validator's vote of that slot.  One global table maps each
  slot to ``{target: validator bitset}``.  The first target published for a
  (validator, slot) is that vote everywhere, and later conflicting publishes
  are ignored: the engine assumes non-equivocating validators.

Gossip is the union rule for both classes: an interaction leaves both
endpoints with the union of their sets.  A validator's latest message at a
node is its highest-slot vote in the node's set.  Each validator casts at
most one vote per slot, so this is the latest message that forwarding each
validator's newest (slot, target) pair, and replacing only on a strictly
later slot, would leave.

At each attestation deadline the oldest vote slots that every node holds
identically are folded into a settled table of latest votes and shifted out
of every bitset.  A bitset then spans only the few slots still in flight, so
the cost of a slot does not grow with the run's duration.

Interaction times per ordered adjacent pair form a renewal process with
exponential gaps of mean ``tau``.  Internally the engine draws the superposed
Poisson stream (one global clock, then a uniformly chosen edge and message
class), which is statistically identical and much cheaper to schedule.  The
schedule does not depend on what any node holds, only on the seed, so
``EventEngine.trace()`` replays it after a run to rebuild the event trace.

Before each event the engine drains the stream's interactions up to it one
message class at a time: all block interactions, then all vote
interactions.  The classes touch disjoint state, so the result is that of
the interleaved stream.  Per class the engine keeps the union of every
node's set and the number of (node, item) pairs of it not yet delivered.
Gossip never changes a union, and a count of 0 means every node holds the
same set, where an interaction is a no-op: the class's remaining draws up
to the event are then skipped without a look.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

SLOT_SECONDS = 12.0
ATTEST_DEADLINE_OFFSET = 4.0

_MAX_CONNECT_ATTEMPTS = 100
_RNG_BATCH = 1 << 15
_DRAW_SLICE = 1 << 11  # draws timed and split by class at a time
_PAIR_CHUNK = 1 << 16  # node-pair draws held at once while sampling a graph


class TopologyError(Exception):
    """Raised when no connected graph can be sampled for the parameters."""


@dataclass(frozen=True)
class Topology:
    """Simple undirected connected graph over nodes 0..n-1."""

    n: int
    edges: frozenset

    def directed_pairs(self) -> np.ndarray:
        """All ordered adjacent pairs as a ``(2m, 2)`` int32 array, one pair
        a row, sorted by source and then destination for determinism."""
        n = self.n
        flat = itertools.chain.from_iterable(self.edges)
        u, v = np.fromiter(flat, dtype=np.int64, count=2 * len(self.edges)).reshape(-1, 2).T
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        return np.stack((keys // n, keys % n), axis=1).astype(np.int32)


@dataclass(frozen=True)
class GossipConfig:
    """Interaction clocks: one per ordered adjacent pair, exponential gaps
    with mean tau.

    An interaction synchronizes both endpoints, so content crosses each link
    at twice the rate of one clock.
    """

    tau_block: float = 3.0
    tau_attestation: float = 3.0

    def __post_init__(self):
        if self.tau_block <= 0 or self.tau_attestation <= 0:
            raise ValueError("gossip latencies must be positive")


# Structural event kinds.  The number orders events at equal times.
_RELEASE, _SLOT_START, _DEADLINE, _END = range(4)
_KIND_NAMES = ("BLOCK_RELEASE", "SLOT_START", "ATTEST_DEADLINE", "SIM_END")
_CLASS_NAMES = ("attestation", "block")  # indexed by the block-class flag


def _connected(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    """Whether the graph on nodes 0..n-1 with edges ``(us[i], vs[i])`` is
    connected: a breadth-first search from node 0 over a CSR adjacency
    table, expanding the whole frontier at each step."""
    heads = np.concatenate((us, vs))
    neighbours = np.concatenate((vs, us))[np.argsort(heads)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        # Flat indices of every frontier node's neighbours, run by run.
        index = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        fresh = np.zeros(n, dtype=bool)  # nodes first reached at this step
        fresh[neighbours[index]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return bool(seen.all())


def _sample_er_pairs(n: int, p: float, rng: np.random.Generator):
    """One G(n, p) sample as int arrays ``(us, vs)``, or None if a node is
    isolated.

    Pair ``(i, j)``, ``i < j``, is an edge when the draw at its place in
    row-major upper-triangle order is below p, as ``rng.random(n * (n - 1)
    // 2) < p`` would decide.  ``Generator.random`` maps a raw 64-bit draw r
    to ``(r >> 11) * 2**-53``, so u < p exactly when r <= ceil(p * 2**53)
    * 2**11 - 1, and raw draws are compared instead.  Rows are drawn about
    ``_PAIR_CHUNK`` pairs at a time, so no n x n array is built, and the
    sample is given up at the first node that has no neighbour once all of
    its pairs are drawn.  Edges come out in upper-triangle order.
    """
    top = np.uint64(min((math.ceil(p * 2.0**53) << 11) - 1, 2**64 - 1))
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of (i, i + 1)
    degree = np.zeros(n, dtype=np.int64)
    us, vs = [], []  # one array per chunk
    lo = 0
    while lo < n - 1:
        hi = int(np.searchsorted(starts, starts[lo] + _PAIR_CHUNK, side="right")) - 1
        hi = max(hi, lo + 1)
        hits = np.flatnonzero(rng.bit_generator.random_raw(int(starts[hi] - starts[lo])) <= top)
        hits += starts[lo]
        u = np.searchsorted(starts, hits, side="right") - 1
        v = hits - starts[u] + u + 1
        degree += np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        # Nodes below hi have drawn every pair they belong to.
        if not degree[lo:hi].all():
            return None
        us.append(u)
        vs.append(v)
        lo = hi
    return (np.concatenate(us), np.concatenate(vs)) if degree[n - 1] else None


def generate_er_graph(n: int, mean_degree: float, seed: int) -> Topology:
    """G(n, p) with p = mean_degree / (n - 1), resampled until connected.

    The sub-seed is incremented per attempt so the result is deterministic
    for a given (n, mean_degree, seed).  Each sample stays in int arrays
    until it passes the connectivity check; only the accepted one becomes
    the edge set, in the sampler's upper-triangle order.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 0 < mean_degree < n:
        raise ValueError("mean_degree must be in (0, n)")
    p = mean_degree / (n - 1)
    for attempt in range(_MAX_CONNECT_ATTEMPTS):
        sample = _sample_er_pairs(n, p, np.random.default_rng([seed, attempt]))
        if sample is None:
            continue
        us, vs = sample
        if _connected(n, us, vs):
            return Topology(n=n, edges=frozenset(zip(us.tolist(), vs.tolist())))
    raise TopologyError(
        f"no connected graph in {_MAX_CONNECT_ATTEMPTS} attempts "
        f"(n={n}, mean_degree={mean_degree})"
    )


class EngineError(Exception):
    """A handler failure; the message names the event and the cause."""

    def __init__(self, event, cause):
        super().__init__(f"handler failed on {event}: {cause}")


def _bitset_rows(ints, nbits: int) -> np.ndarray:
    """Boolean ``(len(ints), nbits)`` array: row i holds the low bits of ints[i]."""
    nbytes = (nbits + 7) // 8
    raw = b"".join(x.to_bytes(nbytes, "little") for x in ints)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), nbytes)
    return np.unpackbits(packed, axis=1, count=nbits, bitorder="little").astype(bool)


class EventEngine:
    """Deterministic single-threaded event loop over one topology.

    Handlers is any object providing::

        on_slot_start(engine, t, slot)      # select proposer, create block
        on_attest_deadline(engine, t, slot) # attestors vote

    Blocks enter circulation via ``publish_block`` (usually from a scheduled
    release), votes via ``publish_attestation``.  A vote must be published
    by its slot's attestation deadline: later, its slot may be settled.

    Block releases, slot starts, attestation deadlines and the end of the run
    share one heap of ``(time, kind, seq, payload)``.  At equal times a
    release runs first, then a slot start, then a deadline, then the end;
    releases at one time run in the order they were scheduled.  Gossip
    interactions run strictly before the next of these events.

    Knowledge state, as fork choice reads it:

    * ``blocks[v]``: node v's block bitset;
    * ``votes[v]``: node v's vote bitset over the slots from ``vote_base``;
    * ``vote_slots[k]``: ``{target: validator bitset}`` of slot ``vote_base + k``;
    * ``vote_settled``: ``{(slot, target): validator bitset}``, the latest
      vote before ``vote_base`` of each validator, which every node holds.

    ``block_seen``, ``lm_slot`` and ``lm_target`` build dense arrays from the
    bitsets on each read, for inspection after a run.  The gossip schedule
    does not depend on content, so ``trace()`` replays it from ``seed`` (an
    int or ``SeedSequence``) and merges it with the run's ``events`` log.
    """

    def __init__(self, topology: Topology, gossip: GossipConfig, handlers,
                 end_time: float, seed):
        if end_time <= 0:
            raise ValueError("end_time must be positive")
        self.topology = topology
        self.gossip = gossip
        self.handlers = handlers
        self.end_time = float(end_time)
        self._seed = seed
        # The run's releases, slot starts, deadlines and end, as (time of the
        # event being processed, trace row); run() restarts it, and only
        # releases published while it runs are logged.
        self.events: list = []
        self._now = 0.0
        self._running = False

        self.n_nodes = self.n_validators = topology.n
        self.n_slots = int(self.end_time // SLOT_SECONDS)

        self._src, self._dst = topology.directed_pairs().T.copy()
        self._n_dir = len(self._src)

        # Knowledge state.
        self.blocks = [0] * self.n_nodes
        self.block_arrival = np.full((self.n_nodes, self.n_slots + 2), np.nan)
        self.votes = [0] * self.n_nodes
        self.vote_base = 0
        self.vote_slots: list = []
        self.vote_settled: dict = {}
        # Per class: the union of all nodes' sets, and the number of
        # (node, item) pairs of it not yet delivered.
        self._block_union = 0
        self._blocks_undelivered = 0
        self._vote_union = 0
        self._votes_undelivered = 0

        self._seq = itertools.count()
        self._queue = [(self.end_time, _END, next(self._seq), None)]
        if self.n_slots:
            self._push(0.0, _SLOT_START, 0)

    # -- scheduling ---------------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._queue, (time, kind, next(self._seq), payload))

    def schedule_release(self, time: float, node: int, block_id: int) -> None:
        self._push(time, _RELEASE, (node, block_id))

    def publish_block(self, node: int, block_id: int, time: float) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} not in [0, {self.n_nodes})")
        bit = 1 << block_id
        if not self.blocks[node] & bit:
            self.block_arrival[node, block_id] = time
            self.blocks[node] |= bit
            if not self._block_union & bit:
                self._block_union |= bit
                self._blocks_undelivered += self.n_nodes
            self._blocks_undelivered -= 1
        if self._running:
            self.events.append((self._now, (time, "BLOCK_RELEASE", node, f"block={block_id}")))

    def publish_attestation(
        self, node: int, validator: int, slot: int, target: int, time: float
    ) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} not in [0, {self.n_nodes})")
        if not 0 <= validator < self.n_validators:
            raise ValueError(f"validator {validator} not in [0, {self.n_validators})")
        k = slot - self.vote_base
        if k < 0:
            raise ValueError(f"vote of slot {slot} published after the slot settled")
        while len(self.vote_slots) <= k:
            self.vote_slots.append({})
        bit = 1 << (k * self.n_validators + validator)
        if not self._vote_union & bit:
            # The validator's first vote of this slot: it fixes the target.
            group = self.vote_slots[k]
            group[target] = group.get(target, 0) | 1 << validator
            self._vote_union |= bit
            self._votes_undelivered += self.n_nodes
        if not self.votes[node] & bit:
            self._votes_undelivered -= 1
            self.votes[node] |= bit

    # -- knowledge state ----------------------------------------------------

    def _arrive(self, node: int, new: int, t: float) -> None:
        arrival = self.block_arrival
        while new:
            low = new & -new
            arrival[node, low.bit_length() - 1] = t
            new ^= low

    def _compact(self, slot: int) -> None:
        """Settle the oldest vote slots, up to ``slot``, that all nodes hold alike."""
        width = self.n_validators
        mask = (1 << width) - 1
        votes = self.votes
        settled = self.vote_settled
        k = 0
        while k < len(self.vote_slots) and self.vote_base + k <= slot:
            shift = k * width
            held = (votes[0] >> shift) & mask
            if any((x >> shift) & mask != held for x in votes):
                break
            for key in list(settled):
                rest = settled[key] & ~held
                if rest:
                    settled[key] = rest
                else:
                    del settled[key]
            for target, bits in self.vote_slots[k].items():
                settled[(self.vote_base + k, target)] = bits
            k += 1
        if k:
            shift = k * width
            votes[:] = [x >> shift for x in votes]
            self._vote_union >>= shift
            del self.vote_slots[:k]
            self.vote_base += k

    @property
    def block_seen(self) -> np.ndarray:
        return _bitset_rows(self.blocks, self.block_arrival.shape[1])

    def _latest_votes(self):
        """Dense ``(n_nodes, n_validators)`` latest-message slots and targets."""
        n, width = self.n_nodes, self.n_validators
        lm_slot = np.full((n, width), -1, dtype=np.int32)
        lm_target = np.zeros((n, width), dtype=np.int32)
        for (slot, target), bits in self.vote_settled.items():
            mine = _bitset_rows([bits], width)[0]
            lm_slot[:, mine] = slot
            lm_target[:, mine] = target
        window = len(self.vote_slots)
        held = _bitset_rows(self.votes, window * width).reshape(n, window, width)
        for k, group in enumerate(self.vote_slots):
            voted = np.zeros(width, dtype=np.int32)
            for target, bits in group.items():
                voted[_bitset_rows([bits], width)[0]] = target
            has = held[:, k, :]
            lm_slot[has] = self.vote_base + k
            lm_target[has] = np.broadcast_to(voted, has.shape)[has]
        return lm_slot, lm_target

    @property
    def lm_slot(self) -> np.ndarray:
        return self._latest_votes()[0]

    @property
    def lm_target(self) -> np.ndarray:
        return self._latest_votes()[1]

    # -- gossip stream ------------------------------------------------------

    def _stream(self):
        """The gossip stream from a fresh generator, ``_DRAW_SLICE`` draws at a
        time: times, edge indices and block-class flags.  A time is the
        running sum of the gaps; ``cumsum`` adds left to right, as ``t +=
        gap`` one draw at a time would, so they are the same floats."""
        rng = np.random.default_rng(self._seed)
        rate_b = self._n_dir / self.gossip.tau_block
        total_rate = rate_b + self._n_dir / self.gossip.tau_attestation
        carry = 0.0
        while True:
            times = rng.exponential(1.0 / total_rate, _RNG_BATCH)
            edges = rng.integers(0, self._n_dir, _RNG_BATCH)
            kinds = rng.random(_RNG_BATCH) < rate_b / total_rate
            times[0] += carry
            np.cumsum(times, out=times)
            carry = times[-1]
            for lo in range(0, _RNG_BATCH, _DRAW_SLICE):
                hi = lo + _DRAW_SLICE
                yield times[lo:hi], edges[lo:hi], kinds[lo:hi]

    def trace(self):
        """The last run's event trace, row by row: the ``events`` log and,
        replayed, a ``GOSSIP_INTERACTION`` row per draw, skipped or not.  A
        draw goes after the events at or before its time, as the run drained
        it.  One slice of draws is held at a time."""
        rows = [row for _, row in self.events]
        # An event goes before the first draw at or after its time, and after
        # every event before it.
        keys = np.maximum.accumulate([key for key, _ in self.events])
        src, dst = self._src, self._dst
        i = 0
        for times, edges, kinds in self._stream():
            stop = int(keys.searchsorted(times[-1], "right"))
            gossip = [
                (t, "GOSSIP_INTERACTION", u, f"->{v}:{_CLASS_NAMES[k]}")
                for t, u, v, k in zip(times.tolist(), src[edges].tolist(),
                                      dst[edges].tolist(), kinds.tolist())
            ]
            lo = 0
            for hi, row in zip(times.searchsorted(keys[i:stop]).tolist(), rows[i:stop]):
                yield from gossip[lo:hi]
                yield row
                lo = hi
            if stop == len(rows):
                return
            yield from gossip[lo:]
            i = stop

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        """Process events up to end_time."""
        src = self._src
        dst = self._dst
        blocks = self.blocks
        votes = self.votes
        arrive = self._arrive
        queue = self._queue
        self.events = events = []
        self._running = True
        stream = self._stream()
        bt = be = vt = ve = np.empty(0)  # the slice's block and vote draws
        bi = vi = 0
        last = -math.inf  # time of the slice's last draw

        while True:
            t, kind, _, payload = heapq.heappop(queue)
            self._now = t

            # Drain the gossip interactions strictly before the event (at a
            # tie the event runs first) one class at a time, and skip the
            # rest of a class once nothing of it is undelivered.  Only the
            # spans that run become Python lists.
            block_gap = self._blocks_undelivered
            vote_gap = self._votes_undelivered
            while True:
                end = int(bt.searchsorted(t))
                if block_gap and end > bi:
                    span = be[bi:end]
                    pairs = zip(src[span].tolist(), dst[span].tolist())
                    for i, (u, v) in enumerate(pairs, bi):
                        a = blocks[u]
                        b = blocks[v]
                        if a != b:
                            blocks[u] = blocks[v] = a | b
                            if b & ~a:
                                arrive(u, b & ~a, bt[i])
                            if a & ~b:
                                arrive(v, a & ~b, bt[i])
                            block_gap -= (a ^ b).bit_count()
                            if not block_gap:
                                break
                bi = end

                end = int(vt.searchsorted(t))
                if vote_gap and end > vi:
                    span = ve[vi:end]
                    for u, v in zip(src[span].tolist(), dst[span].tolist()):
                        a = votes[u]
                        b = votes[v]
                        if a != b:
                            votes[u] = votes[v] = a | b
                            vote_gap -= (a ^ b).bit_count()
                            if not vote_gap:
                                break
                vi = end

                if last >= t:
                    break
                times, edges, kinds = next(stream)
                block, vote = np.flatnonzero(kinds), np.flatnonzero(~kinds)
                bt, be, vt, ve = times[block], edges[block], times[vote], edges[vote]
                bi = vi = 0
                last = times[-1]
            self._blocks_undelivered = block_gap
            self._votes_undelivered = vote_gap

            try:
                if kind == _RELEASE:
                    self.publish_block(*payload, t)
                elif kind == _SLOT_START:
                    events.append((t, (t, "SLOT_START", -1, f"slot={payload}")))
                    self.handlers.on_slot_start(self, t, payload)
                    self._push(t + ATTEST_DEADLINE_OFFSET, _DEADLINE, payload)
                    if payload + 1 < self.n_slots:
                        self._push((payload + 1) * SLOT_SECONDS, _SLOT_START, payload + 1)
                elif kind == _DEADLINE:
                    events.append((t, (t, "ATTEST_DEADLINE", -1, f"slot={payload}")))
                    self.handlers.on_attest_deadline(self, t, payload)
                    self._compact(payload)
                else:
                    events.append((t, (t, "SIM_END", -1, "")))
                    self._running = False
                    return
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError((t, _KIND_NAMES[kind]), exc) from exc

