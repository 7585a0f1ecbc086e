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
endpoints (one-way: the receiver) with the union of their sets.  A
validator's latest message at a node is its highest-slot vote in the node's
set.  Each validator casts at most one vote per slot, so this is the latest
message that forwarding each validator's newest (slot, target) pair, and
replacing only on a strictly later slot, would leave.

At each attestation deadline the oldest vote slots that every node holds
identically are folded into a settled table of latest votes and shifted out
of every bitset.  A bitset then spans only the few slots still in flight, so
the cost of a slot does not grow with the run's duration.

Interaction times per ordered adjacent pair form a renewal process with
exponential gaps of mean ``tau``.  Internally the engine draws the superposed
Poisson stream (one global clock, then a uniformly chosen edge and message
class), which is statistically identical and much cheaper to schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

SLOT_SECONDS = 12.0
ATTEST_DEADLINE_OFFSET = 4.0

_MAX_CONNECT_ATTEMPTS = 100
_RNG_BATCH = 1 << 15
_DRAW_SLICE = 1 << 11  # draws converted to Python lists at a time
_PAIR_CHUNK = 1 << 16  # node-pair draws held at once while sampling a graph


class TopologyError(Exception):
    """Raised when no connected graph can be sampled for the parameters."""


@dataclass(frozen=True)
class Topology:
    """Simple undirected connected graph over nodes 0..n-1."""

    n: int
    edges: frozenset
    seed: int

    @property
    def mean_degree(self) -> float:
        return 2.0 * len(self.edges) / self.n

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def directed_pairs(self) -> list:
        """All ordered adjacent pairs, sorted for determinism."""
        pairs = []
        for u, v in self.edges:
            pairs.append((u, v))
            pairs.append((v, u))
        pairs.sort()
        return pairs


@dataclass(frozen=True)
class GossipConfig:
    """Interaction clocks: one per ordered adjacent pair, exponential gaps
    with mean tau.

    With ``bidirectional`` (the default) an interaction synchronizes both
    endpoints, so content crosses each link at twice the one-way rate; with
    it off only the pair's source pushes to its destination.
    """

    tau_block: float = 3.0
    tau_attestation: float = 3.0
    bidirectional: bool = True

    def __post_init__(self):
        if self.tau_block <= 0 or self.tau_attestation <= 0:
            raise ValueError("gossip latencies must be positive")


class EventKind(IntEnum):
    # Numeric order doubles as the tie-break priority at equal times.
    BLOCK_RELEASE = 0
    SLOT_START = 1
    ATTEST_DEADLINE = 2
    GOSSIP_INTERACTION = 3
    SIM_END = 4


def _connected(n: int, edges) -> bool:
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


def _sample_er_pairs(n: int, p: float, rng: np.random.Generator):
    """One G(n, p) sample as lists ``(us, vs)``, or None if a node is isolated.

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
    us, vs = [], []
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
        us += u.tolist()
        vs += v.tolist()
        lo = hi
    return (us, vs) if degree[n - 1] else None


def generate_er_graph(n: int, mean_degree: float, seed: int) -> Topology:
    """G(n, p) with p = mean_degree / (n - 1), resampled until connected.

    The sub-seed is incremented per attempt so the result is deterministic
    for a given (n, mean_degree, seed).
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
        edges = frozenset(zip(*sample))
        if _connected(n, edges):
            return Topology(n=n, edges=edges, seed=seed)
    raise TopologyError(
        f"no connected graph in {_MAX_CONNECT_ATTEMPTS} attempts "
        f"(n={n}, mean_degree={mean_degree})"
    )


def gap_from_uniform(tau: float, u: float) -> float:
    """Inverse-CDF exponential gap with mean tau; u must lie in (0, 1]."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return -tau * math.log(u)


def sample_interaction_gap(tau: float, rng: np.random.Generator) -> float:
    return gap_from_uniform(tau, 1.0 - rng.random())


class EngineError(Exception):
    """A handler failure, with the offending event attached."""

    def __init__(self, event, cause):
        super().__init__(f"handler failed on {event}: {cause}")
        self.event = event
        self.cause = cause


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
        on_sim_end(engine, t)               # optional, may be absent

    Blocks enter circulation via ``publish_block`` (usually from a scheduled
    release), votes via ``publish_attestation``.  A vote must be published
    by its slot's attestation deadline: later, its slot may be settled.

    Knowledge state, as fork choice reads it:

    * ``blocks[v]``: node v's block bitset;
    * ``votes[v]``: node v's vote bitset over the slots from ``vote_base``;
    * ``vote_slots[k]``: ``{target: validator bitset}`` of slot ``vote_base + k``;
    * ``vote_settled``: ``{(slot, target): validator bitset}``, the latest
      vote before ``vote_base`` of each validator, which every node holds.

    ``block_seen``, ``lm_slot`` and ``lm_target`` build dense arrays from the
    bitsets on each read, for inspection after a run.
    """

    def __init__(
        self,
        topology: Topology,
        gossip: GossipConfig,
        handlers,
        end_time: float,
        seed,
        *,
        n_validators: int | None = None,
        max_blocks: int | None = None,
        record_trace: bool = False,
    ):
        if end_time <= 0:
            raise ValueError("end_time must be positive")
        self.topology = topology
        self.gossip = gossip
        self.handlers = handlers
        self.end_time = float(end_time)
        self.record_trace = record_trace
        self.trace: list | None = None  # set by run(): the trace covers the run

        self.n_nodes = topology.n
        self.n_validators = n_validators if n_validators is not None else topology.n
        self.n_slots = int(self.end_time // SLOT_SECONDS)
        cap = max_blocks if max_blocks is not None else self.n_slots + 2

        pairs = topology.directed_pairs()
        self._src = [p[0] for p in pairs]
        self._dst = [p[1] for p in pairs]
        self._n_dir = len(pairs)
        self._bidirectional = gossip.bidirectional

        # Knowledge state.
        self.blocks = [0] * self.n_nodes
        self.block_arrival = np.full((self.n_nodes, cap), np.nan)
        self.votes = [0] * self.n_nodes
        self.vote_base = 0
        self.vote_slots: list = []
        self.vote_settled: dict = {}

        self._rng = np.random.default_rng(seed)
        rate_b = self._n_dir / gossip.tau_block
        rate_a = self._n_dir / gossip.tau_attestation
        self._total_rate = rate_b + rate_a
        self._p_block = rate_b / self._total_rate
        self._batch = None
        self._draw_pos = _RNG_BATCH

        self._pending_releases: list = []  # kept sorted by (time, insertion)
        self._release_seq = 0

    # -- scheduling ---------------------------------------------------------

    def schedule_release(self, time: float, node: int, block_id: int) -> None:
        self._pending_releases.append((time, self._release_seq, node, block_id))
        self._release_seq += 1
        self._pending_releases.sort()

    def publish_block(self, node: int, block_id: int, time: float) -> None:
        bit = 1 << block_id
        if not self.blocks[node] & bit:
            self.block_arrival[node, block_id] = time
            self.blocks[node] |= bit
        if self.trace is not None:
            self.trace.append((time, "BLOCK_RELEASE", node, f"block={block_id}"))

    def publish_attestation(
        self, node: int, validator: int, slot: int, target: int, time: float
    ) -> None:
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

    def _next_draws(self):
        """The next slice of the gossip stream as Python lists: gaps, edge
        indices and block-class flags, one entry per interaction."""
        if self._draw_pos == _RNG_BATCH:
            rng = self._rng
            self._batch = (
                rng.exponential(1.0 / self._total_rate, _RNG_BATCH),
                rng.integers(0, self._n_dir, _RNG_BATCH),
                rng.random(_RNG_BATCH) < self._p_block,
            )
            self._draw_pos = 0
        lo = self._draw_pos
        self._draw_pos = lo + _DRAW_SLICE
        return [a[lo : self._draw_pos].tolist() for a in self._batch]

    # -- main loop ----------------------------------------------------------

    def run(self):
        """Process events up to end_time; returns the trace (or None)."""
        end = self.end_time
        src = self._src
        dst = self._dst
        blocks = self.blocks
        votes = self.votes
        arrive = self._arrive
        bidirectional = self._bidirectional
        self.trace = trace = [] if self.record_trace else None
        record = trace is not None

        gaps, edges, kinds = self._next_draws()
        slice_len = len(gaps)
        j = 0
        gossip_t = gaps[0]

        slot = 0
        next_slot_t = 0.0 if self.n_slots > 0 else math.inf
        deadlines: list = []  # (time, slot), FIFO
        dl_head = 0

        def next_structural():
            # Returns (time, priority) of the earliest non-gossip event.
            best = (end, EventKind.SIM_END)
            if self._pending_releases:
                r = self._pending_releases[0]
                if (r[0], EventKind.BLOCK_RELEASE) < best:
                    best = (r[0], EventKind.BLOCK_RELEASE)
            if next_slot_t < math.inf and (next_slot_t, EventKind.SLOT_START) < best:
                best = (next_slot_t, EventKind.SLOT_START)
            if dl_head < len(deadlines):
                d = deadlines[dl_head]
                if (d[0], EventKind.ATTEST_DEADLINE) < best:
                    best = (d[0], EventKind.ATTEST_DEADLINE)
            return best

        while True:
            s_time, s_kind = next_structural()

            # Drain gossip interactions strictly before the next structural
            # event (ties go to the structural event: lower priority number).
            while gossip_t < s_time:
                e = edges[j]
                u = src[e]
                v = dst[e]
                if kinds[j]:
                    a = blocks[u]
                    b = blocks[v]
                    if a != b:
                        if bidirectional:
                            blocks[u] = blocks[v] = a | b
                            if b & ~a:
                                arrive(u, b & ~a, gossip_t)
                            if a & ~b:
                                arrive(v, a & ~b, gossip_t)
                        elif a & ~b:
                            blocks[v] = a | b
                            arrive(v, a & ~b, gossip_t)
                    if record:
                        trace.append(
                            (gossip_t, "GOSSIP_INTERACTION", u, f"->{v}:block")
                        )
                else:
                    a = votes[u]
                    b = votes[v]
                    if a != b:
                        if bidirectional:
                            votes[u] = votes[v] = a | b
                        else:
                            votes[v] = a | b
                    if record:
                        trace.append(
                            (gossip_t, "GOSSIP_INTERACTION", u, f"->{v}:attestation")
                        )
                j += 1
                if j == slice_len:
                    gaps, edges, kinds = self._next_draws()
                    j = 0
                gossip_t += gaps[j]

            try:
                if s_kind == EventKind.SIM_END:
                    if record:
                        trace.append((end, "SIM_END", -1, ""))
                    on_end = getattr(self.handlers, "on_sim_end", None)
                    if on_end is not None:
                        on_end(self, end)
                    return trace
                if s_kind == EventKind.BLOCK_RELEASE:
                    t, _, node, block_id = self._pending_releases.pop(0)
                    self.publish_block(node, block_id, t)
                elif s_kind == EventKind.SLOT_START:
                    t = next_slot_t
                    if record:
                        trace.append((t, "SLOT_START", -1, f"slot={slot}"))
                    self.handlers.on_slot_start(self, t, slot)
                    deadlines.append((t + ATTEST_DEADLINE_OFFSET, slot))
                    slot += 1
                    next_slot_t = (
                        slot * SLOT_SECONDS if slot < self.n_slots else math.inf
                    )
                else:  # ATTEST_DEADLINE
                    t, dslot = deadlines[dl_head]
                    dl_head += 1
                    if record:
                        trace.append((t, "ATTEST_DEADLINE", -1, f"slot={dslot}"))
                    self.handlers.on_attest_deadline(self, t, dslot)
                    self._compact(dslot)
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError((s_time, s_kind), exc) from exc


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time,kind,node,detail\n")
        for time, kind, node, detail in trace:
            fh.write(f"{time!r},{kind},{node},{detail}\n")
