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
exponential gaps of mean ``tau``, one per message class.  Internally each
class draws its superposed Poisson stream (one clock at rate n_dir / tau,
then a uniformly chosen ordered pair), which is statistically identical and
much cheaper to schedule.  A class's stream is cut into fixed time windows
of 1024 expected contacts, each drawn from its own stretch of the class's
PCG64 generator, so any window can be drawn without the ones before it
(``_ContactWindows``); only contact times are drawn ``_WINDOW_BATCH`` at a
time.  The schedule does not depend on what any node holds, only on the
seed, so ``EventEngine.trace()`` replays it after a run, through the
drain's span walker, to rebuild the event trace.

Before each event the engine drains the stream's interactions up to it one
message class at a time, blocks then votes, by one union loop.  The classes
touch disjoint state, so the result is that of the interleaved stream.  Per
class the engine keeps the union of every node's set and the number of
nodes whose set is not that union.  Gossip never changes a union, and a
count of 0 means every node holds the same set, where an interaction is a
no-op: the class then stops, draws no window until a publish makes a node
incomplete again, and resumes at its first contact at or after the drain
that last found it idle.  The drain records no arrival times:
``block_arrival`` replays the block windows from a log of block publishes
when it is read.

A run ends at its last attestation deadline, after which no handler reads
node state: later releases and the end are only logged in ``events``.  The
windows' generators and the drain's cursors hold nothing of the engine, so
an engine is freed by reference counting, not left to the cyclic collector,
which would raise a wide run's peak memory.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .consensus import GENESIS_ID

SLOT_SECONDS = 12.0
ATTEST_DEADLINE_OFFSET = 4.0

_MAX_CONNECT_ATTEMPTS = 100
_WINDOW_CONTACTS = 1024  # a contact window's expected number of contacts
_WINDOW_STRIDE = 1 << 40  # raw generator outputs per window; edges start half-way
_WINDOW_BATCH = 1152  # doubles drawn at a time: 1024 contacts plus 4 sigma


class TopologyError(Exception):
    """Raised when no connected graph can be sampled for the parameters."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Simple undirected connected graph over nodes 0..n-1: edge i joins
    nodes ``u[i]`` and ``v[i]`` (int64 arrays).  ``generate_er_graph``
    lists each edge once, ``u < v``, in upper-triangle order."""

    n: int
    u: np.ndarray
    v: np.ndarray

    def directed_pairs(self) -> np.ndarray:
        """All ordered adjacent pairs as a ``(2m, 2)`` int32 array, one pair
        a row, sorted by source and then destination for determinism."""
        n, u, v = self.n, self.u, self.v
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
_CLASS_NAMES = ("attestation", "block")  # indexed by message class


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


def _gap_batch(p: float, pairs: int) -> int:
    """Gaps to draw at once with ``pairs`` pairs left: the expected number
    of edges among them plus four standard deviations."""
    return int(p * pairs + 4.0 * math.sqrt(p * pairs)) + 1


def _sample_er_pairs(n: int, p: float, rng: np.random.Generator):
    """One G(n, p) sample as int arrays ``(us, vs)``, in upper-triangle order.

    Geometric edge skipping (Batagelj and Brandes 2005, "Efficient
    generation of large random networks", Phys. Rev. E 71, 036113): the
    k-th draw U_k of ``rng.random()`` gives the gap 1 + floor(log1p(-U_k) /
    log1p(-p)), and edge k is the pair at row-major upper-triangle index
    gap_1 + ... + gap_k - 1 while that index is below n(n - 1)/2.  So a
    sample costs one draw per edge, not one per pair.  Gaps are drawn
    ``_gap_batch`` at a time, which does not change the result.  With
    p >= 1 every pair is an edge and nothing is drawn.
    """
    pairs = n * (n - 1) // 2
    if p >= 1:
        flat = np.arange(pairs, dtype=np.int64)
    else:
        log_q = np.log1p(-p)
        chunks = [np.array([-1])]  # edge indices drawn, after a start at -1
        while chunks[-1][-1] < pairs:
            last = int(chunks[-1][-1])
            skips = np.floor(np.log1p(-rng.random(_gap_batch(p, pairs - 1 - last))) / log_q)
            # A gap past the last pair ends the sample; capping it at the
            # pair count keeps the int64 sums from overflowing.
            np.minimum(skips, pairs, out=skips)
            chunks.append(last + np.cumsum(skips.astype(np.int64) + 1))
        flat = np.concatenate(chunks[1:])
        flat = flat[: np.searchsorted(flat, pairs)]
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of (i, i + 1)
    u = np.searchsorted(starts, flat, side="right") - 1
    return u, flat - starts[u] + u + 1


def generate_er_graph(n: int, mean_degree: float, seed: int) -> Topology:
    """G(n, p) with p = mean_degree / (n - 1), resampled until connected.

    The sub-seed is incremented per attempt so the result is deterministic
    for a given (n, mean_degree, seed).  Each sample stays in int arrays,
    and the accepted one is the topology's, in the sampler's upper-triangle
    order.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 0 < mean_degree < n:
        raise ValueError("mean_degree must be in (0, n)")
    p = mean_degree / (n - 1)
    for attempt in range(_MAX_CONNECT_ATTEMPTS):
        us, vs = _sample_er_pairs(n, p, np.random.default_rng([seed, attempt]))
        # An isolated node, the usual reason a sample is disconnected, is
        # found without the search.
        degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
        if degree.all() and _connected(n, us, vs):
            return Topology(n, us, vs)
    raise TopologyError(
        f"no connected graph in {_MAX_CONNECT_ATTEMPTS} attempts "
        f"(n={n}, mean_degree={mean_degree})"
    )


def _gain(union: int, left: int, n: int, held: int, bit: int):
    """A class's union and count of incomplete nodes, out of n, after a node
    that held ``held`` gains ``bit``.  A fresh bit leaves complete only a
    publisher that held the old union."""
    if not union & bit:
        return union | bit, n - (held == union)
    return union, left - (held | bit == union)


class EngineError(Exception):
    """A handler failure; the message names the event and the cause."""

    def __init__(self, event, cause):
        super().__init__(f"handler failed on {event}: {cause}")


class _ContactWindows:
    """One message class's contacts, window by window.

    Class c (0 attestation, 1 block) has rate r = n_dir / tau_c and window
    width W = 1024 / r.  Its generator is ``PCG64(SeedSequence(ss.entropy,
    spawn_key=(*ss.spawn_key, c)))`` of the engine's seed ``ss``.  Window k
    takes consecutive ``random()`` doubles U from raw position k * 2^40,
    sums the gaps -log1p(-U) / r left to right from k * W and keeps the
    contacts below (k + 1) * W; their directed-pair indices are floor(V *
    n_dir) of consecutive doubles V from position k * 2^40 + 2^39, drawn at
    once.  Only the times are drawn ``_WINDOW_BATCH`` at a time, which does
    not change a window.  A window is drawn by advancing the generator to
    its position, so it does not depend on which windows were drawn before.
    """

    __slots__ = ("rate", "width", "_n_dir", "_bitgen", "_random", "_pos")

    def __init__(self, ss: np.random.SeedSequence, c: int, n_dir: int, tau: float):
        self.rate = n_dir / tau
        self.width = _WINDOW_CONTACTS / self.rate
        self._n_dir = n_dir
        self._bitgen = np.random.PCG64(
            np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, c))
        )
        self._random = np.random.Generator(self._bitgen).random
        self._pos = 0  # raw outputs drawn since the start

    def _seek(self, pos: int) -> None:
        # PCG64's state is an LCG of period 2^128, so a step back is this
        # step forward.
        self._bitgen.advance((pos - self._pos) % 2**128)
        self._pos = pos

    def _doubles(self, count: int) -> np.ndarray:
        self._pos += count  # PCG64 spends one raw output per double
        return self._random(count)

    def window(self, k: int):
        """Window k's contact times, in order, and their directed-pair indices."""
        end = (k + 1) * self.width
        self._seek(k * _WINDOW_STRIDE)
        chunks = []
        last = k * self.width
        while last < end:
            times = self._doubles(_WINDOW_BATCH)
            np.negative(times, out=times)
            np.log1p(times, out=times)
            times /= -self.rate  # the gaps -log1p(-U) / r, bit for bit
            # cumsum adds left to right, as t += gap one contact at a time would.
            times[0] += last
            np.cumsum(times, out=times)
            chunks.append(times)
            last = times[-1]
        times = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        times = times[: times.searchsorted(end)]
        self._seek(k * _WINDOW_STRIDE + _WINDOW_STRIDE // 2)
        # V < 1 makes V * n_dir round below n_dir, and the cast floors it.
        edges = self._doubles(len(times))
        edges *= self._n_dir
        return times, edges.astype(np.intp)


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

    Every node starts with genesis, block ``GENESIS_ID``, at time 0.  Other
    blocks enter circulation via ``publish_block`` (usually from a scheduled
    release), votes via ``publish_attestation`` or, for validators voting at
    their own nodes, ``publish_attestations``; both check their arguments and
    share one core, ``_publish_votes``.  A vote must be published by its
    slot's attestation deadline: later, its slot may be settled.

    Block releases, slot starts, attestation deadlines and the end of the run
    share one heap of ``(time, kind, seq, payload)``.  At equal times a
    release runs first, then a slot start, then a deadline, then the end;
    releases at one time run in the order they were scheduled.  Gossip
    interactions run strictly before the next of these events.  ``run()``
    stops at the last attestation deadline and only logs the releases after
    it and the end, so the knowledge state after a run is as of that
    deadline (the initial state when no slot fits).

    Knowledge state, as fork choice reads it:

    * ``blocks[v]``: node v's block bitset;
    * ``votes[v]``: node v's vote bitset over the slots from ``vote_base``;
    * ``vote_slots[k]``: ``{target: validator bitset}`` of slot ``vote_base + k``;
    * ``vote_settled``: ``{(slot, target): validator bitset}``, the latest
      vote before ``vote_base`` of each validator, which every node holds.

    ``block_seen``, ``lm_slot`` and ``lm_target`` build dense arrays from the
    bitsets on each read, for inspection after a run, and ``block_arrival``
    replays the block gossip to rebuild when each node got each block.  The
    gossip schedule does not depend on content: each class's contact
    windows come from ``seed`` (an int or ``SeedSequence``) through
    ``_window``, which a run calls only while some node lacks part of the
    class's union, and ``trace()`` walks every window of both classes with
    ``_spans``, as the drain does, merging them into the ``events`` log.
    """

    def __init__(self, topology: Topology, gossip: GossipConfig, handlers,
                 end_time: float, seed):
        if end_time <= 0:
            raise ValueError("end_time must be positive")
        self.topology = topology
        self.gossip = gossip
        self.handlers = handlers
        self.end_time = float(end_time)
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # The run's releases, slot starts, deadlines and end, as (time of the
        # event being processed, trace row); run() restarts it, and a
        # publish outside a run is not logged.
        self.events: list = []
        self._now = 0.0
        self._running = False

        self.n_nodes = self.n_validators = topology.n
        self.n_slots = int(self.end_time // SLOT_SECONDS)

        self._src, self._dst = topology.directed_pairs().T.copy()
        self._n_dir = len(self._src)
        self._windows = [
            _ContactWindows(ss, c, self._n_dir, tau)
            for c, tau in enumerate((gossip.tau_attestation, gossip.tau_block))
        ]

        # Knowledge state: every node holds genesis from time 0.
        self.blocks = [1 << GENESIS_ID] * self.n_nodes
        self.votes = [0] * self.n_nodes
        self.vote_base = 0
        self.vote_slots: list = []
        self.vote_settled: dict = {}
        self._n_blocks = self.n_slots + 2
        # Per class (0 attestation, 1 block): the union of all nodes' sets,
        # and the number of nodes whose set is not that union.
        self._union = [0, 1 << GENESIS_ID]
        self._left = [0, 0]
        # Per class, the drain's cursor (see _spans), set in run(); and the
        # time the last drain ran to.
        self._cursors: list = []
        self._bound = 0.0
        # Each publish that added a block, as (drain bound, node, block,
        # time), and the replay of block arrivals, made at its first read.
        self._published: list = []
        self._replay = None

        self._seq = itertools.count()
        self._queue = [(self.end_time, _END, next(self._seq), None)]
        if self.n_slots:
            self._push(0.0, _SLOT_START, 0)

    # -- scheduling ---------------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._queue, (time, kind, next(self._seq), payload))

    def _check_block(self, node: int, block_id: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} not in [0, {self.n_nodes})")
        if not 0 <= block_id < self._n_blocks:
            raise ValueError(f"block {block_id} not in [0, {self._n_blocks})")

    def schedule_release(self, time: float, node: int, block_id: int) -> None:
        # The only check of a release after the last deadline: it is never published.
        self._check_block(node, block_id)
        self._push(time, _RELEASE, (node, block_id))

    def publish_block(self, node: int, block_id: int, time: float) -> None:
        self._check_block(node, block_id)
        bit = 1 << block_id
        held = self.blocks[node]
        if not held & bit:
            self._published.append((self._bound, node, block_id, time))
            self.blocks[node] = held | bit
            self._union[1], self._left[1] = _gain(
                self._union[1], self._left[1], self.n_nodes, held, bit)
        if self._running:
            self.events.append((self._now, (time, "BLOCK_RELEASE", node, f"block={block_id}")))

    def publish_attestation(
        self, node: int, validator: int, slot: int, target: int, time: float
    ) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} not in [0, {self.n_nodes})")
        if not 0 <= validator < self.n_validators:
            raise ValueError(f"validator {validator} not in [0, {self.n_validators})")
        self._publish_votes(slot, target, ((node, validator),))

    def publish_attestations(self, slot: int, target: int, validators, time: float) -> None:
        """Each of ``validators`` votes for ``target`` in ``slot`` at its own
        node: the state that ``publish_attestation(v, v, slot, target,
        time)`` for each in turn leaves, in one pass."""
        if not validators:
            return
        width = self.n_validators
        if not 0 <= min(validators) <= max(validators) < width:
            raise ValueError(f"validators {validators} not all in [0, {width})")
        self._publish_votes(slot, target, zip(validators, validators))

    def _publish_votes(self, slot: int, target: int, cast) -> None:
        """Each ``(node, validator)`` of ``cast``, one pair or validators at
        their own nodes, publishes the validator's vote for ``target`` in
        ``slot`` at the node."""
        k = slot - self.vote_base
        if k < 0:
            raise ValueError(f"vote of slot {slot} published after the slot settled")
        while len(self.vote_slots) <= k:
            self.vote_slots.append({})
        shift = k * self.n_validators
        votes = self.votes
        new = 0
        for node, v in cast:
            bit = 1 << (shift + v)
            new |= bit
            votes[node] |= bit
        # Each validator's first vote of the slot fixes its target.
        fresh = new & ~self._union[0]
        if fresh:
            group = self.vote_slots[k]
            group[target] = group.get(target, 0) | fresh >> shift
            self._union[0] |= fresh
        # Two fresh votes lie at two nodes, so no node holds the new union.
        union = self._union[0]
        self._left[0] = self.n_nodes if fresh & (fresh - 1) else sum(x != union for x in votes)

    # -- knowledge state ----------------------------------------------------

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
            self._union[0] >>= shift  # leaves each node's completeness as it was
            del self.vote_slots[:k]
            self.vote_base += k

    @property
    def block_seen(self) -> np.ndarray:
        return _bitset_rows(self.blocks, self._n_blocks)

    @property
    def block_arrival(self) -> np.ndarray:
        """Read-only ``(n_nodes, n_slots + 2)`` array: when node v got block b
        (NaN if it has not), as of the last drain.  Replayed on a copy of
        the block sets: the block windows up to ``_bound``, each logged
        publish after the contacts before its drain bound, stopping and
        resuming where the drain did.  The replay's state stays here, so a
        read costs only the contacts and publishes since the last one."""
        if self._replay is None:
            arrival = np.full((self.n_nodes, self._n_blocks), np.nan)
            arrival[:, GENESIS_ID] = 0.0
            self._replay = [[1 << GENESIS_ID] * self.n_nodes, arrival, [-1, None, None, None],
                            0, 1 << GENESIS_ID, 0]
        held, arrival, cursor, done, union, left = self._replay
        log, src, dst = self._published, self._src, self._dst
        while True:
            stop = log[done][0] if done < len(log) else self._bound
            # left > 0 only after a publish, which woke the class at its bound;
            # a class that a publish completed is idle, as in the drain.
            if not left:
                cursor[3] = None
            for times, span in self._spans(cursor, 1, log[done - 1][0], stop) if left else ():
                for t, u, v in zip(times.tolist(), src[span].tolist(), dst[span].tolist()):
                    a = held[u]
                    b = held[v]
                    if a != b:
                        held[u] = held[v] = m = a | b
                        for w, new in ((u, m ^ a), (v, m ^ b)):
                            while new:
                                low = new & -new
                                arrival[w, low.bit_length() - 1] = t
                                new ^= low
                        if m == union:
                            left -= (a != union) + (b != union)
                            if not left:
                                break
                else:
                    continue
                cursor[3] = None
                break
            if done == len(log):
                break
            _, node, block, time = log[done]
            arrival[node, block] = time
            union, left = _gain(union, left, self.n_nodes, held[node], 1 << block)
            held[node] |= 1 << block
            done += 1
        self._replay[3:] = done, union, left
        view = arrival.view()
        view.flags.writeable = False
        return view

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

    def _window(self, c: int, k: int):
        """Class c's contact window k: its times, in order, and directed-pair
        indices.  Every contact lies in [k * W_c, (k + 1) * W_c)."""
        return self._windows[c].window(k)

    def trace(self):
        """The last run's event trace, row by row: the ``events`` log and,
        replayed, a ``GOSSIP_INTERACTION`` row per contact, skipped or not.
        Before each event, both classes' contacts before the latest event
        time so far, as the run drained them, come from ``_spans`` on a
        cursor of this call's own, merged by (time, class)."""
        src, dst = self._src, self._dst
        cursors = [[0, *self._window(c, 0), 0] for c in (0, 1)]  # never idle
        bound = 0.0
        for key, row in self.events:
            bound = max(bound, key)
            spans = [list(self._spans(cursors[c], c, 0.0, bound)) for c in (0, 1)]
            if spans[0] or spans[1]:
                times, edges = (np.concatenate(part) for part in zip(*spans[0], *spans[1]))
                order = times.argsort(kind="stable")  # attestations first at a tie
                edges = edges[order]
                blocks = order >= sum(len(ts) for ts, _ in spans[0])
                yield from (
                    (t, "GOSSIP_INTERACTION", u, f"->{v}:{_CLASS_NAMES[k]}")
                    for t, u, v, k in zip(times[order].tolist(), src[edges].tolist(),
                                          dst[edges].tolist(), blocks.tolist())
                )
            yield row

    # -- main loop ----------------------------------------------------------

    def _spans(self, cursor: list, c: int, start: float, t: float):
        """Class c's contacts strictly before ``t`` that have not run, as
        ``(times, edges)`` spans, one per window, drawing windows as they are
        reached.  ``cursor`` is ``[window index, its times, its edges,
        position of the next contact]``, the position None while the class
        is idle, and is left at the first contact at or after ``t``; a
        caller that stops early, its class having no incomplete node, marks
        the cursor idle.

        An idle cursor resumes at its first contact at or after ``start``,
        the bound of the publish that woke it, which for the drain is
        ``_bound``, the time the previous drain ran to.  Every contact it
        passes over was a no-op: every node held the class's union from the
        drain that found it idle up to the events at ``start``, which run
        before any contact at their time."""
        width = self._windows[c].width
        k, times, edges, i = cursor
        if i is None:
            j = int(start // width)
            while j * width > start:
                j -= 1
            while (j + 1) * width <= start:
                j += 1
            if j != k:
                k = j
                times, edges = self._window(c, k)
            i = int(times.searchsorted(start))
        while True:
            end = int(times.searchsorted(t))
            cursor[:] = k, times, edges, end
            if end > i:
                yield times[i:end], edges[i:end]
            if end < len(times) or (k + 1) * width >= t:
                return
            k += 1
            times, edges = self._window(c, k)
            i = 0

    def _drain(self, t: float) -> None:
        """Run the gossip interactions strictly before ``t`` (at a tie the
        event runs first), one class at a time, and stop a class once every
        node holds its union.  Only the spans that run become Python lists."""
        src = self._src
        dst = self._dst
        for c, sets in ((1, self.blocks), (0, self.votes)):
            left = self._left[c]
            cursor = self._cursors[c]
            if not left:
                cursor[3] = None  # a publish may have completed the class: idle
                continue
            union = self._union[c]
            for _, span in self._spans(cursor, c, self._bound, t):
                for u, v in zip(src[span].tolist(), dst[span].tolist()):
                    a = sets[u]
                    b = sets[v]
                    if a != b:
                        sets[u] = sets[v] = m = a | b
                        if m == union:
                            left -= (a != union) + (b != union)
                            if not left:
                                break
                else:
                    continue
                cursor[3] = None  # idle
                break
            self._left[c] = left
        self._bound = t

    def run(self) -> None:
        """Process events up to the last attestation deadline; log the rest."""
        queue = self._queue
        self.events = events = []
        self._running = True
        self._cursors = [[-1, None, None, None] for _ in range(2)]  # idle, no window drawn
        self._bound = 0.0
        done = False  # past the last deadline: only releases and the end are left

        while True:
            t, kind, _, payload = heapq.heappop(queue)
            self._now = t
            if kind == _END:
                events.append((t, (t, "SIM_END", -1, "")))
                self._running = False
                return
            if done:
                node, block_id = payload
                events.append((t, (t, "BLOCK_RELEASE", node, f"block={block_id}")))
                continue
            self._drain(t)

            try:
                if kind == _RELEASE:
                    self.publish_block(*payload, t)
                elif kind == _SLOT_START:
                    events.append((t, (t, "SLOT_START", -1, f"slot={payload}")))
                    self.handlers.on_slot_start(self, t, payload)
                    self._push(t + ATTEST_DEADLINE_OFFSET, _DEADLINE, payload)
                    if payload + 1 < self.n_slots:
                        self._push((payload + 1) * SLOT_SECONDS, _SLOT_START, payload + 1)
                else:
                    events.append((t, (t, "ATTEST_DEADLINE", -1, f"slot={payload}")))
                    self.handlers.on_attest_deadline(self, t, payload)
                    self._compact(payload)
                    done = payload == self.n_slots - 1
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError((t, _KIND_NAMES[kind]), exc) from exc
