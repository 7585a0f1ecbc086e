"""Reference computations the benchmark checks the program against.

Nothing here imports the program: each function recomputes an answer from
the benchmark's own inputs, so a fault in the program cannot hide in its
own reference.  ``self_test`` checks the references on hand-made cases;
run it with ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import sys

import numpy as np


class CheckError(Exception):
    """A program output that contradicts the benchmark's own computation."""


def _codes(keys):
    index = {}
    out = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        out[i] = index.setdefault(key, len(index))
    return out, len(index)


def within_slope(values, arrival_ms, slots, builders) -> float:
    """Exact two-way (slot, builder) fixed-effect slope of value on arrival.

    Slot effects are eliminated by group means.  The builder effects then
    solve the B x B normal equations directly (least squares, so builders in
    separate connected components need no reference level).  Both value and
    arrival time are residualized, as Frisch-Waugh-Lovell requires.
    """
    y = np.asarray(values, dtype=np.float64)
    t = np.asarray(arrival_ms, dtype=np.float64)
    s, n_slots = _codes(slots)
    b, n_builders = _codes(builders)
    counts = np.zeros((n_slots, n_builders))
    np.add.at(counts, (s, b), 1.0)
    slot_sizes = counts.sum(axis=1)
    normal = np.diag(counts.sum(axis=0)) - (counts.T / slot_sizes) @ counts

    def residual(v):
        v_slot = v - (np.bincount(s, v, n_slots) / slot_sizes)[s]
        rhs = np.bincount(b, v_slot, n_builders)
        effect = np.linalg.lstsq(normal, rhs, rcond=None)[0]
        return v_slot - (effect[b] - (counts @ effect / slot_sizes)[s])

    y_res = residual(y)
    t_res = residual(t)
    return float(t_res @ y_res) / float(t_res @ t_res)


def expected_dedup(copies) -> dict:
    """Earliest copy of each (slot, builder, hash, value) key across relays.

    ``copies`` holds (slot, builder, block_hash, value_wei, arrival_ms, relay)
    tuples.  Returns key -> (arrival_ms, relay).  Equal earliest arrivals on
    two relays would leave the relay to input order, so they are refused.
    """
    best: dict = {}
    tied = set()
    for slot, builder, block_hash, value_wei, arrival, relay in copies:
        key = (slot, builder, block_hash, value_wei)
        held = best.get(key)
        if held is None or arrival < held[0]:
            best[key] = (arrival, relay)
            tied.discard(key)
        elif arrival == held[0] and relay != held[1]:
            tied.add(key)
    if tied:
        raise ValueError(f"{len(tied)} keys have equal earliest arrivals on two relays")
    return best


def winner_scan(winner, slot_bids):
    """Brute-force winner class and value gap over one slot's bids.

    Bids are (value_wei, arrival_ms, block_hash) tuples.  The highest bid is
    the largest value, then the earliest arrival, then the smallest hash.
    Returns (class, delta_v_eth, highest_arrival_ms).
    """
    highest = slot_bids[0]
    for bid in slot_bids[1:]:
        if (-bid[0], bid[1], bid[2]) < (-highest[0], highest[1], highest[2]):
            highest = bid
    delta_v_wei = highest[0] - winner[0]
    if delta_v_wei == 0:
        cls = "HIGHEST"
    elif winner[1] < highest[1]:
        cls = "EARLY"
    else:
        cls = "LATE"
    return cls, delta_v_wei / 1e18, highest[1]


def self_test() -> list:
    """Check each reference on a case with a known answer; returns the
    names of the references that failed."""
    failed = []

    # A noiseless, unbalanced panel: builders active in overlapping windows,
    # uneven bid counts, arrival times that depend on the builder.
    rng = np.random.default_rng(7)
    slope = 5.71e-6
    slot_fx = rng.normal(0.1, 0.03, 40)
    builder_fx = rng.normal(0.0, 0.01, 9)
    rows = []
    for slot in range(40):
        for builder in range(9):
            if not builder * 4 <= slot < builder * 4 + 10:
                continue
            for _ in range(int(rng.integers(1, 5))):
                arrival = float(rng.integers(-2000, 4000)) + 3e4 * builder_fx[builder]
                value = slot_fx[slot] + builder_fx[builder] + slope * arrival
                rows.append((value, arrival, slot, builder))
    got = within_slope(*zip(*rows))
    if not abs(got - slope) <= 1e-9 * slope:
        failed.append(f"within_slope: {got!r} for planted {slope!r}")

    # Three relays: a resubmission within one relay, a mirror that arrives
    # earlier on another relay, a key seen once, and two bids that differ
    # only in value.
    copies = [
        (10, "b1", "h1", 5, 300, "agnostic"),
        (10, "b1", "h1", 5, 250, "agnostic"),
        (10, "b1", "h1", 5, 120, "ultrasound"),
        (10, "b1", "h1", 5, 400, "flashbots"),
        (10, "b2", "h2", 7, -50, "flashbots"),
        (11, "b1", "h3", 5, 900, "ultrasound"),
        (11, "b1", "h3", 6, 800, "agnostic"),
        (11, "b1", "h3", 6, 810, "ultrasound"),
    ]
    want = {
        (10, "b1", "h1", 5): (120, "ultrasound"),
        (10, "b2", "h2", 7): (-50, "flashbots"),
        (11, "b1", "h3", 5): (900, "ultrasound"),
        (11, "b1", "h3", 6): (800, "agnostic"),
    }
    if expected_dedup(copies) != want:
        failed.append("expected_dedup: hand-made three-relay case")

    # Winner classes: a winner that is itself highest, one that came before
    # the highest bid and one that came after it; equal values tie to the
    # earlier arrival.
    bids = [(5, 100, "a"), (9, 700, "b"), (9, 650, "c"), (3, 900, "d")]
    cases = [
        ((9, 650, "c"), ("HIGHEST", 0.0, 650)),
        ((5, 100, "a"), ("EARLY", 4e-18, 650)),
        ((3, 900, "d"), ("LATE", 6e-18, 650)),
    ]
    for winner, want_scan in cases:
        if winner_scan(winner, bids) != want_scan:
            failed.append(f"winner_scan: winner {winner}")
    return failed


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
