"""The bid-pipeline workload: generated relay dumps through six CLI stages.

A round runs ``ingest``, ``analyze regress``, ``winners``, ``orphans``,
``shares`` and ``rewards`` through ``cli.main``, as a user runs
``timinggames``.  The generator knows every answer, so each stage's output
is checked against the generator's own lists, not against a stored copy of
an earlier output.

The unique bids (the panel) come from a fixed seed, so the input of
``analyze regress`` does not depend on ``--seed``: its check fails the same
way on every run (see README).  ``--seed`` draws everything else: which
relays carry each bid, resubmissions and their delays, the malformed lines,
and the companion CSVs.
"""

from __future__ import annotations

import csv
import json
import math
import statistics

import numpy as np

from timinggames import cli

import reference
from reference import CheckError

RELAYS = ("agnostic", "flashbots", "ultrasound")
GENESIS_MS = 1_606_824_023_000
FIRST_SLOT = 7_000_000
SLOT_MS = 12_000

PANEL_SEED = 20230
N_SLOTS = 2000
N_BUILDERS = 100
WINDOW_SLOTS = 100  # each builder bids in one rolling window of slots
PLANTED_SLOPE = 5.71e-6  # ETH per ms
REGRESS_REL_TOL = 1e-6
MALFORMED_PER_KIND = 10  # per relay dump

STAGES = ("ingest", "regress", "winners", "orphans", "shares", "rewards")


def make_panel():
    """The unique bids: (slot, builder, block_hash, value_wei, arrival_ms, num_tx).

    Builders that bid later carry larger builder effects, so arrival time is
    correlated with the builder effect, and rolling windows leave the panel
    unbalanced.
    """
    rng = np.random.default_rng(PANEL_SEED)
    z = rng.normal(size=N_BUILDERS)
    builder_fx = 0.01 * z + 0.005 * rng.normal(size=N_BUILDERS)
    lateness_ms = 1000.0 + 400.0 * z
    starts = rng.integers(1 - WINDOW_SLOTS, N_SLOTS, N_BUILDERS)
    slot_fx = 0.1 + rng.exponential(0.05, N_SLOTS)
    pubkeys = ["0x" + rng.bytes(48).hex() for _ in range(N_BUILDERS)]
    panel = []
    for i in range(N_SLOTS):
        active = [b for b in range(N_BUILDERS) if starts[b] <= i < starts[b] + WINDOW_SLOTS]
        for extra in range(2 - len(active)):
            active.append((i + extra) % N_BUILDERS)
        used = set()
        for b in active:
            for _ in range(int(rng.integers(1, 4))):
                arrival = int(round(lateness_ms[b] + rng.normal(0.0, 600.0)))
                while arrival in used:  # distinct arrivals fix the CSV row order
                    arrival += 1
                used.add(arrival)
                value = slot_fx[i] + builder_fx[b] + PLANTED_SLOPE * arrival
                value += rng.normal(0.0, 0.002)
                panel.append(
                    (
                        FIRST_SLOT + i,
                        pubkeys[b],
                        "0x" + rng.bytes(32).hex(),
                        int(round(value * 1e18)),
                        arrival,
                        int(rng.integers(50, 400)),
                    )
                )
    return panel


def _bid_line(slot, builder, block_hash, value_wei, unix_ms, num_tx, **override):
    record = {
        "slot": str(slot),
        "builder_pubkey": builder,
        "block_hash": block_hash,
        "parent_hash": "0x" + "00" * 32,
        "value": str(value_wei),
        "num_tx": str(num_tx),
        "timestamp_ms": str(unix_ms),
    }
    record.update(override)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def _malformed_lines(rng, slot):
    """One line of each kind ``load_bids`` must skip."""
    unix_ms = GENESIS_MS + slot * SLOT_MS + 1000
    fresh = "0x" + rng.bytes(32).hex()
    return [
        '{"slot": "%d", "builder_pubkey": "0xab' % slot,  # cut-off JSON
        _bid_line(slot, "0xbad", "0x1234", 10**17, unix_ms, 1),  # short hash
        _bid_line(slot, "0xbad", fresh, 10**17, unix_ms, 1, timestamp_ms=None),
        _bid_line(slot, "0xbad", fresh, 10**17, unix_ms + 40_000, 1),  # outside window
        _bid_line(slot, "0xbad", fresh, 10**17, unix_ms, 1, value="lots"),
    ]


class BidWorkload:
    min_rounds = 2

    def __init__(self, name: str, seed: int):
        self.seed = seed

    def prepare(self, workdir) -> None:
        """Write the dumps and companion CSVs; work out every expected answer."""
        self.dir = workdir
        self.panel = make_panel()
        rng = np.random.default_rng([self.seed, 1])
        by_slot: dict = {}
        for bid in self.panel:
            by_slot.setdefault(bid[0], []).append(bid)

        # Relay dumps: each bid reaches a first relay at its panel arrival;
        # resubmissions and mirrors on other relays come strictly later.
        sends = {relay: [] for relay in RELAYS}
        copies = []
        for i, (slot, builder, block_hash, value, arrival, _) in enumerate(self.panel):
            first = int(rng.integers(len(RELAYS)))
            times = [(first, arrival)]
            times += [(first, arrival + int(d)) for d in rng.integers(1, 400, rng.integers(0, 3))]
            for r in range(len(RELAYS)):
                if r != first and rng.random() < 0.5:
                    times += [(r, arrival + int(d)) for d in rng.integers(1, 800, rng.integers(1, 3))]
            for r, at in times:
                sends[RELAYS[r]].append((GENESIS_MS + slot * SLOT_MS + at, i))
                copies.append((slot, builder, block_hash, value, at, RELAYS[r]))
        # Raw relay records per round, malformed lines too: the work behind
        # items_per_s.
        self.items_per_round = 0
        self.dump_args = []
        for relay in RELAYS:
            # Lines go out in timestamp order, with the malformed ones at
            # random places among them.
            rows = sorted(sends[relay])
            bad = []
            for _ in range(MALFORMED_PER_KIND):
                bad += _malformed_lines(rng, FIRST_SLOT + int(rng.integers(N_SLOTS)))
            at = sorted(zip(rng.integers(0, len(rows) + 1, len(bad)).tolist(), range(len(bad))))
            path = workdir / f"{relay}.ndjson"
            with open(path, "w") as fh:
                for j, (unix_ms, i) in enumerate(rows):
                    while at and at[0][0] == j:
                        fh.write(bad[at.pop(0)[1]] + "\n")
                    slot, builder, block_hash, value, _, num_tx = self.panel[i]
                    fh.write(_bid_line(slot, builder, block_hash, value, unix_ms, num_tx) + "\n")
                for _, k in at:
                    fh.write(bad[k] + "\n")
            self.items_per_round += len(rows) + len(bad)
            self.dump_args += ["--bids", f"{relay}={path}"]

        self.want_dedup = reference.expected_dedup(copies)
        if {k: a for k, (a, _) in self.want_dedup.items()} != {b[:4]: b[4] for b in self.panel}:
            raise CheckError("generator: a bid's earliest copy is not its panel arrival")
        raw_cells: dict = {}
        for slot, _, _, _, _, relay in copies:
            raw_cells[relay, slot] = raw_cells.get((relay, slot), 0) + 1
        unique_cells: dict = {}
        for relay, slot, *_ in {(c[5], *c[:4]) for c in copies}:
            unique_cells[relay, slot] = unique_cells.get((relay, slot), 0) + 1
        self.want_dupstats = {}
        for relay in RELAYS:
            cells = [c for c in raw_cells if c[0] == relay]
            dups = sum(raw_cells[c] - unique_cells[c] for c in cells)
            self.want_dupstats[relay] = (len(cells), dups / len(cells))

        # The exact within estimator on the panel, which the dedup CSV holds.
        self.want_slope = reference.within_slope(
            [b[3] / 1e18 for b in self.panel],
            [b[4] for b in self.panel],
            [b[0] for b in self.panel],
            [b[1] for b in self.panel],
        )

        # Delivered payloads, block status, attestations and rewards per slot.
        delivered, status, attestations, blocks = [], [], [], []
        self.want_winners = {}
        orphaned, canonical, missed = [], [], 0
        self.want_shares = []
        epochs: dict = {}
        for slot in sorted(by_slot):
            bids = by_slot[slot]
            ranked = [(b[3], b[4], b[2]) for b in bids]
            if rng.random() < 0.4:
                winner = min(bids, key=lambda b: (-b[3], b[4], b[2]))
            else:
                winner = bids[int(rng.integers(len(bids)))]
            key = (winner[3], winner[4], winner[2])
            cls, delta_v, highest_at = reference.winner_scan(key, ranked)
            self.want_winners[slot] = (winner[4], highest_at, highest_at - winner[4], delta_v, cls)
            relay = self.want_dedup[winner[:4]][1]
            proposer = "0x" + rng.bytes(48).hex()
            delivered.append(f"{slot},{relay},{winner[1]},{winner[2]},{winner[3]},{proposer}")

            u = rng.random()
            if u < 0.03:
                status.append(f"{slot},,missed")
                missed += 1
            elif u < 0.09:
                status.append(f"{slot},{winner[2]},orphaned")
                orphaned.append(winner[4])
            else:
                status.append(f"{slot},{winner[2]},canonical")
                canonical.append(winner[4])

            committee = int(rng.integers(64, 513))
            count = int(rng.binomial(committee, rng.beta(5.0, 2.0)))
            attestations.append(f"{slot},0x{rng.bytes(32).hex()},{count},{committee}")
            self.want_shares.append((slot, count / committee))

            mev_wei = int(rng.lognormal(math.log(5e16), 1.0))
            proposal_gwei = int(rng.integers(20_000_000, 60_000_000))
            blocks.append(f"{slot // 32},{slot},{mev_wei},{proposal_gwei}")
            epochs.setdefault(slot // 32, ([], []))
            epochs[slot // 32][0].append(mev_wei / 1e18)
            epochs[slot // 32][1].append(proposal_gwei / 1e9)

        self.want_orphans = _orphan_report(orphaned, canonical, missed)
        mev_all = [m for e in epochs.values() for m in e[0]]
        proposal_all = [p for e in epochs.values() for p in e[1]]
        self.want_rewards = (
            {e: (statistics.median(m), statistics.median(p)) for e, (m, p) in epochs.items()},
            statistics.median(mev_all),
            statistics.median(proposal_all),
            math.fsum(mev_all) / (math.fsum(mev_all) + math.fsum(proposal_all)),
        )
        for name, header, rows in (
            ("delivered", "slot,relay,builder,block_hash,value_wei,proposer", delivered),
            ("status", "slot,block_hash,status", status),
            ("attestations", "slot,block_root,attestor_count,committee_size", attestations),
            ("blocks", "epoch,slot,mev_wei,proposal_gwei", blocks),
        ):
            (workdir / f"{name}.csv").write_text("\n".join([header] + rows) + "\n")

    # -- operations -----------------------------------------------------------

    def ops(self):
        return STAGES

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def argv(self, stage: str) -> list:
        p = self._path
        if stage == "ingest":
            return ["ingest", *self.dump_args, "--genesis-ms", str(GENESIS_MS),
                    "--out", p("bids.csv"), "--stats-out", p("dupstats.csv")]
        inputs = {
            "regress": ["--bids", p("bids.csv")],
            "winners": ["--bids", p("bids.csv"), "--delivered", p("delivered.csv")],
            "orphans": ["--status", p("status.csv"), "--bids", p("bids.csv")],
            "shares": ["--attestations", p("attestations.csv")],
            "rewards": ["--blocks", p("blocks.csv")],
        }[stage]
        return ["analyze", stage, *inputs, "--out", p(f"{stage}.out.csv")]

    def run(self, stage, tracer=None):
        if tracer is None:
            return cli.main(self.argv(stage))
        with tracer.span(f"cli.{stage}"):
            return cli.main(self.argv(stage))

    def check(self, stage, exit_code) -> bool:
        """True when the stage failed; raises CheckError on a wrong output."""
        if exit_code != 0:
            raise CheckError(f"{stage}: exit code {exit_code}")
        return getattr(self, f"_check_{stage}")()

    def _rows(self, name: str) -> list:
        with open(self._path(name), newline="") as fh:
            return list(csv.DictReader(fh))

    def _check_ingest(self) -> bool:
        got = {}
        for row in self._rows("bids.csv"):
            key = (int(row["slot"]), row["builder"], row["block_hash"], int(row["value_wei"]))
            if key in got:
                raise CheckError(f"ingest: key {key} appears twice")
            got[key] = (int(row["arrival_ms"]), row["relay"])
        if got != self.want_dedup:
            missing = len(self.want_dedup.keys() - got.keys())
            extra = len(got.keys() - self.want_dedup.keys())
            raise CheckError(f"ingest: {missing} keys missing, {extra} extra, or arrivals differ")
        stats = {
            r["relay"]: (int(r["slots"]), float(r["avg_duplicates_per_slot"]))
            for r in self._rows("dupstats.csv")
        }
        if stats != self.want_dupstats:
            raise CheckError(f"ingest: duplicate stats {stats}, want {self.want_dupstats}")
        return False

    def _check_regress(self) -> bool:
        (row,) = self._rows("regress.out.csv")
        if int(row["n"]) != len(self.panel):
            raise CheckError(f"regress: n={row['n']}, want {len(self.panel)}")
        self.got_slope = float(row["slope_eth_per_ms"])
        return not abs(self.got_slope - self.want_slope) <= REGRESS_REL_TOL * abs(self.want_slope)

    def _check_winners(self) -> bool:
        got = {
            int(r["slot"]): (
                int(r["winner_arrival_ms"]),
                int(r["highest_arrival_ms"]),
                int(r["delta_t_ms"]),
                float(r["delta_v_eth"]),
                r["class"],
            )
            for r in self._rows("winners.out.csv")
        }
        if got != self.want_winners:
            bad = sorted(s for s in self.want_winners if got.get(s) != self.want_winners[s])
            raise CheckError(f"winners: {len(bad)} slots differ, first {bad[:3]}")
        (summary,) = self._rows("winners.out.csv.summary.csv")
        want = list(self.want_winners.values())
        counts = [sum(1 for w in want if w[4] == c) for c in ("EARLY", "LATE", "HIGHEST")]
        gaps = [w[2] for w in want if w[4] != "HIGHEST"]
        early_value = math.fsum(w[3] for w in want if w[4] == "EARLY")
        if (
            [int(summary[f"{c}_count"]) for c in ("early", "late", "highest")] != counts
            or float(summary["median_delta_t_ms"]) != statistics.median(gaps)
            or not math.isclose(float(summary["unrealized_eth"]), early_value, rel_tol=1e-9)
        ):
            raise CheckError(f"winners: summary {summary}")
        return False

    def _check_orphans(self) -> bool:
        (row,) = self._rows("orphans.out.csv")
        got = tuple(float(row[k]) if row[k] else None for k in _ORPHAN_FIELDS)
        if got != self.want_orphans:
            raise CheckError(f"orphans: {row}, want {self.want_orphans}")
        return False

    def _check_shares(self) -> bool:
        got = [
            (int(r["slot"]), float(r["share"]), r["vulnerable"])
            for r in self._rows("shares.out.csv")
        ]
        want = [(s, share, str(share < 0.4).lower()) for s, share in self.want_shares]
        if got != want:
            raise CheckError("shares: rows differ from count / committee")
        if statistics.median(g[1] for g in got) != statistics.median(w[1] for w in want):
            raise CheckError("shares: median differs")
        return False

    def _check_rewards(self) -> bool:
        per_epoch, mev, proposal, share = self.want_rewards
        got = {
            int(r["epoch"]): (float(r["median_mev_eth"]), float(r["median_proposal_eth"]))
            for r in self._rows("rewards.out.csv")
        }
        (summary,) = self._rows("rewards.out.csv.summary.csv")
        if (
            got != per_epoch
            or float(summary["median_mev_eth"]) != mev
            or float(summary["median_proposal_eth"]) != proposal
            or not math.isclose(float(summary["mev_share_of_total"]), share, rel_tol=1e-12)
        ):
            raise CheckError(f"rewards: summary {summary}")
        return False

    def note(self) -> str:
        return (
            f"analyze regress slope {self.got_slope!r}, exact within estimator "
            f"{self.want_slope!r} (relative gap {self.got_slope / self.want_slope - 1:+.3e}): "
            "counted as failed"
        )


_ORPHAN_FIELDS = (
    "orphaned_count",
    "missed_count",
    "median_orphaned_arrival_ms",
    "median_nonorphaned_arrival_ms",
    "late_nonorphaned_count",
    "considered_count",
)


def _orphan_report(orphaned, canonical, missed):
    """The orphan report's fields, brute force, as floats (None when empty)."""
    med_orphaned = statistics.median(orphaned) if orphaned else None
    earliest = min(orphaned) if orphaned else math.inf
    considered = [a for a in canonical if a >= earliest]
    late = sum(1 for a in considered if a > med_orphaned)
    return tuple(
        None if v is None else float(v)
        for v in (
            len(orphaned),
            missed,
            med_orphaned,
            statistics.median(canonical) if canonical else None,
            late,
            len(considered),
        )
    )
