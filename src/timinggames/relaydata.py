"""Relay bid ingestion, slot-relative timing and duplicate removal.

Builders resubmit identical bids (same block hash and value) throughout an
auction and mirror them to several relays, so the raw streams carry heavy
duplication.  A bid's identity is the (slot, builder, block hash, value)
tuple; of its records the earliest arrival wins, then the earlier dump, then
the line read first.  ``BidFold`` folds each dump's records into that as they
are read, so ingest holds unique bids, never the raw records.

Values stay as exact wei integers everywhere in this module; conversion to
ETH happens only at analysis boundaries.

The module also holds the one CSV reader (``read_csv_rows``) and writer
(``write_csv``) that every command's data files and outputs go through.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from itertools import groupby, islice, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

SLOT_MS = 12_000
MAINNET_GENESIS_UNIX_MS = 1_606_824_023_000  # config preset, never hardcoded in logic
DEFAULT_PLAUSIBILITY_WINDOW_MS = (-24_000, 24_000)
WEI_LIMIT = 2**256  # values are EVM uint256

CSV_HEADER = "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
_BID_COLUMNS = CSV_HEADER.split(",")

# Record keys of the relay data API schema.
_KEY_SLOT = "slot"
_KEY_BUILDER = "builder_pubkey"
_KEY_HASH = "block_hash"
_KEY_PARENT = "parent_hash"
_KEY_VALUE = "value"
_KEY_NUM_TX = "num_tx"
_KEY_MS = "timestamp_ms"
_KEY_S = "timestamp"

_json_decode = json.JSONDecoder().raw_decode


class IngestError(Exception):
    """A record, or a data file, rejected at ingest."""


# Positions in a BidRecord: slot 0, relay 1, builder 2, hash 3, value 5,
# arrival 7.
_dedup_key = itemgetter(0, 2, 3, 5)
_arrival = itemgetter(7)
_merged_order = itemgetter(0, 7, 1, 3)  # slot, arrival, relay, block hash


class _BidFields(NamedTuple):
    slot: int
    relay_id: str
    builder_id: str
    block_hash: str
    parent_hash: str
    value_wei: int
    num_transactions: int
    arrival_ms: int


class BidRecord(_BidFields):
    """One relay bid: an immutable tuple that validates on construction."""

    __slots__ = ()

    def __new__(
        cls,
        slot: int,
        relay_id: str,
        builder_id: str,
        block_hash: str,
        parent_hash: str,
        value_wei: int,
        num_transactions: int,
        arrival_ms: int,
    ):
        if slot < 0:
            raise ValueError("slot must be non-negative")
        if not 0 <= value_wei < WEI_LIMIT:
            raise ValueError("value_wei must lie in [0, 2**256)")
        if num_transactions < 0:
            raise ValueError("num_transactions must be non-negative")
        return tuple.__new__(
            cls,
            (slot, relay_id, builder_id, block_hash, parent_hash,
             value_wei, num_transactions, arrival_ms),
        )

    # A bid's identity: the tuple (slot, builder_id, block_hash, value_wei).
    dedup_key = property(_dedup_key)

    @property
    def value_eth(self) -> float:
        return self.value_wei / 1e18


def normalize_arrival(
    unix_ms: int,
    slot: int,
    genesis_unix_ms: int,
    window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS,
) -> int:
    """Milliseconds relative to the slot start; negative means the bid
    arrived during the previous slot."""
    slot_start = genesis_unix_ms + slot * SLOT_MS
    arrival = unix_ms - slot_start
    lo, hi = window_ms
    if not lo <= arrival <= hi:
        raise IngestError(f"arrival {arrival}ms outside plausibility window [{lo}, {hi}]")
    return arrival


def _keep_earliest(bids, best: dict) -> dict:
    """Fold ``bids`` into ``best``, one record per key: the earliest arrival,
    and of equal arrivals the one folded first."""
    get = best.get
    for bid in bids:
        key = _dedup_key(bid)
        held = get(key)
        # Replacing a value keeps the key's place: keys stay in first-folded order.
        if held is None or bid[7] < held[7]:
            best[key] = bid
    return best


def _tallied(bids, slots: dict, keys: set):
    """``bids`` passed through, each counted under its slot in ``slots`` and
    its key added to ``keys``."""
    count = slots.get
    add = keys.add
    for bid in bids:
        slots[bid[0]] = count(bid[0], 0) + 1
        add(_dedup_key(bid))
        yield bid


class BidFold:
    """Relay dumps folded in one pass, one record at a time.

    ``best`` holds the earliest record per key across the dumps added;
    ``raw`` counts the records per (relay, slot) in first-seen order, and
    ``keys`` holds each relay's keys, for the duplicate stats.  A record that
    is not the earliest of its key so far is dropped as soon as it is read,
    so memory grows with unique keys per relay, not with raw records.
    """

    def __init__(self):
        self.best: dict = {}
        self.raw: dict = {}
        self.keys: dict = {}

    def add(self, bids, relay_id: str) -> int:
        """Fold one dump of ``relay_id``'s records, iterated once; returns
        how many there were."""
        best = self.best
        old = len(best)
        slots: dict = {}
        _keep_earliest(_tallied(bids, slots, self.keys.setdefault(relay_id, set())), best)
        # Keys first seen in this dump go behind the older ones in order of
        # arrival, where merging the dump's own dedup, sorted by arrival,
        # puts them; that order breaks ties of ``merged``'s sort key.
        new = sorted(islice(best.items(), old, None), key=lambda item: item[1][7])
        for key, _ in new:
            del best[key]
        best.update(new)
        raw = self.raw
        for slot, count in slots.items():
            raw[relay_id, slot] = raw.get((relay_id, slot), 0) + count
        return sum(slots.values())

    def merged(self) -> list:
        """The earliest record per key, sorted by slot, arrival, relay and
        block hash."""
        return sorted(self.best.values(), key=_merged_order)

    def stats(self) -> dict:
        """Duplicate counts (raw records minus unique keys) per (relay, slot),
        plus, per relay, the number of slots it saw and its average over them."""
        unique = Counter()
        for relay, keys in self.keys.items():
            unique.update(zip(repeat(relay), map(itemgetter(0), keys)))
        per_cell = {cell: count - unique[cell] for cell, count in self.raw.items()}
        relay_totals: dict = {}
        relay_slots: dict = {}
        for (relay, _), count in per_cell.items():
            relay_totals[relay] = relay_totals.get(relay, 0) + count
            relay_slots[relay] = relay_slots.get(relay, 0) + 1
        per_relay = {r: (relay_slots[r], relay_totals[r] / relay_slots[r]) for r in relay_totals}
        return {"per_relay_slot": per_cell, "per_relay": per_relay}


def dedup_within_relay(bids: Sequence[BidRecord], relay_id: str) -> list:
    """Earliest record per key of one relay's bids, sorted by arrival."""
    for bid in bids:
        if bid[1] != relay_id:
            raise ValueError(f"bid from relay {bid.relay_id!r}, expected {relay_id!r}")
    return sorted(_keep_earliest(bids, {}).values(), key=_arrival)


def dedup_across_relays(bids: Sequence[BidRecord]) -> list:
    """Globally earliest record per key, sorted by arrival (stable on ties);
    survivors keep their relay_id."""
    return sorted(_keep_earliest(bids, {}).values(), key=_arrival)


def duplicate_stats(bids: Sequence[BidRecord]) -> dict:
    """``BidFold.stats`` of ``bids``, any relays in any order."""
    fold = BidFold()
    for relay, run in groupby(bids, itemgetter(1)):
        fold.add(run, relay)
    return fold.stats()


def parse_bid_line(
    line: str,
    relay_id: str,
    genesis_unix_ms: int,
    window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS,
) -> BidRecord:
    """One stripped newline-delimited JSON record in the relay data API schema."""
    try:
        # ``line`` is stripped, so this is ``json.loads`` less two wrappers.
        raw, end = _json_decode(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise IngestError(f"not valid JSON: {exc}") from exc
    if end != len(line):
        raise IngestError(f"not valid JSON: extra data at char {end}")
    try:
        slot = int(raw[_KEY_SLOT])
        builder = str(raw[_KEY_BUILDER])
        block_hash = str(raw[_KEY_HASH])
        parent_hash = str(raw.get(_KEY_PARENT, ""))
        value_wei = int(raw[_KEY_VALUE])
        num_tx = int(raw.get(_KEY_NUM_TX, 0))
        if _KEY_MS in raw:
            unix_ms = int(raw[_KEY_MS])
        elif _KEY_S in raw:
            unix_ms = int(raw[_KEY_S]) * 1000
        else:
            raise IngestError("no timestamp field")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise IngestError(f"malformed record: {exc}") from exc
    if not _plausible_hash(block_hash):
        raise IngestError(f"non-hex block hash {block_hash!r}")
    arrival = normalize_arrival(unix_ms, slot, genesis_unix_ms, window_ms)
    try:
        return BidRecord(
            slot, relay_id, builder, block_hash, parent_hash, value_wei, num_tx, arrival
        )
    except ValueError as exc:
        raise IngestError(f"malformed record: {exc}") from exc


_HEX_HASH = re.compile(r"(?:0x)?[0-9a-fA-F]{64}")


def _plausible_hash(value: str) -> bool:
    """Exactly 64 ASCII hex digits, after an optional ``0x``."""
    return _HEX_HASH.fullmatch(value) is not None


def undecodable_line(path) -> int:
    """The 1-based number of the first line of ``path`` that is not UTF-8."""
    number = 0
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return number


class BidDump:
    """The records of an NDJSON bid dump, read from the file on each
    iteration.  Malformed or out-of-window records are skipped and counted
    in ``skipped``, not fatal; a file that is not UTF-8 raises
    ``IngestError``."""

    def __init__(self, path, relay_id: str, genesis_unix_ms: int,
                 window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS):
        self.path = path
        self.relay_id = relay_id
        self.genesis_unix_ms = genesis_unix_ms
        self.window_ms = window_ms
        self.skipped = 0

    def __iter__(self):
        path, relay_id = self.path, self.relay_id
        genesis, window = self.genesis_unix_ms, self.window_ms
        self.skipped = 0
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        bid = parse_bid_line(line, relay_id, genesis, window)
                    except IngestError:
                        self.skipped += 1
                        continue
                    yield bid
        except UnicodeDecodeError:
            raise IngestError(f"{path}, line {undecodable_line(path)}: not valid UTF-8") from None


def load_bids(
    path,
    relay_id: str,
    genesis_unix_ms: int,
    window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS,
):
    """A ``BidDump`` read into a list: returns (bids, skipped_count)."""
    dump = BidDump(path, relay_id, genesis_unix_ms, window_ms)
    bids = list(dump)
    return bids, dump.skipped


_csv_special = re.compile(r'[,"\r\n]').search


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with inner quotes doubled, only
    when it holds a comma, a quote or a line break."""
    if _csv_special(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def write_bids_csv(bids: Sequence[BidRecord], path) -> None:
    """The dedup CSV.  Only ``relay_id`` and ``builder_id`` can need quotes:
    every other field is an integer or a validated hex hash."""
    # Each distinct id is checked once: bids repeat few relays and builders.
    field = {s: csv_field(s) for s in {b[1] for b in bids} | {b[2] for b in bids}}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(
            f"{b[0]},{field[b[1]]},{field[b[2]]},{b[3]},{b[5]},{b[7]},{b[6]}\n" for b in bids
        )


def read_bids_csv(path) -> list:
    """Read a dedup bid CSV; a row that does not hold a valid bid raises
    ``IngestError`` naming the file and line."""
    bids = []
    append = bids.append
    rows = read_csv_rows(path, _BID_COLUMNS)
    try:
        for line, (slot, relay, builder, block_hash, value, arrival, num_tx) in rows:
            append(BidRecord(int(slot), relay, builder, block_hash, "",
                             int(value), int(num_tx), int(arrival)))
    except ValueError as exc:
        raise IngestError(f"{path}, line {line}: {exc}") from None
    return bids


def read_csv_rows(path, columns: Sequence[str]):
    """(line number, the values of ``columns``) for each non-blank row of a
    CSV with a header row; the last of equal column names wins, as in
    ``csv.DictReader``.  A missing column, a row too short for one of
    ``columns``, a malformed field or a file that is not UTF-8 raises
    ``IngestError`` naming the file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            index = {name: i for i, name in enumerate(next(reader, []))}
            missing = set(columns) - index.keys()
            if missing:
                raise IngestError(f"{path}: missing columns: {sorted(missing)}")
            at = [index[name] for name in columns]
            pick = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            for row in reader:
                if row:
                    try:
                        values = pick(row)
                    except IndexError:
                        raise IngestError(
                            f"{path}, line {reader.line_num}: {len(row)} fields, "
                            f"too few for the header"
                        ) from None
                    yield reader.line_num, values
        except csv.Error as exc:
            raise IngestError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise IngestError(
                f"{path}, line {undecodable_line(path)}: not valid UTF-8"
            ) from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return csv_field(value)
    return repr(value)


def write_csv(path, header: str, rows) -> None:
    """A CSV of the comma-separated ``header`` and one line per row.  A cell
    is empty for None, ``true``/``false`` for a bool, ``csv_field`` of a
    string and the ``repr`` of anything else."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
