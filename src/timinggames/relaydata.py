"""Relay bid ingestion, slot-relative timing and duplicate removal.

Builders resubmit identical bids (same block hash and value) throughout an
auction and mirror them to several relays, so the raw streams carry heavy
duplication.  A bid's identity is the (slot, builder, block hash, value)
tuple; of its records the earliest arrival wins, then the earlier dump, then
the line read first.  ``BidFold`` folds each dump's records into that as they
are read, one dict entry per bid holding its earliest record and the relays
that sent it, so ingest holds unique bids, never the raw records.  Each file
is read in one flat loop with no per-record helper: ``parse_bid_line`` is the
whole record rule, inline, and ``read_csv_rows`` splits plain lines on commas.
Values stay exact wei integers; conversion to ETH happens only in analyses.

The module also holds the one CSV reader (``read_csv_rows``) and writer
(``write_csv``) that every command's data files and outputs go through.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import NamedTuple, Sequence

SLOT_MS = 12_000
MAINNET_GENESIS_UNIX_MS = 1_606_824_023_000  # config preset, never hardcoded in logic
DEFAULT_PLAUSIBILITY_WINDOW_MS = (-24_000, 24_000)
WEI_LIMIT = 2**256  # values are EVM uint256

CSV_HEADER = "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
_BID_COLUMNS = CSV_HEADER.split(",")

_scan_json = json.JSONDecoder().scan_once  # the C scanner behind json.loads
_unhex = bytes.fromhex


class IngestError(Exception):
    """A record, or a data file, rejected at ingest."""


# Positions in a BidRecord: slot 0, relay 1, builder 2, hash 3, value 5,
# arrival 7.
_dedup_key = itemgetter(0, 2, 3, 5)
_arrival = itemgetter(7)
_merged_order = itemgetter(0, 7, 1, 3)  # slot, arrival, relay, block hash
_record = itemgetter(0)


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

    def __new__(cls, slot: int, relay_id: str, builder_id: str, block_hash: str,
                parent_hash: str, value_wei: int, num_transactions: int, arrival_ms: int):
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


class BidFold:
    """Relay dumps folded in one pass, one record at a time.

    ``bids`` maps each bid key to a list ``[earliest record so far, bitmask
    of the relays that sent the key]`` (``relays`` gives each relay its
    bit), and ``raw`` counts the records per (relay, slot) in first-seen
    order.  A record that is not the earliest of its key so far is dropped
    as soon as it is read, so memory grows with unique keys, not with raw
    records, and a key mirrored to several relays is held once.
    """

    def __init__(self):
        self.bids: dict = {}
        self.raw: dict = {}
        self.relays: dict = {}

    def add(self, bids, relay_id: str) -> int:
        """Fold one dump of ``relay_id``'s records, iterated once; returns
        how many there were."""
        table = self.bids
        find = table.get
        old = len(table)
        slots: dict = {}
        count = slots.get
        bit = self.relays.setdefault(relay_id, 1 << len(self.relays))
        for bid in bids:
            slot = bid[0]
            slots[slot] = count(slot, 0) + 1
            key = slot, bid[2], bid[3], bid[5]
            held = find(key)
            if held is None:
                table[key] = [bid, bit]
            else:
                # Of equal arrivals the record folded first stays.
                if bid[7] < held[0][7]:
                    held[0] = bid
                held[1] |= bit
        # Keys first seen in this dump go behind the older ones in order of
        # arrival, where merging the dump's own dedup, sorted by arrival,
        # puts them; that order breaks ties of ``merged``'s sort key.
        new = sorted(islice(table.items(), old, None), key=lambda item: item[1][0][7])
        for key, _ in new:
            del table[key]
        table.update(new)
        raw = self.raw
        for slot, count in slots.items():
            raw[relay_id, slot] = raw.get((relay_id, slot), 0) + count
        return sum(slots.values())

    def merged(self) -> list:
        """The earliest record per key, sorted by slot, arrival, relay and
        block hash."""
        return sorted(map(_record, self.bids.values()), key=_merged_order)

    def stats(self) -> dict:
        """Duplicate counts (raw records minus unique keys) per (relay, slot),
        plus, per relay, the number of slots it saw and its average over them."""
        # Keys per (relay bitmask, slot), then per (relay, slot).
        shared = Counter((held[1], key[0]) for key, held in self.bids.items())
        unique = Counter()
        for (bits, slot), count in shared.items():
            for relay, bit in self.relays.items():
                if bits & bit:
                    unique[relay, slot] += count
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
    return dedup_across_relays(bids)


def dedup_across_relays(bids: Sequence[BidRecord]) -> list:
    """Globally earliest record per key, sorted by arrival (stable on ties);
    survivors keep their relay_id."""
    fold = BidFold()
    fold.add(bids, None)
    return sorted(map(_record, fold.bids.values()), key=_arrival)


def duplicate_stats(bids: Sequence[BidRecord]) -> dict:
    """``BidFold.stats`` of ``bids``, any relays in any order."""
    fold = BidFold()
    for relay, run in groupby(bids, itemgetter(1)):
        fold.add(run, relay)
    return fold.stats()


def parse_bid_line(line: str, relay_id: str, genesis_unix_ms: int,
                   window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS) -> BidRecord:
    """One stripped newline-delimited JSON record in the relay data API
    schema, checked inline: a JSON object whose numbers are JSON integers or
    strings of an optional ``-`` and ASCII digits (a float or a bool is
    refused: ``int`` would truncate it, and a float above 2**53 is already
    rounded), whose ids and hashes are strings, whose block hash is 64 hex
    digits after an optional ``0x``, and whose arrival, in milliseconds from
    the slot start, lies in ``window_ms``."""
    try:
        raw, end = _scan_json(line, 0)
    except StopIteration as exc:
        raise IngestError(f"not valid JSON: expecting a value at char {exc.value}") from None
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"not valid JSON: {exc}") from None
    if end != len(line) or type(raw) is not dict:
        raise IngestError("not valid JSON: not one object")
    get = raw.get
    try:
        slot, value, num_tx = raw["slot"], raw["value"], get("num_tx", 0)
        stamp, scale = ((raw["timestamp_ms"], 1) if "timestamp_ms" in raw
                        else (raw["timestamp"], 1000))
        # int() alone would also take "+1", " 1", "1_000" and non-ASCII digits.
        if type(slot) is str and slot.isascii() and (
                slot.isdigit() or slot[:1] == "-" and slot[1:].isdigit()):
            slot = int(slot)
        elif type(slot) is not int:
            raise TypeError(f"slot {slot!r} is not an integer")
        if type(value) is str and value.isascii() and (
                value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            value = int(value)
        elif type(value) is not int:
            raise TypeError(f"value {value!r} is not an integer")
        if type(num_tx) is str and num_tx.isascii() and (
                num_tx.isdigit() or num_tx[:1] == "-" and num_tx[1:].isdigit()):
            num_tx = int(num_tx)
        elif type(num_tx) is not int:
            raise TypeError(f"num_tx {num_tx!r} is not an integer")
        if type(stamp) is str and stamp.isascii() and (
                stamp.isdigit() or stamp[:1] == "-" and stamp[1:].isdigit()):
            stamp = int(stamp)
        elif type(stamp) is not int:
            raise TypeError(f"timestamp {stamp!r} is not an integer")
        builder, block_hash = raw["builder_pubkey"], raw["block_hash"]
        parent_hash = get("parent_hash", "")
        # str() would take null as "None" and a number as its digits.
        if not type(builder) is type(parent_hash) is str:
            raise TypeError(f"not strings: {builder!r}, {parent_hash!r}")
        # fromhex takes only a str and skips whitespace: 64 characters are
        # 32 bytes only if all are hex digits.
        if (len(block_hash) != 64 and (len(block_hash) != 66 or block_hash[:2] != "0x")
                or len(_unhex(block_hash[-64:])) != 32):
            raise ValueError(f"non-hex block hash {block_hash!r}")
    except KeyError as exc:
        raise IngestError(f"malformed record: no field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise IngestError(f"malformed record: {exc}") from None
    arrival = stamp * scale - genesis_unix_ms - slot * SLOT_MS
    lo, hi = window_ms
    if not lo <= arrival <= hi:
        raise IngestError(f"arrival {arrival}ms outside plausibility window [{lo}, {hi}]")
    if slot < 0 or num_tx < 0 or not 0 <= value < WEI_LIMIT:
        raise IngestError(f"malformed record: slot {slot}, num_tx {num_tx} or value out of range")
    # BidRecord.__new__ less its checks, made above.
    return tuple.__new__(BidRecord, (slot, relay_id, builder, block_hash, parent_hash,
                                     value, num_tx, arrival))


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


def load_bids(path, relay_id: str, genesis_unix_ms: int,
              window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS):
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
            slot, value, num_tx, arrival = int(slot), int(value), int(num_tx), int(arrival)
            if slot < 0 or num_tx < 0 or not 0 <= value < WEI_LIMIT:
                BidRecord(slot, relay, builder, block_hash, "", value, num_tx, arrival)  # raises
            append(tuple.__new__(
                BidRecord, (slot, relay, builder, block_hash, "", value, num_tx, arrival)
            ))
    except ValueError as exc:
        raise IngestError(f"{path}, line {line}: {exc}") from None
    return bids


def read_csv_rows(path, columns: Sequence[str]):
    """(line number, the values of ``columns``) for each non-blank row of a
    CSV with a header row; the last of equal column names wins, as in
    ``csv.DictReader``.  Lines are split on commas while they hold no quote
    and no NUL and are no longer than ``csv.field_size_limit()``; from the
    first line that breaks one of these rules, ``csv.reader`` reads the rest
    of the file, so the rows, line numbers and errors are ``csv.reader``'s
    throughout.  A missing column, a row too short for one of ``columns``, a
    malformed field or a file that is not UTF-8 raises ``IngestError``
    naming the file and line."""
    limit = csv.field_size_limit()
    with open(path, newline="", encoding="utf-8") as fh:
        number = 0  # lines split here, before csv.reader takes over
        reader = None
        try:
            line = next(fh, "")
            if '"' in line or "\0" in line or len(line) > limit:
                reader = csv.reader(chain((line,), fh))
                header = next(reader, [])
            else:
                number = 1
                line = line.rstrip("\r\n")
                header = line.split(",") if line else []
            index = {name: i for i, name in enumerate(header)}
            missing = set(columns) - index.keys()
            if missing:
                raise IngestError(f"{path}: missing columns: {sorted(missing)}")
            at = [index[name] for name in columns]
            pick = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            for line in fh if reader is None else ():
                if '"' in line or "\0" in line or len(line) > limit:
                    reader = csv.reader(chain((line,), fh))
                    break
                number += 1
                line = line.rstrip("\r\n")
                if line:
                    row = line.split(",")
                    try:
                        values = pick(row)
                    except IndexError:
                        raise IngestError(f"{path}, line {number}: {len(row)} fields, "
                                          f"too few for the header") from None
                    yield number, values
            for row in reader or ():
                if row:
                    try:
                        values = pick(row)
                    except IndexError:
                        raise IngestError(f"{path}, line {number + reader.line_num}: "
                                          f"{len(row)} fields, too few for the header") from None
                    yield number + reader.line_num, values
        except csv.Error as exc:
            raise IngestError(f"{path}, line {number + reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise IngestError(f"{path}, line {undecodable_line(path)}: not valid UTF-8") from None


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
