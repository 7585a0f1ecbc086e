"""Relay bid ingestion, slot-relative timing and duplicate removal.

Builders resubmit identical bids (same block hash and value) throughout an
auction and mirror them to several relays, so the raw streams carry heavy
duplication.  A bid's identity is the (slot, builder, block hash, value)
tuple; within a relay the first appearance wins, across relays the globally
earliest one does.

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


def _earliest_per_key(bids: Sequence[BidRecord]) -> list:
    """One record per key, keeping the earliest arrival (ties: first read).

    Output sorted by ascending arrival_ms, stable on ties.
    """
    best: dict = {}
    get = best.get
    for bid in bids:
        key = _dedup_key(bid)
        held = get(key)
        # Replacing a value keeps the key's place: survivors stay in first-read order.
        if held is None or bid[7] < held[7]:
            best[key] = bid
    survivors = list(best.values())
    survivors.sort(key=_arrival)
    return survivors


def dedup_within_relay(bids: Sequence[BidRecord], relay_id: str) -> list:
    """Earliest record per key of one relay's bids, sorted by arrival."""
    for bid in bids:
        if bid[1] != relay_id:
            raise ValueError(f"bid from relay {bid.relay_id!r}, expected {relay_id!r}")
    return _earliest_per_key(bids)


def dedup_across_relays(bids: Sequence[BidRecord]) -> list:
    """Globally earliest record per key; survivors keep their relay_id."""
    return _earliest_per_key(bids)


def duplicate_stats(bids: Sequence[BidRecord]) -> dict:
    """Duplicate counts (raw records minus unique keys) per (relay, slot),
    plus, per relay, the number of slots it saw and its average over them."""
    raw = Counter(map(itemgetter(1, 0), bids))
    unique = Counter(map(itemgetter(0, 1), set(map(itemgetter(1, 0, 2, 3, 5), bids))))
    per_cell = {cell: count - unique[cell] for cell, count in raw.items()}
    relay_totals: dict = {}
    relay_slots: dict = {}
    for (relay, _), count in per_cell.items():
        relay_totals[relay] = relay_totals.get(relay, 0) + count
        relay_slots[relay] = relay_slots.get(relay, 0) + 1
    per_relay = {r: (relay_slots[r], relay_totals[r] / relay_slots[r]) for r in relay_totals}
    return {"per_relay_slot": per_cell, "per_relay": per_relay}


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


def load_bids(
    path,
    relay_id: str,
    genesis_unix_ms: int,
    window_ms=DEFAULT_PLAUSIBILITY_WINDOW_MS,
):
    """Read an NDJSON bid dump.  Malformed or out-of-window records are
    skipped and counted, not fatal; a file that is not UTF-8 raises
    ``IngestError``.  Returns (bids, skipped_count)."""
    bids = []
    skipped = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    bids.append(parse_bid_line(line, relay_id, genesis_unix_ms, window_ms))
                except IngestError:
                    skipped += 1
    except UnicodeDecodeError:
        raise IngestError(f"{path}, line {undecodable_line(path)}: not valid UTF-8") from None
    return bids, skipped


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
    with open(path, "w", newline="") as fh:
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
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
