"""Bid ingest and deduplication against naive group-by oracles."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timinggames.relaydata import (
    BidRecord,
    IngestError,
    MAINNET_GENESIS_UNIX_MS,
    SLOT_MS,
    dedup_across_relays,
    dedup_within_relay,
    duplicate_stats,
    load_bids,
    parse_bid_line,
    read_bids_csv,
    read_csv_rows,
    undecodable_line,
    write_bids_csv,
    write_csv,
)


def make_bid(slot=100, relay="A", builder="b1", block_hash="h", value=10**16,
             arrival=0, num_tx=1):
    return BidRecord(
        slot=slot,
        relay_id=relay,
        builder_id=builder,
        block_hash=block_hash,
        value_wei=value,
        num_transactions=num_tx,
        arrival_ms=arrival,
    )


def oracle_dedup(bids):
    # Naive group-by key, keep min arrival (first on ties).
    groups = {}
    for b in bids:
        groups.setdefault(b.dedup_key, []).append(b)
    out = []
    for members in groups.values():
        best = members[0]
        for b in members[1:]:
            if b.arrival_ms < best.arrival_ms:
                best = b
        out.append(best)
    return sorted(out, key=lambda b: b.arrival_ms)


def arrival(unix_ms, slot, genesis):
    """``parse_bid_line``'s arrival of a record stamped ``unix_ms``."""
    raw = {"slot": slot, "builder_pubkey": "b", "block_hash": "0x" + "ab" * 32,
           "value": "1", "timestamp_ms": unix_ms}
    return parse_bid_line(json.dumps(raw), "r", genesis).arrival_ms


def test_parse_bid_line_arrival_from_slot_start():
    genesis = 1_000_000
    assert arrival(genesis + 5 * SLOT_MS + 250, 5, genesis) == 250
    assert arrival(genesis + 5 * SLOT_MS - 100, 5, genesis) == -100


def test_parse_bid_line_arrival_window():
    genesis = 0
    with pytest.raises(IngestError):
        arrival(genesis + 24_001, 0, genesis)
    assert arrival(genesis + 24_000, 0, genesis) == 24_000
    assert arrival(genesis - 24_000, 0, genesis) == -24_000


def test_dedup_within_relay_keeps_earliest():
    bids = [
        make_bid(arrival=300),
        make_bid(arrival=100),
        make_bid(arrival=200, block_hash="other"),
    ]
    out = dedup_within_relay(bids, "A")
    assert [b.arrival_ms for b in out] == [100, 200]


def test_dedup_within_relay_rejects_foreign_relay():
    with pytest.raises(ValueError):
        dedup_within_relay([make_bid(relay="B")], "A")


def test_dedup_across_relays_earliest_wins():
    bids = [make_bid(relay="A", arrival=120), make_bid(relay="B", arrival=80)]
    out = dedup_across_relays(bids)
    assert len(out) == 1
    assert out[0].relay_id == "B"


def _random_bids(rng, n, relays=("A", "B", "C")):
    bids = []
    for _ in range(n):
        bids.append(
            make_bid(
                slot=int(rng.integers(0, 20)),
                relay=relays[int(rng.integers(0, len(relays)))],
                builder=f"b{int(rng.integers(0, 4))}",
                block_hash=f"h{int(rng.integers(0, 30))}",
                value=int(rng.integers(1, 5)) * 10**15,
                arrival=int(rng.integers(-2000, 12000)),
            )
        )
    return bids


def test_dedup_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    bids = _random_bids(rng, 2000)
    got = dedup_across_relays(bids)
    expected = oracle_dedup(bids)
    assert {b.dedup_key for b in got} == {b.dedup_key for b in expected}
    assert sorted(b.arrival_ms for b in got) == sorted(b.arrival_ms for b in expected)


def test_dedup_idempotent():
    rng = np.random.default_rng(12)
    bids = _random_bids(rng, 500)
    once = dedup_across_relays(bids)
    assert dedup_across_relays(once) == once
    per_relay = dedup_within_relay([b for b in bids if b.relay_id == "A"], "A")
    assert dedup_within_relay(per_relay, "A") == per_relay


@given(st.integers(0, 2**32), st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_dedup_property_unique_keys_and_minimal_arrivals(seed, n):
    rng = np.random.default_rng(seed)
    bids = _random_bids(rng, n)
    out = dedup_across_relays(bids)
    keys = [b.dedup_key for b in out]
    assert len(keys) == len(set(keys)) == len({b.dedup_key for b in bids})
    earliest = {}
    for b in bids:
        earliest[b.dedup_key] = min(earliest.get(b.dedup_key, b.arrival_ms), b.arrival_ms)
    for b in out:
        assert b.arrival_ms == earliest[b.dedup_key]


def test_duplicate_stats_hand_example():
    bids = [
        make_bid(relay="A", slot=1, arrival=0),
        make_bid(relay="A", slot=1, arrival=50),  # duplicate of the first
        make_bid(relay="A", slot=1, block_hash="x", arrival=60),
        make_bid(relay="A", slot=2, arrival=0),
        make_bid(relay="B", slot=1, arrival=0),
    ]
    stats = duplicate_stats(bids)
    slots, average = stats["A"]
    assert slots == 2 and average == pytest.approx(0.5)
    slots, average = stats["B"]
    assert slots == 1 and average == pytest.approx(0.0)


HASH = "0x" + "ab" * 32


def test_parse_bid_line_round_trip():
    raw = {
        "slot": 6093815,
        "builder_pubkey": "0xbuilder",
        "block_hash": HASH,
        "parent_hash": HASH,
        "value": str(46 * 10**15),
        "num_tx": 120,
        "timestamp_ms": MAINNET_GENESIS_UNIX_MS + 6093815 * SLOT_MS + 299,
    }
    bid = parse_bid_line(json.dumps(raw), "agnostic", MAINNET_GENESIS_UNIX_MS)
    assert bid.arrival_ms == 299
    assert bid.value_wei == 46 * 10**15
    assert bid.relay_id == "agnostic"


def test_parse_bid_line_second_timestamps():
    raw = {
        "slot": 10,
        "builder_pubkey": "b",
        "block_hash": HASH,
        "value": "1",
        "timestamp": (MAINNET_GENESIS_UNIX_MS + 10 * SLOT_MS) // 1000 + 1,
    }
    bid = parse_bid_line(json.dumps(raw), "r", MAINNET_GENESIS_UNIX_MS)
    assert bid.arrival_ms == 1000


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        json.dumps({"slot": 1}),
        json.dumps({"slot": 1, "builder_pubkey": "b", "block_hash": "0x12",
                    "value": "1", "timestamp_ms": 0}),
        json.dumps({"slot": 1, "builder_pubkey": "b", "block_hash": HASH,
                    "value": "abc", "timestamp_ms": 0}),
    ],
)
def test_parse_bid_line_rejects_malformed(line):
    with pytest.raises(IngestError):
        parse_bid_line(line, "r", 0)


def test_load_bids_skips_and_counts(tmp_path):
    good = {
        "slot": 2,
        "builder_pubkey": "b",
        "block_hash": HASH,
        "value": "5",
        "timestamp_ms": 2 * SLOT_MS + 40,
    }
    path = tmp_path / "bids.ndjson"
    path.write_text(json.dumps(good) + "\nnot json\n\n" + json.dumps(good) + "\n", encoding="utf-8")
    bids, skipped = load_bids(path, "r", 0)
    assert len(bids) == 2
    assert skipped == 1


@pytest.mark.parametrize(
    "block_hash",
    ["0x-" + "a" * 63, "0x  " + "a" * 62, "0x" + "a_" * 32, "0x" + "\u0663" * 64],
    ids=["sign", "spaces", "underscores", "arabic-indic-digits"],
)
def test_load_bids_counts_non_hex_hash_as_malformed(tmp_path, block_hash):
    record = {"slot": 2, "builder_pubkey": "b", "value": "5",
              "timestamp_ms": 2 * SLOT_MS + 40}
    path = tmp_path / "bids.ndjson"
    path.write_text(
        json.dumps({**record, "block_hash": HASH}) + "\n"
        + json.dumps({**record, "block_hash": block_hash}) + "\n",
        encoding="utf-8",
    )
    bids, skipped = load_bids(path, "r", 0)
    assert [b.block_hash for b in bids] == [HASH]
    assert skipped == 1


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    bids = dedup_across_relays(_random_bids(rng, 200))
    path = tmp_path / "bids.csv"
    write_bids_csv(bids, path)
    back = read_bids_csv(path)
    assert [(b.dedup_key, b.arrival_ms, b.relay_id) for b in back] == [
        (b.dedup_key, b.arrival_ms, b.relay_id) for b in bids
    ]


def test_read_bids_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,relay\n1,A\n", encoding="utf-8")
    with pytest.raises(IngestError):
        read_bids_csv(path)


def test_bid_record_validation():
    with pytest.raises(ValueError):
        make_bid(value=-1)
    with pytest.raises(ValueError):
        make_bid(slot=-1)


def test_dedup_key_fields():
    key = make_bid().dedup_key
    assert key == (100, "b1", "h", 10**16)


def test_dedup_key_hashes_like_dedup_key_tuple():
    bid = make_bid()
    key = (100, "b1", "h", 10**16)
    assert {bid.dedup_key: 1}[key] == 1
    assert bid.value_eth == pytest.approx(0.01)


def test_bid_record_bounds():
    with pytest.raises(ValueError):
        make_bid(num_tx=-1)
    with pytest.raises(ValueError):
        make_bid(value=2**256)
    assert make_bid(value=2**256 - 1).value_wei == 2**256 - 1


DROP = object()  # a key left out of the record


@pytest.mark.parametrize(
    "record",
    [
        {"value": "-5"},  # a negative value is malformed, not fatal
        {"value": str(2**256)},
        {"timestamp_ms": "soon"},
        {"timestamp_ms": float("inf")},
        {"num_tx": [1]},
        # A JSON float or bool where an integer belongs: int() would
        # truncate it, or round it above 2**53.
        {"value": 1.5},
        {"value": 1.2345678901234567e21},
        {"value": True},
        {"slot": 1.7},
        {"slot": 1.0},
        {"slot": True},
        {"num_tx": 2.9},
        {"num_tx": False},
        {"timestamp_ms": float(SLOT_MS + 5)},
        {"timestamp_ms": DROP, "timestamp": 12.5},
        {"timestamp_ms": DROP, "timestamp": True},
        {"builder_pubkey": None},
        {"builder_pubkey": 7},
        # str() would take null as parent "None", and a 64-digit integer
        # as a hex hash.
        {"parent_hash": None},
        {"block_hash": int("1" * 64)},
        # Strings that int() takes but that are not an optional "-" and
        # ASCII digits.
        {"value": "7_000_000"},
        {"num_tx": " 100 "},
        {"value": "+100"},
        {"slot": "+1"},
        {"timestamp_ms": "+" + str(SLOT_MS + 5)},
        {"num_tx": "\u0665"},  # ARABIC-INDIC DIGIT FIVE
        {"value": "\u0667000000"},  # ARABIC-INDIC DIGIT SEVEN, then six zeros
        {"slot": "\u0661"},  # each field: int() would read these as 1, 12005 and 12
        {"timestamp_ms": "\u0661" + str(SLOT_MS + 5)[1:]},
        {"timestamp_ms": DROP, "timestamp": "\u0661\u0662"},
        {"value": ""},
        {"value": "-"},
        {"slot": "--1"},
        {"value": "1" * 5000},  # more digits than int() converts
        {"slot": -1, "timestamp_ms": 5 - SLOT_MS},  # a negative slot, arrival 5 ms
    ],
)
def test_parse_bid_line_rejects_bad_values(record):
    raw = {"slot": 1, "builder_pubkey": "b", "block_hash": HASH, "value": "1",
           "timestamp_ms": SLOT_MS + 5, **record}
    raw = {key: value for key, value in raw.items() if value is not DROP}
    with pytest.raises(IngestError):
        parse_bid_line(json.dumps(raw), "r", 0)


def test_parse_bid_line_takes_integers_as_strings():
    raw = {"slot": "1", "builder_pubkey": "b", "block_hash": HASH, "value": "7",
           "num_tx": "3", "timestamp": str(SLOT_MS // 1000 + 1)}
    bid = parse_bid_line(json.dumps(raw), "r", 0)
    assert (bid.slot, bid.value_wei, bid.num_transactions, bid.arrival_ms) == (1, 7, 3, 1000)
    # An optional "-", and leading zeros.
    raw = {"slot": "-0", "builder_pubkey": "b", "block_hash": HASH, "value": "007",
           "timestamp_ms": "-5"}
    bid = parse_bid_line(json.dumps(raw), "r", -1005)
    assert (bid.slot, bid.value_wei, bid.arrival_ms) == (0, 7, 1000)
    raw.update(value="-0", num_tx="-00")
    bid = parse_bid_line(json.dumps(raw), "r", -1005)
    assert (bid.value_wei, bid.num_transactions) == (0, 0)


@pytest.mark.parametrize(
    "line",
    ["[1, 2]", "7", "null", '{"slot": 1} {}', "[" * 100_000, '{"slot": ' + "1" * 5000 + "}"],
    ids=["array", "number", "null", "extra-data", "deep", "huge-integer"],
)
def test_parse_bid_line_rejects_non_records(line):
    with pytest.raises(IngestError):
        parse_bid_line(line, "r", 0)


def test_load_bids_names_undecodable_line(tmp_path):
    path = tmp_path / "bids.ndjson"
    path.write_bytes(b'{"slot": 1}\n\n{"slot": "\xff"}\n')
    with pytest.raises(IngestError, match=r"bids\.ndjson, line 3: not valid UTF-8"):
        load_bids(path, "r", 0)


BOM = "\ufeff".encode("utf-8")  # the byte-order mark spreadsheet exports start with


def test_load_bids_drops_a_leading_byte_order_mark(tmp_path):
    raw = {"slot": 10, "builder_pubkey": "b", "block_hash": HASH, "value": "1",
           "timestamp_ms": MAINNET_GENESIS_UNIX_MS + 10 * SLOT_MS}
    path = tmp_path / "bids.ndjson"
    path.write_bytes(BOM + (json.dumps(raw) + "\n").encode("utf-8"))
    bids, skipped = load_bids(path, "r", MAINNET_GENESIS_UNIX_MS)
    assert (len(bids), skipped) == (1, 0)


@pytest.mark.parametrize("header", [b"slot,share", b'"slot",share'], ids=["plain", "quoted"])
def test_read_csv_rows_drops_a_leading_byte_order_mark(tmp_path, header):
    path = tmp_path / "rows.csv"
    path.write_bytes(BOM + header + b"\n7,0.5\n")
    assert list(read_csv_rows(path, ("slot", "share"))) == [(2, ("7", "0.5"))]


def _dictreader_bids(path):
    """The ``csv.DictReader`` reading that ``read_bids_csv`` replaced."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            BidRecord(
                slot=int(row["slot"]),
                relay_id=row["relay"],
                builder_id=row["builder"],
                block_hash=row["block_hash"],
                value_wei=int(row["value_wei"]),
                num_transactions=int(row["num_tx"]),
                arrival_ms=int(row["arrival_ms"]),
            )
            for row in csv.DictReader(fh)
        ]


def test_read_bids_csv_matches_dictreader(tmp_path):
    # Reordered and extra columns, a repeated column name (the last wins),
    # quoted fields, blank lines and long rows.
    path = tmp_path / "bids.csv"
    path.write_text(
        "extra,num_tx,arrival_ms,value_wei,block_hash,builder,relay,slot,relay\n"
        'x,3,-20,500,"h,1",b1,ignored,7,A\n'
        "\n"
        "y,0,15,9,h2,b2,ignored,8,B,surplus,fields\n"
        "\n",
        encoding="utf-8",
    )
    got = read_bids_csv(path)
    assert got == _dictreader_bids(path)
    assert [(b.relay_id, b.block_hash) for b in got] == [("A", "h,1"), ("B", "h2")]


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,A,b,h,5,0", "line 3: 6 fields"),
        ("1,A,b,h,lots,0,1", "line 3: invalid literal"),
        ("1,A,b,h,-5,0,1", "line 3: value_wei must lie"),
        ("1,A,b," + "h" * 200_000 + ",5,0,1", "line 3: field larger than field limit"),
    ],
    ids=["short", "not-integer", "negative", "huge-field"],
)
def test_read_bids_csv_names_bad_row(tmp_path, row, message):
    path = tmp_path / "bids.csv"
    path.write_text(CSV_HEADER_LINE + "2,A,b,h,5,0,1\n" + row + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=message) as info:
        read_bids_csv(path)
    assert str(path) in str(info.value)


def test_read_bids_csv_names_undecodable_line(tmp_path):
    path = tmp_path / "bids.csv"
    path.write_bytes(CSV_HEADER_LINE.encode() + b"2,A,b,h,5,0,1\n2,A,\xc3(,h,5,0,1\n")
    with pytest.raises(IngestError, match=r"line 3: not valid UTF-8"):
        read_bids_csv(path)


CSV_HEADER_LINE = "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx\n"


def test_write_csv_cells_read_back(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, "a,b,c", [(None, True, 'x,"y"'), (0.1, float("nan"), 7), (False, "", -0.0)])
    assert path.read_text(encoding="utf-8") == 'a,b,c\n,true,"x,""y"""\n0.1,nan,7\nfalse,,-0.0\n'
    assert list(read_csv_rows(path, ("c", "a"))) == [
        (2, ('x,"y"', "")), (3, ("7", "0.1")), (4, ("-0.0", "false"))
    ]
    assert list(read_csv_rows(path, ("b",))) == [(2, ("true",)), (3, ("nan",)), (4, ("",))]


def _naive_duplicate_stats(bids):
    """Raw records minus distinct keys per (relay, slot), averaged into each
    relay's (slots, average), by brute force."""
    cells = {}
    for b in bids:
        cells.setdefault((b.relay_id, b.slot), []).append(b.dedup_key)
    per_cell = {cell: len(keys) - len(set(keys)) for cell, keys in cells.items()}
    per_relay = {}
    for (relay, _), count in per_cell.items():
        per_relay.setdefault(relay, []).append(count)
    return {r: (len(c), sum(c) / len(c)) for r, c in per_relay.items()}


def test_duplicate_stats_matches_naive_randomized():
    rng = np.random.default_rng(13)
    bids = _random_bids(rng, 3000)
    assert duplicate_stats(bids) == _naive_duplicate_stats(bids)


def _csv_reader_rows(path, columns):
    """``read_csv_rows`` with ``csv.reader`` over the whole file, as it was
    before the comma-split path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            index = {name: i for i, name in enumerate(next(reader, []))}
            missing = set(columns) - index.keys()
            if missing:
                raise IngestError(f"{path}: missing columns: {sorted(missing)}")
            at = [index[name] for name in columns]
            for row in reader:
                if row:
                    if len(row) <= max(at):
                        raise IngestError(f"{path}, line {reader.line_num}: {len(row)} fields, "
                                          f"too few for the header")
                    yield reader.line_num, tuple(row[i] for i in at)
        except csv.Error as exc:
            raise IngestError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise IngestError(f"{path}, line {undecodable_line(path)}: not valid UTF-8") from None


def _rows_or_error(read, path, columns):
    """The rows ``read`` yields, then its ``IngestError`` message if any."""
    out = []
    try:
        for item in read(path, columns):
            out.append(item)
    except IngestError as exc:
        out.append(str(exc))
    return out


CSV_FIELDS = st.sampled_from([
    "", "a", "b", "c", "7", " ", "x y",
    '"q"', '"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\rin"', '"crlf\r\nin"', 'mid"quote',
    "nul\0", "z" * 30,
])
CSV_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """A header of names from a, b, c (repeated or missing), rows of
    generated fields, blank and whitespace-only lines, mixed line endings,
    no ending after the last line, and perhaps a byte that is not UTF-8."""
    header = draw(st.lists(st.sampled_from(["a", "b", "c", '"b"']), min_size=0, max_size=4))
    lines = [",".join(header)]
    lines += draw(st.lists(
        st.one_of(st.lists(CSV_FIELDS, min_size=1, max_size=4).map(",".join),
                  st.sampled_from(["", " ", "\t"])),
        max_size=8,
    ))
    text = "".join(line + draw(CSV_ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.sampled_from([("a",), ("a", "c"), ("c", "b", "a")]),
       st.sampled_from([24, 64, 131072]))
@example(b'a,b\n1,2\n"3\n4",5\r\n6,7', ("a", "b"), 131072)  # a quote mid-file
@example(b"a,b\n1,2\n" + b"z" * 30 + b",1\n", ("b",), 24)  # a field over the limit
def test_read_csv_rows_matches_csv_reader(data, columns, limit):
    old = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_bytes(data)
            want = _rows_or_error(_csv_reader_rows, path, columns)
            assert _rows_or_error(read_csv_rows, path, columns) == want
    finally:
        csv.field_size_limit(old)
