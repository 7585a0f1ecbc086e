"""``timinggames ingest``'s one pass against the list pipeline it replaced.

``list_pipeline`` is ingest as it was before ``relaydata.BidFold``: every
dump read into a list, deduplicated within its relay, all survivors
deduplicated across relays and sorted, and the duplicate stats taken over
every raw record at once.  It lives here as the oracle, on its own copy of
the earliest-per-key rule; only ``parse_bid_line`` and the CSV writers are
shared.  The command must write the same bytes and the same ``--verbose``
lines.

The memory test pins what the one pass is for: ingest's peak allocation
does not grow with duplicated records.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import tracemalloc
from collections import Counter
from operator import attrgetter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from timinggames import relaydata
from timinggames.cli import EXIT_OK, main
from timinggames.relaydata import IngestError, parse_bid_line

GENESIS_MS = 1_000_000
SLOT_MS = 12_000
WINDOW = (-2_000, 2_000)


def _earliest_per_key(bids):
    best = {}
    for bid in bids:
        held = best.get(bid.dedup_key)
        if held is None or bid.arrival_ms < held.arrival_ms:
            best[bid.dedup_key] = bid
    return sorted(best.values(), key=attrgetter("arrival_ms"))


def _duplicate_stats(bids):
    raw = Counter((b.relay_id, b.slot) for b in bids)
    unique = Counter((relay, slot) for relay, slot, *_ in
                     {(b.relay_id, *b.dedup_key) for b in bids})
    per_cell = {cell: count - unique[cell] for cell, count in raw.items()}
    per_relay = {}
    for (relay, _), count in per_cell.items():
        per_relay.setdefault(relay, []).append(count)
    return {r: (len(c), sum(c) / len(c)) for r, c in per_relay.items()}


def list_pipeline(dumps, out: Path):
    """The oracle: writes ``out`` and its dupstats CSV, returns the verbose lines."""
    all_raw, clean, verbose = [], [], []
    for relay, path in dumps:
        bids, skipped = [], 0
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                bids.append(parse_bid_line(line, relay, GENESIS_MS, WINDOW))
            except IngestError:
                skipped += 1
        verbose.append(f"{relay}: {len(bids)} records, {skipped} skipped")
        all_raw += bids
        clean += _earliest_per_key(bids)
    merged = _earliest_per_key(clean)
    merged.sort(key=attrgetter("slot", "arrival_ms", "relay_id", "block_hash"))
    relaydata.write_bids_csv(merged, out)
    per_relay = _duplicate_stats(all_raw)
    relaydata.write_csv(
        str(out) + ".dupstats.csv",
        "relay,slots,avg_duplicates_per_slot",
        [(relay, *per_relay[relay]) for relay in sorted(per_relay)],
    )
    return verbose


def run_ingest(dumps, out: Path):
    """``timinggames ingest --verbose``: (exit code, its stderr lines)."""
    argv = ["ingest", "--genesis-ms", str(GENESIS_MS), "--window", *map(str, WINDOW),
            "--out", str(out), "--verbose"]
    for relay, path in dumps:
        argv += ["--bids", f"{relay}={path}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def bid_line(slot, builder, block_hash, value, arrival_ms, num_tx):
    return json.dumps({
        "slot": slot, "builder_pubkey": builder, "block_hash": block_hash,
        "value": str(value), "num_tx": num_tx,
        "timestamp_ms": GENESIS_MS + slot * SLOT_MS + arrival_ms,
    })


HASHES = ("0x" + "aa" * 32, "0x" + "bb" * 32)
GOOD = dict(slot=7, builder="b1", block_hash=HASHES[0], value=1, arrival_ms=0, num_tx=0)


def record(**changes):
    """A good record's JSON object with ``changes``; a change to ``DROP``
    leaves the key out."""
    raw = json.loads(bid_line(**GOOD))
    raw.update(changes)
    return {key: value for key, value in raw.items() if value is not DROP}


DROP = object()
UNIX_MS = GENESIS_MS + 7 * SLOT_MS
# Lines that ``parse_bid_line`` must accept: other spellings of the same
# bids, with timestamps in seconds, numbers as strings, no ``num_tx``.
good_variants = st.sampled_from((
    json.dumps(record(timestamp_ms=DROP, timestamp=UNIX_MS // 1000)),
    json.dumps(record(timestamp_ms=DROP, timestamp=str(UNIX_MS // 1000 + 1))),
    json.dumps(record(slot="7", num_tx="2", timestamp_ms=str(UNIX_MS - 10))),
    json.dumps(record(num_tx=DROP, value="2", block_hash=HASHES[1][2:])),
    json.dumps(record(parent_hash=HASHES[1], builder_pubkey="b,2")),
))
# Every kind of line it must reject.
bad_lines = st.sampled_from((
    "not json",
    '{"slot": 7, "builder_pubkey": "b1"',
    "[1, 2]", "7", "null", '"text"',  # not an object
    bid_line(**GOOD) + " {}",  # trailing data
    bid_line(**GOOD) + " x",
    "[" * 100_000,  # deep nesting
    '{"a": ' * 100_000,
    '{"slot": ' + "1" * 5000 + "}",  # more digits than int() converts
    json.dumps(record(value=True)),
    json.dumps(record(slot=7.0)),
    json.dumps(record(num_tx=None)),
    json.dumps(record(timestamp_ms=float(UNIX_MS))),
    json.dumps(record(timestamp_ms=DROP, timestamp=UNIX_MS / 1000 + 0.5)),
    json.dumps(record(timestamp_ms=DROP)),  # no timestamp at all
    json.dumps(record(timestamp_ms=DROP, timestamp=UNIX_MS // 1000 + 5)),  # outside the window
    json.dumps(record(timestamp_ms=UNIX_MS + 5_000)),
    json.dumps(record(timestamp_ms=UNIX_MS - 2_001)),
    json.dumps(record(slot=DROP)),
    json.dumps(record(value=DROP)),
    json.dumps(record(builder_pubkey=5)),
    json.dumps(record(block_hash=int("1" * 64))),
    json.dumps(record(parent_hash=None)),
    json.dumps(record(block_hash="0x1234")),  # short
    json.dumps(record(block_hash="0x" + "g" * 64)),  # not hex
    json.dumps(record(block_hash="0X" + "a" * 64)),
    json.dumps(record(block_hash="0x" + "a " * 32)),
    json.dumps(record(block_hash="0x" + "aa" * 32 + "a")),
    json.dumps(record(value="-1")),
    json.dumps(record(value=str(2**256))),
    json.dumps(record(slot="-7")),
    json.dumps(record(slot=-1, timestamp_ms=GENESIS_MS - SLOT_MS)),  # in the window
    json.dumps(record(num_tx=-1)),
    json.dumps(record(value="+1")),
    json.dumps(record(value="1_0")),
    json.dumps(record(num_tx=" 3")),
    json.dumps(record(num_tx="\u0663")),
))
# A small universe, so that keys repeat and arrivals tie inside and across
# relays; num_tx tells tied records apart in the CSV.
good_lines = st.builds(
    bid_line,
    slot=st.sampled_from((7, 8)),
    builder=st.sampled_from(("b1", "b,2")),
    block_hash=st.sampled_from(HASHES),
    value=st.sampled_from((1, 2)),
    arrival_ms=st.sampled_from((-10, 0, 10)),
    num_tx=st.integers(0, 3),
)
# (line, 1 if parse_bid_line rejects it, else 0); blank lines are not counted.
labelled_lines = st.one_of(
    good_lines.map(lambda line: (line, 0)),
    good_lines.map(lambda line: (line, 0)),
    good_variants.map(lambda line: (line, 0)),
    bad_lines.map(lambda line: (line, 1)),
    st.sampled_from(("", "  ")).map(lambda line: (line, 0)),
)


@st.composite
def relay_dumps(draw):
    """Dumps of relays A, B and C (one relay may be named twice), and
    perhaps a mirror: a dump's lines, shuffled, again under another relay."""
    dumps = draw(st.lists(
        st.tuples(st.sampled_from(("A", "B", "C")), st.lists(labelled_lines, max_size=12)),
        min_size=1, max_size=4,
    ))
    if draw(st.booleans()):
        relay, lines = draw(st.sampled_from(dumps))
        mirror = draw(st.sampled_from(sorted({"A", "B", "C"} - {relay})))
        dumps.append((mirror, draw(st.permutations(lines))))
    return dumps


def tied(lines):
    return [(line, 0) for line in lines]


TIED_INSIDE = tied([bid_line(7, "b1", HASHES[0], 1, 0, 1), bid_line(7, "b1", HASHES[0], 1, 0, 2)])


@settings(max_examples=150, deadline=None)
@given(relay_dumps())
@example([("A", TIED_INSIDE), ("B", TIED_INSIDE[::-1]), ("A", TIED_INSIDE[::-1])])
@example([  # keys tied on the CSV's sort key, first seen in another dump
    ("B", tied([bid_line(7, "b1", HASHES[0], 1, 10, 0), bid_line(7, "b1", HASHES[0], 2, 0, 0)])),
    ("A", tied([bid_line(7, "b1", HASHES[0], 2, -10, 0),
                bid_line(7, "b1", HASHES[0], 1, -10, 0)])),
])
def test_ingest_matches_list_pipeline(dumps):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, (relay, lines) in enumerate(dumps):
            path = tmp / f"dump{i}.ndjson"
            path.write_text("".join(line + "\n" for line, _ in lines), encoding="utf-8")
            paths.append((relay, path))
        want_verbose = list_pipeline(paths, tmp / "want.csv")
        # The oracle shares parse_bid_line: each dump's skipped count is
        # checked against the lines made to be rejected.
        for (relay, lines), verbose in zip(dumps, want_verbose):
            assert verbose.endswith(f" {sum(bad for _, bad in lines)} skipped"), (lines, verbose)
        code, verbose = run_ingest(paths, tmp / "got.csv")
        assert code == EXIT_OK
        assert verbose == want_verbose
        for suffix in ("", ".dupstats.csv"):
            got = (tmp / f"got.csv{suffix}").read_bytes()
            assert got == (tmp / f"want.csv{suffix}").read_bytes()


def test_duplicate_stats_keeps_first_seen_cells_across_relay_runs():
    records = [parse_bid_line(bid_line(slot, "b1", HASHES[0], 1, 0, 0), relay, GENESIS_MS)
               for relay, slot in (("A", 7), ("B", 8), ("A", 8), ("A", 7), ("B", 8))]
    stats = relaydata.duplicate_stats(records)
    assert list(stats["per_relay_slot"].items()) == [(("A", 7), 1), (("B", 8), 1), (("A", 8), 0)]
    assert stats["per_relay"] == {"A": (2, 0.5), "B": (1, 1.0)}


def test_bid_fold_takes_one_pass_iterators():
    def once(relay, lines):
        return (parse_bid_line(line, relay, GENESIS_MS) for line in lines)

    fold = relaydata.BidFold()
    tied = [bid_line(7, "b1", HASHES[0], 1, 0, n) for n in (1, 2)]
    assert fold.add(once("A", tied), "A") == 2
    assert fold.add(once("B", tied[::-1]), "B") == 2
    # Equal arrivals: the first dump's first line.
    (survivor,) = fold.merged()
    assert (survivor.relay_id, survivor.num_transactions) == ("A", 1)
    assert fold.stats()["per_relay"] == {"A": (1, 1.0), "B": (1, 1.0)}


UNIQUE_PER_DUMP = 20_000
REPEATS = 10


def _ingest_peak(workdir: Path, repeat: int) -> tuple:
    """Peak traced allocation of ``ingest`` over three relays' dumps of the
    same ``UNIQUE_PER_DUMP`` bids, each line written ``repeat`` times in a
    row; and the dedup CSV's bytes."""
    argv = ["ingest", "--genesis-ms", str(GENESIS_MS)]
    for r, relay in enumerate(("A", "B", "C")):
        path = workdir / f"{relay}x{repeat}.ndjson"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(UNIQUE_PER_DUMP):
                slot = 100 + i // 50
                line = bid_line(slot, f"0xb{i % 40:02d}", f"0x{i:064x}", 10**16 + i,
                                (i * 37 + r) % 1500, i % 300)
                fh.write((line + "\n") * repeat)
        argv += ["--bids", f"{relay}={path}"]
    out = workdir / f"x{repeat}.csv"
    argv += ["--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.read_bytes()


def test_ingest_memory_does_not_grow_with_duplicates(tmp_path):
    """The slowest test of the suite, about 46 s alone, almost all of it
    ``tracemalloc`` tracing 660,000 parsed lines.

    Under ``tracemalloc`` (CPython 3.11) an allocation costs more the
    further into the running function it happens: each one looks up its
    line number by scanning the code object's line table from the start.
    In a probe, a list allocated after one skipped block of 800 statements
    cost 14-16 us a call traced, against 0.9-1.0 us with no block in front,
    and 0.1 us untraced either way.  ``parse_bid_line`` is one flat body
    whose arrival arithmetic and record are allocated at its end: traced, a
    line costs about 60 us, against 12 us for the C ``scan_once`` alone and
    5 us untraced, which is why this test doubled when the parse was
    inlined.  A loop over the four integer fields would cost 0.35 us a line
    untraced and save only about 12% traced, so the parse stays flat."""
    once, csv_once = _ingest_peak(tmp_path, 1)
    repeated, csv_repeated = _ingest_peak(tmp_path, REPEATS)
    assert csv_repeated == csv_once
    assert csv_once.count(b"\n") == UNIQUE_PER_DUMP + 1
    assert repeated <= 1.2 * once, (once / 2**20, repeated / 2**20)
