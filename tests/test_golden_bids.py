"""Golden outputs of every command.

A small generated set of relay dumps goes through ``timinggames ingest``,
``analyze winners``, ``orphans`` and ``regress``.  The dumps hold malformed
lines of each kind ``load_bids`` skips, resubmissions, exact ties inside one
relay (same key, same arrival, different ``num_tx``, so the survivor shows)
and exact ties across relays (the relay of the survivor shows).  Generated
attestation and reward CSVs go through ``analyze shares`` and ``rewards``,
and a small config through ``sim run`` and ``sim sweep``.  The fixtures
under ``tests/golden/bids/`` and ``tests/golden/sim/`` pin every output CSV
byte for byte.

Regenerate (only when an output change is intended and documented)::

    PYTHONPATH=src python tests/test_golden_bids.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from timinggames.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "bids"
OUTPUTS = (
    "bids.csv", "dupstats.csv", "winners.csv", "winners.csv.summary.csv", "orphans.csv",
    "regress.csv", "shares.csv", "rewards.csv", "rewards.csv.summary.csv",
)
GOLDEN_SIM = GOLDEN.parent / "sim"
SIM_OUTPUTS = ("run.csv", "sweep.csv")
SIM_CONFIG = "n: 16\nmean_degree: 4.0\nduration: 120\nx_d: 0.5\nt_d: 11.0\n"
SWEEP_KEYS = "x_values: [0.0, 1.0]\nt_values: [0.0, 11.0]\nseeds: 2\n"

SEED = 5
RELAYS = ("agnostic", "flashbots", "ultrasound")
GENESIS_MS = 1_000_000
SLOT_MS = 12_000
FIRST_SLOT = 500
N_SLOTS = 24
N_BUILDERS = 5


def _line(slot, builder, block_hash, value_wei, unix_ms, num_tx, /, **override):
    record = {
        "slot": slot,
        "builder_pubkey": builder,
        "block_hash": block_hash,
        "parent_hash": "0x" + "00" * 32,
        "value": str(value_wei),
        "num_tx": num_tx,
        "timestamp_ms": unix_ms,
    }
    record.update(override)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def write_inputs(workdir: Path) -> dict:
    """Write the relay dumps and the delivered/status CSVs; returns the paths."""
    rng = np.random.default_rng(SEED)
    builders = [f"0x{b:02x}" + "be" * 47 for b in range(N_BUILDERS)]
    dumps = {relay: [] for relay in RELAYS}
    delivered = ["slot,relay,builder,block_hash,value_wei,proposer"]
    status = ["slot,block_hash,status"]
    for i in range(N_SLOTS):
        slot = FIRST_SLOT + i
        start = GENESIS_MS + slot * SLOT_MS
        bids = []
        for b in rng.choice(N_BUILDERS, size=int(rng.integers(1, 4)), replace=False):
            block_hash = "0x" + rng.bytes(32).hex()
            for _ in range(int(rng.integers(1, 3))):
                # Bids may differ only in value under one block hash.
                value = int(rng.integers(1, 40)) * 10**15
                arrival = int(rng.integers(-2000, 4000))
                bids.append((builders[b], block_hash, value, arrival))
        for builder, block_hash, value, arrival in bids:
            first = RELAYS[int(rng.integers(len(RELAYS)))]
            num_tx = int(rng.integers(1, 300))

            def send(relay, unix_ms, n_tx):
                line = _line(slot, builder, block_hash, value, unix_ms, n_tx)
                dumps[relay].append((unix_ms, line))

            send(first, start + arrival, num_tx)
            kind = int(rng.integers(4))
            if kind == 1:  # resubmission, later
                send(first, start + arrival + int(rng.integers(1, 500)), num_tx)
            elif kind == 2:  # tie inside the relay
                send(first, start + arrival, num_tx + 1)
            elif kind == 3:  # tie on another relay, and a later mirror
                other = RELAYS[(RELAYS.index(first) + 1) % len(RELAYS)]
                send(other, start + arrival, num_tx + 2)
                send(other, start + arrival + 7, num_tx)
        if i % 7 == 3:
            continue  # a slot with bids and no delivered payload or status row
        builder, block_hash, value, _ = bids[int(rng.integers(len(bids)))]
        delivered.append(f"{slot},agnostic,{builder},{block_hash},{value},0xp{i}")
        u = rng.random()
        if u < 0.15:
            status.append(f"{slot},,missed")
        elif u < 0.4:
            status.append(f"{slot},{block_hash},orphaned")
        else:
            status.append(f"{slot},{block_hash},canonical")
    # A delivered payload with no matching bid, and one for a slot without bids.
    delivered.append(f"{FIRST_SLOT},agnostic,{builders[0]},0x{'ee' * 32},1,0xq")
    delivered.append(
        f"{FIRST_SLOT + N_SLOTS + 5},agnostic,{builders[0]},0x{'ee' * 32},1,0xq"
    )

    start = GENESIS_MS + FIRST_SLOT * SLOT_MS
    fresh = "0x" + "cd" * 32
    malformed = [
        '{"slot": 501, "builder_pubkey": "0xab',  # cut-off JSON
        _line(FIRST_SLOT, "0xbad", "0x1234", 10**17, start, 1),  # short hash
        _line(FIRST_SLOT, "0xbad", fresh, 10**17, start, 1, timestamp_ms=None),
        _line(FIRST_SLOT, "0xbad", fresh, 10**17, start + 40_000, 1),  # outside window
        _line(FIRST_SLOT, "0xbad", fresh, 10**17, start, 1, value="lots"),
        _line(FIRST_SLOT, "0xbad", fresh, 10**17, start, 1, slot=None),
        "",
    ]
    paths = {}
    for r, relay in enumerate(RELAYS):
        lines = [line for _, line in sorted(dumps[relay], key=lambda x: x[0])]
        for k, bad in enumerate(malformed):
            lines.insert((7 * k + 3 * r) % (len(lines) + 1), bad)
        path = workdir / f"{relay}.ndjson"
        path.write_text("\n".join(lines) + "\n")
        paths[relay] = path
    for name, rows in (("delivered", delivered), ("status", status), *_share_reward_rows()):
        paths[name] = workdir / f"{name}.csv"
        paths[name].write_text("\n".join(rows) + "\n")
    return paths


def _share_reward_rows() -> tuple:
    """Attestation and per-block reward CSVs for the slots of the dumps, from
    their own stream so the relay dumps stay as they were."""
    rng = np.random.default_rng(SEED + 1)
    attestations = ["slot,block_root,attestor_count,committee_size"]
    blocks = ["epoch,slot,mev_wei,proposal_gwei"]
    for i in range(N_SLOTS):
        slot = FIRST_SLOT + i
        committee = int(rng.integers(50, 200))
        # The 40% boundary, a count above the committee, and random counts.
        count = (2 * committee // 5 if i % 5 == 0 else committee + 3 if i % 5 == 1
                 else int(rng.integers(0, committee + 1)))
        attestations.append(f"{slot},0x{rng.bytes(32).hex()},{count},{committee}")
        mev = int(rng.integers(0, 10**17)) if i % 4 else 0
        # Epochs of 8 slots, so that the 24 slots span four epochs.
        blocks.append(f"{slot // 8},{slot},{mev},{int(rng.integers(10**7, 6 * 10**7))}")
    return ("attestations", attestations), ("blocks", blocks)


def run_pipeline(workdir: Path) -> dict:
    """Run ingest and the analyses on fresh inputs; returns output bytes."""
    paths = write_inputs(workdir)
    out = {name: workdir / name for name in OUTPUTS}
    dumps = [arg for relay in RELAYS for arg in ("--bids", f"{relay}={paths[relay]}")]
    commands = (
        ["ingest", *dumps, "--genesis-ms", str(GENESIS_MS),
         "--out", out["bids.csv"], "--stats-out", out["dupstats.csv"]],
        ["analyze", "winners", "--bids", out["bids.csv"],
         "--delivered", paths["delivered"], "--out", out["winners.csv"]],
        ["analyze", "orphans", "--status", paths["status"],
         "--bids", out["bids.csv"], "--out", out["orphans.csv"]],
        ["analyze", "regress", "--bids", out["bids.csv"], "--out", out["regress.csv"]],
        ["analyze", "shares", "--attestations", paths["attestations"],
         "--out", out["shares.csv"]],
        ["analyze", "rewards", "--blocks", paths["blocks"], "--out", out["rewards.csv"]],
    )
    _run_all(commands)
    return {name: out[name].read_bytes() for name in OUTPUTS}


def run_sims(workdir: Path) -> dict:
    """Run ``sim run`` and ``sim sweep`` on a small config; returns output bytes."""
    run_config, sweep_config = workdir / "run.yaml", workdir / "sweep.yaml"
    run_config.write_text(SIM_CONFIG)
    sweep_config.write_text(SIM_CONFIG + SWEEP_KEYS)
    out = {name: workdir / name for name in SIM_OUTPUTS}
    _run_all((
        ["sim", "run", "--config", run_config, "--out", out["run.csv"]],
        ["sim", "sweep", "--config", sweep_config, "--out", out["sweep.csv"]],
    ))
    return {name: out[name].read_bytes() for name in SIM_OUTPUTS}


def _run_all(commands) -> None:
    for argv in commands:
        code = main([str(a) for a in argv])
        if code != EXIT_OK:
            raise RuntimeError(f"{argv[:2]} exited {code}")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden_bids"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_bid_outputs_match_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def sim_outputs(tmp_path_factory):
    return run_sims(tmp_path_factory.mktemp("golden_sim"))


@pytest.mark.parametrize("name", SIM_OUTPUTS)
def test_sim_outputs_match_golden(sim_outputs, name):
    assert sim_outputs[name] == (GOLDEN_SIM / name).read_bytes()


def test_golden_inputs_hold_ties_and_malformed_lines(outputs):
    """The fixture exercises what it is meant to pin."""
    rows = [line.split(",") for line in outputs["bids.csv"].decode().splitlines()[1:]]
    assert {row[1] for row in rows} == set(RELAYS)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        raw = [line for relay in RELAYS for line in paths[relay].read_text().splitlines()]
    records = []
    for line in raw:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    assert len(raw) - len(records) >= 2 * len(RELAYS)  # cut-off JSON and blank lines
    copies = {}
    for rec in records:
        if rec.get("slot") is None or "timestamp_ms" not in rec:
            continue
        fields = ("slot", "builder_pubkey", "block_hash", "value", "timestamp_ms")
        key = tuple(rec[k] for k in fields)
        copies[key] = copies.get(key, 0) + 1
    assert sum(1 for c in copies.values() if c > 1) >= 4  # exact ties


def _regenerate() -> None:
    for directory, run in ((GOLDEN, run_pipeline), (GOLDEN_SIM, run_sims)):
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run(Path(tmp)).items():
                (directory / name).write_bytes(data)
                print(f"wrote {directory / name} ({len(data)} bytes)")


if __name__ == "__main__":
    sys.exit(_regenerate())
