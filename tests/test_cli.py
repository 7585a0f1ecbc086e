"""Command-line behavior: exit codes, determinism, report schemas."""

import json

import pytest

from timinggames.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

HASH_A = "0x" + "aa" * 32
HASH_B = "0x" + "bb" * 32
HASH_C = "0x" + "cc" * 32


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def bid_csv(tmp_path):
    path = tmp_path / "bids.csv"
    rows = [
        # slot 100: winner HASH_A (early), higher bid HASH_B arrives later
        (100, "r1", "b1", HASH_A, 46 * 10**15, 299, 10),
        (100, "r1", "b2", HASH_B, 50 * 10**15, 800, 11),
        (100, "r2", "b1", HASH_C, 20 * 10**15, 100, 9),
        # slot 101: winner is the unique highest
        (101, "r1", "b1", HASH_A, 30 * 10**15, 150, 5),
        (101, "r2", "b2", HASH_B, 10 * 10**15, 50, 4),
    ]
    lines = ["slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_missing_subcommand_is_usage_error():
    assert run(["analyze"]) in (EXIT_OK, EXIT_USAGE)  # group help
    assert run(["nonsense"]) == EXIT_USAGE


def test_sim_run_default_config(tmp_path):
    out = tmp_path / "run.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("n: 24\nmean_degree: 5.0\nduration: 120\n")
    assert run(["sim", "run", "--config", cfg, "--out", out, "--seed", 3]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("b_count,m_count,mu,")
    assert lines[1].split(",")[0] == "10"
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["command"] == "sim run"
    assert manifest["config_digest"]


def test_sim_run_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("bogus: 1\n")
    assert run(["sim", "run", "--config", cfg, "--out", tmp_path / "x.csv"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command, line",
    [
        ("run", "duration: -5"),
        ("run", "n: 1"),
        ("run", "mean_degree: 0"),
        ("run", "x_d: 2"),
        ("run", "t_d: 13"),
        ("run", "tau_block: 0"),
        ("sweep", "x_values: 0.5"),
        ("sweep", "t_values: [a]"),
        ("sweep", "duration: -5"),
        ("sweep", "seeds: a"),
        ("sweep", "jobs: [1]"),
        ("run", "base_value_eth: a"),
    ],
)
def test_sim_rejects_bad_config(tmp_path, capsys, command, line):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    assert run(["sim", command, "--config", cfg, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_sim_sweep_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n: 24\nmean_degree: 5.0\nduration: 120\n"
        "x_values: [0.0, 1.0]\nt_values: [0.0, 6.0]\nseeds: 2\nseed: 9\n"
    )
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(["sim", "sweep", "--config", cfg, "--out", out1]) == EXIT_OK
    assert run(["sim", "sweep", "--config", cfg, "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 5  # header + 4 cells


def test_ingest_and_dedup(tmp_path):
    genesis = 0
    dump = tmp_path / "relayA.ndjson"
    rec = {
        "slot": 1,
        "builder_pubkey": "b1",
        "block_hash": HASH_A,
        "value": "1000",
        "timestamp_ms": 12000 + 500,
    }
    dup = dict(rec, timestamp_ms=12000 + 900)
    other = dict(rec, block_hash=HASH_B, timestamp_ms=12000 + 100)
    dump.write_text("\n".join(json.dumps(r) for r in (rec, dup, other)) + "\n")
    out = tmp_path / "dedup.csv"
    code = run(
        ["ingest", "--bids", f"A={dump}", "--genesis-ms", genesis, "--out", out]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
    assert len(lines) == 3  # two unique bids survive
    stats = (tmp_path / "dedup.csv.dupstats.csv").read_text().splitlines()
    assert stats[1].startswith("A,1,1.0")


def test_ingest_empty_input(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    out = tmp_path / "out.csv"
    assert run(["ingest", "--bids", f"A={empty}", "--out", out]) == EXIT_OK
    assert out.read_text().splitlines() == [
        "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
    ]


def test_ingest_missing_file(tmp_path):
    assert (
        run(["ingest", "--bids", "A=/nonexistent.ndjson", "--out", tmp_path / "o.csv"])
        == EXIT_DATA
    )


def test_analyze_regress_noiseless(tmp_path):
    # value = 5.71e-6 ETH/ms * arrival, one slot, one builder.
    path = tmp_path / "bids.csv"
    lines = ["slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"]
    for i, t in enumerate(range(0, 2000, 20)):
        wei = int(5.71e-6 * t * 1e18)
        lines.append(f"5,r,b,h{i},{wei},{t},0")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "regress.csv"
    assert run(["analyze", "regress", "--bids", path, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    assert header == "n,slope_eth_per_ms,intercept_eth,r_squared"
    slope = float(row.split(",")[1])
    assert slope == pytest.approx(5.71e-6, rel=1e-6)


def test_analyze_winners(tmp_path, bid_csv):
    delivered = tmp_path / "delivered.csv"
    delivered.write_text(
        "slot,relay,builder,block_hash,value_wei,proposer\n"
        f"100,r1,b1,{HASH_A},{46 * 10**15},p1\n"
        f"101,r1,b1,{HASH_A},{30 * 10**15},p2\n"
    )
    out = tmp_path / "winners.csv"
    code = run(
        ["analyze", "winners", "--bids", bid_csv, "--delivered", delivered, "--out", out]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "slot,winner_arrival_ms,highest_arrival_ms,delta_t_ms,delta_v_eth,class"
    )
    row100 = lines[1].split(",")
    assert row100[0] == "100" and row100[5] == "EARLY" and row100[3] == "501"
    row101 = lines[2].split(",")
    assert row101[5] == "HIGHEST"
    summary = (tmp_path / "winners.csv.summary.csv").read_text().splitlines()
    assert summary[1].split(",")[0] == "1"  # one early winner


def test_analyze_shares_boundary(tmp_path):
    att = tmp_path / "att.csv"
    att.write_text(
        "slot,block_root,attestor_count,committee_size\n"
        "1,r,399,1000\n"
        "2,r,400,1000\n"
        "3,r,980,1000\n"
    )
    out = tmp_path / "shares.csv"
    assert run(["analyze", "shares", "--attestations", att, "--out", out]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,share,vulnerable"
    assert lines[1] == "1,0.399,true"
    assert lines[2] == "2,0.4,false"
    assert lines[3].endswith("false")


def test_analyze_shares_missing_column(tmp_path):
    att = tmp_path / "att.csv"
    att.write_text("slot,attestor_count\n1,5\n")
    out = tmp_path / "shares.csv"
    assert run(["analyze", "shares", "--attestations", att, "--out", out]) == EXIT_DATA


def test_analyze_orphans(tmp_path, bid_csv):
    status = tmp_path / "status.csv"
    status.write_text(
        "slot,block_hash,status\n"
        f"100,{HASH_A},orphaned\n"
        f"101,{HASH_A},canonical\n"
        "102,,missed\n"
    )
    out = tmp_path / "orphans.csv"
    code = run(["analyze", "orphans", "--status", status, "--bids", bid_csv, "--out", out])
    assert code == EXIT_OK
    header, row = out.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["orphaned_count"] == "1"
    assert fields["missed_count"] == "1"
    assert fields["median_orphaned_arrival_ms"] == "299"


def test_analyze_rewards(tmp_path):
    blocks = tmp_path / "blocks.csv"
    blocks.write_text(
        "epoch,slot,mev_wei,proposal_gwei\n"
        f"0,1,{48 * 10**15},{34 * 10**6}\n"
        f"0,2,{48 * 10**15},{34 * 10**6}\n"
        f"1,33,{10 * 10**15},{34 * 10**6}\n"
    )
    out = tmp_path / "rewards.csv"
    assert run(["analyze", "rewards", "--blocks", blocks, "--out", out]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,median_mev_eth,median_proposal_eth"
    assert lines[1].startswith("0,0.048,")
    summary = (tmp_path / "rewards.csv.summary.csv").read_text().splitlines()
    assert summary[0] == "median_mev_eth,median_proposal_eth,mev_share_of_total"


def test_analyze_rewards_permutation_stable(tmp_path):
    header = "epoch,slot,mev_wei,proposal_gwei"
    rows = [f"{e},{s},{(s + 1) * 10**15},{(s + 2) * 10**6}"
            for e in range(3) for s in range(6)]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f1.write_text(header + "\n" + "\n".join(rows) + "\n")
    f2.write_text(header + "\n" + "\n".join(reversed(rows)) + "\n")
    o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run(["analyze", "rewards", "--blocks", f1, "--out", o1]) == EXIT_OK
    assert run(["analyze", "rewards", "--blocks", f2, "--out", o2]) == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()
    assert (tmp_path / "o1.csv.summary.csv").read_bytes() == (
        tmp_path / "o2.csv.summary.csv"
    ).read_bytes()
