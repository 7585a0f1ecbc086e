"""Command-line behavior: exit codes, determinism, report schemas."""

import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from timinggames import analytics, cli, relaydata, waitinggame
from timinggames.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from timinggames.waitinggame import PayoffModel, SimConfig, SweepConfig

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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_missing_subcommand_is_usage_error():
    assert run(["analyze"]) in (EXIT_OK, EXIT_USAGE)  # group help
    assert run(["nonsense"]) == EXIT_USAGE


def test_sim_run_default_config(tmp_path):
    out = tmp_path / "run.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("n: 24\nmean_degree: 5.0\nduration: 120\n", encoding="utf-8")
    assert run(["sim", "run", "--config", cfg, "--out", out, "--seed", 3]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("b_count,m_count,mu,")
    assert lines[1].split(",")[0] == "10"
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 3
    assert manifest["command"] == "sim run"
    assert manifest["config_digest"]


def test_sim_run_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("bogus: 1\n", encoding="utf-8")
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
        # Past the engine's arrival-table cap: refused before allocating.
        ("run", "duration: 1.0e+18"),
        ("sweep", "n: 100000000\nmean_degree: 8\nduration: 100"),
        ("sweep", "x_values: 0.5"),
        ("sweep", "t_values: [a]"),
        ("sweep", "duration: -5"),
        ("sweep", "seeds: a"),
        ("sweep", "jobs: [1]"),
        ("sweep", "jobs: 0"),
        ("sweep", "jobs: -3"),
        ("run", "base_value_eth: a"),
        ("run", "seed: -1"),
        ("run", "duration: .inf"),
        ("run", "seed: 1.5"),
        ("run", "n: 2.7"),
        ("run", "n: true"),
        ("run", "mean_degree: '8'"),
        ("run", "proposer_boost: 'no'"),
        ("run", "proposer_boost: true"),
        ("sweep", "seed: -1"),
        ("sweep", "seeds: 2.5"),
        ("sweep", "x_values: [.nan]"),
        ("sweep", "lambda_eth_per_ms: .inf"),
        # A document that is not a mapping; only an empty one means {}.
        ("run", "[]"),
        ("run", "0"),
        ("sweep", "false"),
        ("sweep", '""'),
    ],
)
def test_sim_rejects_bad_config(tmp_path, capsys, command, line):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run(["sim", command, "--config", cfg, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["n: " + "9" * 5000, "n: " + "[" * 5000], ids=["digits", "nesting"]
)
def test_sim_rejects_unparseable_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "\n", encoding="utf-8")
    assert run(["sim", "run", "--config", cfg, "--out", tmp_path / "out.csv"]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config document: ")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sim_rejects_negative_seed_flag(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert run(["sim", command, "--seed", -1, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: invalid config value: seed must be non-negative"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sim_sweep_rejects_jobs_flag_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "out.csv"
    assert run(["sim", "sweep", "--jobs", jobs, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: invalid config value: jobs must be >= 1"]
    assert not out.exists()


def test_sim_sweep_failing_cell_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n: 24\nmean_degree: 5.0\nduration: 120\n"
        "x_values: [0.0]\nt_values: [0.0, 13.0]\nseeds: 1\n",
        encoding="utf-8",
    )
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run(["sim", "sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "cell (0, 1) failed: t_d must lie in [0, 12]",
            "error: 1 sweep cell(s) failed",
        ]
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2  # header + the t_d = 0 cell
        assert Path(str(out) + ".manifest.json").exists()


def _die_in_worker(args):
    os._exit(3)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a worker sees the patched function only when forked")
def test_sim_sweep_dead_worker_fails_cells_exits_2(tmp_path, capsys, monkeypatch):
    # A worker that dies breaks the pool: every run without an outcome
    # fails its cell, and the command reports the cells, not a traceback.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(waitinggame, "_run_for_sweep_safe", _die_in_worker)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n: 24\nmean_degree: 5.0\nduration: 120\n"
        "x_values: [0.0]\nt_values: [0.0, 4.0]\nseeds: 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    assert run(["sim", "sweep", "--config", cfg, "--out", out, "--jobs", 2]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert [line.split(": ")[0] for line in err] == [
        "cell (0, 0) failed", "cell (0, 1) failed", "error"
    ]
    assert "terminated abruptly" in err[0]
    assert err[-1] == "error: 2 sweep cell(s) failed"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1  # the header alone


def test_readme_config_defaults_match_schema():
    # The README's "Simulation config" lists are a second copy of the
    # defaults; hold them to the dataclasses that own them.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Simulation config (YAML)")[1]
    sim_keys, rest = section.split("defaults in parentheses:")[1].split("Sweep-only keys:")
    sweep_keys = rest.split("Precedence:")[0]

    def documented(listed):
        return {
            key: yaml.safe_load(value)
            for key, value in re.findall(r"`(\w+)`\s+\(([^)]*)\)", listed)
        }

    def schema(*classes):
        return {
            f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for cls in classes
            for f in dataclasses.fields(cls)
            if f.name != "payoff"
        }

    assert documented(sim_keys) == schema(SimConfig, PayoffModel)
    assert documented(sweep_keys) == schema(SweepConfig)


def test_sim_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(cli, "run_simulation", exhausted)
    out = tmp_path / "out.csv"
    assert run(["sim", "run", "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: Unable to allocate 16.0 GiB"]
    assert not out.exists()


def test_sim_sweep_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n: 24\nmean_degree: 5.0\nduration: 120\n"
        "x_values: [0.0, 1.0]\nt_values: [0.0, 6.0]\nseeds: 2\nseed: 9\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(["sim", "sweep", "--config", cfg, "--out", out1]) == EXIT_OK
    assert run(["sim", "sweep", "--config", cfg, "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text(encoding="utf-8").splitlines()) == 5  # header + 4 cells


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
    dump.write_text("\n".join(json.dumps(r) for r in (rec, dup, other)) + "\n", encoding="utf-8")
    out = tmp_path / "dedup.csv"
    code = run(
        ["ingest", "--bids", f"A={dump}", "--genesis-ms", genesis, "--out", out]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
    assert len(lines) == 3  # two unique bids survive
    stats = (tmp_path / "dedup.csv.dupstats.csv").read_text(encoding="utf-8").splitlines()
    assert stats[1].startswith("A,1,1.0")


def test_ingest_quotes_ids_for_the_analyses(tmp_path):
    # Relay and builder ids holding a comma or a quote survive the dedup CSV,
    # so the analyses read back the bids that ingest wrote.
    lam = 5.71e-6
    dump = tmp_path / "dump.ndjson"
    records, delivered = [], ["slot,relay,builder,block_hash,value_wei,proposer"]
    for slot in range(1, 4):
        for k, builder in enumerate(['b,1', 'q"x']):
            for ms in (100 + 37 * slot, 400 + 11 * k):
                value = round((0.01 * slot + 0.002 * k + lam * ms) * 10**18)
                block_hash = f"0x{slot:02x}{k:02x}{ms:060x}"
                records.append({"slot": slot, "builder_pubkey": builder, "block_hash": block_hash,
                                "value": str(value), "timestamp_ms": 12000 * slot + ms})
        delivered.append(f"{slot},x,b,{block_hash},{value},1")
    dump.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    (tmp_path / "delivered.csv").write_text("\n".join(delivered) + "\n", encoding="utf-8")
    out = tmp_path / "dedup.csv"
    assert run(["ingest", "--bids", f"r,x={dump}", "--genesis-ms", 0, "--out", out]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith('1,"r,x","b,1",')
    assert any(',"r,x","q""x",' in line for line in lines)
    bids = relaydata.read_bids_csv(out)
    assert len(bids) == len(records)
    assert {(b.relay_id, b.builder_id) for b in bids} == {("r,x", "b,1"), ("r,x", 'q"x')}
    stats = (tmp_path / "dedup.csv.dupstats.csv").read_text(encoding="utf-8").splitlines()
    assert stats[1] == '"r,x",3,0.0'

    assert run(["analyze", "regress", "--bids", out, "--out", tmp_path / "r.csv"]) == EXIT_OK
    header, row = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), map(float, row.split(","))))
    assert fields["n"] == len(records)
    assert fields["slope_eth_per_ms"] == pytest.approx(lam, rel=1e-6)
    assert run(["analyze", "winners", "--bids", out, "--delivered", tmp_path / "delivered.csv",
                "--out", tmp_path / "w.csv"]) == EXIT_OK
    assert len((tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()) == 4


@pytest.mark.parametrize("command", ["ingest", "sim run", "sim sweep"])
def test_verbose_only_adds_a_stderr_line(tmp_path, monkeypatch, capsys, command):
    dump = tmp_path / "dump.ndjson"
    rec = {"slot": 1, "builder_pubkey": "b1", "block_hash": HASH_A, "value": "1000",
           "timestamp_ms": 12500}
    dump.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    run_cfg, sweep_cfg = tmp_path / "run.yaml", tmp_path / "sweep.yaml"
    run_cfg.write_text("n: 16\nmean_degree: 4.0\nduration: 48\nx_d: 0.5\nt_d: 6.0\n",
                       encoding="utf-8")
    sweep_cfg.write_text(
        "n: 16\nmean_degree: 4.0\nduration: 48\n"
        "x_values: [0.0, 1.0]\nt_values: [6.0]\nseeds: 2\n",
        encoding="utf-8",
    )
    args = {
        "ingest": ["ingest", "--bids", f"A={dump}", "--genesis-ms", 0],
        "sim run": ["sim", "run", "--config", run_cfg],
        "sim sweep": ["sim", "sweep", "--config", sweep_cfg],
    }[command] + ["--out", "out.csv"]
    outputs = {}
    for verbose in (False, True):
        # Relative paths, so the manifests' output lists match too.
        workdir = tmp_path / f"verbose{verbose}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run(args + ["--verbose"] * verbose) == EXIT_OK
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == verbose
        outputs[verbose] = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert len(outputs[False]) >= 2  # the CSV and its manifest
    assert outputs[True] == outputs[False]


def test_ingest_empty_input(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run(["ingest", "--bids", f"A={empty}", "--out", out]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines() == [
        "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"
    ]


def test_ingest_missing_file(tmp_path):
    assert (
        run(["ingest", "--bids", "A=/nonexistent.ndjson", "--out", tmp_path / "o.csv"])
        == EXIT_DATA
    )



def test_ingest_rejects_a_reversed_window(tmp_path, capsys):
    # LO > HI would skip every record.  It is refused before any dump is
    # read: a missing dump is not reported, and no CSV is written.
    dump = tmp_path / "dump.ndjson"
    dump.write_text("", encoding="utf-8")
    out = tmp_path / "o.csv"
    for path in (dump, tmp_path / "missing.ndjson"):
        argv = ["ingest", "--bids", f"A={path}", "--window", 100, -100, "--out", out]
        assert run(argv) == EXIT_USAGE
        assert "--window" in capsys.readouterr().err
        assert not out.exists()
    assert run(["ingest", "--bids", f"A={dump}", "--window", 5, 5, "--out", out]) == EXIT_OK


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}


def _cli_process(args, cwd, env, timeout=None):
    """``timinggames`` in a new interpreter with ``env`` over this one's.
    Encoding warnings stay off, so that stderr holds only the program's own
    lines."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "timinggames.cli", *args], cwd=cwd, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNDEFAULTENCODING": "", **env},
        timeout=timeout,
    )


def test_importing_the_cli_leaves_out_multiprocessing():
    # Only a sweep with several workers needs a process pool, and it
    # imports one itself; the import costs every command 14-23 ms.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, timinggames.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().split() == ["[]"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sim_refuses_a_tiny_tau_at_once(tmp_path, command):
    # tau_block = 1e-9 asks for about 7.7e12 gossip draws in 120 s at N = 16:
    # the config is refused before anything is built, instead of running
    # for hours.
    (tmp_path / "cfg.yaml").write_text("n: 16\nduration: 120\ntau_block: 1.0e-9\n", encoding="utf-8")
    done = _cli_process(["sim", command, "--config", "cfg.yaml", "--out", "out.csv"],
                        tmp_path, {}, timeout=60)
    assert done.returncode == EXIT_USAGE
    err = done.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config value: "), err
    assert "at most" in err[0]
    assert not (tmp_path / "out.csv").exists()


def test_written_files_are_utf8_under_an_ascii_locale(tmp_path):
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, env={**os.environ, **ASCII_LOCALE},
    )
    assert probe.stdout.decode().strip().lower() not in ("utf-8", "utf8")  # the locale is not UTF-8
    builder = "0xbuild\u00e9r"
    rec = {"slot": 1, "builder_pubkey": builder, "block_hash": HASH_A, "value": "1000",
           "timestamp_ms": 12500}
    (tmp_path / "dump.ndjson").write_text(json.dumps(rec, ensure_ascii=False) + "\n",
                                          encoding="utf-8")
    (tmp_path / "delivered.csv").write_text(
        f"slot,relay,builder,block_hash,value_wei,proposer\n1,A,{builder},{HASH_A},1000,p\n",
        encoding="utf-8",
    )
    outputs = {}
    for name, env in (("ascii", ASCII_LOCALE), ("utf8", UTF8_LOCALE)):
        # Relative paths, so the manifests' output lists match too.
        workdir = tmp_path / name
        workdir.mkdir()
        for args in (
            ["ingest", "--bids", "A=../dump.ndjson", "--genesis-ms", "0", "--out", "bids.csv"],
            ["analyze", "winners", "--bids", "bids.csv", "--delivered", "../delivered.csv",
             "--out", "winners.csv"],
        ):
            done = _cli_process(args, workdir, env)
            assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        outputs[name] = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert builder.encode() in outputs["ascii"]["bids.csv"]
    assert len(outputs["ascii"]) == 6
    assert outputs["ascii"] == outputs["utf8"]


def test_analyze_regress_noiseless(tmp_path):
    # value = 5.71e-6 ETH/ms * arrival, one slot, one builder.
    path = tmp_path / "bids.csv"
    lines = ["slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"]
    for i, t in enumerate(range(0, 2000, 20)):
        wei = int(5.71e-6 * t * 1e18)
        lines.append(f"5,r,b,h{i},{wei},{t},0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "regress.csv"
    assert run(["analyze", "regress", "--bids", path, "--out", out]) == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
    assert header == "n,slope_eth_per_ms,intercept_eth,r_squared"
    slope = float(row.split(",")[1])
    assert slope == pytest.approx(5.71e-6, rel=1e-6)


def test_analyze_winners(tmp_path, bid_csv):
    delivered = tmp_path / "delivered.csv"
    delivered.write_text(
        "slot,relay,builder,block_hash,value_wei,proposer\n"
        f"100,r1,b1,{HASH_A},{46 * 10**15},p1\n"
        f"101,r1,b1,{HASH_A},{30 * 10**15},p2\n",
        encoding="utf-8",
    )
    out = tmp_path / "winners.csv"
    code = run(
        ["analyze", "winners", "--bids", bid_csv, "--delivered", delivered, "--out", out]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "slot,winner_arrival_ms,highest_arrival_ms,delta_t_ms,delta_v_eth,class"
    )
    row100 = lines[1].split(",")
    assert row100[0] == "100" and row100[5] == "EARLY" and row100[3] == "501"
    row101 = lines[2].split(",")
    assert row101[5] == "HIGHEST"
    summary = (tmp_path / "winners.csv.summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[1].split(",")[0] == "1"  # one early winner


def test_analyze_shares_boundary(tmp_path):
    att = tmp_path / "att.csv"
    att.write_text(
        "slot,block_root,attestor_count,committee_size\n"
        "1,r,399,1000\n"
        "2,r,400,1000\n"
        "3,r,980,1000\n",
        encoding="utf-8",
    )
    out = tmp_path / "shares.csv"
    assert run(["analyze", "shares", "--attestations", att, "--out", out]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "slot,share,vulnerable"
    assert lines[1] == "1,0.399,true"
    assert lines[2] == "2,0.4,false"
    assert lines[3].endswith("false")


def test_analyze_shares_missing_column(tmp_path):
    att = tmp_path / "att.csv"
    att.write_text("slot,attestor_count\n1,5\n", encoding="utf-8")
    out = tmp_path / "shares.csv"
    assert run(["analyze", "shares", "--attestations", att, "--out", out]) == EXIT_DATA


def test_analyze_orphans(tmp_path, bid_csv):
    status = tmp_path / "status.csv"
    status.write_text(
        "slot,block_hash,status\n"
        f"100,{HASH_A},orphaned\n"
        f"101,{HASH_A},canonical\n"
        "102,,missed\n",
        encoding="utf-8",
    )
    out = tmp_path / "orphans.csv"
    code = run(["analyze", "orphans", "--status", status, "--bids", bid_csv, "--out", out])
    assert code == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
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
        f"1,33,{10 * 10**15},{34 * 10**6}\n",
        encoding="utf-8",
    )
    out = tmp_path / "rewards.csv"
    assert run(["analyze", "rewards", "--blocks", blocks, "--out", out]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,median_mev_eth,median_proposal_eth"
    assert lines[1].startswith("0,0.048,")
    summary = (tmp_path / "rewards.csv.summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "median_mev_eth,median_proposal_eth,mev_share_of_total"


def test_analyze_rewards_undefined_share_is_empty(tmp_path):
    # No MEV and no proposal reward: the MEV share of the total is undefined.
    blocks = tmp_path / "blocks.csv"
    blocks.write_text("epoch,slot,mev_wei,proposal_gwei\n0,1,0,0\n", encoding="utf-8")
    out = tmp_path / "rewards.csv"
    assert run(["analyze", "rewards", "--blocks", blocks, "--out", out]) == EXIT_OK
    summary = (tmp_path / "rewards.csv.summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[1] == "0.0,0.0,"


def test_analyze_rewards_permutation_stable(tmp_path):
    header = "epoch,slot,mev_wei,proposal_gwei"
    rows = [f"{e},{s},{(s + 1) * 10**15},{(s + 2) * 10**6}"
            for e in range(3) for s in range(6)]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f1.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    f2.write_text(header + "\n" + "\n".join(reversed(rows)) + "\n", encoding="utf-8")
    o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run(["analyze", "rewards", "--blocks", f1, "--out", o1]) == EXIT_OK
    assert run(["analyze", "rewards", "--blocks", f2, "--out", o2]) == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()
    assert (tmp_path / "o1.csv.summary.csv").read_bytes() == (
        tmp_path / "o2.csv.summary.csv"
    ).read_bytes()


# -- data-file contract -------------------------------------------------------

BID_HEADER = "slot,relay,builder,block_hash,value_wei,arrival_ms,num_tx"


def _bad_bids(tmp_path, row):
    path = tmp_path / "bad_bids.csv"
    path.write_text(f"{BID_HEADER}\n5,r,b,h0,1000,10,0\n{row}\n5,r,b,h2,3000,30,0\n",
                    encoding="utf-8")
    return path


def _case_short_row(tmp_path, bid_csv):
    path = _bad_bids(tmp_path, "5,r,b,h1,2000")
    return ["analyze", "regress", "--bids", path], path, 3


def _case_bad_value(tmp_path, bid_csv):
    path = _bad_bids(tmp_path, "5,r,b,h1,lots,20,0")
    return ["analyze", "regress", "--bids", path], path, 3


def _case_delivered_slot(tmp_path, bid_csv):
    path = tmp_path / "delivered.csv"
    path.write_text(f"slot,block_hash\n100,{HASH_A}\nsoon,{HASH_B}\n", encoding="utf-8")
    return ["analyze", "winners", "--bids", bid_csv, "--delivered", path], path, 3


def _case_status_slot(tmp_path, bid_csv):
    path = tmp_path / "status.csv"
    path.write_text(f"slot,block_hash,status\n1e2,{HASH_A},orphaned\n", encoding="utf-8")
    return ["analyze", "orphans", "--status", path, "--bids", bid_csv], path, 2


def _case_ndjson_encoding(tmp_path, bid_csv):
    path = tmp_path / "dump.ndjson"
    path.write_bytes(b'{"slot": 1}\n{"builder_pubkey": "\xff\xfe"}\n')
    return ["ingest", "--bids", f"A={path}"], path, 2


def _case_csv_encoding(tmp_path, bid_csv):
    path = tmp_path / "bids.csv"
    path.write_bytes(BID_HEADER.encode() + b"\n5,r,b,h0,1000,10,0\n5,r,\xe9,h1,1000,10,0\n")
    return ["analyze", "regress", "--bids", path], path, 3


def _case_status_unknown_block(tmp_path, bid_csv):
    path = tmp_path / "status.csv"
    path.write_text(f"slot,block_hash,status\n100,{HASH_A},orphaned\n101,{HASH_C},canonical\n",
                    encoding="utf-8")
    return ["analyze", "orphans", "--status", path, "--bids", bid_csv], path, 3


def _case_status_unknown_value(tmp_path, bid_csv):
    path = tmp_path / "status.csv"
    path.write_text(f"slot,block_hash,status\n100,{HASH_A},late\n", encoding="utf-8")
    return ["analyze", "orphans", "--status", path, "--bids", bid_csv], path, None


def _case_one_bid(tmp_path, bid_csv):
    path = tmp_path / "bids.csv"
    path.write_text(f"{BID_HEADER}\n5,r,b,h0,1000,10,0\n", encoding="utf-8")
    return ["analyze", "regress", "--bids", path], path, None


def _case_arrival_fixed(tmp_path, bid_csv):
    path = tmp_path / "bids.csv"
    path.write_text(f"{BID_HEADER}\n5,r,b,h0,1000,10,0\n6,r,b,h1,3000,30,0\n", encoding="utf-8")
    return ["analyze", "regress", "--bids", path], path, None


def _case_no_reward_rows(tmp_path, bid_csv):
    path = tmp_path / "blocks.csv"
    path.write_text("epoch,slot,mev_wei,proposal_gwei\n", encoding="utf-8")
    return ["analyze", "rewards", "--blocks", path], path, None


@pytest.mark.parametrize(
    "case",
    [_case_short_row, _case_bad_value, _case_delivered_slot, _case_status_slot,
     _case_ndjson_encoding, _case_csv_encoding, _case_status_unknown_block,
     _case_status_unknown_value, _case_one_bid, _case_arrival_fixed, _case_no_reward_rows],
    ids=["short-row", "bad-value", "delivered-slot", "status-slot",
         "ndjson-encoding", "csv-encoding", "status-unknown-block",
         "status-unknown-value", "one-bid", "arrival-fixed", "no-reward-rows"],
)
def test_bad_data_file_is_one_error_line(tmp_path, bid_csv, capsys, case):
    # ``line`` is None for an error about the whole file.
    argv, path, line = case(tmp_path, bid_csv)
    assert run([*argv, "--out", tmp_path / "out.csv"]) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert (f"{path}:" if line is None else f"{path}, line {line}:") in err[0]


def test_analyze_regress_recovers_slope_with_correlated_arrival(tmp_path):
    # Noiseless and unbalanced: builders bid in rolling windows, and those
    # that bid later carry larger builder effects, so arrival time is
    # correlated with the builder effect.  Residualizing value alone would
    # shrink the slope.
    lam = 5.71e-6
    rng = np.random.default_rng(31)
    n_slots, n_builders, window = 80, 12, 20
    builder_fx = np.linspace(-0.02, 0.02, n_builders)
    lateness = 600.0 + 3e4 * builder_fx
    slot_fx = 0.1 + rng.exponential(0.05, n_slots)
    starts = rng.integers(1 - window, n_slots, n_builders)
    rows, slots, builders, values, arrivals = [BID_HEADER], [], [], [], []
    for slot in range(n_slots):
        active = [b for b in range(n_builders) if starts[b] <= slot < starts[b] + window]
        active = active or [slot % n_builders, (slot + 1) % n_builders]
        for b in active:
            for k in range(int(rng.integers(1, 4))):
                arrival = int(lateness[b] + rng.integers(-500, 500))
                wei = int(round((slot_fx[slot] + builder_fx[b] + lam * arrival) * 1e18))
                rows.append(f"{slot},r,b{b},h{slot}-{b}-{k},{wei},{arrival},0")
                slots.append(slot)
                builders.append(b)
                values.append(wei / 1e18)
                arrivals.append(arrival)
    path = tmp_path / "bids.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "regress.csv"
    assert run(["analyze", "regress", "--bids", path, "--out", out]) == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), map(float, row.split(","))))
    assert abs(fields["slope_eth_per_ms"] / lam - 1) < 1e-9
    assert abs(fields["intercept_eth"]) < 1e-12
    assert fields["r_squared"] == pytest.approx(1.0, abs=1e-9)
    # The value-only residualization misses: this panel tells the two apart.
    one_sided = analytics.fit_marginal_value(
        arrivals, analytics.residualize(values, slots, builders)
    ).slope
    assert abs(one_sided / lam - 1) > 1e-3


def test_analyze_regress_rejects_arrival_fixed_by_effects(tmp_path, capsys):
    # One bid per slot: the slot effects absorb every arrival time.
    path = tmp_path / "bids.csv"
    rows = [f"{s},r,b,h{s},{s * 10},{s * 7},0" for s in range(5)]
    path.write_text("\n".join([BID_HEADER, *rows]) + "\n", encoding="utf-8")
    code = run(["analyze", "regress", "--bids", path, "--out", tmp_path / "o.csv"])
    assert code == EXIT_DATA
    assert "does not vary within slot and builder" in capsys.readouterr().err


# -- fuzz: any data file gives exit code 0, 1 or 2 ----------------------------

_TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", "x", "1e3", "0x" + "ab" * 32, HASH_A, "nan", "2" * 400, '"', "\u00e9"]),
    st.text(max_size=8),
)
_CSV_ROWS = st.lists(st.lists(_TOKENS, max_size=9).map(",".join), max_size=8)
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.floats(), _TOKENS, st.integers(),
                         st.lists(st.integers(), max_size=2))
_NDJSON_LINES = st.lists(
    st.one_of(
        st.dictionaries(
            st.sampled_from(["slot", "builder_pubkey", "block_hash", "parent_hash",
                             "value", "num_tx", "timestamp_ms", "timestamp"]),
            _JSON_VALUES,
        ).map(json.dumps),
        st.text(max_size=20),
    ),
    max_size=8,
)


def _file_bytes(header):
    """Arbitrary bytes, or the header followed by arbitrary rows."""
    rows = _NDJSON_LINES if header is None else _CSV_ROWS.map(lambda r: [header, *r])
    return st.one_of(
        st.binary(max_size=120),
        rows.map(lambda lines: ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")),
    )


@given(
    dump=_file_bytes(None),
    bids=_file_bytes(BID_HEADER),
    delivered=_file_bytes("slot,relay,builder,block_hash,value_wei,proposer"),
    status=_file_bytes("slot,block_hash,status"),
    attestations=_file_bytes("slot,block_root,attestor_count,committee_size"),
    blocks=_file_bytes("epoch,slot,mev_wei,proposal_gwei"),
)
@settings(max_examples=60, deadline=None)
def test_data_commands_never_raise(dump, bids, delivered, status, attestations, blocks):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in (("dump.ndjson", dump), ("bids.csv", bids),
                           ("delivered.csv", delivered), ("status.csv", status),
                           ("attestations.csv", attestations), ("blocks.csv", blocks)):
            (d / name).write_bytes(data)
        commands = [
            ["ingest", "--bids", f"A={d / 'dump.ndjson'}", "--genesis-ms", "0",
             "--window", "-1000000000", "1000000000", "--out", d / "ingested.csv"],
            ["analyze", "regress", "--bids", d / "ingested.csv", "--out", d / "r0.csv"],
            ["analyze", "shares", "--attestations", d / "attestations.csv",
             "--out", d / "s.csv"],
            ["analyze", "rewards", "--blocks", d / "blocks.csv", "--out", d / "rw.csv"],
        ]
        for bid_file in ("bids.csv", "ingested.csv"):
            commands += [
                ["analyze", "regress", "--bids", d / bid_file, "--out", d / "r.csv"],
                ["analyze", "winners", "--bids", d / bid_file,
                 "--delivered", d / "delivered.csv", "--out", d / "w.csv"],
                ["analyze", "orphans", "--status", d / "status.csv",
                 "--bids", d / bid_file, "--out", d / "o.csv"],
            ]
        with contextlib.redirect_stderr(io.StringIO()):
            codes = [run(argv) for argv in commands]
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA}


# Values the config fuzzer puts into a key to break it: wrong types,
# non-finite and negative numbers.  Huge integers go only to keys where a
# huge value is rejected or cheap: a huge n, duration, seeds or jobs is a
# valid, costly run.
_JUNK = st.one_of(
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
)
_JUNK_OR_HUGE = st.one_of(_JUNK, st.integers(2**63, 2**1100))
_GRID = st.lists(st.floats(0.0, 13.0), min_size=1, max_size=2)

# Valid values, small enough that a run stays cheap, and the breaking
# values of each key.
_RUN_KEYS = {
    "n": (st.integers(2, 64), _JUNK),
    "mean_degree": (st.floats(0.5, 8.0), _JUNK_OR_HUGE),
    "tau_block": (st.floats(0.5, 10.0), _JUNK_OR_HUGE),
    "tau_attestation": (st.floats(0.5, 10.0), _JUNK_OR_HUGE),
    "duration": (st.floats(1.0, 36.0), _JUNK),
    "x_d": (st.floats(0.0, 1.0), _JUNK_OR_HUGE),
    "t_d": (st.floats(0.0, 13.0), _JUNK_OR_HUGE),
    "seed": (st.integers(0, 2**64), _JUNK_OR_HUGE),
    "base_value_eth": (st.floats(-1.0, 1.0), _JUNK_OR_HUGE),
    "lambda_eth_per_ms": (st.floats(0.0, 1e-3), _JUNK_OR_HUGE),
}
_SWEEP_KEYS = {
    **_RUN_KEYS,
    "x_values": (_GRID, _JUNK),
    "t_values": (_GRID, _JUNK),
    "seeds": (st.integers(1, 2), _JUNK),
    "jobs": (st.just(1), _JUNK),
}
# Unknown keys, and a removed one.
_NOT_KEYS = {"bogus": st.integers(), "proposer_boost": st.booleans()}


def _config(keys, bound):
    """A YAML document: valid values for some keys, then up to two keys
    broken.  The ``bound`` keys, which cap a run's cost, are always set."""
    valid = st.fixed_dictionaries(
        {k: keys[k][0] for k in bound},
        optional={k: v[0] for k, v in keys.items() if k not in bound},
    )
    breaking = {**{k: v[1] for k, v in keys.items()}, **_NOT_KEYS}
    broken = st.lists(
        st.sampled_from(sorted(breaking)).flatmap(
            lambda k: breaking[k].map(lambda v: (k, v))
        ),
        max_size=2,
    ).map(dict)
    return st.tuples(valid, broken).map(lambda docs: {**docs[0], **docs[1]})


@given(
    run_doc=_config(_RUN_KEYS, {"duration"}),
    sweep_doc=_config(_SWEEP_KEYS, {"duration", "x_values", "t_values", "seeds"}),
    seed_flag=st.one_of(st.none(), st.integers(-(2**70), 2**70)),
)
@settings(max_examples=40, deadline=None)
def test_sim_commands_never_raise(run_doc, sweep_doc, seed_flag):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        codes = []
        for command, doc in (("run", run_doc), ("sweep", sweep_doc)):
            cfg = d / f"{command}.yaml"
            cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
            argv = ["sim", command, "--config", cfg, "--out", d / f"{command}.csv"]
            if seed_flag is not None:
                argv += ["--seed", seed_flag]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes.append(run(argv))
            if codes[-1] == EXIT_USAGE:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA}
