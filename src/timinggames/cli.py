"""Command-line entry point.

Subcommands::

    ingest                    relay NDJSON dumps -> dedup CSV + duplicate stats
    analyze regress           dedup bid CSV -> marginal value of time
    analyze winners           bids + delivered payloads -> winner timing table
    analyze shares            attestation CSV -> share/vulnerability table
    analyze orphans           status + bids CSV -> orphan timing report
    analyze rewards           per-block reward CSV -> per-epoch medians
    sim run                   one simulation -> metrics CSV
    sim sweep                 (x_d, t_d) grid -> seed-averaged CSV

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Every output CSV gets a JSON manifest sidecar recording the command, the
configuration digest, the master seed and the tool version, so any artifact
can be regenerated exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import fields
from operator import attrgetter

import click
import numpy as np
import yaml

from . import __version__
from . import analytics, relaydata, rewards, simnet
from .waitinggame import PayoffModel, SimConfig, check_number, run_simulation, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_X_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_T_GRID = tuple(float(t) for t in range(12))
DEFAULT_SEEDS = 20

# YAML keys of a simulation: the payoff fields are top-level keys, and
# record_trace is not a config key.
_CONFIG_KEYS = {f.name for f in fields(SimConfig)} - {"payoff", "record_trace"}
_PAYOFF_KEYS = {f.name for f in fields(PayoffModel)}
_SIM_KEYS = _CONFIG_KEYS | _PAYOFF_KEYS
_SWEEP_ONLY_KEYS = {"x_values", "t_values", "seeds", "jobs"}


class DataError(Exception):
    """Unreadable or schema-violating input data."""


def _load_config(path, allowed) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise click.UsageError(f"cannot read config: {exc}")
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # PyYAML raises ValueError for an integer past Python's digit limit.
        raise click.UsageError(f"invalid config document: {exc}")
    if not isinstance(doc, dict):
        raise click.UsageError("config must be a key/value document")
    for key in doc:
        if key not in allowed:
            raise click.UsageError(f"unknown config key: {key!r}")
    return doc


def _sim_config(doc: dict, seed_override) -> SimConfig:
    """``SimConfig`` from the simulation keys of ``doc``; absent keys take
    the dataclass defaults, and ``SimConfig`` checks every value."""
    sim = {k: v for k, v in doc.items() if k in _CONFIG_KEYS}
    if seed_override is not None:
        sim["seed"] = seed_override
    try:
        payoff = PayoffModel(**{k: v for k, v in doc.items() if k in _PAYOFF_KEYS})
        return SimConfig(**sim, payoff=payoff)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid config value: {exc}")


def _grid_values(doc: dict, key: str, default) -> list:
    values = doc.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise click.UsageError(f"{key} must be a list of numbers")
    try:
        return [check_number(f"{key} entry", v) for v in values]
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid config value: {exc}")


def _count(doc: dict, key: str, default) -> int:
    try:
        return check_number(key, doc.get(key, default), integral=True)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid config value: {exc}")


def _digest(path) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(out_path, command: str, config_path, seed, outputs) -> None:
    manifest = {
        "command": command,
        "config_digest": _digest(config_path),
        "seed": seed,
        "version": __version__,
        "outputs": sorted(str(p) for p in outputs),
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv(path, required) -> list:
    """(line number, row dict) for each row of a CSV that holds every
    ``required`` column; any other row is a ``DataError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            try:
                missing = set(required) - set(reader.fieldnames or [])
                if missing:
                    raise DataError(
                        f"{path}: missing columns: {', '.join(sorted(missing))}"
                    )
                rows = []
                for row in reader:
                    if any(row[column] is None for column in required):
                        raise DataError(f"{path}, line {reader.line_num}: too few fields")
                    rows.append((reader.line_num, row))
                return rows
            except csv.Error as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise DataError(f"{path}, line {relaydata.undecodable_line(path)}: not valid UTF-8")


def _int(row: dict, column: str, path, line: int) -> int:
    try:
        return int(row[column])
    except ValueError:
        raise DataError(f"{path}, line {line}: {column} is not an integer: {row[column]!r}")


@click.group()
@click.version_option(__version__)
def cli():
    """Block-delay simulation and relay bid analytics."""


# -- ingest -------------------------------------------------------------------


@cli.command()
@click.option(
    "--bids",
    "bid_inputs",
    multiple=True,
    required=True,
    metavar="RELAY=PATH",
    help="NDJSON bid dump for one relay; repeatable.",
)
@click.option(
    "--genesis-ms",
    default="mainnet",
    show_default=True,
    help="Chain genesis in unix ms, or 'mainnet'.",
)
@click.option("--window", nargs=2, type=int, default=(-24000, 24000), show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Dedup CSV path.")
@click.option("--stats-out", type=click.Path(), help="Duplicate-stats CSV path.")
@click.option("--verbose", is_flag=True)
def ingest(bid_inputs, genesis_ms, window, out, stats_out, verbose):
    """Normalize, dedup and merge relay bid dumps into one CSV."""
    if genesis_ms == "mainnet":
        genesis = relaydata.MAINNET_GENESIS_UNIX_MS
    else:
        try:
            genesis = int(genesis_ms)
        except ValueError:
            raise click.UsageError(f"invalid --genesis-ms: {genesis_ms!r}")
    all_raw = []
    per_relay_clean = []
    for item in bid_inputs:
        if "=" not in item:
            raise click.UsageError(f"--bids must be RELAY=PATH, got {item!r}")
        relay, path = item.split("=", 1)
        try:
            bids, skipped = relaydata.load_bids(
                path, relay, genesis, window_ms=tuple(window)
            )
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}")
        if verbose:
            click.echo(f"{relay}: {len(bids)} records, {skipped} skipped", err=True)
        all_raw.extend(bids)
        per_relay_clean.extend(relaydata.dedup_within_relay(bids, relay))
    merged = relaydata.dedup_across_relays(per_relay_clean)
    merged.sort(key=attrgetter("slot", "arrival_ms", "relay_id", "block_hash"))
    relaydata.write_bids_csv(merged, out)

    stats = relaydata.duplicate_stats(all_raw)
    stats_path = stats_out or (str(out) + ".dupstats.csv")
    with open(stats_path, "w", newline="") as fh:
        fh.write("relay,slots,avg_duplicates_per_slot\n")
        slots_per_relay: dict = {}
        for (relay, _slot) in stats["per_relay_slot"]:
            slots_per_relay[relay] = slots_per_relay.get(relay, 0) + 1
        for relay in sorted(stats["per_relay_avg"]):
            fh.write(
                f"{relaydata.csv_field(relay)},{slots_per_relay[relay]},"
                f"{stats['per_relay_avg'][relay]!r}\n"
            )
    _write_manifest(out, "ingest", None, None, [out, stats_path])


# -- analyze ------------------------------------------------------------------


@cli.group()
def analyze():
    """Offline bid and reward analytics."""


@analyze.command()
@click.option("--bids", required=True, type=click.Path(), help="Dedup bid CSV.")
@click.option("--out", required=True, type=click.Path())
def regress(bids, out):
    """Marginal ETH value of one millisecond of waiting."""
    records = relaydata.read_bids_csv(bids)
    if len(records) < 2:
        raise DataError("need at least 2 bids to regress")
    try:
        panel = np.array([(b.value_eth, b.arrival_ms) for b in records], dtype=np.float64)
    except OverflowError:
        raise DataError(f"{bids}: arrival_ms too large")
    # Frisch-Waugh-Lovell: both sides lose the slot and builder effects.
    value_res, arrival_res = analytics.residualize(
        panel, [b.slot for b in records], [b.builder_id for b in records]
    ).T
    # Within variation below rounding level means the effects fix arrival time.
    arrival = panel[:, 1]
    if not np.linalg.norm(arrival_res) > 1e-9 * np.linalg.norm(arrival - arrival.mean()):
        raise DataError("arrival time does not vary within slot and builder")
    result = analytics.fit_marginal_value(arrival_res, value_res)
    with open(out, "w", newline="") as fh:
        fh.write("n,slope_eth_per_ms,intercept_eth,r_squared\n")
        fh.write(f"{result.n},{result.slope!r},{result.intercept!r},{result.r_squared!r}\n")
    _write_manifest(out, "analyze regress", None, None, [out])


@analyze.command()
@click.option("--bids", required=True, type=click.Path(), help="Dedup bid CSV.")
@click.option(
    "--delivered",
    required=True,
    type=click.Path(),
    help="CSV slot,relay,builder,block_hash,value_wei,proposer",
)
@click.option("--out", required=True, type=click.Path())
def winners(bids, delivered, out):
    """Classify each slot's winning bid against the highest bid."""
    records = relaydata.read_bids_csv(bids)
    by_slot: dict = {}
    for b in records:
        by_slot.setdefault(b.slot, []).append(b)
    timings = []
    for line, row in _read_csv(delivered, ["slot", "block_hash"]):
        slot = _int(row, "slot", delivered, line)
        slot_bids = by_slot.get(slot)
        if not slot_bids:
            continue
        candidates = [b for b in slot_bids if b.block_hash == row["block_hash"]]
        if not candidates:
            continue
        # The winner's time is its earliest bid arrival across relays.
        winner = min(candidates, key=lambda b: b.arrival_ms)
        timings.append(analytics.classify_winner(winner, slot_bids))
    timings.sort(key=lambda t: t.slot)
    with open(out, "w", newline="") as fh:
        fh.write("slot,winner_arrival_ms,highest_arrival_ms,delta_t_ms,delta_v_eth,class\n")
        for t in timings:
            fh.write(
                f"{t.slot},{t.winner_arrival_ms},{t.highest_arrival_ms},"
                f"{t.delta_t_ms},{t.delta_v_eth!r},{t.winner_class}\n"
            )
    agg = analytics.unrealized_value(timings)
    summary_path = str(out) + ".summary.csv"
    with open(summary_path, "w", newline="") as fh:
        fh.write(
            "early_count,late_count,highest_count,"
            "unrealized_eth,realizable_eth,median_delta_t_ms\n"
        )
        med = agg["median_delta_t_ms"]
        fh.write(
            f"{agg['early_count']},{agg['late_count']},{agg['highest_count']},"
            f"{agg['unrealized_eth']!r},{agg['realizable_eth']!r},"
            f"{'' if med is None else repr(med)}\n"
        )
    _write_manifest(out, "analyze winners", None, None, [out, summary_path])


@analyze.command()
@click.option(
    "--attestations",
    required=True,
    type=click.Path(),
    help="CSV slot,block_root,attestor_count,committee_size",
)
@click.option("--out", required=True, type=click.Path())
def shares(attestations, out):
    """Next-slot attestation share and boost-reorg vulnerability per block."""
    uniform_gwei = 32 * 10**9
    out_rows = []
    for line, row in _read_csv(attestations, ["slot", "attestor_count", "committee_size"]):
        slot = _int(row, "slot", attestations, line)
        count = _int(row, "attestor_count", attestations, line)
        committee = _int(row, "committee_size", attestations, line)
        try:
            share = analytics.attestation_share(
                count * uniform_gwei, committee * uniform_gwei
            )
        except (analytics.AnalyticsError, OverflowError) as exc:
            raise DataError(f"{attestations}, line {line}: {exc}")
        out_rows.append((slot, share, analytics.reorg_vulnerable(share)))
    out_rows.sort()
    with open(out, "w", newline="") as fh:
        fh.write("slot,share,vulnerable\n")
        for slot, share, vulnerable in out_rows:
            fh.write(f"{slot},{share!r},{str(vulnerable).lower()}\n")
    _write_manifest(out, "analyze shares", None, None, [out])


@analyze.command()
@click.option(
    "--status",
    required=True,
    type=click.Path(),
    help="CSV slot,block_hash,status (canonical|orphaned|missed)",
)
@click.option("--bids", required=True, type=click.Path(), help="Dedup bid CSV.")
@click.option("--out", required=True, type=click.Path())
def orphans(status, bids, out):
    """Arrival-time contrast between orphaned and canonical blocks."""
    records = relaydata.read_bids_csv(bids)
    arrival: dict = {}
    for b in records:
        key = (b.slot, b.block_hash)
        if key not in arrival or b.arrival_ms < arrival[key]:
            arrival[key] = b.arrival_ms
    blocks = []
    for line, row in _read_csv(status, ["slot", "block_hash", "status"]):
        st = row["status"]
        if st == analytics.STATUS_MISSED:
            blocks.append({"arrival_ms": None, "status": st})
            continue
        key = (_int(row, "slot", status, line), row["block_hash"])
        if key not in arrival:
            raise DataError(f"no bid arrival for block {key}")
        blocks.append({"arrival_ms": arrival[key], "status": st})
    try:
        report = analytics.orphan_comparison(blocks)
    except analytics.AnalyticsError as exc:
        raise DataError(str(exc))
    with open(out, "w", newline="") as fh:
        fh.write(
            "orphaned_count,missed_count,median_orphaned_arrival_ms,"
            "median_nonorphaned_arrival_ms,late_nonorphaned_count,considered_count\n"
        )
        mo = report.median_orphaned_arrival_ms
        mn = report.median_nonorphaned_arrival_ms
        fh.write(
            f"{report.orphaned_count},{report.missed_count},"
            f"{'' if mo is None else repr(mo)},{'' if mn is None else repr(mn)},"
            f"{report.late_nonorphaned_count},{report.considered_count}\n"
        )
    _write_manifest(out, "analyze orphans", None, None, [out])


@analyze.command("rewards")
@click.option(
    "--blocks",
    required=True,
    type=click.Path(),
    help="CSV epoch,slot,mev_wei,proposal_gwei",
)
@click.option("--out", required=True, type=click.Path())
def rewards_cmd(blocks, out):
    """Per-epoch medians of MEV and proposal rewards."""
    rows = _read_csv(blocks, ["epoch", "slot", "mev_wei", "proposal_gwei"])
    if not rows:
        raise DataError("no reward rows")
    per_block = []
    for line, r in rows:
        epoch = _int(r, "epoch", blocks, line)
        try:
            mev_eth = _int(r, "mev_wei", blocks, line) / 1e18
            proposal_eth = _int(r, "proposal_gwei", blocks, line) / 1e9
        except OverflowError as exc:
            raise DataError(f"{blocks}, line {line}: {exc}")
        per_block.append({"epoch": epoch, "mev_eth": mev_eth, "proposal_eth": proposal_eth})
    cmp_result = rewards.compare_rewards(per_block)
    with open(out, "w", newline="") as fh:
        fh.write("epoch,median_mev_eth,median_proposal_eth\n")
        for epoch, (m, p) in cmp_result.per_epoch.items():
            fh.write(f"{epoch},{m!r},{p!r}\n")
    summary_path = str(out) + ".summary.csv"
    with open(summary_path, "w", newline="") as fh:
        fh.write("median_mev_eth,median_proposal_eth,mev_share_of_total\n")
        fh.write(
            f"{cmp_result.median_mev_eth!r},{cmp_result.median_proposal_eth!r},"
            f"{cmp_result.mev_share_of_total!r}\n"
        )
    _write_manifest(out, "analyze rewards", None, None, [out, summary_path])


# -- sim ----------------------------------------------------------------------


@cli.group()
def sim():
    """Slot-consensus simulations."""


@sim.command("run")
@click.option("--config", "config_path", type=click.Path(), help="YAML config.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--out", required=True, type=click.Path())
@click.option("--verbose", is_flag=True)
def sim_run(config_path, seed, out, verbose):
    """One simulation; writes a single-row metrics CSV."""
    doc = _load_config(config_path, _SIM_KEYS)
    config = _sim_config(doc, seed)
    metrics = run_simulation(config)
    with open(out, "w", newline="") as fh:
        fh.write(
            "b_count,m_count,mu,theta_d,theta_d_normalized,"
            "payoff_honest_eth,payoff_delayer_eth\n"
        )
        mu = "" if metrics.mu is None else repr(metrics.mu)
        tn = "" if metrics.theta_d_normalized is None else repr(metrics.theta_d_normalized)
        fh.write(
            f"{metrics.b_count},{metrics.m_count},{mu},{metrics.theta_d},{tn},"
            f"{metrics.payoff_honest_eth!r},{metrics.payoff_delayer_eth!r}\n"
        )
    if verbose:
        click.echo(f"mu={metrics.mu} theta_d={metrics.theta_d}", err=True)
    _write_manifest(out, "sim run", config_path, config.seed, [out])


@sim.command("sweep")
@click.option("--config", "config_path", type=click.Path(), help="YAML config.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--out", required=True, type=click.Path())
@click.option("--jobs", type=int, default=None, help="Worker processes.")
@click.option("--verbose", is_flag=True)
def sim_sweep(config_path, seed, out, jobs, verbose):
    """Seed-averaged (x_d, t_d) grid; writes one row per cell."""
    doc = _load_config(config_path, _SIM_KEYS | _SWEEP_ONLY_KEYS)
    x_values = _grid_values(doc, "x_values", DEFAULT_X_GRID)
    t_values = _grid_values(doc, "t_values", DEFAULT_T_GRID)
    seeds = _count(doc, "seeds", DEFAULT_SEEDS)
    n_jobs = jobs if jobs is not None else _count(doc, "jobs", 1)
    base = _sim_config(doc, seed)
    try:
        result = sweep(x_values, t_values, seeds, base, jobs=n_jobs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    result.to_csv(out)
    if result.errors:
        for key, message in sorted(result.errors.items()):
            click.echo(f"cell {key} failed: {message}", err=True)
        raise DataError(f"{len(result.errors)} sweep cell(s) failed")
    if verbose:
        click.echo(
            f"{len(result.cells)} cells x {seeds} seeds written to {out}", err=True
        )
    _write_manifest(out, "sim sweep", config_path, base.seed, [out])


def main(argv=None) -> int:
    """Entry point mapping error classes to exit codes instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.UsageError, yaml.YAMLError, simnet.TopologyError) as exc:
        click.echo(f"error: {exc.format_message() if hasattr(exc, 'format_message') else exc}", err=True)
        return EXIT_USAGE
    except (DataError, relaydata.IngestError, analytics.AnalyticsError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
