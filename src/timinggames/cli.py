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
The ``sim`` commands' YAML keys are the fields of ``waitinggame``'s
``SimConfig``, ``PayoffModel`` and ``SweepConfig``, which own every default
and check; a ``--seed`` or ``--jobs`` flag overrides its key.

Every output CSV gets a JSON manifest sidecar recording the command, the
configuration digest, the master seed and the tool version, so any artifact
can be regenerated exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple, fields

import click
import numpy as np
import yaml

from . import __version__
from . import analytics, relaydata, rewards, simnet
from .waitinggame import (
    SWEEP_CSV_HEADER, PayoffModel, RunMetrics, SimConfig, SweepConfig, simulate, sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class DataError(Exception):
    """Unreadable or schema-violating input data."""


def _load_config(path, schemas, **flags) -> dict:
    """The YAML document at ``path``, with each flag that was given
    overriding its key: flag > file > default.  Every key must name a field
    of one of ``schemas``; ``payoff``'s own fields are top-level keys."""
    allowed = {f.name for cls in schemas for f in fields(cls)} - {"payoff"}
    doc = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except OSError as exc:
            raise click.UsageError(f"cannot read config: {exc}")
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            # PyYAML raises ValueError for an integer past Python's digit limit.
            raise click.UsageError(f"invalid config document: {exc}")
        if doc is None:  # an empty document
            doc = {}
        if not isinstance(doc, dict):
            raise click.UsageError("config must be a key/value document")
        for key in doc:
            if key not in allowed:
                raise click.UsageError(f"unknown config key: {key!r}")
    doc.update((key, value) for key, value in flags.items() if value is not None)
    return doc


def _schema(cls, doc: dict, **given):
    """``cls`` from the keys of ``doc`` that name its fields, plus ``given``;
    absent keys take the dataclass defaults, and ``cls`` checks every value."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in doc.items() if k in names}, **given)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid config value: {exc}")


def _sim_config(doc: dict) -> SimConfig:
    return _schema(SimConfig, doc, payoff=_schema(PayoffModel, doc))


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
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
@click.option("--window", nargs=2, type=int, show_default=True,
              default=relaydata.DEFAULT_PLAUSIBILITY_WINDOW_MS)
@click.option("--out", required=True, type=click.Path(), help="Dedup CSV path.")
@click.option("--stats-out", type=click.Path(), help="Duplicate-stats CSV path.")
@click.option("--verbose", is_flag=True)
def ingest(bid_inputs, genesis_ms, window, out, stats_out, verbose):
    """Normalize, dedup and merge relay bid dumps into one CSV."""
    if window[0] > window[1]:
        raise click.UsageError(f"--window LO HI needs LO <= HI, got {window[0]} {window[1]}")
    if genesis_ms == "mainnet":
        genesis = relaydata.MAINNET_GENESIS_UNIX_MS
    else:
        try:
            genesis = int(genesis_ms)
        except ValueError:
            raise click.UsageError(f"invalid --genesis-ms: {genesis_ms!r}")
    fold = relaydata.BidFold()
    for item in bid_inputs:
        if "=" not in item:
            raise click.UsageError(f"--bids must be RELAY=PATH, got {item!r}")
        relay, path = item.split("=", 1)
        dump = relaydata.BidDump(path, relay, genesis, tuple(window))
        try:
            records = fold.add(dump, relay)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}")
        if verbose:
            click.echo(f"{relay}: {records} records, {dump.skipped} skipped", err=True)
    relaydata.write_bids_csv(fold.merged(), out)

    per_relay = fold.stats()
    stats_path = stats_out or (str(out) + ".dupstats.csv")
    relaydata.write_csv(
        stats_path,
        "relay,slots,avg_duplicates_per_slot",
        [(relay, *per_relay[relay]) for relay in sorted(per_relay)],
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
        raise DataError(f"{bids}: need at least 2 bids to regress")
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
        raise DataError(f"{bids}: arrival time does not vary within slot and builder")
    fit = analytics.fit_marginal_value(arrival_res, value_res)
    relaydata.write_csv(
        out, "n,slope_eth_per_ms,intercept_eth,r_squared",
        [(fit.n, fit.slope, fit.intercept, fit.r_squared)],
    )
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
    rows = relaydata.read_csv_rows(delivered, ("slot", "block_hash"))
    try:
        for line, (slot, block_hash) in rows:
            slot_bids = by_slot.get(int(slot))
            candidates = [b for b in slot_bids or () if b.block_hash == block_hash]
            if candidates:
                # The winner's time is its earliest bid arrival across relays.
                winner = min(candidates, key=lambda b: b.arrival_ms)
                timings.append(analytics.classify_winner(winner, slot_bids))
    except ValueError as exc:
        raise DataError(f"{delivered}, line {line}: {exc}")
    timings.sort(key=lambda t: t.slot)
    relaydata.write_csv(
        out,
        "slot,winner_arrival_ms,highest_arrival_ms,delta_t_ms,delta_v_eth,class",
        timings,
    )
    summary_path = str(out) + ".summary.csv"
    # The summary's columns are keys of unrealized_value's dict.
    header = "early_count,late_count,highest_count,unrealized_eth,realizable_eth,median_delta_t_ms"
    agg = analytics.unrealized_value(timings)
    relaydata.write_csv(summary_path, header, [[agg[key] for key in header.split(",")]])
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
    rows = relaydata.read_csv_rows(attestations, ("slot", "attestor_count", "committee_size"))
    try:
        for line, (slot, count, committee) in rows:
            share = analytics.attestation_share(
                int(count) * uniform_gwei, int(committee) * uniform_gwei
            )
            out_rows.append((int(slot), share, analytics.reorg_vulnerable(share)))
    except (ValueError, OverflowError, analytics.AnalyticsError) as exc:
        raise DataError(f"{attestations}, line {line}: {exc}")
    out_rows.sort()
    relaydata.write_csv(out, "slot,share,vulnerable", out_rows)
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
    rows = relaydata.read_csv_rows(status, ("slot", "block_hash", "status"))
    try:
        for line, (slot, block_hash, st) in rows:
            if st == analytics.STATUS_MISSED:
                blocks.append({"arrival_ms": None, "status": st})
                continue
            key = (int(slot), block_hash)
            if key not in arrival:
                raise DataError(f"{status}, line {line}: no bid arrival for block {key}")
            blocks.append({"arrival_ms": arrival[key], "status": st})
    except ValueError as exc:
        raise DataError(f"{status}, line {line}: {exc}")
    try:
        report = analytics.orphan_comparison(blocks)
    except analytics.AnalyticsError as exc:
        raise DataError(f"{status}: {exc}")
    relaydata.write_csv(
        out,
        "orphaned_count,missed_count,median_orphaned_arrival_ms,"
        "median_nonorphaned_arrival_ms,late_nonorphaned_count,considered_count",
        [astuple(report)],
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
    per_block = []
    rows = relaydata.read_csv_rows(blocks, ("epoch", "slot", "mev_wei", "proposal_gwei"))
    try:
        for line, (epoch, _slot, mev_wei, proposal_gwei) in rows:
            per_block.append({"epoch": int(epoch), "mev_eth": int(mev_wei) / 1e18,
                              "proposal_eth": int(proposal_gwei) / 1e9})
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{blocks}, line {line}: {exc}")
    if not per_block:
        raise DataError(f"{blocks}: no reward rows")
    result = rewards.compare_rewards(per_block)
    relaydata.write_csv(
        out,
        "epoch,median_mev_eth,median_proposal_eth",
        ((epoch, m, p) for epoch, (m, p) in result.per_epoch.items()),
    )
    summary_path = str(out) + ".summary.csv"
    relaydata.write_csv(
        summary_path,
        "median_mev_eth,median_proposal_eth,mev_share_of_total",
        [(result.median_mev_eth, result.median_proposal_eth, result.mev_share_of_total)],
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
    config = _sim_config(_load_config(config_path, (SimConfig, PayoffModel), seed=seed))
    metrics = simulate(config).metrics
    relaydata.write_csv(out, ",".join(f.name for f in fields(RunMetrics)), [astuple(metrics)])
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
    doc = _load_config(config_path, (SimConfig, PayoffModel, SweepConfig), seed=seed, jobs=jobs)
    grid = _schema(SweepConfig, doc)
    base = _sim_config(doc)
    rows, errors = sweep(grid, base)
    relaydata.write_csv(out, SWEEP_CSV_HEADER, rows)
    _write_manifest(out, "sim sweep", config_path, base.seed, [out])
    if errors:
        for key, message in sorted(errors.items()):
            click.echo(f"cell {key} failed: {message}", err=True)
        raise DataError(f"{len(errors)} sweep cell(s) failed")
    if verbose:
        click.echo(f"{len(rows)} cells x {grid.seeds} seeds written to {out}", err=True)


def main(argv=None) -> int:
    """Entry point mapping error classes to exit codes instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.UsageError, simnet.TopologyError) as exc:
        click.echo(f"error: {exc.format_message() if hasattr(exc, 'format_message') else exc}", err=True)
        return EXIT_USAGE
    except (DataError, relaydata.IngestError, analytics.AnalyticsError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    except MemoryError as exc:
        click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
