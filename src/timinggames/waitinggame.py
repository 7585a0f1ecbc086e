"""Delay strategies, the full slot-consensus simulation and the sweep harness.

A fraction ``x_d`` of validators are delayers: when selected to propose they
hold their block back and release it ``t_d`` seconds into the slot.  The block
is built (parent chosen) at the slot start in both cases; only the release is
delayed.  Honest proposers release exactly at the slot start.

This fixes how blocks get orphaned.  A delayed block misses its own slot's
4 s attestation deadline once ``t_d`` passes it, and has ``12 - t_d`` seconds
to reach the next proposer.  A proposer that has not seen it builds on the
stale head, so its block forks off against the delayed one; when that
proposer delays too, attesters at its deadline see only the slot s-1 block
and the new block is orphaned.  Orphans therefore scale with the number of
slots that follow a delayer's slot (about ``x_d * |B|``), and delayer
orphans ``Theta^d`` with the slot pairs proposed by two delayers in a row
(about ``x_d**2 * |B|``); the risk per such exposure depends on ``t_d`` and
the network, not on ``x_d``.

``SimConfig`` (with ``PayoffModel``) and ``SweepConfig`` are the one schema
of the simulator's config: their fields are the YAML keys, and they own
every default, type check and range check.  A sweep turns each
(x_d, t_d) cell's ``seeds`` runs straight into one row of its CSV
(``SWEEP_CSV_HEADER``), keeping no table of runs in between.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .consensus import BlockTree, head_from_arrays, mainchain
from .simnet import SLOT_SECONDS, EventEngine, GossipConfig, generate_er_graph

DEFAULT_LAMBDA_ETH_PER_MS = 5.71e-6
# A run's block arrivals, when read, fill an (n, slots + 2) float64 table.
# Configs past this many cells (2 GiB) are refused before anything is
# allocated, so an absurd duration is a config error, not a crash.
MAX_ARRIVAL_CELLS = 2**28
# A run draws about n * mean_degree * duration * (1/tau_block +
# 1/tau_attestation) gossip interactions.  Configs past this many (a tiny
# tau, say) are refused too, so they fail at once instead of running for
# hours.  An N = 8192, 1000 s run at the default taus draws about 4.4e7.
MAX_GOSSIP_DRAWS = 2**35


@dataclass(frozen=True)
class StrategyAssignment:
    delayers: frozenset


def check_number(name: str, value, integral: bool = False):
    """``value`` as a finite float, or as an int when ``integral``.

    Only non-bool real numbers pass; an integral one must have no fraction.
    Anything else raises ``TypeError`` (not a number) or ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if integral and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, not {value!r}")
    if integral:
        if not number.is_integer():
            raise ValueError(f"{name} must be an integer, not {value!r}")
        return int(number)
    return number


def _check_types(config) -> None:
    # Normalize a frozen config's ``int`` and ``float`` fields, and its
    # ``tuple`` fields (lists of floats), in place.  The field types are
    # strings here (``from __future__ import annotations``).
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", "float"):
            value = check_number(f.name, value, f.type == "int")
        elif f.type == "tuple":
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"{f.name} must be a list of numbers, not {value!r}")
            value = tuple(check_number(f"{f.name} entry", v) for v in value)
        else:
            continue
        object.__setattr__(config, f.name, value)


@dataclass(frozen=True)
class PayoffModel:
    base_value_eth: float = 0.0
    lambda_eth_per_ms: float = DEFAULT_LAMBDA_ETH_PER_MS

    def __post_init__(self):
        _check_types(self)


@dataclass(frozen=True)
class SimConfig:
    """One run's parameters.

    The command line reads every field but ``payoff`` (whose own fields are
    top-level keys) from YAML, under the field's name.
    """

    n: int = 128
    mean_degree: float = 8.0
    tau_block: float = 3.0
    tau_attestation: float = 3.0
    duration: float = 1000.0
    x_d: float = 0.0
    t_d: float = 0.0
    seed: int = 0
    payoff: PayoffModel = field(default_factory=PayoffModel)

    def __post_init__(self):
        _check_types(self)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0 < self.mean_degree < self.n:
            raise ValueError("mean_degree must lie in (0, n)")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.x_d <= 1.0:
            raise ValueError("x_d must lie in [0, 1]")
        if not 0.0 <= self.t_d <= 12.0:
            raise ValueError("t_d must lie in [0, 12]")
        if not (self.tau_block > 0 and self.tau_attestation > 0):
            raise ValueError("tau_block and tau_attestation must be positive")
        if self.n * (int(self.duration // SLOT_SECONDS) + 2) > MAX_ARRIVAL_CELLS:
            raise ValueError(f"n x (duration // 12 + 2) must be at most {MAX_ARRIVAL_CELLS}")
        rate = 1.0 / self.tau_block + 1.0 / self.tau_attestation
        if self.n * self.mean_degree * self.duration * rate > MAX_GOSSIP_DRAWS:
            raise ValueError(
                "n x mean_degree x duration x (1/tau_block + 1/tau_attestation) "
                f"must be at most {MAX_GOSSIP_DRAWS}"
            )


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's (x_d, t_d) grid, runs per cell and worker processes: the
    YAML keys that only ``sim sweep`` reads."""

    x_values: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    t_values: tuple = tuple(float(t) for t in range(12))
    seeds: int = 20
    jobs: int = 1

    def __post_init__(self):
        _check_types(self)
        if not (self.x_values and self.t_values):
            raise ValueError("x_values and t_values must not be empty")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass
class RunMetrics:
    b_count: int
    m_count: int
    mu: float | None
    theta_d: int
    theta_d_normalized: float | None
    payoff_honest_eth: float
    payoff_delayer_eth: float

    @property
    def payoff_total_eth(self) -> float:
        return self.payoff_honest_eth + self.payoff_delayer_eth


@dataclass
class SimulationOutput:
    metrics: RunMetrics
    tree: BlockTree
    mainchain_ids: list
    assignment: StrategyAssignment


def assign_strategies(n: int, x_d: float, seed) -> StrategyAssignment:
    """Uniform sample of round(x_d * n) delayer indices, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= x_d <= 1.0:
        raise ValueError("x_d must lie in [0, 1]")
    size = int(round(x_d * n))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=size, replace=False) if size else np.empty(0, int)
    return StrategyAssignment(frozenset(int(i) for i in chosen))


class _ChainHandlers:
    """Consensus-side event handlers driving one simulation run."""

    def __init__(self, n, delayers, t_d, proposers):
        self.n = n
        self.delayers = delayers
        self.t_d = t_d
        self.proposers = proposers  # one node per slot
        self.tree = BlockTree()

    def on_slot_start(self, engine: EventEngine, t: float, slot: int) -> None:
        proposer = self.proposers[slot]
        head = head_from_arrays(
            self.tree.parent,
            self.tree.children,
            engine.blocks[proposer],
            engine.votes[proposer],
            engine.vote_slots,
            engine.vote_settled,
            engine.n_validators,
        )
        release_at = t + self.t_d if proposer in self.delayers else t
        block_id = self.tree.add(slot, proposer, head, release_at)
        engine.schedule_release(release_at, proposer, block_id)

    def on_attest_deadline(self, engine: EventEngine, t: float, slot: int) -> None:
        proposer = self.tree.proposer[slot + 1]  # each slot start adds one block
        parent = self.tree.parent
        children = self.tree.children
        blocks = engine.blocks
        votes = engine.votes
        # By the deadline most nodes share one view, and each view's
        # validators vote for its head in one publish.  A vote changes only
        # its own node's view and adds a vote that no other node holds yet,
        # so no head depends on the publishes before it.  Views publish in
        # the order of their first node, so each slot's targets enter the
        # vote table in the order a loop over the nodes would add them.
        views: dict = {}
        for v in range(self.n):
            if v != proposer:
                views.setdefault((blocks[v], votes[v]), []).append(v)
        for (held, voted), validators in views.items():
            target = head_from_arrays(
                parent,
                children,
                held,
                voted,
                engine.vote_slots,
                engine.vote_settled,
                engine.n_validators,
            )
            engine.publish_attestations(slot, target, validators, t)


def simulate(config: SimConfig) -> SimulationOutput:
    """Full pipeline: topology, strategies, event engine, then the metrics in
    one pass over the blocks in (release time, id) order.

    ``mu`` is |M| / |B| (None with no block).  ``theta_d`` counts the
    delayers' blocks off the main chain, and ``theta_d_normalized`` divides
    it by the blocks they proposed (None when they proposed none).  Each
    main-chain block earns ``base_value_eth + lambda_eth_per_ms`` times the
    ms since the previous release of any block, orphans included, for its
    proposer's group.
    """
    ss = np.random.SeedSequence(config.seed)
    topo_ss, prop_ss, strat_ss, gossip_ss = ss.spawn(4)
    topology = generate_er_graph(
        config.n, config.mean_degree, seed=int(topo_ss.generate_state(1)[0])
    )
    assignment = assign_strategies(config.n, config.x_d, strat_ss)
    # Every slot's proposer at once: the same nodes as one integers(n) call
    # per slot start.
    n_slots = int(config.duration // SLOT_SECONDS)
    proposers = np.random.default_rng(prop_ss).integers(config.n, size=n_slots).tolist()
    handlers = _ChainHandlers(config.n, assignment.delayers, config.t_d, proposers)
    engine = EventEngine(
        topology,
        GossipConfig(config.tau_block, config.tau_attestation),
        handlers,
        config.duration,
        gossip_ss,
    )
    engine.run()

    tree = handlers.tree
    chain = mainchain(tree, engine.vote_slots, engine.vote_settled, engine.n_validators)
    chain_set = set(chain)
    delayers = assignment.delayers
    base, rate = config.payoff.base_value_eth, config.payoff.lambda_eth_per_ms
    payoff = [0.0, 0.0]  # honest, delayer: indexed by "proposed by a delayer"
    proposed = orphaned = 0
    prev_release = 0.0  # genesis
    for b in sorted(range(1, len(tree)), key=lambda b: (tree.release_time[b], b)):
        release = tree.release_time[b]
        delayer = tree.proposer[b] in delayers
        proposed += delayer
        if b in chain_set:
            payoff[delayer] += base + rate * ((release - prev_release) * 1000.0)
        else:
            orphaned += delayer
        prev_release = release
    b_count = len(tree) - 1
    metrics = RunMetrics(
        b_count=b_count, m_count=len(chain), mu=len(chain) / b_count if b_count else None,
        theta_d=orphaned, theta_d_normalized=orphaned / proposed if proposed else None,
        payoff_honest_eth=payoff[0], payoff_delayer_eth=payoff[1],
    )
    return SimulationOutput(metrics, tree, chain, assignment)


def derive_cell_seed(master_seed: int, x_index: int, t_index: int, replicate: int) -> int:
    """Stable per-replicate stream: SeedSequence over the four indices."""
    ss = np.random.SeedSequence([master_seed, x_index, t_index, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


SWEEP_CSV_HEADER = (
    "x_d,t_d,seed_count,mu_mean,mu_std,theta_mean,theta_std,"
    "theta_norm_mean,payoff_honest_mean,payoff_delayer_mean"
)


def _sd(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _cell_row(x, t, runs) -> tuple:
    """One sweep CSV row: the seed-averaged metrics of a cell's runs."""
    mu = np.array([m.mu for m in runs], dtype=float)
    theta = np.array([m.theta_d for m in runs], dtype=float)
    norm = np.array([m.theta_d_normalized for m in runs], dtype=float)  # None -> nan
    norm = norm[~np.isnan(norm)]
    return (
        x, t, len(runs), float(np.mean(mu)), _sd(mu), float(np.mean(theta)), _sd(theta),
        float(np.mean(norm)) if len(norm) else float("nan"),
        float(np.mean([m.payoff_honest_eth for m in runs])),
        float(np.mean([m.payoff_delayer_eth for m in runs])),
    )


def _run_for_sweep_safe(args):
    # Runs in the worker, so a failing cell cannot kill the pool.
    base_config, x, t, seed = args
    try:
        cfg = replace(base_config, x_d=x, t_d=t, seed=seed)
        return ("ok", simulate(cfg).metrics)
    except Exception as exc:  # noqa: BLE001 - cell-level isolation
        return ("err", str(exc) or type(exc).__name__)


def sweep(grid: SweepConfig, base_config: SimConfig) -> tuple[list, dict]:
    """Seed-averaged metrics over the (x_d, t_d) grid: ``(rows, errors)``.

    ``rows`` holds one ``SWEEP_CSV_HEADER`` row per cell that ran, in grid
    order.  Replicate r of cell (ix, it) runs with a sub-seed derived from
    the base config's seed and the three indices, so results are
    reproducible and independent across cells.  A failing run fails its
    cell: the cell's first error in task order goes to ``errors`` under
    ``(ix, it)`` instead of a row, and other cells proceed.  Runs go to
    min(jobs, runs, CPU count) worker processes, or run here when that is 1;
    a worker that dies fails every run that has no outcome yet.
    """
    cells = [(ix, x, it, t) for ix, x in enumerate(grid.x_values)
             for it, t in enumerate(grid.t_values)]
    args = [
        (base_config, x, t, derive_cell_seed(base_config.seed, ix, it, r))
        for ix, x, it, t in cells
        for r in range(grid.seeds)
    ]
    workers = min(grid.jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which a run in this
        # process never needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        outcomes = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for outcome in pool.map(_run_for_sweep_safe, args):
                    outcomes.append(outcome)
            except BrokenProcessPool as exc:  # a worker died: fail what has no outcome
                outcomes += [("err", str(exc))] * (len(args) - len(outcomes))
    else:
        outcomes = map(_run_for_sweep_safe, args)
    outcomes = iter(outcomes)
    rows, errors = [], {}
    for ix, x, it, t in cells:
        runs = list(islice(outcomes, grid.seeds))  # this cell's replicates, in order
        failures = [outcome for status, outcome in runs if status == "err"]
        if failures:
            errors[ix, it] = failures[0]
        else:
            rows.append(_cell_row(x, t, [outcome for _, outcome in runs]))
    return rows, errors
