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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .consensus import GENESIS_ID, BlockTree, head_from_arrays, mainchain
from .simnet import EventEngine, GossipConfig, Topology, generate_er_graph

DEFAULT_LAMBDA_ETH_PER_MS = 5.71e-6


@dataclass(frozen=True)
class StrategyAssignment:
    n: int
    x_d: float
    delayers: frozenset
    seed: int | None = None

    def is_delayer(self, validator: int) -> bool:
        return validator in self.delayers


@dataclass(frozen=True)
class DelayPolicy:
    t_d: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t_d <= 12.0:
            raise ValueError("t_d must lie in [0, 12]")


@dataclass(frozen=True)
class PayoffModel:
    base_value_eth: float = 0.0
    lambda_eth_per_ms: float = DEFAULT_LAMBDA_ETH_PER_MS


@dataclass(frozen=True)
class SimConfig:
    n: int = 128
    mean_degree: float = 8.0
    tau_block: float = 3.0
    tau_attestation: float = 3.0
    duration: float = 1000.0
    x_d: float = 0.0
    t_d: float = 0.0
    seed: int = 0
    proposer_boost: bool = False
    payoff: PayoffModel = field(default_factory=PayoffModel)
    record_trace: bool = False

    def __post_init__(self):
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
    trace: list | None


def assign_strategies(n: int, x_d: float, seed) -> StrategyAssignment:
    """Uniform sample of round(x_d * n) delayer indices, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= x_d <= 1.0:
        raise ValueError("x_d must lie in [0, 1]")
    size = int(round(x_d * n))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=size, replace=False) if size else np.empty(0, int)
    return StrategyAssignment(
        n=n,
        x_d=x_d,
        delayers=frozenset(int(i) for i in chosen),
        seed=seed if isinstance(seed, int) else None,
    )


def release_time(
    proposer: int, slot_start: float, policy: DelayPolicy, assignment: StrategyAssignment
) -> float:
    return slot_start + (policy.t_d if assignment.is_delayer(proposer) else 0.0)


def mev_payoff(interval_since_previous_release_ms: float, model: PayoffModel) -> float:
    if interval_since_previous_release_ms < 0:
        raise ValueError("interval must be non-negative")
    return model.base_value_eth + model.lambda_eth_per_ms * interval_since_previous_release_ms


def mainchain_rate(m_count: int, b_count: int) -> float | None:
    """Eq-style ratio of mainchain to produced blocks; None when nothing was produced."""
    if b_count == 0:
        return None
    return m_count / b_count


def delayer_orphan_count(tree: BlockTree, mainchain_set, delayers):
    """(count, normalized) of delayer-proposed blocks left off the mainchain."""
    orphaned = 0
    proposed = 0
    for b in range(1, len(tree)):
        if tree.proposer[b] in delayers:
            proposed += 1
            if b not in mainchain_set:
                orphaned += 1
    normalized = orphaned / proposed if proposed else None
    return orphaned, normalized


class _ChainHandlers:
    """Consensus-side event handlers driving one simulation run."""

    def __init__(self, n, assignment, policy, proposer_rng, boost=False):
        self.n = n
        self.assignment = assignment
        self.policy = policy
        self.rng = proposer_rng
        self.boost = boost  # kept for sensitivity runs; off by default
        self.tree = BlockTree()
        self.proposer_of_slot: list = []
        self.block_of_slot: list = []
        self.final_table: dict = {}

    def on_slot_start(self, engine: EventEngine, t: float, slot: int) -> None:
        proposer = int(self.rng.integers(self.n))
        self.proposer_of_slot.append(proposer)
        head = head_from_arrays(
            self.tree.parent,
            self.tree.children,
            engine.blocks[proposer],
            engine.votes[proposer],
            engine.vote_slots,
            engine.vote_settled,
            engine.n_validators,
        )
        release_at = release_time(proposer, t, self.policy, self.assignment)
        block_id = self.tree.add(slot, proposer, head, release_at)
        self.block_of_slot.append(block_id)
        if release_at == t:
            engine.publish_block(proposer, block_id, t)
        else:
            engine.schedule_release(release_at, proposer, block_id)

    def on_attest_deadline(self, engine: EventEngine, t: float, slot: int) -> None:
        proposer = self.proposer_of_slot[slot]
        parent = self.tree.parent
        children = self.tree.children
        blocks = engine.blocks
        votes = engine.votes
        # By the deadline most nodes share one view; a vote published in
        # the loop changes only its own node's view, so a head computed for
        # a view holds for every node with that view.
        heads: dict = {}
        for v in range(self.n):
            if v == proposer:
                continue
            view = (blocks[v], votes[v])
            target = heads.get(view)
            if target is None:
                target = heads[view] = head_from_arrays(
                    parent,
                    children,
                    blocks[v],
                    votes[v],
                    engine.vote_slots,
                    engine.vote_settled,
                    engine.n_validators,
                )
            engine.publish_attestation(v, v, slot, target, t)
            self.final_table[v] = (slot, target)


def simulate(config: SimConfig) -> SimulationOutput:
    """Full pipeline: topology, strategies, event engine, metrics."""
    ss = np.random.SeedSequence(config.seed)
    topo_ss, prop_ss, strat_ss, gossip_ss = ss.spawn(4)
    topology = generate_er_graph(
        config.n, config.mean_degree, seed=int(topo_ss.generate_state(1)[0])
    )
    assignment = assign_strategies(config.n, config.x_d, strat_ss)
    policy = DelayPolicy(t_d=config.t_d)
    handlers = _ChainHandlers(
        config.n,
        assignment,
        policy,
        np.random.default_rng(prop_ss),
        boost=config.proposer_boost,
    )
    engine = EventEngine(
        topology,
        GossipConfig(config.tau_block, config.tau_attestation),
        handlers,
        config.duration,
        gossip_ss,
        record_trace=config.record_trace,
    )
    # Everyone starts from genesis.
    for v in range(config.n):
        engine.publish_block(v, GENESIS_ID, 0.0)
    trace = engine.run()

    tree = handlers.tree
    chain = mainchain(tree, handlers.final_table)
    chain_set = set(chain)
    b_count = len(tree) - 1
    m_count = len(chain)
    theta, theta_norm = delayer_orphan_count(tree, chain_set, assignment.delayers)

    payoff_honest = 0.0
    payoff_delayer = 0.0
    prev_release = 0.0  # genesis
    order = sorted(range(1, len(tree)), key=lambda b: (tree.release_time[b], b))
    for b in order:
        interval_ms = (tree.release_time[b] - prev_release) * 1000.0
        prev_release = tree.release_time[b]
        if b in chain_set:
            value = mev_payoff(interval_ms, config.payoff)
            if tree.proposer[b] in assignment.delayers:
                payoff_delayer += value
            else:
                payoff_honest += value

    metrics = RunMetrics(
        b_count=b_count,
        m_count=m_count,
        mu=mainchain_rate(m_count, b_count),
        theta_d=theta,
        theta_d_normalized=theta_norm,
        payoff_honest_eth=payoff_honest,
        payoff_delayer_eth=payoff_delayer,
    )
    return SimulationOutput(
        metrics=metrics,
        tree=tree,
        mainchain_ids=chain,
        assignment=assignment,
        trace=trace,
    )


def run_simulation(config: SimConfig) -> RunMetrics:
    return simulate(config).metrics


def derive_cell_seed(master_seed: int, x_index: int, t_index: int, replicate: int) -> int:
    """Stable per-replicate stream: SeedSequence over the four indices."""
    ss = np.random.SeedSequence([master_seed, x_index, t_index, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class CellStats:
    mu: np.ndarray
    theta: np.ndarray
    theta_norm: np.ndarray  # nan where undefined
    payoff_honest: np.ndarray
    payoff_delayer: np.ndarray

    @property
    def mu_mean(self):
        return float(np.mean(self.mu))

    @property
    def mu_std(self):
        return float(np.std(self.mu, ddof=1)) if len(self.mu) > 1 else 0.0

    @property
    def mu_stderr(self):
        return self.mu_std / math.sqrt(len(self.mu))

    @property
    def theta_mean(self):
        return float(np.mean(self.theta))

    @property
    def theta_std(self):
        return float(np.std(self.theta, ddof=1)) if len(self.theta) > 1 else 0.0

    @property
    def theta_stderr(self):
        return self.theta_std / math.sqrt(len(self.theta))

    @property
    def theta_norm_mean(self):
        vals = self.theta_norm[~np.isnan(self.theta_norm)]
        return float(np.mean(vals)) if len(vals) else float("nan")


@dataclass
class SweepResult:
    x_values: list
    t_values: list
    seeds: int
    cells: dict  # (x_index, t_index) -> CellStats
    errors: dict  # (x_index, t_index) -> str

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(
                "x_d,t_d,seed_count,mu_mean,mu_std,theta_mean,theta_std,"
                "theta_norm_mean,payoff_honest_mean,payoff_delayer_mean\n"
            )
            for ix, x in enumerate(self.x_values):
                for it, t in enumerate(self.t_values):
                    cell = self.cells.get((ix, it))
                    if cell is None:
                        continue
                    fh.write(
                        f"{x!r},{t!r},{self.seeds},{cell.mu_mean!r},{cell.mu_std!r},"
                        f"{cell.theta_mean!r},{cell.theta_std!r},"
                        f"{cell.theta_norm_mean!r},"
                        f"{float(np.mean(cell.payoff_honest))!r},"
                        f"{float(np.mean(cell.payoff_delayer))!r}\n"
                    )


def _run_for_sweep(args):
    base_config, x, t, seed = args
    cfg = replace(base_config, x_d=x, t_d=t, seed=seed, record_trace=False)
    return run_simulation(cfg)


def _run_for_sweep_safe(args):
    # Worker-side wrapper so a failing cell cannot kill the pool.
    try:
        return ("ok", _run_for_sweep(args))
    except Exception as exc:  # noqa: BLE001 - cell-level isolation
        return ("err", str(exc))


def sweep(
    x_values,
    t_values,
    seeds: int,
    base_config: SimConfig,
    *,
    jobs: int = 1,
) -> SweepResult:
    """Seed-averaged metrics over the (x_d, t_d) grid.

    Replicate r of cell (ix, it) runs with a sub-seed derived from the base
    config's seed and the three indices, so results are reproducible and
    independent across cells.  A failing run aborts its cell (recorded in
    ``errors``); other cells proceed.
    """
    if not x_values or not t_values:
        raise ValueError("grid must be non-empty")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    master = base_config.seed
    tasks = []
    for ix, x in enumerate(x_values):
        for it, t in enumerate(t_values):
            for r in range(seeds):
                tasks.append(((ix, it), (base_config, x, t, derive_cell_seed(master, ix, it, r))))

    results: dict = {}
    errors: dict = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(_run_for_sweep_safe, [t[1] for t in tasks], chunksize=1)
            )
        for (key, _), (status, outcome) in zip(tasks, outcomes):
            if status == "err":
                errors.setdefault(key, outcome)
                results.pop(key, None)
            elif key not in errors:
                results.setdefault(key, []).append(outcome)
    else:
        for key, args in tasks:
            if key in errors:
                continue
            try:
                results.setdefault(key, []).append(_run_for_sweep(args))
            except Exception as exc:  # noqa: BLE001 - cell-level isolation
                errors[key] = str(exc)
                results.pop(key, None)

    cells = {}
    for key, metrics_list in results.items():
        cells[key] = CellStats(
            mu=np.array([m.mu for m in metrics_list], dtype=float),
            theta=np.array([m.theta_d for m in metrics_list], dtype=float),
            theta_norm=np.array(
                [
                    m.theta_d_normalized if m.theta_d_normalized is not None else np.nan
                    for m in metrics_list
                ]
            ),
            payoff_honest=np.array([m.payoff_honest_eth for m in metrics_list]),
            payoff_delayer=np.array([m.payoff_delayer_eth for m in metrics_list]),
        )
    return SweepResult(
        x_values=list(x_values),
        t_values=list(t_values),
        seeds=seeds,
        cells=cells,
        errors=errors,
    )
