"""Simulator workloads: one ``waitinggame.simulate`` call at a time.

A round runs each of the workload's configurations once.  Every run is
checked against properties recomputed here from the run's own tree,
strategy assignment and main chain, and every repetition of a
configuration must reproduce the first one exactly.
"""

from __future__ import annotations

import numpy as np

from timinggames import consensus, waitinggame

from reference import CheckError

SLOT_SECONDS = 12.0
GRID = dict(n=128, mean_degree=8.0, duration=1000.0)

# Cells are (x_d, t_d) pairs on top of the base configuration.  Each cell
# runs with its own seed, so a cell listed twice samples another network.
WORKLOADS = {
    # The acceptance grid's configuration, below (t_d = 8) and above
    # (t_d = 11) the phase transition, plus a minority of delayers.
    "sim-grid": (GRID, [(1.0, 8.0), (1.0, 11.0), (0.25, 10.0)]),
    # A deep, bushy tree: fork choice walks every block on each call.
    "sim-long-chain": (dict(n=16, mean_degree=4.0, duration=6000.0), [(1.0, 10.0)] * 2),
    # Many nodes, one slot each: topology sampling and the n x n tables
    # matter.  About a third of all networks at this size need three or more
    # sampling attempts, which cost time and memory, so a round samples eight
    # networks to show that cost in nearly every run.
    "sim-wide": (
        dict(n=2048, mean_degree=8.0, duration=12.0),
        [(0.0, 0.0), (0.5, 10.0)] * 4,
    ),
}


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_run(config, out) -> None:
    """Raise CheckError unless ``out`` is consistent with ``config``."""
    m = out.metrics
    tree = out.tree
    chain = out.mainchain_ids
    n_blocks = int(config.duration // SLOT_SECONDS)
    problems = []
    if m.b_count != n_blocks or len(tree) - 1 != n_blocks:
        problems.append(f"|B|={m.b_count}, tree holds {len(tree) - 1}, want {n_blocks}")
    if sorted(tree.slot[1:]) != list(range(n_blocks)):
        problems.append("blocks are not one per slot")

    prev = consensus.GENESIS_ID
    for b in chain:
        if tree.parent[b] != prev or (prev and tree.slot[b] <= tree.slot[prev]):
            problems.append(f"main chain breaks at block {b}")
            break
        prev = b
    if m.m_count != len(chain) or (n_blocks and m.mu != len(chain) / n_blocks):
        problems.append(f"|M|={m.m_count}, mu={m.mu} for a chain of {len(chain)}")

    delayers = out.assignment.delayers
    if len(delayers) != int(round(config.x_d * config.n)):
        problems.append(f"{len(delayers)} delayers for x_d={config.x_d}")
    on_chain = set(chain)
    theta = sum(
        1 for b in range(1, len(tree)) if tree.proposer[b] in delayers and b not in on_chain
    )
    if m.theta_d != theta or not 0 <= theta <= m.b_count - m.m_count:
        problems.append(f"theta_d={m.theta_d}, recounted {theta}")
    if config.x_d == 0 and m.theta_d != 0:
        problems.append("theta_d is not 0 without delayers")

    base = config.payoff.base_value_eth
    lam = config.payoff.lambda_eth_per_ms
    honest = delayer = 0.0
    previous_release = 0.0
    for b in sorted(range(1, len(tree)), key=lambda b: (tree.release_time[b], b)):
        value = base + lam * (tree.release_time[b] - previous_release) * 1000.0
        previous_release = tree.release_time[b]
        if b in on_chain:
            if tree.proposer[b] in delayers:
                delayer += value
            else:
                honest += value
    if not (_close(m.payoff_honest_eth, honest) and _close(m.payoff_delayer_eth, delayer)):
        problems.append(
            f"payoffs {m.payoff_honest_eth!r}/{m.payoff_delayer_eth!r}, "
            f"recounted {honest!r}/{delayer!r}"
        )
    if n_blocks and m.m_count == m.b_count:
        telescoped = base * m.m_count + lam * 1000.0 * max(tree.release_time)
        if not _close(m.payoff_total_eth, telescoped):
            problems.append(f"payoff total {m.payoff_total_eth!r}, telescoped {telescoped!r}")
    if problems:
        raise CheckError(f"x_d={config.x_d} t_d={config.t_d} seed={config.seed}: " + "; ".join(problems))


class SimWorkload:
    min_rounds = 2  # a second round checks that repetitions are identical

    def __init__(self, name: str, seed: int):
        base, cells = WORKLOADS[name]
        self.configs = []
        for i, (x_d, t_d) in enumerate(cells):
            run_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            self.configs.append(waitinggame.SimConfig(x_d=x_d, t_d=t_d, seed=run_seed, **base))
        # Simulated slots per round, the work behind items_per_s.
        self.items_per_round = sum(int(c.duration // SLOT_SECONDS) for c in self.configs)
        self._first: dict = {}

    def prepare(self, workdir) -> None:
        pass

    def ops(self):
        return [(i, config) for i, config in enumerate(self.configs)]

    def run(self, op, tracer=None):
        # Looked up on the module so a traced run's wrapper is the one called.
        return waitinggame.simulate(op[1])

    def check(self, op, out) -> bool:
        """True when the operation failed; raises CheckError on a wrong output."""
        index, config = op
        check_run(config, out)
        fingerprint = (out.metrics, list(out.mainchain_ids))
        first = self._first.setdefault(index, fingerprint)
        if fingerprint != first:
            raise CheckError(f"repetition of config {index} differs: {out.metrics} vs {first[0]}")
        return False
