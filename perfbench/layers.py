"""Per-layer metrics: spans around calls into each module, from a traced run.

``Layers.install`` wraps the same functions whatever the workload, so every
traced run reports every per-layer metric.  A layer the workload never
calls reads 0: the simulations make no call into ``relaydata``,
``analytics``, ``rewards`` or ``cli``, and the bid pipeline none into
``simnet``, ``consensus`` or ``waitinggame``.

Span times are totals over the traced rounds, divided by the number of
``simulate`` calls or of bid-pipeline rounds (``cli.ingest`` spans).  The
``cli.<stage>`` spans come from the bid workload, which opens one around
each ``cli.main`` call.
"""

from __future__ import annotations

import statistics

from timinggames import analytics, relaydata, rewards, simnet, waitinggame

BID_FUNCTIONS = (
    (relaydata, ("load_bids", "dedup_within_relay", "dedup_across_relays",
                 "duplicate_stats", "write_bids_csv", "read_bids_csv")),
    (analytics, ("residualize", "fit_marginal_value", "classify_winner",
                 "unrealized_value", "attestation_share", "reorg_vulnerable",
                 "orphan_comparison")),
    (rewards, ("compare_rewards",)),
)
# Records handled per call, counted where the work happens.
RECORDS = {
    "relaydata.load_bids": lambda args, result: len(result[0]) + result[1],
    "relaydata.dedup_within_relay": lambda args, result: len(args[0]),
    "relaydata.dedup_across_relays": lambda args, result: len(args[0]),
    "relaydata.read_bids_csv": lambda args, result: len(result),
}
CLI_STAGES = ("ingest", "regress", "winners", "orphans", "shares", "rewards")


def _per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


class Layers:
    def __init__(self, tracer):
        self.tracer = tracer
        self.records = dict.fromkeys(RECORDS, 0)
        self.engines: list = []

    def install(self) -> None:
        wrap = self.tracer.wrap
        # Functions a caller imported by name are wrapped where it looks them up.
        wrap(waitinggame, "simulate", "waitinggame.simulate")
        wrap(waitinggame, "generate_er_graph", "simnet.generate_er_graph")
        wrap(simnet.EventEngine, "run", "simnet.EventEngine.run", self._keep_engine)
        wrap(simnet.EventEngine, "publish_block", "simnet.EventEngine.publish_block")
        wrap(simnet.EventEngine, "publish_attestation", "simnet.EventEngine.publish_attestation")
        handlers = waitinggame._ChainHandlers
        wrap(handlers, "on_slot_start", "waitinggame.on_slot_start")
        wrap(handlers, "on_attest_deadline", "waitinggame.on_attest_deadline")
        wrap(waitinggame, "head_from_arrays", "consensus.head_from_arrays")
        wrap(waitinggame, "mainchain", "consensus.mainchain")
        # cli looks these up on their modules.
        for module, names in BID_FUNCTIONS:
            for attr in names:
                name = f"{module.__name__.split('.')[-1]}.{attr}"
                wrap(module, attr, name, self._counter(name))

    def _counter(self, name: str):
        count = RECORDS.get(name)
        if count is None:
            return None

        def on_return(args, result):
            self.records[name] += count(args, result)

        return on_return

    def _keep_engine(self, args, _result) -> None:
        engine = args[0]
        state = engine.block_seen, engine.block_arrival, engine.lm_slot, engine.lm_target
        self.engines.append(
            (engine.topology, engine.gossip, engine.end_time, sum(a.nbytes for a in state))
        )

    def metrics(self) -> dict:
        summary = self.tracer.summary()

        def calls(name):
            return summary.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return summary.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return summary.get(name, (0, 0.0, 0.0))[2]

        runs = calls("waitinggame.simulate")
        rounds = calls("cli.ingest")
        # Interactions are computed, not counted: every ordered adjacent pair
        # carries one clock per message class, each firing once per tau.
        interactions = sum(
            len(topology.directed_pairs())
            * end_time
            * (1.0 / gossip.tau_block + 1.0 / gossip.tau_attestation)
            for topology, gossip, end_time, _ in self.engines
        )
        simulate_end = {}
        after_run = 0.0
        for i, (name, _, end, _) in enumerate(self.tracer.spans):
            if name == "waitinggame.simulate":
                simulate_end[i] = end
        for name, _, end, parent in self.tracer.spans:
            if name == "simnet.EventEngine.run":
                after_run += simulate_end[parent] - end
        head = "consensus.head_from_arrays"
        dedup_s = total("relaydata.dedup_within_relay") + total("relaydata.dedup_across_relays")
        analyze = ("winners", "orphans", "shares", "rewards")
        return {
            "simnet.topology_s": _per(total("simnet.generate_er_graph"), runs),
            "simnet.engine_s": _per(total("simnet.EventEngine.run"), runs),
            "simnet.gossip_s": _per(own("simnet.EventEngine.run"), runs),
            "simnet.interactions_per_s": _per(interactions, own("simnet.EventEngine.run")),
            "simnet.state_mb": (
                statistics.mean(e[3] for e in self.engines) / 2**20 if self.engines else 0.0
            ),
            "consensus.head_calls": _per(calls(head), runs),
            "consensus.head_us": _per(total(head), calls(head)) * 1e6,
            "consensus.mainchain_s": _per(total("consensus.mainchain"), runs),
            "waitinggame.deadline_s": _per(own("waitinggame.on_attest_deadline"), runs),
            "waitinggame.slot_start_s": _per(own("waitinggame.on_slot_start"), runs),
            "waitinggame.metrics_s": _per(after_run, runs),
            "relaydata.parse_bids_per_s": _per(
                self.records["relaydata.load_bids"], total("relaydata.load_bids")
            ),
            "relaydata.dedup_bids_per_s": _per(
                self.records["relaydata.dedup_within_relay"], dedup_s
            ),
            "relaydata.dupstats_s": _per(total("relaydata.duplicate_stats"), rounds),
            "relaydata.csv_write_s": _per(total("relaydata.write_bids_csv"), rounds),
            "relaydata.csv_read_rows_per_s": _per(
                self.records["relaydata.read_bids_csv"], total("relaydata.read_bids_csv")
            ),
            "analytics.residualize_s": _per(total("analytics.residualize"), rounds),
            "analytics.classify_slots_per_s": _per(
                calls("analytics.classify_winner"), total("analytics.classify_winner")
            ),
            "analytics.orphan_comparison_s": _per(total("analytics.orphan_comparison"), rounds),
            "rewards.compare_s": _per(total("rewards.compare_rewards"), rounds),
            "cli.ingest_s": _per(total("cli.ingest"), rounds),
            "cli.regress_s": _per(total("cli.regress"), rounds),
            "cli.analyze_s": _per(sum(total(f"cli.{a}") for a in analyze), rounds),
            "cli.overhead_s": _per(sum(own(f"cli.{a}") for a in CLI_STAGES), rounds),
        }
