"""Golden outputs: the simulator must reproduce recorded runs exactly.

The fixtures under ``tests/golden/`` were last written when each message
class's contacts came to be drawn in windows from their own generator,
which changed every gossip schedule and so every run; before that, when
geometric edge skipping replaced the sampler that drew once per node pair,
which changed every graph.  They pin, bit for bit,
the run metrics, main chains, block trees and block arrival tables (as a
SHA-256 of their bytes) of the default configuration, two wide single-slot
runs, the full event traces of small runs, and the edge
set of an N = 2048 network that needs several sampling attempts.  Any fast
path in ``simnet``, ``consensus`` or ``waitinggame`` must keep them.

Regenerate (only when an output change is intended and documented)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import json
import sys
from pathlib import Path

import pytest
from conftest import gap_er_graph, run_with

from timinggames import simnet
from timinggames.waitinggame import SimConfig

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS_FILE = GOLDEN / "runs.json"
TRACES_FILE = GOLDEN / "traces.json.gz"
GRAPH_FILE = GOLDEN / "er_graph.json"

SEEDS = (0, 1, 2)
X_VALUES = (0.0, 1.0)
T_VALUES = (0.0, 10.0)
WIDE = (  # (seed, x_d, t_d) at N = 2048 over one slot
    (0, 0.0, 0.0),
    (1, 0.5, 10.0),
)
TRACE_N = 16
TRACE_DURATION = 120.0
GRAPH_N = 2048
GRAPH_DEGREE = 8.0


def _grid():
    for seed in SEEDS:
        for x_d in X_VALUES:
            for t_d in T_VALUES:
                yield seed, x_d, t_d


def run_configs() -> dict:
    configs = {}
    for seed, x_d, t_d in _grid():
        configs[f"default/seed={seed}/x_d={x_d}/t_d={t_d}"] = SimConfig(
            seed=seed, x_d=x_d, t_d=t_d
        )
    for seed, x_d, t_d in WIDE:
        configs[f"wide/seed={seed}/x_d={x_d}/t_d={t_d}"] = SimConfig(
            n=2048, duration=12.0, seed=seed, x_d=x_d, t_d=t_d
        )
    return configs


def trace_configs() -> dict:
    return {
        f"trace/seed={seed}/x_d={x_d}/t_d={t_d}": SimConfig(
            n=TRACE_N, duration=TRACE_DURATION, seed=seed, x_d=x_d, t_d=t_d
        )
        for seed, x_d, t_d in _grid()
    }


def run_record(config: SimConfig) -> dict:
    out, engine, _ = run_with(config)
    return {
        "metrics": dataclasses.asdict(out.metrics),
        "mainchain_ids": list(out.mainchain_ids),
        "parent": list(out.tree.parent),
        "block_arrival_sha256": hashlib.sha256(engine.block_arrival.tobytes()).hexdigest(),
    }


@functools.cache
def recorded_run(key: str) -> dict:
    return run_record(run_configs()[key])


def trace_rows(config: SimConfig) -> list:
    return [
        [repr(float(time)), kind, int(node), detail]
        for time, kind, node, detail in run_with(config)[1].trace()
    ]


def sampling_attempts(n: int, mean_degree: float, seed: int) -> int:
    """Attempts ``generate_er_graph`` makes, replayed one gap at a time."""
    return gap_er_graph(n, mean_degree, seed)[0]


def edge_digest(edges) -> str:
    text = ";".join(f"{u},{v}" for u, v in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()


def graph_record(seed: int) -> dict:
    topology = simnet.generate_er_graph(GRAPH_N, GRAPH_DEGREE, seed)
    return {
        "n": GRAPH_N,
        "mean_degree": GRAPH_DEGREE,
        "seed": seed,
        "attempts": sampling_attempts(GRAPH_N, GRAPH_DEGREE, seed),
        "edge_count": len(topology.u),
        "edge_sha256": edge_digest(zip(topology.u.tolist(), topology.v.tolist())),
    }


def write_fixtures() -> None:
    GOLDEN.mkdir(exist_ok=True)
    runs = {key: run_record(config) for key, config in run_configs().items()}
    RUNS_FILE.write_text(json.dumps(runs, sort_keys=True) + "\n", encoding="utf-8")
    traces = {key: trace_rows(config) for key, config in trace_configs().items()}
    # A fixed mtime keeps the archive byte-identical across rewrites.
    with open(TRACES_FILE, "wb") as raw, gzip.GzipFile(
        fileobj=raw, mode="wb", compresslevel=9, mtime=0
    ) as fh:
        fh.write(json.dumps(traces, sort_keys=True).encode())
    seed = next(s for s in range(1000) if sampling_attempts(GRAPH_N, GRAPH_DEGREE, s) >= 2)
    GRAPH_FILE.write_text(json.dumps(graph_record(seed), sort_keys=True) + "\n", encoding="utf-8")


# -- tests --------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_runs():
    return json.loads(RUNS_FILE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_traces():
    with gzip.open(TRACES_FILE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(run_configs()))
def test_run_matches_golden(key, golden_runs):
    got, want = recorded_run(key).copy(), golden_runs[key].copy()
    del got["block_arrival_sha256"], want["block_arrival_sha256"]
    assert got == want


@pytest.mark.parametrize("key", sorted(run_configs()))
def test_block_arrival_matches_golden(key, golden_runs):
    assert recorded_run(key)["block_arrival_sha256"] == golden_runs[key]["block_arrival_sha256"]


@pytest.mark.parametrize("key", sorted(trace_configs()))
def test_trace_matches_golden(key, golden_traces):
    rows = trace_rows(trace_configs()[key])
    want = golden_traces[key]
    assert len(rows) == len(want)
    for got, expected in zip(rows, want):
        assert got == expected
        assert float(got[0]) == float(expected[0])


def test_er_graph_matches_golden():
    want = json.loads(GRAPH_FILE.read_text(encoding="utf-8"))
    assert want["attempts"] >= 2
    assert graph_record(want["seed"]) == want


if __name__ == "__main__":
    write_fixtures()
    sys.exit(0)
