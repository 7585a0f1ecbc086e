"""Benchmark of timinggames: one workload per process, one call at a time.

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from spans around calls into each module.  See README.md.
"""

import time

START = time.perf_counter()  # before any other import, so set-up counts them

import os

# One caller, one core: keep numerical libraries from starting thread pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from reference import CheckError, self_test
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("simnet", "consensus", "waitinggame", "relaydata", "analytics", "rewards", "cli")
SETUP_PROBES = 4  # extra set-ups, each in a fresh interpreter


def import_workload(name: str, seed: int):
    """Import the program from this checkout's ``src`` and build the workload."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if name == "bid-pipeline":
            import bids as module

            workload = module.BidWorkload(name, seed)
        else:
            import sims as module

            workload = module.SimWorkload(name, seed)
    except ImportError as exc:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {exc}")
    import timinggames

    if Path(timinggames.__file__).resolve().parent != ROOT / "src" / "timinggames":
        sys.exit(f"timinggames was imported from {timinggames.__file__}, not this checkout")
    return workload


def run_round(workload, records, layers=None) -> tuple:
    """One whole round of the workload's operations.

    Returns the round's wall time and its busy time, the part spent in the
    program's calls: the checks of the outputs are not in it.
    """
    if layers is not None:
        layers.install()
    begin = time.perf_counter()
    busy = 0.0
    try:
        for op in workload.ops():
            t0 = time.perf_counter()
            result = workload.run(op, None if layers is None else layers.tracer)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            try:
                failed = workload.check(op, result)
            except CheckError:
                records.append((op, elapsed, True))
                raise
            records.append((op, elapsed, failed))
    finally:
        if layers is not None:
            layers.tracer.uninstall()
    return time.perf_counter() - begin, busy


def src_lines() -> dict:
    counts = {}
    for module in MODULES:
        text = (ROOT / "src" / "timinggames" / f"{module}.py").read_text()
        lines = [ln.strip() for ln in text.splitlines()]
        counts[f"{module}.src_lines"] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    return counts


def setup_probe(name: str) -> float:
    """Set-up time of a fresh interpreter: start of this file to ready."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if out.returncode != 0:
        sys.exit(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1])


def measure(args) -> dict:
    workload = import_workload(args.workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - START)
        return {}
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    records: list = []
    correct = True
    try:
        t0 = time.perf_counter()
        workload.prepare(workdir)
        generation_s = time.perf_counter() - t0
        setup = [time.perf_counter() - START - generation_s]

        layers = None
        if args.trace:
            from layers import Layers

            layers = Layers(Tracer())
        walls = {False: [], True: []}
        busy = {False: [], True: []}
        traced = False
        begin = time.perf_counter()
        # Another round starts while its expected midpoint falls inside the
        # measuring time, so a run lasts --seconds to within half a round.
        # A traced run alternates untraced and traced rounds, at least one of
        # each; the difference of their medians is the tracing overhead.
        while True:
            rounds = walls[False] + walls[True]
            elapsed = time.perf_counter() - begin
            if (
                len(rounds) >= workload.min_rounds
                and elapsed + statistics.mean(rounds) / 2 >= args.seconds
                and (walls[True] or not args.trace)
            ):
                break
            wall, program = run_round(workload, records, layers if traced else None)
            walls[traced].append(wall)
            busy[traced].append(program)
            traced = bool(args.trace) and not traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = self_test()
        if problems:
            raise CheckError("reference self-test: " + "; ".join(problems))
    except CheckError as exc:
        print(f"{args.workload}: CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for _, _, f in records if f)
    if failed and correct and hasattr(workload, "note"):
        print(f"{args.workload}: {workload.note()}", file=sys.stderr)
    metrics = {}
    if correct:
        if args.trace:
            metrics = layers.metrics()
            metrics.update(src_lines())
            metrics["trace.overhead_s"] = statistics.median(busy[True]) - statistics.median(
                busy[False]
            )
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            layers.tracer.write(results / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            # Work over the whole run's busy time: the host's speed drifts
            # smoothly over seconds, which a mean over the run averages out
            # better than the median round does.
            items = workload.items_per_round * len(busy[False])
            metrics = {"items_per_s": items / sum(busy[False])}
            setup += [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": with_units(metrics),
    }


def with_units(values: dict) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"{name}: exit code {out.returncode}")
        result = json.loads(lines[-1])
        print(name, json.dumps(result))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else measure(args)
    if args.setup_probe:
        return 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
