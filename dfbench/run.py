#!/usr/bin/env python3
"""DATAFLASKS benchmark: one workload, one seed, one command.

    python3 dfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--seed`` fixes a few sub-seeds (``Workload.subseeds``); a round runs
the workload (deploy, converge, drive, check) once per sub-seed, and
rounds repeat while ``--seconds`` of wall time allow, at least once.
Averaging over sub-seeds keeps the figures of one seed close to those
of the next; repeating a sub-seed checks that it replays exactly.

* ``--trace 0`` — every end-to-end metric, from untraced repetitions:
  setup is the median of every setup, the wall and message rates are
  sums over the sub-seeds (wall: median over rounds) per simulated
  second;
* ``--trace 1`` — every per-layer metric, from the first sub-seed, as
  pairs of one untraced and one traced repetition (see ``ledger.py``).
  The aggregated spans and the client-op spans of the last traced
  repetition are written to ``.bench_build/dfbench/``.

The run fails (exit 1, ``"correct": false``) when the overlay has not
converged or a slice is empty when measurement starts, when an acked
write has no live holder at the end, when the deterministic fingerprint
(events, sends, deliveries per message type, re-home floods) differs
between repetitions of a sub-seed — traced or not — or from an earlier
process run of the same source tree, workload and seed, or when the
per-layer self times cover less than 95% of the traced event-loop wall.
Human-readable tables go first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "dfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("bench", "tiny"),
        default="bench",
        help="tiny: the same workload shrunk to run in about a second",
    )
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program's and the benchmark's source, so a stored
    fingerprint is only compared against runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    h.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_stored_fingerprint(key: str, digest: str) -> str:
    """Compare ``digest`` with the one an earlier process stored under
    ``key`` (storing it when there is none); returns an error or ''."""
    folder = os.path.join(OUT, "fingerprints")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, key)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            stored = f.read().strip()
        if stored != digest:
            return f"fingerprint {digest} differs from {stored} of an earlier run"
        return ""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(digest + "\n")
    os.replace(tmp, path)
    return ""


def subseeds(seed: int, count: int):
    """The sub-seeds one run measures: a fixed function of ``seed``."""
    from repro.sim.rng import derive_seed

    return [derive_seed(seed, f"dfbench.{i}") for i in range(count)]


def run(args: argparse.Namespace):
    """Measure; returns ``(result dict, failures, text lines)``."""
    from ledger import Ledger, handle_edges
    from metrics import (
        CLOSURE_MIN_PCT,
        END_TO_END,
        PER_LAYER,
        end_to_end,
        layer_counts,
        outcomes,
        per_layer,
        tail,
    )
    from pipeline import run_rep
    from workloads import WORKLOADS, build

    workload = WORKLOADS[args.workload]
    seeds = subseeds(args.seed, workload.subseeds)
    if args.trace:
        seeds = seeds[:1]
    specs = [build(args.workload, s, args.scale) for s in seeds]
    edges = handle_edges() if args.trace else None
    # by_seed[i]: the untraced repetitions of sub-seed i, one per round.
    by_seed = [[] for _ in specs]
    traced, failures, lines = [], [], []
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        for reps, spec in zip(by_seed, specs):
            reps.append(run_rep(spec, workload.clients))
            if args.trace:
                ledger = Ledger(edges)
                traced.append((run_rep(spec, workload.clients, ledger), ledger))
        rounds += 1
        spent = perf_counter() - start
        if spent + (perf_counter() - t0) > args.seconds:
            break

    source = source_digest()
    for i, reps in enumerate(by_seed):
        group = reps + ([r for r, _ in traced] if i == 0 else [])
        for rep in group:
            failures.extend(f"sub-seed {i}: {f}" for f in rep.failures)
        digests = sorted({r.digest for r in group})
        if len(digests) > 1:
            failures.append(
                f"sub-seed {i}: fingerprint differs between repetitions: {digests}"
            )
        spec_json = specs[i].to_json(indent=None)
        key = hashlib.sha256((source + spec_json).encode("utf-8")).hexdigest()[:32]
        stored = check_stored_fingerprint(f"{args.workload}-{key}", reps[0].digest)
        if stored:
            failures.append(f"sub-seed {i}: {stored}")

    lines.append(
        f"workload {args.workload} seed {args.seed} scale {args.scale}: "
        f"{len(seeds)} sub-seeds x {rounds} rounds"
        + (f", traced {len(traced)}" if traced else "")
    )
    lines.append(f"  {workload.why}")
    for i, reps in enumerate(by_seed):
        r = reps[0]
        lines.append(
            f"  sub-seed {i}: fingerprint {r.digest}, setup "
            f"{[round(x.setup_s, 3) for x in reps]} s, measured "
            f"{[round(x.wall_s, 3) for x in reps]} s over {r.sim_s:.1f} sim-s, "
            f"{r.events} events; ops {r.completed}/{r.attempted}, failed {r.failed}, "
            f"stale reads {r.stale_reads}/{r.reads}, lost writes {r.lost_writes}"
        )
    first = by_seed[0]
    out = outcomes(first)
    for kind, samples in (
        ("read", first[0].read_latencies),
        ("write", first[0].write_latencies),
    ):
        label, value = tail(samples)
        lines.append(
            f"  sub-seed 0 {kind} latency: n={len(samples)} "
            f"p50={out[f'workload.{kind}_p50_sim_ms']:.2f} sim-ms, tail "
            + (f"{label}={1000 * value:.2f} sim-ms" if label else "n/a (fewer than 100 samples)")
        )

    if args.trace:
        counts = [layer_counts(r, l) for r, l in traced]
        if any(c != counts[0] for c in counts):
            failures.append("per-layer counts differ between traced repetitions")
        metrics = per_layer(first, traced)
        if metrics["trace.closure_pct"] < CLOSURE_MIN_PCT:
            failures.append(
                f"per-layer self times cover {metrics['trace.closure_pct']:.1f}% "
                f"of the traced event-loop wall (< {CLOSURE_MIN_PCT}%)"
            )
        units = PER_LAYER
        lines.append("  per-layer ledger (sub-seed 0, traced):")
        for name, unit in units.items():
            lines.append(f"    {name:34s} {metrics[name]:>16.6g} {unit}")
        _write_trace(args, traced[-1][1])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(by_seed, peak_rss_mb)
        units = END_TO_END
        for name, unit in units.items():
            lines.append(f"  {name:26s} {metrics[name]:>14.6g} {unit}")

    reps = [r for group in by_seed for r in group] + [r for r, _ in traced]
    if workload.clients:
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
    else:
        # No client ops: the checked outcomes are slice placements.
        attempted = sum(r.placement_checks for r in reps)
        failed = sum(r.placement_failures for r in reps)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, failures, lines


def _write_trace(args: argparse.Namespace, ledger) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.scale}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"spans": ledger.spans(), "ops": ledger.op_spans()}, f)
        f.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, failures, lines = run(args)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
