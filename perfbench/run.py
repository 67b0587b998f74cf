"""End-to-end benchmark of the consensus library.

Run from the repository root::

    python3 perfbench/run.py --workload rooted_ensemble --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``rooted_ensemble``, ``table1_certify``
and ``sharded_service``.  One operation is one whole study: build its
inputs from the seed, run it, and check the result against the paper and
against a reference route.  Operations run back to back in a closed loop
with one client, in passes over a fixed pool of seeded inputs, until
``--seconds`` have passed.  The first pass checks each result, later
passes must reproduce it bit for bit, and each input keeps its fastest
run.  Only build and run are timed.

Keeping each input's fastest run is what makes runs comparable on a
shared machine: neighbours' load arrives in bursts lasting seconds to
minutes that slow every operation of a burst by up to 60%, which moves
plain medians between runs of one seed by 20-40%.  Passes spread an
input's runs over the whole run, so its fastest one falls outside any
burst shorter than the run.  Tail percentiles move with the bursts and are
not reported for the same reason.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end:

* ``latency_ms`` -- median over the pool of each input's fastest run;
* ``scenarios_per_s`` -- scenarios studied per second of fastest-run time;
* ``setup_s`` -- median over several fresh interpreters of the time to
  import the library, prepare the workload and finish one cold operation.

With ``--trace 1`` the metrics are per layer, as medians over the pool of
each layer's self time in the input's fastest run (see ``spans.py``):
``build_ms`` (scenario build), ``study_ms`` (``Study.run`` outside
certification and transitions: facade, adjacency stacking, recording,
adversary choice), ``certify_ms`` (valency certification outside
transitions), ``transition_ms`` (the algorithm's batched round math, in
runs and certification futures alike), ``dispatch_ms`` (operation time
outside every span above: facade construction and sweep-row assembly in
process, the whole shard round trip for ``sharded_service``) and
``transitions`` (batched transition calls).  ``sharded_service`` adds the
layer figures of the in-process reference run it checks against.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

MIN_PASSES = 2
SETUP_PROBES = 9
WARMUP_OPERATIONS = 2
PROBE_TIMEOUT_S = 60
LAYERS = ("build", "study", "certify", "transition")
# Seed streams, so measured, warm-up and set-up operations never share inputs.
MEASURED, WARMUP, PROBE = 0, 1, 2


def _parse(argv):
    parser = argparse.ArgumentParser(description="End-to-end consensus benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _operation(workload, tracer, rng):
    """Build and run one operation.

    Returns ``(inputs, result, seconds, (self_times, span_counts))``.
    """
    with tracer.recording():
        start = time.perf_counter()
        with tracer.span("op"):
            with tracer.span("build"):
                inputs = workload.build(rng)
            result = workload.run(inputs)
        elapsed = time.perf_counter() - start
    return inputs, result, elapsed, tracer.take()


def _setup_seconds(args) -> float:
    """Median of fresh-interpreter set-up probes (import, prepare, one cold op)."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", "0",
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: library source not found at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]

    import numpy as np

    import workloads
    from spans import Tracer, patched_layers

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer(traced=bool(args.trace))

    def rng(stream: int, index: int):
        return np.random.default_rng([args.seed, stream, index])

    if args.setup_probe:
        inputs, result, _, _ = _operation(workload, tracer, rng(PROBE, 0))
        setup_s = time.perf_counter() - _START
        workload.check(inputs, result, tracer, 0)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for index in range(WARMUP_OPERATIONS):
        _operation(workload, tracer, rng(WARMUP, index))

    # Passes over a fixed pool of inputs: the first pass checks each result,
    # later passes must reproduce it exactly, and each input keeps its
    # fastest run.
    pool = workload.pool
    fastest = [None] * pool  # (seconds, scenarios, self_times, span_counts)
    fingerprints = [None] * pool
    check_layers = [None] * pool
    attempted = failed = passes = 0
    first_failure = None
    targets = workloads.layer_targets() if args.trace else []
    with patched_layers(tracer, targets):
        deadline = time.perf_counter() + args.seconds
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            for index in range(pool):
                if passes >= MIN_PASSES and time.perf_counter() >= deadline:
                    break
                attempted += 1
                try:
                    inputs, result, elapsed, (self_times, counts) = _operation(
                        workload, tracer, rng(MEASURED, index)
                    )
                    if fingerprints[index] is None:
                        workload.check(inputs, result, tracer, index)
                        check_layers[index] = tracer.take()
                        fingerprints[index] = workload.fingerprint(result)
                    elif workload.fingerprint(result) != fingerprints[index]:
                        raise workloads.CheckFailed("a repeated run gave another result")
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    failed += 1
                    first_failure = first_failure or f"input {index}: {exc!r}"
                    tracer.take()
                    continue
                if fastest[index] is None or elapsed < fastest[index][0]:
                    fastest[index] = (elapsed, workload.scenarios(inputs), self_times, counts)
            passes += 1
    if first_failure:
        print(f"perfbench: {failed}/{attempted} failed; first: {first_failure}", file=sys.stderr)
    runs = [entry for entry in fastest if entry is not None]
    if not runs:
        return 1

    if args.trace:
        # An input's layer figures: its fastest run plus the check's traced
        # reference run (only sharded_service traces one).
        totals = [
            (Counter(entry[2]) + Counter(check[0]), Counter(entry[3]) + Counter(check[1]))
            for entry, check in zip(fastest, check_layers)
            if entry is not None
        ]
        metrics = {
            f"{name}_ms": {
                "value": statistics.median(times[name] for times, _ in totals) * 1e3,
                "unit": "ms",
            }
            for name in LAYERS
        }
        metrics["dispatch_ms"] = {
            "value": statistics.median(times["op"] for times, _ in totals) * 1e3,
            "unit": "ms",
        }
        metrics["transitions"] = {
            "value": statistics.median(counts["transition"] for _, counts in totals),
            "unit": "count",
        }
    else:
        metrics = {
            "latency_ms": {
                "value": statistics.median(entry[0] for entry in runs) * 1e3,
                "unit": "ms",
            },
            "scenarios_per_s": {
                "value": sum(entry[1] for entry in runs) / sum(entry[0] for entry in runs),
                "unit": "1/s",
            },
            "setup_s": {"value": _setup_seconds(args), "unit": "s"},
        }
    print(
        f"perfbench: {args.workload} seed={args.seed} operations={attempted} "
        f"failed={failed}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
