"""Guard a benchmark JSON against fast-path regressions.

Reads a ``BENCH_engine.json``-style file and fails (exit code 1) when any
gate of the ``_GATES`` table fails — e.g. an entry that compares an old/new
or loop/batched pair reports the new path more than ``--max-slowdown`` times
slower than the old one — or a required benchmark family is missing.  CI
runs this on the smoke benchmark so a fast-path regression cannot merge
silently; the smoke grids are tiny, so the threshold is a slack 2x rather
than a tight bound.

Usage::

    python benchmarks/check_bench.py bench-smoke.json
    python benchmarks/check_bench.py bench-smoke.json --max-slowdown 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Every gate, one row each: (family, baseline key, candidate key, kind,
#: limit, allowance, min CPUs).  A row applies to each entry of ``family``
#: (``None`` = any family) that carries both keys, in table order.  Kinds:
#:
#: * ``slowdown`` — ``candidate <= baseline * limit``;
#: * ``overhead`` — the same bound, reported as a dispatch overhead;
#: * ``speedup`` — ``baseline / candidate >= limit``, enforced only where the
#:   entry's ``cpu_count`` and ``threads`` reach ``min CPUs``; below that, a
#:   speedup above ``--max-slowdown`` is flagged as implausible;
#: * ``budget`` — ``candidate <= baseline * limit + allowance`` seconds;
#: * ``below`` — ``candidate < baseline * limit`` (any unit).
#:
#: A string limit names the command-line option that sets it.
#:
#: Why these rows and bounds:
#:
#: * Fast paths (``old_s``/``new_s``, ``loop_s``/``batched_s``) and the fused
#:   masked-extreme kernel (which saves a mask resolution over two separate
#:   reductions) must not lose by more than the slack ``--max-slowdown``.
#:   The per-kernel timings of the over-limit ``masked_reduction`` entry
#:   (dense, fold, sort-select, gather) are deliberately NOT gated: they
#:   are memory-for-time tradeoffs measured at millisecond scale, so a 2x
#:   wall-clock bound on a noisy CI runner would flake without any code
#:   regression.
#: * Ensemble-scale certification stacks all B scenarios' sampled futures
#:   into single passes, and the faulted ensemble applies its (B, n, n) fault
#:   masks to the whole stacked adjacency per round; silently degrading to the
#:   per-scenario loop would survive the slack check, so both must beat their
#:   loop by a minimum factor.
#: * The parallel backend must scale: at 4 workers on a B=256 workload the
#:   sharded run must beat the serial run by 2x.  A 1-core container
#:   physically cannot parallelize, and fabricating its numbers would be worse
#:   than skipping the gate, so dev boxes record honest ~1x entries while CI's
#:   multi-core runners enforce the bound.
#: * The sharded study service pays slot start-up, IPC and journal fsyncs that
#:   a single-process Study never does; the remote route pays HTTP
#:   round-trips, lease bookkeeping and SSE telemetry (its worker threads also
#:   share the GIL); the campaign loop pays planning, novelty scoring,
#:   content-keyed corpus writes and one fsync-ed journal append per round.
#:   Their allowance absorbs the constant cost that dominates a tiny smoke
#:   workload, while the relative limit still catches a merge, dispatch or
#:   campaign loop that starts recomputing shards or cases.
#: * The valency suffixes' masked extremes gather in-neighbours from a
#:   per-model-graph plan; at the suffix shapes (``masked_reduction``
#:   entries with ``planned_s``) the plan must beat the kernel the
#:   dispatcher would otherwise pick by 1.2x (measured ~3.7x on deaf(K_4)
#:   against the fold, ~8.7x on Ψ(12) against dense), or it is not worth
#:   its code.  The same gate holds the adversaries' memoized candidate
#:   stacks (``layout`` ``candidates``) to 1.2x over the plain-array
#:   dispatch (measured ~1.4x on deaf(K_4)).
#: * Streaming the exhaustive prefixes must keep the estimator's peak memory
#:   strictly below one materialized pass (``valency_streaming_memory``,
#:   also asserted by the bench itself at two depths); the plan's element
#:   cap exists to keep this so.
#: * The repro.api facade must compile to a direct engine call plus
#:   negligible dispatch, so it gets a tight 5% bound by default.
_GATES = (
    (None, "old_s", "new_s", "slowdown", "--max-slowdown", 0.0, 0),
    (None, "loop_s", "batched_s", "slowdown", "--max-slowdown", 0.0, 0),
    ("certify_ensemble", "loop_s", "batched_s", "speedup", 5.0, 0.0, 0),
    ("faulted_ensemble", "loop_s", "batched_s", "speedup", 3.0, 0.0, 0),
    ("parallel_ensemble", "serial_s", "parallel_s", "speedup", 2.0, 0.0, 4),
    ("fused_reduction", "separate_s", "fused_s", "slowdown", "--max-slowdown", 0.0, 0),
    ("service_overhead", "direct_s", "service_s", "budget", 4.0, 5.0, 0),
    ("remote_service", "mp_service_s", "remote_s", "budget", 4.0, 5.0, 0),
    ("campaign_round", "harness_s", "campaign_s", "budget", 3.0, 1.0, 0),
    ("masked_reduction", "unplanned_s", "planned_s", "speedup", 1.2, 0.0, 0),
    (
        "valency_streaming_memory", "materialized_peak_bytes", "streamed_peak_bytes",
        "below", 1.0, 0.0, 0,
    ),
    ("facade_overhead", "direct_s", "facade_s", "overhead", "--facade-max-slowdown", 0.0, 0),
)

_FACADE_MAX_SLOWDOWN = 1.05

#: Benchmarks every payload must contain: the fast-path gate is meaningless
#: if a regression silently removes an entry, so missing families fail too.
#: The valency/contraction/alpha entries carry old_s/new_s and are therefore
#: gated by the slowdown check above as well.
_REQUIRED_BENCHMARKS = (
    "run_execution",
    "ensemble",
    "faulted_ensemble",
    "greedy_adversary",
    "psi_adversary",
    "adversarial_ensemble",
    "valency_estimation",
    "valency_streaming_memory",
    "certify_ensemble",
    "contraction_trace",
    "alpha_classes",
    "masked_reduction",
    "facade_overhead",
    "service_overhead",
    "remote_service",
    "campaign_round",
    "parallel_ensemble",
    "fused_reduction",
)


def _entry_detail(entry: dict) -> str:
    return ", ".join(
        f"{key}={entry[key]}"
        for key in (
            "route", "algorithm", "model", "layout", "impl", "n", "B", "F", "rounds",
            "model_size",
            "d", "depth", "seed", "budget", "threads", "cpu_count",
        )
        if key in entry
    )


def _applies(gate: tuple, entry: dict) -> bool:
    family, baseline_key, candidate_key = gate[:3]
    if family is not None and entry.get("benchmark") != family:
        return False
    # An entry may opt out of gating (e.g. a microsecond-scale point).
    return entry.get("gated", True) and baseline_key in entry and candidate_key in entry


def _violation(gate: tuple, entry: dict, limits: dict, max_slowdown: float):
    """The violation message of one gate on one entry, or ``None``."""
    _family, baseline_key, candidate_key, kind, limit, allowance, min_cpus = gate
    limit = limits.get(limit, limit)
    baseline, candidate = entry[baseline_key], entry[candidate_key]
    head = f"{entry.get('benchmark', '?')} ({_entry_detail(entry)}): {candidate_key}={candidate:.6f}s"
    if kind in ("slowdown", "overhead"):
        if baseline <= 0 or candidate / baseline <= limit:
            return None
        ratio = candidate / baseline
        if kind == "overhead":
            return (
                f"{head} is {ratio:.3f}x the direct engine call "
                f"{baseline_key}={baseline:.6f}s (limit {limit:.2f}x)"
            )
        return (
            f"{head} is {ratio:.2f}x slower than {baseline_key}={baseline:.6f}s "
            f"(limit {limit:.2f}x)"
        )
    if kind == "below":
        if candidate < baseline * limit:
            return None
        return (
            f"{entry.get('benchmark', '?')} ({_entry_detail(entry)}): {candidate_key}="
            f"{candidate} is not below {baseline_key}={baseline} * {limit}"
        )
    if kind == "budget":
        budget = baseline * limit + allowance
        if candidate <= budget:
            return None
        return (
            f"{head} exceeds {baseline_key}={baseline:.6f}s * {limit:.1f} "
            f"+ {allowance:.1f}s allowance (= {budget:.6f}s)"
        )
    speedup = baseline / candidate if candidate > 0 else float("inf")
    if not min_cpus:
        if speedup >= limit:
            return None
        return (
            f"{head} is only {speedup:.2f}x faster than {baseline_key}={baseline:.6f}s "
            f"(required >= {limit:.1f}x)"
        )
    cpu_count = entry.get("cpu_count", 0)
    threads = entry.get("threads", 1)
    if cpu_count >= min_cpus and threads >= min_cpus and speedup < limit:
        return (
            f"{head} is only {speedup:.2f}x faster than {baseline_key}={baseline:.6f}s "
            f"at threads={threads} on a {cpu_count}-core machine (required >= {limit:.1f}x)"
        )
    if cpu_count < min_cpus and speedup > max_slowdown:
        # A machine too small to parallelize cannot legitimately report
        # scaling; a large "speedup" there means the serial side mismeasured.
        return (
            f"{entry.get('benchmark', '?')} ({_entry_detail(entry)}): implausible "
            f"{speedup:.2f}x speedup recorded on a {cpu_count}-core machine"
        )
    return None


def check(payload: dict, max_slowdown: float, facade_max_slowdown: float = _FACADE_MAX_SLOWDOWN) -> list:
    """Return a list of human-readable violations found in ``payload``."""
    violations = []
    present = {entry.get("benchmark") for entry in payload.get("results", [])}
    for name in _REQUIRED_BENCHMARKS:
        if name not in present:
            violations.append(f"required benchmark family {name!r} is missing")
    limits = {"--max-slowdown": max_slowdown, "--facade-max-slowdown": facade_max_slowdown}
    for entry in payload.get("results", []):
        for gate in _GATES:
            if _applies(gate, entry):
                violation = _violation(gate, entry, limits, max_slowdown)
                if violation is not None:
                    violations.append(violation)
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="benchmark JSON file to check")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when a new/fast timing exceeds this multiple of the old one",
    )
    parser.add_argument(
        "--facade-max-slowdown",
        type=float,
        default=_FACADE_MAX_SLOWDOWN,
        help="fail when the Study facade exceeds this multiple of the direct engine call",
    )
    args = parser.parse_args()

    payload = json.loads(Path(args.path).read_text())
    violations = check(payload, args.max_slowdown, args.facade_max_slowdown)
    checked = sum(
        1
        for entry in payload.get("results", [])
        if any(_applies(gate, entry) for gate in _GATES)
    )
    if violations:
        print(f"FAIL: {len(violations)} fast-path slowdown(s) in {args.path}:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"OK: {checked} compared entries in {args.path} within {args.max_slowdown}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
