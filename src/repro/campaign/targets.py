"""Auto-generated differential-fuzz targets and the case executor.

A *target* is one toggle pair of the engine stack — two routes that promise
bit-for-bit (or last-ulp) identical results for the same scenario:

* ``fast_vs_reference`` — ``run_execution`` with ``use_fast_path`` on/off,
* ``batch_vs_loop`` — ``run_ensemble`` with ``use_batch`` on/off,
* ``facade_vs_direct`` — ``Study`` vs the engine call it compiles to,
* ``faulted_batch_vs_loop`` — the vectorized fault-mask path vs the
  per-scenario reference loop under a :class:`~repro.faults.FaultPlan`,
* ``zero_fault_vs_none`` — ``FaultPlan()`` must be bit-for-bit invisible,
* ``simulator_vs_round`` — the event-heap simulator running the round-based
  wrapper at ``f = 0`` (lockstep, complete graph) vs the synchronous engine.

Targets are generated from the fuzz registry (:mod:`repro.campaign.registry`),
not hand-wired per algorithm: a :class:`CaseSpec` names a registry key plus
JSON-safe parameters, so registering an algorithm is sufficient to fuzz it
through every pair its capability flags admit.  Every spec serializes
canonically (via :mod:`repro.service.serialization`) and is rebuilt
bit-for-bit by :func:`CaseSpec.from_dict`, which is what makes corpus
entries and failure artifacts replayable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.campaign.registry import FuzzEntry, ORDERED_ENTRIES, get_entry
from repro.exceptions import CampaignError, FaultModelError, ReproError, SerializationError
from repro.execution.schedule import (
    RoundGraphs,
    decode_schedule,
    encode_schedule,
    scenario_graphs,
    validate_schedule,
)
from repro.faults import CrashSpec, FaultPlan, JoinSpec
from repro.graphs.families import complete_graph
from repro.graphs.generators import random_graph, random_strongly_connected_graph
from repro.service.checkpoint import content_key
from repro.service.serialization import decode_array, encode_array

#: Comparison tolerance of the last-ulp (non-exact) pairs, mirroring
#: ``tests/test_equivalence.py`` and the CI fuzz suite.
ATOL = 1e-12

_CASE_TYPE = "campaign-case"
_CASE_VERSION = 2
_SEED_NAMESPACE = 0xCA5E


def _stable_int(text: str) -> int:
    """A platform-stable 63-bit integer hash of a string (for rng seeding)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def case_rng(target: str, case_seed: int) -> np.random.Generator:
    return np.random.default_rng((_SEED_NAMESPACE, _stable_int(target), case_seed))


# --------------------------------------------------------------------------- #
# Case specification
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CaseSpec:
    """One self-contained differential-fuzz case.

    Everything needed to re-execute the case bit-for-bit: the target pair,
    the registry key and JSON-safe parameters of the algorithm, the stacked
    ``(B, n, d)`` initial values, the per-round graph schedule (each round a
    shared graph or one graph per scenario), an optional fault plan, and an
    optional synthetic perturbation (the mutation-kill hook).
    """

    target: str
    algorithm: str
    params: Mapping[str, object]
    values: np.ndarray
    graphs: Tuple[RoundGraphs, ...]
    record_every: int = 1
    plan: Optional[FaultPlan] = None
    perturb: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 3:
            raise CampaignError(
                f"case values must be a (B, n, d) tensor, got shape {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        graphs = validate_schedule(self.graphs, self.batch, self.n)
        if not graphs:
            raise CampaignError("a case needs at least one round")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "params", dict(self.params))
        if self.perturb is not None:
            object.__setattr__(self, "perturb", dict(self.perturb))

    @property
    def batch(self) -> int:
        return int(self.values.shape[0])

    @property
    def n(self) -> int:
        return int(self.values.shape[1])

    @property
    def d(self) -> int:
        return int(self.values.shape[2])

    @property
    def rounds(self) -> int:
        return len(self.graphs)

    def to_dict(self) -> dict:
        return {
            "__type__": _CASE_TYPE,
            "version": _CASE_VERSION,
            "target": self.target,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "values": encode_array(self.values),
            "graphs": encode_schedule(self.graphs, self.batch, self.n),
            "record_every": self.record_every,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "perturb": None if self.perturb is None else dict(self.perturb),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseSpec":
        if not isinstance(payload, dict) or payload.get("__type__") != _CASE_TYPE:
            raise CampaignError(
                f"expected a {_CASE_TYPE} payload, got "
                f"__type__={payload.get('__type__') if isinstance(payload, dict) else payload!r}"
            )
        if payload.get("version") != _CASE_VERSION:
            raise CampaignError(
                f"{_CASE_TYPE} payload version {payload.get('version')!r} is not supported"
            )
        keys = {"__type__", "version", *cls.__dataclass_fields__}
        if set(payload) != keys:
            raise CampaignError(
                f"{_CASE_TYPE} payload must carry exactly the keys {sorted(keys)}, "
                f"got {sorted(payload)}"
            )
        try:
            values = decode_array(payload["values"])
            if values.ndim != 3:
                raise SerializationError(
                    f"case values must be a (B, n, d) tensor, got shape {values.shape}"
                )
            graphs = decode_schedule(payload["graphs"], values.shape[0], values.shape[1])
        except SerializationError as exc:
            raise CampaignError(f"malformed {_CASE_TYPE} payload: {exc}") from exc
        return cls(
            target=payload["target"],
            algorithm=payload["algorithm"],
            params=dict(payload["params"]),
            values=values,
            graphs=tuple(graphs),
            record_every=int(payload["record_every"]),
            plan=None if payload["plan"] is None else FaultPlan.from_dict(payload["plan"]),
            perturb=None if payload["perturb"] is None else dict(payload["perturb"]),
        )

    def key(self) -> str:
        """The content hash that names this case in corpus and journal."""
        return content_key(self.to_dict())


def build_algorithm(spec: CaseSpec, side: Optional[str] = None) -> Algorithm:
    """Rebuild the case's algorithm (optionally perturbed for ``side``)."""
    entry = get_entry(spec.algorithm)
    graph = scenario_graphs(spec.graphs[:1], 0)[0] if entry.needs_fixed_graph else None
    algorithm = entry.build(dict(spec.params), spec.n, graph)
    if spec.perturb is not None and side is not None and spec.perturb["side"] == side:
        algorithm = PerturbedAlgorithm(
            algorithm,
            round_number=int(spec.perturb["round"]),
            agent=int(spec.perturb["agent"]),
            epsilon=float(spec.perturb["epsilon"]),
        )
    return algorithm


# --------------------------------------------------------------------------- #
# Synthetic divergence: the mutation-kill wrapper
# --------------------------------------------------------------------------- #


class PerturbedAlgorithm(Algorithm):
    """Delegate to an inner algorithm, offsetting one agent's state.

    From ``round_number`` on, the designated agent's post-transition state is
    shifted by ``epsilon`` — on the per-agent reference path *and* on the
    vectorized batch path, so whichever side of a toggle pair carries the
    wrapper diverges from the unwrapped side by the same amount.  Only plain
    value-array states are perturbed (``perturbable`` registry entries).

    This is the deliberately broken toggle of the acceptance criteria: the
    campaign's mutation-kill tests wrap one side of a pair with it and assert
    the campaign finds, minimizes and replays the divergence.
    """

    def __init__(self, inner: Algorithm, round_number: int, agent: int, epsilon: float) -> None:
        if round_number < 1:
            raise CampaignError(f"perturbation rounds are 1-based, got {round_number}")
        if agent < 0:
            raise CampaignError(f"perturbation agent must be non-negative, got {agent}")
        self._inner = inner
        self._round = round_number
        self._agent = agent
        self._epsilon = epsilon

    # Per-agent reference path -------------------------------------------- #

    def initial_state(self, agent_id, initial_value, n):
        return self._inner.initial_state(agent_id, initial_value, n)

    def message(self, agent_id, state):
        return self._inner.message(agent_id, state)

    def transition(self, agent_id, state, received, round_number):
        new_state = self._inner.transition(agent_id, state, received, round_number)
        if (
            agent_id == self._agent
            and round_number >= self._round
            and isinstance(new_state, np.ndarray)
        ):
            new_state = new_state + self._epsilon
        return new_state

    def output(self, agent_id, state):
        return self._inner.output(agent_id, state)

    # Vectorized path ------------------------------------------------------ #

    def supports_batch(self):
        return self._inner.supports_batch()

    def batch_initial(self, values):
        return self._inner.batch_initial(values)

    def batch_transition(self, batch_state, adjacency, round_number):
        new_state = self._inner.batch_transition(batch_state, adjacency, round_number)
        if (
            round_number >= self._round
            and isinstance(new_state, np.ndarray)
            and self._agent < new_state.shape[-2]
        ):
            new_state = new_state.copy()
            new_state[..., self._agent, :] += self._epsilon
        return new_state

    def batch_outputs(self, batch_state):
        return self._inner.batch_outputs(batch_state)

    def batch_states(self, batch_state):
        return self._inner.batch_states(batch_state)

    def batch_map(self, batch_state, fn):
        return self._inner.batch_map(batch_state, fn)

    def batch_state_stack(self, batch_states):
        return self._inner.batch_state_stack(batch_states)

    def supports_batch_state(self):
        return self._inner.supports_batch_state()

    def batch_state_from_states(self, states):
        return self._inner.batch_state_from_states(states)

    def is_convex_combination(self):
        return self._inner.is_convex_combination()

    def round_invariant(self):
        # The perturbation fires from a specific round, so round-invariance
        # optimizations (fixpoint retiring) must not apply.
        return False

    @property
    def name(self):
        return f"perturbed({self._inner.name})"


# --------------------------------------------------------------------------- #
# Target definitions
# --------------------------------------------------------------------------- #

SideRunner = Callable[[CaseSpec, Algorithm], Dict[str, np.ndarray]]


@dataclass(frozen=True)
class Target:
    """One toggle pair: two side runners that must agree on every case."""

    key: str
    left: SideRunner
    right: SideRunner
    requires_batch: bool = False
    requires_plan: bool = False
    uses_simulator: bool = False
    #: ``True`` — the two sides promise bit-for-bit identity regardless of
    #: the algorithm; ``False`` — exactness follows the registry entry (the
    #: averaging family is compared to the last ulp).
    bitwise: bool = True


def _execution_payload(execution) -> Dict[str, np.ndarray]:
    return {
        "recorded_rounds": np.asarray(execution.recorded_rounds, dtype=float),
        "outputs": execution.output_history(),
        "diameters": np.asarray(execution.diameters(), dtype=float),
    }


def _ensemble_payload(execution) -> Dict[str, np.ndarray]:
    return {
        "recorded_rounds": np.asarray(execution.recorded_rounds, dtype=float),
        "recorded_outputs": np.asarray(execution.recorded_outputs, dtype=float),
        "diameters": np.asarray(execution.diameters(), dtype=float),
    }


def _side_execution(spec: CaseSpec, algorithm: Algorithm, use_fast_path: bool):
    from repro.execution import run_execution
    from repro.models.patterns import SequencePattern

    execution = run_execution(
        algorithm,
        spec.values[0],
        SequencePattern(scenario_graphs(spec.graphs, 0)),
        spec.rounds,
        record_every=spec.record_every,
        use_fast_path=use_fast_path,
    )
    return _execution_payload(execution)


def _side_ensemble(
    spec: CaseSpec,
    algorithm: Algorithm,
    use_batch: Optional[bool],
    fault_plan: Optional[FaultPlan] = None,
):
    from repro.execution import run_ensemble

    execution = run_ensemble(
        algorithm,
        spec.values,
        spec.graphs,
        record_every=spec.record_every,
        use_batch=use_batch,
        fault_plan=fault_plan,
    )
    return _ensemble_payload(execution)


def _side_facade(spec: CaseSpec, algorithm: Algorithm):
    from repro.api import Study

    result = Study(
        algorithm=algorithm,
        initial_values=spec.values,
        graphs=spec.graphs,
        record_every=spec.record_every,
    ).run()
    return _ensemble_payload(result.execution)


def _side_simulator(spec: CaseSpec, algorithm: Algorithm):
    from repro.asynchrony import AsynchronousSimulator, RoundBasedAsyncAlgorithm

    execution = AsynchronousSimulator(
        RoundBasedAsyncAlgorithm(algorithm),
        spec.values[0],
        f=0,
        max_time=float(spec.rounds) + 0.5,
    ).run()
    outputs = np.stack(
        [execution.outputs_at(float(k)) for k in range(spec.rounds + 1)]
    )
    return {"outputs": outputs, "final": np.asarray(execution.final_outputs, dtype=float)}


def _side_round_based(spec: CaseSpec, algorithm: Algorithm):
    from repro.execution import run_execution
    from repro.models.patterns import ConstantPattern

    # Lockstep f = 0 rounds deliver every message: the synchronous reference
    # is the complete graph, regardless of the spec's graph schedule.
    execution = run_execution(
        algorithm,
        spec.values[0],
        ConstantPattern(complete_graph(spec.n)),
        spec.rounds,
        record_every=1,
    )
    outputs = execution.output_history()
    return {"outputs": outputs, "final": outputs[-1]}


TARGETS: Dict[str, Target] = {
    target.key: target
    for target in (
        Target(
            key="fast_vs_reference",
            left=lambda spec, a: _side_execution(spec, a, use_fast_path=True),
            right=lambda spec, a: _side_execution(spec, a, use_fast_path=False),
            requires_batch=True,
            bitwise=False,
        ),
        Target(
            key="batch_vs_loop",
            left=lambda spec, a: _side_ensemble(spec, a, use_batch=True),
            right=lambda spec, a: _side_ensemble(spec, a, use_batch=False),
            requires_batch=True,
        ),
        Target(
            key="facade_vs_direct",
            left=_side_facade,
            right=lambda spec, a: _side_ensemble(spec, a, use_batch=None),
        ),
        Target(
            key="faulted_batch_vs_loop",
            left=lambda spec, a: _side_ensemble(
                spec, a, use_batch=True, fault_plan=spec.plan
            ),
            right=lambda spec, a: _side_ensemble(
                spec, a, use_batch=False, fault_plan=spec.plan
            ),
            requires_batch=True,
            requires_plan=True,
        ),
        Target(
            key="zero_fault_vs_none",
            left=lambda spec, a: _side_ensemble(
                spec, a, use_batch=None, fault_plan=FaultPlan()
            ),
            right=lambda spec, a: _side_ensemble(spec, a, use_batch=None),
        ),
        Target(
            key="simulator_vs_round",
            left=_side_simulator,
            right=_side_round_based,
            uses_simulator=True,
            bitwise=False,
        ),
    )
}


def enumerate_targets(entry: FuzzEntry) -> Tuple[str, ...]:
    """The target keys an entry's capability flags admit (in fixed order)."""
    keys = []
    for key, target in TARGETS.items():
        if target.requires_batch and entry.reference_only:
            continue
        if target.requires_plan and not entry.supports_faults:
            continue
        if target.uses_simulator and not entry.supports_simulator:
            continue
        keys.append(key)
    return tuple(keys)


# --------------------------------------------------------------------------- #
# Case generation
# --------------------------------------------------------------------------- #


def random_fault_plan(rng: np.random.Generator, n: int, rounds: int) -> FaultPlan:
    """Draw a deterministic random :class:`FaultPlan` from a case rng.

    ``enforce_model=False`` by default — random drops legitimately leave
    ``N_A`` and the output-equivalence half of a pair wants runs that
    complete; a fraction of cases flips enforcement back on so the invariant
    half (both paths raising :class:`FaultModelError` together) stays
    exercised.
    """
    drop = float(rng.uniform(0.05, 0.35)) if rng.random() < 0.7 else 0.0
    crashes, joins = [], []
    agents = [int(a) for a in rng.permutation(n)]
    for agent in agents[: int(rng.integers(0, min(2, n - 1) + 1))]:
        if rng.random() < 0.6:
            crash_round = int(rng.integers(1, rounds + 1))
            recipients = None
            if rng.random() < 0.4:
                recipients = frozenset(
                    int(a) for a in rng.permutation(n)[: int(rng.integers(0, n))]
                )
            recovery = None
            if rng.random() < 0.3:
                recovery = crash_round + int(rng.integers(1, 4))
            crashes.append(
                CrashSpec(
                    agent,
                    crash_round,
                    final_recipients=recipients,
                    recovery_round=recovery,
                )
            )
        else:
            joins.append(JoinSpec(agent, int(rng.integers(1, rounds + 2))))
    plan = FaultPlan(
        drop=drop,
        crashes=tuple(crashes),
        joins=tuple(joins),
        seed=int(rng.integers(0, 2**31)),
        enforce_model=bool(rng.random() < 0.25),
    )
    if plan.is_zero():
        plan = replace(plan, drop=0.2)
    return plan


def build_case(target: str, case_seed: int) -> CaseSpec:
    """Deterministically generate one random case for one target.

    Pure function of ``(target, case_seed)`` — nothing reads clocks or
    global RNG state — so the one-line repro ``run_case(target, seed)``
    replays the exact case.
    """
    if target not in TARGETS:
        raise CampaignError(f"unknown target {target!r} (known: {sorted(TARGETS)})")
    rng = case_rng(target, case_seed)
    target_def = TARGETS[target]
    candidates = [
        entry for entry in ORDERED_ENTRIES if target in enumerate_targets(entry)
    ]
    entry = candidates[int(rng.integers(len(candidates)))]
    n = entry.fixed_n if entry.fixed_n is not None else int(rng.integers(3, 9))
    d = int(rng.integers(1, 3))
    batch = int(rng.integers(1, 5))
    rounds = int(rng.integers(1, 8))
    params = entry.draw_params(rng)
    values = rng.uniform(-2.0, 2.0, size=(batch, n, d))
    edge_probability = float(rng.uniform(0.15, 0.95))
    graphs: List[RoundGraphs] = []
    if entry.needs_fixed_graph:
        fixed = random_strongly_connected_graph(n, rng, edge_probability)
        graphs = [fixed] * rounds
    else:
        for _ in range(rounds):
            if rng.random() < 0.5:
                graphs.append(random_graph(n, rng, edge_probability))
            else:
                graphs.append(
                    tuple(random_graph(n, rng, edge_probability) for _ in range(batch))
                )
    record_every = int(rng.integers(1, 4))
    plan = None
    if target_def.requires_plan:
        plan = random_fault_plan(rng, n, rounds)
    return CaseSpec(
        target=target,
        algorithm=entry.key,
        params=params,
        values=values,
        graphs=tuple(graphs),
        record_every=record_every,
        plan=plan,
    )


# --------------------------------------------------------------------------- #
# Case execution
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Divergence:
    """The first observed disagreement between the two sides of a pair."""

    label: str
    expected: Dict[str, np.ndarray]
    actual: Dict[str, np.ndarray]


@dataclass(frozen=True)
class CaseResult:
    """The outcome of executing one case."""

    status: str  # "agree" | "divergence" | "skip"
    reason: str = ""
    exact: bool = True
    #: Largest absolute elementwise difference across compared payloads
    #: (the near-miss magnitude of tolerance-compared agreements).
    max_diff: float = 0.0
    divergence: Optional[Divergence] = None


def _skip(reason: str) -> CaseResult:
    return CaseResult(status="skip", reason=reason)


def _error_payload(error: ReproError) -> Dict[str, np.ndarray]:
    return {"error": np.frombuffer(repr(error).encode("utf-8"), dtype=np.uint8)}


def _errors_agree(left: ReproError, right: ReproError, batch: int) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, FaultModelError) and batch == 1:
        # With a single scenario there is no processing-order ambiguity: the
        # two paths must blame the identical (scenario, round, agent).
        return (left.scenario, left.round_number, left.agent) == (
            right.scenario,
            right.round_number,
            right.agent,
        )
    return True


def execute_case(spec: CaseSpec) -> CaseResult:
    """Run both sides of a case's target and compare the payloads."""
    entry = get_entry(spec.algorithm)
    target = TARGETS.get(spec.target)
    if target is None:
        raise CampaignError(f"unknown target {spec.target!r}")
    if target.requires_batch and entry.reference_only:
        return _skip(f"{entry.key} is reference-only (no batch hooks)")
    if target.requires_plan and spec.plan is None:
        return _skip("target requires a fault plan but the spec has none")
    if target.requires_plan and not entry.supports_faults:
        return _skip(f"{entry.key} does not support fault plans")
    if target.uses_simulator and not entry.supports_simulator:
        return _skip(f"{entry.key} does not support the simulator route")
    if target.uses_simulator and spec.n < 2:
        # The round-based wrapper rejects the degenerate quorum n - f = 1,
        # so a single agent has no asynchronous route to compare against.
        return _skip("the simulator route needs at least 2 agents")
    exact = target.bitwise or entry.exact

    def run_side(runner: SideRunner, side: str):
        algorithm = build_algorithm(spec, side=side)
        try:
            return runner(spec, algorithm), None
        except ReproError as error:
            return None, error

    left, left_error = run_side(target.left, "left")
    right, right_error = run_side(target.right, "right")

    if left_error is not None or right_error is not None:
        if (
            left_error is not None
            and right_error is not None
            and _errors_agree(left_error, right_error, spec.batch)
        ):
            return CaseResult(status="agree", reason="both sides raised", exact=exact)
        return CaseResult(
            status="divergence",
            reason="error",
            exact=exact,
            divergence=Divergence(
                label="error",
                expected=right if right_error is None else _error_payload(right_error),
                actual=left if left_error is None else _error_payload(left_error),
            ),
        )

    max_diff = 0.0
    for label in sorted(set(left) | set(right)):
        got, want = left.get(label), right.get(label)
        if got is None or want is None or got.shape != want.shape:
            return CaseResult(
                status="divergence",
                reason=f"{label}: shape mismatch",
                exact=exact,
                divergence=Divergence(label=label, expected=right, actual=left),
            )
        if got.size:
            finite = np.isfinite(got) & np.isfinite(want)
            if finite.any():
                max_diff = max(max_diff, float(np.abs(got[finite] - want[finite]).max()))
        if exact:
            same = np.array_equal(got, want, equal_nan=True)
        else:
            same = np.allclose(got, want, rtol=0.0, atol=ATOL, equal_nan=True)
        if not same:
            return CaseResult(
                status="divergence",
                reason=f"{label}: outputs differ",
                exact=exact,
                divergence=Divergence(label=label, expected=right, actual=left),
            )
    return CaseResult(status="agree", exact=exact, max_diff=max_diff)


def run_case(target: str, case_seed: int) -> CaseResult:
    """Build and execute one generated case (the campaign repro entry point).

    Raises :class:`CampaignError` on divergence, so a repro snippet behaves
    like a failing assertion when pasted into a shell.
    """
    spec = build_case(target, case_seed)
    result = execute_case(spec)
    if result.status == "divergence":
        raise CampaignError(
            f"case diverged: {result.reason}\nspec key: {spec.key()}"
        )
    return result


__all__ = [
    "ATOL",
    "CaseResult",
    "CaseSpec",
    "Divergence",
    "PerturbedAlgorithm",
    "TARGETS",
    "Target",
    "build_algorithm",
    "build_case",
    "case_rng",
    "enumerate_targets",
    "execute_case",
    "random_fault_plan",
    "run_case",
]
