"""The unified study facade: one declarative front door for every engine.

The library grew three batched engines — single executions
(:func:`repro.execution.run_execution`), scenario ensembles
(:mod:`repro.execution.batch`) and the valency/contraction certification
layer (:mod:`repro.core.valency`) — each with its own entry points and
knobs.  :class:`Study` is the declarative builder in front of all of them:

>>> from repro.api import Study, EngineConfig, CertifySpec
>>> result = Study(
...     algorithm=MidpointAlgorithm(),
...     model=deaf_model(n=8),
...     initial_values=np.linspace(0.0, 1.0, 8),
...     adversary=GreedyDiameterAdversary(deaf_model(n=8)),
...     rounds=30,
...     certify=True,
... ).run()
>>> result.provenance.route
'run_execution'
>>> result.certificates.rate_interval
(0.5..., 0.5...)

A study compiles to exactly one existing engine call — ``run_execution`` for
single scenarios, ``run_pattern_ensemble`` / ``run_ensemble`` /
``run_adversarial_ensemble`` for stacked ``(B, n, d)`` scenario tensors —
and is **bit-for-bit identical** to calling that engine directly with the
same configuration (enforced by ``tests/test_api.py``).  The
:class:`StudyResult` carries the underlying execution record, uniform
accessors (outputs, diameters, convergence/decision rounds), optional
valency/contraction certificates, and a :class:`StudyProvenance` stating
which route ran and whether the vectorized/batched paths were taken.

Execution knobs are bundled in :class:`~repro.config.EngineConfig`
(re-exported here): pass one as ``Study(config=...)`` or wrap any direct
engine calls in ``with EngineConfig(...):`` — both mean the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import Algorithm
from repro.config import (
    EngineConfig,
    current_engine_config,
    resolve_use_fast_path,
)
from repro.core.contraction import fit_trace_rate
from repro.core.valency import ValencyEstimate, ValencyEstimator
from repro.exceptions import (
    ConfigError,
    EnsembleShapeError,
    ExecutionError,
)
from repro.execution.batch import (
    AdversarialEnsembleExecution,
    EnsembleExecution,
    run_adversarial_ensemble,
    run_ensemble,
    run_pattern_ensemble,
)
from repro.execution.engine import run_execution
from repro.execution.execution import Execution
from repro.execution.schedule import scenario_graphs, validate_schedule
from repro.faults import FaultMaskingPattern, FaultPlan, FaultSpec, as_fault_plan
from repro.execution.metrics import convergence_round, rate_from_diameters
from repro.graphs.digraph import CommunicationGraph
from repro.models.network_model import NetworkModel
from repro.models.patterns import (
    AdversarialPattern,
    CommunicationPattern,
    SequencePattern,
)
from repro.types import check_finite, pairwise_diameters


@dataclass
class ScenarioSpec:
    """Declarative description of what a study executes.

    Exactly one communication source must be given:

    * ``pattern`` — a :class:`~repro.models.patterns.CommunicationPattern`
      (or, for ensembles, a sequence of per-scenario patterns);
    * ``adversary`` — an adaptive
      :class:`~repro.models.patterns.AdversarialPattern`;
    * ``graphs`` — an explicit per-round graph list (for ensembles each
      entry may also be a length-``B`` per-scenario graph sequence).

    ``initial_values`` decides the scale: anything that stacks to a 1-D or
    2-D array is a *single scenario* (compiled to ``run_execution``); a
    ``(B, n, d)`` tensor or a sequence of ``B`` value matrices is an
    *ensemble* (compiled to the batched runners).
    """

    initial_values: Any
    rounds: Optional[int] = None
    pattern: Union[CommunicationPattern, Sequence[CommunicationPattern], None] = None
    graphs: Optional[Sequence[Any]] = None
    adversary: Optional[AdversarialPattern] = None
    record_every: int = 1
    scenario_labels: Optional[Sequence[object]] = None

    def __post_init__(self) -> None:
        # A pattern that is actually adaptive is an adversary declaration.
        if isinstance(self.pattern, AdversarialPattern) and self.adversary is None:
            self.adversary = self.pattern
            self.pattern = None
        sources = [
            name
            for name, value in (
                ("pattern", self.pattern),
                ("graphs", self.graphs),
                ("adversary", self.adversary),
            )
            if value is not None
        ]
        if len(sources) != 1:
            raise ConfigError(
                "a scenario needs exactly one of pattern=, graphs= or adversary=, "
                f"got {sources or 'none'}"
            )
        if self.graphs is not None:
            self.graphs = list(self.graphs)
            if self.rounds is None:
                self.rounds = len(self.graphs)
            elif self.rounds != len(self.graphs):
                raise ConfigError(
                    f"rounds={self.rounds} contradicts the {len(self.graphs)}-round "
                    "explicit graph list; omit rounds= or make them agree"
                )
        if self.rounds is None:
            raise ConfigError("a scenario needs rounds= (or an explicit graph list)")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be non-negative, got {self.rounds}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`.

        Adversary-routed scenarios raise
        :class:`~repro.exceptions.SerializationError` — an adaptive
        adversary's decision procedure is arbitrary code; replay its
        committed schedules as a ``graphs=`` scenario instead.
        """
        from repro.service.serialization import encode_scenario_spec

        return encode_scenario_spec(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        from repro.service.serialization import decode_scenario_spec

        return decode_scenario_spec(payload)

    def is_ensemble(self) -> bool:
        """Whether the initial values describe a stacked ``(B, n, d)`` ensemble."""
        values = self.initial_values
        if not isinstance(values, np.ndarray):
            try:
                values = np.asarray(values, dtype=float)
            except (TypeError, ValueError) as exc:
                raise EnsembleShapeError(
                    "initial values must stack to a 1-D/2-D (single scenario) or "
                    "3-D (ensemble) float array"
                ) from exc
        if values.ndim in (1, 2):
            return False
        if values.ndim == 3:
            return True
        raise EnsembleShapeError(
            f"initial values must stack to a 1-D/2-D (single scenario) or 3-D "
            f"(ensemble) array, got shape {values.shape}",
            expected="1-D/2-D (single scenario) or 3-D (ensemble)",
            actual=tuple(values.shape),
        )


@dataclass(frozen=True)
class CertifySpec:
    """What the optional certification pass of a :class:`Study` computes.

    Mirrors the :class:`~repro.core.valency.ValencyEstimator` parameters;
    ``use_batch``/``scenario_chunk`` left at ``None`` inherit from the
    study's :class:`~repro.config.EngineConfig`.
    """

    suffix_rounds: int = 60
    exploration_depth: int = 0
    use_batch: Optional[bool] = None
    scenario_chunk: Optional[int] = None

    def to_dict(self) -> dict:
        """A versioned JSON-safe encoding; invert with :meth:`from_dict`."""
        from repro.service.serialization import encode_certify_spec

        return encode_certify_spec(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CertifySpec":
        from repro.service.serialization import decode_certify_spec

        return decode_certify_spec(payload)


@dataclass(frozen=True)
class StudyProvenance:
    """Which path a study actually took.

    Attributes
    ----------
    route:
        The engine entry point the study compiled to: ``"run_execution"``,
        ``"run_ensemble"``, ``"run_pattern_ensemble"`` or
        ``"run_adversarial_ensemble"``.
    fast_path:
        Whether the vectorized ``batch_*`` fast path drove the rounds.
    batched:
        For ensemble routes, whether the scenarios ran as one stacked
        ensemble (``False`` = per-scenario fallback loop); ``None`` for
        single-scenario routes.
    config:
        The merged :class:`~repro.config.EngineConfig` the study ran under.
    faulted:
        Whether a (non-zero) :class:`~repro.faults.FaultPlan` was injected
        into the executed communication graphs.
    """

    route: str
    fast_path: bool
    batched: Optional[bool]
    config: EngineConfig
    faulted: bool = False


@dataclass
class StudyCertificates:
    """Valency/contraction certificates attached to a :class:`StudyResult`.

    Attributes
    ----------
    estimate:
        The scenario's :class:`~repro.core.valency.ValencyEstimate` with
        one ``(R,)`` axis over its recorded configurations (certified
        lower/upper diameter bounds).
    valency_trace:
        The lower diameter estimates as a plain list — the quantity the
        lower-bound proofs control.
    output_rate:
        Fitted geometric decay of the output diameter (upper rate estimate;
        ``nan`` when the execution is too short to fit).
    rate_interval:
        ``(lower, upper)`` certified contraction-rate estimates: the fitted
        valency-trace decay and the output rate.  They are fitted over
        different spans (see
        :func:`~repro.core.contraction.certified_rate_interval`), so the
        lower end may exceed the upper.
    """

    estimate: ValencyEstimate
    valency_trace: List[float]
    output_rate: float
    rate_interval: Tuple[float, float]

    @classmethod
    def from_record(
        cls, estimate: ValencyEstimate, diameters: np.ndarray
    ) -> "StudyCertificates":
        """Certificates of one scenario's ``(R,)`` record and output diameters."""
        trace = estimate.lower_diameter.tolist()
        try:
            # Single-scenario and ensemble studies fit the same per-round
            # diameters, so their rates agree bit-for-bit.
            output_rate = rate_from_diameters(diameters)
        except ValueError:
            output_rate = float("nan")
        return cls(
            estimate=estimate,
            valency_trace=trace,
            output_rate=output_rate,
            rate_interval=(fit_trace_rate(trace), output_rate),
        )


@dataclass
class StudyResult:
    """Uniform result of a :class:`Study` run.

    Wraps the underlying engine record (an
    :class:`~repro.execution.execution.Execution` for single scenarios, an
    :class:`~repro.execution.batch.EnsembleExecution` for ensembles) behind
    scale-agnostic accessors, so downstream analysis code does not care which
    engine ran.  ``valency`` is the certified study's one
    :class:`~repro.core.valency.ValencyEstimate` record, with axes ``(R,)``
    for a single scenario and ``(R, B)`` for an ensemble; ``None`` when the
    study was not certified.
    """

    execution: Union[Execution, EnsembleExecution]
    provenance: StudyProvenance
    valency: Optional[ValencyEstimate] = None

    @cached_property
    def certificates(self) -> Union[StudyCertificates, List[StudyCertificates], None]:
        """Certificates derived from ``valency`` and the recorded outputs.

        A single :class:`StudyCertificates` for single-scenario studies and a
        list of ``B`` per-scenario certificates for certified ensembles (each
        bit-for-bit identical to the certificate of an independent
        single-scenario run of that scenario); built on first access.
        """
        if self.valency is None:
            return None
        if not self.is_ensemble:
            outputs = np.stack([c.outputs for c in self.execution.configurations])
            return StudyCertificates.from_record(self.valency, pairwise_diameters(outputs))
        diameters = pairwise_diameters(self.execution.recorded_outputs)
        return [
            StudyCertificates.from_record(self.valency[:, scenario], diameters[:, scenario])
            for scenario in range(diameters.shape[1])
        ]

    @property
    def is_ensemble(self) -> bool:
        return isinstance(self.execution, EnsembleExecution)

    @property
    def rounds(self) -> int:
        """Number of executed rounds."""
        return self.execution.rounds

    @property
    def final_outputs(self) -> np.ndarray:
        """Final output tensor: ``(n, d)`` single scenario, ``(B, n, d)`` ensemble."""
        if self.is_ensemble:
            return self.execution.final_outputs
        return self.execution.outputs()

    def diameters(self) -> np.ndarray:
        """Recorded output diameters: ``(R,)`` single scenario, ``(R, B)`` ensemble."""
        return self.execution.diameters()

    def final_diameters(self) -> np.ndarray:
        """Final diameters: a scalar array single scenario, ``(B,)`` ensemble."""
        if self.is_ensemble:
            return self.execution.final_diameters()
        return np.asarray(self.execution.final_diameter())

    def decision_rounds(self, tolerance: float) -> np.ndarray:
        """First recorded round within ``tolerance`` agreement (-1 if never).

        The decision time of the induced approximate consensus algorithm:
        a scalar array for single scenarios, ``(B,)`` per-scenario rounds
        for ensembles.
        """
        if self.is_ensemble:
            return self.execution.convergence_rounds(tolerance)
        hit = convergence_round(self.execution, tolerance)
        return np.asarray(-1 if hit is None else hit)

    def round_choices(self) -> List[List[CommunicationGraph]]:
        """The adversary's committed per-round graph choices (adversarial ensembles)."""
        if isinstance(self.execution, AdversarialEnsembleExecution):
            return self.execution.round_choices
        if isinstance(self.execution, Execution):
            return [[graph] for graph in self.execution.graphs]
        raise ExecutionError("round choices are only recorded for adversarial studies")

    def to_dict(self) -> dict:
        """A versioned, bit-for-bit JSON encoding; invert with :meth:`from_dict`.

        Float arrays travel as raw bytes, so the decoded result's outputs,
        diameters and valency record are array-for-array identical — which is
        what lets the service layer journal shard results and merge them
        into a result indistinguishable from a single-process run.
        """
        from repro.service.serialization import encode_study_result

        return encode_study_result(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyResult":
        from repro.service.serialization import decode_study_result

        return decode_study_result(payload)

    def __repr__(self) -> str:
        return (
            f"StudyResult(route={self.provenance.route}, rounds={self.rounds}, "
            f"certified={self.valency is not None})"
        )


class Study:
    """Declarative builder compiling to the batched execution engines.

    Parameters
    ----------
    algorithm:
        The :class:`~repro.algorithms.base.Algorithm` under study.
    scenario:
        A prebuilt :class:`ScenarioSpec`; alternatively pass its fields
        (``initial_values``, ``rounds``, ``pattern`` / ``graphs`` /
        ``adversary``, ``record_every``, ``scenario_labels``) directly.
    model:
        The :class:`~repro.models.network_model.NetworkModel`; required for
        certification.
    certify:
        ``True`` or a :class:`CertifySpec` to attach valency/contraction
        certificates.  Single-scenario studies get one
        :class:`StudyCertificates`; ensemble studies record their batch
        states (``record_states=True``) and get a list of ``B`` per-scenario
        certificates, computed as stacked ``(B·K, n, n)`` ensemble passes
        and bit-for-bit identical to ``B`` independent certified
        single-scenario studies.
    faults:
        Optional :class:`~repro.faults.FaultSpec` (or precompiled
        :class:`~repro.faults.FaultPlan`): message drops, clean/unclean
        crashes with optional recovery, and late joins, injected into the
        executed communication graphs.  Single-scenario studies mask the
        pattern's graphs round by round; ensemble studies route the plan
        through the engines' vectorized fault-mask path — both realize the
        same deterministic per-``(scenario, round)`` draws.  A zero spec is
        normalized away (the study is bit-for-bit fault-free); combining
        ``faults`` with ``adversary`` raises
        :class:`~repro.exceptions.ConfigError` (the adversary's committed
        history would diverge from the faulted realized graphs — replay its
        committed schedules as a faulted ``graphs`` study instead).
        Certification (``certify=``) composes: faulted ensembles return
        per-scenario certificates for the faulted trajectories.
    config:
        An :class:`~repro.config.EngineConfig`; the study runs inside it, so
        every knob (fast path, batching, packed kernels, threads) applies
        to exactly the code the study executes.  ``None`` inherits the
        ambient configuration.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        *,
        scenario: Optional[ScenarioSpec] = None,
        initial_values: Any = None,
        rounds: Optional[int] = None,
        pattern: Union[CommunicationPattern, Sequence[CommunicationPattern], None] = None,
        graphs: Optional[Sequence[Any]] = None,
        adversary: Optional[AdversarialPattern] = None,
        record_every: int = 1,
        scenario_labels: Optional[Sequence[object]] = None,
        model: Optional[NetworkModel] = None,
        certify: Union[bool, CertifySpec, None] = None,
        faults: Union[FaultSpec, FaultPlan, None] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if not isinstance(algorithm, Algorithm):
            raise ConfigError(
                f"Study needs an Algorithm instance, got {type(algorithm).__name__}"
            )
        if scenario is not None:
            inline_given = (
                initial_values is not None
                or pattern is not None
                or graphs is not None
                or adversary is not None
                or rounds is not None
                or record_every != 1
                or scenario_labels is not None
            )
            if inline_given:
                raise ConfigError(
                    "pass either a prebuilt scenario= or the inline scenario fields "
                    "(initial_values/rounds/pattern/graphs/adversary/record_every/"
                    "scenario_labels), not both"
                )
            self._spec = scenario
        else:
            if initial_values is None:
                raise ConfigError("Study needs initial_values= (or a prebuilt scenario=)")
            self._spec = ScenarioSpec(
                initial_values=initial_values,
                rounds=rounds,
                pattern=pattern,
                graphs=graphs,
                adversary=adversary,
                record_every=record_every,
                scenario_labels=scenario_labels,
            )
        check_finite(self._spec.initial_values)
        self._algorithm = algorithm
        self._model = model
        if certify is True:
            certify = CertifySpec()
        elif certify is False:
            certify = None
        if certify is not None and not isinstance(certify, CertifySpec):
            raise ConfigError(
                f"certify must be True/False or a CertifySpec, got {type(certify).__name__}"
            )
        if certify is not None and model is None:
            raise ConfigError("certification needs a network model: pass model=")
        self._certify = certify
        if faults is not None and not isinstance(faults, (FaultSpec, FaultPlan)):
            raise ConfigError(
                f"faults must be a FaultSpec, FaultPlan or None, got {type(faults).__name__}"
            )
        plan = faults.compile() if isinstance(faults, FaultSpec) else faults
        if plan is not None and plan.is_zero():
            plan = None  # a zero plan is bit-for-bit fault-free
        if plan is not None and self._spec.adversary is not None:
            raise ConfigError(
                "faults= cannot be combined with adversary=: the adversary's "
                "committed graph history would diverge from the faulted realized "
                "graphs; run the adversary fault-free and replay its committed "
                "schedules as a faulted graphs= study instead"
            )
        self._faults = plan  # compiled but unresolved: the seed pins at run()
        self._config = config

    @property
    def scenario(self) -> ScenarioSpec:
        return self._spec

    def run(self) -> StudyResult:
        """Execute the study and return its :class:`StudyResult`.

        The scoped :class:`~repro.config.EngineConfig` is entered around the
        whole run (engine dispatch *and* certification), so the result is
        bit-for-bit identical to issuing the compiled engine call inside the
        same ``with config:`` block.
        """
        config = self._config if self._config is not None else EngineConfig()
        with config:
            execution, provenance = self._execute()
            valency = (
                self._run_certification(execution) if self._certify is not None else None
            )
        return StudyResult(execution=execution, provenance=provenance, valency=valency)

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _execute(self) -> Tuple[Union[Execution, EnsembleExecution], StudyProvenance]:
        spec = self._spec
        merged = current_engine_config()
        # Pin the plan's seed to the config scope entered by run(), so the
        # study realizes the same faults as a direct engine call inside the
        # same ``with config:`` block.
        plan = as_fault_plan(self._faults)
        if not spec.is_ensemble():
            pattern = spec.adversary or spec.pattern
            if pattern is None:
                # A single scenario's graph list is a B = 1 schedule.
                schedule = validate_schedule(spec.graphs, 1, len(spec.initial_values))
                pattern = SequencePattern(scenario_graphs(schedule, 0))
            if not isinstance(pattern, CommunicationPattern):
                raise ConfigError(
                    "a single-scenario study needs one CommunicationPattern or "
                    f"AdversarialPattern, got {type(pattern).__name__}"
                )
            if plan is not None:
                # Mask the pattern's graphs round by round with scenario 0's
                # draws — the same effective graphs as scenario 0 of a
                # faulted one-scenario ensemble.
                pattern = FaultMaskingPattern(pattern, plan)
            execution = run_execution(
                self._algorithm,
                spec.initial_values,
                pattern,
                spec.rounds,
                record_every=spec.record_every,
            )
            resolved = resolve_use_fast_path(None)
            fast_path = self._algorithm.supports_batch() if resolved is None else resolved
            return execution, StudyProvenance(
                route="run_execution",
                fast_path=bool(fast_path),
                batched=None,
                config=merged,
                faulted=plan is not None,
            )

        # Certified ensembles need the recorded states the certification
        # engine stacks its futures from.
        record_states = self._certify is not None
        if spec.adversary is not None:
            result = run_adversarial_ensemble(
                self._algorithm,
                spec.initial_values,
                spec.adversary,
                spec.rounds,
                record_every=spec.record_every,
                scenario_labels=spec.scenario_labels,
                record_states=record_states,
            )
            route = "run_adversarial_ensemble"
        elif spec.pattern is not None:
            result = run_pattern_ensemble(
                self._algorithm,
                spec.initial_values,
                spec.pattern,
                spec.rounds,
                record_every=spec.record_every,
                scenario_labels=spec.scenario_labels,
                record_states=record_states,
                fault_plan=plan,
            )
            route = "run_pattern_ensemble"
        else:
            result = run_ensemble(
                self._algorithm,
                spec.initial_values,
                spec.graphs,
                record_every=spec.record_every,
                scenario_labels=spec.scenario_labels,
                record_states=record_states,
                fault_plan=plan,
            )
            route = "run_ensemble"
        resolved = resolve_use_fast_path(None)
        fast_path = self._algorithm.supports_batch() if resolved is None else resolved
        return result, StudyProvenance(
            route=route,
            fast_path=bool(fast_path),
            batched=result.batched,
            config=merged,
            faulted=plan is not None,
        )

    # ------------------------------------------------------------------ #
    # Certification
    # ------------------------------------------------------------------ #

    def _certification_estimator(self) -> ValencyEstimator:
        certify = self._certify
        return ValencyEstimator(
            self._algorithm,
            self._model,
            suffix_rounds=certify.suffix_rounds,
            exploration_depth=certify.exploration_depth,
            use_batch=certify.use_batch,
            scenario_chunk=certify.scenario_chunk,
        )

    def _run_certification(
        self, execution: Union[Execution, EnsembleExecution]
    ) -> ValencyEstimate:
        estimator = self._certification_estimator()
        if isinstance(execution, EnsembleExecution):
            # Ensemble-scale certification: all scenarios' sampled futures run
            # as stacked ensemble passes into one (R, B) record — scenario b's
            # slice is bit-for-bit what a single-scenario study produces.
            return estimator.certify_ensemble(execution)
        return estimator.trace(execution.configurations)

    def __repr__(self) -> str:
        spec = self._spec
        source = (
            "adversary"
            if spec.adversary is not None
            else ("pattern" if spec.pattern is not None else "graphs")
        )
        return (
            f"Study({self._algorithm.name}, rounds={spec.rounds}, source={source}, "
            f"ensemble={spec.is_ensemble()}, certify={self._certify is not None})"
        )


__all__ = [
    "CertifySpec",
    "EngineConfig",
    "ScenarioSpec",
    "Study",
    "StudyCertificates",
    "StudyProvenance",
    "StudyResult",
]
