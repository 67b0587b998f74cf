"""Execution records.

An execution (Section 2) is the alternating sequence
``C_0, G_1, C_1, G_2, C_2, ...`` of configurations and communication graphs.
Every run keeps one record form, :class:`EnsembleExecution`: the outputs of
``B`` scenarios at the recorded rounds as one ``(R, B, n, d)`` array, and
their states as :class:`RecordedStates`.  A single :class:`Execution` is the
one-scenario view of such a record plus the graphs applied to it; its
per-agent configurations are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, combine_batch_leaves
from repro.exceptions import ExecutionError
from repro.execution.schedule import scenario_graphs
from repro.execution.state import Configuration
from repro.graphs.digraph import CommunicationGraph
from repro.types import pairwise_diameters

if TYPE_CHECKING:
    from repro.faults import FaultPlan


@dataclass(frozen=True)
class RecordedStates:
    """Every scenario's state at every recorded round of a record.

    Batched runs keep ``stacked``: one batch state per recorded round, as
    the engine produced it (array leaves ``(B, n, ...)``).  The per-agent
    loops, the reference, keep ``per_agent``: ``per_agent[r][b]`` is
    scenario ``b``'s tuple of per-agent states.  Exactly one is set, and
    this class is the only code that knows both forms.  ``algorithm`` is
    ``None`` only on a decoded single execution, whose payload names its
    algorithm but does not carry it; the certifier then restores the states
    with its own.
    """

    algorithm: Optional[Algorithm]
    stacked: Optional[Tuple[Any, ...]] = None
    per_agent: Optional[Tuple[Tuple[Tuple[Any, ...], ...], ...]] = None

    def slice(self, start: int, stop: int) -> "RecordedStates":
        """The states of scenarios ``[start, stop)``."""
        if self.stacked is None:
            return replace(self, per_agent=tuple(row[start:stop] for row in self.per_agent))
        stacked = tuple(
            self.algorithm.batch_map(state, lambda leaf: leaf[start:stop])
            for state in self.stacked
        )
        return replace(self, stacked=stacked)

    @staticmethod
    def concatenate(parts: Sequence["RecordedStates"]) -> "RecordedStates":
        """Shards' states joined along the scenario axis, in shard order."""
        first = parts[0]
        if first.stacked is None:
            rows = zip(*(part.per_agent for part in parts))
            return replace(first, per_agent=tuple(sum(row, ()) for row in rows))
        stacked = tuple(
            combine_batch_leaves(first.algorithm, states, np.concatenate)
            for states in zip(*(part.stacked for part in parts))
        )
        return replace(first, stacked=stacked)

    def stacked_rounds(self, first: int, stop: int):
        """One batch state of recorded rounds ``[first, stop)``, round-major.

        Its leaves are ``((stop - first) · B, n, ...)``.  Several rounds are
        stacked with ``batch_state_stack``, which turns fields that differ
        between rounds (a phase position) into per-scenario arrays, so they
        only make sense for round-invariant algorithms.
        """
        algorithm = self.algorithm
        if self.stacked is None:
            rows = self.per_agent[first:stop]
            restored = [algorithm.batch_state_from_states(s) for row in rows for s in row]
            return algorithm.batch_state_stack(restored)
        if stop - first == 1:
            return self.stacked[first]
        return algorithm.batch_map(
            algorithm.batch_state_stack(self.stacked[first:stop]),
            lambda leaf: leaf.reshape((-1,) + leaf.shape[2:]),
        )

    def scenario_configurations(
        self, scenario: int, rounds: Sequence[int], outputs: np.ndarray
    ) -> List[Configuration]:
        """Scenario ``scenario``'s configurations at the recorded ``rounds``."""
        if self.stacked is None:
            per_round = [row[scenario] for row in self.per_agent]
        else:
            algorithm = self.algorithm
            per_round = [
                algorithm.batch_states(algorithm.batch_map(state, lambda leaf: leaf[scenario]))
                for state in self.stacked
            ]
        return [
            Configuration(states, outputs[r][scenario].copy(), round_number)
            for r, (states, round_number) in enumerate(zip(per_round, rounds))
        ]

    def to_dict(self) -> dict:
        """A JSON-safe, bit-for-bit encoding; invert with :meth:`from_dict`."""
        from repro.service.serialization import encode_algorithm, encode_value

        return {
            "algorithm": encode_algorithm(self.algorithm),
            "stacked": encode_value(self.stacked),
            "per_agent": encode_value(self.per_agent),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RecordedStates":
        from repro.service.serialization import decode_algorithm, decode_value

        return cls(
            decode_algorithm(payload["algorithm"]),
            stacked=decode_value(payload["stacked"]),
            per_agent=decode_value(payload["per_agent"]),
        )


@dataclass
class EnsembleExecution:
    """The recorded trajectory of ``B`` scenarios run side by side.

    Attributes
    ----------
    algorithm_name:
        Name of the algorithm that produced the ensemble.
    recorded_rounds:
        The round numbers of the recorded snapshots (always includes 0 and
        the final round).
    recorded_outputs:
        Array of shape ``(R, B, n, d)``: one ``(B, n, d)`` output tensor per
        recorded round.
    scenario_labels:
        Optional per-scenario labels (e.g. ``(value_index, pattern_index)``
        pairs produced by :func:`~repro.execution.batch.sweep`).
    batched:
        Provenance: ``True`` when the scenarios ran as one stacked ensemble
        through the batch hooks, ``False`` when the per-scenario fallback
        loop ran (``None`` on records predating the field).
    fault_plan:
        Provenance: the resolved :class:`~repro.faults.FaultPlan` the run
        was executed under (``None`` for fault-free runs — a zero plan is
        normalized to ``None`` before execution).
    recorded_states:
        The states of every scenario at every recorded round, present when
        the run was asked for them (``record_states=True``); see
        :class:`RecordedStates`.  :meth:`scenario_configurations` builds
        scenario ``b``'s per-agent configurations from them on request.
    """

    algorithm_name: str
    recorded_rounds: List[int]
    recorded_outputs: np.ndarray
    scenario_labels: Optional[List[object]] = field(default=None)
    batched: Optional[bool] = field(default=None)
    recorded_states: Optional[RecordedStates] = field(default=None, repr=False)
    fault_plan: Optional["FaultPlan"] = field(default=None, repr=False)

    @property
    def batch_size(self) -> int:
        """Number of scenarios ``B``."""
        return int(self.recorded_outputs.shape[1])

    @property
    def n(self) -> int:
        """Number of agents per scenario."""
        return int(self.recorded_outputs.shape[2])

    @property
    def dimension(self) -> int:
        """Dimension ``d`` of the agents' values."""
        return int(self.recorded_outputs.shape[3])

    @property
    def rounds(self) -> int:
        """Number of executed rounds ``T``."""
        return self.recorded_rounds[-1]

    @property
    def final_outputs(self) -> np.ndarray:
        """The ``(B, n, d)`` output tensor after the last round."""
        return self.recorded_outputs[-1]

    def round_index(self, round_number: int) -> int:
        """The index of a recorded round in :attr:`recorded_rounds`."""
        try:
            return self.recorded_rounds.index(round_number)
        except ValueError as exc:
            raise ExecutionError(
                f"round {round_number} was not recorded (recorded: {self.recorded_rounds})"
            ) from exc

    def outputs_at_round(self, round_number: int) -> np.ndarray:
        """The ``(B, n, d)`` outputs of a recorded round."""
        return self.recorded_outputs[self.round_index(round_number)]

    def diameters(self) -> np.ndarray:
        """Per-scenario output diameters at every recorded round, shape ``(R, B)``."""
        return np.stack([_batch_diameters(snapshot) for snapshot in self.recorded_outputs])

    def final_diameters(self) -> np.ndarray:
        """Per-scenario output diameters after the last round, shape ``(B,)``."""
        return _batch_diameters(self.final_outputs)

    @property
    def has_recorded_states(self) -> bool:
        """Whether every scenario's states were recorded (``record_states=True``)."""
        return self.recorded_states is not None

    def scenario_configurations(self, scenario: int) -> List[Configuration]:
        """Scenario ``scenario``'s recorded configurations, one per recorded round.

        The returned list matches what :func:`repro.execution.run_execution`
        would have recorded for that scenario alone (one configuration per
        entry of :attr:`recorded_rounds`).  It is built on each call from
        :attr:`recorded_states`.  Requires the run to have been executed
        with ``record_states=True``.
        """
        if self.recorded_states is None:
            raise ExecutionError(
                "per-scenario configurations were not recorded; rerun the ensemble "
                "with record_states=True"
            )
        if not 0 <= scenario < self.batch_size:
            raise ExecutionError(
                f"scenario {scenario} out of range for B={self.batch_size}"
            )
        return self.recorded_states.scenario_configurations(
            scenario, self.recorded_rounds, self.recorded_outputs
        )

    def convergence_rounds(self, tolerance: float) -> np.ndarray:
        """Per scenario, the first recorded round with diameter <= ``tolerance`` (-1 if never)."""
        diameters = self.diameters()
        result = np.full(self.batch_size, -1, dtype=int)
        for row, round_number in zip(diameters, self.recorded_rounds):
            hit = (row <= tolerance) & (result < 0)
            result[hit] = round_number
        return result

    def __repr__(self) -> str:
        return (
            f"EnsembleExecution({self.algorithm_name}, B={self.batch_size}, n={self.n}, "
            f"rounds={self.rounds}, mean final diam={float(self.final_diameters().mean()):.4g})"
        )


def _batch_diameters(outputs: np.ndarray) -> np.ndarray:
    """Euclidean output diameter of each scenario of a ``(B, n, d)`` tensor.

    For ``d == 1`` the diameter is exactly ``max - min``, computed in
    ``O(B·n)`` without the pairwise ``(B, n, n)`` distance tensor.  For
    ``d > 1`` the per-axis extremes prune the candidate endpoints first: a
    point whose distance to the farthest corner of the scenario's bounding box
    is below the best extreme-pair distance can never be an endpoint of the
    diameter, so only the (typically few) surviving points enter the exact
    pairwise pass.
    """
    outputs = np.asarray(outputs, dtype=float)
    batch_size, n, d = outputs.shape
    if n < 2:
        return np.zeros(batch_size, dtype=float)
    if d == 1:
        flat = outputs[..., 0]
        return flat.max(axis=-1) - flat.min(axis=-1)
    lo = outputs.min(axis=1)
    hi = outputs.max(axis=1)
    # Lower bound: the best pairwise distance among the per-axis extreme points.
    extreme_idx = np.concatenate([outputs.argmin(axis=1), outputs.argmax(axis=1)], axis=1)
    extremes = np.take_along_axis(outputs, extreme_idx[:, :, None], axis=1)  # (B, 2d, d)
    ext_diffs = extremes[:, :, None, :] - extremes[:, None, :, :]
    lower = np.sqrt((ext_diffs * ext_diffs).sum(axis=-1)).max(axis=(-1, -2))  # (B,)
    # Upper bound per point: distance to the farthest bounding-box corner.
    deviation = np.maximum(hi[:, None, :] - outputs, outputs - lo[:, None, :])
    reach = np.sqrt((deviation * deviation).sum(axis=-1))  # (B, n)
    survivors = reach >= lower[:, None]
    result = lower.copy()
    for scenario in range(batch_size):
        points = outputs[scenario][survivors[scenario]]
        if points.shape[0] >= 2:
            diffs = points[:, None, :] - points[None, :, :]
            best = float(np.sqrt((diffs * diffs).sum(axis=-1)).max())
            if best > result[scenario]:
                result[scenario] = best
    return result


@dataclass
class AdversarialEnsembleExecution(EnsembleExecution):
    """An ensemble run driven by an adaptive adversary.

    In addition to the recorded outputs, the per-round, per-scenario graph
    choices the adversary committed are kept (``round_choices[t - 1][b]`` is
    the graph scenario ``b`` saw in round ``t``).
    """

    round_choices: List[List[CommunicationGraph]] = field(default_factory=list)

    def scenario_graphs(self, scenario: int) -> List[CommunicationGraph]:
        """The graph sequence committed against scenario ``scenario``."""
        return scenario_graphs(self.round_choices, scenario)


def _supports_batch_map(algorithm: Algorithm, batch_state) -> bool:
    """Whether the batch state can be sliced and broadcast (``batch_map``)."""
    try:
        algorithm.batch_map(batch_state, lambda leaf: leaf)
    except NotImplementedError:
        return False
    return True


def _per_scenario_fields(
    algorithm: Optional[Algorithm],
    configurations: Sequence[Sequence[Configuration]],
    labels: Optional[List[object]],
    record_states: bool,
) -> dict:
    """The ``batched=False`` record of per-agent configurations.

    ``configurations[b]`` is scenario ``b``'s list of recorded
    configurations; states are kept in the reference ``per_agent`` form.
    A decoded execution has no ``algorithm`` and sets ``algorithm_name``
    itself.
    """
    rows = list(zip(*configurations))
    per_agent = tuple(tuple(c.states for c in row) for row in rows)
    return dict(
        algorithm_name=None if algorithm is None else algorithm.name,
        recorded_rounds=[configuration.round_number for configuration in configurations[0]],
        recorded_outputs=np.stack([np.stack([c.outputs for c in row]) for row in rows]),
        scenario_labels=labels,
        batched=False,
        recorded_states=RecordedStates(algorithm, per_agent=per_agent) if record_states else None,
    )


@dataclass
class Execution:
    """A finite prefix of an execution: the one-scenario view of a record.

    Attributes
    ----------
    record:
        The run's one-scenario (``B = 1``) :class:`EnsembleExecution`, states
        included.  Every accessor reads it by round number.
    graphs:
        The ``T`` communication graphs ``G_1 .. G_T`` applied between the
        configurations.
    """

    record: EnsembleExecution
    graphs: List[CommunicationGraph] = field(default_factory=list)

    @property
    def algorithm_name(self) -> str:
        """Name of the algorithm that produced the execution."""
        return self.record.algorithm_name

    @property
    def rounds(self) -> int:
        """Number of rounds executed (``T``)."""
        return len(self.graphs)

    @property
    def n(self) -> int:
        """Number of agents."""
        return self.record.n

    @property
    def recorded_rounds(self) -> List[int]:
        """The round numbers of the recorded configurations (0 and ``T`` included)."""
        return self.record.recorded_rounds

    @property
    def recorded_outputs(self) -> np.ndarray:
        """``(R, n, d)``: the output matrix at every recorded round."""
        return self.record.recorded_outputs[:, 0]

    @cached_property
    def configurations(self) -> List[Configuration]:
        """The recorded configurations, one per recorded round; built on first access."""
        return self.record.scenario_configurations(0)

    @property
    def final_configuration(self) -> Configuration:
        """``C_T``."""
        return self.configurations[-1]

    def configuration(self, round_number: int) -> Configuration:
        """``C_t`` for a recorded round ``t``."""
        return self.configurations[self.record.round_index(round_number)]

    def outputs(self, round_number: Optional[int] = None) -> np.ndarray:
        """The output matrix ``y(t)`` of a recorded round (default: the final round)."""
        if round_number is None:
            return self.recorded_outputs[-1]
        return self.record.outputs_at_round(round_number)[0]

    def output_history(self) -> np.ndarray:
        """Array of shape ``(R, n, d)`` with the output matrices of the recorded rounds."""
        return self.recorded_outputs.copy()

    def diameters(self) -> np.ndarray:
        """``Δ(y(t))`` for every recorded round ``t`` (length ``R``).

        One round at a time, so memory stays ``O(n² d)`` however long the run.
        """
        return np.array([pairwise_diameters(outputs) for outputs in self.recorded_outputs])

    def final_diameter(self) -> float:
        """``Δ(y(T))``."""
        return float(pairwise_diameters(self.recorded_outputs[-1]))

    def validity_holds(self, tol: float = 1e-9) -> bool:
        """Whether every recorded output lies in the bounding box of the initial values.

        This is a necessary condition of the Validity clause (and equivalent
        to it in dimension 1, coordinate-wise).
        """
        outputs = self.recorded_outputs
        lo = outputs[0].min(axis=0) - tol
        hi = outputs[0].max(axis=0) + tol
        return not (np.any(outputs < lo) or np.any(outputs > hi))

    def __repr__(self) -> str:
        diameters = self.diameters()
        return (
            f"Execution({self.algorithm_name}, rounds={self.rounds}, n={self.n}, "
            f"diam {diameters[0]:.4g} -> {diameters[-1]:.4g})"
        )
