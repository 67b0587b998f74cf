"""The amortized midpoint algorithm for rooted network models.

The midpoint rule contracts by 1/2 per round only when every round's graph is
non-split.  In a merely *rooted* model a single round need not contract at
all, but the product of any ``n - 1`` rooted graphs on ``n`` nodes is
non-split [Charron-Bost et al., ICALP'15].  The amortized midpoint algorithm
of [Charron-Bost et al., ICALP'16] therefore works in *phases* of ``n - 1``
rounds: during a phase each agent relays the smallest and largest phase-start
values it has heard of, and at the end of the phase it moves to the midpoint
of the relayed extremes.  The value range halves every phase, giving a
contraction rate of ``(1/2)^{1/(n-1)}`` — asymptotically matching the
``(1/2)^{1/(n-2)}`` lower bound of Theorem 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import Algorithm, masked_extreme_pair, masked_min
from repro.exceptions import AlgorithmError
from repro.types import as_value


@dataclass(frozen=True)
class AmortizedMidpointState:
    """Per-agent state of the amortized midpoint algorithm.

    Attributes
    ----------
    value:
        The agent's current output ``y_i`` (updated only at phase ends).
    phase_min, phase_max:
        Coordinate-wise extremes of the phase-start values the agent has
        heard of so far in the current phase.
    rounds_into_phase:
        How many rounds of the current phase have been executed.
    phase_length:
        Number of rounds per phase (``n - 1``).
    """

    value: np.ndarray
    phase_min: np.ndarray
    phase_max: np.ndarray
    rounds_into_phase: int
    phase_length: int


@dataclass(frozen=True)
class AmortizedMidpointBatchState:
    """Stacked state of all agents (and scenarios) for the vectorized fast path.

    The arrays have shape ``(..., n, d)``.  ``rounds_into_phase`` is a single
    integer when all scenarios share their phase position, as in every engine
    run (the synchronous engine advances all agents in lockstep).  Stacks of
    scenarios at different phase positions — the valency estimator's futures
    of configurations recorded at different rounds — carry an integer array
    over the leading scenario axes instead.
    """

    value: np.ndarray
    phase_min: np.ndarray
    phase_max: np.ndarray
    rounds_into_phase: Union[int, np.ndarray]
    phase_length: int


class AmortizedMidpointAlgorithm(Algorithm):
    """Midpoint averaging amortized over phases of ``n - 1`` rounds.

    Parameters
    ----------
    phase_length:
        Optional override of the phase length.  The default (``None``) uses
        ``n - 1``, which is correct for arbitrary rooted models; the Theorem 3
        lower-bound experiments also use ``n - 2`` to probe the gap between
        the algorithm and the bound.
    """

    def __init__(self, phase_length: int | None = None) -> None:
        if phase_length is not None and phase_length < 1:
            raise AlgorithmError(f"phase_length must be >= 1, got {phase_length}")
        self._phase_length_override = phase_length

    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> AmortizedMidpointState:
        value = as_value(initial_value)
        phase_length = self._phase_length_override if self._phase_length_override else max(n - 1, 1)
        return AmortizedMidpointState(
            value=value,
            phase_min=value.copy(),
            phase_max=value.copy(),
            rounds_into_phase=0,
            phase_length=phase_length,
        )

    def message(self, agent_id: int, state: AmortizedMidpointState) -> Tuple[np.ndarray, np.ndarray]:
        # Relay the extremes of the phase-start values heard of so far.
        return (state.phase_min, state.phase_max)

    def transition(
        self,
        agent_id: int,
        state: AmortizedMidpointState,
        received: Mapping[int, Tuple[np.ndarray, np.ndarray]],
        round_number: int,
    ) -> AmortizedMidpointState:
        mins = np.vstack([msg[0] for msg in received.values()])
        maxs = np.vstack([msg[1] for msg in received.values()])
        new_min = np.minimum(state.phase_min, mins.min(axis=0))
        new_max = np.maximum(state.phase_max, maxs.max(axis=0))
        rounds_into_phase = state.rounds_into_phase + 1

        if rounds_into_phase >= state.phase_length:
            # Phase end: move to the midpoint of the relayed extremes and
            # start accumulating a fresh phase from the new value.
            new_value = (new_min + new_max) / 2.0
            return AmortizedMidpointState(
                value=new_value,
                phase_min=new_value.copy(),
                phase_max=new_value.copy(),
                rounds_into_phase=0,
                phase_length=state.phase_length,
            )
        return AmortizedMidpointState(
            value=state.value,
            phase_min=new_min,
            phase_max=new_max,
            rounds_into_phase=rounds_into_phase,
            phase_length=state.phase_length,
        )

    def output(self, agent_id: int, state: AmortizedMidpointState) -> np.ndarray:
        return state.value

    def round_invariant(self) -> bool:
        # The phase position lives in the state; transitions never read
        # ``round_number``.
        return True

    # ------------------------------------------------------------------ #
    # Vectorized fast path
    # ------------------------------------------------------------------ #

    def supports_batch(self) -> bool:
        return True

    def batch_initial(self, values: np.ndarray) -> AmortizedMidpointBatchState:
        values = np.array(values, dtype=float)
        n = values.shape[-2]
        phase_length = self._phase_length_override if self._phase_length_override else max(n - 1, 1)
        return AmortizedMidpointBatchState(
            value=values,
            phase_min=values.copy(),
            phase_max=values.copy(),
            rounds_into_phase=0,
            phase_length=phase_length,
        )

    def batch_transition(
        self, batch_state: AmortizedMidpointBatchState, adjacency: np.ndarray, round_number: int
    ) -> AmortizedMidpointBatchState:
        # One fused reduction: the min runs over the phase-min tensor and the
        # max over the phase-max tensor, sharing a single mask resolution.
        received_min, received_max = masked_extreme_pair(
            adjacency, batch_state.phase_min, batch_state.phase_max
        )
        new_min = np.minimum(batch_state.phase_min, received_min)
        new_max = np.maximum(batch_state.phase_max, received_max)
        rounds_into_phase = batch_state.rounds_into_phase + 1

        if np.ndim(rounds_into_phase):
            # Scenarios at different phase positions: reset per scenario.
            reset = rounds_into_phase >= batch_state.phase_length
            new_value = (new_min + new_max) / 2.0
            reset_rows = reset[..., None, None]
            return AmortizedMidpointBatchState(
                value=np.where(reset_rows, new_value, batch_state.value),
                phase_min=np.where(reset_rows, new_value, new_min),
                phase_max=np.where(reset_rows, new_value, new_max),
                rounds_into_phase=np.where(reset, 0, rounds_into_phase),
                phase_length=batch_state.phase_length,
            )
        if rounds_into_phase >= batch_state.phase_length:
            new_value = (new_min + new_max) / 2.0
            return AmortizedMidpointBatchState(
                value=new_value,
                phase_min=new_value.copy(),
                phase_max=new_value.copy(),
                rounds_into_phase=0,
                phase_length=batch_state.phase_length,
            )
        return AmortizedMidpointBatchState(
            value=batch_state.value,
            phase_min=new_min,
            phase_max=new_max,
            rounds_into_phase=rounds_into_phase,
            phase_length=batch_state.phase_length,
        )

    def batch_outputs(self, batch_state: AmortizedMidpointBatchState) -> np.ndarray:
        return batch_state.value

    def batch_map(self, batch_state: AmortizedMidpointBatchState, fn) -> AmortizedMidpointBatchState:
        positions = batch_state.rounds_into_phase
        return AmortizedMidpointBatchState(
            value=fn(batch_state.value),
            phase_min=fn(batch_state.phase_min),
            phase_max=fn(batch_state.phase_max),
            rounds_into_phase=fn(positions) if np.ndim(positions) else positions,
            phase_length=batch_state.phase_length,
        )

    def supports_batch_state(self) -> bool:
        return True

    def batch_state_from_states(
        self, states: Sequence[AmortizedMidpointState]
    ) -> AmortizedMidpointBatchState:
        states = tuple(states)
        if not states:
            raise AlgorithmError("cannot restore a batch state from zero agent states")
        phase_positions = {state.rounds_into_phase for state in states}
        phase_lengths = {state.phase_length for state in states}
        if len(phase_positions) != 1 or len(phase_lengths) != 1:
            raise AlgorithmError(
                "amortized-midpoint agents must be in lockstep to restore a batch state; "
                f"got phase positions {sorted(phase_positions)} and lengths {sorted(phase_lengths)}"
            )
        return AmortizedMidpointBatchState(
            value=np.stack([as_value(state.value) for state in states]),
            phase_min=np.stack([as_value(state.phase_min) for state in states]),
            phase_max=np.stack([as_value(state.phase_max) for state in states]),
            rounds_into_phase=phase_positions.pop(),
            phase_length=phase_lengths.pop(),
        )

    def batch_state_stack(
        self, batch_states: Sequence[AmortizedMidpointBatchState]
    ) -> AmortizedMidpointBatchState:
        """Stack batch states, keeping each scenario's phase position.

        States may sit at different phase positions (the stack then carries
        a per-scenario position array), but must share their phase length.
        """
        states = tuple(batch_states)
        if not states:
            raise AlgorithmError("cannot stack zero batch states")
        lengths = {state.phase_length for state in states}
        if len(lengths) != 1:
            raise AlgorithmError(
                "amortized-midpoint scenarios must share one phase length to stack "
                f"batch states; got phase lengths {sorted(lengths)}"
            )
        positions = [state.rounds_into_phase for state in states]
        if any(np.ndim(position) for position in positions) or len(set(positions)) > 1:
            positions = np.stack(
                [
                    np.broadcast_to(state.rounds_into_phase, np.shape(state.value)[:-2])
                    for state in states
                ]
            )
        else:
            positions = positions[0]
        return AmortizedMidpointBatchState(
            value=np.stack([state.value for state in states]),
            phase_min=np.stack([state.phase_min for state in states]),
            phase_max=np.stack([state.phase_max for state in states]),
            rounds_into_phase=positions,
            phase_length=lengths.pop(),
        )

    def batch_state_fixpoint(
        self,
        previous: AmortizedMidpointBatchState,
        new: AmortizedMidpointBatchState,
    ):
        """Scenarios whose amortized-midpoint outputs provably never change.

        After a *non-reset* round, ``new.phase_min == previous.value`` with
        ``previous.phase_min == previous.value`` implies
        ``masked_min(A, value) == value`` (the round folded the adjacency's
        masked minimum into extremes that did not move, and the self-loop
        bounds the masked minimum from above) — and symmetrically for the
        maximum.  From such a state every future round under the same
        adjacency keeps the extremes collapsed at ``value``, and every phase
        end computes ``(value + value) / 2``, which reproduces ``value``
        bit-for-bit whenever the doubling does not overflow (checked
        explicitly), so the outputs are fixed forever.  Reset rounds
        (``new.rounds_into_phase == 0``) collapse the extremes trivially and
        claim nothing; in a stack of mixed phase positions this masks the
        scenarios that just reset.
        """
        reset = np.asarray(new.rounds_into_phase) == 0
        if reset.all():
            return np.zeros(np.shape(new.value)[:-2], dtype=bool)
        fixed = (
            (previous.phase_min == previous.value)
            & (previous.phase_max == previous.value)
            & (new.value == previous.value)
            & (new.phase_min == previous.value)
            & (new.phase_max == previous.value)
            & ((new.value + new.value) * 0.5 == new.value)
        ).all(axis=(-2, -1))
        return fixed & ~reset

    def batch_states(self, batch_state: AmortizedMidpointBatchState) -> Tuple[AmortizedMidpointState, ...]:
        if batch_state.value.ndim != 2:
            raise AlgorithmError(
                f"per-agent states only exist for a single scenario, got shape {batch_state.value.shape}"
            )
        return tuple(
            AmortizedMidpointState(
                value=batch_state.value[i].copy(),
                phase_min=batch_state.phase_min[i].copy(),
                phase_max=batch_state.phase_max[i].copy(),
                rounds_into_phase=int(batch_state.rounds_into_phase),
                phase_length=batch_state.phase_length,
            )
            for i in range(batch_state.value.shape[0])
        )

    @property
    def name(self) -> str:
        if self._phase_length_override:
            return f"amortized-midpoint(phase={self._phase_length_override})"
        return "amortized-midpoint"
