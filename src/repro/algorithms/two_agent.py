"""Algorithm 1 of the paper: the optimal two-agent averaging algorithm.

Each round the agent broadcasts its value; if it receives the other agent's
value it moves to ``y_i/3 + 2*y_j/3``.  In the network model ``{H0, H1, H2}``
of all rooted two-agent graphs this achieves contraction rate exactly 1/3,
matching the Theorem 1 lower bound.

The intuition for the asymmetric weights: the adversary's best move is to let
exactly one agent hear the other (graphs ``H1``/``H2``); moving two thirds of
the way toward the heard value balances the progress made in the heard and
unheard directions, so that the worst-case per-round range contraction is 1/3
instead of the 1/2 obtained by the symmetric midpoint rule.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.algorithms.base import ConvexCombinationAlgorithm, receive_mask
from repro.exceptions import AlgorithmError


class TwoAgentThirdsAlgorithm(ConvexCombinationAlgorithm):
    """The two-agent algorithm with update ``y_i <- y_i/3 + 2 y_j/3`` (Algorithm 1).

    Only defined for systems of ``n = 2`` agents.
    """

    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> np.ndarray:
        if n != 2:
            raise AlgorithmError(
                f"TwoAgentThirdsAlgorithm is only defined for n = 2 agents, got n = {n}"
            )
        return super().initial_state(agent_id, initial_value, n)

    def combine(
        self, agent_id: int, received: Dict[int, np.ndarray], round_number: int
    ) -> np.ndarray:
        own = received[agent_id]
        others = [value for sender, value in received.items() if sender != agent_id]
        if not others:
            return own
        other = others[0]
        return own / 3.0 + 2.0 * other / 3.0

    def combine_all(
        self, adjacency: np.ndarray, values: np.ndarray, round_number: int
    ) -> Optional[np.ndarray]:
        if values.shape[-2] != 2:
            raise AlgorithmError(
                f"TwoAgentThirdsAlgorithm is only defined for n = 2 agents, got n = {values.shape[-2]}"
            )
        # At n = 2 a receiver heard the other agent iff its mask row is all
        # true (a fault-masked row may have lost its own self-loop).
        heard_other = receive_mask(adjacency).all(axis=-1)
        other_values = values[..., ::-1, :]  # at n = 2, the other agent's value
        moved = values / 3.0 + 2.0 * other_values / 3.0
        return np.where(heard_other[..., None], moved, values)

    def round_invariant(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return "two-agent-thirds"
