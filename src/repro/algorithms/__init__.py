"""Algorithms for asymptotic, approximate and exact consensus.

The package contains every algorithm the paper uses as an upper bound,
baseline or example:

* :class:`~repro.algorithms.two_agent.TwoAgentThirdsAlgorithm` — Algorithm 1,
  optimal for ``n = 2`` (contraction rate 1/3).
* :class:`~repro.algorithms.midpoint.MidpointAlgorithm` — Algorithm 2,
  optimal for non-split models (contraction rate 1/2).
* :class:`~repro.algorithms.amortized_midpoint.AmortizedMidpointAlgorithm` —
  asymptotically optimal for rooted models (contraction rate ``2^(-1/(n-1))``).
* :class:`~repro.algorithms.mean.MeanAlgorithm` and
  :mod:`~repro.algorithms.weighted` — classical averaging baselines.
* :class:`~repro.algorithms.mass_splitting.MassSplittingAlgorithm` — the
  non-convex-combination example from the introduction.
* :class:`~repro.algorithms.hegselmann_krause.HegselmannKrauseAlgorithm` —
  bounded-confidence opinion dynamics (application example).
* :class:`~repro.algorithms.exact.FloodingExactConsensus` — exact consensus by
  flooding, as used in the Theorem 4 construction.
* :class:`~repro.algorithms.approximate.DecidingAlgorithm` — deciding wrappers
  turning asymptotic algorithms into approximate consensus algorithms.
"""

from repro.algorithms.amortized_midpoint import AmortizedMidpointAlgorithm, AmortizedMidpointState
from repro.algorithms.approximate import (
    DecidingAlgorithm,
    DecidingState,
    all_agents_decided,
    decisions_of_execution,
    epsilon_agreement_holds,
)
from repro.algorithms.base import (
    Algorithm,
    ConvexCombinationAlgorithm,
    masked_extreme_pair,
    masked_max,
    masked_min,
    masked_min_max,
)
from repro.algorithms.exact import FloodingExactConsensus, FloodingState, flooding_horizon_sufficient
from repro.algorithms.hegselmann_krause import HegselmannKrauseAlgorithm
from repro.algorithms.mass_splitting import MassSplittingAlgorithm
from repro.algorithms.mean import MeanAlgorithm
from repro.algorithms.midpoint import MidpointAlgorithm
from repro.algorithms.two_agent import TwoAgentThirdsAlgorithm
from repro.algorithms.weighted import CallableWeightAveraging, SelfWeightedAveraging

__all__ = [
    "Algorithm",
    "ConvexCombinationAlgorithm",
    "masked_min",
    "masked_max",
    "masked_min_max",
    "masked_extreme_pair",
    "MidpointAlgorithm",
    "AmortizedMidpointAlgorithm",
    "AmortizedMidpointState",
    "TwoAgentThirdsAlgorithm",
    "MeanAlgorithm",
    "SelfWeightedAveraging",
    "CallableWeightAveraging",
    "MassSplittingAlgorithm",
    "HegselmannKrauseAlgorithm",
    "FloodingExactConsensus",
    "FloodingState",
    "flooding_horizon_sufficient",
    "DecidingAlgorithm",
    "DecidingState",
    "decisions_of_execution",
    "epsilon_agreement_holds",
    "all_agents_decided",
]
