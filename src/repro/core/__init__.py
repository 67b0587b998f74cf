"""The paper's primary contribution: valencies, contraction rates and bounds.

This package implements

* the extended **valency** notion for asymptotic consensus (Section 3) and an
  estimator of valency diameters ``δ_N(C)`` along executions;
* the **contraction rate** (Section 3) and empirical estimators of it;
* the **adversaries** used in the lower-bound proofs (Theorems 1, 2, 3, 5)
  plus generic greedy/lookahead adversaries;
* closed forms of every **lower and upper bound** in Table 1, together with a
  classifier that maps a network model to the strongest applicable bound;
* the **decision-time bounds** for approximate consensus (Theorems 8–11);
* **indistinguishability** helpers (Lemmas 6, 7 and 14).
"""

from repro.core.adversary import (
    GreedyDiameterAdversary,
    LookaheadDiameterAdversary,
    PsiBlockAdversary,
    TwoAgentAdversary,
    worst_constant_suffixes,
)
from repro.core.contraction import (
    ContractionMeasurement,
    certified_rate_interval,
    fit_trace_rate,
    measure_contraction_rate,
    valency_contraction_trace,
    valency_contraction_trace_ensemble,
)
from repro.core.decision_times import (
    amortized_midpoint_decision_round,
    deaf_decision_time_lower_bound,
    decision_time_lower_bound,
    general_decision_time_lower_bound,
    midpoint_decision_round,
    psi_decision_time_lower_bound,
    two_agent_decision_round,
    two_agent_decision_time_lower_bound,
)
from repro.core.indistinguishability import (
    indistinguishable_agents,
    lemma6_holds,
    lemma14_holds,
)
from repro.core.lower_bounds import (
    LowerBound,
    alpha_diameter_lower_bound,
    amortized_midpoint_upper_bound,
    contraction_rate_lower_bound,
    deaf_graphs_lower_bound,
    midpoint_upper_bound,
    psi_lower_bound,
    round_based_crash_lower_bound,
    round_based_crash_upper_bound,
    two_agent_lower_bound,
    two_agent_upper_bound,
)
from repro.core.valency import ValencyEstimate, ValencyEstimator

__all__ = [
    "ValencyEstimator",
    "ValencyEstimate",
    "ContractionMeasurement",
    "certified_rate_interval",
    "fit_trace_rate",
    "measure_contraction_rate",
    "valency_contraction_trace",
    "GreedyDiameterAdversary",
    "LookaheadDiameterAdversary",
    "TwoAgentAdversary",
    "PsiBlockAdversary",
    "worst_constant_suffixes",
    "LowerBound",
    "contraction_rate_lower_bound",
    "two_agent_lower_bound",
    "two_agent_upper_bound",
    "deaf_graphs_lower_bound",
    "midpoint_upper_bound",
    "psi_lower_bound",
    "amortized_midpoint_upper_bound",
    "alpha_diameter_lower_bound",
    "round_based_crash_lower_bound",
    "round_based_crash_upper_bound",
    "two_agent_decision_time_lower_bound",
    "deaf_decision_time_lower_bound",
    "psi_decision_time_lower_bound",
    "general_decision_time_lower_bound",
    "decision_time_lower_bound",
    "two_agent_decision_round",
    "midpoint_decision_round",
    "amortized_midpoint_decision_round",
    "indistinguishable_agents",
    "lemma6_holds",
    "lemma14_holds",
]
