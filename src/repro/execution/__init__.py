"""Round-based execution engine for the dynamic system model.

The engine turns an algorithm, a vector of initial values and a communication
pattern into an :class:`~repro.execution.execution.Execution` holding the
recorded history of configurations (Section 2): the per-round graphs, the
outputs ``y(t)`` and the agent states of the recorded rounds.  Every run keeps
one columnar record, :class:`~repro.execution.execution.EnsembleExecution`;
a single execution is its one-scenario view.

Two execution paths are provided: the per-agent reference path and a
vectorized fast path (see :mod:`repro.execution.engine`), plus a batched
ensemble runner (:mod:`repro.execution.batch`) that executes many scenarios
at once through the fast path.
"""

from repro.execution.batch import (
    AdversarialEnsembleExecution,
    EnsembleExecution,
    materialize_pattern,
    run_adversarial_ensemble,
    run_ensemble,
    run_pattern_ensemble,
    stack_initial_values,
    sweep,
)
from repro.execution.engine import (
    apply_graph,
    initial_configuration,
    run_execution,
    run_from_configuration,
    successor_outputs,
)
from repro.execution.execution import Execution
from repro.execution.metrics import (
    convergence_round,
    diameter_history,
    empirical_contraction_rate,
    is_valid_execution,
)
from repro.execution.state import Configuration

__all__ = [
    "AdversarialEnsembleExecution",
    "Configuration",
    "EnsembleExecution",
    "Execution",
    "apply_graph",
    "initial_configuration",
    "materialize_pattern",
    "run_adversarial_ensemble",
    "run_ensemble",
    "run_execution",
    "run_from_configuration",
    "run_pattern_ensemble",
    "stack_initial_values",
    "successor_outputs",
    "sweep",
    "diameter_history",
    "empirical_contraction_rate",
    "convergence_round",
    "is_valid_execution",
]
