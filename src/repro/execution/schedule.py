"""Per-round graph schedules: the one module that knows their form.

A schedule has one entry per round: a :class:`CommunicationGraph` shared by
every scenario, or a length-``B`` sequence of per-scenario graphs.  It stays
that plain list everywhere (``run_ensemble``, ``ScenarioSpec.graphs``,
campaign cases); only this module knows how the two round forms look.

On the wire each round is one bool array, ``(n, n)`` shared or ``(B, n, n)``
per-scenario, so its rank is the form.  Graph display names do not travel:
they are not part of graph identity.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import numpy as np

from repro.exceptions import EnsembleShapeError, SerializationError
from repro.graphs.digraph import CommunicationGraph

#: One round of ensemble communication: a single graph shared by every
#: scenario, or one graph per scenario (length ``B``).
RoundGraphs = Union[CommunicationGraph, Sequence[CommunicationGraph]]


def is_shared(round_graphs: RoundGraphs) -> bool:
    """Whether a round is one graph shared by every scenario."""
    return isinstance(round_graphs, CommunicationGraph)


class _CheckedRound(tuple):
    """A per-scenario round that passed :func:`validate_schedule` for ``n`` agents.

    Tuples and graphs are immutable, so a checked round of the expected
    length and agent count needs no second pass over its graphs: a sharded
    study validates its schedule once, and encoding its shard slices
    re-checks only their lengths.  The count is not called ``n``, which
    would make the round look like a graph to code that duck-types on it.
    """

    def __new__(cls, graphs, n: int) -> "_CheckedRound":
        checked = super().__new__(cls, graphs)
        checked._agent_count = n
        return checked


def validate_schedule(schedule: Sequence[RoundGraphs], batch_size: int, n: int) -> tuple:
    """Check every round against the *full* ensemble shape ``(batch_size, n)``.

    Returns the schedule with per-scenario rounds as tuples.  Every route
    validates here before it slices or runs a round, so a malformed schedule
    raises the identical :class:`EnsembleShapeError` however it is sharded.
    """
    rounds = []
    for round_graphs in schedule:
        if (
            type(round_graphs) is _CheckedRound
            and round_graphs._agent_count == n
            and len(round_graphs) == batch_size
        ):
            rounds.append(round_graphs)
            continue
        if is_shared(round_graphs):
            graphs = (round_graphs,)
        else:
            try:
                graphs = tuple(round_graphs)
            except TypeError as exc:
                raise EnsembleShapeError(
                    f"each ensemble round must be a CommunicationGraph or a length-{batch_size} "
                    f"sequence of them, got {type(round_graphs).__name__}"
                ) from exc
            if len(graphs) != batch_size:
                raise EnsembleShapeError(
                    f"per-scenario round needs {batch_size} graphs, got {len(graphs)}",
                    expected=batch_size,
                    actual=len(graphs),
                )
        for graph in graphs:
            if not isinstance(graph, CommunicationGraph):
                raise EnsembleShapeError(
                    f"each ensemble round must be a CommunicationGraph or a length-{batch_size} "
                    f"sequence of them, got an entry of type {type(graph).__name__}"
                )
            if graph.n != n:
                raise EnsembleShapeError(f"graph has {graph.n} agents, scenarios have {n}")
        rounds.append(round_graphs if is_shared(round_graphs) else _CheckedRound(graphs, n))
    return tuple(rounds)


def round_adjacency(round_graphs: RoundGraphs) -> np.ndarray:
    """The adjacency tensor of one ensemble round: ``(n, n)`` shared or ``(B, n, n)``.

    The round must already be checked against the ensemble shape: the
    runners validate a schedule at entry and adversarial commits come from
    checked plans, so nothing is re-validated per round.
    """
    if is_shared(round_graphs):
        return round_graphs.adjacency
    first = round_graphs[0]
    if all(graph is first for graph in round_graphs):
        # A uniform per-scenario list broadcasts like a shared graph; skip the
        # (B, n, n) stack entirely.
        return first.adjacency
    return _stack_adjacency(round_graphs)


def _stack_adjacency(round_graphs: Sequence[CommunicationGraph]) -> np.ndarray:
    """The ``(B, n, n)`` bool stack of a per-scenario round's adjacencies.

    Checked rounds hold graphs of one shape, so one ``np.array`` call builds
    the bytes ``np.stack`` would, at half its per-round cost.
    """
    return np.array([graph.adjacency for graph in round_graphs])


def scenario_graphs(schedule: Sequence[RoundGraphs], scenario: int) -> List[CommunicationGraph]:
    """The graph sequence scenario ``scenario`` sees, one graph per round."""
    return [graphs if is_shared(graphs) else graphs[scenario] for graphs in schedule]


def slice_schedule(schedule: Sequence[RoundGraphs], start: int, stop: int) -> List[RoundGraphs]:
    """The schedule of scenarios ``[start, stop)``; shared rounds pass through.

    The schedule must already be validated against the full ensemble shape
    (:func:`validate_schedule`), so a malformed one has raised the error the
    unsliced run would raise before any shard is cut.
    """
    return [
        round_graphs
        if is_shared(round_graphs)
        else _CheckedRound(round_graphs[start:stop], round_graphs._agent_count)
        for round_graphs in schedule
    ]


def schedule_from_scenarios(sequences: Sequence[Sequence[CommunicationGraph]]) -> list:
    """The per-scenario schedule of ``B`` scenarios' equally long graph sequences."""
    return [list(round_graphs) for round_graphs in zip(*sequences)]


def map_schedule(schedule: Sequence[RoundGraphs], fn: Callable) -> tuple:
    """Apply ``fn`` to every graph, keeping each round's form."""
    return tuple(
        fn(round_graphs) if is_shared(round_graphs) else tuple(map(fn, round_graphs))
        for round_graphs in schedule
    )


def encode_schedule(schedule: Sequence[RoundGraphs], batch_size: int, n: int) -> list:
    """One bool-array payload per round: ``(n, n)`` shared, ``(B, n, n)`` per-scenario."""
    from repro.service.serialization import encode_array

    return [
        encode_array(
            round_graphs.adjacency if is_shared(round_graphs) else _stack_adjacency(round_graphs)
        )
        for round_graphs in validate_schedule(schedule, batch_size, n)
    ]


def decode_schedule(payload: object, batch_size: int, n: int) -> List[RoundGraphs]:
    """Invert :func:`encode_schedule`; a malformed payload raises ``SerializationError``.

    Each round must be a bool array of shape ``(n, n)`` or ``(batch_size, n, n)``.
    """
    from repro.service.serialization import decode_array

    if not isinstance(payload, list):
        raise SerializationError(f"a graph schedule must be a list, got {type(payload).__name__}")
    forms = {2: (n, n), 3: (batch_size, n, n)}
    schedule: List[RoundGraphs] = []
    for t, entry in enumerate(payload, start=1):
        adjacency = decode_array(entry)
        if entry["dtype"] != "bool" or adjacency.shape != forms.get(adjacency.ndim):
            raise SerializationError(
                f"round {t} must be a bool (n, n) or (B, n, n) = {(batch_size, n, n)} "
                f"array, got {entry['dtype']} {adjacency.shape}"
            )
        if adjacency.ndim == 2:
            schedule.append(CommunicationGraph(n, adjacency=adjacency))
        else:
            schedule.append([CommunicationGraph(n, adjacency=matrix) for matrix in adjacency])
    return schedule
