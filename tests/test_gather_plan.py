"""The in-neighbour gather plan of model-graph stacks (``GatherPlan``).

A :class:`~repro.algorithms.base.PlannedStack` is the dense adjacency stack
plus, per receiver, the rows of the senders it hears.  The masked extremes
take it before every other kernel, and must return the dense kernel's bytes
(``±0`` made ``+0.0``, NaN propagated); any array derived from the carrier
must fall back to the ordinary dispatch.  The valency engine plans its
prefix, suffix and retirement stacks, and its records must stay byte-equal
to the per-future reference loop.  Every such stack, and every adversary
plan's candidate stack, memoizes the kernel it resolves: memoized calls
must equal the plain array's dispatch byte for byte, validate once per
value signature, still reject malformed values, and never memoize
sort-select; derived stacks dispatch afresh.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.algorithms import AmortizedMidpointAlgorithm, MidpointAlgorithm
from repro.algorithms import base as reductions
from repro.algorithms.base import (
    GatherPlan,
    PlannedStack,
    _masked_extremes_dense,
    masked_extreme_pair,
    masked_max,
    masked_min,
    masked_min_max,
    receive_mask,
)
from repro.core.adversary import (
    GreedyDiameterAdversary,
    LookaheadDiameterAdversary,
    PsiBlockAdversary,
    TwoAgentAdversary,
)
from repro.core.valency import ValencyEstimator
from repro.exceptions import EnsembleShapeError
from repro.execution.engine import initial_configuration, run_execution
from repro.models.patterns import SequencePattern
from repro.models.standard import crash_model, deaf_model, psi_model, two_agent_model
from tests.kernel_bytes import assert_no_negative_zero, assert_same_bytes
from tests.valency_records import record_bytes

MODELS = {
    "deaf4": lambda: deaf_model(n=4),
    "deaf6": lambda: deaf_model(n=6),
    "psi5": lambda: psi_model(5),
    "psi12": lambda: psi_model(12),
    "two_agent": two_agent_model,
    "crash4_1": lambda: crash_model(4, 1),
}

#: Every special float: the plan must propagate NaN and erase ``-0.0``.
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


def _graphs(name):
    return np.stack([graph.adjacency for graph in MODELS[name]()])


def _planned(name, count, seed):
    graphs = _graphs(name)
    rng = np.random.default_rng(seed)
    stack = GatherPlan(graphs).stack(rng.integers(len(graphs), size=count))
    assert isinstance(stack, PlannedStack) and stack.plan is not None
    return stack, rng


def _dense(adjacency, min_values, max_values):
    mask = receive_mask(np.asarray(adjacency))
    return _masked_extremes_dense(mask, min_values, max_values)


def _all_calls(adjacency, values, other):
    """Every public masked extreme with its dense reference."""
    return [
        ((masked_min(adjacency, values), None), _dense(adjacency, values, None)),
        ((None, masked_max(adjacency, values)), _dense(adjacency, None, values)),
        (masked_min_max(adjacency, values), _dense(adjacency, values, values)),
        (masked_extreme_pair(adjacency, values, other), _dense(adjacency, values, other)),
        (masked_extreme_pair(adjacency, values, None), _dense(adjacency, values, None)),
        (masked_extreme_pair(adjacency, None, other), _dense(adjacency, None, other)),
    ]


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Record which private kernel each public masked reduction ran."""
    calls = []
    for name in ("gather", "dense", "fold", "sorted"):
        original = getattr(reductions, f"_masked_extremes_{name}")

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(reductions, f"_masked_extremes_{name}", spy)
    return calls


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("d", [1, 3])
def test_plan_matches_dense_bytes_on_special_values(kernel_calls, model, d):
    stack, rng = _planned(model, 37, seed=d)
    n = stack.shape[-1]
    values = rng.choice(SPECIAL, size=(37, n, d))
    other = rng.choice(SPECIAL, size=(37, n, d))
    for got, want in _all_calls(stack, values, other):
        for got_side, want_side in zip(got, want):
            assert_same_bytes(got_side, want_side)
            assert_no_negative_zero(got_side)
    assert set(kernel_calls) == {"gather"}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_plan_survives_a_retirement_slice(kernel_calls, model):
    stack, rng = _planned(model, 40, seed=5)
    keep = rng.random(40) < 0.4
    kept = stack.keep(keep)
    assert kept.plan is not None and np.array_equal(kept, np.asarray(stack)[keep])
    n = stack.shape[-1]
    values = rng.choice(SPECIAL, size=(int(keep.sum()), n, 2))
    for got, want in _all_calls(kept, values, values[::-1].copy()):
        for got_side, want_side in zip(got, want):
            assert_same_bytes(got_side, want_side)
    assert set(kernel_calls) == {"gather"}


def test_plan_pads_with_a_real_in_neighbour():
    # Ψ(5)'s receivers hear between 1 and 4 senders: every padded entry
    # repeats one the receiver really hears, and every sender it hears
    # appears.
    graphs = _graphs("psi5")
    plan = GatherPlan(graphs)
    mask = receive_mask(graphs)
    n = graphs.shape[-1]
    stack = plan.stack(np.arange(len(graphs)))
    assert stack.plan.shape == (mask.sum(axis=-1).max(), len(graphs) * n)
    for column, (graph, receiver) in enumerate(np.ndindex(len(graphs), n)):
        senders = stack.plan[:, column] - graph * n
        assert set(senders) == set(np.flatnonzero(mask[graph, receiver]))


def test_plan_takes_the_stacks_own_largest_in_degree():
    # deaf(K_4): the complete graph hears 4 senders, a deaf-only stack 1.
    graphs = np.stack([np.eye(4, dtype=bool), np.ones((4, 4), dtype=bool)])
    plan = GatherPlan(graphs)
    assert plan.stack([0, 0, 0]).plan.shape == (1, 12)
    assert plan.stack([0, 1]).plan.shape == (4, 8)


def test_no_plan_when_a_receiver_hears_nobody(kernel_calls):
    graphs = np.stack([np.ones((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool)])
    graphs[1, 0, 0] = True  # receivers 1 and 2 of graph 1 hear nobody
    plan = GatherPlan(graphs)
    assert plan.senders is None
    stack = plan.stack([0, 1, 1])
    assert not isinstance(stack, PlannedStack)
    values = np.arange(9.0).reshape(3, 3, 1)
    lo, hi = masked_min_max(stack, values)
    assert_same_bytes(lo, _dense(stack, values, values)[0])
    assert lo[1, 1, 0] == np.inf and hi[1, 1, 0] == -np.inf
    assert "gather" not in kernel_calls


def _derived(stack):
    """Arrays derived from a carrier: none may keep its plan."""
    half = stack.shape[0] // 2
    return {
        "slice": (stack[1:], slice(1, None)),
        "plus-zero": (stack + 0, slice(None)),
        "thread-shard": (stack[:half], slice(None, half)),
        "view": (stack.view(), slice(None)),
    }


@pytest.mark.parametrize("derived", ["slice", "plus-zero", "thread-shard", "view"])
def test_derived_carriers_fall_back_to_todays_kernels(kernel_calls, derived):
    stack, rng = _planned("deaf4", 400, seed=11)
    values = rng.normal(size=(400, 4, 1))
    # The carrier itself gathers; at this shape the dispatcher otherwise
    # takes the small-n fold.
    masked_min_max(stack, values)
    assert kernel_calls == ["gather"]
    array, rows = _derived(stack)[derived]
    assert isinstance(array, PlannedStack) and array.plan is None
    kernel_calls.clear()
    got = masked_min_max(array, values[rows])
    assert kernel_calls == ["fold"]
    for got_side, want_side in zip(got, _dense(array, values[rows], values[rows])):
        assert_same_bytes(got_side, want_side)


def test_plan_skips_values_it_cannot_gather(kernel_calls):
    stack, rng = _planned("psi5", 6, seed=2)
    n = stack.shape[-1]
    for values in (
        rng.normal(size=(n, 1)),  # shared by the stack
        rng.normal(size=(1, n, 1)),  # broadcast over the stack
        rng.normal(size=(2, 6, n, 1)),  # an extra leading axis
        rng.normal(size=(6, n, 1)).astype(np.float32),
    ):
        kernel_calls.clear()
        lo, hi = masked_min_max(stack, values)
        assert "gather" not in kernel_calls
        want = _dense(stack, values, values)
        assert_same_bytes(lo, want[0])
        assert_same_bytes(hi, want[1])


def test_plan_keeps_the_dense_element_limit(kernel_calls, monkeypatch):
    # The gathered (k, F·n, d) rows obey the same cap as a dense intermediate.
    stack, rng = _planned("deaf4", 50, seed=3)
    values = rng.normal(size=(50, 4, 2))
    gathered = stack.plan.size * 2
    monkeypatch.setattr(reductions, "_AUTO_DENSE_ELEMENT_LIMIT", gathered)
    masked_min(stack, values)
    monkeypatch.setattr(reductions, "_AUTO_DENSE_ELEMENT_LIMIT", gathered - 1)
    masked_min(stack, values)
    assert kernel_calls[0] == "gather" and kernel_calls[1] != "gather"


@pytest.fixture()
def plan_hits(monkeypatch):
    """Count masked extremes that the valency engine sends down the plan."""
    hits = []
    original = reductions._masked_extremes_gather

    def spy(*args):
        hits.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(reductions, "_masked_extremes_gather", spy)
    return hits


ESTIMATOR_CASES = {
    "midpoint-deaf4": (MidpointAlgorithm, lambda: deaf_model(n=4)),
    "amortized-psi5": (AmortizedMidpointAlgorithm, lambda: psi_model(5)),
}


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
def test_valency_records_match_reference(plan_hits, case, depth):
    make_algorithm, make_model = ESTIMATOR_CASES[case]
    algorithm, model = make_algorithm(), make_model()
    n = model.n
    values = np.linspace(0.0, 1.0, n)
    graphs = [graph for graph in model][:2] * 3
    execution = run_execution(algorithm, values, SequencePattern(graphs), rounds=6)
    configurations = list(execution.configurations)
    # An agreed configuration retires every future at the first check.
    configurations.append(initial_configuration(algorithm, np.full(n, 0.25)))
    kwargs = dict(suffix_rounds=30, exploration_depth=depth)
    batched = ValencyEstimator(algorithm, model, use_batch=True, **kwargs)
    reference = ValencyEstimator(algorithm, model, use_batch=False, **kwargs)
    record = batched.trace(configurations)
    assert plan_hits
    assert record_bytes(record) == record_bytes(reference.trace(configurations))


# --------------------------------------------------------------------------- #
# Kernel memo of reused stacks
# --------------------------------------------------------------------------- #

#: Every shipped adversary with its agent count.
ADVERSARIES = {
    "greedy-deaf4": (lambda: GreedyDiameterAdversary(deaf_model(n=4)), 4),
    "lookahead-deaf3": (lambda: LookaheadDiameterAdversary(deaf_model(n=3), 2), 3),
    "two-agent": (TwoAgentAdversary, 2),
    "psi-block5": (lambda: PsiBlockAdversary(5), 5),
}

#: ``label -> (fresh stacks, value shape without d)``: every adversary's
#: candidate stacks against ``(B, 1, n)`` scenario values, and a planned
#: suffix stack of every model against ``(F, n)`` values.
MEMO_CASES = {
    **{
        f"{name}-candidates": (
            lambda make=make, n=n: make().ensemble_plan(1, n).adjacency_stacks,
            (3, 1, n),
        )
        for name, (make, n) in ADVERSARIES.items()
    },
    **{
        f"{name}-suffix": (
            lambda name=name: (_planned(name, 24, seed=4)[0],),
            (24, MODELS[name]().n),
        )
        for name in MODELS
    },
}


def _memo_case(label):
    make_stacks, shape = MEMO_CASES[label]
    return make_stacks(), shape


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memoized_stack_equals_plain_dispatch(case, d):
    # Each call twice: the first resolves and memoizes, the second reads
    # the memo; both must equal the plain array's dispatch byte for byte.
    stacks, shape = _memo_case(case)
    rng = np.random.default_rng(d)
    values = rng.choice(SPECIAL, size=shape + (d,))
    other = rng.choice(SPECIAL, size=shape + (d,))
    # A Ψ-block plan's offsets share one stack: check each distinct one.
    for stack in {id(stack): stack for stack in stacks}.values():
        assert isinstance(stack, PlannedStack) and stack._kernels == {}
        plain = np.asarray(stack)
        for _ in range(2):
            got_calls = _all_calls(stack, values, other)
            for got, want in zip(got_calls, _all_calls(plain, values, other)):
                for got_side, want_side in zip(got[0], want[0]):
                    assert_same_bytes(got_side, want_side)
                    assert_no_negative_zero(got_side)
        assert stack._kernels


@pytest.fixture()
def resolutions(monkeypatch):
    """Count the dispatcher's kernel resolutions (validation and rules)."""
    calls = []
    original = reductions._resolve_kernel

    def spy(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(reductions, "_resolve_kernel", spy)
    return calls


@pytest.mark.parametrize("case", ["greedy-deaf4-candidates", "deaf4-suffix"])
def test_memoized_stack_validates_once_per_signature(resolutions, case):
    (stack, *_), shape = _memo_case(case)
    rng = np.random.default_rng(0)
    narrow = rng.normal(size=shape + (1,))
    wide = rng.normal(size=shape + (2,))
    for _ in range(3):
        masked_min_max(stack, narrow)
    assert len(resolutions) == 1
    masked_min_max(stack, wide)
    masked_extreme_pair(stack, narrow, narrow.copy())  # two objects: a new signature
    masked_min(stack, narrow)  # one side: a new signature
    assert len(resolutions) == 4
    for values in (narrow, wide):
        masked_min_max(stack, rng.normal(size=values.shape))
    masked_extreme_pair(stack, narrow, narrow.copy())
    masked_min(stack, narrow)
    assert len(resolutions) == 4
    # Values that are not exact ndarrays are never memoized.
    masked_min_max(stack, narrow.tolist())
    masked_min_max(stack, narrow.tolist())
    assert len(resolutions) == 6


@pytest.mark.parametrize("case", ["greedy-deaf4-candidates", "deaf4-suffix"])
def test_memoized_stack_still_rejects_malformed_values(case):
    (stack, *_), shape = _memo_case(case)
    rng = np.random.default_rng(1)
    masked_min_max(stack, rng.normal(size=shape + (1,)))
    n = stack.shape[-1]
    with pytest.raises(EnsembleShapeError, match="disagree on the number of agents"):
        masked_min_max(stack, rng.normal(size=shape[:-1] + (n + 1, 1)))
    with pytest.raises(EnsembleShapeError, match="coordinate dimension"):
        masked_extreme_pair(stack, rng.normal(size=shape + (1,)), rng.normal(size=shape + (2,)))
    with pytest.raises(EnsembleShapeError, match="incompatible leading"):
        masked_min_max(stack, rng.normal(size=(7, n, 1)))
    with pytest.raises(EnsembleShapeError, match=r"\(\.\.\., n, d\)"):
        masked_min_max(stack, np.zeros(n))


@pytest.mark.parametrize("derive", ["slice", "deep-copy"])
def test_derived_stacks_dispatch_afresh(resolutions, kernel_calls, derive):
    (stack,), shape = _memo_case("deaf4-suffix")
    values = np.random.default_rng(2).normal(size=shape + (1,))
    masked_min_max(stack, values)
    derived = stack[:] if derive == "slice" else copy.deepcopy(stack)
    assert isinstance(derived, PlannedStack) and derived._kernels is None
    resolutions.clear()
    for _ in range(2):
        got = masked_min_max(derived, values)
    assert len(resolutions) == 2
    for got_side, want_side in zip(got, masked_min_max(stack, values)):
        assert_same_bytes(got_side, want_side)


def test_sort_select_is_never_memoized(resolutions, kernel_calls):
    # Values shared by a (24, 16, 16) stack take sort-select unless a value
    # is NaN; neither choice may be memoized, as the next call's NaN decides.
    rng = np.random.default_rng(3)
    stack = PlannedStack.of(rng.random((24, 16, 16)) < 0.3)
    values = rng.normal(size=(16, 1))
    with_nan = values.copy()
    with_nan[5] = np.nan
    for current in (values, with_nan, values, with_nan):
        got = masked_min_max(stack, current)
        for got_side, want_side in zip(got, _dense(stack, current, current)):
            assert_same_bytes(got_side, want_side)
    assert kernel_calls == ["sorted", "dense", "sorted", "dense"]
    assert len(resolutions) == 4 and stack._kernels == {}
