"""Paper-claim oracles for the indistinguishability relation ``∼_i``.

Lemmas 6 and 14 are statements about information flow, so they hold for
every deterministic algorithm and configuration: these property tests check
them on the midpoint and amortized midpoint algorithms, with hypotheses
that hold (never vacuously).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import AmortizedMidpointAlgorithm, MidpointAlgorithm
from repro.core.indistinguishability import (
    indistinguishable_agents,
    lemma6_holds,
    lemma14_holds,
)
from repro.execution.engine import initial_configuration, run_from_configuration
from repro.models.standard import deaf_model, psi_model

ALGORITHMS = {"midpoint": MidpointAlgorithm, "amortized-midpoint": AmortizedMidpointAlgorithm}


@settings(max_examples=40)
@given(
    name=st.sampled_from(sorted(ALGORITHMS)),
    n=st.integers(4, 6),
    pair=st.permutations([0, 1, 2]),
    prefix=st.lists(st.integers(0, 2), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_lemma14_sigma_blocks_look_alike_to_the_third_special_agent(
    name, n, pair, prefix, seed
):
    # σ_i.C ∼_ℓ σ_j.C from any configuration C, here reached by a random Ψ
    # prefix so the amortized midpoint also starts mid-phase.
    algorithm = ALGORITHMS[name]()
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 1))
    psi = list(psi_model(n))
    configuration, _ = run_from_configuration(
        algorithm, initial_configuration(algorithm, values), [psi[i] for i in prefix]
    )
    deaf_i, deaf_j = pair[:2]
    assert lemma14_holds(algorithm, configuration, n, deaf_i, deaf_j)


@settings(max_examples=40)
@given(
    name=st.sampled_from(sorted(ALGORITHMS)),
    n=st.integers(3, 5),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_lemma6_equal_in_neighbourhoods_preserve_indistinguishability(
    name, n, data, seed
):
    algorithm = ALGORITHMS[name]()
    graphs = list(deaf_model(n=n))
    graph_a = data.draw(st.sampled_from(graphs))
    graph_b = data.draw(st.sampled_from(graphs))
    agent = data.draw(st.integers(0, n - 1))
    in_neighbors = graph_a.in_neighbors(agent)
    assume(in_neighbors == graph_b.in_neighbors(agent))
    # C' agrees with C on the agent's in-neighbours only.
    rng = np.random.default_rng(seed)
    values_a = rng.uniform(-1.0, 1.0, size=(n, 1))
    values_b = rng.uniform(-1.0, 1.0, size=(n, 1))
    shared = sorted(in_neighbors)
    values_b[shared] = values_a[shared]
    config_a = initial_configuration(algorithm, values_a)
    config_b = initial_configuration(algorithm, values_b)
    assert in_neighbors <= indistinguishable_agents(config_a, config_b)
    assert lemma6_holds(algorithm, config_a, config_b, graph_a, graph_b, agent)
