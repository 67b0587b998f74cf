"""Tests for the Table-1 closed-form bounds and the model classifier."""

import math
import tracemalloc

import pytest

from repro.core.lower_bounds import (
    alpha_diameter_lower_bound,
    amortized_midpoint_upper_bound,
    contraction_rate_lower_bound,
    deaf_graphs_lower_bound,
    general_async_contraction_rate,
    midpoint_upper_bound,
    psi_lower_bound,
    round_based_crash_lower_bound,
    round_based_crash_upper_bound,
    two_agent_lower_bound,
    two_agent_upper_bound,
)
from repro.core import lower_bounds
from repro.exceptions import ModelError
from repro.graphs.families import deaf_family
from repro.graphs import relations
from repro.models.standard import (
    all_rooted_model,
    crash_model,
    deaf_model,
    psi_model,
    two_agent_model,
)


class TestClosedForms:
    def test_two_agent_bounds_match(self):
        assert two_agent_lower_bound() == pytest.approx(1.0 / 3.0)
        assert two_agent_upper_bound() == two_agent_lower_bound()

    def test_deaf_bound_is_one_half(self):
        assert deaf_graphs_lower_bound() == 0.5
        assert midpoint_upper_bound() == 0.5

    @pytest.mark.parametrize("n", [4, 5, 8, 16])
    def test_psi_bound_closed_form(self, n):
        assert psi_lower_bound(n) == pytest.approx(0.5 ** (1.0 / (n - 2)))

    def test_psi_bound_requires_four_agents(self):
        with pytest.raises(ModelError):
            psi_lower_bound(3)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_amortized_upper_bound_closed_form(self, n):
        assert amortized_midpoint_upper_bound(n) == pytest.approx(0.5 ** (1.0 / (n - 1)))

    def test_psi_lower_bound_is_below_amortized_upper_bound(self):
        # Table 1 leaves an asymptotically vanishing gap between Theorem 3's
        # (1/2)^(1/(n-2)) and the amortized midpoint's (1/2)^(1/(n-1)).
        for n in (4, 6, 10):
            assert psi_lower_bound(n) <= amortized_midpoint_upper_bound(n)

    def test_alpha_diameter_bound(self):
        assert alpha_diameter_lower_bound(1.0) == pytest.approx(0.5)
        assert alpha_diameter_lower_bound(3.0) == pytest.approx(0.25)
        assert alpha_diameter_lower_bound(float("inf")) == 0.0
        with pytest.raises(ModelError):
            alpha_diameter_lower_bound(0.5)

    @pytest.mark.parametrize("n,f", [(3, 1), (7, 3), (10, 4)])
    def test_round_based_crash_bounds(self, n, f):
        assert round_based_crash_lower_bound(n, f) == pytest.approx(
            1.0 / (math.ceil(n / f) + 1)
        )
        assert round_based_crash_upper_bound(n, f) == pytest.approx(
            1.0 / (math.ceil(n / f) - 1)
        )
        assert round_based_crash_lower_bound(n, f) < round_based_crash_upper_bound(n, f)

    def test_crash_bounds_require_minority_faults(self):
        with pytest.raises(ModelError):
            round_based_crash_lower_bound(4, 2)

    def test_general_async_rate_is_zero(self):
        assert general_async_contraction_rate() == 0.0


class TestClassifier:
    def test_two_agent_model_classifies_to_theorem_1(self):
        bound = contraction_rate_lower_bound(two_agent_model())
        assert bound.theorem == "Theorem 1"
        assert bound.value == pytest.approx(1.0 / 3.0)

    def test_deaf_model_classifies_to_theorem_2(self):
        bound = contraction_rate_lower_bound(deaf_model(n=4))
        assert bound.theorem == "Theorem 2"
        assert bound.value == 0.5

    def test_deaf_families_are_built_only_when_every_agent_can_be_deaf(
        self, monkeypatch
    ):
        calls = []

        def counting_deaf_family(graph):
            calls.append(graph)
            return deaf_family(graph)

        monkeypatch.setattr(lower_bounds, "deaf_family", counting_deaf_family)
        # No agent of N_A(5, 1) is ever deaf: no candidate family is built.
        assert contraction_rate_lower_bound(crash_model(5, 1)).theorem != "Theorem 2"
        assert calls == []
        for n in (3, 4, 5):
            bound = contraction_rate_lower_bound(deaf_model(n=n))
            assert (bound.theorem, bound.value) == ("Theorem 2", 0.5)
        assert calls

    def test_psi_model_classifies_to_theorem_3(self):
        n = 5
        bound = contraction_rate_lower_bound(psi_model(n))
        assert bound.theorem == "Theorem 3"
        assert bound.value == pytest.approx(psi_lower_bound(n))

    def test_crash_model_classifies_to_theorem_5(self):
        # N_A(3, 1) is one source-incompatible β-class of α-diameter 3.
        bound = contraction_rate_lower_bound(crash_model(3, 1))
        assert bound.theorem == "Theorem 5 / Corollary 23"
        assert bound.value == pytest.approx(0.25)


class TestClassifierScale:
    """Models of thousands of graphs classify in bounded memory."""

    def test_crash_model_n5_classifies_within_memory(self):
        model = crash_model(5, 1)
        tracemalloc.start()
        try:
            bound = contraction_rate_lower_bound(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound.theorem == "Theorem 5 / Corollary 23"
        assert bound.value == pytest.approx(1.0 / 6.0)
        assert peak < 256 * 2**20

    def test_all_rooted_model_n4_classifies_to_theorem_3(self):
        bound = contraction_rate_lower_bound(all_rooted_model(4))
        assert bound.theorem == "Theorem 3"
        assert bound.value == pytest.approx(psi_lower_bound(4))

    def test_model_over_the_byte_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(relations, "_BUCKET_BYTE_BUDGET", 1024)
        with pytest.raises(ModelError, match="G=256"):
            contraction_rate_lower_bound(crash_model(4, 1))
