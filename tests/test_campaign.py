"""The counterexample campaign service: registry, specs, corpus, campaign loop.

Covers the contracts the campaign subsystem promises:

* the fuzz-registry audit matches the serialization codec registry both ways
  and fails loudly on unfuzzed or phantom entries;
* case specs serialize canonically and rebuild bit-for-bit;
* generation, mutation and campaign planning are seed-deterministic;
* clean toggles agree, a deliberately perturbed toggle diverges, and the
  campaign finds the planted divergence, minimizes it and persists a
  replayable artifact within a small budget;
* resuming a finished campaign replays every round from the journal without
  re-executing a case.

The crash-resume (SIGKILL) path lives in test_campaign_crash.py and the
minimizer convergence contract in test_campaign_minimize.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import (
    Corpus,
    audit_registry,
    build_case,
    case_features,
    execute_case,
    mutate_spec,
    replay_artifact,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.registry import ORDERED_ENTRIES, REGISTRY, get_entry
from repro.campaign.repro import artifact_repro_command, repro_snippet
from repro.campaign.targets import TARGETS, CaseSpec, enumerate_targets, run_case
from repro.exceptions import CampaignError
from repro.service.checkpoint import CheckpointJournal
from repro.service.serialization import registered_algorithm_names

PERTURB = {"side": "left", "round": 1, "agent": 0, "epsilon": 1e-3}


# --------------------------------------------------------------------- #
# Registry audit
# --------------------------------------------------------------------- #


def test_every_registered_algorithm_is_fuzzed():
    audit = audit_registry()
    assert audit.ok, audit.summary()
    assert set(audit.fuzzed) | set(audit.reference_only) == set(
        registered_algorithm_names()
    )
    # The reference-only entries are called out explicitly in the summary.
    assert "mass-splitting" in audit.reference_only
    assert "flooding-exact" in audit.reference_only
    assert "min-relay-sync" in audit.reference_only
    assert "[reference-only: no batch hooks]" in audit.summary()


def test_audit_fails_loudly_on_unfuzzed_algorithm():
    names = registered_algorithm_names() + ("brand-new-algorithm",)
    audit = audit_registry(codec_names=names)
    assert not audit.ok
    assert audit.unfuzzed == ("brand-new-algorithm",)
    with pytest.raises(CampaignError, match="brand-new-algorithm"):
        audit_registry(strict=True, codec_names=names)


def test_audit_fails_on_fuzz_entry_without_codec():
    names = tuple(n for n in registered_algorithm_names() if n != "midpoint")
    audit = audit_registry(codec_names=names)
    assert not audit.ok
    assert audit.unknown == ("midpoint",)


def test_get_entry_rejects_unknown_keys():
    with pytest.raises(CampaignError, match="unknown fuzz-registry key"):
        get_entry("no-such-algorithm")


def test_capability_flags_gate_targets():
    mass = get_entry("mass-splitting")
    keys = enumerate_targets(mass)
    assert "batch_vs_loop" not in keys  # reference-only
    assert "faulted_batch_vs_loop" not in keys  # no fault support
    assert "simulator_vs_round" not in keys  # graph-pinned
    assert "facade_vs_direct" in keys
    midpoint = get_entry("midpoint")
    assert set(enumerate_targets(midpoint)) == set(TARGETS)


# --------------------------------------------------------------------- #
# Case specs: generation, serialization, execution
# --------------------------------------------------------------------- #


def test_build_case_is_deterministic():
    for target in TARGETS:
        assert build_case(target, 5).key() == build_case(target, 5).key()


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_spec_roundtrips_bit_for_bit(target):
    spec = build_case(target, 11)
    rebuilt = CaseSpec.from_dict(spec.to_dict())
    assert rebuilt.key() == spec.key()
    assert np.array_equal(rebuilt.values, spec.values)
    assert rebuilt.graphs == spec.graphs
    assert rebuilt.plan == spec.plan


def test_spec_rejects_malformed_payloads():
    spec = build_case("batch_vs_loop", 0)
    payload = spec.to_dict()
    with pytest.raises(CampaignError):
        CaseSpec.from_dict({**payload, "__type__": "something-else"})
    with pytest.raises(CampaignError):
        CaseSpec.from_dict({**payload, "version": 99})


def test_stored_spec_of_a_removed_target_fails_loudly():
    # packed_vs_dense toggled a masked-reduction option that no longer
    # exists; corpus entries and artifacts naming it must not run silently.
    payload = {**build_case("batch_vs_loop", 0).to_dict(), "target": "packed_vs_dense"}
    with pytest.raises(CampaignError, match="unknown target 'packed_vs_dense'"):
        execute_case(CaseSpec.from_dict(payload))


def test_spec_freezing_does_not_mutate_caller_arrays():
    from repro.graphs.families import complete_graph

    values = np.zeros((1, 3, 1))
    spec = CaseSpec(
        target="batch_vs_loop", algorithm="midpoint", params={},
        values=values, graphs=(complete_graph(3),),
    )
    # The spec's copy is frozen, but the caller's array must stay writeable.
    assert not spec.values.flags.writeable
    assert values.flags.writeable


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_clean_toggles_agree(target):
    for seed in range(4):
        result = run_case(target, seed)  # raises CampaignError on divergence
        assert result.status in ("agree", "skip")


def test_reference_only_cases_skip_batch_targets():
    spec = build_case("batch_vs_loop", 0)
    entry = get_entry("mass-splitting")
    graph = spec.graphs[0] if hasattr(spec.graphs[0], "n") else spec.graphs[0][0]
    forced = CaseSpec(
        target="batch_vs_loop", algorithm="mass-splitting", params={},
        values=np.zeros((1, graph.n, 1)), graphs=(graph,),
    )
    result = execute_case(forced)
    assert result.status == "skip"
    assert "reference-only" in result.reason
    assert entry.reference_only


def test_perturbed_toggle_diverges_and_repro_raises():
    found = None
    for seed in range(10):
        spec = replace(build_case("batch_vs_loop", seed), perturb=PERTURB)
        if execute_case(spec).status == "divergence":
            found = spec
            break
    assert found is not None, "no perturbable case drawn in 10 seeds"
    result = execute_case(found)
    assert result.divergence is not None
    assert result.divergence.label != ""


def test_run_case_raises_on_divergence_like_an_assertion():
    snippet = repro_snippet("batch_vs_loop", 42)
    assert "run_case('batch_vs_loop', 42)" in snippet
    assert "tests.test_fuzz_equivalence" in snippet
    assert artifact_repro_command("x.json").endswith("replay x.json")


# --------------------------------------------------------------------- #
# Corpus and mutation
# --------------------------------------------------------------------- #


def test_corpus_admits_only_novel_features(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    spec = build_case("batch_vs_loop", 1)
    result = execute_case(spec)
    features = case_features(spec, result)
    assert corpus.is_novel(features)
    key = corpus.add(spec, features, origin={"test": True})
    assert key == spec.key()
    assert not corpus.is_novel(features)
    # Reload from disk: same entries, same novelty state.
    reloaded = Corpus(tmp_path / "corpus")
    assert reloaded.keys() == corpus.keys()
    assert not reloaded.is_novel(features)
    assert reloaded.spec(key).key() == spec.key()


def test_corpus_rejects_foreign_files(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "junk.json").write_text('{"not": "a corpus entry"}')
    with pytest.raises(CampaignError, match="not a corpus entry"):
        Corpus(root)


def test_mutation_is_deterministic_and_valid():
    spec = build_case("batch_vs_loop", 3)
    first = mutate_spec(spec, 7)
    second = mutate_spec(spec, 7)
    assert first.key() == second.key()
    assert first.key() != spec.key()
    other = mutate_spec(spec, 8)
    # Different seeds may coincide but usually explore different mutants.
    assert isinstance(other, CaseSpec)
    # Mutants stay executable (valid shapes, graphs, plans).
    assert execute_case(first).status in ("agree", "skip", "divergence")


def test_mutation_respects_fixed_n():
    for seed in range(40):
        spec = build_case("batch_vs_loop", seed)
        if spec.algorithm == "two-agent-thirds":
            mutant = mutate_spec(spec, 1)
            assert mutant.n == 2
            return
    pytest.skip("no two-agent case drawn in 40 seeds")


# --------------------------------------------------------------------- #
# The campaign loop
# --------------------------------------------------------------------- #


def test_campaign_smoke_clean(tmp_path):
    report = run_campaign(
        3, 8, tmp_path / "corpus", tmp_path / "journal.jsonl", batch_size=4
    )
    assert report.executed == 8
    assert report.rounds == 2
    assert report.clean
    assert report.corpus_size > 0
    with CheckpointJournal(tmp_path / "journal.jsonl") as journal:
        assert len(journal) == 2


def test_campaign_resume_replays_rounds_without_reexecution(tmp_path):
    first = run_campaign(
        3, 8, tmp_path / "corpus", tmp_path / "journal.jsonl", batch_size=4
    )
    again = run_campaign(
        3, 8, tmp_path / "corpus", tmp_path / "journal.jsonl", batch_size=4
    )
    assert again.replayed_rounds == again.rounds == 2
    assert again.executed == first.executed  # tallies come from the journal
    assert again.corpus_size == first.corpus_size
    assert again.new_corpus_entries == 0


def test_campaign_finds_minimizes_and_replays_planted_divergence(tmp_path):
    report = run_campaign(
        1, 6, tmp_path / "corpus", tmp_path / "journal.jsonl",
        batch_size=6, perturb=PERTURB,
    )
    assert report.divergences, "the planted divergence was not found in budget"
    assert report.artifact_paths
    for path in report.artifact_paths:
        result = replay_artifact(path)
        assert result.reproduced, result
    for divergence in report.divergences:
        assert divergence["minimal_key"]
        assert divergence["target"] in TARGETS


def test_campaign_validates_inputs(tmp_path):
    with pytest.raises(CampaignError, match="budget"):
        run_campaign(0, 0, tmp_path / "c", tmp_path / "j.jsonl")
    with pytest.raises(CampaignError, match="unknown target"):
        run_campaign(0, 1, tmp_path / "c", tmp_path / "j.jsonl", targets=["nope"])


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_audit_ok(capsys):
    assert campaign_main(["audit", "--strict"]) == 0
    assert "audit OK" in capsys.readouterr().out


def test_cli_run_and_replay(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    journal = str(tmp_path / "journal.jsonl")
    code = campaign_main(
        ["run", "--seed", "2", "--budget", "4", "--batch", "4",
         "--corpus", corpus, "--journal", journal, "--fail-on-divergence"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"executed": 4' in out

    # Broken mode plants a divergence; --fail-on-divergence exits non-zero.
    bcorpus = str(tmp_path / "bcorpus")
    bjournal = str(tmp_path / "bjournal.jsonl")
    code = campaign_main(
        ["run", "--seed", "1", "--budget", "6", "--batch", "6",
         "--corpus", bcorpus, "--journal", bjournal,
         "--broken", "--fail-on-divergence"]
    )
    assert code == 1
    import json as _json

    report = _json.loads(capsys.readouterr().out)
    assert report["divergences"]
    artifact = report["artifacts"][0]
    assert campaign_main(["replay", artifact]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_parent_weights_favor_recent_novelty_and_decay(tmp_path):
    from repro.campaign.campaign import (
        _BASE_WEIGHT,
        _NOVELTY_DECAY,
        _draw_parent,
        _parent_weights,
    )

    corpus = Corpus(tmp_path / "corpus")
    specs = {}
    for seed in (1, 2, 3, 4):
        spec = build_case("batch_vs_loop", seed)
        result = execute_case(spec)
        specs[seed] = spec
        corpus.add(
            spec,
            case_features(spec, result) + (f"synthetic:{seed}",),
            origin={"campaign_seed": 0, "round": 0, "status": "agree", "parent": None},
        )
    hot, stale = specs[1].key(), specs[2].key()
    # Two admissions bred from `hot` at round 5, one from `stale` at round 1.
    for seed, (parent, admitted_round) in {3: (hot, 5), 4: (hot, 5)}.items():
        child = mutate_spec(specs[seed], seed)
        child_result = execute_case(child)
        corpus.add(
            child,
            case_features(child, child_result) + (f"synthetic:child:{seed}",),
            origin={
                "campaign_seed": 0,
                "round": admitted_round,
                "status": "agree",
                "parent": parent,
            },
        )
    stale_child = mutate_spec(specs[2], 99)
    corpus.add(
        stale_child,
        case_features(stale_child, execute_case(stale_child)) + ("synthetic:stale",),
        origin={"campaign_seed": 0, "round": 1, "status": "agree", "parent": stale},
    )

    at_round_6 = _parent_weights(corpus, 6)
    # The hot parent (2 admissions, age 1) outweighs the stale one (1
    # admission, age 5).
    assert at_round_6[hot] == pytest.approx(_BASE_WEIGHT + 2 * _NOVELTY_DECAY**1)
    assert at_round_6[stale] == pytest.approx(_BASE_WEIGHT + _NOVELTY_DECAY**5)
    assert at_round_6[hot] > at_round_6[stale]
    # A parent that bred nothing sits at the baseline.
    never_bred = specs[3].key()
    assert at_round_6[never_bred] == pytest.approx(_BASE_WEIGHT)

    # The stale parent's weight decays monotonically toward the baseline as
    # rounds pass without it breeding anything new.
    stale_trajectory = [
        _parent_weights(corpus, round_index)[stale] for round_index in (2, 4, 8, 16)
    ]
    assert all(a > b for a, b in zip(stale_trajectory, stale_trajectory[1:]))
    assert stale_trajectory[-1] == pytest.approx(_BASE_WEIGHT, abs=1e-3)

    # Weights are pure in (corpus content, round): a reload reconstructs
    # them exactly, and the weighted draw is rng-deterministic.
    reloaded = _parent_weights(Corpus(tmp_path / "corpus"), 6)
    assert reloaded == at_round_6
    draws = [
        _draw_parent(np.random.default_rng(7), at_round_6) for _ in range(3)
    ]
    assert len(set(draws)) == 1
    counts = {}
    rng = np.random.default_rng(11)
    for _ in range(500):
        key = _draw_parent(rng, at_round_6)
        counts[key] = counts.get(key, 0) + 1
    assert counts[hot] > counts[stale]


def test_campaign_admissions_record_their_parent(tmp_path):
    report = run_campaign(
        seed=5,
        budget=24,
        corpus_dir=tmp_path / "corpus",
        journal_path=tmp_path / "journal.jsonl",
        batch_size=8,
        targets=("batch_vs_loop",),
    )
    assert report.executed == 24
    corpus = Corpus(tmp_path / "corpus")
    origins = [corpus.get(key)["origin"] for key in corpus.keys()]
    assert all("parent" in origin for origin in origins)
    # Later rounds breed from the corpus, so at least one admission should
    # name a parent that is itself a corpus key (when any mutant admitted).
    parents = [origin["parent"] for origin in origins if origin["parent"]]
    assert all(parent in corpus for parent in parents)
