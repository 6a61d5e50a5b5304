"""Tests of the benchmark's own machinery: checks, golden records and spans.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import copy

import pytest

import checks
import spans
import worker
import workloads
from checks import Checker


@pytest.fixture
def tiny_session():
    """A session workload small enough to run in a test."""
    return workloads.SessionWorkload((16,), ("parallel", "two_level"), 5, "interpreter")


@pytest.fixture
def tiny_campaign(monkeypatch):
    monkeypatch.setattr(workloads, "FAULT_SCENARIOS", ("quiet", "seu-storm"))
    monkeypatch.setattr(workloads, "MUTATION_RATES", (1, 3))
    monkeypatch.setattr(workloads, "FAULT_REPEATS", 1)
    monkeypatch.setattr(workloads, "FAULT_GENERATIONS", 5)
    monkeypatch.setattr(workloads, "FAULT_SIDE", 16)
    return workloads.CampaignWorkload()


def check_all(workload, outcomes, golden=None):
    checker = Checker(workload, golden)
    for outcome in outcomes:
        checker.check(outcome)
    checker.finish()
    return checker


def perturbed(outcome, edit):
    copied = copy.copy(outcome)
    copied.artifact = copy.deepcopy(outcome.artifact)
    edit(copied.artifact)
    return copied


def test_clean_session_pass_has_no_failures(tiny_session, tmp_path):
    state = tiny_session.setup(3, str(tmp_path))
    result = tiny_session.run_pass(state, 0)
    checker = check_all(tiny_session, result.outcomes)
    assert checker.attempted == len(result.outcomes) == 6
    assert checker.failed == 0, checker.errors


@pytest.mark.parametrize(
    "edit",
    [
        # A best fitness the reference backend does not reproduce.
        lambda a: a["results"]["best_fitness"].update(
            {key: value - 1 for key, value in a["results"]["best_fitness"].items()}
        ),
        # A fitness history that goes up.
        lambda a: a["results"]["fitness_history"]["0"].insert(0, -1.0),
        # An evaluation count that does not match 1 + generations * lambda.
        lambda a: a["results"].update(n_evaluations=a["results"]["n_evaluations"] + 1),
    ],
    ids=["rescore", "history", "evaluations"],
)
def test_perturbed_session_result_is_counted_failed(tiny_session, tmp_path, edit):
    state = tiny_session.setup(3, str(tmp_path))
    outcomes = tiny_session.run_pass(state, 0).outcomes
    outcomes[2] = perturbed(outcomes[2], edit)
    checker = check_all(tiny_session, outcomes)
    assert (checker.attempted, checker.failed) == (6, 1)


def test_traced_repeat_must_match_the_untraced_pass(tiny_session, tmp_path):
    state = tiny_session.setup(3, str(tmp_path))
    first = tiny_session.run_pass(state, 0).outcomes
    again = tiny_session.run_pass(state, 0).outcomes
    again[0] = perturbed(
        again[0], lambda a: a["timing"].update(platform_time_s=a["timing"]["platform_time_s"] * 2)
    )
    checker = check_all(tiny_session, first + again)
    assert (checker.attempted, checker.failed) == (12, 1)
    assert "first cold result" in checker.errors[0]


def test_golden_mismatch_fails_every_first_pass_op(tiny_session, tmp_path):
    state = tiny_session.setup(3, str(tmp_path))
    outcomes = tiny_session.run_pass(state, 0).outcomes
    golden = {o.op: checks.digest(o.artifact) for o in outcomes}
    assert check_all(tiny_session, outcomes, golden).failed == 0
    assert check_all(tiny_session, outcomes, {}).failed == len(outcomes)


def test_golden_for_other_parameters_counts_as_no_digests(monkeypatch):
    monkeypatch.setattr(workloads, "params_digest", lambda: "not-the-recorded-one")
    assert worker.load_golden("paper_scale", workloads.DEFAULT_SEED) == {}
    assert worker.load_golden("paper_scale", workloads.HELD_OUT_SEED) is None


def test_campaign_pass_checks_and_counts_a_perturbed_rerun(tiny_campaign, tmp_path):
    state = tiny_campaign.setup(5, str(tmp_path / "campaign"))
    result = tiny_campaign.run_pass(state, 0)
    assert [o.phase for o in result.outcomes].count("dedupe") == 4
    assert check_all(tiny_campaign, result.outcomes).failed == 0
    rerun = [i for i, o in enumerate(result.outcomes) if o.phase == "rerun"]
    outcomes = list(result.outcomes)
    outcomes[rerun[1]] = perturbed(
        outcomes[rerun[1]],
        lambda a: a["results"].update(n_reconfigurations=a["results"]["n_reconfigurations"] + 1),
    )
    checker = check_all(tiny_campaign, outcomes)
    assert (checker.attempted, checker.failed) == (12, 1)
    # Every pass directory is removed.
    assert list((tmp_path / "campaign").iterdir()) == []


def test_failed_operation_lowers_ops_ok_frac(tiny_session, tmp_path):
    state = tiny_session.setup(3, str(tmp_path))
    result = tiny_session.run_pass(state, 0)
    result.outcomes[0] = perturbed(
        result.outcomes[0], lambda a: a["results"]["fitness_history"]["1"].append(1e12)
    )
    checker = check_all(tiny_session, result.outcomes)
    metrics = worker.end_to_end([result], checker, peak_rss_mb=1.0)
    assert metrics["ops_ok_frac"] == pytest.approx(5 / 6)


def test_self_time_subtracts_child_spans():
    recorder = spans.Recorder()
    recorder.names = ["core.driver", "ea.mutate", "ea.mutate", "backends.eval"]
    recorder.starts = [0.0, 1.0, 1.5, 5.0]
    recorder.ends = [10.0, 3.0, 2.0, 9.0]
    recorder.parents = [-1, 0, 1, 0]
    recorder.runs = ["r"] * 4
    recorder.counts = {1: {"offspring": 9}, 2: {"offspring": 1}}
    totals = spans.span_totals(recorder)
    assert totals["core.driver"]["self_s"] == pytest.approx(10 - 2 - 4)
    # The nested mutate span belongs to the outer call: one call, nine offspring.
    assert totals["ea.mutate"]["calls"] == 1
    assert totals["ea.mutate"]["offspring"] == 9
    assert totals["ea.mutate"]["busy_s"] == pytest.approx(2.0)
    assert totals["ea.mutate"]["self_s"] == pytest.approx(1.5 + 0.5)


def test_install_traces_layers_and_uninstall_restores(tiny_session, tmp_path):
    from repro.array.systolic_array import SystolicArray
    from repro.core import evolution

    original_eval = SystolicArray.__dict__["evaluate_population"]
    original_windows = evolution.extract_windows
    state = tiny_session.setup(3, str(tmp_path))
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        tiny_session.run_pass(state, 0, recorder)
    finally:
        spans.uninstall(installed)
    assert SystolicArray.__dict__["evaluate_population"] is original_eval
    assert evolution.extract_windows is original_windows
    values = spans.layer_metrics(recorder)
    assert set(values) == set(spans.PER_LAYER_METRICS)
    assert values["backends.eval.calls"] > 0
    assert values["ea.mutate.offspring"] == 6 * 5 * workloads.N_OFFSPRING
    assert values["api.task_build.busy_s"] > 0
    assert values["runtime.execute_run.calls"] == 0
    assert values["backends.persistent.lookup.calls"] == 0
    # One run id per evolution run, plus one for building the pass's images.
    assert len(set(recorder.runs)) == 6 + 1
