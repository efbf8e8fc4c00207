import random

import pytest

from selfevolve.aggregate import WINDOW, answer_table, majority_vote, metric_rows
from selfevolve.answers import AnswerKey
from selfevolve.backend import MockBackendProvider, MockSpec
from selfevolve.engine import (
    ACCEPTED_EXIT,
    COMPLETED,
    DSER,
    REJECTED_EXIT,
    RUNNING,
    VERDEP,
    ControllerConfig,
    IterationRecord,
    Problem,
    PromptSet,
    TrialState,
    run_experiment,
)
from selfevolve.markov import TransitionParams
from selfevolve.reports import write_run_reports
from selfevolve.store import RunStore


def make_trial(answers, *, status=COMPLETED, controller=DSER, pid="p0", t=0):
    records = [IterationRecord(index=i, solution_text=f"s{i}", answer=a)
               for i, a in enumerate(answers)]
    return TrialState(problem_id=pid, trial_index=t, controller=controller,
                      seed=0, records=records, status=status)


# --- majority vote -----------------------------------------------------------

def test_vote_simple_majority():
    assert majority_vote(["1", "2", "1"]) == "1"


def test_vote_tie_breaks_by_first_appearance():
    assert majority_vote(["7", "3", "3", "7"]) == "7"


def test_vote_missing_excluded_but_counted():
    # missing answers never vote as a bloc
    assert majority_vote(["5", None, None, "5", "9"]) == "5"
    assert majority_vote([None, None, None, "9"]) == "9"


def test_vote_all_missing():
    assert majority_vote([None, None]) is None
    assert majority_vote([]) is None


def test_vote_scale_invariance():
    # duplicating the whole ballot never changes the winner
    rng = random.Random(0)
    for _ in range(200):
        ballot = [str(rng.randrange(4)) for _ in range(rng.randrange(1, 9))]
        assert majority_vote(ballot * 3) == majority_vote(ballot)


def test_vote_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        ballot = [rng.choice(["a", "b", "c", None]) for _ in range(rng.randrange(1, 10))]
        present = [v for v in ballot if v is not None]
        expected = None
        if present:
            top = max(present.count(v) for v in present)
            expected = next(v for v in present if present.count(v) == top)
        assert majority_vote(ballot) == expected


# --- Avg@K / Cons@K ----------------------------------------------------------

TRUTH = AnswerKey("60")


def test_avg_counts_missing_as_incorrect():
    trials = [make_trial(["60", "60"]), make_trial(["60", None]),
              make_trial(["62", "62"])]
    rows = metric_rows(trials, TRUTH)
    assert rows[0]["avg_at_k"] == pytest.approx(2 / 3)
    assert rows[1]["avg_at_k"] == pytest.approx(1 / 3)


def test_avg_out_of_range():
    # rows stop at the last iteration every running trial has reached
    trials = [make_trial(["60"] * 3, status=RUNNING), make_trial(["62"], status=RUNNING)]
    assert [r["iteration"] for r in metric_rows(trials, TRUTH)] == [0]
    trials.append(make_trial([], status=RUNNING))
    assert metric_rows(trials, TRUTH) == []


def test_exited_trial_clamps_to_final_answer():
    trials = [make_trial(["62", "60"], status=ACCEPTED_EXIT, controller=VERDEP),
              make_trial(["62", "62", "62", "62"], controller=VERDEP)]
    assert answer_table(trials) == [["62", "60", "60", "60"], ["62"] * 4]
    assert metric_rows(trials, TRUTH)[3]["avg_at_k"] == pytest.approx(0.5)


def test_answer_table_all_exited_reaches_the_longest_trial():
    trials = [make_trial(["62", "60"], status=ACCEPTED_EXIT, controller=VERDEP),
              make_trial(["62", None, "62"], status=REJECTED_EXIT, controller=VERDEP),
              make_trial(["61"], status=RUNNING, controller=VERDEP)]
    assert answer_table(trials) == [["62"], ["62"], ["61"]]
    del trials[2]
    assert answer_table(trials) == [["62", "60", "60"], ["62", None, "62"]]


def test_cons_window_one_equals_plain_vote():
    trials = [make_trial(["60", "62"]), make_trial(["60", "62"]),
              make_trial(["62", "60"])]
    rows = metric_rows(trials, TRUTH)
    assert rows[0]["cons_at_k"] == 1
    assert rows[1]["cons_at_k"] == 0


def test_cons_windowed_pools_history():
    # iteration 9 alone votes wrong; pooled with iterations 0-8 it recovers
    trials = [make_trial(["60"] * 9 + ["62"]), make_trial(["60"] * 9 + ["62"]),
              make_trial(["60"] * 10)]
    rows = metric_rows(trials, TRUTH)
    assert len(rows) == WINDOW
    assert rows[9]["cons_at_k"] == 0
    assert rows[9]["cons_windowed"] == 1
    assert rows[9]["avg_windowed"] == pytest.approx(28 / 30)


def test_cons_windowed_pool_is_trial_major():
    # "60" and "62" tie at 9 votes each; "60" appears first when the pool
    # lists each trial's window in turn, "62" when it lists each iteration's
    trials = [make_trial(["99"] + ["60"] * 9), make_trial(["62"] * 9 + ["99"])]
    assert metric_rows(trials, TRUTH)[9]["cons_windowed"] == 1


def test_cons_all_missing_scores_zero():
    trials = [make_trial([None]), make_trial([None])]
    assert metric_rows(trials, TRUTH)[0]["cons_at_k"] == 0


def test_divergence_rescue_property():
    # a plurality of scattered wrong answers loses to a consistent minority
    wrongs = [make_trial([str(100 + i)] * 3) for i in range(6)]
    rights = [make_trial(["60"] * 3) for _ in range(2)]
    rows = metric_rows(wrongs + rights, TRUTH)
    assert rows[2]["avg_at_k"] == pytest.approx(0.25)
    assert rows[2]["cons_at_k"] == 1


# --- pooled table ------------------------------------------------------------

def test_pooled_table_values():
    trials = [make_trial(["62"] * 5 + ["60"] * 10),
              make_trial(["62"] * 5 + ["60"] * 10),
              make_trial(["62"] * 15)]
    last = metric_rows(trials, TRUTH)[-1]
    assert last["avg_windowed"] == pytest.approx(20 / 30)
    assert last["cons_windowed"] == 1


def test_pooled_table_needs_enough_records():
    rows = metric_rows([make_trial(["60"] * 3)], TRUTH)
    assert not any("cons_windowed" in r or "avg_windowed" in r for r in rows)


def test_pooled_table_carries_exited_trials(tmp_path):
    # a VERDEP run where trials accept early: every problem still gets a
    # pooled row over its last WINDOW iterations
    problems = [Problem("p0", "q0", AnswerKey("60")), Problem("p1", "q1", AnswerKey("7"))]
    config = ControllerConfig(kind=VERDEP, max_iterations=30, accept_limit=5,
                              reject_limit=10)
    spec = MockSpec(ground_truth=AnswerKey("60"), initial_correct_probability=0.5,
                    transition=TransitionParams(p_ic=0.3, p_ci=0.1), alpha=0.3, beta=0.8)
    store = RunStore(tmp_path / "runs")
    run_id = run_experiment(problems, 16, config, MockBackendProvider(spec), PromptSet(),
                            3, store, parallelism=1, store_sync="flush")
    _, states = store.load_run(run_id)
    assert min(len(st.records) for st in states.values()) < WINDOW
    write_run_reports(store, run_id, tmp_path / "reports")
    pooled = (tmp_path / "reports" / "pooled_table.csv").read_text().splitlines()
    assert pooled[0] == "problem,avg_pooled,cons_pooled"
    assert [line.split(",")[0] for line in pooled[1:]] == ["p0", "p1"]


# --- exit ratios -------------------------------------------------------------

def test_exit_ratios_partition():
    trials = [
        make_trial(["62", "62"], status=ACCEPTED_EXIT, controller=VERDEP),
        make_trial(["62"] * 4, status=REJECTED_EXIT, controller=VERDEP),
        make_trial(["62"] * 6, controller=VERDEP),
        make_trial(["60"] * 6, controller=VERDEP),
    ]
    series = metric_rows(trials, TRUTH)
    assert len(series) == 6
    for row in series:
        total = row["accepted_ratio"] + row["rejected_ratio"] + row["running_ratio"]
        assert total == pytest.approx(1.0)
    # monotone non-decreasing cumulative exits
    for prev, cur in zip(series, series[1:]):
        assert cur["accepted_ratio"] >= prev["accepted_ratio"]
        assert cur["rejected_ratio"] >= prev["rejected_ratio"]
    assert series[0]["accepted_ratio"] == 0.0
    assert series[1]["accepted_ratio"] == 0.25
    assert series[3]["rejected_ratio"] == 0.25
    assert series[5]["running_ratio"] == 0.5


def test_exit_ratios_reject_dser():
    # fixed-horizon trials have no exit split
    rows = metric_rows([make_trial(["60"], controller=DSER)], TRUTH)
    assert not any(key.endswith("_ratio") for key in rows[0])


# --- row schema --------------------------------------------------------------

def test_metric_rows_shape():
    trials = [make_trial(["60"] * 12), make_trial(["62"] * 12)]
    rows = metric_rows(trials, TRUTH)
    assert len(rows) == 12
    assert "cons_windowed" not in rows[WINDOW - 2]
    assert rows[WINDOW - 1]["cons_windowed"] in (0, 1)
    assert "accepted_ratio" not in rows[0]  # fixed-horizon trials have no exits
    assert all(r["avg_at_k"] == pytest.approx(0.5) for r in rows)


def test_metric_rows_verdep_include_exits():
    trials = [make_trial(["60"] * 3, status=ACCEPTED_EXIT, controller=VERDEP),
              make_trial(["62"] * 5, controller=VERDEP)]
    rows = metric_rows(trials, TRUTH)
    assert rows[-1]["accepted_ratio"] == 0.5
    assert rows[-1]["rejected_ratio"] == 0.0
    assert rows[-1]["running_ratio"] == 0.5
