"""Tests of the benchmark itself: wrappers, budget accounting, references.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _lpldpc_functions():
    import lpldpc  # noqa: F401

    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if name == "lpldpc" or name.startswith("lpldpc.")
            for attr, obj in vars(mod).items() if callable(obj)}


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _lpldpc_functions()
    res = worker.measure("wer-n24", 2, str(tmp_path), units=1, trace=True)
    assert res["spans"] > 0 and not res["violations"]
    after = _lpldpc_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tiny_budget_turns_known_decode_into_counted_failure(tmp_path):
    # Trial 0 of wer-n48 at the default seed completes as "integral" in its
    # reference; a 10 ms budget must abandon it and count it.
    assert run.load_references()["wer-n48"][0]["status"] == "integral"
    res = worker.measure("wer-n48", workloads.DEFAULT_SEED, str(tmp_path), units=1, budget_s=0.01)
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["failures"][0]["error"] == "TrialBudgetExceeded"
    assert res["outputs"] == [{"error": "TrialBudgetExceeded"}]
    assert res["metrics"]["completed_frac"] == 0.0


def test_driver_abort_counts_every_unfinished_trial(tmp_path):
    res = worker.measure("wer-n24", 2, str(tmp_path), units=1, budget_s=1e-4)
    planned = len(workloads.WerN24.maps) * len(workloads.WerN24.sigma2) * workloads.WerN24.trials
    assert res["attempted"] == res["failed"] == planned
    errors = [f["error"] for f in res["failures"]]
    assert errors[0] == "TrialBudgetExceeded"
    assert set(errors[1:]) == {"DriverAborted"}
    assert res["outputs"] == [None]


@pytest.mark.parametrize("name, units", [
    ("wer-n24", 1), ("wer-n48", 2), ("witness-dv25", 1), ("pseudo-scan", 1)])
def test_default_seed_references_match(name, units, tmp_path):
    res = worker.measure(name, workloads.DEFAULT_SEED, str(tmp_path), units=units)
    assert res["failed"] == 0 and not res["violations"]
    expected = run.load_references()[name]
    assert len(expected) >= units
    assert run.compare(res["outputs"], expected, "the reference") == []


def test_same_output_detects_changes():
    assert run.same_output("ab", "ab") and not run.same_output("ab", "ac")
    dec = {"status": "integral", "objective": 1.0}
    assert run.same_output(dec, dict(dec, objective=1.0 + 1e-12))
    assert not run.same_output(dec, dict(dec, objective=1.0 + 1e-6))
    assert not run.same_output(dec, dict(dec, status="tie"))
    assert run.same_output(dec, {"error": "TrialBudgetExceeded"})


def test_traced_outputs_equal_untraced(tmp_path):
    plain = worker.measure("pseudo-scan", 2, str(tmp_path), units=1)
    traced = worker.measure("pseudo-scan", 2, str(tmp_path), units=1, trace=True)
    assert plain["outputs"] == traced["outputs"]
    assert traced["layers"]["lpdec.membership.calls"] == 1.0


def test_tail_is_median_over_blocks_of_ten_beyond_percentile():
    assert tracer.tail(range(100)) == (89, 90.0)
    # four blocks of 250: 239, 489, 739, 989 at p96 each
    assert tracer.tail(range(1000)) == (614, 96.0)
    assert tracer.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_missing_package_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "wer-n24", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
