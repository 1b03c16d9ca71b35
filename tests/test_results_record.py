"""The committed results record: a change may move fbsim's results by rounding only.

Means, SEs and overlay values must agree with tests/data/results_record.json
to RTOL, and every other field exactly; tests/make_results_record.py owns that
rule. A change that moves results on purpose regenerates the record with that
script, which prints the rows that moved, and names them; it does not loosen
RTOL.
"""

import json

import pytest

import make_results_record as record


@pytest.fixture(scope="module")
def stored():
    return json.loads(record.RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return record.build(tmp_path_factory.mktemp("presets"))


def _check_rows(label: str, want: list[dict], got: list[dict]):
    moved = record.moved_rows(label, want, got)
    assert not moved, "\n".join(moved)


def test_record_run_settings(stored):
    assert (stored["seed"], stored["trials"]) == (record.SEED, record.TRIALS)


def test_every_preset_row_matches_the_record(stored, fresh):
    assert sorted(fresh["presets"]) == sorted(stored["presets"])
    for name, rows in stored["presets"].items():
        _check_rows(name, rows, fresh["presets"][name])


def test_every_point_matches_the_record(stored, fresh):
    _check_rows("points", stored["points"], fresh["points"])


def test_rows_that_differ_in_a_mean_are_named():
    row = dict(b=4, users=15, mean=10.0, std_error=0.5)
    assert record.moved(row, dict(row, mean=10.0 * (1 + 1e-13))) == []
    assert record.moved(row, dict(row, mean=10.0 * (1 + 1e-11))) == [f"mean: 10.0 -> {10.0 * (1 + 1e-11)!r}"]
    assert record.moved(row, dict(row, users=14)) == ["users: 15 -> 14"]


def test_differences_name_the_label_and_row():
    row = dict(b=4, users=15, mean=10.0, std_error=0.5)
    stored = dict(presets=dict(fig=[row]), points=[row, row])
    fresh = dict(presets=dict(fig=[row]), points=[row, dict(row, std_error=0.25)])
    assert record.differences(stored, stored) == []
    assert record.differences(stored, fresh) == ["points row 1: std_error: 0.5 -> 0.25"]
    assert record.differences(stored, dict(fresh, presets=dict(fig=[]))) == [
        "fig: 1 rows recorded, 0 now", "points row 1: std_error: 0.5 -> 0.25"]
