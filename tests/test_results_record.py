"""The committed results record: a change may move fbsim's results by rounding only.

Means, SEs and overlay values must agree with tests/data/results_record.json
to RTOL, and every other field exactly. A change that moves results on
purpose regenerates the record with tests/make_results_record.py and names
the rows that moved; it does not loosen RTOL.
"""

import json
import math

import pytest

import make_results_record as record

RTOL = 1e-12
ROUNDED = ("mean_rate", "std_error", "extra", "mean")


@pytest.fixture(scope="module")
def stored():
    return json.loads(record.RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return record.build(tmp_path_factory.mktemp("presets"))


def _moved(want: dict, got: dict) -> list[str]:
    """The fields of one row that differ beyond rounding."""
    if want.keys() != got.keys():
        return [f"fields {sorted(want)} != {sorted(got)}"]
    out = []
    for k, w in want.items():
        g = got[k]
        same = (w is None and g is None) if w is None or g is None else (
            math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0) if k in ROUNDED else g == w)
        if not same:
            out.append(f"{k}: {w!r} -> {g!r}")
    return out


def _check_rows(label: str, want: list[dict], got: list[dict]):
    assert len(got) == len(want), f"{label}: {len(want)} rows recorded, {len(got)} now"
    moved = [f"{label} row {i}: {m}" for i, (w, g) in enumerate(zip(want, got)) for m in _moved(w, g)]
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
    assert _moved(row, dict(row, mean=10.0 * (1 + 1e-13))) == []
    assert _moved(row, dict(row, mean=10.0 * (1 + 1e-11))) == [f"mean: 10.0 -> {10.0 * (1 + 1e-11)!r}"]
    assert _moved(row, dict(row, users=14)) == ["users: 15 -> 14"]
