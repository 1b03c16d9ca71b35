"""Write tests/data/results_record.json, the results that test_results_record.py checks.

The record holds every preset's rows at --trials 20, seed 0, plus one
20-trial run_point per scheme x quantizer kind x selection x CQI kind, plain
and with the training/delay and CQI-quantization branches on. No preset
reaches rvq_explicit, scalar at small B or those branches.

Regenerate the record only in a change that moves results, and name every row
that moved. The script prints each row that differs from the committed record
beyond rounding (label, row index, field old -> new) before it overwrites it,
and keeps every other row as committed:

    PYTHONPATH=src python3 tests/make_results_record.py
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

from conftest import read_csv
from fbsim.cli import PRESETS, run_preset
from fbsim.montecarlo import ExperimentConfig, run_point
from fbsim.quantization import QUANTIZER_KINDS
from fbsim.schemes import SELECTIONS, ZF_CQI_KINDS

RECORD = Path(__file__).resolve().parent / "data" / "results_record.json"
SEED = 0
TRIALS = 20
# The training/delay and CQI-quantization branches; nt = 4 at 10 dB, T_fb = 60.
IMPAIRED = dict(beta=2.0, r=0.9, cqi_bits=2)
BASE = dict(nt=4, snr_db=10.0, tfb=60, trials=TRIALS, seed=SEED)
# B per scheme: scalar at B = 3 has exactly dependent directions; PU2RC at B = 4 has 4 sets.
B_VALUES = dict(zf=(3, 10), subf=(3, 10), rbf=(2, 10), pu2rc=(4,))
# Means, SEs and overlay values may move by rounding only; every other field must be equal.
RTOL = 1e-12
ROUNDED = ("mean_rate", "std_error", "extra", "mean")


def point_configs() -> list[tuple[ExperimentConfig, int]]:
    """Every (config, B) the record holds beside the presets."""
    kinds = []
    for quantizer in QUANTIZER_KINDS:
        kinds += [dict(scheme="zf", quantizer=quantizer, selection=sel, cqi_kind=cqi)
                  for sel in SELECTIONS for cqi in ZF_CQI_KINDS]
        kinds.append(dict(scheme="subf", quantizer=quantizer))
    kinds += [dict(scheme="rbf"), dict(scheme="pu2rc")]
    out = []
    for kind in kinds:
        for branches in ({}, IMPAIRED):
            cfg = ExperimentConfig(**BASE, **kind, **branches)
            out += [(cfg, b) for b in B_VALUES[cfg.scheme] if cfg.b_problem(b) is None]
    return out


def point_rows() -> list[dict]:
    rows = []
    for cfg, b in point_configs():
        est = run_point(cfg, b)
        fields = {k: v for k, v in asdict(cfg).items() if k not in ("b_values", "trials", "seed")}
        rows.append(dict(fields, b=b, users=est.users, mean=est.mean, std_error=est.std_error))
    return rows


def preset_rows(out_dir: Path) -> dict[str, list[dict]]:
    """Every preset's CSV rows at TRIALS trials, seed SEED, as written under out_dir."""
    return {name: [asdict(row) for row in read_csv(run_preset(name, SEED, TRIALS, out_dir)[0])]
            for name in sorted(PRESETS)}


def build(out_dir: Path) -> dict:
    return dict(seed=SEED, trials=TRIALS, presets=preset_rows(out_dir), points=point_rows())


def moved(want: dict, got: dict) -> list[str]:
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


def moved_rows(label: str, want: list[dict], got: list[dict]) -> list[str]:
    """Each moved field of rows `got` against `want`, as "label row i: field old -> new"."""
    if len(got) != len(want):
        return [f"{label}: {len(want)} rows recorded, {len(got)} now"]
    return [f"{label} row {i}: {m}" for i, (w, g) in enumerate(zip(want, got)) for m in moved(w, g)]


def differences(stored: dict, fresh: dict) -> list[str]:
    """Every moved field of the fresh record against the stored one, presets by name, then points."""
    out = []
    for name in sorted(stored["presets"].keys() | fresh["presets"].keys()):
        out += moved_rows(name, stored["presets"].get(name, []), fresh["presets"].get(name, []))
    return out + moved_rows("points", stored["points"], fresh["points"])


def _keep_unmoved(want: list[dict], got: list[dict]) -> list[dict]:
    """The rows got, each one that has not moved beyond rounding as recorded in want."""
    return got if len(got) != len(want) else [g if moved(w, g) else w for w, g in zip(want, got)]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        record = build(Path(tmp))
    if RECORD.exists():  # print what moved, and keep the rest as committed so the diff shows only that
        stored = json.loads(RECORD.read_text(encoding="utf-8"))
        lines = differences(stored, record)
        print("\n".join(lines) if lines else "no row differs from the committed record")
        record["presets"] = {name: _keep_unmoved(stored["presets"].get(name, []), rows)
                             for name, rows in record["presets"].items()}
        record["points"] = _keep_unmoved(stored["points"], record["points"])
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    rows = sum(len(r) for r in record["presets"].values())
    print(f"{RECORD}: {rows} preset rows, {len(record['points'])} points")


if __name__ == "__main__":
    main()
