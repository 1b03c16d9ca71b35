"""Command line front end: presets, free-form experiment runs, CSV/SVG output."""

from __future__ import annotations

import argparse
import configparser
import csv
import re
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, get_type_hints

from . import analytic
from .montecarlo import (
    ExperimentConfig,
    RateEstimate,
    feasible_b_values,
    find_bopt_empirical,
    sweep_b,
)


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    nt: int
    snr_db: float
    tfb: int
    b: int
    users: int
    mean_rate: float
    std_error: float
    trials: int
    extra: float | None = None


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


@dataclass(frozen=True)
class Series:
    name: str
    xs: list[float]
    ys: list[float]


def write_csv(path: Path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow(repr(v) if isinstance(v, float) else "" if v is None else v
                       for v in astuple(r))


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def write_svg(path: Path, series: list[Series], title: str,
              xlabel: str, ylabel: str) -> None:
    """Minimal standalone SVG line chart (one polyline per series)."""
    width, height = 720, 480
    ml, mr, mt, mb = 70, 170, 40, 55
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(f'<line x1="{px(xv):.1f}" y1="{mt + ph}" x2="{px(xv):.1f}" '
                     f'y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(xv):.1f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-size="11">{xv:.3g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" '
                     f'y2="{py(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(yv) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{yv:.3g}</text>')
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(zip(s.xs, s.ys)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(s.xs, s.ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.6" fill="{color}"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly}" x2="{ml + pw + 34}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly + 4}" font-size="11">{s.name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# presets

ZF_BASE = dict(scheme="zf", nt=4, snr_db=10.0, tfb=300)
ZF_B_GRID_300 = (5, 6, 10, 12, 15, 20, 25, 30)
PU2RC_B_GRID_300 = (2, 3, 4, 5, 6, 10, 12)
B_GRID_10_30 = (10, 12, 15, 20, 25, 30)
# Empirical-optimum curves without their own b_values search the feasible B in
# this range: it holds the peak, and very small B is costly and never optimal.
BOPT_B_RANGE = (4, 40)

OverlayFn = Callable[[float, int, int, int], float]


@dataclass(frozen=True)
class Curve:
    """One simulated series of a preset.

    `fields` are ExperimentConfig fields over ZF_BASE. An overlay (legend
    label, f(snr, nt, tfb, B)) is an analytic series drawn at the curve's
    points; its values fill the `extra` column of the curve's rows.
    """

    label: str
    fields: dict
    overlay: tuple[str, OverlayFn] | None = None


@dataclass(frozen=True)
class Preset:
    """A figure: its curves, axis labels and how each curve is run.

    Without `axis` every curve is a B sweep (x = B, y = sum rate). With axis =
    (field, values) every curve is the empirical rate-maximizing B at each
    value of that ExperimentConfig field: x is the field and y the ResultRow
    column `y`. Overlay series follow their own curve's, or with
    `overlays_last` all the simulated series.
    """

    xlabel: str
    ylabel: str
    curves: tuple[Curve, ...]
    axis: tuple[str, tuple] | None = None
    y: str = "mean_rate"
    overlays_last: bool = False


def _fixed_point_bopt(snr, nt, tfb, b):
    return analytic.zf_bopt_fixed_point(snr, nt, tfb).b


SWEEP_LABELS = ("bits per user B", "sum rate (bps/Hz)")
BOPT_CURVES = tuple(Curve(f"empirical B_opt, Nt={nt}", dict(nt=nt),
                          (f"fixed-point B_opt, Nt={nt}", _fixed_point_bopt)) for nt in (2, 4))

PRESETS = {
    "tab_intro_example": Preset(*SWEEP_LABELS, (
        Curve("ZF, Nt=4, 10 dB, Tfb=100", dict(tfb=100, b_values=(4, 10, 20))),)),
    "fig2_zf_sweep": Preset(*SWEEP_LABELS, tuple(
        Curve(f"ZF, Nt={nt}, {snr_db:g} dB", dict(nt=nt, snr_db=snr_db, b_values=ZF_B_GRID_300))
        for nt, snr_db in ((4, 10.0), (4, 5.0), (2, 10.0)))),
    "fig3_penalty": Preset(*SWEEP_LABELS, (
        Curve("quantized CSI", dict(b_values=ZF_B_GRID_300),
              ("analytic penalty", analytic.zf_penalty_approx)),
        Curve("perfect CSI, same users", dict(b_values=ZF_B_GRID_300, quantizer="perfect")),
    ), overlays_last=True),
    "fig4_bopt_vs_tfb": Preset("feedback budget T_fb (bits)", "optimal B (bits)", BOPT_CURVES,
                               axis=("tfb", (100, 200, 300, 500)), y="b"),
    "fig5_bopt_vs_snr": Preset("SNR (dB)", "optimal B (bits)", BOPT_CURVES,
                               axis=("snr_db", (0.0, 5.0, 10.0, 15.0)), y="b"),
    "fig6_pu2rc_sweep": Preset(*SWEEP_LABELS, (
        Curve("PU2RC, Nt=4, 10 dB", dict(scheme="pu2rc", b_values=PU2RC_B_GRID_300)),)),
    "fig7_zf_vs_pu2rc": Preset("SNR (dB)", "sum rate at optimal B (bps/Hz)", (
        Curve("optimized ZF", dict(b_values=ZF_B_GRID_300)),
        Curve("optimized PU2RC", dict(scheme="pu2rc", b_values=PU2RC_B_GRID_300)),
    ), axis=("snr_db", (0.0, 5.0, 10.0))),
    # PU2RC's B is the feasible B in [4, 12] at T_fb = 500: a codebook of
    # 2^B/nt sets makes larger B costly.
    "fig8_vs_nt": Preset("transmit antennas Nt", "sum rate at optimal B (bps/Hz)", (
        Curve("optimized ZF", dict(tfb=500)),
        Curve("optimized PU2RC", dict(scheme="pu2rc", tfb=500, b_values=(4, 5, 10))),
    ), axis=("nt", (2, 4))),
    "fig9_selection_cqi": Preset(*SWEEP_LABELS, tuple(
        Curve(label, dict(b_values=B_GRID_10_30, selection=selection, cqi_kind=cqi_kind))
        for label, selection, cqi_kind in (("greedy, norm CQI", "greedy", "norm2"),
                                           ("greedy, SINR CQI", "greedy", "expected_sinr"),
                                           ("simplified, norm CQI", "simplified", "norm2")))),
    "fig10_quantizers": Preset(*SWEEP_LABELS, tuple(
        Curve(quant, dict(b_values=B_GRID_10_30, quantizer=quant))
        for quant in ("rvq_statistical", "scalar", "idealized"))),
    "fig11_subf": Preset("bits per user B", "rate (bps/Hz)", tuple(
        Curve(f"SUBF, {snr_db:g} dB", dict(scheme="subf", snr_db=snr_db, b_values=ZF_B_GRID_300),
              (f"approximation, {snr_db:g} dB", analytic.subf_rate_approx))
        for snr_db in (0.0, 5.0))),
}


def _row(cfg: ExperimentConfig, est: RateEstimate, overlay_fn: OverlayFn | None) -> ResultRow:
    extra = overlay_fn(cfg.snr, cfg.nt, cfg.tfb, est.b) if overlay_fn else None
    return ResultRow(cfg.scheme, cfg.nt, cfg.snr_db, cfg.tfb, est.b, est.users,
                     est.mean, est.std_error, est.trials, extra)


def _sweep_rows(cfg: ExperimentConfig, overlay_fn: OverlayFn | None = None) -> list[ResultRow]:
    """One row per B of cfg's grid, each B on its own streams."""
    return [_row(cfg, est, overlay_fn) for est in sweep_b(cfg)]


def _bopt_rows(cfg: ExperimentConfig, axis: tuple[str, tuple],
               overlay_fn: OverlayFn | None) -> list[ResultRow]:
    """One row per axis value: the estimate at the empirical rate-maximizing B."""
    name, values = axis
    lo, hi = BOPT_B_RANGE
    rows = []
    for v in values:
        c = replace(cfg, **{name: v})
        if not c.b_values:
            c = replace(c, b_values=tuple(b for b in feasible_b_values(c) if lo <= b <= hi))
        rows.append(_row(c, find_bopt_empirical(c)[1], overlay_fn))
    return rows


def _series(label: str, rows: list[ResultRow], x: str, y: str) -> Series:
    return Series(label, [getattr(r, x) for r in rows], [getattr(r, y) for r in rows])


def _write(out_dir: Path, stem: str, rows: list[ResultRow], series: list[Series],
           xlabel: str, ylabel: str) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    write_csv(csv_path, rows)
    write_svg(svg_path, series, title=stem, xlabel=xlabel, ylabel=ylabel)
    return csv_path, svg_path


def _preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def run_preset(name: str, seed: int, trials: int, out_dir: Path) -> tuple[Path, Path]:
    preset = _preset(name)
    x = preset.axis[0] if preset.axis else "b"
    rows, series, overlays = [], [], []
    for curve in preset.curves:
        cfg = ExperimentConfig(**{**ZF_BASE, **curve.fields}, seed=seed, trials=trials)
        fn = curve.overlay[1] if curve.overlay else None
        r = _bopt_rows(cfg, preset.axis, fn) if preset.axis else _sweep_rows(cfg, fn)
        rows += r
        series.append(_series(curve.label, r, x, preset.y))
        if curve.overlay:
            (overlays if preset.overlays_last else series).append(
                _series(curve.overlay[0], r, x, "extra"))
    return _write(out_dir, name, rows, series + overlays, preset.xlabel, preset.ylabel)


# ---------------------------------------------------------------------------
# free-form configs

class ConfigError(ValueError):
    pass


def boolean(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"must be one of {', '.join(states)}")
    return states[raw.lower()]


def int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.replace(",", " ").split())


# INI entries and `fbsim run` options are parsed by the field's annotation; a
# field annotated with a type missing here fails at import.
_PARSERS = {str: str, int: int, float: float, int | None: int, float | None: float,
            tuple[int, ...]: int_tuple, bool: boolean}
_FIELD_PARSERS = {name: _PARSERS[t] for name, t in get_type_hints(ExperimentConfig).items()}


def load_config(path: Path, overrides: dict) -> ExperimentConfig:
    """The file's [experiment] section, with `overrides` (parsed field values) over it.

    A refusal of the merged values names the path, and each override option without which
    the values are accepted or refused with another message.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    values = {}
    for key, raw in parser.items("experiment"):
        key = key.replace("-", "_")
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}: unknown key {key!r} in [experiment]")
        try:
            values[key] = _FIELD_PARSERS[key](raw)
        except ValueError as e:
            raise ConfigError(f"{path}: {key} = {raw!r}: {e}") from e
    try:
        return ExperimentConfig(**{**values, **overrides})
    except (TypeError, ValueError) as e:
        blamed = [k for k in overrides
                  if _refusal({**values, **{j: v for j, v in overrides.items() if j != k}}) != str(e)]
        given = f" with {', '.join(f'--{k}' for k in blamed)}" if blamed else ""
        raise ConfigError(f"{path}{given}: {e}") from e


def _refusal(values: dict) -> str | None:
    """ExperimentConfig's refusal of `values`, or None if it accepts them."""
    try:
        ExperimentConfig(**values)
    except (TypeError, ValueError) as e:
        return str(e)
    return None


def run_config(path: Path, overrides: dict, out_dir: Path) -> tuple[Path, Path]:
    cfg = load_config(path, overrides)
    rows = _sweep_rows(cfg)
    series = [_series(f"{cfg.scheme}, Nt={cfg.nt}, {cfg.snr_db:g} dB", rows, "b", "mean_rate")]
    return _write(out_dir, Path(path).stem, rows, series, "bits per user B", "rate (bps/Hz)")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """fbsim's command line; a `run` namespace's `overrides` holds the fields given as options."""
    parser = argparse.ArgumentParser(prog="fbsim",
                                     description="feedback-budget sum rate simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="run named figure/table presets (default: all)")
    p_preset.add_argument("names", nargs="*", metavar="NAME")
    p_preset.add_argument("--seed", type=int, default=0)
    p_preset.add_argument("--trials", type=int, default=2000)
    p_preset.add_argument("--out", type=Path, default=Path("results"))

    p_run = sub.add_parser("run", allow_abbrev=False, help="run an experiment config file",
                           description="ExperimentConfig field options override the config file.")
    # "-1e-5", "-inf" and "-NaN" are values, not options
    p_run._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf|infinity|nan)\Z", re.IGNORECASE)
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("results"))
    for name, parse in _FIELD_PARSERS.items():
        p_run.add_argument(*dict.fromkeys((f"--{name}", f"--{name.replace('_', '-')}")),
                           dest=name, type=parse, default=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    if args.command == "run":
        args.overrides = {k: v for k, v in vars(args).items() if k in _FIELD_PARSERS}
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.command == "preset":
            names = args.names or sorted(PRESETS)
            for name in names:  # every name is checked before any preset runs
                _preset(name)
            for name in names:
                print(*run_preset(name, args.seed, args.trials, args.out), sep="\n")
        else:
            print(*run_config(args.config, args.overrides, args.out), sep="\n")
    except ValueError as e:  # ConfigError and FeedbackBudgetError are ValueErrors too
        print(f"fbsim: config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"fbsim: io error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
