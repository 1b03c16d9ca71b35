import configparser
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import read_csv
from fbsim import analytic, cli, montecarlo
from fbsim.cli import (
    CSV_COLUMNS,
    PRESETS,
    ConfigError,
    ResultRow,
    Series,
    load_config,
    main,
    run_preset,
    write_csv,
    write_svg,
)
from fbsim.montecarlo import SCHEMES, ExperimentConfig, feasible_b_values
from fbsim.quantization import QUANTIZER_KINDS
from fbsim.schemes import SELECTIONS, ZF_CQI_KINDS


def _rows():
    return [
        ResultRow("zf", 4, 10.0, 300, 20, 15, 12.34567890123, 0.0123456, 100, None),
        ResultRow("pu2rc", 4, 5.0, 300, 4, 75, 7.5, 0.25, 100, 1.23456789e-3),
    ]


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        p = tmp_path / "out.csv"
        rows = _rows()
        write_csv(p, rows)
        assert read_csv(p) == rows

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, _rows())
        write_csv(b, _rows())
        assert a.read_bytes() == b.read_bytes()

    def test_header(self, tmp_path):
        p = tmp_path / "h.csv"
        write_csv(p, _rows())
        first = p.read_text().splitlines()[0]
        assert first == "scheme,nt,snr_db,tfb,b,users,mean_rate,std_error,trials,extra"

    def test_exact_text(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, _rows())
        assert p.read_text() == (
            "scheme,nt,snr_db,tfb,b,users,mean_rate,std_error,trials,extra\n"
            "zf,4,10.0,300,20,15,12.34567890123,0.0123456,100,\n"
            "pu2rc,4,5.0,300,4,75,7.5,0.25,100,0.00123456789\n")


class TestSvg:
    def test_chart_structure(self, tmp_path):
        p = tmp_path / "c.svg"
        series = [Series("a", [1, 2, 3], [1.0, 4.0, 2.0]), Series("b", [1, 2, 3], [2.0, 1.0, 3.0])]
        write_svg(p, series, title="t", xlabel="x", ylabel="y")
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline") == 2
        assert text.count("<circle") == 6
        assert "t</text>" in text

    def test_degenerate_ranges_do_not_crash(self, tmp_path):
        p = tmp_path / "d.svg"
        write_svg(p, [Series("s", [1.0], [2.0])], "t", "x", "y")
        assert "<svg" in p.read_text()


class TestPresets:
    def test_registry_names(self):
        assert "tab_intro_example" in PRESETS
        assert "fig2_zf_sweep" in PRESETS
        assert len(PRESETS) == 11

    def test_intro_preset_writes_files(self, tmp_path):
        csv_path, svg_path = run_preset("tab_intro_example", seed=0, trials=4, out_dir=tmp_path)
        assert csv_path.exists() and svg_path.exists()
        rows = read_csv(csv_path)
        assert [r.b for r in rows] == [4, 10, 20]
        assert all(r.trials == 4 for r in rows)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_preset("nope", 0, 4, tmp_path)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_runs(self, name, tmp_path, monkeypatch):
        drawn = []

        def capture(path, series, **labels):
            drawn.extend(series)
            write_svg(path, series, **labels)

        monkeypatch.setattr(cli, "write_svg", capture)
        csv_path, svg_path = run_preset(name, seed=0, trials=4, out_dir=tmp_path)
        assert svg_path.exists()
        assert csv_path.read_text().splitlines()[0].split(",") == CSV_COLUMNS
        rows = read_csv(csv_path)
        preset = PRESETS[name]
        drawn_by_label = {s.name: s for s in drawn}
        assert len(drawn_by_label) == len(drawn)
        start = 0
        for curve in preset.curves:
            want_x = list(preset.axis[1] if preset.axis else curve.fields["b_values"])
            block, start = rows[start:start + len(want_x)], start + len(want_x)
            xs = [getattr(r, preset.axis[0] if preset.axis else "b") for r in block]
            assert xs == want_x
            assert all(r.trials == 4 for r in block)
            sim = drawn_by_label.pop(curve.label)
            assert (sim.xs, sim.ys) == (xs, [getattr(r, preset.y) for r in block])
            if curve.overlay:
                overlay = drawn_by_label.pop(curve.overlay[0])
                assert (overlay.xs, overlay.ys) == (xs, [r.extra for r in block])
        assert start == len(rows) and not drawn_by_label
        if name in ("fig4_bopt_vs_tfb", "fig5_bopt_vs_snr"):
            for r in rows:
                assert r.extra == analytic.zf_bopt_fixed_point(10.0 ** (r.snr_db / 10.0), r.nt, r.tfb).b


class TestConfigFiles:
    def _write(self, tmp_path, body):
        p = tmp_path / "exp.ini"
        p.write_text(body)
        return p

    def test_load_and_coerce(self, tmp_path):
        p = self._write(tmp_path, """
[experiment]
scheme = zf
nt = 4
snr_db = 10
tfb = 100
trials = 4
b_values = 10, 20
relaxed_user_grid = true
""")
        cfg = load_config(p, {})
        assert cfg.scheme == "zf" and cfg.b_values == (10, 20)
        assert cfg.snr_db == 10.0 and cfg.relaxed_user_grid is True

    def test_inline_comments(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nscheme = zf            ; zf | rbf | pu2rc | subf\n"
                                  "nt = 4\nsnr_db = 10\ntfb = 300\n; beta = 1.0    ; pilots\n")
        cfg = load_config(p, {})
        assert cfg.scheme == "zf" and cfg.beta is None

    def test_overrides_win(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\n")
        cfg = load_config(p, {"snr_db": 5.0, "b_values": (20,)})
        assert cfg.snr_db == 5.0 and cfg.b_values == (20,)

    def test_unknown_key(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_config(p, {})

    def test_missing_file_and_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini", {})
        p = self._write(tmp_path, "[other]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p, {})

    def test_bad_value_type(self, tmp_path):
        p = self._write(tmp_path, "[experiment]\nscheme = zf\nnt = four\nsnr_db = 10\ntfb = 100\n")
        with pytest.raises(ConfigError):
            load_config(p, {})

    @pytest.mark.parametrize("raw,want", [("off", False), ("0", False), ("No", False), ("ON", True)])
    def test_boolean_words(self, tmp_path, raw, want):
        p = self._write(tmp_path, "[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\n"
                                  f"relaxed_user_grid = {raw}\n")
        assert load_config(p, {}).relaxed_user_grid is want

    def test_mistyped_boolean_names_the_key(self, tmp_path, capsys):
        # read as False, B=7 would fail as "does not divide tfb=300" without naming the typo
        p = self._write(tmp_path, "[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 300\n"
                                  "trials = 4\nrelaxed_user_grid = treu\nb_values = 7\n")
        with pytest.raises(ConfigError, match="relaxed_user_grid .*'treu'"):
            load_config(p, {})
        assert main(["run", str(p), "--out", str(tmp_path / "r")]) == 2
        assert "relaxed_user_grid" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


BOOLEAN_WORDS = {v: [w for w, b in configparser.ConfigParser.BOOLEAN_STATES.items() if b is v]
                 for v in (False, True)}


@st.composite
def valid_configs(draw):
    """A valid ExperimentConfig with a non-empty b_values, on either user grid."""
    cfg = ExperimentConfig(
        scheme=draw(st.sampled_from(SCHEMES)), nt=draw(st.integers(1, 8)),
        snr_db=draw(st.floats(-30.0, 40.0)), tfb=draw(st.integers(1, 400)),
        trials=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**63)),
        quantizer=draw(st.sampled_from(QUANTIZER_KINDS)), cqi_kind=draw(st.sampled_from(ZF_CQI_KINDS)),
        selection=draw(st.sampled_from(SELECTIONS)), cqi_bits=draw(st.none() | st.integers(0, 6)),
        beta=draw(st.none() | st.floats(1e-3, 1e3)), r=draw(st.floats(0.0, 1.0)),
        relaxed_user_grid=draw(st.booleans()))
    grid = feasible_b_values(cfg)
    if not grid:
        return draw(st.nothing())
    b_values = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    return replace(cfg, b_values=tuple(b_values))


class TestConfigRoundTrip:
    @given(cfg=valid_configs(), data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_config_loads_back_equal(self, tmp_path, cfg, data):
        lines, options = ["[experiment]"], []
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = data.draw(st.sampled_from(BOOLEAN_WORDS[value]))
            elif isinstance(value, tuple):
                value = " ".join(map(str, value))
            lines.append(f"{f.name} = {value}")
            spelling = data.draw(st.sampled_from([f.name, f.name.replace("_", "-")]))
            options += [f"--{spelling}", str(value)]
        p = tmp_path / "exp.ini"
        p.write_text("\n".join(lines) + "\n")
        assert load_config(p, {}) == cfg
        # every field as a `fbsim run` option, over a file whose entries they all replace
        minimal = tmp_path / "minimal.ini"
        minimal.write_text("[experiment]\nscheme = zf\nnt = 1\nsnr_db = 0\ntfb = 1\n")
        args = cli.parse_args(["run", str(minimal), *options])
        assert load_config(args.config, args.overrides) == cfg


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_experiment_example_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        example = re.search(r"```ini\n(\[experiment\]\n.*?)```", text, re.S).group(1)
        # as written, and with every commented-out key switched on
        enabled = re.sub(r"^; (\w+ = )", r"\1", example, flags=re.M)
        assert enabled != example
        for i, body in enumerate((example, enabled)):
            ini = tmp_path / f"readme{i}.ini"
            ini.write_text(body)
            cfg = load_config(ini, {})
            assert cfg.b_values == (10, 15, 20, 25, 30)
        assert (cfg.cqi_bits, cfg.beta, cfg.r, cfg.relaxed_user_grid) == (4, 1.0, 0.95, True)

    def test_preset_list_is_the_registry(self):
        text = README.read_text(encoding="utf-8")
        listed = re.search(r"Presets \(`fbsim preset \.\.\.`\):(.*?)\. ", text, re.S).group(1)
        assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(PRESETS)

    def test_library_names_resolve(self):
        # Names only: the library example's 5000-trial run is not executed.
        text = README.read_text(encoding="utf-8")
        example = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        imports = re.findall(r"^from fbsim import .+$", example, re.M)
        assert imports
        namespace = {}
        for line in imports:
            exec(line, namespace)
        names = set(re.findall(r"\banalytic\.(\w+)", text))
        assert names
        for name in names:
            assert hasattr(namespace["analytic"], name), name


class TestMainExitCodes:
    def test_preset_success(self, tmp_path, capsys):
        rc = main(["preset", "tab_intro_example", "--trials", "4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("tab_intro_example.csv")
        assert out[1].endswith("tab_intro_example.svg")

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert main(["preset", "nope", "--out", str(tmp_path)]) == 2

    def test_no_name_runs_every_preset(self, tmp_path, capsys):
        every = tmp_path / "every"
        assert main(["preset", "--trials", "4", "--out", str(every)]) == 0
        names = sorted(PRESETS)
        assert capsys.readouterr().out.splitlines() == [
            str(every / f"{name}.{ext}") for name in names for ext in ("csv", "svg")]
        assert len(list(every.iterdir())) == 2 * len(names)
        for name in names:
            for path in run_preset(name, seed=0, trials=4, out_dir=tmp_path / "one"):
                assert (every / path.name).read_bytes() == path.read_bytes()

    def test_unknown_name_runs_no_preset(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a preset ran before every name was checked")

        monkeypatch.setattr(montecarlo, "run_point", no_trials)
        out = tmp_path / "r"
        assert main(["preset", "tab_intro_example", "nope", "--out", str(out)]) == 2
        assert "unknown preset 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_config_success(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\n"
                       "trials = 4\nb_values = 10 20\n")
        rc = main(["run", str(ini), "--out", str(tmp_path / "res")])
        assert rc == 0
        assert (tmp_path / "res" / "exp.csv").exists()
        assert (tmp_path / "res" / "exp.svg").exists()

    def test_run_with_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 10\n")
        rc = main(["run", str(ini), "--out", str(tmp_path / "r2"), "--b_values", "20"])
        assert rc == 0
        rows = read_csv(tmp_path / "r2" / "exp.csv")
        assert [r.b for r in rows] == [20]

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 2

    def test_infeasible_budget_is_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 33\n")
        assert main(["run", str(ini), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("body,message", [
        ("scheme = zf\nnt = 4\nb_values = 10 33\n", "B=33 (+0 CQI bits) does not divide tfb=300"),
        ("scheme = pu2rc\nnt = 3\nb_values = 4\n", "2^B=16 is not divisible by nt=3"),
        ("scheme = zf\nnt = 4\nquantizer = rvq_explicit\nb_values = 6 15\n",
         "rvq_explicit is capped at 2^B*nt = 32768 codebook entries, got 2^15*4; use rvq_statistical"),
        ("scheme = subf\nnt = 2\nquantizer = rvq_explicit\nb_values = 6 15\n",
         "rvq_explicit is capped at 2^B*nt = 32768 codebook entries, got 2^15*2; use rvq_statistical"),
    ], ids=["zf_past_budget", "pu2rc_partial_set", "explicit_rvq_past_cap", "explicit_rvq_past_cap_nt2"])
    def test_infeasible_b_value_is_exit_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                              body, message):
        def no_trials(*args, **kwargs):
            raise AssertionError("a B point ran before the config was rejected")

        monkeypatch.setattr(montecarlo, "run_point", no_trials)
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\n{body}snr_db = 10\ntfb = 300\ntrials = 3000\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # An explicit scan past 2^B*nt = 2^15 entries holds more than a PU2RC B=12 trial, and several
    # GiB at B = 25: no case runs one.
    @pytest.mark.parametrize("scheme,nt,quantizer,b,refused", [
        ("zf", 4, "rvq_explicit", 25, True),
        ("subf", 4, "rvq_explicit", 25, True),
        ("zf", 4, "rvq_explicit", 15, True),
        ("subf", 4, "rvq_explicit", 15, True),
        ("pu2rc", 3, "rvq_statistical", 10, True),
        ("zf", 4, "orthosets", 10, True),
        ("rbf", 4, "rvq_explicit", 25, False),
        ("pu2rc", 4, "rvq_explicit", 25, False),
    ], ids=["zf_explicit_past_cap", "subf_explicit_past_cap", "zf_explicit_b15", "subf_explicit_b15",
            "pu2rc_partial_set", "orthosets",
            "rbf_ignores_explicit_cap", "pu2rc_ignores_explicit_cap"])
    def test_what_a_trial_cannot_run_on_is_refused_at_construction(self, tmp_path, monkeypatch,
                                                                   scheme, nt, quantizer, b, refused):
        fields = dict(scheme=scheme, nt=nt, snr_db=10.0, tfb=300, trials=3, quantizer=quantizer)
        if refused:
            with pytest.raises(ValueError):
                ExperimentConfig(**fields, b_values=(b,))
        else:
            assert ExperimentConfig(**fields, b_values=(b,)).users_for(b) == 12

        def no_trials(cfg, b, stream_offset=0):  # the CLI may construct configs but run no trial
            return montecarlo.RateEstimate(1.0, 0.0, cfg.trials, b, cfg.users_for(b))

        monkeypatch.setattr(montecarlo, "run_point", no_trials)
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                       + f"b_values = {b}\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r")]) == (2 if refused else 0)
        assert (tmp_path / "r").exists() != refused  # a refused config writes nothing

    def test_empty_b_grid_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 7\ntrials = 4\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r")]) == 2
        assert "no feasible B values for this configuration" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_beta_is_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = rbf\nnt = 4\nsnr_db = 10\ntfb = 300\ntrials = 4\n"
                       "b_values = 10\nbeta = 0\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r")]) == 2
        assert "beta must be > 0 (omit it for perfect receiver CSI)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_field_is_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 20\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r"), "--quantizer", "nope"]) == 2
        assert "quantizer" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("snr_db", "3074", "snr_db must be finite and at most 3000 dB, got 3074.0"),
        ("snr_db", "4000", "snr_db must be finite and at most 3000 dB, got 4000.0"),
        ("snr_db", "-4000", "snr_db=-4000.0 underflows the linear SNR to 0"),
        ("seed", "-1", "seed must be >= 0"),
    ], ids=["snr_above_ceiling", "snr_overflow", "snr_underflow", "negative_seed"])
    def test_out_of_range_field_is_exit_2_and_writes_nothing(self, tmp_path, capsys,
                                                             key, value, message):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 20\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r"), f"--{key}", value]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_scheme_quantizer_mismatch_is_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 20\nquantizer = orthosets\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r")]) == 2
        assert "orthosets" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unwritable_output_is_exit_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 100\ntrials = 4\n"
                       "b_values = 20\n")
        assert main(["run", str(ini), "--out", str(blocker / "sub")]) == 3


class TestOverrideParsing:
    def _ini(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\nsnr_db = 10\ntfb = 300\ntrials = 4\n")
        return ini

    def test_pairs(self, tmp_path):
        ini = self._ini(tmp_path)
        argv = ["run", str(ini), "--out", str(tmp_path / "r"), "--snr_db", "5", "--tfb", "200",
                "--b_values", "10"]
        assert main(argv) == 0
        rows = read_csv(tmp_path / "r" / "exp.csv")
        assert [(r.snr_db, r.tfb, r.b) for r in rows] == [(5.0, 200, 10)]

    @pytest.mark.parametrize("overrides", [
        ["--snr_db"], ["snr_db", "5"], ["--tf", "200"], ["--bogus", "1"],
    ], ids=["odd_count", "missing_dashes", "abbreviation", "unknown_field"])
    def test_malformed_is_exit_2_and_writes_nothing(self, tmp_path, capsys, overrides):
        ini = self._ini(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(ini), "--out", str(tmp_path / "r"), *overrides])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert overrides[0] in err and str(ini) not in err
        assert not (tmp_path / "r").exists()

    def test_hyphen_spelling_takes_a_negative_value(self, tmp_path):
        ini = self._ini(tmp_path)
        argv = ["run", str(ini), "--out", str(tmp_path / "r"), "--snr-db", "-5", "--b_values", "10"]
        assert main(argv) == 0
        assert [r.snr_db for r in read_csv(tmp_path / "r" / "exp.csv")] == [-5.0]

    @pytest.mark.parametrize("value", ["-1e-5", "-.5"])
    def test_negative_numbers_are_values(self, tmp_path, value):
        ini = self._ini(tmp_path)
        argv = ["run", str(ini), "--out", str(tmp_path / "r"), "--snr_db", value, "--b_values", "10"]
        assert main(argv) == 0
        assert [r.snr_db for r in read_csv(tmp_path / "r" / "exp.csv")] == [float(value)]

    @pytest.mark.parametrize("option,value", [("--snr_db", "-inf"), ("--snr-db", "-NaN"),
                                              ("--snr_db", "-Infinity")])
    def test_non_finite_value_is_refused_by_the_config_not_taken_for_an_option(self, tmp_path, capsys,
                                                                              option, value):
        ini = self._ini(tmp_path)
        assert main(["run", str(ini), "--out", str(tmp_path / "r"), option, value]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "expected one argument" not in err
        assert not (tmp_path / "r").exists()

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "-h"])
        assert exit_info.value.code == 0
        assert "usage: fbsim run" in capsys.readouterr().out

    # an option is named when the values without it are accepted or refused otherwise
    @pytest.mark.parametrize("in_file,options,blamed,reason", [
        (True, [], "", "snr_db must be finite"),
        (False, ["--snr_db", "3100"], " with --snr_db", "snr_db must be finite"),
        (False, ["--snr-db", "3100", "--b_values", "10"], " with --snr_db", "snr_db must be finite"),
        (True, ["--b_values", "10"], "", "snr_db must be finite"),
        (False, ["--b_values", "7", "--snr_db", "5"], " with --b_values", "B=7 (+0 CQI bits) does not divide"),
        (True, ["--scheme", "bogus"], " with --scheme", "unknown scheme 'bogus'"),
    ], ids=["file_alone", "one_option", "two_options", "file_value", "one_of_two_options",
            "option_over_a_bad_file"])
    def test_refusal_names_the_overrides_only_when_given(self, tmp_path, capsys, in_file, options, blamed,
                                                         reason):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nscheme = zf\nnt = 4\ntfb = 300\ntrials = 4\n"
                       f"snr_db = {3100 if in_file else 10}\n")
        assert main(["run", str(ini), "--out", str(tmp_path / "r"), *options]) == 2
        err = capsys.readouterr().err
        assert f"fbsim: config error: {ini}{blamed}: {reason}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("out_first", [True, False], ids=["out_first", "out_last"])
    def test_out_before_or_after_the_overrides(self, tmp_path, out_first):
        ini = self._ini(tmp_path)
        out, overrides = ["--out", str(tmp_path / "r")], ["--b_values", "10", "--seed", "3"]
        assert main(["run", str(ini), *(out + overrides if out_first else overrides + out)]) == 0
        assert [r.b for r in read_csv(tmp_path / "r" / "exp.csv")] == [10]
