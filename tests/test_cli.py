import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import polyrabi
from polyrabi import cli
from polyrabi.cascade import ModeConfig
from polyrabi.cli import (
    ConfigError,
    Experiment,
    experiment_to_dict,
    load_experiment,
    main,
    preset_experiments,
    read_series_csv,
    run,
    write_series_csv,
)
from polyrabi.field_state import FieldWeights
from polyrabi.oracle import OracleRun
from polyrabi.propagator import PeSeries, PropagatorComponents
from polyrabi.terms import TermSum

from conftest import ref_write_series_csv


def small_fig1(tmp_path, **overrides):
    kw = dict(
        name="t",
        config=ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0),
        engine="all",
        tau=(0.0, 4.0 * math.pi, 120),
        window=60,
        channels=(1, 3, -1),
    )
    kw.update(overrides)
    return Experiment(**kw)


# Names the benchmark harness (perfbench/run.py, perfbench/workloads.py) reads
# or patches on the CLI module.
HARNESS_NAMES = (
    "run",
    "evolve",
    "build_hamiltonian",
    "undress",
    "two_mode_u0",
    "run_cascade",
    "excitation_probability",
    "weak_field_uge",
    "gamma_weights",
    "weighted_pe",
    "compare",
    "write_series_csv",
    "preset_experiments",
    "PRESETS",
)


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_cli_exposes_harness_names(name):
    assert hasattr(cli, name)


# Package-level names and class attributes the benchmark harness reads.
HARNESS_ATTRIBUTES = (
    (polyrabi, "dressed_propagator"),
    (polyrabi, "build_T"),
    (polyrabi, "mat_vec"),
    (PropagatorComponents, "sigma_plus"),
    (PropagatorComponents, "hermiticity_defect"),
    (TermSum, "by_shift"),
    (TermSum, "shifts"),
    (FieldWeights, "levels"),
    (OracleRun, "norm_defect"),
)


@pytest.mark.parametrize(
    "owner, name", HARNESS_ATTRIBUTES, ids=[f"{o.__name__}.{n}" for o, n in HARNESS_ATTRIBUTES]
)
def test_package_exposes_harness_attributes(owner, name):
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    assert hasattr(owner, name) or name in fields


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(polyrabi.__path__)])
def test_every_export_exists(module):
    mod = importlib.import_module(f"polyrabi.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_namespace_is_the_library_modules_all():
    # the CLI is a front end, not part of the library namespace
    library = [m.name for m in pkgutil.iter_modules(polyrabi.__path__) if m.name != "cli"]
    declared = [n for m in library for n in importlib.import_module(f"polyrabi.{m}").__all__]
    assert len(declared) == len(set(declared))  # a star import shadows no name
    public = {
        n for n, v in vars(polyrabi).items() if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert public == set(declared)


class TestExperiment:
    def test_engine_resolution(self):
        exp = small_fig1(None)
        assert exp.engines() == ("cascade", "two_mode", "weak_field", "oracle")

    def test_two_mode_requires_two(self):
        with pytest.raises(ConfigError):
            Experiment(
                name="x",
                config=ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0),
                engine="two_mode",
            )

    def test_weak_field_follows_flat_weights(self):
        # any comb, uniform or not, gets the weak-field engine under flat weights
        cfg = ModeConfig(j=1, m=(0, 1, 3), omega=(0.1,) * 3, delta0=3.0)
        flat = Experiment(name="x", config=cfg)
        assert flat.engines() == ("cascade", "weak_field", "oracle")
        weighted = Experiment(name="x", config=cfg, weights=(3.0 + 0.0j,))
        assert weighted.engines() == ("cascade", "oracle")

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            small_fig1(None, tau=(0.0, 4.0, 1))
        with pytest.raises(ConfigError):
            small_fig1(None, tau=(2.0, 1.0, 10))

    def test_round_trip(self):
        exp = small_fig1(None, weights=(3.0 + 0.0j,), weight_window=40)
        doc = experiment_to_dict(exp)
        again = load_experiment(json.loads(json.dumps(doc)))
        assert again == exp

    @pytest.mark.parametrize(
        "channels", [None, (), (1,), (1, 3, -1)], ids=["none", "empty", "one", "three"]
    )
    def test_channels_round_trip(self, channels):
        exp = small_fig1(None, channels=channels)
        assert load_experiment(json.loads(json.dumps(experiment_to_dict(exp)))) == exp


FIG1_CONFIG = {"j": 1, "m": [0, 2], "omega": [[0.5, 0.0], [0.5, 0.0]], "delta0": 1.0}


class TestLoadExperiment:
    def test_absent_keys_take_the_experiment_defaults(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        assert load_experiment({"config": FIG1_CONFIG}) == Experiment(name="run", config=cfg)

    def test_gaussian_weights_take_the_default_window(self):
        doc = {"config": FIG1_CONFIG, "weights": {"kind": "gaussian", "alpha": [[3.0, 0.0]]}}
        exp = load_experiment(doc)
        assert exp.weights == (3.0 + 0.0j,)
        assert exp.weight_window == Experiment.weight_window

    def test_integral_floats_read_as_integers(self):
        def doc(number):  # every integer field written as ``number(value)``
            return {
                "config": {**FIG1_CONFIG, "j": number(1), "m": [number(0), number(2)]},
                "tau": {"count": number(20)},
                "window": number(60),
                "weights": {"kind": "gaussian", "alpha": [[3.0, 0.0]], "window": number(40)},
                "channels": [number(1), number(-1)],
            }

        echo = json.dumps(experiment_to_dict(load_experiment(doc(float))))
        assert echo == json.dumps(experiment_to_dict(load_experiment(doc(int))))

    def test_integer_numbers_read_as_floats(self):
        def doc(number):  # every real field written as ``number(value)``
            omega = [number(1), [number(1), number(0)]]
            return {
                "config": {**FIG1_CONFIG, "omega": omega, "delta0": number(2)},
                "tau": {"start": number(0), "stop": number(3)},
                "weights": {"kind": "gaussian", "alpha": [number(3), [number(0), number(1)]]},
            }

        assert load_experiment(doc(int)) == load_experiment(doc(float))


class TestPresets:
    def test_known_presets(self):
        assert len(preset_experiments("fig1")) == 1
        with pytest.warns(UserWarning):  # the 6/7 detuning is nearest a lower mode
            assert len(preset_experiments("fig3a")) == 3
        assert len(preset_experiments("fig3bcd")) == 3
        with pytest.raises(ConfigError):
            preset_experiments("nope")

    @pytest.mark.filterwarnings("ignore::UserWarning")  # fig3a's 6/7 detuning
    def test_presets_take_the_experiment_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(Experiment)}
        for exp in (e for name in cli.PRESETS for e in preset_experiments(name)):
            for key in ("engine", "window", "weights", "weight_window"):
                assert getattr(exp, key) == defaults[key], (exp.name, key)
            if exp.name not in ("fig3b", "fig3c", "fig3d"):
                assert exp.tau == defaults["tau"], exp.name
            assert exp.channels == ((1, 3, -1) if exp.name == "fig1" else None), exp.name

    def test_fig1_preset_shape(self):
        (exp,) = preset_experiments("fig1")
        assert exp.config.m == (0, 2)
        assert exp.channels == (1, 3, -1)
        assert exp.tau[0] == 0.0
        assert exp.tau[1] == pytest.approx(4 * math.pi)

    def test_fig3bcd_covers_full_cycle(self):
        for exp, om in zip(preset_experiments("fig3bcd"), (1 / 7, 1 / 11, 1 / 15)):
            assert exp.tau[1] == pytest.approx(2 * math.pi / om)


class TestRun:
    def test_artifacts_and_gates(self, tmp_path):
        exp = small_fig1(tmp_path)
        result = run(exp, tmp_path)
        assert result.oracle_valid
        names = {p.name for p in result.files}
        assert names == {
            "t_config.json",
            "t_cascade.csv",
            "t_two_mode.csv",
            "t_weak_field.csv",
            "t_oracle.csv",
            "t_compare_cascade.json",
            "t_compare_two_mode.json",
            "t_compare_weak_field.json",
        }
        rep = json.loads((tmp_path / "t_compare_cascade.json").read_text())
        assert rep["max_abs"] < 2e-2
        assert set(rep["per_channel"]) == {"-1", "1", "3"}

    def test_deterministic_output(self, tmp_path):
        exp = small_fig1(tmp_path, engine="cascade")
        run(exp, tmp_path / "a")
        run(exp, tmp_path / "b")
        a = (tmp_path / "a" / "t_cascade.csv").read_bytes()
        b = (tmp_path / "b" / "t_cascade.csv").read_bytes()
        assert a == b

    def test_csv_round_trip(self, tmp_path):
        exp = small_fig1(tmp_path, engine="cascade")
        run(exp, tmp_path)
        series = read_series_csv(tmp_path / "t_cascade.csv")
        assert len(series.tau) == 120
        assert set(series.channels) == {1, 3, -1}
        assert series.values[0] == 0.0

    def test_config_echo_reloads_equal(self, tmp_path):
        exp = small_fig1(tmp_path)
        run(exp, tmp_path)
        doc = json.loads((tmp_path / "t_config.json").read_text())
        assert load_experiment(doc) == exp

    @pytest.mark.parametrize("engine", ["cascade", "oracle"])
    def test_weighted_channels_equal_flat_channels(self, tmp_path, engine):
        # a weighted run writes the flat per-channel split, from one evaluation;
        # shift 8 is parity-forbidden on fig1, so the oracle's |c_8|^2 is tiny
        # but nonzero and must not be read from the rows that enter the weighting
        kw = dict(engine=engine, channels=(1, 3, -1, 8), window=200)
        run(small_fig1(tmp_path, **kw), tmp_path / "f")
        run(small_fig1(tmp_path, weights=(4.0,), weight_window=20, **kw), tmp_path / "w")
        flat = read_series_csv(tmp_path / "f" / f"t_{engine}.csv")
        got = read_series_csv(tmp_path / "w" / f"t_{engine}.csv")
        assert list(got.channels) == [1, 3, -1, 8]
        for s in (1, 3, -1, 8):
            assert np.array_equal(got.channels[s], flat.channels[s])
        assert not np.array_equal(got.values, flat.values)

    def test_gaussian_weights_pipeline(self, tmp_path):
        exp = small_fig1(
            tmp_path, engine="cascade", weights=(12.0 + 0.0j,), weight_window=80
        )
        run(exp, tmp_path)
        series = read_series_csv(tmp_path / "t_cascade.csv")
        assert np.all(series.values >= -1e-12)
        assert np.all(series.values <= 1.05)


# Each value and its neighbours 50 ulps either side: 1e-4 and 1e16 bound the
# range where orjson's layout and ``repr``'s agree; at 1e-5 and 1e-9 they
# differ (orjson writes ``0.00001`` and ``1e-9``).  Then the smallest and
# largest doubles and the signed zeros.
LAYOUT_EDGES = np.concatenate(
    [
        (np.array([x]).view(np.int64) + np.arange(-50, 51)).view(float)
        for b in (1e-4, 1e-5, 1e-9, 1e16)
        for x in (b, -b)
    ]
    + [np.array([5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 0.0, -0.0])]
)


def writer_and_reference(tmp_dir, series):
    """The bytes ``write_series_csv`` and the ``repr`` reference write for a series."""
    write_series_csv(tmp_dir / "got.csv", series)
    ref_write_series_csv(tmp_dir / "want.csv", series)
    return (tmp_dir / "got.csv").read_bytes(), (tmp_dir / "want.csv").read_bytes()


def column_series(col):
    col = np.asarray(col, dtype=float)
    return PeSeries(tau=col, values=col[::-1], channels={2: -col, -1: col})


class TestSeriesCsv:
    @given(st.lists(st.floats(), min_size=1, max_size=60))
    def test_any_floats_match_repr(self, tmp_path_factory, col):
        got, want = writer_and_reference(tmp_path_factory.mktemp("csv"), column_series(col))
        assert got == want

    def test_layout_edges_match_repr(self, tmp_path):
        special = [math.nan, math.inf, -math.inf]
        got, want = writer_and_reference(tmp_path, column_series([*LAYOUT_EDGES, *special]))
        assert got == want

    def test_strided_columns_match_repr(self, tmp_path):
        grid = np.geomspace(1e-9, 1e18, 900) * np.resize([1.0, -1.0], 900)
        table = np.stack([grid, grid[::-1], np.sqrt(np.abs(grid))], axis=1)
        series = PeSeries(tau=grid[::3], values=table[::3, 1], channels={1: table[::3, 2]})
        assert not series.values.flags.c_contiguous
        got, want = writer_and_reference(tmp_path, series)
        assert got == want

    def test_reader_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,value\n0.0,0.0\n")
        with pytest.raises(ConfigError, match="not a series file"):
            read_series_csv(path)

    def test_empty_series(self, tmp_path):
        got, want = writer_and_reference(tmp_path, column_series([]))
        assert got == want == b"tau,pe,channel_2,channel_-1\n"
        back = read_series_csv(tmp_path / "got.csv")
        assert list(back.channels) == [2, -1]
        for col in (back.tau, back.values, *back.channels.values()):
            assert col.shape == (0,)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # fig3a's 6/7 detuning
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_preset_series_match_repr(self, tmp_path, preset):
        assert main(["--preset", preset, "--out", str(tmp_path / "out")]) == 0
        for path in sorted((tmp_path / "out").glob("*.csv")):
            ref_write_series_csv(tmp_path / "want.csv", read_series_csv(path))
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes(), path.name


class TestMain:
    def test_preset_run(self, tmp_path):
        code = main(
            [
                "--preset",
                "fig1",
                "--out",
                str(tmp_path),
                "--tau",
                "0:3.0:50",
                "--window",
                "60",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig1_oracle.csv").exists()

    def test_config_run(self, tmp_path):
        doc = {
            "name": "demo",
            "config": {
                "j": 1,
                "m": [0],
                "omega": [[0.5, 0.0]],
                "delta0": 0.0,
            },
            "engine": "cascade",
            "tau": {"start": 0.0, "stop": 2.0 * math.pi, "count": 30},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        series = read_series_csv(tmp_path / "demo_cascade.csv")
        assert series.values.max() == pytest.approx(1.0, abs=1e-6)

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config": {"j": 1, "m": [1], "omega": [[0.1, 0]], "delta0": 1.0}}))
        code = main(["--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "validation"

    def _rejected_before_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        out.mkdir()
        code = main([*argv, "--out", str(out)])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        err = json.loads(stderr.strip().splitlines()[-1])
        assert err["kind"] == "validation"
        assert list(out.iterdir()) == []
        return err

    def _fig1_doc(self, tmp_path, **overrides):
        doc = {
            "name": "run",
            "config": FIG1_CONFIG,
            "engine": "all",
            "tau": {"start": 0.0, "stop": 3.0, "count": 20},
            "window": 60,
        }
        doc.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return path

    def test_all_skips_weak_field_at_a_resonant_lower_mode(self, tmp_path, capsys):
        # weak_field cannot expand about mode 2 (detuning 0); cascade and oracle can
        config = {"j": 1, "m": [0, 1, 2], "omega": [[0.05, 0]] * 3, "delta0": 1.0}
        cfg_path = self._fig1_doc(tmp_path, config=config)
        with pytest.warns(UserWarning):  # mode 2 is nearer resonance than mode 3
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / "all")]) == 0
        names = {p.name for p in (tmp_path / "all").iterdir()}
        assert names == {
            "run_config.json",
            "run_cascade.csv",
            "run_oracle.csv",
            "run_compare_cascade.json",
        }
        with pytest.warns(UserWarning):
            err = self._rejected_before_output(
                tmp_path, capsys, ["--config", str(cfg_path), "--engine", "weak_field"]
            )
        assert "mode 2 is resonant" in err["error"]

    @pytest.mark.parametrize(
        "name",
        ["../escaped", "a/b", "/abs", "", ".", "..", "nul\0", None, 3],
        ids=["parent", "subdir", "absolute", "empty", "dot", "dotdot", "nul", "null", "number"],
    )
    def test_name_outside_out_rejected_before_output(self, tmp_path, capsys, name):
        # the name prefixes every file, so it must name a file inside --out
        cfg_path = self._fig1_doc(tmp_path, name=name, engine="cascade")
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "experiment name" in err["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "out"]

    def test_negligible_coupling_runs(self, tmp_path):
        # a coupling below the drop threshold is dressed as uncoupled
        config = {"j": 1, "m": [0, 1], "omega": [[0.1, 0], [1e-15, 0]], "delta0": 1.0}
        cfg_path = self._fig1_doc(tmp_path, config=config, engine="cascade")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "run_cascade.csv").exists()

    def test_window_zero_override_rejected(self, tmp_path, capsys):
        # a zero window is an override like any other, not "no override"
        err = self._rejected_before_output(
            tmp_path, capsys, ["--preset", "fig1", "--window", "0"]
        )
        assert "window 0" in err["error"]

    def test_small_config_window_rejected_before_output(self, tmp_path, capsys):
        cfg_path = self._fig1_doc(tmp_path, window=-3)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "window -3" in err["error"]

    def test_small_window_ignored_without_oracle(self, tmp_path):
        cfg_path = self._fig1_doc(tmp_path, window=-3, engine="cascade")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_nan_coupling_rejected_before_output(self, tmp_path, capsys):
        config = {"j": 1, "m": [0, 2], "omega": [math.nan, 0.5], "delta0": 1.0}
        cfg_path = self._fig1_doc(tmp_path, config=config)  # json writes the token NaN
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "finite" in err["error"]

    @pytest.mark.parametrize(
        "omega, delta0",
        [([[1e308, 1e308], [0.5, 0.0]], 1.0), ([1e308, 1e308], 1.0), ([1.7e308, 0.5], 1.7e308)],
        ids=["coupling_modulus", "summed_couplings", "couplings_and_detuning"],
    )
    @pytest.mark.parametrize("engine", ["cascade", "oracle", "all"])
    def test_overflowing_drive_rejected_before_output(
        self, tmp_path, capsys, omega, delta0, engine
    ):
        config = {**FIG1_CONFIG, "omega": omega, "delta0": delta0}
        cfg_path = self._fig1_doc(tmp_path, config=config, engine=engine)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "finite" in err["error"]

    @pytest.mark.parametrize("engine", ["oracle", "all"])
    def test_oracle_step_overflow_rejected_before_output(self, tmp_path, capsys, engine):
        # a valid comb, but the oracle's Magnus step count overflows a float
        config = {**FIG1_CONFIG, "delta0": 1e307}
        cfg_path = self._fig1_doc(tmp_path, config=config, engine=engine)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "Magnus steps" in err["error"]

    @pytest.mark.parametrize("engine", ["oracle", "all"])
    def test_channels_at_the_int64_ends_run(self, tmp_path, engine):
        cfg_path = self._fig1_doc(tmp_path, engine=engine, channels=[2**63 - 1, -(2**63), 1])
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        series = read_series_csv(tmp_path / "out" / "run_oracle.csv")
        assert not series.channels[2**63 - 1].any() and not series.channels[-(2**63)].any()

    def test_infinite_tau_rejected_before_output(self, tmp_path, capsys):
        tau = {"start": -math.inf, "stop": 3.0, "count": 10}
        cfg_path = self._fig1_doc(tmp_path, tau=tau, engine="cascade")
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "finite" in err["error"]

    @pytest.mark.parametrize(
        "weights, phrase",
        [
            ({"kind": "gaussian", "alpha": [[math.nan, 0.0]]}, "finite"),
            ({"kind": "gaussian", "alpha": [[0.0, 0.0], [0.0, 0.0]]}, "nonzero"),
            ({"kind": "gaussian", "alpha": [[3.0, 0.0]], "window": -5}, "window -5"),
            ({"kind": "gaussian", "alpha": [[1e-200, 0.0]]}, "variance"),
            ({"kind": "gaussian", "alpha": [[1e10, 0.0]]}, "64-bit"),
            ({"kind": "gaussian", "alpha": [[1e200, 0.0]]}, "variance"),
        ],
        ids=[
            "nan_alpha", "zero_alphas", "negative_window",
            "underflowing_alpha", "level_past_int64", "overflowing_alpha",
        ],
    )
    def test_bad_weights_rejected_before_output(self, tmp_path, capsys, weights, phrase):
        cfg_path = self._fig1_doc(tmp_path, weights=weights, engine="cascade")
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert phrase in err["error"]

    @staticmethod
    def _integer_field(field, bad):
        """The document keys that put ``bad`` where the schema wants the integer ``field``."""
        return {
            "j": {"config": {**FIG1_CONFIG, "j": bad}},
            "m": {"config": {**FIG1_CONFIG, "m": [0, bad]}},
            "tau.count": {"tau": {"start": 0.0, "stop": 3.0, "count": bad}},
            "window": {"window": bad},
            "weights.window": {
                "weights": {"kind": "gaussian", "alpha": [[3.0, 0.0]], "window": bad}
            },
            "channels": {"channels": [1, bad]},
        }[field]

    @pytest.mark.parametrize(
        "bad", [2.6, True, math.inf, -math.inf, math.nan, "3"],
        ids=["fraction", "bool", "inf", "-inf", "nan", "string"],
    )
    @pytest.mark.parametrize(
        "field", ["j", "m", "tau.count", "window", "weights.window", "channels"]
    )
    def test_non_integer_rejected_before_output(self, tmp_path, capsys, field, bad):
        cfg_path = self._fig1_doc(tmp_path, engine="cascade", **self._integer_field(field, bad))
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "must be an integer" in err["error"]

    @pytest.mark.parametrize(
        "bad", [10**30, 2**63, -(2**63) - 1, 1e30], ids=["1e30", "2**63", "-2**63-1", "float"]
    )
    @pytest.mark.parametrize("engine", ["cascade", "oracle"])
    @pytest.mark.parametrize(
        "field", ["j", "m", "tau.count", "window", "weights.window", "channels"]
    )
    def test_out_of_range_integer_rejected_before_output(
        self, tmp_path, capsys, field, engine, bad
    ):
        # numpy cannot hold these in its int64 arrays
        cfg_path = self._fig1_doc(tmp_path, engine=engine, **self._integer_field(field, bad))
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "must fit a signed 64-bit integer" in err["error"]

    @pytest.mark.parametrize(
        "bad", [10**30, 2**63, -(2**63) - 1, 10**400], ids=["1e30", "2**63", "-2**63-1", "1e400"]
    )
    @pytest.mark.parametrize("option", ["--window", "--tau"])
    def test_out_of_range_override_rejected_before_output(self, tmp_path, capsys, option, bad):
        # the command-line overrides go through the same int64 check as the document
        value = f"0:3.0:{bad}" if option == "--tau" else str(bad)
        argv = ["--preset", "fig1", f"{option}={value}"]
        err = self._rejected_before_output(tmp_path, capsys, argv)
        assert "must fit a signed 64-bit integer" in err["error"]

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["--tau", f"0:1:{10**14}"], {}),
            ([], {"weights": {"kind": "gaussian", "alpha": [[3.0, 0.0]], "window": 10**14}}),
        ],
        ids=["tau_count", "weight_window"],
    )
    def test_unallocatable_request_rejected_before_output(self, tmp_path, capsys, argv, doc):
        # 10**14 elements pass the address space, so numpy refuses them at once
        cfg_path = self._fig1_doc(tmp_path, engine="cascade", **doc)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path), *argv])
        assert "allocate" in err["error"]

    def test_weights_built_once_before_any_engine(self, tmp_path, capsys, monkeypatch):
        # an out-of-domain alpha exits before any engine runs; a valid
        # weighted run over every engine builds its weights once
        def never(*a, **kw):
            raise AssertionError("an engine ran before the weights were built")

        for name in ("run_cascade", "two_mode_u0", "floquet_evolve"):
            monkeypatch.setattr(cli, name, never)
        weights = {"kind": "gaussian", "alpha": [[1e-200, 0.0]]}
        cfg_path = self._fig1_doc(tmp_path, weights=weights)
        argv = ["--config", str(cfg_path), "--engine", "all"]
        err = self._rejected_before_output(tmp_path, capsys, argv)
        assert "variance" in err["error"]
        monkeypatch.undo()

        calls = []
        build = cli.gamma_weights
        monkeypatch.setattr(cli, "gamma_weights", lambda *a: calls.append(a) or build(*a))
        weights = {"kind": "gaussian", "alpha": [[3.0, 0.0]], "window": 20}
        cfg_path = self._fig1_doc(tmp_path, weights=weights)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
        assert len(calls) == 1
        assert {p.name for p in (tmp_path / "ok").glob("*.csv")} == {
            "run_cascade.csv", "run_two_mode.csv", "run_oracle.csv",
        }

    # The largest shift the dressing can form on the comb m = (0, 2) at j > 0
    # is 2 * (j + j + 2) + j + 2 = 5j + 6, held below 2**62.
    J_INSIDE = (2**62 - 7) // 5

    @pytest.mark.parametrize(
        "j, m", [(J_INSIDE + 1, [0, 2]), (2**62, [0, 2**62]), (-(2**62), [0, 2])],
        ids=["just_past", "shift_past_int64", "negative"],
    )
    @pytest.mark.parametrize("engine", ["cascade", "two_mode", "all"])
    def test_shift_past_the_bound_rejected_before_output(self, tmp_path, capsys, j, m, engine):
        config = {**FIG1_CONFIG, "j": j, "m": m}
        cfg_path = self._fig1_doc(tmp_path, config=config, engine=engine, channels=[j])
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "2**62" in err["error"]

    def test_shift_just_inside_the_bound_matches_the_j1_comb(self, tmp_path):
        # only the channel labels depend on j: P_e and every channel agree bit
        # for bit with the j = 1 comb's
        series = []
        for j in (1, self.J_INSIDE):
            config = {**FIG1_CONFIG, "j": j}
            cfg_path = self._fig1_doc(
                tmp_path, config=config, engine="cascade", channels=[j, j + 2, j - 2]
            )
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / str(j))]) == 0
            series.append(read_series_csv(tmp_path / str(j) / "run_cascade.csv"))
        low, high = series
        assert list(high.channels) == [self.J_INSIDE + d for d in (0, 2, -2)]
        assert np.array_equal(low.values, high.values)
        for a, b in zip(low.channels.values(), high.channels.values()):
            assert np.array_equal(a, b)

    def test_deeply_nested_config_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text("[" * 100000 + "]" * 100000)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "recursion" in err["error"]

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (["--preset", "fig1", "--window", "abc"], "invalid int value"),
            (["--preset", "nope"], "invalid choice"),
            (["--preset", "fig1", "--engine", "zzz"], "invalid choice"),
            (["--preset", "fig1", "--bogus"], "unrecognized arguments"),
        ],
        ids=["window", "preset", "engine", "unknown_flag"],
    )
    def test_argument_error_rejected_before_output(self, tmp_path, capsys, argv, phrase):
        # main returns 2 with the JSON error instead of raising SystemExit
        err = self._rejected_before_output(tmp_path, capsys, argv)
        assert phrase in err["error"]

    @pytest.mark.parametrize(
        "overrides, argv, phrase",
        [
            ({"engine": "zzz"}, [], "unknown engine 'zzz'"),
            (
                {"engine": "weak_field", "weights": {"kind": "gaussian", "alpha": [[3.0, 0.0]]}},
                [],
                "not defined for the weak_field engine",
            ),
            ({"config": {**FIG1_CONFIG, "omega": [[1, 2, 3], 0.5]}}, [], "[re, im] pair"),
            ({"weights": {"kind": "poisson"}}, [], "unknown weights kind 'poisson'"),
            ({}, ["--tau", "0:1"], "bad tau spec"),
            ({}, ["--tau", "a:b:c"], "bad tau spec"),
        ],
        ids=[
            "unknown_engine", "weighted_weak_field", "coupling_triple", "unknown_weights",
            "tau_two_fields", "tau_not_numbers",
        ],
    )
    def test_inconsistent_request_rejected_before_output(
        self, tmp_path, capsys, overrides, argv, phrase
    ):
        cfg_path = self._fig1_doc(tmp_path, **overrides)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path), *argv])
        assert phrase in err["error"]

    @pytest.mark.parametrize("bad", [True, "3.5", None], ids=["bool", "string", "null"])
    @pytest.mark.parametrize(
        "field",
        ["delta0", "tau.start", "tau.stop", "omega", "omega.im", "weights.alpha"],
    )
    def test_non_number_rejected_before_output(self, tmp_path, capsys, field, bad):
        overrides = {
            "delta0": {"config": {**FIG1_CONFIG, "delta0": bad}},
            "tau.start": {"tau": {"start": bad, "stop": 3.0, "count": 20}},
            "tau.stop": {"tau": {"start": 0.0, "stop": bad, "count": 20}},
            "omega": {"config": {**FIG1_CONFIG, "omega": [bad, [0.5, 0.0]]}},
            "omega.im": {"config": {**FIG1_CONFIG, "omega": [[0.5, bad], [0.5, 0.0]]}},
            "weights.alpha": {"weights": {"kind": "gaussian", "alpha": [[3.0, 0.0], bad]}},
        }[field]
        cfg_path = self._fig1_doc(tmp_path, engine="cascade", **overrides)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "must be a number" in err["error"]

    @pytest.mark.parametrize(
        "key, value", [("tau", 5), ("weights", "gaussian")], ids=["tau", "weights"]
    )
    def test_non_object_section_rejected_before_output(self, tmp_path, capsys, key, value):
        cfg_path = self._fig1_doc(tmp_path, **{key: value})
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert f"'{key}' must be a JSON object" in err["error"]

    def test_weight_window_past_the_oracle_window_runs(self, tmp_path):
        # the oracle window gates the reference and cuts nothing, so a weight
        # window reaching past it changes no output but the config echo
        weights = {"kind": "gaussian", "alpha": [[5.0, 0.0]], "window": 40}
        for window in (20, 200):
            cfg_path = self._fig1_doc(tmp_path, window=window, weights=weights)
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / str(window))]) == 0
        narrow, wide = (sorted((tmp_path / w).iterdir()) for w in ("20", "200"))
        assert [p.name for p in narrow] == [p.name for p in wide]
        for a, b in zip(narrow, wide):
            if a.name == "run_config.json":
                assert json.loads(a.read_text()) == {**json.loads(b.read_text()), "window": 20}
            else:
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_unwritable_out_rejected(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = self._fig1_doc(tmp_path, engine="cascade")
        code = main(["--config", str(cfg_path), "--out", str(blocker / "sub")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "validation"

    def test_module_run_without_runpy_warning(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "polyrabi.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert "usage: polyrabi" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_both_modes_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path)]) == 2

    def test_leakage_exit_code(self, tmp_path, capsys):
        # strong drive on a thin lattice trips the leakage gate
        doc = {
            "name": "leaky",
            "config": {
                "j": 2,
                "m": [0, 1],
                "omega": [[3.0, 0.0], [3.0, 0.0]],
                "delta0": 1.0,
            },
            "engine": "oracle",
            "tau": {"start": 0.0, "stop": 100.0, "count": 40},
            "window": 13,
        }
        cfg_path = tmp_path / "leaky.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "oracle-validity"
        # partial outputs are retained
        assert (tmp_path / "leaky_config.json").exists()
        assert (tmp_path / "leaky_oracle.csv").exists()
