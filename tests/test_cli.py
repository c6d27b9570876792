import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    report,
    run,
)
from polyrabi.field_state import FieldWeights
from polyrabi.oracle import OracleRun
from polyrabi.propagator import PropagatorComponents
from polyrabi.terms import TermSum


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


class TestPresets:
    def test_known_presets(self):
        assert len(preset_experiments("fig1")) == 1
        with pytest.warns(UserWarning):  # the 6/7 detuning is nearest a lower mode
            assert len(preset_experiments("fig3a")) == 3
        assert len(preset_experiments("fig3bcd")) == 3
        with pytest.raises(ConfigError):
            preset_experiments("nope")

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


class TestReport:
    def test_self_comparison_zero(self, tmp_path):
        exp = small_fig1(tmp_path, engine="cascade")
        run(exp, tmp_path)
        rep = report(
            tmp_path / "t_cascade.csv",
            tmp_path / "t_cascade.csv",
            tmp_path / "cmp.json",
        )
        assert rep["max_abs"] == 0.0
        assert rep["rms"] == 0.0
        assert json.loads((tmp_path / "cmp.json").read_text()) == rep

    def test_grid_mismatch_rejected(self, tmp_path):
        a = small_fig1(tmp_path, engine="cascade")
        b = small_fig1(tmp_path, name="u", engine="cascade", tau=(0.0, 2.0, 50))
        run(a, tmp_path)
        run(b, tmp_path)
        with pytest.raises(Exception):
            report(tmp_path / "t_cascade.csv", tmp_path / "u_cascade.csv")


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
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "validation"
        assert list(out.iterdir()) == []
        return err

    def _fig1_doc(self, tmp_path, **overrides):
        doc = {
            "name": "run",
            "config": {"j": 1, "m": [0, 2], "omega": [[0.5, 0.0], [0.5, 0.0]], "delta0": 1.0},
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
        ],
        ids=["nan_alpha", "zero_alphas", "negative_window"],
    )
    def test_bad_weights_rejected_before_output(self, tmp_path, capsys, weights, phrase):
        cfg_path = self._fig1_doc(tmp_path, weights=weights, engine="cascade")
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert phrase in err["error"]

    @pytest.mark.parametrize(
        "key, value", [("tau", 5), ("weights", "gaussian")], ids=["tau", "weights"]
    )
    def test_non_object_section_rejected_before_output(self, tmp_path, capsys, key, value):
        cfg_path = self._fig1_doc(tmp_path, **{key: value})
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert f"'{key}' must be a JSON object" in err["error"]

    def test_window_overflow_rejected_before_output(self, tmp_path, capsys):
        # the weight window's reach is known only once the oracle has run
        weights = {"kind": "gaussian", "alpha": [[5.0, 0.0]], "window": 40}
        cfg_path = self._fig1_doc(tmp_path, window=20, weights=weights)
        err = self._rejected_before_output(tmp_path, capsys, ["--config", str(cfg_path)])
        assert "window" in err["error"]

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
