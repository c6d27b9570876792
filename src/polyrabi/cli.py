"""Batch front door: run configured pipelines and emit data series.

A run takes one experiment (mode configuration, engine selection, time grid,
weight model) and writes flat files: one CSV per engine with header
``tau,pe[,channel_<s>...]``, a JSON comparison report per analytic engine
when the oracle also ran, and an echo of the configuration that reloads to
an equal experiment.  Formatting is fixed so identical configurations give
byte-identical outputs.

Exit codes: 0 success, 2 configuration/validation error, 3 oracle validity
failure (leakage or norm-defect gate; partial outputs are kept).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import orjson

from .cascade import ModeConfig, run_cascade
from .closed_forms import resonant_lower_mode, two_mode_u0, weak_field_uge
from .field_state import gamma_weights, weighted_pe
from .oracle import compare, floquet_evolve, min_halfwidth
from .propagator import PeSeries, excitation_probability, factored_pe, undress

# The lattice solver is not on the CLI path, but the benchmark harness reads
# these names on this module for its halfwidth scaling probes, and wraps
# ``evolve`` here (``run`` never calls it, so the wrapper does not fire).
from .oracle import build_hamiltonian, evolve  # noqa: F401

__all__ = [
    "ConfigError",
    "Experiment",
    "PRESETS",
    "preset_experiments",
    "load_experiment",
    "experiment_to_dict",
    "run",
    "main",
]

ENGINES = ("cascade", "two_mode", "weak_field", "oracle", "all")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment description."""


@dataclass(frozen=True)
class Experiment:
    """One batch unit: a configuration plus how to run and emit it."""

    name: str
    config: ModeConfig
    engine: str = "all"
    tau: tuple[float, float, int] = (0.0, 4.0 * math.pi, 1000)
    weights: tuple[complex, ...] | None = None  # None = flat; else gaussian alphas
    weight_window: int = 60
    window: int = 200  # oracle leakage-gate boundary; the solution is never cut to it
    channels: tuple[int, ...] | None = None

    def __post_init__(self):
        # the name prefixes every output file, so it must name a file in --out
        seps = [sep for sep in ("/", os.sep, os.altsep, "\0") if sep]
        if (
            not isinstance(self.name, str)
            or self.name in ("", ".", "..")
            or any(sep in self.name for sep in seps)
        ):
            raise ConfigError(f"experiment name {self.name!r} must be a string naming a file")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        start, stop, count = self.tau
        if count < 2:
            raise ConfigError("tau grid needs at least 2 points")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"tau endpoints must be finite, got {start!r}, {stop!r}")
        if not stop > start:
            raise ConfigError("tau stop must exceed start")
        if self.engine == "two_mode" and self.config.n_modes != 2:
            raise ConfigError("two_mode engine requires exactly 2 modes")
        if self.weights is not None and self.engine == "weak_field":
            raise ConfigError("gaussian weights are not defined for the weak_field engine")
        if "oracle" in self.engines() and self.window <= min_halfwidth(self.config):
            raise ConfigError(
                f"window {self.window} too small; need > {min_halfwidth(self.config)}"
            )

    def engines(self) -> tuple[str, ...]:
        if self.engine != "all":
            return (self.engine,)
        out = ["cascade"]
        if self.config.n_modes == 2:
            out.append("two_mode")
        if self.weights is None and resonant_lower_mode(self.config) is None:
            out.append("weak_field")
        out.append("oracle")
        return tuple(out)

    def taugrid(self) -> np.ndarray:
        start, stop, count = self.tau
        return np.linspace(start, stop, count)


# -- presets -------------------------------------------------------------------


def preset_experiments(name: str) -> tuple[Experiment, ...]:
    """Shipped figure-reproduction presets.

    ``fig1``: two modes at offsets 0 and 2, both at coupling 1/2, detuning 1,
    with the three transition channels resolved.  ``fig3a``: three adjacent
    modes at coupling 1/7 for three detunings.  ``fig3bcd``: ten-mode combs
    at couplings 1/7, 1/11, 1/15, each followed over one full cycle of its
    resonant oscillation (the grid stop is 2*pi over the coupling).
    """
    if name == "fig1":
        return (
            Experiment(
                name="fig1",
                config=ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0),
                channels=(1, 3, -1),
            ),
        )
    if name == "fig3a":
        return tuple(
            Experiment(
                name=f"fig3a_{tag}",
                config=ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=d0),
            )
            for tag, d0 in (("d2", 2.0), ("d13_7", 13.0 / 7.0), ("d6_7", 6.0 / 7.0))
        )
    if name == "fig3bcd":
        return tuple(
            Experiment(
                name=tag,
                config=ModeConfig(j=1, m=tuple(range(10)), omega=(om,) * 10, delta0=9.0),
                tau=(0.0, 2.0 * math.pi / om, 1000),
            )
            for tag, om in (("fig3b", 1 / 7), ("fig3c", 1 / 11), ("fig3d", 1 / 15))
        )
    raise ConfigError(f"unknown preset {name!r}")


PRESETS = ("fig1", "fig3a", "fig3bcd")


# -- config (de)serialization ---------------------------------------------------


def _complex_pair(x, what: str) -> complex:
    """A JSON number or ``[re, im]`` pair of numbers, as a complex."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(_real(x[0], what), _real(x[1], what))
    if isinstance(x, (list, tuple)):
        raise ConfigError(f"{what} must be a number or an [re, im] pair, got {x!r}")
    return complex(_real(x, what))


def _json_object(doc: dict, key: str, default: dict) -> dict:
    value = doc.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _real(x, what: str) -> float:
    """A JSON number, as a float; not a boolean or a string."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise ConfigError(f"{what} must be a number, got {x!r}")


def _integer(x, what: str) -> int:
    """A JSON number equal to its integer value and within int64, as an int; not a boolean."""
    integral_float = isinstance(x, float) and x.is_integer()
    if not (integral_float or (isinstance(x, int) and not isinstance(x, bool))):
        raise ConfigError(f"{what} must be an integer, got {x!r}")
    if not -(2**63) <= x < 2**63:
        raise ConfigError(f"{what} must fit a signed 64-bit integer, got {x!r}")
    return int(x)


def load_experiment(doc: dict) -> Experiment:
    """Build an Experiment from its JSON document form; absent keys take its defaults."""
    try:
        cfg = doc["config"]
        mode = ModeConfig(
            j=_integer(cfg["j"], "j"),
            m=tuple(_integer(x, "mode offset") for x in cfg["m"]),
            omega=tuple(_complex_pair(x, "coupling") for x in cfg["omega"]),
            delta0=_real(cfg["delta0"], "delta0"),
        )
        tau = _json_object(doc, "tau", {})
        start, stop, count = Experiment.tau
        weights = _json_object(doc, "weights", {"kind": "flat"})
        kind = weights.get("kind", "flat")
        alphas, wwin = None, Experiment.weight_window
        if kind == "gaussian":
            alphas = tuple(_complex_pair(x, "gaussian alpha") for x in weights["alpha"])
            wwin = _integer(weights.get("window", wwin), "weight window")
        elif kind != "flat":
            raise ConfigError(f"unknown weights kind {kind!r}")
        channels = doc.get("channels")
        if channels is not None:
            channels = tuple(_integer(s, "channel") for s in channels)
        return Experiment(
            name=doc.get("name", "run"),
            config=mode,
            engine=str(doc.get("engine", Experiment.engine)),
            tau=(
                _real(tau.get("start", start), "tau start"),
                _real(tau.get("stop", stop), "tau stop"),
                _integer(tau.get("count", count), "tau count"),
            ),
            weights=alphas,
            weight_window=wwin,
            window=_integer(doc.get("window", Experiment.window), "window"),
            channels=channels,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad experiment document: {exc}") from exc


def experiment_to_dict(exp: Experiment) -> dict:
    doc = {
        "name": exp.name,
        "config": {
            "j": exp.config.j,
            "m": list(exp.config.m),
            "omega": [[x.real, x.imag] for x in exp.config.omega],
            "delta0": exp.config.delta0,
        },
        "engine": exp.engine,
        "tau": {"start": exp.tau[0], "stop": exp.tau[1], "count": exp.tau[2]},
        "window": exp.window,
    }
    if exp.weights is None:
        doc["weights"] = {"kind": "flat"}
    else:
        doc["weights"] = {
            "kind": "gaussian",
            "alpha": [[a.real, a.imag] for a in exp.weights],
            "window": exp.weight_window,
        }
    if exp.channels is not None:
        doc["channels"] = list(exp.channels)
    return doc


# -- series IO ------------------------------------------------------------------


def write_series_csv(path: Path, series: PeSeries) -> None:
    """Write a series as CSV, every value as the ``repr`` of its float, byte for byte.

    Channel columns follow ``series.channels``.  One orjson dump writes the
    values in row-major order, each as the shortest string that reads back
    to the same double, as ``repr`` does; each row's last comma becomes a
    newline.  The layouts differ outside zero and 1e-4 <= |x| < 1e16
    (``1.5e-7``, ``1e16`` against ``1.5e-07``, ``1e+16``), so those values
    and the non-finite ones go to orjson as NaN, written ``null`` as no
    finite value is, and their ``repr`` fills each ``null`` in order.
    """
    cols = list(series.channels or ())
    columns = [series.tau, series.values, *(series.channels[s] for s in cols)]
    table = np.column_stack(columns).astype(float)
    mag = np.abs(table)
    odd = ~((mag == 0.0) | ((mag >= 1e-4) & (mag < 1e16)))
    flat = orjson.dumps(np.where(odd, np.nan, table).ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    text = np.frombuffer(flat[1:-1] + b"," if table.size else b"", np.uint8).copy()
    text[np.flatnonzero(text == ord(","))[len(columns) - 1 :: len(columns)]] = ord("\n")
    pieces = text.tobytes().decode().split("null")
    fills = [repr(x) for x in table[odd].tolist()] + [""]
    header = "tau,pe" + "".join(f",channel_{s}" for s in cols)
    Path(path).write_text("".join([header, "\n", *(p + f for p, f in zip(pieces, fills))]))


def read_series_csv(path: Path) -> PeSeries:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["tau", "pe"]:
            raise ConfigError(f"{path}: not a series file")
        chan_names = [int(h.removeprefix("channel_")) for h in header[2:]]
        data = np.array(
            [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        ).reshape(-1, len(header))
    channels = (
        {s: data[:, 2 + i] for i, s in enumerate(chan_names)} if chan_names else None
    )
    return PeSeries(tau=data[:, 0], values=data[:, 1], channels=channels)


# -- pipelines --------------------------------------------------------------------


@dataclass
class RunResult:
    """What one experiment produced and whether the oracle run was valid."""

    files: list[Path] = field(default_factory=list)
    oracle_valid: bool = True


def _series(exp: Experiment, engine: str, taus: np.ndarray, weights) -> tuple[PeSeries, bool]:
    """One engine's series, and whether it is valid (only the oracle can fail).

    ``weights`` is the experiment's level-weight profile, None when flat.  A
    flat cascade run without channels reads only the traced P_e, so it
    multiplies the stage chain out (:func:`~polyrabi.propagator.factored_pe`)
    instead of expanding it into terms; every other analytic run evaluates
    the term expansion.
    """
    cfg = exp.config
    flat = weights is None
    if engine == "cascade" and flat and not exp.channels:
        return factored_pe(run_cascade(cfg), taus), True
    if engine == "weak_field":
        return PeSeries(tau=taus, values=np.abs(weak_field_uge(cfg, taus)) ** 2), True
    if engine == "oracle":
        source = floquet_evolve(cfg, exp.window, taus, channels=exp.channels if flat else None)
        if flat:
            return source.pe, source.valid
    else:
        source = two_mode_u0(cfg) if engine == "two_mode" else undress(run_cascade(cfg))
        if flat:
            return excitation_probability(source, taus, channels=exp.channels), True
    series = weighted_pe(source, weights, taus, channels=exp.channels)
    return series, engine != "oracle" or source.valid


def run(exp: Experiment, outdir: Path) -> RunResult:
    """Execute one experiment and write its artifacts under ``outdir``.

    The weights are built once, before any engine runs, and every series
    and comparison is computed before the first file is written, so a run
    that raises leaves nothing behind.
    """
    taus = exp.taugrid()
    weights = None if exp.weights is None else gamma_weights(exp.weights, exp.weight_window)
    result = RunResult()
    produced: dict[str, PeSeries] = {}
    for engine in exp.engines():
        produced[engine], valid = _series(exp, engine, taus, weights)
        result.oracle_valid &= valid
    reports = {}
    if "oracle" in produced:
        reports = {
            engine: compare(series, produced["oracle"])
            for engine, series in produced.items()
            if engine != "oracle"
        }

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    echo = outdir / f"{exp.name}_config.json"
    echo.write_text(json.dumps(experiment_to_dict(exp), indent=2, sort_keys=True) + "\n")
    result.files.append(echo)
    for engine, series in produced.items():
        path = outdir / f"{exp.name}_{engine}.csv"
        write_series_csv(path, series)
        result.files.append(path)
    for engine, rep in reports.items():
        path = outdir / f"{exp.name}_compare_{engine}.json"
        path.write_text(json.dumps(rep.as_dict(), indent=2, sort_keys=True) + "\n")
        result.files.append(path)
    return result


# -- entry point -------------------------------------------------------------------


def _parse_tau(spec: str) -> tuple[float, float, int]:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad tau spec {spec!r}, expected start:stop:count") from exc
    return (start, stop, _integer(count, "tau count"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # parse errors take the JSON error path
        raise ConfigError(message)


def _report(error: str, kind: str) -> None:
    """Write one JSON error record to stderr."""
    print(json.dumps({"error": error, "kind": kind}), file=sys.stderr)


def main(argv=None) -> int:
    parser = _Parser(
        prog="polyrabi",
        description="Run comb-driven spin-half pipelines and emit data series.",
    )
    parser.add_argument("--preset", choices=PRESETS, help="run a shipped preset batch")
    parser.add_argument("--config", type=Path, help="experiment JSON document")
    parser.add_argument("--engine", choices=ENGINES, help="override the engine selection")
    parser.add_argument("--tau", help="grid override start:stop:count")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--window", type=int, help="oracle leakage-gate boundary override")

    try:
        args = parser.parse_args(argv)
        if (args.preset is None) == (args.config is None):
            raise ConfigError("give exactly one of --preset or --config")
        if args.preset:
            experiments = preset_experiments(args.preset)
        else:
            doc = json.loads(Path(args.config).read_text())
            experiments = (load_experiment(doc),)
        overrides = {}
        if args.engine:
            overrides["engine"] = args.engine
        if args.tau is not None:
            overrides["tau"] = _parse_tau(args.tau)
        if args.window is not None:
            overrides["window"] = _integer(args.window, "window")
        experiments = [replace(exp, **overrides) for exp in experiments]
    except (ConfigError, ValueError, OSError, RecursionError) as exc:
        # a RecursionError is a document nested past the JSON decoder's depth
        _report(str(exc), "validation")
        return 2

    all_valid = True
    for exp in experiments:
        try:
            result = run(exp, args.out)
        except (ConfigError, ValueError, OSError, MemoryError) as exc:
            _report(str(exc), "validation")
            return 2
        if not result.oracle_valid:
            _report(
                f"{exp.name}: oracle leakage or norm-defect gate failed; outputs retained "
                "but flagged",
                "oracle-validity",
            )
            all_valid = False
    return 0 if all_valid else 3


if __name__ == "__main__":
    sys.exit(main())
