"""The benchmark's workloads: inputs made from a seed, and their references.

A workload is a list of calls into polyrabi's CLI layer.  One pass makes
every call once, in order; the passes of a run repeat the same calls, so
their CSVs must agree byte for byte.  Each call names the experiments it
runs, which fixes the files it must leave behind.

Only ``coherent_scan`` draws its inputs from the seed.  ``presets`` is the
fixed set of shipped presets, run in a fixed order so that a run's figures
do not depend on which experiment happens to follow which.

:func:`comb_experiments` is the ROADMAP's N-sweep of uniform combs.  It is
not a timed workload: the traced run calls it once after its passes, for
the per-N scaling readouts.

After the timed passes, :meth:`Workload.deviations` measures how far the
cascade engine sits from the lattice oracle on a fixed set of
experiments, through the CLI's own compare reports.  The set does not
depend on the seed, so the figure repeats exactly from run to run.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from polyrabi import cli
from polyrabi.cascade import ModeConfig
from polyrabi.cli import Experiment

SMOKE_TAU_COUNT = 64
SMOKE_WINDOW = 60
COMB_COUPLING = 1.0 / 15.0
SCAN_COUNT = 200
# 1000 points, like the presets' grids: on a shared machine the interpreter-bound
# part of a call swings with the host's speed more than its array work does, so
# smaller grids made the scan's figures spread past their bounds from run to run.
SCAN_TAU_COUNT = 1000
PANEL_TAU_COUNT = 300
SCAN_WEIGHT_WINDOW = 60
SCAN_REFERENCE_WINDOW = 120


@dataclass(frozen=True)
class Call:
    """One call into the program, and the experiments it runs."""

    label: str
    experiments: tuple[Experiment, ...]
    invoke: Callable[[Path], int]  # runs into an output dir, returns the exit code
    layer: str | None = None  # span name when the call itself enters a layer


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    deviations: Callable[[Path, Path], dict[str, float]]  # (last pass dir, scratch dir)

    @property
    def experiments(self) -> tuple[Experiment, ...]:
        return tuple(e for c in self.calls for e in c.experiments)


def expected_files(exp: Experiment) -> list[str]:
    """Names of the files ``cli.run`` writes for one experiment."""
    engines = exp.engines()
    names = [f"{exp.name}_config.json"] + [f"{exp.name}_{e}.csv" for e in engines]
    if "oracle" in engines:
        names += [f"{exp.name}_compare_{e}.json" for e in engines if e != "oracle"]
    return names


def _run_call(exp: Experiment) -> Call:
    def invoke(out: Path) -> int:
        cli.run(exp, out)  # looked up at call time, so a probe may wrap it
        return 0

    return Call(exp.name, (exp,), invoke)


def _cascade_max_abs(outdir: Path, name: str) -> float:
    doc = json.loads((outdir / f"{name}_compare_cascade.json").read_text())
    return float(doc["max_abs"])


# -- presets ---------------------------------------------------------------------


def presets(seed: int, smoke: bool) -> Workload:
    """``polyrabi --preset p`` for every shipped preset."""
    extra: list[str] = []
    if smoke:
        extra = ["--tau", f"0:{4 * math.pi!r}:{SMOKE_TAU_COUNT}", "--window", str(SMOKE_WINDOW)]
    calls = []
    for p in cli.PRESETS:
        exps = cli.preset_experiments(p)
        if smoke:
            exps = tuple(
                replace(e, tau=(0.0, 4 * math.pi, SMOKE_TAU_COUNT), window=SMOKE_WINDOW)
                for e in exps
            )

        def invoke(out: Path, p=p) -> int:
            return cli.main(["--preset", p, "--out", str(out), *extra])

        calls.append(Call(p, exps, invoke, layer="cli.main"))

    def deviations(last: Path, scratch: Path) -> dict[str, float]:
        return {e.name: _cascade_max_abs(last, e.name) for c in calls for e in c.experiments}

    return Workload("presets", tuple(calls), deviations)


# -- the N-sweep ------------------------------------------------------------------


def comb_experiments(sizes: tuple[int, ...], smoke: bool) -> list[Experiment]:
    """Uniform combs of the given sizes through the cascade engine."""
    count = SMOKE_TAU_COUNT if smoke else 1000
    exps = []
    for n in sizes:
        cfg = ModeConfig(j=1, m=tuple(range(n)), omega=(COMB_COUPLING,) * n, delta0=n - 1)
        exps.append(
            Experiment(
                name=f"comb_n{n:02d}",
                config=cfg,
                engine="cascade",
                tau=(0.0, 2.0 * math.pi / COMB_COUPLING, count),
                channels=tuple(cfg.mode_shifts),
            )
        )
    return exps


# -- coherent_scan ------------------------------------------------------------------


def _scan_experiment(name, n, j, omega, delta0, alpha, count, **kw) -> Experiment:
    cfg = ModeConfig(j=j, m=tuple(range(n)), omega=omega, delta0=delta0)
    return Experiment(
        name=name,
        config=cfg,
        tau=(0.0, 4.0 * math.pi, count),
        weights=alpha,
        weight_window=SCAN_WEIGHT_WINDOW,
        channels=tuple(cfg.mode_shifts),
        **kw,
    )


def coherent_scan(seed: int, smoke: bool) -> Workload:
    """Many small combs with random complex couplings and Gaussian field weights.

    Every seed scans the same number of combs of each size N and order j,
    in a seeded order: the cost of a call depends mostly on (N, j), so a
    seeded mix of them would change the work of a pass, and the median
    latency, from seed to seed.  The detuning stays within 0.45 of the top
    mode, so the top mode is always nearest resonance and no
    ``ResonanceOrderWarning`` fires.
    """
    rng = random.Random(seed)
    count = SMOKE_TAU_COUNT if smoke else SCAN_TAU_COUNT
    panel_count = SMOKE_TAU_COUNT if smoke else PANEL_TAU_COUNT
    classes = [(n, j) for n in (2, 3, 4) for j in (1, 2)]
    size = 20 if smoke else SCAN_COUNT
    mix = [classes[i % len(classes)] for i in range(size)]
    rng.shuffle(mix)
    exps = []
    for i, (n, j) in enumerate(mix):
        omega = tuple(
            cmath.rect(0.05 + 0.15 * rng.random(), 2 * math.pi * rng.random()) for _ in range(n)
        )
        side = 1 if rng.random() < 0.5 else -1
        delta0 = (n - 1) + side * 0.45 * rng.random()
        alpha = tuple(
            cmath.rect(1.0 + 3.0 * rng.random(), 2 * math.pi * rng.random()) for _ in range(n)
        )
        exps.append(
            _scan_experiment(f"scan{i:03d}", n, j, omega, delta0, alpha, count, engine="cascade")
        )

    # Fixed corners of the scan's parameter box, checked against the oracle.
    panel = [
        _scan_experiment(
            f"panel_n{n}_j{j}_{'lo' if side < 0 else 'hi'}",
            n,
            j,
            tuple(cmath.rect(0.125, 2 * math.pi * (k + 1) / (n + 1)) for k in range(n)),
            (n - 1) + side * 0.225,
            tuple(cmath.rect(2.5, 2 * math.pi * k / n) for k in range(n)),
            panel_count,
            engine="all",
            window=SCAN_REFERENCE_WINDOW,
        )
        for n in (2, 3, 4)
        for j in (1, 2)
        for side in (-1, 1)
    ]

    def deviations(last: Path, scratch: Path) -> dict[str, float]:
        out = {}
        for e in panel:
            if not cli.run(e, scratch).oracle_valid:
                raise RuntimeError(f"{e.name}: reference oracle failed its leakage gate")
            out[e.name] = _cascade_max_abs(scratch, e.name)
        return out

    return Workload("coherent_scan", tuple(_run_call(e) for e in exps), deviations)


WORKLOADS = {
    "presets": presets,
    "coherent_scan": coherent_scan,
}
