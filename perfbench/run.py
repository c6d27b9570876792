"""polyrabi benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload presets --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``presets`` and ``coherent_scan``.  The
run is one closed loop with one client in this process: passes over the
workload's calls follow each other until ``--seconds`` have elapsed (at
least two passes).  The seed only shapes the
generated inputs; the program sees nothing but the experiments.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record a span around every public layer
call the CLI makes, and prints the per-layer metrics, medians over the
traced passes, and then the scaling readouts: the lattice oracle at
several halfwidths and the analytic path on uniform combs N = 4..20.  The
spans are dumped to ``perfbench/_runs/``.  Both print a run manifest and a readable table, and as their last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` shrinks every grid and lattice so a run takes seconds; it
prints the same metric names.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

from tracing import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_REPEATS = 9  # this process plus eight fresh ones
MIN_PASSES = 2
TRACE_SHARE = 0.75  # of --seconds for traced pairs; the rest is for the scaling probes
NORM_TOL = 1e-10
RANGE_TOL = 1e-12
ANALYTIC_ENGINES = ("cascade", "two_mode", "weak_field")
SCALING_WINDOWS = (100, 200, 400)
SMOKE_SCALING_WINDOWS = (25, 50, 100)
COMB_SIZES = (4, 8, 12, 16, 20)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "exp_p50_ms": "ms",
    "exp_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cascade_dev_gmean": "prob",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "oracle.build_hamiltonian_s": "s",
    "oracle.eigh_s": "s",
    "oracle.evolve_s": "s",
    "oracle.compare_s": "s",
    "oracle.dim": "rows",
    "oracle.evolve_flops": "flop",
    "oracle.run_bytes": "B",
    "propagator.undress_s": "s",
    "propagator.u0_terms": "count",
    "cascade.run_cascade_s": "s",
    "cascade.stages": "count",
    "cascade.truncated_terms": "count",
    "terms.mat_vec_s": "s",
    "terms.product_terms": "count",
    "terms.merged_terms": "count",
    "terms.merge_ratio": "ratio",
    "propagator.pe_s": "s",
    "propagator.term_evals": "count",
    "closed_forms.two_mode_u0_s": "s",
    "closed_forms.weak_field_uge_s": "s",
    "field_state.gamma_weights_s": "s",
    "field_state.weighted_pe_s": "s",
    "field_state.pairs": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.self_s": "s",
    **{f"propagator.undress_s.n{n}": "s" for n in COMB_SIZES},
    **{f"propagator.pe_s.n{n}": "s" for n in COMB_SIZES},
    **{f"oracle.eigh_s.w{w}": "s" for w in SCALING_WINDOWS},
    **{f"oracle.evolve_s.w{w}": "s" for w in SCALING_WINDOWS},
    "trace.overhead_s": "s",
}
# Per-layer figures taken after the traced passes, not from them.
SCALING_PREFIXES = ("oracle.eigh_s.w", "oracle.evolve_s.w", "propagator.undress_s.n",
                    "propagator.pe_s.n")


def blas_threads_wanted() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Cap BLAS at the cores this process may use; must run before numpy loads."""
    n = str(blas_threads_wanted())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_program():
    """Import polyrabi from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "polyrabi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyrabi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyrabi

    if SRC.resolve() not in Path(polyrabi.__file__).resolve().parents:
        sys.exit(f"perfbench: polyrabi was imported from {polyrabi.__file__}, not {SRC}")
    return polyrabi


# -- machine facts -------------------------------------------------------------------


def blas_threads_in_use() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polyrabi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, **extra) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": blas_threads_wanted(),
        "cpu_model": cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads_in_use()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **extra,
    }


# -- probing and checking ---------------------------------------------------------------


class Probe:
    """Per-experiment facts gathered around the CLI's calls in every pass.

    It times each ``cli.run`` call, keeps the oracle's norm defect (and lets
    the ``OracleRun`` go), and on a capturing pass keeps each analytic
    propagator for the hermiticity check.
    """

    def __init__(self, cli):
        self.cli = cli
        self.records: dict[str, dict] = {}
        self.capture = False
        self._rec: dict | None = None

    def replacements(self) -> dict:
        run, evolve = self.cli.run, self.cli.evolve

        def probed_run(exp, outdir):
            rec = self._rec = self.records[exp.name] = {
                "latency": None, "error": None, "valid": True, "norm_defect": 0.0, "u0": [],
            }
            start = time.perf_counter()
            try:
                result = run(exp, outdir)
            except Exception as exc:
                rec["error"] = repr(exc)
                raise
            finally:
                rec["latency"] = time.perf_counter() - start
                self._rec = None
            rec["valid"] = result.oracle_valid
            return result

        def probed_evolve(*a, **kw):
            orun = evolve(*a, **kw)
            if self._rec is not None:
                self._rec["norm_defect"] = max(self._rec["norm_defect"], orun.norm_defect)
            return orun

        def keeping(fn):
            def kept(*a, **kw):
                u0 = fn(*a, **kw)
                if self.capture and self._rec is not None:
                    self._rec["u0"].append(u0)
                return u0

            return kept

        return {
            "run": probed_run,
            "evolve": probed_evolve,
            "undress": keeping(self.cli.undress),
            "two_mode_u0": keeping(self.cli.two_mode_u0),
        }


def check_csv(path: Path, engine: str) -> str | None:
    """Range and tau=0 checks of one series file.

    P_e of the cascade, two_mode and oracle engines is the squared entry of
    a unitary, so it must lie in [0, 1].  The weak-field form is a
    second-order amplitude with no such bound; its values need only be
    finite and non-negative, and the largest is reported separately.
    """
    lines = path.read_text().splitlines()
    if len(lines) < 2 or lines[0].split(",")[:2] != ["tau", "pe"]:
        return f"{path.name}: malformed"
    top = math.inf if engine == "weak_field" else 1.0 + RANGE_TOL
    for line in lines[1:]:
        for x in line.split(",")[1:]:
            v = float(x)
            if not math.isfinite(v) or v < -RANGE_TOL or v > top:
                return f"{path.name}: value {x} outside [0, 1]"
    first = lines[1].split(",")
    if engine in ANALYTIC_ENGINES and float(first[0]) == 0.0 and float(first[1]) != 0.0:
        return f"{path.name}: P_e(0) = {first[1]}, not 0.0"
    return None


def csv_max_pe(path: Path) -> float:
    return max(float(line.split(",")[1]) for line in path.read_text().splitlines()[1:])


def check_pass(workload, outdir, exits, records, prev, full):
    """Failed experiments of one pass (name -> reason) and its CSV digests."""
    from workloads import expected_files

    failed: dict[str, str] = {}
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.glob("*.csv")}
    for call in workload.calls:
        for exp in call.experiments:
            rec = records.get(exp.name)
            why = None
            if rec is None:
                why = "not run"
            elif rec["error"]:
                why = f"raised {rec['error']}"
            elif not rec["valid"]:
                why = "oracle leakage gate (exit 3)"
            elif rec["norm_defect"] > NORM_TOL:
                why = f"oracle norm defect {rec['norm_defect']:.3g}"
            elif any(u.hermiticity_defect() != 0.0 for u in rec["u0"]):
                why = "hermiticity defect"
            for name in expected_files(exp):
                if why:
                    break
                if not (outdir / name).is_file():
                    why = f"missing {name}"
                elif not name.endswith(".csv"):
                    continue
                elif prev is not None and prev.get(name) != digests[name]:
                    why = f"{name} differs from the previous pass"
                elif full:
                    why = check_csv(outdir / name, name[len(exp.name) + 1 : -4])
            if why:
                failed[exp.name] = why
        code = exits[call.label]
        if code != 0 and not any(e.name in failed for e in call.experiments):
            for exp in call.experiments:
                failed[exp.name] = f"call {call.label} ended with {code}"
    return failed, digests


def run_sides(workload, probe, sides, turn=0):
    """Make one pass per side, the sides taking turns call by call.

    ``sides`` pairs an output dir with an optional call wrapper.  Taking
    turns call by call, rather than pass by pass, puts every side through
    the same slow spells of a shared machine; which side goes first rotates
    with the call index plus ``turn``.  Returns, per side, its wall time
    (the sum over its calls), the exit of each call and the probe's
    per-experiment records.
    """
    out = []
    for outdir, _ in sides:
        outdir.mkdir(parents=True)
        out.append(([0.0], {}, {}))
    for i, call in enumerate(workload.calls):
        k = (i + turn) % len(sides)
        for (outdir, wrap), (wall, exits, records) in zip(sides[k:] + sides[:k], out[k:] + out[:k]):
            probe.records = records
            invoke = wrap(call) if wrap else call.invoke
            start = time.perf_counter()
            try:
                exits[call.label] = invoke(outdir)
            except Exception:
                traceback.print_exc()
                exits[call.label] = "exception"
            wall[0] += time.perf_counter() - start
    return [(wall[0], exits, records) for wall, exits, records in out]


def warm_up(cli, outdir: Path) -> None:
    """First calls into every engine on a small lattice and grid."""
    exp = replace(cli.preset_experiments("fig1")[0], tau=(0.0, 4 * math.pi, 200), window=40)
    cli.run(exp, outdir)


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Passes:
    """Runs passes, checks each against the one before, counts failures.

    Every pass writes into a directory of its own, and none is deleted until
    the run ends: on an ext4 disk mounted with ``discard``, deleting a pass's
    output while the next pass writes made the writes several times slower
    within a minute, so the figures drifted with the run's length.
    """

    def __init__(self, workload, rundir, probe):
        self.workload, self.rundir, self.probe = workload, rundir, probe
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.digests = None
        self.last: Path | None = None

    def run(self, wraps=(None,)) -> list[float]:
        """One pass per entry of ``wraps`` (see :func:`run_sides`); their walls."""
        dirs = [self.rundir / f"pass{len(self.walls) + i}" for i in range(len(wraps))]
        self.probe.capture = not self.walls
        results = run_sides(self.workload, self.probe, list(zip(dirs, wraps)), len(self.walls))
        for outdir, (wall, exits, records) in zip(dirs, results):
            failed, digests = check_pass(self.workload, outdir, exits, records, self.digests,
                                         full=not self.walls)
            for name, why in failed.items():
                self.failures[f"{outdir.name}/{name}"] = why
            self.attempted += len(self.workload.experiments)
            self.latencies += [r["latency"] for r in records.values() if r["latency"] is not None]
            self.walls.append(wall)
            self.digests = digests
            self.last = outdir
        return [wall for wall, _, _ in results]

    def bytes_and_files(self) -> tuple[int, int]:
        files = [p for p in self.last.iterdir() if p.is_file()]
        return sum(p.stat().st_size for p in files), len(files)


# -- tracing ---------------------------------------------------------------------------------


def layer_wrappers(tracer, cli) -> dict:
    """Span wrappers for every layer function the CLI module calls."""
    from polyrabi.propagator import PropagatorComponents

    def keep_cascade(a, kw, cr):
        return {"stages": len(cr.stages), "truncated": len(cr.truncation_report)}

    def keep_undress(a, kw, u0):
        return {"cr": a[0], "u0": u0}

    def keep_pe(a, kw, series):
        channels = kw.get("channels", a[2] if len(a) > 2 else None)
        return {"u0": a[0], "points": len(series.tau), "channels": channels}

    def keep_weighted(a, kw, series):
        src, weights = a[0], a[1]
        return {"u0": src if isinstance(src, PropagatorComponents) else None,
                "levels": 0 if weights is None else len(weights.levels)}

    def keep_evolve(a, kw, orun):
        arrays = [orun.tau, orun.eigenvalues, orun.eigenvectors, orun.up_amplitudes,
                  orun.pe.values, *(orun.pe.channels or {}).values()]
        return {"h": a[0], "dim": orun.basis.dim, "points": len(orun.tau),
                "bytes": sum(x.nbytes for x in arrays)}

    table = {
        "run": ("cli.run", None),
        "run_cascade": ("cascade.run_cascade", keep_cascade),
        "undress": ("propagator.undress", keep_undress),
        "excitation_probability": ("propagator.pe", keep_pe),
        "two_mode_u0": ("closed_forms.two_mode_u0", None),
        "weak_field_uge": ("closed_forms.weak_field_uge", None),
        "gamma_weights": ("field_state.gamma_weights", None),
        "weighted_pe": ("field_state.weighted_pe", keep_weighted),
        "build_hamiltonian": ("oracle.build_hamiltonian", None),
        "evolve": ("oracle.evolve", keep_evolve),
        "compare": ("oracle.compare", None),
        "write_series_csv": ("cli.write", None),
    }
    return {
        attr: tracer.wrap(name, getattr(cli, attr), keep, starts_experiment=(attr == "run"))
        for attr, (name, keep) in table.items()
    }


def replay_undress(cr, expected, polyrabi):
    """Undress again step by step through the public term algebra.

    Returns (mat_vec seconds, product terms attempted, terms kept, equal),
    where ``equal`` says whether the replay matches ``undress()`` exactly.
    """
    u = polyrabi.dressed_propagator(cr.stages[-1]).u
    seconds, products, merged = 0.0, 0, 0
    for p in reversed(cr.stages[:-1]):
        m = polyrabi.build_T(p)
        products += sum(len(e) * len(c) for row in m for e, c in zip(row, u) if e and c)
        start = time.perf_counter()
        u = polyrabi.mat_vec(m, u)
        seconds += time.perf_counter() - start
        merged += sum(len(c) for c in u)
    equal = len(u) == len(expected.u) and all(a == b for a, b in zip(u, expected.u))
    return seconds, products, merged, equal


def layer_metrics(tracer, polyrabi, np) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced pass, plus any replay mismatches."""
    selfs = tracer.self_times()
    busy = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        busy[span.name] += own
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    m = {k: 0.0 for k in PER_LAYER if not k.startswith(SCALING_PREFIXES + ("trace.",))}
    problems = []

    eigh_s = 0.0
    for span in by_name["oracle.evolve"]:
        h = span.info.pop("h")
        start = time.perf_counter()
        np.linalg.eigh(h)
        eigh_s += time.perf_counter() - start
        del h
        m["oracle.evolve_flops"] += 8.0 * span.info["dim"] ** 2 * span.info["points"]
        m["oracle.dim"] = max(m["oracle.dim"], span.info["dim"])
        m["oracle.run_bytes"] = max(m["oracle.run_bytes"], span.info["bytes"])
    m["oracle.build_hamiltonian_s"] = busy["oracle.build_hamiltonian"]
    m["oracle.eigh_s"] = eigh_s
    m["oracle.evolve_s"] = busy["oracle.evolve"] - eigh_s
    m["oracle.compare_s"] = busy["oracle.compare"]

    m["cascade.run_cascade_s"] = busy["cascade.run_cascade"]
    for span in by_name["cascade.run_cascade"]:
        m["cascade.stages"] += span.info["stages"]
        m["cascade.truncated_terms"] += span.info["truncated"]

    m["propagator.undress_s"] = busy["propagator.undress"]
    for span in by_name["propagator.undress"]:
        u0 = span.info["u0"]
        m["propagator.u0_terms"] += sum(len(c) for c in u0.u)
        secs, products, merged, equal = replay_undress(span.info["cr"], u0, polyrabi)
        m["terms.mat_vec_s"] += secs
        m["terms.product_terms"] += products
        m["terms.merged_terms"] += merged
        if not equal:
            problems.append(f"undress replay differs from undress() in experiment {span.exp}")
    if m["terms.product_terms"]:
        m["terms.merge_ratio"] = m["terms.merged_terms"] / m["terms.product_terms"]

    m["propagator.pe_s"] = busy["propagator.pe"]
    for span in by_name["propagator.pe"]:
        plus = span.info["u0"].sigma_plus
        groups = plus.by_shift()
        channels = span.info["channels"]
        wanted = sorted(groups) if channels is True else list(channels or ())
        evals = len(plus) + sum(len(groups.get(int(s), ())) for s in wanted)
        m["propagator.term_evals"] += evals * span.info["points"]

    m["closed_forms.two_mode_u0_s"] = busy["closed_forms.two_mode_u0"]
    m["closed_forms.weak_field_uge_s"] = busy["closed_forms.weak_field_uge"]
    m["field_state.gamma_weights_s"] = busy["field_state.gamma_weights"]
    m["field_state.weighted_pe_s"] = busy["field_state.weighted_pe"]
    for span in by_name["field_state.weighted_pe"]:
        if span.info["u0"] is not None and span.info["levels"]:
            shifts = span.info["u0"].sigma_plus.shifts()
            reach = max((abs(s) for s in shifts), default=0)
            m["field_state.pairs"] += (span.info["levels"] + 2 * reach) * len(shifts)

    m["cli.write_s"] = busy["cli.write"]
    m["cli.self_s"] = busy["cli.run"] + busy["cli.main"]
    return m, problems


def scaling_probes(cli, np, windows) -> dict:
    """eigh and evolve (without eigh) on the fig1 config at several halfwidths."""
    exp = cli.preset_experiments("fig1")[0]
    taus = exp.taugrid()
    out = {}
    for label, w in zip(SCALING_WINDOWS, windows):
        h, basis = cli.build_hamiltonian(exp.config, w)
        start = time.perf_counter()
        np.linalg.eigh(h)
        eigh_s = time.perf_counter() - start
        start = time.perf_counter()
        cli.evolve(h, basis, taus, channels=exp.channels)
        out[f"oracle.eigh_s.w{label}"] = eigh_s
        out[f"oracle.evolve_s.w{label}"] = time.perf_counter() - start - eigh_s
        del h, basis
    return out


def comb_probes(cli, outdir: Path, smoke: bool) -> tuple[dict, Tracer, list[str]]:
    """undress and P_e self times on each uniform comb, one traced ``cli.run`` each.

    Also returns the tracer, and the range and tau=0 failures of the combs' CSVs.
    """
    from workloads import comb_experiments

    tracer = Tracer()
    exps = comb_experiments(COMB_SIZES, smoke)
    with patched(cli, layer_wrappers(tracer, cli)):
        for exp in exps:
            cli.run(exp, outdir)
    problems = [why for exp in exps
                if (why := check_csv(outdir / f"{exp.name}_cascade.csv", "cascade"))]
    keys = {"propagator.undress": "propagator.undress_s", "propagator.pe": "propagator.pe_s"}
    out = {f"{key}.n{n}": 0.0 for key in keys.values() for n in COMB_SIZES}
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name in keys:
            out[f"{keys[span.name]}.n{tracer.experiments[span.exp].config.n_modes}"] += own
    return out, tracer, problems


def baseline_readouts(tracer) -> dict:
    """Single-call times that the ROADMAP baseline quotes, from one traced pass."""
    selfs = tracer.self_times()
    out = defaultdict(list)
    wanted = {("fig1", "cascade.run_cascade"), ("fig1", "propagator.undress"),
              ("fig1", "propagator.pe"), ("fig3b", "propagator.undress"),
              ("comb_n20", "propagator.undress")}
    for span, own in zip(tracer.spans, selfs):
        if span.exp < 0:
            continue
        key = (tracer.experiments[span.exp].name, span.name)
        if key in wanted:
            out[f"{key[0]}:{key[1]}_ms"].append(round(own * 1e3, 3))
    return dict(out)


# -- the two kinds of run ----------------------------------------------------------------


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    import numpy as np

    n = len(samples)
    if n <= 10:
        return 100.0, max(samples)
    q = 100.0 * (n - 10) / n
    return q, float(np.percentile(samples, q))


def timed_run(args, cli, workload, rundir, setup_here):
    setups = [setup_here] + [setup_in_fresh_process(args)
                             for _ in range((2 if args.smoke else SETUP_REPEATS) - 1)]
    probe = Probe(cli)
    passes = Passes(workload, rundir, probe)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with patched(cli, probe.replacements()):
            start = time.perf_counter()
            steps: list[float] = []  # a pass plus its checks
            while len(steps) < MIN_PASSES or (
                time.perf_counter() - start + statistics.median(steps) <= args.seconds
            ):
                begun = time.perf_counter()
                passes.run()
                steps.append(time.perf_counter() - begun)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    devs = workload.deviations(passes.last, rundir / "reference")
    q, tail = percentile_tail(passes.latencies)
    failed = len(passes.failures)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes.walls),
        "exp_p50_ms": statistics.median(passes.latencies) * 1e3,
        "exp_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "cascade_dev_gmean": math.exp(statistics.fmean(math.log(d) for d in devs.values())),
        "ok_ratio": (passes.attempted - failed) / passes.attempted,
    }
    info = {
        "passes": len(passes.walls),
        "experiments_per_pass": len(workload.experiments),
        "setup_repeats": len(setups),
        "latency_samples": len(passes.latencies),
        "tail_percentile": round(q, 2),
        "fail_ratio": failed / passes.attempted,
        "warnings": dict(Counter(type(w.message).__name__ for w in caught)),
        "pass_walls_s": passes.walls,
        "setups_s": setups,
        "deviations": devs,
        "weak_field_max_pe": {p.name: csv_max_pe(p)
                              for p in sorted(passes.last.glob("*_weak_field.csv"))},
    }
    return metrics, END_TO_END, passes, [], info


def traced_run(args, cli, polyrabi, workload, rundir):
    import numpy as np

    probe = Probe(cli)
    passes = Passes(workload, rundir, probe)
    untraced, traced, per_pass, spans, problems = [], [], [], [], []  # per pair
    baseline = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with patched(cli, probe.replacements()):
            start = time.perf_counter()
            budget = args.seconds * TRACE_SHARE
            pair = 0.0  # an untraced pass, a traced one and the analysis
            while not traced or time.perf_counter() - start + pair <= budget:
                begun = time.perf_counter()
                tracer = Tracer()
                wrappers = layer_wrappers(tracer, cli)

                def traced_call(call, tracer=tracer, wrappers=wrappers):
                    invoke = tracer.wrap(call.layer, call.invoke) if call.layer else call.invoke

                    def traced_invoke(outdir):
                        with patched(cli, wrappers):
                            return invoke(outdir)

                    return traced_invoke

                walls = passes.run((None, traced_call))
                untraced.append(walls[0])
                traced.append(walls[1])
                figures, bad = layer_metrics(tracer, polyrabi, np)
                figures["cli.bytes_written"], figures["cli.files_written"] = passes.bytes_and_files()
                figures["layers_sum_s"] = sum(tracer.self_times())
                per_pass.append(figures)
                problems += bad
                baseline = baseline_readouts(tracer)
                names = [e.name for e in tracer.experiments]
                spans.append({"experiments": names, "spans": tracer.dump()})
                del tracer
                pair = time.perf_counter() - begun
        probes = scaling_probes(cli, np, SMOKE_SCALING_WINDOWS if args.smoke else SCALING_WINDOWS)
        combs, comb_tracer, bad = comb_probes(cli, rundir / "combs", args.smoke)
        probes.update(combs)
        problems += bad
        baseline.update(baseline_readouts(comb_tracer))

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(probes)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers_sum = metrics.pop("layers_sum_s")
    info = {
        "pairs": len(traced),
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "layers_sum_s": layers_sum,
        "accounting_gap_s": layers_sum - statistics.median(untraced),
        "baseline_ms": baseline,
    }
    dump = RUNS / f"trace-{workload.name}-seed{args.seed}.json"
    dump.write_text(json.dumps({"manifest": manifest(args), "info": info,
                                "per_pass": per_pass, "passes": spans}) + "\n")
    info["span_dump"] = str(dump.relative_to(ROOT))
    return metrics, PER_LAYER, passes, problems, info


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("presets", "coherent_scan"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids and lattices")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    polyrabi = import_program()
    from polyrabi import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        warm_up(cli, rundir / "warmup")
        setup_here = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        if args.trace:
            metrics, units, passes, problems, info = traced_run(
                args, cli, polyrabi, workload, rundir)
        else:
            metrics, units, passes, problems, info = timed_run(
                args, cli, workload, rundir, setup_here)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = len(passes.failures)
    for key, why in list(passes.failures.items())[:20]:
        print(f"perfbench: FAILED {key}: {why}", file=sys.stderr)
    for why in problems:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    print("manifest " + json.dumps(manifest(args, **{k: v for k, v in info.items()
                                                      if not isinstance(v, (list, dict))})))
    print("details " + json.dumps({k: v for k, v in info.items() if isinstance(v, (list, dict))}))
    print(f"{args.workload} seed={args.seed}: {passes.attempted} experiments attempted, "
          f"{failed} failed (fail_ratio {failed / passes.attempted:g})")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':<32} {failed / passes.attempted:>16.6g} ratio")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
