#!/usr/bin/env python3
"""parastab benchmark: end-to-end timings untraced, per-layer spans traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_default --seed 7 --trace 0
    python3 perfbench/run.py --workload all          # the three workloads in turn

One process per workload, one caller issuing steps back to back (a closed
loop, one client), BLAS/OpenMP pinned to one thread.  The run first times
fresh-interpreter set-up, then repeats the workload's pass until the next
pass would end after --seconds (default: run_seconds of BENCHMARK.json).
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it wraps the layer functions (tracer.py), runs traced passes,
then the same inputs once untraced, and reports the per-layer metrics and
the tracing overhead.  A human-readable report goes to stdout, a JSON
report to .perfbench_out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads: the single-threaded baseline.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 7
SETUP_LAUNCHES = 5
PASS_SEED_STRIDE = 1000
CHILD_TIMEOUT_S = 170

# Fresh interpreter until parastab.cli is imported and the config parsed;
# prints CLOCK_MONOTONIC, which is shared with the parent process.
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import parastab.cli\n"
    "parastab.cli.load_config(sys.argv[2])\n"
    "print(time.monotonic())\n"
)

ALL = ("cli_default", "long_hold", "multimode")

# Layer rows: the spans each row is made of, and the workloads on which the
# row must record at least one span (tracer self-test).
LAYER_ROWS = {
    "stepping": (tr.RUN_FUNCTIONS, ("cli_default", "long_hold")),
    "sobolev norm": ({"spectral.sobolev_norm"}, ("cli_default", "long_hold")),
    "spectrum": ({"spectral.compute_spectrum", "spectral.laplacian_spectrum"}, ALL),
    "lifts": ({"lifting.dirichlet_lift", "simulate.decompose_z"}, ("cli_default", "long_hold")),
    "gain algebra": ({"exact.gain_system", "synthesis.exact_system", "synthesis.build_gains",
                      "synthesis.continuous_limit", "synthesis.apply_feedback"}, ALL),
    "analysis": ({"analysis.run_verification", "analysis.fit_decay_rate",
                  *tr.CHECK_FUNCTIONS, *tr.SWEEP_FUNCTIONS}, ALL),
    "config": ({"cli.load_config", "model.validate_spec"}, ALL),
    "serializers": ({"spectral.spectrum_to_csv", "spectral.modes_to_csv",
                     "synthesis.gain_matrices_to_csv", "synthesis.gains_to_json",
                     "simulate.trajectory_to_csv", "analysis.lognorm_svg"}, ("cli_default",)),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="parastab benchmark")
    p.add_argument("--workload", required=True, choices=ALL + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json); "
                        "passes stop before overrunning it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the reference for its seed")
    return p.parse_args(argv)


# -- statistics --------------------------------------------------------------

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def timing_row(values: list[float]) -> dict:
    hp = high_percentile(values)
    return {
        "median": statistics.median(values),
        "high_percentile": None if hp is None else {"p": hp[0], "value": hp[1]},
        "n": len(values),
    }


# -- environment -------------------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


# -- set-up ------------------------------------------------------------------


def measure_setup(config: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# -- passes ------------------------------------------------------------------


def pass_seed(seed: int, k: int) -> int:
    """Inputs of pass k.  Pass 0 uses the workload seed itself; later passes
    use derived seeds, so a run's median averages over several inputs
    instead of repeating one whose amount of work (blow-up times, bisection
    path) depends on the seed."""
    return seed + PASS_SEED_STRIDE * k


def run_pass(steps, tracer=None) -> dict:
    samples: list[tuple[str, float]] = []
    digests: dict[str, str] = {}
    failures: list[str] = []
    checks_failed: list[str] = []
    checks_run = 0
    info: dict = {}
    for step in steps:
        workloads.prepare(step)
        t0 = time.perf_counter()
        try:
            result = tracer.step(step.name, step.call) if tracer else step.call()
        except Exception as exc:  # a raising command is a failed command, not a crash
            failures.append(f"{step.name}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            samples.append((step.metric, time.perf_counter() - t0))
        try:
            outcome = step.check(result)
        except Exception as exc:  # broken output contract
            failures.append(f"{step.name}: {type(exc).__name__}: {exc}")
            continue
        digests.update(outcome.digests)
        checks_run += outcome.checks_run
        checks_failed += [f"{step.name}:{name}" for name in outcome.checks_failed]
        info[step.name] = outcome.info
    return {
        "pass_s": sum(t for _, t in samples),
        "samples": samples,
        "digests": digests,
        "failures": failures,
        "checks_run": checks_run,
        "checks_failed": checks_failed,
        "info": info,
    }


def run_one(args, work: Path, k: int, tracer=None) -> dict:
    """Build pass k's inputs (untimed), run it, and drop its files."""
    pass_dir = work / f"pass{k}"
    try:
        steps, _ = workloads.BUILDERS[args.workload](pass_dir, pass_seed(args.seed, k))
        result = run_pass(steps, tracer)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result["seed"] = pass_seed(args.seed, k)
    return result


def run_passes(args, work: Path, tracer=None, on_pass=None) -> list[dict]:
    """Passes until the next one would end after --seconds.  Untraced passes
    vary their inputs (pass_seed); traced passes all repeat pass 0, so that
    counts repeat exactly and the untraced baseline has the same inputs."""
    started = time.perf_counter()
    passes = []
    while True:
        k = 0 if tracer is not None else len(passes)
        passes.append(run_one(args, work, k, tracer))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["pass_s"] for p in passes)
        if elapsed + typical > args.seconds:
            return passes


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer, summary: dict, output_bytes: int) -> dict:
    calls, self_s, counts = summary["calls"], summary["self"], tracer.counts

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    run_self = s(*tr.RUN_FUNCTIONS)
    steps = counts.get("simulate.steps", 0)
    step_total = sum(r[1] for r in summary["roots"])
    uncovered = sum(r[2] for r in summary["roots"])
    return {
        "simulate.steps": steps,
        "simulate.run.self_s": run_self,
        "simulate.step_us": run_self / steps * 1e6 if steps else 0.0,
        "simulate.snapshots": counts.get("simulate.snapshots", 0),
        "simulate.blowups": counts.get("simulate.blowups", 0),
        "spectral.sobolev_norm.calls": c("spectral.sobolev_norm"),
        "spectral.sobolev_norm.self_s": s("spectral.sobolev_norm"),
        "spectral.compute_spectrum.calls": c("spectral.compute_spectrum"),
        "spectral.compute_spectrum.self_s": s("spectral.compute_spectrum"),
        "spectral.laplacian_spectrum.calls": c("spectral.laplacian_spectrum"),
        "spectral.laplacian_spectrum.self_s": s("spectral.laplacian_spectrum"),
        "spectral.eigendecompose.self_s": s("spectral.eigendecompose"),
        "spectral.eig_rows": counts.get("spectral.eig_rows", 0),
        "lifting.dirichlet_lift.calls": c("lifting.dirichlet_lift"),
        "lifting.dirichlet_lift.self_s": s("lifting.dirichlet_lift"),
        "simulate.decompose_z.calls": c("simulate.decompose_z"),
        "simulate.decompose_z.self_s": s("simulate.decompose_z"),
        "exact.gain_system.calls": c("exact.gain_system"),
        "exact.gain_system.self_s": s("exact.gain_system"),
        "exact.dps_max": counts.get("exact.dps_max", 0),
        "synthesis.exact_system.calls": c("synthesis.exact_system"),
        "synthesis.build_gains.calls": c("synthesis.build_gains"),
        "synthesis.build_gains.self_s": s("synthesis.build_gains"),
        "synthesis.continuous_limit.calls": c("synthesis.continuous_limit"),
        "synthesis.continuous_limit.self_s": s("synthesis.continuous_limit"),
        "synthesis.apply_feedback.calls": c("synthesis.apply_feedback"),
        "analysis.run_verification.self_s": s("analysis.run_verification"),
        "analysis.checks.self_s": s(*tr.CHECK_FUNCTIONS),
        "analysis.sweep.self_s": s(*tr.SWEEP_FUNCTIONS),
        "analysis.fit_decay_rate.calls": c("analysis.fit_decay_rate"),
        "cli.load_config.self_s": s("cli.load_config"),
        "model.validate_spec.calls": c("model.validate_spec"),
        "model.validate_spec.self_s": s("model.validate_spec"),
        "cli.format.self_s": s(*(n for n in self_s if tr.is_serializer(n))),
        "cli.output_bytes": output_bytes,
        "trace.spans": len(tracer.spans),
        "trace.uncovered_share": uncovered / step_total if step_total > 0 else 0.0,
    }


# -- one workload ----------------------------------------------------------------


def load_reference_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def digest_drift(reference: dict | None, digests: dict) -> list[str] | None:
    if reference is None:
        return None
    names = sorted(set(reference) | set(digests))
    return [n for n in names if reference.get(n) != digests.get(n)]


def record_digests(workload: str, seed: int, digests: dict) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_workload(args, spec: dict) -> int:
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            report = traced(args, work, spec)
        else:
            _, setup_config = workloads.BUILDERS[args.workload](work / "setup", args.seed)
            setup = measure_setup(setup_config)
            report = untraced(args, work, spec)
            report["setup_samples_s"] = setup
            report["timings"]["setup_s"] = timing_row(setup)
            report["metrics"]["setup_s"]["value"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["environment"] = environment()
    if args.record_digests:
        record_digests(args.workload, args.seed, report["digests"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    print_report(args, report, path)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def _common(args, passes: list[dict]) -> dict:
    """Failures over all passes; checks, digests and info of pass 0, whose
    inputs come from the workload seed itself."""
    attempted = sum(len(p["samples"]) for p in passes)
    failures = [f"seed {p['seed']}: {f}" for p in passes for f in p["failures"]]
    first = passes[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "pass_seeds": [p["seed"] for p in passes],
        "seconds": args.seconds,
        "load": "closed loop, one client, in-process, steps back to back",
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "checks_run": first["checks_run"],
        "checks_failed": len(first["checks_failed"]),
        "failed_checks": first["checks_failed"],
        "digests": first["digests"],
        "digest_drift": digest_drift(load_reference_digests(args.workload, args.seed),
                                     first["digests"]),
        "info": first["info"],
        "problems": [],
    }


def _with_units(values: dict, declared: list[dict]) -> dict:
    """Metrics in the order and with the units BENCHMARK.json declares."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def untraced(args, work: Path, spec: dict) -> dict:
    passes = run_passes(args, work)
    report = _common(args, passes)
    per_command: dict[str, list[float]] = {}
    for p in passes:
        for metric, t in p["samples"]:
            per_command.setdefault(metric, []).append(t)
    report["pass_samples_s"] = [p["pass_s"] for p in passes]
    timings = {"pass_s": timing_row(report["pass_samples_s"])}
    timings.update({k: timing_row(v) for k, v in per_command.items()})
    report["timings"] = timings
    report["metrics"] = _with_units({
        "pass_s": timings["pass_s"]["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": None,  # filled in by the caller
    }, spec["end_to_end"])
    report["correct"] = not report["failures"]
    return report


def traced(args, work: Path, spec: dict) -> dict:
    """Traced passes first (the first one also warms caches), then the same
    inputs once more untraced with the wrappers removed: the baseline for
    the tracing overhead and for the digest self-test."""
    tracer = tr.Tracer()
    wrapped = tracer.install()
    bindings = tracer.binding_count()
    per_pass: list[dict] = []
    seen_calls: dict[str, int] = {}
    last_tree: dict = {}

    def on_pass(p: dict) -> None:
        nonlocal last_tree
        summary = tr.summarize(tracer.spans)
        out_bytes = sum(i.get("output_bytes", 0) for i in p["info"].values())
        metrics = layer_metrics(tracer, summary, out_bytes)
        metrics["uncovered_by_step"] = {name: (unc / dur if dur > 0 else 0.0)
                                        for name, dur, unc in summary["roots"]}
        per_pass.append(metrics)
        for name, n in summary["calls"].items():
            seen_calls[name] = seen_calls.get(name, 0) + n
        last_tree = tr.call_tree(tracer.spans)
        tracer.clear()

    try:
        passes = run_passes(args, work, tracer, on_pass)
    finally:
        tracer.uninstall()
    leftovers = tr.leftover_wrappers()
    baseline = run_one(args, work, 0)
    report = _common(args, passes + [baseline])

    problems = report["problems"]
    if any(p["digests"] != baseline["digests"] for p in passes):
        problems.append("traced pass digests differ from the untraced pass on the same inputs")
    if leftovers:
        problems.append(f"tracer wrappers left installed: {leftovers}")
    missing_rows = [row for row, (names, on) in LAYER_ROWS.items()
                    if args.workload in on and not any(seen_calls.get(n, 0) for n in names)]
    if missing_rows:
        problems.append(f"layer rows without spans: {missing_rows}")
    unwrapped = sorted(set().union(*(names for names, _ in LAYER_ROWS.values())) - set(wrapped))
    if unwrapped:
        problems.append(f"layer functions not found: {unwrapped}")

    # every traced pass has the same inputs: counts repeat exactly, times
    # are medians over the passes
    values = {}
    for name, first in per_pass[0].items():
        if name != "uncovered_by_step":
            values[name] = first if isinstance(first, int) else statistics.median(
                m[name] for m in per_pass)
    traced_pass = statistics.median(p["pass_s"] for p in passes)
    values["trace.overhead"] = traced_pass / baseline["pass_s"] - 1.0
    report.update(
        correct=not (problems or report["failures"]),
        metrics=_with_units(values, spec["per_layer"]),
        uncovered_by_step=per_pass[0]["uncovered_by_step"],
        untraced_pass_s=baseline["pass_s"],
        traced_pass_s=traced_pass,
        traced_passes=len(passes),
        wrapped_functions=len(wrapped),
        wrapped_bindings=bindings,
        call_tree_last_pass=last_tree,
    )
    return report


# -- printing --------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_report(args, report: dict, path: Path) -> None:
    env = report["environment"]
    passes = (f"traced passes {report['traced_passes']} + 1 untraced" if args.trace
              else f"passes {report['passes']}")
    print(f"== workload {report['workload']}  seed {report['seed']} "
          f"(default {report['default_seed']})  seconds {report['seconds']:g}  "
          f"{passes}  trace {args.trace}")
    print(f"   load: {report['load']}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"mpmath {env['mpmath']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"blas {env['blas']}, threads pinned to 1")
    if args.trace:
        print(f"   {'per-layer metric':38s} {'unit':6s} median per traced pass")
        for name, m in report["metrics"].items():
            print(f"   {name:38s} {m['unit']:6s} {_fmt(m['value'])}")
        print(f"   tracing overhead: untraced pass {report['untraced_pass_s']:.4g} s, "
              f"traced {report['traced_pass_s']:.4g} s")
        for name, share in report["uncovered_by_step"].items():
            print(f"   not covered by any layer span in {name}: {share:.2%}")
        print(f"   wrapped {report['wrapped_functions']} functions at "
              f"{report['wrapped_bindings']} bindings; wrappers removed after the run")
    else:
        print(f"   {'end-to-end metric':26s} {'unit':6s} {'median':>12s} {'high pct':>22s} {'n':>4s}")
        for name, row in report["timings"].items():
            hp = row["high_percentile"]
            hp_text = "-" if hp is None else f"p{hp['p']:g} {hp['value']:.6g}"
            print(f"   {name:26s} {'s':6s} {row['median']:12.6g} {hp_text:>22s} {row['n']:4d}")
        rss = report["metrics"]["peak_rss_mb"]["value"]
        print(f"   {'peak_rss_mb':26s} {'MB':6s} {rss:12.6g}")
    print(f"   {'error_rate':26s} {'ratio':6s} {report['error_rate']:12.6g}   "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    print(f"   {'checks_failed':26s} {'count':6s} {report['checks_failed']:12d}   "
          f"(of {report['checks_run']} per pass) {', '.join(report['failed_checks'])}")
    for step, info in report["info"].items():
        for key in ("fitted_rate", "realized_rate", "designed_rate", "half_identity"):
            if key in info:
                print(f"   {step}.{key} = {info[key]:.6g}")
    drift = report["digest_drift"]
    if drift is None:
        print(f"   digests: no reference for seed {report['seed']} ({len(report['digests'])} outputs)")
    elif drift:
        print(f"   digests: {len(drift)} outputs drifted from the reference: {', '.join(drift)}")
    else:
        print(f"   digests: all {len(report['digests'])} outputs match the reference")
    for line in report["failures"] + report["problems"]:
        print(f"   PROBLEM {line}")
    print(f"   correct: {report['correct']}   report: {path.relative_to(ROOT)}")


# -- all workloads ---------------------------------------------------------------


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ALL:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record_digests:
            cmd.append("--record-digests")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parastab" / "__init__.py").is_file():
        print(f"error: no parastab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(BENCHMARK.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
