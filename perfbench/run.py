"""timeobs benchmark: run one workload for a fixed time, check it, report metrics.

Run from the root of a timeobs checkout:

    python3 perfbench/run.py --workload sublevel-box32 --seed 7 --seconds 30 --trace 0

``--trace 0`` times untraced executions and reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced executions and reports the
per-layer metrics, writing every span to ``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads, metrics and bounds are listed in
``BENCHMARK.json``; ``perfbench/README.md`` maps layers to metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("claims-harmonic64", "sublevel-box32", "tg-dense1024")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_SAMPLES = 11
MIN_EXECUTIONS = 3  # untraced; a traced run needs two traced and one untraced
MEASURE_CAP_S = 120.0  # keeps one run inside its time limit whatever --seconds says

TOTAL_TIMES = (
    "zeroset.paley_wiener_integral",
    "zeroset.sublevel_measure",
    "zeroset.find_zeros",
    "zeroset.eval_f",
    "operators.spectral_norm",
    "operators.commutator",
    "operators.covariance_deviation",
    "operators.membership_decay",
    "canonical.verify_covariance",
    "serialize.dump_matrix",
    "serialize.write_json",
    "rng.random_state",
)
SELF_TIMES = ("zeroset.paley_wiener_integral", "claims.run_claims", "cli.main")


@dataclass
class Execution:
    index: int  # 1-based; the tracer's run id (0 is set-up)
    traced: bool
    seconds: float
    evidence: object = None
    ok: bool = False


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _finished(execs: list, started: float, seconds: float, tracing: bool) -> bool:
    untraced = sum(not e.traced for e in execs)
    enough = untraced >= 1 and len(execs) - untraced >= 2 if tracing else untraced >= MIN_EXECUTIONS
    projected = time.perf_counter() - started + _median([e.seconds for e in execs])
    return (enough and projected > seconds) or projected > MEASURE_CAP_S


def _measure(workload, seconds: float, tracer) -> list:
    """Timed executions; with a tracer, every other one (starting with the first) is traced."""
    execs: list[Execution] = []
    started = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while not execs or not _finished(execs, started, seconds, tracer is not None):
            ex = Execution(len(execs) + 1, tracer is not None and len(execs) % 2 == 0, 0.0)
            execs.append(ex)
            installed = tracer.installed(ex.index) if ex.traced else contextlib.nullcontext()
            try:
                with installed:
                    t0 = time.perf_counter()
                    try:
                        output = workload.execute()
                    finally:
                        ex.seconds = time.perf_counter() - t0
                ex.evidence = workload.record(output)
                ex.ok = True
            except Exception:
                traceback.print_exc()
            kind = "traced" if ex.traced else "untraced"
            print(f"execution {ex.index}: {ex.seconds:.4f} s {kind}", file=sys.stderr)
    return execs


def _verify(workload, execs: list) -> None:
    checked = [e for e in execs if e.ok]
    try:
        verdicts = workload.verify([e.evidence for e in checked])
    except Exception:
        traceback.print_exc()
        verdicts = [["oracle raised"]] * len(checked)
    for ex, problems in zip(checked, verdicts):
        for problem in problems:
            print(f"{workload.name} execution {ex.index}: {problem}", file=sys.stderr)
        ex.ok = not problems


def _setup_sample(args) -> float:
    """Set-up time of a fresh process: import, inputs, warm-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _end_to_end(args, execs: list, setup_s: float, peak_rss_mb: float) -> dict:
    setups = [setup_s] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    print("set-up samples: " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    ok = [e.seconds for e in execs if e.ok] or [e.seconds for e in execs]
    failed = sum(not e.ok for e in execs)
    return {
        "run_s": (_median(ok), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "success_rate": (1.0 - failed / len(execs), "fraction"),
    }


def _per_layer(tracer, execs: list) -> dict:
    traced = [e for e in execs if e.traced]
    summaries = [tracer.summary(e.index) for e in traced]
    run_s = _median([e.seconds for e in traced])
    untraced_s = _median([e.seconds for e in execs if not e.traced])
    metrics = {
        "traced_run_s": (run_s, "s"),
        "untraced_run_s": (untraced_s, "s"),
        "trace_overhead_s": (run_s - untraced_s, "s"),
    }

    def timed(name: str, values: list) -> None:
        value = _median(values)
        metrics[name] = (value, "s")
        metrics[name + "_share"] = (value / run_s, "fraction")

    for fn in TOTAL_TIMES:
        timed(fn + ".s", [s["total"].get(fn, 0.0) for s in summaries])
    for fn in SELF_TIMES:
        timed(fn + ".self_s", [s["self"].get(fn, 0.0) for s in summaries])
    for layer in summaries[0]["layer_self"]:
        timed(f"layer.{layer}.self_s", [s["layer_self"][layer] for s in summaries])

    counters = summaries[0]["counters"]
    calls = counters["zeroset.eval_f.calls"]
    metrics.update(
        {
            "zeroset.eval_f.calls": (calls, "count"),
            "zeroset.eval_f.scalar_calls": (counters["zeroset.eval_f.scalar_calls"], "count"),
            "zeroset.eval_f.points": (counters["zeroset.eval_f.points"], "count"),
            "zeroset.eval_f.points_per_call": (
                counters["zeroset.eval_f.points"] / calls if calls else 0.0,
                "points/call",
            ),
            "zeroset.eval_f.scalar_call_share": (
                counters["zeroset.eval_f.scalar_calls"] / calls if calls else 0.0,
                "fraction",
            ),
            "zeroset.eval_f.max_block_mb": (
                counters["zeroset.eval_f.max_block_bytes"] / 2**20,
                "MiB-computed",
            ),
            "serialize.bytes_written": (counters["serialize.bytes_written"], "bytes"),
            "setup.rng.random_state.s": (tracer.summary(0)["total"].get("rng.random_state", 0.0), "s"),
        }
    )
    # Counters are deterministic: an execution whose counters differ is a failure.
    for ex, summary in zip(traced, summaries):
        if summary["counters"] != counters:
            print(f"execution {ex.index}: counters {summary['counters']} != {counters}", file=sys.stderr)
            ex.ok = False
    return metrics


def _declared_metrics(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _environment(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, nproc {NPROC}, BLAS threads {BLAS_THREADS}"
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "timeobs" / "__init__.py").is_file():
        print(f"error: no timeobs sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import timeobs
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(timeobs.__file__).resolve().parent != SRC / "timeobs":
        print(f"error: imported timeobs from {timeobs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        with tracer.installed(0) if tracer else contextlib.nullcontext():
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"{args.workload} seed {args.seed}: {_environment(np)}", file=sys.stderr)

        execs = _measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _verify(workload, execs)
        if tracer:
            metrics = _per_layer(tracer, execs)
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(tracer.records(), fh)
        else:
            metrics = _end_to_end(args, execs, setup_s, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    declared = _declared_metrics(args.trace)
    if sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2
    failed = sum(not e.ok for e in execs)
    result = {
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
