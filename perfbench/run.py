"""Benchmark of the dvae package: training, evaluation and verification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dvae checkout; the package is imported from its
src/ directory. Workloads: train-mnist784, eval-mnist784, verify-oracle
(see workloads.py and README.md). Each run generates its inputs from --seed,
repeats one kind of call into dvae in a closed loop with one caller for at
least --seconds seconds of calls, checks every output against a frozen
reference, and prints the environment, each metric by name with its unit,
and as the last line a JSON object {"correct", "attempted", "failed",
"metrics"}. End-to-end times are scaled to a reference machine speed
(speed.py). --trace 0 gives the end-to-end metrics; --trace 1 makes one
untraced and one traced pass at a time, for at least --seconds, and gives
the per-layer metrics per pass. The exit code
is 1 when a correctness check fails and 2 on a usage error.
"""

import os

# One BLAS thread (nproc is 2 on the reference machine): the closed loop has
# one caller, and per-example matrix-vector products ran slower with two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads are fixed before numpy loads)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["train-mnist784", "eval-mnist784", "verify-oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test's small shapes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": nproc, "cpu": cpu}


def probe_setup(w) -> tuple[float, float]:
    """One set-up in a fresh interpreter (probe.py): its seconds and the
    speed kernel's median seconds right after it."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), w.kind, str(w.work),
         json.dumps(w.config)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["kernel_s"]


def run_untraced(w, seconds: float, checks) -> tuple[dict, list]:
    """End-to-end metrics: set-up, per-call latency and peak memory. Times
    are scaled to the reference speed (speed.py); the report lines also give
    them as measured."""
    w.prepare()
    setups = [probe_setup(w) for _ in range(SETUP_REPEATS)]
    w.load(checks)
    call_s, outputs = [], []
    with speed.SpeedProbe() as probe:
        while len(call_s) < w.min_calls or sum(call_s) < seconds:
            start = time.perf_counter()
            outputs.append(w.call(len(call_s)))
            end = time.perf_counter()
            call_s.append(end - start - probe.time_in(start, end))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    w.check(outputs, checks)
    scale = probe.scale()
    setup_s = statistics.median(s * speed.REF_KERNEL_S / k for s, k in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_ms.p50": (statistics.median(call_s) * 1e3 * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups in fresh interpreters, "
         f"at reference speed; as measured {statistics.median(s for s, _ in setups):.4g} s"),
        ("call_ms.p50", metrics["call_ms.p50"][0], "ms",
         f"median of {len(call_s)} calls at reference speed; as measured "
         f"{statistics.median(call_s) * 1e3:.6g} ms"),
        ("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of this process"),
        ("speed.scale", scale, "x", f"reference / this run's speed, {len(probe.samples)} "
         "kernel samples; the lines below are as measured"),
    ]
    return metrics, lines + w.report(call_s)


def run_traced(w, seconds: float, checks, spans_path: Path) -> tuple[dict, list]:
    """Per-layer metrics, per pass: rounds of one untraced pass (in-process
    set-up plus pass_calls calls) and the same pass traced, until the rounds
    have taken `seconds` (at least one round)."""
    from tracing import Tracer, layer_metrics, span_cost

    w.prepare()

    def one_pass() -> tuple[float, list]:
        start = time.perf_counter()
        w.load(checks)
        outputs = [w.call(i) for i in range(w.pass_calls)]
        return time.perf_counter() - start, outputs

    tracer = Tracer()
    untraced_s, traced_s, outputs = [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        elapsed, out = one_pass()
        untraced_s.append(elapsed)
        tracer.install()
        try:
            elapsed, traced_out = one_pass()
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        outputs += out + traced_out
    w.check(outputs, checks)
    tracer.write(spans_path)
    for target in tracer.missing:
        print(f"trace: {target} not found, not traced", file=sys.stderr)
    passes = len(traced_s)
    metrics = layer_metrics(tracer, passes)
    traced_mean, untraced_mean = statistics.fmean(traced_s), statistics.fmean(untraced_s)
    metrics["trace.wall_s"] = (traced_mean, "s")
    metrics["trace.untraced_wall_s"] = (untraced_mean, "s")
    metrics["trace.overhead_s"] = (traced_mean - untraced_mean, "s")
    metrics["trace.overhead_est_s"] = (tracer.span_count / passes * span_cost(), "s")
    metrics["trace.self_total_s"] = (tracer.self_total() / passes, "s")
    lines = [(name, value, unit, "") for name, (value, unit) in sorted(metrics.items())]
    lines.append(("trace.passes", passes, "count", "per-layer values are means per traced pass"))
    lines.append(("trace.spans_file", len(tracer.spans), "count", str(spans_path)))
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dvae" / "__init__.py").is_file():
        print(f"perfbench: no dvae package under {ROOT / 'src'}; run from a dvae checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dvae
    if ROOT / "src" not in Path(dvae.__file__).resolve().parents:
        print(f"perfbench: imported dvae from {dvae.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, Checks

    cls = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    w = cls(args.seed, SIZES[args.scale][cls.kind], work)
    checks = Checks()
    try:
        if args.trace:
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, lines = run_traced(w, args.seconds, checks, spans)
        else:
            metrics, lines = run_untraced(w, args.seconds, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checks.failed)
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed}: {w.describe()}")
    for name, value, unit, note in lines:
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_frac {failed / checks.attempted:.6g}  "
          f"({failed} of {checks.attempted} correctness checks failed)")
    for name in sorted(set(checks.failed)):
        print(f"FAILED CHECK: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": checks.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
