"""qsd benchmark: one closed-loop client per workload, end to end or traced per layer.

    python3 bench/run.py --workload three-state --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run solves whole rounds of requests until --seconds of wall time have
passed. With --trace 0 it measures the end-to-end metrics with tracing off;
their times are normalized for the machine's speed at the moment of each
request (reference.py; README, "Machine noise"). With --trace 1 it solves
each round untraced, then the same round again with every traced function
wrapped (spans.py), and reports the per-layer metrics per traced op, the
tracing overhead, and whether the two passes agreed op for op. Every answer
passes the independent 2x2 check (certcheck.py) outside the timed region.
The last line of stdout is one JSON object; the exit code is 1 when any op
failed and 2 when the run could not start (for example when src/qsd is
missing). `--workload all` runs each workload in its own child process.
"""

import os

# One BLAS thread, set before numpy loads: the client is a single thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 11
IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def load_qsd():
    """Import the workload code against this checkout's src/qsd, nothing else."""
    sys.path.insert(0, str(SRC))
    import workloads

    origin = Path(workloads.qsd.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise ImportError(f"qsd was imported from {origin}, not from {SRC}")
    return workloads


def time_import(modules: str, env: dict) -> float:
    """Seconds to import `modules` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER.format(modules)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median normalized import time of qsd and qsd.cli over fresh interpreters.

    Each import of qsd is followed by the reference import in another fresh
    interpreter, and normalized by it (reference.py). One extra pair runs
    first and is discarded, so that bytecode caches, where the environment
    lets Python write them, exist before timing starts.
    """
    from reference import REFERENCE_IMPORT, REFERENCE_IMPORT_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    ratios = []
    for i in range(runs + 1):
        program = time_import("qsd, qsd.cli", env)
        reference = time_import(REFERENCE_IMPORT, env)
        if i:
            ratios.append(program / reference)
    return REFERENCE_IMPORT_S * statistics.median(ratios)


def latency_stats(seconds) -> dict:
    ms = [1e3 * x for x in seconds]
    return {
        "solves_per_s": (len(ms) / (1e-3 * sum(ms)), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
    }


def run_untraced(wl, runner, seconds: float):
    tally = wl.Tally()
    wl.measure(runner, seconds, tally)
    # Read before the statistics below copy the latencies into lists.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = latency_stats(tally.normalized())
    metrics["setup_s"] = (measure_setup(), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return tally, metrics


def run_traced(wl, runner, seconds: float):
    """Each round is solved untraced, then again traced; both passes are checked.

    Tracing overhead is the median over rounds of traced time over untraced
    time, minus one, so that drift in machine speed between rounds cancels.
    """
    import spans

    base, traced = wl.Tally(keep_answers=True), wl.Tally(keep_answers=True)
    tracer = spans.Tracer()
    labels = []

    def traced_pass(prepared):
        labels.extend(item.label for item, _ in prepared)
        traced.round_starts.append(len(traced))
        tracer.install()
        try:
            wl.run_ops(runner, prepared, traced, tracer)
        finally:
            tracer.uninstall()

    wl.measure(runner, seconds, base, after_round=traced_pass)
    methods = Counter(a[0] for a in traced.answers if a)
    metrics = tracer.per_op_metrics({tag: methods[tag] for tag in wl.METHOD_TAGS})
    ratios = [sum(t) / sum(b) for b, t in zip(base.rounds(), traced.rounds())]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")

    # A request counts once; it failed if either pass got it wrong or they disagree.
    failed = {i: (label, problems) for i, label, problems in base.failures + traced.failures}
    for i, (a, b) in enumerate(zip(base.answers, traced.answers)):
        if a and b and a != b:
            failed[i] = (labels[i], [f"traced pass gave {b!r}, untraced {a!r}"])
    base.failures = [(i, label, problems) for i, (label, problems) in sorted(failed.items())]
    return base, metrics


def run_one(args) -> int:
    try:
        wl = load_qsd()
    except ImportError as exc:
        print(f"bench: cannot import qsd from {SRC}: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        runner = wl.Runner(args.workload, args.seed, workdir)
        warm = wl.Tally()
        wl.run_ops(runner, runner.prepare(wl.corpus.warmup_items(args.workload, args.seed)), warm)
        tally, metrics = (run_traced if args.trace else run_untraced)(wl, runner, args.seconds)
    attempted = len(warm) + len(tally)
    failures = warm.failures + tally.failures

    mode = "traced, per op" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} ({mode}):"
          f" {len(tally)} timed ops in {len(tally.round_starts)} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload:<15} {name:<52} {value:.6g} {unit}")
    if not args.trace:
        # Raw wall-clock figures, for reading the normalized ones above.
        for name, (value, unit) in latency_stats(tally.seconds).items():
            print(f"  {args.workload:<15} {'wall.' + name:<52} {value:.6g} {unit}")
        ref_ms = 1e3 * statistics.median(tally.reference)
        print(f"  {args.workload:<15} {'wall.reference_ms':<52} {ref_ms:.6g} ms"
              f" (normalized at {1e3 * wl.REFERENCE_S:g} ms)")
    print(f"  {args.workload:<15} {'fail_frac':<52} {len(failures) / attempted:.6g}"
          f" ({len(failures)} of {attempted} ops)")
    for _, label, problems in failures[:10]:
        print(f"bench: {args.workload} {label}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    worst = 0
    for workload in ("three-state", "general", "structured-cli"):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        worst = max(worst, done.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qsd benchmark")
    parser.add_argument(
        "--workload", required=True,
        choices=("three-state", "general", "structured-cli", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
