"""bdecay benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload absorbing --seed 1 --seconds 25 --trace 0

Run from any directory; the package is imported from `src/` next to this
directory and nowhere else.  Each run

1. imports bdecay, then measures set-up (import in a fresh interpreter plus
   input generation) in SETUP_PROBES child processes, one after the other;
2. runs one untimed warm-up round and then timed rounds of the same
   operations until `--seconds` of timed rounds and at least the workload's
   fixed round count are done, checking every round's outputs untimed;
3. prints, as its last stdout line, {"correct", "attempted", "failed",
   "metrics"}: end-to-end metrics with --trace 0, per-layer metrics (from
   wrappers around bdecay's functions) with --trace 1.

Diagnostics go to stderr.  The exit code is 2 when `src/bdecay` is missing.
"""

import os

# One thread for every numeric pool; set before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("absorbing", "sweep", "referee")
SETUP_PROBES = 5
MIN_ROUNDS = 3
# Seconds of one round of bdecay 0.1.0 at the slow end of what a shared
# 2-core x86-64 box gives.  With --seconds they fix how many rounds
# wall_s sums, so wall_s is a fixed amount of work in every run.
NOMINAL_ROUND_S = {"absorbing": 3.7, "sweep": 2.7, "referee": 2.7}

END_TO_END = {"setup_s": "s", "round_p50_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.bdecay_s": "s",
    "trace.round_p50_s": "s",
    "decay.decay_report_s": "s",
    "decay.exact_zeta_s": "s",
    "decay.exact_zeta.calls": "count",
    "decay.exact_zeta.states": "count",
    "decay.exact_zeta.bits_mean": "bits",
    "charpoly.char_coeffs_s": "s",
    "decay.newton_bound_s": "s",
    "chain.ladder_s": "s",
    "cli.main.self_s": "s",
    "sis.lifetime_direct_s": "s",
    "sis.lifetime_direct.states": "count",
    "sis.mean_absorption_time_s": "s",
    "sis.lifetime_expint_s": "s",
    "oracle.gillespie_simulate_s": "s",
    "oracle.gillespie.runs_per_s": "1/s",
    "oracle.dense_spectrum_s": "s",
    "oracle.hitting_time_solve_s": "s",
    "validate.run_suite_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_bdecay():
    """Import bdecay from src/ of this checkout; returns the import seconds."""
    if not os.path.isfile(os.path.join(SRC, "bdecay", "__init__.py")):
        fail(f"no bdecay package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import bdecay

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(bdecay.__file__))) != SRC:
        fail(f"bdecay was imported from {bdecay.__file__}, not {SRC}")
    return elapsed


def setup_probe(args):
    """Child side of set-up timing: import, then generate the inputs."""
    preloaded = [m for m in ("numpy", "scipy", "mpmath") if m in sys.modules]
    if preloaded:
        fail(f"{preloaded} imported before bdecay")
    start = time.perf_counter()
    import_s = import_bdecay()
    import workloads

    workloads.WORKLOADS[args.workload][0](args.seed)
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - start}))


def measure_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    # probes read the bytecode caches, as an installed package would
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(p["setup_s"] for p in probes),
        statistics.median(p["import_s"] for p in probes),
    )


def run(args):
    sys.dont_write_bytecode = False
    import_bdecay()  # also writes the bytecode caches the probes then use
    import tracing
    import workloads

    setup_s, import_s = measure_setup(args)
    make_inputs, run_round, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    fixed_rounds = max(MIN_ROUNDS, int(args.seconds / NOMINAL_ROUND_S[args.workload]))

    state = {}
    attempted = 0
    failures = []
    problems = []
    times = []
    layer_rounds = []
    with tempfile.TemporaryDirectory(prefix=".out-", dir=HERE) as out_dir:
        warm = run_round(inputs, out_dir)
        check(inputs, warm, state)
        while sum(times) < args.seconds or len(times) < fixed_rounds:
            if tracer:
                tracer.take()
            start = time.perf_counter()
            out = run_round(inputs, out_dir)
            times.append(time.perf_counter() - start)
            if tracer:
                layer_rounds.append(tracing.round_totals(tracer.take()))
            n, fails, probs = check(inputs, out, state)
            attempted += n
            failures += fails
            problems += probs
    if tracer:
        tracer.uninstall()

    for line in sorted(set(failures)) + sorted(set(problems)):
        print(line, file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(layer_rounds, import_s, statistics.median(times))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "round_p50_s": statistics.median(times),
            "wall_s": sum(times[:fixed_rounds]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(f"{args.workload}: {len(times)} timed rounds, seed {args.seed}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


# per-layer figures that are a ratio of two per-round totals
RATIOS = {
    "decay.exact_zeta.bits_mean": ("decay.exact_zeta.bits", "decay.exact_zeta.calls"),
    "oracle.gillespie.runs_per_s": ("oracle.gillespie_simulate.runs", "oracle.gillespie_simulate_s"),
}


def layer_metrics(layer_rounds, import_s, round_p50_s):
    """Median over rounds of each per-layer figure; 0 for layers not called."""
    metrics = {"import.bdecay_s": import_s, "trace.round_p50_s": round_p50_s}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            values = [r[num] / r[den] if r.get(den) else 0 for r in layer_rounds]
        elif name not in metrics:
            values = [r.get(name, 0) for r in layer_rounds]
        else:
            continue
        metrics[name] = statistics.median(values)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
