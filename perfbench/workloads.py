"""The three workloads: inputs from a seed, one round of operations, checks.

A round calls bdecay through module attributes looked up at call time, so
that the tracer's wrappers see every call.  `check` runs outside the timed
region and returns (attempted, failures, problems) for one round: an
operation the program reports as failed, or whose route misses its stated
tolerance, is a failure; a wrong answer from any other operation is a
problem.  An exception ends the run.
"""

from __future__ import annotations

import csv
import os
import random
from fractions import Fraction

from bdecay import chain, cli, decay, oracle, sis, validate

import checks

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def _seeded_delta(rng: random.Random) -> Fraction:
    """Curing rate 17/16, 19/16, ..., 31/16.

    It rescales every rate, so outputs change with the seed while the work
    (state counts, working bits, bisection steps, sizes of the exact
    rationals) stays nearly the same.
    """
    return Fraction(rng.randrange(17, 32, 2), 16)


# ---------------------------------------------------------------------------
# absorbing: decay_report on eps = 0 restricted sub-generators, n = 100..400
# ---------------------------------------------------------------------------

# (smallest n, x); the seed adds 0..2 to n.
ABSORBING_POINTS = ((100, HALF), (200, Fraction(1)), (300, Fraction(2)), (400, Fraction(3)))


def absorbing_inputs(seed: int):
    rng = random.Random(seed)
    delta = _seeded_delta(rng)
    return {"delta": delta, "points": [(n + rng.randint(0, 2), x) for n, x in ABSORBING_POINTS]}


def absorbing_round(inputs, out_dir):
    reports = []
    for n, x in inputs["points"]:
        params = sis.EpsSisParams.from_x(n, x, inputs["delta"])
        ladder = chain.restrict_transient(params.ladder())
        ctx = decay.PrecisionCtx(mantissa_bits=decay.required_precision(n, x))
        reports.append(decay.decay_report(ladder, ctx))
    return reports


def absorbing_check(inputs, reports, state):
    delta = inputs["delta"]
    problems = []
    for (n, x), report in zip(inputs["points"], reports):
        beta = x * delta / n
        zeta = report.zeta_exact
        problems.append(checks.decay_point(zeta, report.ordering_ok))
        key = ("sym", n, x)
        if key not in state:
            state[key] = checks.sym_matrix(n, beta, delta, absorbing=True)
        if checks.check_applies(float(zeta), state[key]):
            problems.append(checks.zeta_vs_eigvalsh(float(zeta), state[key], absorbing=True))
        if x >= 2 and n >= 100:
            key = ("green", n, x)
            if key not in state:
                state[key] = checks.green_lifetime(n, beta, delta, report.precision_bits)
            problems.append(checks.zeta_lifetime_product(zeta, state[key], report.precision_bits))
    return len(reports), [], [f"absorbing: {p}" for p in problems if p]


# ---------------------------------------------------------------------------
# sweep: the CLI over a subsample of the paper's grid, eps = 1e-5
# ---------------------------------------------------------------------------

SWEEP_X = (HALF, Fraction(1), Fraction(2), Fraction(3))
SWEEP_EPS = Fraction(1, 100000)
SWEEP_HEADER = [
    "n", "tau", "x", "eps", "zeta_exact", "zeta_lagrange2", "zeta_newton",
    "rel_err_lagrange2", "rel_err_newton", "precision_bits",
]


def sweep_inputs(seed: int):
    """One n from each of 4..7, 8..11, ..., 56..59, plus n = 60.

    n = 60 is always present, so the working precision (set by the largest n
    and x) is the same for every seed.
    """
    rng = random.Random(seed)
    delta = _seeded_delta(rng)
    n_values = [lo + rng.randint(0, 3) for lo in range(4, 60, 4)] + [60]
    argv = [
        "sweep",
        "--n-values", ",".join(str(n) for n in n_values),
        "--x-values", ",".join(str(x) for x in SWEEP_X),
        "--delta", str(delta),
        "--eps", "1e-5",
    ]
    return {"delta": delta, "n_values": n_values, "argv": argv}


def sweep_round(inputs, out_dir):
    path = os.path.join(out_dir, "sweep.csv")
    code = cli.main(inputs["argv"] + ["--out", path])
    return code, path


def sweep_check(inputs, result, state):
    code, path = result
    attempted = len(inputs["n_values"]) * len(SWEEP_X)
    if code != 0:
        return attempted, [f"sweep: exit code {code}"] * attempted, []
    with open(path, "rb") as fh:
        data = fh.read()
    problems = []
    failures = []
    if "csv" in state:
        problems.append(checks.same_bytes(state["csv"], data, "sweep CSV of two rounds"))
    else:
        state["csv"] = data
    rows = list(csv.reader(data.decode("utf-8").splitlines()[1:]))  # after the meta line
    header, rows = rows[0], rows[1:]
    if header != SWEEP_HEADER:
        # the CLI adds an `error` column when a row failed
        err = header.index("error") if "error" in header else None
        for row in rows:
            if err is not None and row[err] == "bound-ordering violated":
                problems.append(f"n={row[0]} x={row[2]}: bound ordering violated")
            elif err is not None and row[err]:
                failures.append(f"sweep: n={row[0]} x={row[2]}: {row[err]}")
        if err is None:
            problems.append(f"unexpected CSV header {header}")
    want = [(n, x) for n in inputs["n_values"] for x in SWEEP_X]
    got = [(int(r[0]), Fraction(r[2])) for r in rows]
    if got != want:
        problems.append("CSV rows do not cover the requested grid")
    delta = inputs["delta"]
    for (n, x), row in zip(want, rows):
        if not row[4]:
            continue  # failed row, counted above
        zeta = float(row[4])
        problems.append(checks.decay_point(zeta, True))
        key = ("sym", n, x)
        if key not in state:
            state[key] = checks.sym_matrix(n, x * delta / n, delta, SWEEP_EPS)
        if checks.check_applies(zeta, state[key]):
            problems.append(checks.zeta_vs_eigvalsh(zeta, state[key], absorbing=False))
    return attempted, failures, [f"sweep: {p}" for p in problems if p]


# ---------------------------------------------------------------------------
# referee: the sis and oracle layers, no production zeta kernel
# ---------------------------------------------------------------------------

# (n, x) of the exact lifetimes.  n does not move with the seed: the
# recursion's cost depends on how x/n reduces (up to 15% at n = 2000..2004).
REFEREE_DIRECT = ((500, Fraction(3)), (1000, Fraction(2)), (2000, THREE_HALVES))
REFEREE_HITTING = (300, Fraction(2))
# The paper's lifetime grid, fixed for every seed (curing rate 1).  At x = 3/2
# the expint route misses the 1e-6 tolerance for n = 30, 35 and 40.
REFEREE_GRID = tuple((n, x) for x in (THREE_HALVES, Fraction(2), Fraction(3)) for n in range(5, 41, 5))
GILLESPIE_N = 8
GILLESPIE_TAU = Fraction(1, 20)
GILLESPIE_RUNS = 4000
DENSE_N = 30
DENSE_X = Fraction(2)


def referee_inputs(seed: int):
    rng = random.Random(seed)
    delta = _seeded_delta(rng)
    return {
        "delta": delta,
        "direct": list(REFEREE_DIRECT),
        "hitting": (REFEREE_HITTING[0] + rng.randint(0, 4), REFEREE_HITTING[1]),
        "dense_eps": Fraction(rng.randint(1, 9), 100000),
        "sim_seed": seed,
    }


def referee_round(inputs, out_dir):
    delta = inputs["delta"]
    n, x = inputs["hitting"]
    hitting = oracle.hitting_time_solve(sis.EpsSisParams.from_x(n, x, delta).ladder())
    dense_ladder = sis.EpsSisParams.from_x(DENSE_N, DENSE_X, delta, inputs["dense_eps"]).ladder()
    return {
        "direct": [sis.lifetime_direct(n, x / n, delta) for n, x in inputs["direct"]],
        "hitting": hitting[-1],
        "grid": [sis.mean_absorption_time(sis.EpsSisParams.from_x(n, x, 1)) for n, x in REFEREE_GRID],
        "gillespie": oracle.gillespie_simulate(
            sis.EpsSisParams.from_tau(GILLESPIE_N, GILLESPIE_TAU, delta),
            runs=GILLESPIE_RUNS,
            seed=inputs["sim_seed"],
        ),
        "dense": oracle.dense_spectrum(dense_ladder),
        "suite": validate.run_suite("quick"),
    }


def referee_check(inputs, out, state):
    delta = inputs["delta"]
    problems = []
    failures = []
    for (n, x), value in zip(inputs["direct"], out["direct"]):
        problems.append(checks.lifetime_vs_green(value, n, x * delta / n, delta))
    n, x = inputs["hitting"]
    if "hitting" not in state:
        state["hitting"] = sis.lifetime_direct(n, x / n, delta)
    problems.append(checks.exact_equal(out["hitting"], state["hitting"], "hitting-time h_N vs lifetime_direct"))
    for (n, x), report in zip(REFEREE_GRID, out["grid"]):
        problems.append(checks.exact_equal(report.f_direct, report.f_taylor, f"direct vs taylor at n={n} x={x}"))
        miss = checks.expint_vs_direct(report.f_expint, report.f_direct)
        if miss:
            failures.append(f"referee: lifetime_expint at n={n} x={x}: {miss}")
    sim = out["gillespie"]
    beta = GILLESPIE_TAU * delta
    problems.append(checks.gillespie_mean(sim.mean, sim.stderr, checks.green_lifetime(GILLESPIE_N, beta, delta)))
    trace = checks.sis_trace(DENSE_N, DENSE_X * delta / DENSE_N, delta, inputs["dense_eps"])
    problems.append(checks.spectrum_sum(out["dense"], trace))
    problems.append(checks.suite_passed(out["suite"]))
    attempted = len(out["direct"]) + 1 + len(out["grid"]) + 3
    return attempted, failures, [f"referee: {p}" for p in problems if p]


WORKLOADS = {
    "absorbing": (absorbing_inputs, absorbing_round, absorbing_check),
    "sweep": (sweep_inputs, sweep_round, sweep_check),
    "referee": (referee_inputs, referee_round, referee_check),
}
