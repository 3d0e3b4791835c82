"""Command-line front end.

Subcommands: decay, sweep, lifetime, regimes, simulate, validate.
Numbers print with 17 significant digits (round-trippable); --exact prints
rationals as "p/q" strings.  Exit codes: 0 ok, 1 validation failure, 2 usage
error, 3 precision exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath

from . import __version__
from ._numbers import is_exact, to_float, to_mpf
from .chain import restrict_transient
from .charpoly import char_coeffs
from .decay import PrecisionCtx, decay_report, exact_zeta, lagrange_zeta
from .errors import BdecayError, InvalidParameterError, PrecisionExhaustedError
from .oracle import gillespie_simulate
from .sis import (
    EpsSisParams,
    decay_regime,
    lifetime_direct,
    mean_absorption_time,
)
from .validate import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _rational(text: str) -> Fraction:
    """Parse CLI numerics exactly: '1e-5', '0.25' and '2/3' all stay rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r} ({exc})")


def _fmt(value, exact: bool = False) -> str:
    if value is None:
        return ""
    if exact and is_exact(value):
        # str(int) refuses more than 4300 digits; a Decimal holds an int
        # exactly and prints every digit
        q = Fraction(value)
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"
    normal = sys.float_info.min <= abs(value) <= sys.float_info.max
    # a float would overflow, underflow or lose digits
    out_of_range = is_exact(value) and value != 0 and not normal
    if out_of_range or isinstance(value, mpmath.mpf):
        # nstr of a wide mantissa far from 1 converts integers past Python's
        # 4300-digit limit.  128 bits hold every digit it prints, and leave
        # a value at the default precision as it is; an exact value is
        # rounded to them once.
        with mpmath.mp.workprec(128):
            return mpmath.nstr(to_mpf(value), 17, strip_zeros=True)
    return f"{to_float(value):.17g}"


def _json_value(value, exact: bool = False):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if exact:
        return _fmt(value, exact=True)
    f = math.inf if is_exact(value) and abs(value) > sys.float_info.max else to_float(value)
    if not math.isfinite(f) or (abs(f) < sys.float_info.min and value != 0):
        return _fmt(value)  # keep subnormal, underflowing and huge values as decimal strings
    return float(f"{f:.17g}")


def _open_out(path: str):
    """Open an output file for writing; an unwritable path is a usage error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_model_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="number of nodes / top state")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=_rational, help="infection rate per link")
    group.add_argument("--tau", type=_rational, help="effective infection rate beta/delta")
    group.add_argument("--x", type=_rational, help="threshold units: tau = x/n")
    sub.add_argument("--delta", type=_rational, default=Fraction(1), help="curing rate")
    sub.add_argument("--eps", type=_rational, default=Fraction(0), help="self-infection rate")


def _params_from_args(args) -> EpsSisParams:
    if args.beta is not None:
        return EpsSisParams(n=args.n, beta=args.beta, delta=args.delta, eps=args.eps)
    if args.tau is not None:
        return EpsSisParams.from_tau(args.n, args.tau, args.delta, args.eps)
    return EpsSisParams.from_x(args.n, args.x, args.delta, args.eps)


def _precision_ctx(args) -> PrecisionCtx:
    """Working precision: --precision-bits, or PrecisionCtx's default."""
    if args.precision_bits is None:
        return PrecisionCtx()
    try:
        return PrecisionCtx(mantissa_bits=args.precision_bits)
    except ValueError as exc:
        raise InvalidParameterError(f"--precision-bits {args.precision_bits}: {exc}") from None


def _meta_line(precision_bits, seed_policy="none") -> str:
    return (
        f"# meta: bdecay {__version__}; precision_bits={precision_bits}; "
        f"seed_policy={seed_policy}; digits=17\n"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _exact_lagrange(ladder) -> dict:
    """Lagrange orders 1-3 from the exact characteristic coefficients, for
    --exact: `decay_report`'s values are these rounded in its decimal pass.
    """
    coeffs = char_coeffs(ladder, kmax=min(3, ladder.embedded().n_states - 1))
    return {order: lagrange_zeta(coeffs, order) for order in (1, 2, 3)}


def cmd_decay(args) -> int:
    params = _params_from_args(args)
    ladder = params.ladder()
    if params.eps == 0:
        ladder = restrict_transient(ladder)
    report = decay_report(ladder, _precision_ctx(args))
    lagrange = _exact_lagrange(ladder) if args.exact else report.zeta_lagrange
    if to_float(params.x) <= 1:
        print(
            "warning: x <= 1 (at or below threshold); the Lagrange series needs "
            "orders beyond 3 here, treat zeta_lagrange* as rough",
            file=sys.stderr,
        )
    lag = {order: (lagrange[order] if order <= args.order else None) for order in (1, 2, 3)}
    payload = {
        "n": params.n,
        "beta": _json_value(params.beta, args.exact),
        "delta": _json_value(params.delta, args.exact),
        "eps": _json_value(params.eps, args.exact),
        "tau": _json_value(params.tau, args.exact),
        "x": _json_value(params.x, args.exact),
        "zeta_exact": _json_value(report.zeta_exact),
        "zeta_lagrange1": _json_value(lag[1], args.exact),
        "zeta_lagrange2": _json_value(lag[2], args.exact),
        "zeta_lagrange3": _json_value(lag[3], args.exact),
        "zeta_newton": _json_value(report.zeta_newton_bound),
        "bound_ordering_ok": report.ordering_ok,
        "precision_bits": report.precision_bits,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _comma_list(text: str, flag: str, parse) -> list:
    """Items of a comma-list flag, each through `parse`; a bad item is a usage error."""
    items = []
    for item in text.split(","):
        try:
            items.append(parse(item))
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(f"{flag}: not a number: {item!r}") from None
    return items


def _sweep_n_values(args):
    if args.n_values is not None:
        values = sorted(set(_comma_list(args.n_values, "--n-values", int)))
    else:
        if args.n_min is None or args.n_max is None:
            raise InvalidParameterError("sweep needs --n-values or --n-min/--n-max")
        if args.n_step < 1:
            raise InvalidParameterError("--n-step must be positive")
        values = list(range(args.n_min, args.n_max + 1, args.n_step))
        if not values:
            raise InvalidParameterError(
                f"--n-min {args.n_min} --n-max {args.n_max}: empty range"
            )
    if any(v < 1 for v in values):
        raise InvalidParameterError("sweep n values must be positive")
    return values


def cmd_sweep(args) -> int:
    n_values = _sweep_n_values(args)
    if (args.tau is None) == (args.x_values is None):
        raise InvalidParameterError("exactly one of --tau or --x-values is required")
    x_list = None
    if args.x_values is not None:
        x_list = sorted(_comma_list(args.x_values, "--x-values", Fraction))
    ctx = _precision_ctx(args)
    bits = ctx.mantissa_bits

    rows = []
    failures = 0
    for n in n_values:
        taus = [x / n for x in x_list] if x_list else [args.tau]
        for tau in sorted(taus):
            row = {
                "n": n,
                "tau": _fmt(tau, args.exact),
                "x": _fmt(tau * n, args.exact),
                "eps": _fmt(args.eps, args.exact),
                "zeta_exact": "",
                "zeta_lagrange2": "",
                "zeta_newton": "",
                "rel_err_lagrange2": "",
                "rel_err_newton": "",
                "precision_bits": bits,
                "error": "",
            }
            try:
                params = EpsSisParams.from_tau(n, tau, args.delta, args.eps)
                ladder = params.ladder()
                if args.eps == 0:
                    ladder = restrict_transient(ladder)
                report = decay_report(ladder, ctx)
                lagrange = _exact_lagrange(ladder) if args.exact else report.zeta_lagrange
                l2, nb = lagrange[2], report.zeta_newton_bound
                row.update(
                    zeta_exact=_fmt(report.zeta_exact),
                    zeta_lagrange2=_fmt(l2, args.exact),
                    zeta_newton=_fmt(nb),
                    rel_err_lagrange2=_fmt(report.relative_error(l2)),
                    rel_err_newton=_fmt(report.relative_error(nb)),
                )
                if not report.ordering_ok:
                    row["error"] = "bound-ordering violated"
                    failures += 1
            except BdecayError as exc:
                row["error"] = str(exc)
                failures += 1
            rows.append(row)

    header = [
        "n", "tau", "x", "eps", "zeta_exact", "zeta_lagrange2", "zeta_newton",
        "rel_err_lagrange2", "rel_err_newton", "precision_bits",
    ]
    if failures:
        header.append("error")
    buf = io.StringIO()
    buf.write(_meta_line(bits))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[h] for h in header])
    _emit(buf.getvalue(), args.out)
    if failures:
        print(f"warning: {failures} row(s) failed; see the error column", file=sys.stderr)
        if args.strict:
            return EXIT_VALIDATION
    return EXIT_OK


def cmd_lifetime(args) -> int:
    if args.eps != 0:
        raise InvalidParameterError("lifetime is defined for eps = 0 only")
    params = _params_from_args(args)
    report = mean_absorption_time(params)
    x = to_float(params.x)
    residual = None
    ctx = _precision_ctx(args)
    if x > 1:
        sub = restrict_transient(params.ladder())
        z = exact_zeta(sub, ctx)
        with mpmath.mp.workprec(ctx.mantissa_bits):
            residual = abs(z * to_mpf(report.f_direct) + 1)
    payload = {
        "n": params.n,
        "tau": _json_value(params.tau, args.exact),
        "x": _json_value(params.x, args.exact),
        "delta": _json_value(params.delta, args.exact),
        "f_direct": _json_value(report.f_direct, args.exact),
        "f_taylor": _json_value(report.f_taylor, args.exact),
        "f_expint": _json_value(report.f_expint),
        "f_asymptotic": _json_value(report.f_asymptotic),
        "e_t": _json_value(report.e_t, args.exact),
        "regime": report.regime,
        "max_pairwise_relative_gap": _json_value(report.max_pairwise_relative_gap),
        "zeta_f_residual": _json_value(residual),
        "precision_bits": ctx.mantissa_bits,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_regimes(args) -> int:
    n_values = _sweep_n_values(args)
    x_list = sorted(_comma_list(args.x_values, "--x-values", Fraction))
    rows = []
    for n in n_values:
        for x in x_list:
            est = decay_regime(n, x, args.delta)
            rows.append(
                {
                    "n": n,
                    "x": _fmt(x, args.exact),
                    "regime": est.regime,
                    "leading_estimate": _fmt(est.leading_estimate),
                    "order_only": est.order_only,
                }
            )
    if args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        buf.write(_meta_line("n/a"))
        writer = csv.DictWriter(
            buf, fieldnames=["n", "x", "regime", "leading_estimate", "order_only"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    result = gillespie_simulate(
        params,
        start=args.start,
        runs=args.runs,
        seed=args.seed,
        time_budget_s=args.budget_s,
    )
    reference = lifetime_direct(params.n, params.tau, params.delta)
    payload = {
        "n": params.n,
        "tau": _json_value(params.tau, args.exact),
        "delta": _json_value(params.delta, args.exact),
        "start": result.start_state,
        "seed": result.seed,
        "runs_requested": result.runs_requested,
        "runs_completed": result.runs_completed,
        "budget_exhausted": result.budget_exhausted,
        "mean": _json_value(result.mean),
        "stderr": _json_value(result.stderr),
        "f_direct_reference": _json_value(reference, args.exact),
        "rng": result.metadata,
    }
    if args.samples_out:
        with _open_out(args.samples_out) as fh:
            fh.write(_meta_line("n/a", seed_policy=f'mt19937("{result.seed}:<run>")'))
            fh.write("run,t\n")
            for i, t in enumerate(result.times):
                fh.write(f"{i},{t:.17g}\n")
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    summary = run_suite(args.level)
    _emit(json.dumps(summary, indent=2) + "\n", args.out)
    if summary["failed"]:
        print(f"validation failed: {summary['first_failure']}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdecay",
        description=(
            "Decay parameter and mean extinction time of birth-death chains "
            "(complete-graph SIS epidemics)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"bdecay {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decay", help="single-point decay report (JSON)")
    _add_model_flags(p)
    p.add_argument("--order", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_decay)

    p = subs.add_parser("sweep", help="decay estimates over a grid of (n, tau) (CSV)")
    p.add_argument("--n-values", default=None, help="comma list, e.g. 4,8,16")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--tau", type=_rational, default=None, help="fixed tau rule")
    p.add_argument("--x-values", default=None, help="comma list of x = n*tau values")
    p.add_argument("--delta", type=_rational, default=Fraction(1))
    p.add_argument("--eps", type=_rational, default=Fraction(0))
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("lifetime", help="mean extinction time by all methods (JSON)")
    _add_model_flags(p)
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lifetime)

    p = subs.add_parser("regimes", help="threshold-regime table")
    p.add_argument("--n-values", default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--x-values", required=True, help="comma list of x values")
    p.add_argument("--delta", type=_rational, default=Fraction(1))
    p.add_argument("--exact", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_regimes)

    p = subs.add_parser("simulate", help="stochastic extinction times (JSON summary)")
    _add_model_flags(p)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--budget-s", type=float, default=60.0)
    p.add_argument("--samples-out", default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser("validate", help="run the invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PrecisionExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (InvalidParameterError, BdecayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
