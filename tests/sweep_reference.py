"""Reference `rel_err_*` cells of a `bdecay sweep` CSV, from ζ at 4× the bits.

A sweep prints |estimate - ζ| / |ζ| to 17 digits.  Those digits hold only
when ζ is good to well beyond 17 digits, so the reference takes ζ from the
Sturm referee (`oracle.sturm_zeta`, independent of the Perron kernel) at four
times the sweep's working bits, rounds it to the working bits, and forms both
relative errors as `DecayReport.relative_error` does.  The estimates come
from the exact characteristic coefficients; `decay_report` computes the same
formulas in its decimal pass, which can move a cell only at the rounding
floor of the working bits.

    python tests/sweep_reference.py tests/data/sweep_eps1e-5.csv --eps 1e-5

rewrites, in place, only the `rel_err_*` cells of the file that differ from
the reference, and prints each change as `n x column: old -> new`.  n and x
are read from the CSV (x must be printed exactly, as 0.5, 1, 2, 3 are); eps
and delta are the sweep's flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import pathlib
import sys
from fractions import Fraction

from mpmath import mp

from bdecay import (
    DecayReport,
    EpsSisParams,
    PrecisionCtx,
    char_coeffs,
    lagrange_zeta,
    newton_bound,
    restrict_transient,
)
from bdecay.cli import _fmt
from bdecay.oracle import sturm_zeta

COLUMNS = ("rel_err_lagrange2", "rel_err_newton")


def reference_cells(n, x, eps, delta, bits):
    """(rel_err_lagrange2, rel_err_newton) as `sweep` prints them, against ζ
    from `sturm_zeta` at 4 * bits rounded to bits.
    """
    ladder = EpsSisParams.from_tau(n, x / n, delta, eps).ladder()
    if eps == 0:
        ladder = restrict_transient(ladder)
    coeffs = char_coeffs(ladder, kmax=min(3, ladder.embedded().n_states - 1))
    fine = sturm_zeta(ladder, PrecisionCtx(mantissa_bits=4 * bits))
    with mp.workprec(bits):
        zeta = +fine
    report = DecayReport(
        zeta_exact=zeta, zeta_lagrange={}, zeta_newton_bound=None,
        ordering_ok=True, precision_bits=bits,
    )
    estimates = (lagrange_zeta(coeffs, 2), newton_bound(coeffs, mantissa_bits=bits))
    return tuple(_fmt(report.relative_error(e)) for e in estimates)


def reference_rows(text, eps, delta=Fraction(1)):
    """Yield (row, {column: reference cell}) for each data row of a sweep
    CSV, the row as a dict from column name to cell.
    """
    rows = csv.DictReader(text.splitlines()[1:])  # after the meta line
    for row in rows:
        ref = reference_cells(
            int(row["n"]), Fraction(row["x"]), eps, delta, int(row["precision_bits"])
        )
        yield row, dict(zip(COLUMNS, ref))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", type=pathlib.Path)
    parser.add_argument("--eps", type=Fraction, default=Fraction(0))
    parser.add_argument("--delta", type=Fraction, default=Fraction(1))
    args = parser.parse_args(argv)
    text = args.csv.read_text(encoding="utf-8")
    meta, header = text.splitlines(keepends=True)[:2]
    out = io.StringIO()
    out.write(meta + header)
    writer = csv.writer(out, lineterminator="\n")
    for row, ref in reference_rows(text, args.eps, args.delta):
        for column, new in ref.items():
            if row[column] != new:
                print(f"n={row['n']} x={row['x']} {column}: {row[column]} -> {new}")
                row[column] = new
        writer.writerow(row.values())
    args.csv.write_text(out.getvalue(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
