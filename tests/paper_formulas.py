"""Paper formulas that only the tests evaluate, kept out of `src/bdecay`."""

from bdecay import InsufficientCoefficientsError


def rho_eval(table, j: int, xi):
    """Evaluate rho_j(xi) = sum_k c_k(j) xi^k by Horner's rule.

    Exact for rational xi on an exact table; accepts float/mpf xi as well.
    rho_{N+1} vanishes exactly at the eigenvalue shifts of the ladder matrix.
    """
    if not 0 <= j <= table.n_states:
        raise ValueError("need 0 <= j <= N+1")
    if j > table.kmax:
        raise InsufficientCoefficientsError(
            f"rho_{j} needs the table filled to k={j} (kmax={table.kmax})"
        )
    acc = xi * 0 + table.c(j, j)  # result type follows xi
    for k in range(j - 1, -1, -1):
        acc = acc * xi + table.c(k, j)
    return acc
