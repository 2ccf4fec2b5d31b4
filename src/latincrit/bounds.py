"""Bound formulas for largest-critical-set sizes, evaluated in log space.

Everything that would overflow, like (n!)^{2n} / n^{n^2}, lives as a
natural logarithm.  ln(n!) is an exact running sum of ln k, not a
Gamma-function approximation, so comparisons against the Stirling lower
substitute sqrt(2 pi n) (n/e)^n measure the true inequality.  Integer
formulas use exact Python integers at any n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .enumeration import count_all

LN2 = math.log(2.0)
LN_8PI = math.log(8.0 * math.pi)

# Tolerance for log-space inequality checks.
LOG_TOL = 1e-9

# Largest n that stirling_check takes.
STIRLING_MAX_N = 300

# Largest order that bounds_table takes: it holds one row per order, and
# log_factorial keeps a prefix sum for every order up to the last.  At this
# order a whole table takes under 0.1 s and about 11 MiB.
BOUNDS_MAX_N = 10_000

_log_fact = [0.0]  # _log_fact[k] = ln(k!), extended on demand


def log_factorial(n: int) -> float:
    """ln(n!) by direct summation of ln k, cached as prefix sums."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    while len(_log_fact) <= n:
        _log_fact.append(_log_fact[-1] + math.log(len(_log_fact)))
    return _log_fact[n]


class BoundsRow(NamedTuple):
    """Every bound formula evaluated at one order; the two divided by
    ln n are None at n = 1."""

    order: int
    nelder: int
    bm_upper: int
    theorem1: float | None
    exact_counting_lower: float | None
    svr: int | None  # present iff order is a power of two
    log_Ln_lower: float
    log_cs_count_upper_coeffs: tuple[float, float]  # ((n^2-2n+1) ln 2, ln n)


class ChainCheck(NamedTuple):
    """The counting sandwich at one order: lower bound on ln L(n), the
    exact ln L(n), and the shape-times-entries upper bound."""

    order: int
    lhs_log: float
    mid_log: float
    rhs_log: float
    holds: bool


def nelder_bound(n: int) -> int:
    """(n^2 - n) / 2, the triangular construction's size, exactly."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n - 1) // 2


def bm_upper(n: int) -> int:
    """n^2 - 3n + 3, the known upper bound, exactly."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * n - 3 * n + 3


def svr_bound(m: int) -> int:
    """4^m - 3^m, the lower bound at orders n = 2^m, exactly."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 4**m - 3**m


def theorem1_lower(n: int) -> float:
    """n^2 (1 - (2 + ln 2)/ln n) + n (1 + ln(8 pi)/ln n) - ln 2 / ln n.

    Undefined at n = 1 (ln 1 = 0)."""
    if n < 2:
        raise ValueError(f"defined for n >= 2 only, got {n}")
    ln_n = math.log(n)
    return n * n * (1.0 - (2.0 + LN2) / ln_n) + n * (1.0 + LN_8PI / ln_n) - LN2 / ln_n


def log_Ln_lower(n: int) -> float:
    """2n ln(n!) - n^2 ln n, the permanent-based lower bound on ln L(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * n * log_factorial(n) - float(n * n) * math.log(n)


def _log_shapes(n: int) -> float:
    """(n^2-2n+1) ln 2, the shape term of the upper bound on ln L(n)."""
    return (n * n - 2 * n + 1) * LN2


def exact_counting_lower(n: int) -> float:
    """(2n ln n! - n^2 ln n - (n^2-2n+1) ln 2) / ln n: the final bound with
    exact ln n! kept in place of the Stirling substitute.  Never below
    theorem1_lower, which gave away the Stirling slack."""
    if n < 2:
        raise ValueError(f"defined for n >= 2 only, got {n}")
    return (log_Ln_lower(n) - _log_shapes(n)) / math.log(n)


def stirling_check(n: int) -> bool:
    """True iff ln sqrt(2 pi n) + n ln n - n <= ln(n!), i.e. the Stirling
    substitute really is a smaller value at this n."""
    if not 1 <= n <= STIRLING_MAX_N:
        raise ValueError(f"supported range is 1..{STIRLING_MAX_N}, got {n}")
    lower = 0.5 * math.log(2.0 * math.pi * n) + n * math.log(n) - n
    return lower <= log_factorial(n)


def check_chain(n: int, lcs_value: int) -> ChainCheck:
    """Verify 2n ln n! - n^2 ln n <= ln L(n) <= (n^2-2n+1) ln 2 + lcs ln n
    against the exact L(n) of `count_all` (the row dynamic program over
    reduced squares), at LOG_TOL slack.  Orders that `count_all` refuses
    raise."""
    lhs = log_Ln_lower(n)
    mid = math.log(count_all(n).total_count)
    rhs = _log_shapes(n) + lcs_value * math.log(n)
    holds = lhs <= mid + LOG_TOL and mid <= rhs + LOG_TOL
    return ChainCheck(order=n, lhs_log=lhs, mid_log=mid, rhs_log=rhs, holds=holds)


def crossover() -> int:
    """Smallest n >= 2 from which the analytic lower bound stays above the
    triangular construction's size (n^2 - n)/2 for every larger order.

    The difference is g(n) = n^2 (1/2 - (2 + ln 2)/ln n)
    + n (3/2 + ln(8 pi)/ln n) - ln 2/ln n.  Once ln n >= 2 (2 + ln 2),
    that is n >= 219, the n^2 coefficient is >= 0, so g(n) > 3n/2 - 1 > 0.
    Only the orders below 219 can fail, and they are checked exactly.
    """
    certified_from = math.ceil(math.exp(2.0 * (2.0 + LN2)))
    fails = [k for k in range(2, certified_from) if theorem1_lower(k) <= nelder_bound(k)]
    return fails[-1] + 1 if fails else 2


def bounds_table(n_from: int, n_to: int) -> list[BoundsRow]:
    """One row per order in [n_from, n_to], all formulas evaluated;
    n_to is at most BOUNDS_MAX_N."""
    if not 1 <= n_from <= n_to:
        raise ValueError(f"need 1 <= n_from <= n_to, got {n_from}..{n_to}")
    if n_to > BOUNDS_MAX_N:
        raise ValueError(f"n_to must be at most {BOUNDS_MAX_N}, got {n_to}")
    rows = []
    for n in range(n_from, n_to + 1):
        m = n.bit_length() - 1
        svr = svr_bound(m) if n == 1 << m and m >= 1 else None
        rows.append(
            BoundsRow(
                order=n,
                nelder=nelder_bound(n),
                bm_upper=bm_upper(n),
                theorem1=theorem1_lower(n) if n > 1 else None,  # ln 1 = 0
                exact_counting_lower=exact_counting_lower(n) if n > 1 else None,
                svr=svr,
                log_Ln_lower=log_Ln_lower(n),
                log_cs_count_upper_coeffs=(_log_shapes(n), math.log(n)),
            )
        )
    return rows
