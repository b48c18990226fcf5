"""Finite case analysis certifying the conjecture for graphs of girth >= 5.

A minimal counterexample with maximum degree k on n vertices is squeezed
between a lower and an upper bound on n; k >= 7 dies to a closed-form bound
and k = 1, 6 to empty windows, leaving 80 (k, n) cells.  Each cell is killed
by a bound beta_u built from a Ramsey-extracted independent set and the
worst-case completion function gamma(k, n, t, e), computed by an exact
loop.  All arithmetic is integer/Fraction with floors exactly as the
derivation specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

#: small off-diagonal Ramsey numbers R(3, u); all the driver ever needs
_RAMSEY3 = (0, 1, 3, 6, 9, 14)

FIFTIETH = Fraction(1, 50)


def ramsey3(u: int) -> int:
    """Table of R(3, u) for 0 <= u <= 5; larger arguments are out of range."""
    if not 0 <= u <= 5:
        raise ValueError(f"R(3, {u}) is outside the built-in table (0 <= u <= 5)")
    return _RAMSEY3[u]


def trunc_sub(x, y):
    """Truncated subtraction: max(0, x - y)."""
    return max(0, x - y)


def first_bound(k: int, n: int) -> Fraction:
    """Closed-form bound 1/50 - (n(4k-25) + 50k - 4k^2) / (5n^2).

    For k >= 7 and n >= 2k+1 the subtracted term is non-negative, settling
    those cases outright.
    """
    if k < 1 or n < 2 * k + 1:
        raise ValueError("need k >= 1 and n >= 2k + 1")
    return FIFTIETH - Fraction(n * (4 * k - 25) + 50 * k - 4 * k * k, 5 * n * n)


def n_window(k: int) -> tuple[int, int]:
    """Vertex-count window [lower, upper] that survives for max degree k.

    lower = ceil(2k(25-2k)/(25-4k)) (also at least 2k+1); upper =
    ceil(27(k-1)/2).  Empty windows (lower > upper) kill the case, which
    happens exactly at k = 1 and k = 6.
    """
    if not 1 <= k <= 6:
        raise ValueError("the window analysis applies for 1 <= k <= 6")
    lower = max(ceil(Fraction(2 * k * (25 - 2 * k), 25 - 4 * k)), 2 * k + 1)
    upper = ceil(Fraction(27 * (k - 1), 2))
    return lower, upper


def gamma(k: int, n: int, t: int, e: int) -> Fraction:
    """Worst-case minimum half-value when a t-set with <= e edges is forced in.

    The adversary presents an n-vertex graph of max degree k containing a
    t-set A with at most e induced edges; the half must contain A.  Each step
    absorbs one lightest vertex and maximizes e* + floor((kt - 2e*)/(n - t))
    over e* <= e (2e* + ... in the odd last step).  The maximum is at e* = e:
    one more edge adds 1 (or 2) and lowers the floor by at most 1, as n - t >= 2
    (by at most 2 when n = 1).
    """
    if min(k, n, t, e) < 0:
        raise ValueError("arguments must be non-negative")
    if t > n // 2:
        raise ValueError(f"t = {t} exceeds floor(n/2) = {n // 2}")
    while t < n // 2:
        e += (k * t - 2 * e) // (n - t)
        t += 1
    if n % 2 == 1:
        return Fraction(2 * e + (k * t - 2 * e) // (n - t), 2) / (n * n)
    return Fraction(e, n * n)


def beta_u(k: int, n: int, u: int, truncated_inner: bool = False) -> Fraction | None:
    """Per-u bound on beta for the (k, n) cell; None when u is inadmissible.

    At the maximal u the half is the neighborhood plus a full independent
    set (with a half-vertex saving for odd n); the default form subtracts
    |C| from R(3, u) with plain subtraction inside the min, and
    `truncated_inner` switches to the truncated reading of that same
    quantity (the driver must certify under both).  The readings agree: they
    differ only when R(3, u) - |C| < 0, where the plain inner term is negative
    and the truncated one 0, and max(0, inner - (n mod 2)/2) sends both to 0.
    """
    u_star = (n - 2 * k + 1) // 2  # ceil(n/2 - k)
    if not 0 <= u <= u_star or u > 5 or ramsey3(u) > n - k - 1:
        return None
    far_deficit = n - k * k - 1  # lower bound on |C|, the distance->=3 set
    if u == u_star:
        if truncated_inner:
            inner = min(u, trunc_sub(ramsey3(u), far_deficit))
        else:
            inner = min(u, ramsey3(u) - far_deficit)
        return Fraction(trunc_sub(inner - Fraction(n % 2, 2), 0)) / (n * n)
    edges_cap = min(u, trunc_sub(ramsey3(u), far_deficit))
    return gamma(k, n, k + u, edges_cap)


def girth5_master(k: int, n: int, truncated_inner: bool = False) -> tuple[Fraction, int]:
    """Minimum of beta_u over admissible u; returns (bound, chosen u)."""
    candidates = []
    for u in range(0, min((n - 2 * k + 1) // 2, 5) + 1):
        value = beta_u(k, n, u, truncated_inner)
        if value is not None:
            candidates.append((value, u))
    if not candidates:
        raise ValueError(f"no admissible u for (k, n) = ({k}, {n})")
    return min(candidates)


@dataclass(frozen=True)
class CaseRow:
    k: int
    n: int
    u_star: int
    beta_bound: Fraction
    passed: bool


def girth5_report(truncated_inner: bool = False) -> list[CaseRow]:
    """All surviving (k, n) cells with their master bounds; must be 80 rows."""
    rows = []
    for k in range(2, 6):
        lower, upper = n_window(k)
        for n in range(lower, upper + 1):
            bound, chosen = girth5_master(k, n, truncated_inner)
            rows.append(CaseRow(k=k, n=n, u_star=chosen, beta_bound=bound,
                                passed=bound <= FIFTIETH))
    return rows


def girth5_csv(rows: list[CaseRow]) -> str:
    """CSV rendering of the case table (exact bound plus a decimal column)."""
    lines = ["k,n,u,bound,bound_decimal,pass"]
    for r in rows:
        lines.append(
            f"{r.k},{r.n},{r.u_star},{r.beta_bound},{float(r.beta_bound):.6f},{r.passed}"
        )
    return "\n".join(lines) + "\n"
