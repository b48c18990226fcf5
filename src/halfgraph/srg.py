"""Parameter algebra for triangle-free strongly regular graphs.

A TFSR graph other than K_{n,n} and C5 is determined by two positive integers
(q, c): q is the positive non-principal eigenvalue and c the number of common
neighbors of non-adjacent pairs.  Degree and order follow as
k = (q+1)c + q^2 and n = 1 + (k/c)(k-1+c); the edge density is the rational
function Q(q, c), and the Krein boundary c = q(q+1) gives the one-parameter
family Q1(q).  The `srg.*` rows of `halfgraph.verify` prove the closed forms
and run the case analysis behind the strongly-regular theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import Polynomial, RationalFunc


@dataclass(frozen=True)
class SrgParams:
    q: int
    c: int
    k: int
    n: Fraction  # rational in general; integrality is the admissibility flag

    @property
    def admissible(self) -> bool:
        return self.n.denominator == 1


def srg_from_qc(q: int, c: int) -> SrgParams:
    """Derived TFSR parameters; ValueError outside 1 <= c <= q(q+1).

    n = 1 + (k/c)(k-1+c) is built as the single Fraction (c + k(k-1+c))/c.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if not 1 <= c <= q * (q + 1):
        raise ValueError(f"c = {c} outside the admissible range [1, {q * (q + 1)}]")
    k = (q + 1) * c + q * q
    n = Fraction(c + k * (k - 1 + c), c)
    return SrgParams(q=q, c=c, k=k, n=n)


def _rho_closed_form() -> RationalFunc:
    q = Polynomial.var("q")
    c = Polynomial.var("c")
    num = c * (q * c + q**2 + c)
    den = (q * c + q**2 + 2 * c + q) * (q * c + q**2 + c - q)
    return RationalFunc(num, den)


def rho_qc(q: int, c: int) -> Fraction:
    """Edge density k/n of the TFSR parameters (q, c).

    Equal to the closed form Q(q, c) on every cell; the report row
    `srg.closed_forms` proves that identity once, symbolically.  n is a
    reduced Fraction and k a positive int, so k/n is built as the single
    Fraction k*den(n) / num(n).
    """
    p = srg_from_qc(q, c)
    return Fraction(p.k * p.n.denominator, p.n.numerator)


def srg_c4(p: SrgParams) -> Fraction:
    """Closed-form 4-cycle density 3*(k^2 + c^2*(n-k-1))/n^3 (degenerate tuples included)."""
    return 3 * (p.k**2 + p.c**2 * (p.n - p.k - 1)) / p.n**3


def regular_beta_bound(edge_density: Fraction, c4: Fraction) -> Fraction:
    """beta bound for regular triangle-free graphs with 0 < rho < 1/2.

    The certifying half exists only for rho <= 1/4 (its inner weight is
    (1/2 - 2*rho)/(1 - 2*rho)); above that the formula still evaluates but
    stops being a bound, e.g. it returns 0 at C5's densities.
    """
    r = Fraction(edge_density)
    if not 0 < r < Fraction(1, 2):
        raise ValueError(f"edge density {r} outside (0, 1/2)")
    return (Fraction(2, 3) * c4 + r**2 * (1 - 4 * r)) / (8 * r * (1 - 2 * r) ** 2)


def srg_beta_bound(q: int, c: int) -> Fraction:
    """beta bound c(cq+q^2-c) / (8q(q+1)(c+q)(c+q-1)) for TFSR parameters."""
    srg_from_qc(q, c)  # range validation
    return Fraction(c * (c * q + q * q - c), 8 * q * (q + 1) * (c + q) * (c + q - 1))


# ---------------------------------------------------------------------------
# Closed forms proved by the `srg.*` rows of `halfgraph.verify`
# ---------------------------------------------------------------------------

def _dqdc_numerator_factor() -> Polynomial:
    """Expected factor of dQ/dc's numerator; the row `srg.dq_dc_identity` proves it."""
    q, c = Polynomial.var("q"), Polynomial.var("c")
    return c**2 * q**2 + 2 * c * q**3 + q**4 + c**2 * q - q**3 - c**2 - 2 * q * c
