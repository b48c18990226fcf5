"""Tests for the strongly-regular parameter algebra."""

from fractions import Fraction

import pytest

from halfgraph.density import c4_density, rho
from halfgraph import srg
from halfgraph.exactmath import RHO0, Polynomial, RationalFunc
from halfgraph.graphcore import named, srg_parameters
from halfgraph.srg import (
    SrgParams,
    regular_beta_bound,
    rho_qc,
    srg_beta_bound,
    srg_c4,
    srg_from_qc,
)
from halfgraph.verify import srg_case_analysis


def qc_of(params4: tuple[int, int, int, int]) -> tuple[int, int]:
    """(q, c) from an (n, k, 0, mu) parameter tuple."""
    _, k, _, c = params4
    s2 = c * c + 4 * (k - c)
    s = int(s2**0.5)
    assert s * s == s2
    return (s - c) // 2, c


def test_srg_from_qc_examples():
    p = srg_from_qc(1, 1)
    assert (p.k, p.n) == (3, 10)
    p = srg_from_qc(1, 2)
    assert (p.k, p.n) == (5, 16)
    p = srg_from_qc(3, 12)
    assert (p.k, p.n) == (57, 324)
    assert p.admissible


def _oracle_n(q: int, c: int) -> Fraction:
    """n = 1 + (k/c)(k-1+c), step by step: what the single-Fraction form replaced."""
    k = (q + 1) * c + q * q
    return 1 + Fraction(k, c) * (k - 1 + c)


def _oracle_rho_qc(q: int, c: int) -> Fraction:
    """k/n as a Fraction quotient: what the integer form of rho_qc replaced."""
    return ((q + 1) * c + q * q) / _oracle_n(q, c)


# The algebra benchmark's grid: every cell with q <= 14, inadmissible ones included.
GRID = [(q, c) for q in range(1, 15) for c in range(1, q * (q + 1) + 1)]


def test_srg_from_qc_and_rho_qc_match_the_oracles_on_the_grid():
    assert len(GRID) == 1120
    for q, c in GRID:
        p = srg_from_qc(q, c)
        assert type(p.n) is Fraction and p.n == _oracle_n(q, c), (q, c)
        value = rho_qc(q, c)
        assert type(value) is Fraction and value == _oracle_rho_qc(q, c), (q, c)


def test_srg_from_qc_flags_inadmissible():
    p = srg_from_qc(2, 5)
    assert not p.admissible
    assert p.n == Fraction(442, 5)


def test_srg_from_qc_range_errors():
    with pytest.raises(ValueError):
        srg_from_qc(2, 7)  # above q(q+1) = 6
    with pytest.raises(ValueError):
        srg_from_qc(2, 0)
    with pytest.raises(ValueError):
        srg_from_qc(0, 1)


def test_rho_qc_known_values():
    assert rho_qc(2, 1) == Fraction(7, 50)
    assert rho_qc(3, 11) == Fraction(583, 3350)
    assert rho_qc(4, 20) == Fraction(29, 196)
    assert rho_qc(4, 20) < RHO0
    assert rho_qc(2, 1) < RHO0
    assert rho_qc(3, 11) < RHO0


def test_rho_qc_matches_the_closed_form_on_every_cell():
    closed = srg._rho_closed_form()
    for q in range(1, 11):
        for c in range(1, q * (q + 1) + 1):
            assert rho_qc(q, c) == closed.eval({"q": Fraction(q), "c": Fraction(c)}), (q, c)


def test_krein_rho_matches_q1():
    for q in range(1, 21):
        assert rho_qc(q, q * (q + 1)) == Fraction(q * q + 3 * q + 1, q * (q + 3) ** 2)


def test_closed_forms_row_catches_a_broken_closed_form(monkeypatch):
    exact = srg._rho_closed_form()
    broken = RationalFunc(exact.num + Polynomial.var("q"), exact.den)
    monkeypatch.setattr(srg, "_rho_closed_form", lambda: broken)
    row = next(c for c in srg_case_analysis().checks if c.id == "srg.closed_forms")
    assert not row.passed and row.error is None
    assert row.computed == "k/n = Q(q, c): fails; Q(q, q(q+1)) = Q1(q): fails"


def test_srg_c4_closed_form():
    assert srg_c4(srg_from_qc(1, 1)) == Fraction(9, 200)
    assert srg_c4(srg_from_qc(1, 2)) == Fraction(195, 4096)
    c5 = SrgParams(q=0, c=1, k=2, n=Fraction(5))  # ad hoc record for C5
    assert 3 * (c5.k**2 + c5.c**2 * (c5.n - c5.k - 1)) / c5.n**3 == Fraction(18, 125)


def test_regular_beta_bound():
    assert regular_beta_bound(Fraction(3, 10), Fraction(9, 200)) == Fraction(1, 32)
    # at C5's densities the formula collapses to 0: the certificate behind it
    # needs rho <= 1/4, so this value is NOT a bound on beta(C5) = 1/50
    assert regular_beta_bound(Fraction(2, 5), Fraction(18, 125)) == 0
    with pytest.raises(ValueError):
        regular_beta_bound(Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        regular_beta_bound(Fraction(0), Fraction(0))


def test_srg_beta_bound_values():
    assert srg_beta_bound(3, 12) == Fraction(11, 560)
    assert srg_beta_bound(1, 1) == Fraction(1, 32)
    assert srg_beta_bound(1, 2) == Fraction(1, 48)
    assert srg_beta_bound(1, 2) <= Fraction(1, 32)


def test_srg_beta_equals_regular_beta_after_substitution():
    for q in range(1, 7):
        for c in range(1, q * (q + 1) + 1):
            p = srg_from_qc(q, c)
            if not p.admissible:
                continue
            assert srg_beta_bound(q, c) == regular_beta_bound(rho_qc(q, c), srg_c4(p))


def test_monotonicity():
    for q in range(1, 11):
        values = [rho_qc(q, c) for c in range(1, q * (q + 1) + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))
    krein = [rho_qc(q, q * (q + 1)) for q in range(1, 21)]
    assert all(a > b for a, b in zip(krein, krein[1:]))


def test_named_graphs_match_their_parameter_algebra():
    for name in ("petersen", "clebsch", "hoffman_singleton", "gewirtz", "m22", "higman_sims"):
        g = named(name).graph
        q, c = qc_of(srg_parameters(g))
        p = srg_from_qc(q, c)
        assert p.n == g.n
        assert Fraction(p.k, g.n) == rho(g)
        assert srg_c4(p) == c4_density(g)


def test_case_analysis_report():
    report = srg_case_analysis()
    assert report.ok, report.failures()
    by_id = {c.id: c for c in report.checks}
    assert report.checks[0].id == "srg.closed_forms"
    assert by_id["srg.q3_c12_krein"].computed == "11/560"
    assert by_id["srg.krein_q4_below_rho0"].computed == "29/196"
    assert by_id["srg.q2_c1_below_rho0"].computed == "7/50"
    assert by_id["srg.q2_c6_higman_sims"].passed
    assert by_id["srg.q2_c3_multiplicities"].computed == (
        "(n, k) = (66, 13), eigenvalues 2, -5: f = 312/7, g = 143/7")


def test_multiplicities_row_fails_on_integral_multiplicities(monkeypatch):
    # the Gewirtz parameters (56, 10, 0, 2) exist, and their f = 35, g = 20 are integers
    gewirtz = SrgParams(q=2, c=2, k=10, n=Fraction(56))
    monkeypatch.setattr(srg, "srg_from_qc", lambda q, c: gewirtz)
    row = next(c for c in srg_case_analysis().checks if c.id == "srg.q2_c3_multiplicities")
    assert not row.passed and row.error is None
    assert row.computed == "(n, k) = (56, 10), eigenvalues 2, -4: f = 35, g = 20"
