"""Tests for the girth >= 5 case analysis."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from halfgraph.exactmath import Polynomial
from halfgraph.girth5 import (
    FIFTIETH,
    beta_u,
    first_bound,
    gamma,
    girth5_csv,
    girth5_master,
    girth5_report,
    n_window,
    ramsey3,
    trunc_sub,
)


def test_ramsey_table():
    assert [ramsey3(u) for u in range(6)] == [0, 1, 3, 6, 9, 14]
    with pytest.raises(ValueError):
        ramsey3(6)
    with pytest.raises(ValueError):
        ramsey3(-1)


def test_trunc_sub():
    assert trunc_sub(5, 3) == 2
    assert trunc_sub(3, 5) == 0
    assert trunc_sub(Fraction(1, 2), 1) == 0


def test_windows():
    assert n_window(2) == (5, 14)
    assert n_window(3) == (9, 27)
    assert n_window(4) == (16, 41)
    assert n_window(5) == (30, 54)
    lo, hi = n_window(6)
    assert lo > hi  # k = 6 dies to an empty window
    lo, hi = n_window(1)
    assert lo > hi  # so does k = 1
    with pytest.raises(ValueError):
        n_window(7)


def test_first_bound_values():
    assert first_bound(7, 15) == FIFTIETH - Fraction(199, 1125)
    assert first_bound(7, 15) <= FIFTIETH
    # k = 6, n = 13: the subtracted term is positive, so still below 1/50
    assert first_bound(6, 13) == FIFTIETH - Fraction(143, 845)
    assert first_bound(6, 13) < FIFTIETH
    with pytest.raises(ValueError):
        first_bound(3, 6)  # n < 2k + 1


def test_first_bound_settles_high_degree():
    # every k >= 7, n >= 2k + 1 is k = 7 + s, n = 15 + 2s + t with s, t >= 0, where a
    # polynomial with positive coefficients is positive: the whole domain, not a grid
    s, t = Polynomial.variables_named("s", "t")
    k, n = 7 + s, 15 + 2 * s + t
    margin = n * (4 * k - 25) + 50 * k - 4 * k * k
    assert margin == 4 * s**2 + 4 * s * t + 60 * s + 3 * t + 199
    assert all(c > 0 for c in margin.terms.values())
    for k in range(7, 41):
        for n in range(2 * k + 1, 201):
            assert n * (4 * k - 25) + 50 * k - 4 * k * k >= 0
            assert first_bound(k, n) <= FIFTIETH


def test_gamma_base_cases():
    assert gamma(3, 10, 5, 2) == Fraction(2, 100)
    assert gamma(3, 11, 5, 1) == Fraction(2, 121)
    assert gamma(2, 6, 2, 0) >= 0
    with pytest.raises(ValueError):
        gamma(3, 10, 6, 0)  # t beyond floor(n/2)


def test_gamma_zero_edge_propagation():
    # with no edges and low degree, the zero chains all the way down
    assert gamma(1, 12, 1, 0) == 0
    assert gamma(2, 11, 5, 0) == Fraction(1, 242)


def test_gamma_monotone_in_e():
    rng = random.Random(13)
    for _ in range(120):
        k = rng.randint(1, 5)
        n = rng.randint(6, 30)
        t = rng.randint(1, n // 2)
        e = rng.randint(0, 6)
        assert gamma(k, n, t, e) <= gamma(k, n, t, e + 1)


@lru_cache(maxsize=None)
def _gamma_max_form(k, n, t, e):
    # the recursion as derived: maximize over every edge count e* <= e at each step
    if n % 2 == 0 and t == n // 2:
        return Fraction(e, n * n)
    if n % 2 == 1 and t == (n - 1) // 2:
        return max(Fraction(2 * s + (k * t - 2 * s) // (n - t), 2) for s in range(e + 1)) / (n * n)
    return _gamma_max_form(k, n, t + 1, max(s + (k * t - 2 * s) // (n - t) for s in range(e + 1)))


def test_gamma_takes_each_maximum_at_the_full_edge_count():
    mismatches = [(k, n, t, e) for k in range(8) for n in range(1, 40)
                  for t in range(n // 2 + 1) for e in range(12)
                  if gamma(k, n, t, e) != _gamma_max_form(k, n, t, e)]
    assert mismatches == []


def test_beta_u_hand_values():
    assert beta_u(2, 5, 1) == Fraction(1, 50)
    assert beta_u(3, 10, 2) == Fraction(1, 50)
    assert beta_u(2, 5, 1, truncated_inner=True) == Fraction(1, 50)


def test_the_two_subtraction_readings_coincide():
    cells = [(k, n, u) for k in range(2, 6) for n in range(n_window(k)[0], n_window(k)[1] + 1)
             for u in range(6) if beta_u(k, n, u) is not None]
    assert len(cells) == 439
    for cell in cells:
        assert beta_u(*cell) == beta_u(*cell, truncated_inner=True), cell
    # outside the window R(3, u) - |C| can be negative at u = u_star: the plain
    # inner term is then negative, the truncated one 0, and both bounds are 0
    assert ramsey3(1) - (4 - 1 - 1) < 0
    assert beta_u(1, 4, 1) == beta_u(1, 4, 1, truncated_inner=True) == 0
    assert girth5_report(True) == girth5_report(False)


def test_beta_u_inadmissible_is_none():
    assert beta_u(2, 11, 4) is None  # R(3,4) = 9 > n - k - 1 = 8
    assert beta_u(2, 5, 2) is None  # above ceil(n/2 - k)
    assert beta_u(3, 10, 0) is not None  # u = 0 always admissible in-window


def test_master_examples():
    assert girth5_master(2, 5)[0] <= FIFTIETH
    assert girth5_master(3, 10)[0] <= FIFTIETH


def test_report_shape_and_bounds():
    for variant in (False, True):
        rows = girth5_report(truncated_inner=variant)
        assert len(rows) == 80
        assert all(isinstance(r.beta_bound, Fraction) for r in rows)
        per_k = {}
        for r in rows:
            per_k[r.k] = per_k.get(r.k, 0) + 1
        assert per_k == {2: 10, 3: 19, 4: 26, 5: 25}
        assert all(r.passed for r in rows)
        assert all(r.beta_bound <= FIFTIETH for r in rows)


def test_extremal_cells_are_tight():
    rows = girth5_report()
    worst = max(r.beta_bound for r in rows)
    assert worst == FIFTIETH
    tight = {(r.k, r.n) for r in rows if r.beta_bound == FIFTIETH}
    # exactly the pentagon and Petersen cells sit on the boundary
    assert tight == {(2, 5), (3, 10)}


def test_master_never_exceeds_first_bound_on_the_table():
    for r in girth5_report():
        assert r.beta_bound <= first_bound(r.k, r.n)


def test_csv_rendering():
    rows = girth5_report()
    text = girth5_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "k,n,u,bound,bound_decimal,pass"
    assert len(lines) == 81
    assert lines[1].startswith("2,5,")
