"""Constructive sparse halves for graphs with a large independence number.

Starting from a maximum independent set of density alpha >= 3/8 (n even), a
greedy pass absorbs vertices that bring few edges; the leftover structure is
split into the crowded vertices, a reservoir, and a pivot fan, and one of two
case constructions produces a half whose exact value is at most
(alpha/2) * (1/2 - alpha).
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Polynomial, RationalFunc
from .graphcore import Graph, _bits, _induced_edges, _mask_of, independence_number
from .halves import BoundCertificate, _fill, _mask_certificate, _split_half, _split_value, require


def grow_low_spill_set(g: Graph, start_mask: int, spill_cap: int, target: int) -> int:
    """Greedily absorb vertices with at most `spill_cap` neighbors in the set.

    Candidates are scanned in index order and the first qualifying vertex is
    accepted, until the set reaches `target` vertices or no vertex qualifies.
    Returns the grown mask.
    """
    adj, full = g.adj, (1 << g.n) - 1
    mask = start_mask
    while mask.bit_count() < target:
        outside = full & ~mask
        while outside:
            low = outside & -outside
            if (adj[low.bit_length() - 1] & mask).bit_count() <= spill_cap:
                break
            outside ^= low
        if not outside:
            break
        mask |= low
    return mask


def independence_half(g: Graph) -> BoundCertificate:
    """Build a half from a maximum independent set of g, with exact value.

    The set is `independence_number(g)`'s witness (the reservoir step needs a
    maximum set; a search past `graphcore.ALPHA_MAX_NODES` nodes raises
    ResourceLimitError), cut to its n/2 lowest vertices, so alpha = min(alpha(G),
    1/2).  Each half is certified by `_mask_certificate` (recording the
    `induced_edges` counted here) or, in the fractional case, by `_split_half`
    for the first pivot whose closed form `_split_value` is least; the
    analytic guarantee (alpha/2)(1/2 - alpha) rides in params, along with an
    `outside_hypothesis` flag when alpha < 3/8 (the construction still runs,
    the guarantee just is not asserted).
    """
    n = g.n
    if n % 2:
        raise ValueError("construction needs even n; blow the graph up by 2 first")
    a_mask = _mask_of(independence_number(g)[1][: n // 2])
    alpha = Fraction(a_mask.bit_count(), n)
    analytic = alpha / 2 * (Fraction(1, 2) - alpha)
    base_params = {"alpha": alpha, "analytic_bound": analytic,
                   "outside_hypothesis": alpha < Fraction(3, 8)}

    if a_mask.bit_count() == n // 2:
        return _mask_certificate(g, "independence", a_mask, 0,
                                 {**base_params, "case": "inside-independent-set"})

    spill_cap = n // 2 - a_mask.bit_count()  # = (1/2 - alpha) * n
    b_mask = grow_low_spill_set(g, a_mask, spill_cap, n // 2)
    p_b = Fraction(b_mask.bit_count(), n)
    b_edges = _induced_edges(g.adj, b_mask)
    rho_b = Fraction(b_edges, n * n)
    require(alpha <= p_b <= Fraction(1, 2), f"grown density {p_b} outside [{alpha}, 1/2]")
    require(rho_b <= 2 * (Fraction(1, 2) - alpha) * (p_b - alpha),
            f"grown set has edge density {rho_b} above its spill budget")

    if b_mask.bit_count() == n // 2:
        cert = _mask_certificate(g, "independence", b_mask, b_edges,
                                 {**base_params, "case": "greedy-filled", "p_b": p_b})
        require(cert.bound <= (Fraction(1, 2) - alpha) ** 2,
                f"greedy-filled half {cert.bound} above (1/2 - alpha)^2")
        return cert

    # every remaining vertex now spills more than the cap
    require(all((g.adj[v] & b_mask).bit_count() > spill_cap
                for v in range(n) if not b_mask >> v & 1),
            "greedy pass stopped while a vertex was still under the spill cap")

    # crowded vertices: more than half their edges land in the grown set
    c_mask = _mask_of(
        v for v in range(n)
        if not b_mask >> v & 1 and 2 * (g.adj[v] & b_mask).bit_count() > b_mask.bit_count()
    )
    require(_induced_edges(g.adj, c_mask) == 0,
            "crowded vertices are adjacent; they should share a grown-set neighbor")

    d_size = n - a_mask.bit_count() - b_mask.bit_count()  # (1 - alpha - p_b) * n
    free = [v for v in range(n) if not (b_mask | c_mask) >> v & 1]
    require(len(free) >= d_size,
            f"reservoir needs {d_size} vertices but only {len(free)} are outside "
            "the grown and crowded sets; contradicts the independence hypothesis")
    d_mask = _mask_of(free[:d_size])

    need = n // 2 - b_mask.bit_count()  # (1/2 - p_b) * n
    pivot = next(
        (v for v in _bits(b_mask) if (g.adj[v] & d_mask).bit_count() >= need), None
    )
    if pivot is not None:
        fan = list(_bits(g.adj[pivot] & d_mask))[:need]
        half_mask = b_mask | _mask_of(fan)
        return _mask_certificate(g, "independence", half_mask, _induced_edges(g.adj, half_mask),
                                 {**base_params, "case": "pivot-fan", "p_b": p_b, "pivot": pivot})

    # no pivot reaches the reservoir strongly: weight the rest fractionally,
    # rank the pivots by the closed form and certify only the first minimum
    best = None
    for v0 in _bits(b_mask):
        fan_mask = g.adj[v0] & d_mask
        top_mask, rest_mask = b_mask | fan_mask, d_mask & ~fan_mask
        require(rest_mask or 2 * top_mask.bit_count() == n,
                "empty remainder with weight left to place")
        p = _fill(n, top_mask, rest_mask)
        require(0 <= p <= 1, f"fractional weight {p} escaped [0, 1]")
        value = _split_value(g, top_mask, rest_mask)
        if best is None or value < best[0]:
            best = (value, v0, top_mask, rest_mask, p)
    require(best is not None, "fractional case: the grown set is empty")
    _, v0, top_mask, rest_mask, p = best
    return _split_half(g, "independence", top_mask, rest_mask, {
        **base_params, "case": "fractional-rest", "p_b": p_b, "pivot": v0, "p": p})


# ---------------------------------------------------------------------------
# Closed forms of the averaging analysis, proved by the
# `independence.*` rows of `halfgraph.verify`
# ---------------------------------------------------------------------------


def _q_form() -> RationalFunc:
    """The averaged two-moment bound Q(alpha, pb, rbd) of the fractional case."""
    a, b, r = Polynomial.variables_named("alpha", "pb", "rbd")
    num = (
        8 * a**2 * b**2 - 24 * a * b**3 - 4 * b**4 + 4 * a * b**2
        - 8 * a * b * r + 12 * b**3 - 4 * b**2 * r - 3 * b**2
        + 6 * b * r - 3 * r**2
    )
    return RationalFunc(num, 16 * b**2)


def _q1_form() -> Polynomial:
    a, b = Polynomial.variables_named("alpha", "pb")
    return (
        Fraction(13, 16) * a**2 - Fraction(9, 8) * a * b - Fraction(3, 16) * b**2
        - Fraction(1, 4) * a + Fraction(1, 2) * b
    )


def _saturated_rbd() -> Polynomial:
    """pb(1-alpha-pb), the reservoir cross-density at its upper bound."""
    a, b = Polynomial.variables_named("alpha", "pb")
    return b * (1 - a - b)
