"""Halves, exact minimum half-weight beta, and local search for good halves.

A half assigns each vertex a weight in [0,1] with total n/2; beta(G, mu) is
the normalized weighted edge mass (1/n^2) * sum_{(u,v) in E} mu(u)mu(v).  For
even n the minimum is attained on 0-1 halves, for odd n on halves with a
single weight 1/2, so the exact search only visits those.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .density import cross_density, part_density
from .graphcore import (
    Graph,
    IntegrityError,
    ResourceLimitError,
    _bits,
    _canonize,
    _induced_edges,
    _lowest_per_orbit,
    _mask_of,
    srg_parameters,
)


EXACT_MAX_N = 36  # beta_exact refuses larger graphs instead of searching
MAX_NODES = 20_000_000  # beta_exact's search-node budget
RESTARTS = 20  # local_search_half's random starts


class HalfError(ValueError):
    """Invalid weight vector for the given graph."""


class CertificateError(ArithmeticError):
    """A certified value disagrees with its closed form or analytic bound."""


def require(condition: bool, message: str) -> None:
    """Raise CertificateError unless `condition` holds; unlike assert, survives python -O."""
    if not condition:
        raise CertificateError(message)


def _fill(n: int, top: int, rest: int) -> Fraction:
    """The weight on rest that tops 1 on top up to n/2: (n - 2|top|)/(2|rest|), 0 for no rest."""
    return Fraction(n - 2 * top.bit_count(), 2 * rest.bit_count()) if rest else Fraction(0)


@dataclass(frozen=True)
class Half:
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = []
        for w in self.weights:
            if type(w) is not Fraction:
                if not isinstance(w, (int, Fraction)):  # a float would be inexact
                    raise HalfError(f"weight {w!r} is a {type(w).__name__}, not an int or Fraction")
                w = Fraction(w)
            weights.append(w)
        object.__setattr__(self, "weights", tuple(weights))

    @classmethod
    def from_masks(cls, n: int, top: int, rest: int) -> "Half":
        """The half with weight 1 on `top`, `_fill(n, top, rest)` on `rest` and 0 elsewhere."""
        if top & rest:
            raise HalfError("a vertex is in two weight classes")
        if (top | rest) >> n:
            raise HalfError(f"a mask has a vertex at or above n = {n}")
        weights = [Fraction(0)] * n
        for mask, weight in ((top, Fraction(1)), (rest, _fill(n, top, rest))):
            for v in _bits(mask):
                weights[v] = weight
        return cls(tuple(weights))

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self.weights) if w)


def beta_of_half(g: Graph, mu: Half) -> Fraction:
    """Exact (1/n^2) * sum over edges of mu(u)*mu(v), after validating mu.

    One pass groups the vertices into one mask per distinct weight; the
    range and the total are checked from those classes, the edges inside a
    class and between two classes are counted by popcounts, and each pair of
    classes costs one Fraction product.
    """
    if len(mu.weights) != g.n:
        raise HalfError(f"half has {len(mu.weights)} weights for {g.n} vertices")
    # (numerator, denominator) pairs hash and compare in C, unlike Fractions
    masks = {}
    for v, ratio in enumerate(map(Fraction.as_integer_ratio, mu.weights)):
        masks[ratio] = masks.get(ratio, 0) | 1 << v
    if any(p < 0 or p > q for p, q in masks):
        raise HalfError("weights must lie in [0, 1]")
    classes = [(Fraction(*ratio), mask) for ratio, mask in masks.items() if ratio[0]]
    weight = sum(w * mask.bit_count() for w, mask in classes)
    if 2 * weight != g.n:
        raise HalfError(f"weights sum to {weight}, expected {Fraction(g.n, 2)}")
    adj = g.adj
    total = Fraction(0)
    for i, (w, mask) in enumerate(classes):
        inside = _induced_edges(adj, mask)
        if inside:
            total += w * w * inside
        rows = [adj[v] for v in _bits(mask)]
        for w2, mask2 in classes[i + 1:]:
            between = sum([(r & mask2).bit_count() for r in rows])
            if between:
                total += w * w2 * between
    return total / g.n**2


@dataclass
class BoundCertificate:
    """A proved upper bound on beta(G) plus the witness that certifies it.

    `bound` is beta(G, half) recomputed from scratch; method-specific exact
    scalars (analytic bounds, split data) ride along in `params`.
    """

    method: str
    bound: Fraction
    half: Half
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"method": self.method, "bound": str(self.bound),
               "half": [str(w) for w in self.half.weights]}
        if self.params:
            out["params"] = {k: str(v) for k, v in self.params.items()}
        return out


def certificate(g: Graph, method: str, half: Half, params: dict | None = None) -> BoundCertificate:
    """Build a certificate whose bound is the independently recomputed beta."""
    return BoundCertificate(method=method, bound=beta_of_half(g, half), half=half,
                            params=dict(params or {}))


def _mask_certificate(g: Graph, method: str, mask: int, edges: int, params) -> BoundCertificate:
    """The half with weight 1 on the n//2-set mask, certified against the caller's count.

    For odd n the rest is `_odd_cost`'s vertex, weight 1/2, recorded as
    `pivot`.  `edges` is the caller's own count of the edges mask induces;
    the recomputed bound must equal (2 * edges + the pivot's cost) / (2n^2).
    """
    n = g.n
    rest, cost, params = 0, 0, {**params, "induced_edges": edges}
    if n % 2:
        cost, pivot = _odd_cost(g.adj, n, mask)
        rest = 1 << pivot
        params["pivot"] = pivot
    cert = certificate(g, method, Half.from_masks(n, mask, rest), params)
    expected = Fraction(2 * edges + cost, 2 * n * n)
    require(cert.bound == expected, f"{method}: bound {cert.bound} != {expected}")
    return cert


def _split_value(g: Graph, top: int, rest: int) -> Fraction:
    """rho_top + p * rho_{top,rest}/2 + p^2 * rho_rest, p = `_fill`: beta of `Half.from_masks`."""
    p = _fill(g.n, top, rest)
    return (part_density(g, top) + p * cross_density(g, top, rest) / 2
            + p**2 * part_density(g, rest))


def _split_half(g: Graph, method: str, top: int, rest: int, params) -> BoundCertificate:
    """`Half.from_masks(g.n, top, rest)`, certified against its closed form.

    The recomputed bound must equal `_split_value(g, top, rest)`.
    """
    cert = certificate(g, method, Half.from_masks(g.n, top, rest), params)
    closed_form = _split_value(g, top, rest)
    require(cert.bound == closed_form,
            f"{method}: bound {cert.bound} != closed form {closed_form}")
    return cert


# ---------------------------------------------------------------------------
# Exact minimum over halves
# ---------------------------------------------------------------------------


def _odd_cost(adj, n: int, mask: int) -> tuple[int, int]:
    """(doubled cost, vertex) of the best half-weight vertex outside mask.

    The cost of v is |N(v) & mask|; ties go to the lowest-index vertex.
    """
    return min(((adj[v] & mask).bit_count(), v) for v in range(n) if not mask >> v & 1)


def _transitive_blowup(adj) -> bool:
    """Whether the automorphisms `_canonize` meets on the twin quotient move one class to all.

    Twins have equal rows and are never adjacent.  When the graph is regular
    and every twin class has t vertices, it is the blow-up Q[t] of its twin
    quotient Q (one vertex per class, adjacent as their classes are), and
    every automorphism of Q lifts to it by mapping each class onto its image
    class.  So True proves the graph vertex-transitive; False proves nothing.
    """
    if len({row.bit_count() for row in adj}) > 1:
        return False
    classes = {}
    for v, row in enumerate(adj):
        classes[row] = classes.get(row, 0) | 1 << v
    masks = list(classes.values())
    if len({mask.bit_count() for mask in masks}) > 1:
        return False
    quotient = [_mask_of(j for j, mask in enumerate(masks) if row & mask) for row in classes]
    # Q is regular too, so it has no isolated vertex unless it is one vertex, and
    # `_canonize` returns its automorphisms in Q's own labels
    vertices = [1 << i for i in range(len(quotient))]
    return len(_lowest_per_orbit(vertices, _canonize(quotient)[2])) == 1


def beta_exact(g: Graph):
    """Exact beta(G) with a 0-1 (even n) or almost-0-1 (odd n) witness half.

    Include-first depth-first branch-and-bound over `order`, highest degree
    first, visiting at most MAX_NODES search nodes.  Graphs with more than
    EXACT_MAX_N vertices, or searches that exhaust the node budget, raise
    ResourceLimitError rather than approximating.

    A leaf replaces the incumbent only when strictly better, so the witness is
    the first optimal leaf in search order (or the lowest-degree incumbent).
    Twin-prefix rule: twins (equal adjacency rows, hence non-adjacent) can be
    swapped by an automorphism, so the search includes order[i] only when the
    previous twin of order[i] in `order` is already in the mask.  A leaf that
    breaks the rule has a swapped copy that is reached earlier with the same
    value, so the first optimal leaf is never cut and the witness is unchanged;
    on blow-ups this cuts the nodes (blowup(C5, 6): 90,803 -> 906).
    A node is cut when its edges plus the `need` smallest edge gains of the
    vertices left reach the incumbent.  The gains are nested masks: levels[j]
    holds the vertices with more than j neighbours in the mask.  Including a
    vertex with row r gives levels[0] | r and levels[j] | levels[j-1] & r,
    plus a new top level levels[-1] & r when that is non-zero; the exclude
    child has the same mask and passes its parent's list on.  Let R be the
    vertices left, left[index], and slack = |R| - need.  The |R & levels[j]|
    vertices of R with gain > j hold the largest gains, and all but `slack`
    of them are among the `need` smallest, so summing over the levels a
    vertex counts in gives the `need` smallest gains as
    sum_j max(0, |R & levels[j]| - slack).  The levels are nested, so the
    terms never grow and the sum stops at the first term <= 0.  Every node
    gets the bound that sorting its gains would give, so the search visits
    the same nodes and finds the same value and witness, at one popcount
    per level and no sort.

    Warm start: when the incumbent has edges, one steepest descent from it
    gives a half of doubled value D (with its half-weight cost for odd n).
    If D is below the incumbent, the search starts with bound D + 1 and no
    mask.  The witness is unchanged: a node is cut only when its bound is
    >= D + 1 > opt, and the bound of a node never exceeds the value of a leaf
    below it, so until the first optimal leaf is reached every node on its
    path has bound <= opt < best, and that leaf replaces the incumbent as in
    the cold search.  If the incumbent is already optimal, D is not lower and
    the search runs as it would cold.

    Symmetry at the root: once the root's include subtree (order[0] in the
    half) has returned, its exclude subtree is skipped when
    `_transitive_blowup` proves the graph vertex-transitive.  An automorphism
    that moves a vertex of an optimal half onto order[0] maps that half onto
    an optimal half containing order[0], with the same value (for odd n the
    half-weight vertex's cost moves with it).  Every leaf that contains
    order[0] comes before every leaf that does not, so the first optimal
    leaf, which the twin-prefix rule and the warm start both keep, lies in
    the include subtree.  The exclude subtree holds only later leaves, which
    never replace an optimal incumbent, so the value, the witness and its
    half-weight vertex are unchanged; if the starting incumbent is optimal,
    neither subtree replaces it.  Canonizing the twin quotient of q classes
    costs about 3.6 us per q^2, as much as about 5q^2 search nodes at
    0.7 us a node.  The proof is tried only when the include subtree has
    visited more than 5q^2 nodes: Petersen (67 nodes), Clebsch (1,143) and
    blowup(petersen, 2) (736) never pay for it, and blowup(petersen, 3)
    goes from 3,999 to 1,957 nodes.
    """
    n, adj = g.n, g.adj
    if n > EXACT_MAX_N:
        raise ResourceLimitError(
            f"n={n} exceeds the exact-search limit of {EXACT_MAX_N} vertices"
        )
    max_nodes = MAX_NODES
    half_size = n // 2
    odd = n % 2
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    rows = [adj[v] for v in order]
    # twin_bit[i]: bit of the last twin of order[i] before position i, else 0
    twin_bit = []
    last_seen = {}
    for v in order:
        twin_bit.append(last_seen.get(adj[v], 0))
        last_seen[adj[v]] = 1 << v

    def doubled(edges: int, mask: int) -> int:
        """2 * n^2 * beta of the half on mask, with its half-weight vertex for odd n."""
        return 2 * edges + (_odd_cost(adj, n, mask)[0] if odd else 0)

    # incumbent: the half made of the lowest-degree vertices
    best_mask = _mask_of(sorted(range(n), key=lambda u: adj[u].bit_count())[:half_size])
    best_doubled = doubled(_induced_edges(adj, best_mask), best_mask)
    if best_doubled:
        value = doubled(*_steepest_descent(adj, best_mask))
        if value < best_doubled:
            best_doubled, best_mask = value + 1, None

    # left[i]: the vertices order[i:] that are still undecided at position i
    left = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        left[i] = left[i + 1] | 1 << order[i]

    def walk(index: int, mask: int, size: int, edges: int, levels: list[int]):
        nonlocal nodes, best_doubled, best_mask
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(f"branch-and-bound exceeded {max_nodes} nodes")
        need = half_size - size
        if need == 0:
            value = doubled(edges, mask)
            if value < best_doubled:
                best_doubled, best_mask = value, mask
            return
        slack = n - index - need
        if slack < 0:
            return
        rest = left[index]
        bound = edges
        for level in levels:
            over = (rest & level).bit_count() - slack
            if over <= 0:
                break
            bound += over
        if 2 * bound >= best_doubled:
            return
        row = rows[index]
        if mask & twin_bit[index] == twin_bit[index]:
            grown = []
            below = -1
            for level in levels:
                grown.append(level | below & row)
                below = level
            if below & row:
                grown.append(below & row)
            walk(index + 1, mask | (1 << order[index]), size + 1,
                 edges + (row & mask).bit_count(), grown)
        walk(index + 1, mask, size, edges, levels)

    nodes = 1  # the root: mask 0 and bound 0, so it is cut only when best_doubled is 0
    if half_size and best_doubled:
        walk(1, 1 << order[0], 1, 0, [rows[0]])
        classes = len(last_seen)
        if nodes <= 5 * classes * classes or not _transitive_blowup(adj):
            walk(1, 0, 0, 0, [])
    rest = 1 << _odd_cost(adj, n, best_mask)[1] if odd else 0
    return Fraction(best_doubled, 2 * n * n), Half.from_masks(n, best_mask, rest)


# ---------------------------------------------------------------------------
# Local search on large graphs
# ---------------------------------------------------------------------------


def _steepest_descent(adj, mask: int):
    """Swap one in-vertex for one out-vertex while that strictly reduces edges.

    Takes the swap with the most negative delta; ties break at the
    lexicographically smallest (in-vertex, out-vertex) pair.  Returns
    (induced edge count, final mask).

    bins[d] is the mask of the vertices with d neighbours in the mask.  Moving
    u out of the mask and w into it changes the edges by
    delta = d(w) - d(u) - A(u, w) >= D0 - 1, where D0 = low - top, top the
    highest bin that meets the mask and low the lowest bin that meets its
    complement.  So the best swap uses an in-vertex of bin top or top - 1
    (U0, U1) and an out-vertex of bin low or low + 1 (W0, W1), and a scan of
    those four masks finds the same pair as a scan of all |in| * |out| pairs:
    delta = D0 - 1 needs u in U0 adjacent to w in W0; failing that,
    delta = D0 takes w in W0 | (W1 & adj[u]) for u in U0 and w in W0 & adj[u]
    for u in U1.  There are max degree + 2 bins, so bins[low + 1] exists and
    the last bin, bins[-1], is always empty: top - 1 and low - 1 may be -1.

    After the swap, u's neighbours lose one neighbour in the mask and w's gain
    one, so down = adj[u] & ~adj[w] moves one bin down and
    up = adj[w] & ~adj[u] one bin up.  A common neighbour loses u and gains w,
    so it stays in its bin.  No count moves by more than one and w enters at
    d(w) - A(u, w) <= low + 1 <= top + 1, so the next top is at most top + 1
    and the next low at least low - 1; the scans for them start there.  A swap
    costs O(max degree) mask operations and no pass over the vertices.
    """
    bins = [0] * (max(row.bit_count() for row in adj) + 2)
    for v, row in enumerate(adj):
        bins[(row & mask).bit_count()] |= 1 << v
    edges = sum(d * (b & mask).bit_count() for d, b in enumerate(bins)) // 2
    top, low = len(bins) - 1, -1
    while True:
        while not bins[top] & mask:
            top -= 1
        while not bins[low] & ~mask:
            low += 1
        d0 = low - top
        if d0 > 0:
            return edges, mask
        u0, u1 = bins[top] & mask, bins[top - 1] & mask
        w0, w1 = bins[low] & ~mask, bins[low + 1] & ~mask
        for u in _bits(u0):
            hits = adj[u] & w0
            if hits:
                delta = d0 - 1
                break
        else:
            if d0 == 0:
                return edges, mask
            delta = d0
            for u in _bits(u0 | u1):
                hits = w0 | (w1 & adj[u]) if u0 >> u & 1 else w0 & adj[u]
                if hits:
                    break
        w = (hits & -hits).bit_length() - 1
        mask ^= (1 << u) | (1 << w)
        edges += delta
        down, up = adj[u] & ~adj[w], adj[w] & ~adj[u]
        keep = ~(down | up)
        bins = [here & keep | (above & down) | (below & up)
                for below, here, above in zip([0, *bins], bins, [*bins[1:], 0])]
        top, low = top + 1, low - 1


def _edge_floor(g: Graph) -> int:
    """A lower bound on the edges that n/2 vertices of g induce; 0 unless g is an SRG.

    Donath-Hoffman: in a k-regular graph e(S, S') <= (k - lambda_min)|S||S'|/n,
    so |S| = n/2 induces at least n(k + lambda_min)/8 edges.  The eigenvalues
    of an SRG (n, k, lambda, mu) other than k are roots of
    x^2 - (lambda - mu)x - (k - mu), so 2t = d - ceil(sqrt(D)) with
    d = lambda - mu and D = d^2 + 4(k - mu) puts t at or below lambda_min.
    """
    try:
        n, k, lam, mu = srg_parameters(g)
    except IntegrityError:
        return 0
    d = lam - mu
    disc = d * d + 4 * (k - mu)
    root = isqrt(disc)
    root += root * root < disc
    return max(0, -(-n * (2 * k + d - root) // 16))


def local_search_half(g: Graph, seed: int = 1) -> BoundCertificate:
    """Randomly restarted steepest-descent search for a sparse 0-1 half.

    Deterministic for a given seed: restart r < RESTARTS draws its start
    from random.Random(f"{seed}:{r}"), and a half that meets `_edge_floor(g)`
    ends the search.  No half goes below the floor and the best half is
    replaced only by a strictly sparser one, so the stop never changes the
    result.  Returns the best certificate seen.
    """
    if g.n % 2:
        raise ValueError("local search needs even n; blow the graph up by 2 first")
    half_size = g.n // 2
    floor = _edge_floor(g)
    best = None
    for r in range(RESTARTS):
        rng = random.Random(f"{seed}:{r}")
        mask = _mask_of(rng.sample(range(g.n), half_size))
        edges, final_mask = _steepest_descent(g.adj, mask)
        require(edges >= floor, f"local search: {edges} induced edges, below the floor {floor}")
        if best is None or edges < best[0]:
            best = (edges, final_mask, r)
        if edges == floor:
            break
    edges, mask, found_at = best
    return _mask_certificate(g, "local-search", mask, edges,
                             {"seed": seed, "restarts": RESTARTS, "found_at_restart": found_at})
