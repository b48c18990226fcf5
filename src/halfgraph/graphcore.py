"""Graphs as adjacency bit-rows: predicates, graph6 I/O, enumeration, named graphs.

Neighborhoods are Python ints used as bitsets, so intersection tests are
single word operations; that is what keeps the subset searches over the
16..100-vertex named graphs cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import inf


ENUM_MAX_N = 10  # enumerate_triangle_free refuses larger levels instead of running unbounded
ALPHA_MAX_NODES = 500_000  # independence_number's search-node budget


class ResourceLimitError(Exception):
    """An exact search or enumeration exceeded its size limit or budget (never approximated)."""


class IntegrityError(Exception):
    """A graph is not the strongly regular graph it was taken for.

    `srg_parameters` raises it for any graph that is not strongly regular
    (`halves._edge_floor` reads that as "no spectral floor"), and `named`
    raises it when a built graph has other SRG parameters than its name's.
    """


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph; `adj[v]` is the bitmask of N(v)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        adj = tuple(adj)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for u in _bits(adj[v]):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")
        self.n = n
        self.adj = adj

    @classmethod
    def _trusted(cls, n: int, adj: tuple) -> "Graph":
        """Wrap rows the caller built symmetric, loop-free and below 1 << n; no checks."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(self.adj[v].bit_count() for v in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def subgraph(self, vertices) -> "Graph":
        """Induced subgraph on `vertices`, relabeled in sorted order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in _bits(self.adj[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        return Graph(len(keep), rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _induced_edges(adj, mask: int) -> int:
    """Number of edges with both ends in `mask`."""
    return sum((adj[v] & mask).bit_count() for v in _bits(mask)) // 2


def _induced_2matchings(g: Graph):
    """Every (a, b, c, d) with edges ab before cd in g.edges() and no other edge among them.

    cd runs over the edges inside `rest`, the vertices above a outside
    N(a) | N(b), in g.edges() order, so dense graphs stay cheap; rest holds
    neither a nor b, since a lies in N(b) and b in N(a).
    """
    adj, full = g.adj, (1 << g.n) - 1
    for a, b in g.edges():
        rest = full & ~(adj[a] | adj[b]) & ~((2 << a) - 1)
        for c in _bits(rest):
            for d in _bits(adj[c] & rest & ~((2 << c) - 1)):
                yield a, b, c, d


# ---------------------------------------------------------------------------
# Small constructors
# ---------------------------------------------------------------------------


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def blowup(g: Graph, t: int) -> Graph:
    """Replace every vertex by t pairwise non-adjacent twins."""
    if t < 1:
        raise ValueError("blow-up factor must be >= 1")
    rows = [0] * (g.n * t)
    for u, v in g.edges():
        for i in range(t):
            for j in range(t):
                rows[u * t + i] |= 1 << (v * t + j)
                rows[v * t + j] |= 1 << (u * t + i)
    return Graph(g.n * t, rows)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[u] & g.adj[v] for u, v in g.edges())


def girth(g: Graph):
    """Length of the shortest cycle; math.inf for forests.

    A breadth-first search from each vertex, one level mask at a time.  The
    first edge that is not a tree edge closes the shortest cycle it finds: an
    edge inside level d closes one of length 2d + 1, and a vertex of level
    d + 1 with two neighbours in level d one of length 2d + 2.  The least
    over all starts is the girth.
    """
    adj, best = g.adj, inf
    for start in range(g.n):
        seen = level = 1 << start
        d = 0
        while level and 2 * d + 1 < best:
            if any(adj[u] & level for u in _bits(level)):
                best = 2 * d + 1
                break
            nxt = 0
            for u in _bits(level):
                nxt |= adj[u]
            nxt &= ~seen
            if any((adj[w] & level).bit_count() > 1 for w in _bits(nxt)):
                best = 2 * d + 2
                break
            seen |= nxt
            level, d = nxt, d + 1
    return best


def has_induced_2matching(g: Graph) -> bool:
    """Two edges on four distinct vertices spanning no other edge."""
    return next(_induced_2matchings(g), None) is not None


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set size plus one witness, by branch-and-bound.

    Every mask is walked lowest vertex first with `low = m & -m`.  A search
    that visits more than ALPHA_MAX_NODES nodes raises ResourceLimitError.
    """
    n, adj = g.n, g.adj
    nodes = 0
    closed = [adj[v] | (1 << v) for v in range(n)]

    # greedy start: repeatedly take the lowest vertex of least degree
    mask = (1 << n) - 1
    greedy = 0
    while mask:
        least, m = n, mask
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            d = (adj[u] & mask).bit_count()
            if d < least:
                least, v = d, u
        greedy |= 1 << v
        mask &= ~closed[v]
    best_size = greedy.bit_count()
    best_set = greedy

    def expand(cand: int, chosen: int, size: int):
        nonlocal best_size, best_set, nodes
        nodes += 1
        if nodes > ALPHA_MAX_NODES:
            raise ResourceLimitError(f"independence search exceeded {ALPHA_MAX_NODES} nodes")
        if not cand:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        # alpha(P) <= |P| - (size of a greedy matching inside P); m keeps the
        # unmatched vertices above the current one
        count = cand.bit_count()
        bound = count
        m = cand
        while m:
            low = m & -m
            m ^= low
            nb = adj[low.bit_length() - 1] & m
            if nb:
                m ^= nb & -nb
                bound -= 1
        if size + bound <= best_size:
            return
        # branch on the last vertex of maximum degree inside P
        top_deg, total, m = -1, 0, cand
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            d = (adj[u] & cand).bit_count()
            total += d
            if d >= top_deg:
                top_deg, v = d, u
        if top_deg <= 1:
            # paths of length one and isolated vertices: take |P| - #edges
            extra = count - total // 2
            if size + extra > best_size:
                pick = 0
                m = cand
                while m:
                    low = m & -m
                    pick |= low
                    m &= ~closed[low.bit_length() - 1]
                best_size, best_set = size + extra, chosen | pick
            return
        expand(cand & ~closed[v], chosen | (1 << v), size + 1)
        expand(cand & ~(1 << v), chosen, size)

    expand((1 << n) - 1, 0, 0)
    return best_size, tuple(_bits(best_set))


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_decode_n(data: bytes):
    """(n, offset past the size field): one byte, "~" plus 3 base-64 digits, or "~~" plus 6."""
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    c0 = data[0]
    if c0 != 126:
        if not 63 <= c0 <= 125:
            raise Graph6Error(f"invalid size byte {c0}", 0)
        return c0 - 63, 1
    start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise Graph6Error(f"truncated {end}-byte size field", len(data))
    n = 0
    for b in data[start:end]:
        if not 63 <= b <= 126:
            raise Graph6Error("invalid size byte", start)
        n = n << 6 | b - 63
    return n, end


def load_graph6(data) -> Graph:
    """Parse one graph6 record (optionally prefixed by the standard header)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_G6_HEADER.encode("ascii")):
        data = data[len(_G6_HEADER) :]
    n, offset = _g6_decode_n(data)
    if n < 1:
        raise Graph6Error("graph6 record with no vertices", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[offset : offset + nbytes]
    if len(body) < nbytes:
        raise Graph6Error("truncated bit vector", offset + len(body))
    if len(data) > offset + nbytes:
        raise Graph6Error("trailing bytes after the bit vector", offset + nbytes)
    bits = 0
    for i, b in enumerate(body):
        if not 63 <= b <= 126:
            raise Graph6Error(f"invalid data byte {b}", offset + i)
        bits = bits << 6 | (b - 63)
    bits >>= 6 * nbytes - nbits  # drop the padding
    rows = [0] * n
    pos = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> pos & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pos -= 1
    return Graph(n, rows)


def save_graph6(g: Graph) -> str:
    """Encode in standard graph6 (short or long size field as appropriate)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)]
    bits = 0
    nbits = n * (n - 1) // 2
    for v in range(1, n):
        for u in range(v):
            bits = bits << 1 | (g.adj[u] >> v & 1)
    bits <<= (6 - nbits % 6) % 6
    nbytes = (nbits + 5) // 6
    body = [((bits >> 6 * (nbytes - 1 - i)) & 63) + 63 for i in range(nbytes)]
    return bytes(head + body).decode("ascii")


# ---------------------------------------------------------------------------
# Canonical labeling (degree refinement + individualization)
# ---------------------------------------------------------------------------


def _refine(adj, cells, settled=0):
    """Equitable refinement of an ordered partition into int-mask cells; deterministic.

    A cell's vertices are its set bits, in increasing order. Splitters are
    tried in cell order, and the first one that splits a cell splits every
    cell it can: the pieces follow their count of neighbours in the splitter,
    lowest first (for a singleton splitter {s}, the non-neighbours of s, then
    its neighbours). The loop ends once every cell is a singleton or no cell
    splits another. A splitter that splits nothing still splits nothing once
    the cells are finer, and neither does one that was just applied, so such
    a cell is not tried again until it is split itself. `settled` is the union
    of the cells known to split nothing on entry, as every cell of an
    equitable partition does; this leaves the result unchanged.
    """
    cells = list(cells)
    n = len(adj)
    i = 0
    while i < len(cells) < n:
        smask = cells[i]
        if smask & settled == smask:
            i += 1
            continue
        settled |= smask
        out = None  # the split partition, built from the first cell that splits
        if smask & (smask - 1):
            for k, cell in enumerate(cells):
                if cell & (cell - 1):
                    groups: dict[int, int] = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        count = (adj[low.bit_length() - 1] & smask).bit_count()
                        groups[count] = groups.get(count, 0) | low
                        rest ^= low
                    if len(groups) > 1:
                        if out is None:
                            out, first = cells[:k], k
                        out.extend(groups[key] for key in sorted(groups))
                        settled &= ~cell
                        continue
                if out is not None:
                    out.append(cell)
        else:
            row = adj[smask.bit_length() - 1]
            for k, cell in enumerate(cells):
                hit = cell & row
                if hit and hit != cell:
                    if out is None:
                        out, first = cells[:k], k
                    out.append(cell ^ hit)
                    out.append(hit)
                    settled &= ~cell
                elif out is not None:
                    out.append(cell)
        if out is None:
            i += 1
        else:
            cells = out
            i = min(i + 1, first)
    return cells


def _cell_is_twin_class(adj, cell):
    """True when any ordering inside the cell yields the same labeled graph."""
    low = cell & -cell
    outside = adj[low.bit_length() - 1] & ~cell
    inner_empty = inner_full = True
    for v in _bits(cell):
        row = adj[v]
        if row & ~cell != outside:
            return False
        inner = row & cell
        inner_empty = inner_empty and not inner
        inner_full = inner_full and inner == cell ^ (1 << v)
    return inner_empty or inner_full


def _perm_key(adj, perm):
    """Row i holds bit j when perm[i] and perm[j] are adjacent, for j < i.

    Only the neighbours placed earlier are walked: `seen` is the mask of the
    vertices placed so far and `bit[u]` the position bit of a placed vertex u.
    """
    bit = [0] * len(adj)
    seen = 0
    rows = []
    for i, v in enumerate(perm):
        row = 0
        rest = adj[v] & seen
        while rest:
            low = rest & -rest
            row |= bit[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
        bit[v] = 1 << i
        seen |= 1 << v
    return tuple(rows)


def _canon_core(adj, n):
    """(key, perm, automorphisms): the smallest `_perm_key` over the search's
    leaves, the leaf order `perm` that first gave it, and the automorphisms met.

    The search individualizes a vertex of the first non-singleton cell and
    refines, down to discrete partitions (the leaves); a twin-class cell is
    split whole, since its order does not change the key. Two leaves with
    equal keys give an automorphism gamma, as a list with gamma[u] the image
    of u. An automorphism that fixes every singleton of a node's partition
    fixes the partition, so it maps the subtree of one child onto the subtree
    of another with the same keys: a child in the orbit of an explored
    sibling under such automorphisms is skipped, and the minimum key stays
    the one of the whole tree.
    """
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    best = best_perm = None
    found = []  # (permutation, mask of its fixed points)

    def search(cells):
        nonlocal best, best_perm
        idx = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if idx is None:
            perm = [c.bit_length() - 1 for c in cells]
            key = _perm_key(adj, perm)
            if best is None or key < best:
                best, best_perm = key, perm
            elif key == best:
                gamma = [0] * n
                for u, v in zip(best_perm, perm):
                    gamma[u] = v
                found.append((gamma, sum(1 << v for v in range(n) if gamma[v] == v)))
            return
        cell = cells[idx]
        head, tail = cells[:idx], cells[idx + 1:]
        if _cell_is_twin_class(adj, cell):
            search(_refine(adj, head + [1 << v for v in _bits(cell)] + tail, ~cell))
            return
        fixed = sum(c for c in cells if not c & (c - 1))
        explored = 0  # the explored children, closed under the usable automorphisms
        for v in _bits(cell):
            if explored >> v & 1:
                continue
            search(_refine(adj, head + [1 << v, cell ^ (1 << v)] + tail, ~cell))
            explored |= 1 << v
            gens = [gamma for gamma, fix in found if not fixed & ~fix]
            todo = explored
            while todo:
                low = todo & -todo
                todo ^= low
                u = low.bit_length() - 1
                for gamma in gens:
                    w = 1 << gamma[u]
                    if not explored & w:
                        explored |= w
                        todo |= w

    search(_refine(adj, [by_degree[d] for d in sorted(by_degree)]))
    return best, best_perm, [gamma for gamma, _ in found]


def _canonize(adj):
    """(key, perm, automorphisms) of the graph with rows `adj`.

    Isolated vertices are stripped first (they only contribute a count), and
    the other vertices, the core, are relabeled 0, 1, ... in increasing order.
    `perm` and the automorphisms are `_canon_core`'s on the core rows, in
    those labels; the key is (n, number of isolated vertices, core key).
    """
    n = len(adj)
    core = [v for v in range(n) if adj[v]]
    if not core:
        return (n, n, ()), [], []
    rows = adj
    if len(core) < n:
        rows = [sum(1 << i for i, u in enumerate(core) if row >> u & 1) for row in adj if row]
    key, perm, automorphisms = _canon_core(rows, len(core))
    return (n, n - len(core), key), perm, automorphisms


def canonical_key(g: Graph) -> tuple:
    """Hashable isomorphism certificate: equal keys iff isomorphic graphs.

    The key is (n, number of isolated vertices, the rows of the core in
    canonical order, each as the bitmask of its earlier neighbours); see
    `_canonize`. Stripping isolated vertices keeps the search tree small on
    near-empty graphs.
    """
    return _canonize(g.adj)[0]


# ---------------------------------------------------------------------------
# Enumeration of triangle-free graphs up to isomorphism
# ---------------------------------------------------------------------------


def _graph_from_key(key: tuple) -> Graph:
    """The canonical form of a class: core rows in canonical order, isolated vertices last."""
    n, _, core = key
    rows = [0] * n
    for i, lower in enumerate(core):
        rows[i] |= lower
        for j in _bits(lower):
            rows[j] |= 1 << i
    return Graph._trusted(n, tuple(rows))


def _attachment_masks(g: Graph):
    """Independent attachment masks that hold every isolated vertex, in increasing
    numeric order, twins taken lowest-first.

    A mask spans no edge, so the child it makes stays triangle-free, and it
    holds every isolated vertex, so the child has none. Twins are vertices
    with equal rows; swapping two of them is an automorphism of g, hence an
    isomorphism of the children that fixes the new vertex. A mask that takes
    a twin but not a lower one maps, by that swap, to a smaller mask of the
    same size, so the masks left out lose no class.
    """
    subsets = [0]
    last_twin: dict[int, int] = {}
    for v in range(g.n):
        row = g.adj[v]
        if not row:
            subsets = [s | (1 << v) for s in subsets]
            continue
        need = last_twin.get(row, 0)
        last_twin[row] = 1 << v
        lower = [s for s in subsets if not row & s and s & need == need]
        subsets.extend(s | (1 << v) for s in lower)
    return subsets


def _new_vertex_wins(adj, deg, nsum, mask) -> bool:
    """True when the vertex joined to `mask` has the largest sum of neighbour
    degrees among the child's vertices of its degree |mask|.

    `deg` and `nsum` are the parent's degrees and sums of neighbour degrees;
    in the child a vertex w gains one degree, and |mask| on its sum, when it
    is in the mask, and one on its sum per neighbour in the mask.
    """
    k = mask.bit_count()
    own = k + sum(deg[v] for v in _bits(mask))
    for w, row in enumerate(adj):
        inside = mask >> w & 1
        if deg[w] + inside == k and nsum[w] + (row & mask).bit_count() + inside * k > own:
            return False
    return True


def _lowest_per_orbit(masks, perms):
    """The lowest of `masks` (increasing) in each orbit of the group that `perms` generate."""
    seen: set[int] = set()
    kept = []
    for mask in masks:
        if mask in seen:
            continue
        kept.append(mask)
        seen.add(mask)
        todo = [mask]
        while todo:
            image = todo.pop()
            for perm in perms:
                moved = 0
                for v in _bits(image):
                    moved |= 1 << perm[v]
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return kept


def _on_canonical_form(perm, automorphisms):
    """`_canonize`'s automorphisms of a graph with no isolated vertex, moved onto
    its canonical form.

    Vertex i of the form is vertex perm[i], so gamma becomes
    i -> pos[gamma[perm[i]]], with pos the inverse of perm. Each comes back
    as `bytes` (n < 256).
    """
    pos = [0] * len(perm)
    for i, v in enumerate(perm):
        pos[v] = i
    return tuple(bytes([pos[gamma[v]] for v in perm]) for gamma in automorphisms)


@lru_cache(maxsize=None)
def _triangle_free_level(n: int) -> tuple[tuple[Graph, ...], tuple[tuple[bytes, ...], ...]]:
    """The canonical form of every class on n vertices, sorted by canonical key,
    and for each some automorphisms of that form.

    A class with an isolated vertex is an (n-1)-vertex class P plus K1, and
    is listed straight from P with no search: P's key (n - 1, iso, core),
    read off its form, gives the key (n, iso + 1, core), the form is P's
    rows plus a zero row, and the automorphisms are P's with the new vertex
    fixed. Every other class is a child of some P by a mask of
    `_attachment_masks`. A child is kept only when its new vertex has maximum
    degree (with k = |mask| and D the parent's maximum degree, k >= D, and
    k > D if the mask holds a vertex of degree D) and wins the tie-break of
    `_new_vertex_wins`. Of the masks left, one per orbit under the parent's
    stored automorphisms is kept. Only the children kept are canonized, each
    once; such a class stores the automorphisms met by the canonization of
    the first child that gave its key.
    """
    if n == 1:
        return (empty(1),), ((),)
    found: dict[tuple, tuple[bytes, ...]] = {}  # canonical key -> its automorphisms
    top = 1 << (n - 1)
    fixed = bytes([n - 1])
    for parent, automorphisms in zip(*_triangle_free_level(n - 1)):
        adj = parent.adj
        core = tuple(row & ((1 << i) - 1) for i, row in enumerate(adj) if row)
        found[(n, n - len(core), core)] = tuple(gamma + fixed for gamma in automorphisms)
        deg = [row.bit_count() for row in adj]
        dmax = max(deg)
        peak = sum(1 << v for v, d in enumerate(deg) if d == dmax)
        nsum = [sum(deg[u] for u in _bits(row)) for row in adj]
        masks = [mask for mask in _attachment_masks(parent)
                 if mask.bit_count() >= dmax + bool(mask & peak)
                 and _new_vertex_wins(adj, deg, nsum, mask)]
        if len(masks) > 1:
            masks = _lowest_per_orbit(masks, automorphisms)
        for mask in masks:
            rows = [row | top if mask >> v & 1 else row for v, row in enumerate(adj)]
            rows.append(mask)
            key, perm, gammas = _canonize(rows)
            if key not in found:
                found[key] = _on_canonical_form(perm, gammas)
    keys = sorted(found)
    return tuple(_graph_from_key(key) for key in keys), tuple(found[key] for key in keys)


def enumerate_triangle_free(n: int) -> list[Graph]:
    """One graph per isomorphism class of triangle-free graphs on n vertices.

    The classes with an isolated vertex are the (n-1)-vertex classes plus
    K1, listed from them with no search. The others come by canonical
    deletion of a vertex that is largest under (degree, sum of neighbour
    degrees): each (n-1)-vertex class P gets a new vertex attached to an
    independent mask that holds every isolated vertex of P, a child is kept
    only when its new vertex is such a vertex, one mask per orbit under
    automorphisms of P is kept, and the children are deduplicated by
    canonical key. No class is lost: a class C with no isolated vertex has a
    largest vertex v, C - v is isomorphic to some P, and N(v) maps to an
    independent mask M of P whose child, isomorphic to C, passes the deletion
    rule; M holds every isolated vertex of P, since an isolated vertex of
    C - v is not isolated in C, so it is a neighbour of v. Twin pruning keeps
    M or swaps it for a mask whose child is isomorphic to C by an isomorphism
    fixing the new vertex; the isolated vertices of P are twins, so the swap
    keeps them all. The deletion rule (degree, then the tie-break) depends
    only on isomorphism-invariant properties of the mask and the new vertex,
    and an automorphism maps the isolated vertices onto each other, so an
    Aut(P) image of a mask passes exactly when the mask does; the mask orbit
    pruning keeps from that orbit passes too, and its child is isomorphic to
    C. The orbits are those of the automorphisms stored with P, each an
    automorphism of P: any set of them generates a subgroup of Aut(P), and
    the argument holds for the orbits of any subgroup. Each class is listed
    in its canonical form (core in canonical order, isolated vertices last),
    sorted by key. Levels above ENUM_MAX_N raise ResourceLimitError before
    any work. Each level is computed once per process; every call returns a
    fresh list.
    """
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    if n > ENUM_MAX_N:
        raise ResourceLimitError(
            f"n={n} exceeds the enumeration limit of {ENUM_MAX_N} vertices")
    return list(_triangle_free_level(n)[0])


def count_edge_rooted_flags4() -> int:
    """Triangle-free 4-vertex graphs with a labeled root edge, up to root-fixing iso.

    The two roots are fixed pointwise; only the two non-root vertices may swap.
    """
    optional = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    swap = {0: 0, 1: 1, 2: 3, 3: 2}
    classes = set()
    for pick in range(1 << len(optional)):
        edges = [(0, 1)] + [e for i, e in enumerate(optional) if pick >> i & 1]
        g = Graph.from_edges(4, edges)
        if not is_triangle_free(g):
            continue
        plain = tuple(sorted(tuple(sorted(e)) for e in edges))
        swapped = tuple(sorted(tuple(sorted((swap[u], swap[v]))) for u, v in edges))
        classes.add(min(plain, swapped))
    return len(classes)


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedGraph:
    name: str
    graph: Graph
    expected_srg: tuple[int, int, int, int]


@lru_cache(maxsize=None)
def srg_parameters(g: Graph) -> tuple[int, int, int, int]:
    """(n, k, lambda, mu) of a strongly regular graph, memoized; IntegrityError otherwise."""
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1:
        raise IntegrityError(f"not regular: degrees {sorted(degrees)}")
    k = degrees.pop()
    lam: set[int] = set()
    mu: set[int] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = (g.adj[u] & g.adj[v]).bit_count()
            (lam if g.has_edge(u, v) else mu).add(common)
    if len(lam) > 1 or len(mu) > 1:
        raise IntegrityError(f"not strongly regular: lambda {sorted(lam)}, mu {sorted(mu)}")
    return (g.n, k, lam.pop() if lam else 0, mu.pop() if mu else 0)


def _validate_named(name: str, g: Graph, expected: tuple[int, int, int, int]) -> None:
    params = srg_parameters(g)
    if params != expected:
        raise IntegrityError(f"{name}: got SRG parameters {params}, expected {expected}")


def petersen() -> Graph:
    """Kneser graph K(5,2): 2-subsets of a 5-set, adjacent iff disjoint."""
    return Graph(10, _disjoint_rows([_mask_of(s) for s in combinations(range(5), 2)]))


def clebsch() -> Graph:
    """Vertices GF(2)^4; adjacent iff the difference has weight 1 or 4."""
    edges = [
        (x, y)
        for x in range(16)
        for y in range(x + 1, 16)
        if (x ^ y).bit_count() in (1, 4)
    ]
    return Graph.from_edges(16, edges)


def hoffman_singleton() -> Graph:
    """Five pentagons P_h and five pentagrams Q_i; p(h,j) ~ q(i, h*i+j mod 5)."""
    p = lambda h, j: 5 * h + j
    q = lambda i, j: 25 + 5 * i + j
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((p(h, j), p(h, (j + 1) % 5)))
            edges.append((q(h, j), q(h, (j + 2) % 5)))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((p(h, j), q(i, (h * i + j) % 5)))
    return Graph.from_edges(50, {tuple(sorted(e)) for e in edges})


@lru_cache(maxsize=None)
def _steiner_blocks() -> tuple[int, ...]:
    """The 77 blocks of the Steiner system S(3,6,22) as point masks, sorted as point lists.

    Points 0..20 are PG(2,4), the triples over GF(4) (w = 2, w^2 = w + 1 = 3)
    whose first nonzero entry is 1, in lexicographic order; point 21 is the
    extension point. The blocks are the 21 lines plus point 21, and the 56
    hyperovals that meet H0, the lexicographically first hyperoval, in an
    even number of points: H0's orbit under the SL(3,4) matrices I + E12, the
    3-cycle permutation matrix and diag(w, w^2, 1). H0 is built greedily, as
    every arc of at most 5 points of PG(2,4) lies in a hyperoval.
    """
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    dot = lambda a, b: mul[a[0]][b[0]] ^ mul[a[1]][b[1]] ^ mul[a[2]][b[2]]
    normal = lambda v: tuple(mul[(0, 1, 3, 2)[next(c for c in v if c)]][c] for c in v)
    points = [t for t in product(range(4), repeat=3) if next((c for c in t if c), 0) == 1]
    index = {t: i for i, t in enumerate(points)}
    lines = [_mask_of(i for i, t in enumerate(points) if not dot(f, t)) for f in points]
    arc = 0
    for _ in range(6):  # the least point that keeps an arc
        arc |= 1 << next(p for p in range(21) if not arc >> p & 1
                         and all((line & (arc | 1 << p)).bit_count() < 3 for line in lines))
    perms = [[index[normal([dot(r, t) for r in rows])] for t in points]
             for rows in (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                          ((2, 0, 0), (0, 3, 0), (0, 0, 1)))]
    orbit = [arc]
    for h in orbit:  # the list grows until it holds H0's orbit
        orbit += {_mask_of(perm[v] for v in _bits(h)) for perm in perms}.difference(orbit)
    return tuple(sorted([line | 1 << 21 for line in lines] + orbit,
                        key=lambda b: list(_bits(b))))


def _disjoint_rows(blocks, shift: int = 0) -> list[int]:
    """Row i has bit shift + j for every block j disjoint from block i."""
    return [_mask_of(shift + j for j, b in enumerate(blocks) if not a & b) for a in blocks]


def gewirtz() -> Graph:
    """The 56 blocks of S(3,6,22) avoiding point 21; adjacent iff disjoint."""
    return Graph(56, _disjoint_rows([b for b in _steiner_blocks() if not b >> 21 & 1]))


def m22() -> Graph:
    """The 77 blocks of S(3,6,22); adjacent iff disjoint."""
    return Graph(77, _disjoint_rows(_steiner_blocks()))


def higman_sims() -> Graph:
    """Apex 0, points 1..22 and blocks 23..99 of S(3,6,22); the apex sees each point,
    a point the blocks holding it, and a block the blocks disjoint from it."""
    blocks = _steiner_blocks()
    rows = [((1 << 22) - 1) << 1]
    rows += [1 | _mask_of(23 + j for j, b in enumerate(blocks) if b >> p & 1) for p in range(22)]
    rows += [b << 1 | row for b, row in zip(blocks, _disjoint_rows(blocks, 23))]
    return Graph(100, rows)


_NAMED_SPECS: dict[str, tuple] = {
    "c5": (lambda: cycle(5), (5, 2, 0, 1)),
    "petersen": (petersen, (10, 3, 0, 1)),
    "clebsch": (clebsch, (16, 5, 0, 2)),
    "hoffman_singleton": (hoffman_singleton, (50, 7, 0, 1)),
    "gewirtz": (gewirtz, (56, 10, 0, 2)),
    "m22": (m22, (77, 16, 0, 4)),
    "higman_sims": (higman_sims, (100, 22, 0, 6)),
}

NAMED_GRAPH_NAMES = tuple(_NAMED_SPECS)


@lru_cache(maxsize=None)
def named(name: str) -> NamedGraph:
    """Load a named graph and verify its strongly-regular parameters."""
    if name not in _NAMED_SPECS:
        raise ValueError(f"unknown named graph {name!r}; choose from {NAMED_GRAPH_NAMES}")
    builder, expected = _NAMED_SPECS[name]
    g = builder()
    _validate_named(name, g, expected)
    return NamedGraph(name, g, expected)
