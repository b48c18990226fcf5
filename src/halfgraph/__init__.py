"""Exact verification toolkit for sparse halves of triangle-free graphs.

Everything computes in exact arithmetic: rationals, elements of
Q(sqrt(161)), and multivariate polynomials.  The package provides the graph
layer (enumeration, named strongly regular graphs, graph6 I/O), flag-style
densities, exact minimum halves, every certified half construction, the
80-case girth-5 driver, and `verify`, the one registry of the checkable
claims, plus a CLI (`halfgraph`) that reproduces them.
"""

from .constructions import (
    edge_halves,
    krivelevich_bound,
    maxdeg_halves,
    recipe_half,
    triple_half_bound,
)
from .density import c4_density, cross_density, part_density, rho
from .exactmath import RHO0, Polynomial, QuadNum, RationalFunc
from .girth5 import beta_u, first_bound, gamma, girth5_master, girth5_report, n_window, ramsey3
from .graphcore import (
    Graph,
    NamedGraph,
    blowup,
    canonical_key,
    count_edge_rooted_flags4,
    enumerate_triangle_free,
    girth,
    has_induced_2matching,
    independence_number,
    is_triangle_free,
    load_graph6,
    named,
    save_graph6,
)
from .halves import (
    BoundCertificate,
    Half,
    beta_exact,
    beta_of_half,
    local_search_half,
)
from .independence import independence_half
from .srg import (
    SrgParams,
    regular_beta_bound,
    rho_qc,
    srg_beta_bound,
    srg_c4,
    srg_from_qc,
)
from .verify import independence_formula_checks, srg_case_analysis, verify_sparse_identities

__version__ = "0.1.0"
