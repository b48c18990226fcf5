"""Command-line front end: graph info, beta bounds, and the verification suite.

All numeric output is exact ("195/4096"); the human-readable check table
adds a decimal convenience column.  `verify paper` runs the sections of
`halfgraph.verify`, shows a check that raised as an ERROR row, exits 0 iff
every check passes and can dump the machine-readable JSON report.  Bad
input (a missing file, a file with several records, a malformed or
too-large graph, a violated precondition) prints one `error: ...` line on
stderr and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .constructions import (
    edge_halves,
    krivelevich_bound,
    maxdeg_halves,
    triple_half_bound,
)
from .density import max_degree_rel, rho
from .girth5 import girth5_csv, girth5_report
from .graphcore import (
    Graph,
    NAMED_GRAPH_NAMES,
    ResourceLimitError,
    enumerate_triangle_free,
    girth,
    has_induced_2matching,
    is_triangle_free,
    load_graph6,
    named,
    save_graph6,
)
from .halves import HalfError, beta_exact, local_search_half
from .independence import independence_half
from .report import dump_report
from .verify import SECTIONS, run


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_target(args) -> Graph:
    if args.named:
        return named(args.named).graph
    with open(args.file, "rb") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"no graph6 record in {args.file}")
    if len(lines) > 1:
        raise ValueError(f"{args.file} holds {len(lines)} graph6 records; expected one")
    return load_graph6(lines[0])


def _print_graph_info(g: Graph) -> None:
    print(f"vertices      {g.n}")
    print(f"edges         {g.edge_count()}")
    print(f"rho           {rho(g)}")
    print(f"max_degree    {max_degree_rel(g)}")
    print(f"girth         {girth(g)}")
    print(f"triangle_free {is_triangle_free(g)}")
    print(f"induced_2matching {has_induced_2matching(g)}")


def cmd_graphs(args) -> int:
    if args.graphs_cmd == "enumerate":
        graphs = enumerate_triangle_free(args.n)
        if args.count_only:
            print(len(graphs))
        else:
            for g in graphs:
                print(save_graph6(g))
        return 0
    _print_graph_info(_load_target(args))
    return 0


def _format_half(half) -> str:
    return "[" + ", ".join(str(w) for w in half.weights) + "]"


def _first_edge_half(g: Graph):
    """The better half of the first edge whose split `edge_halves` accepts."""
    errors = []
    for edge in g.edges():
        try:
            return min(edge_halves(g, edge), key=lambda c: c.bound)
        except HalfError:
            raise
        except ValueError as err:
            errors.append(err)
    raise errors[0] if errors else ValueError("graph has no edges")


# `beta bound --method` -> its construction, called with the graph and --seed;
# `krivelevich` prints the averaged bound alone, with no half.
BOUND_METHODS = {
    "edge": lambda g, seed: _first_edge_half(g),
    "maxdeg": lambda g, seed: maxdeg_halves(g),
    "triple": lambda g, seed: triple_half_bound(g),
    "independence": lambda g, seed: independence_half(g),
    "local-search": lambda g, seed: local_search_half(g, seed=seed),
}


def cmd_beta(args) -> int:
    g = _load_target(args)
    if args.beta_cmd == "exact":
        value, witness = beta_exact(g)
        print(f"beta = {value}")
        print(f"half = {_format_half(witness)}")
        return 0
    if not is_triangle_free(g):
        raise ValueError("graph has a triangle")
    if args.method == "krivelevich":
        print(f"bound = {krivelevich_bound(g)}")
        return 0
    cert = BOUND_METHODS[args.method](g, args.seed)
    print(f"bound = {cert.bound}")
    if "analytic_bound" in cert.params:
        print(f"analytic = {cert.params['analytic_bound']}")
    print(f"half = {_format_half(cert.half)}")
    return 0


def cmd_verify(args) -> int:
    section_names = list(SECTIONS) if args.section == "all" else [args.section]
    reports = run(section_names, args.seed)

    failed = 0
    for report in reports:
        print(f"== {report.name} ==")
        for c in report.checks:
            status = "ERROR" if c.error else "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.id}: {c.claim}"
            if c.error:
                detail = f"    error {c.error}  ({c.runtime_ms} ms)"
            else:
                detail = f"    computed {c.computed}  bound {c.bound}  ({c.runtime_ms} ms)"
                try:
                    detail += f"  ~{float(Fraction(c.computed)):.6f}"
                except ValueError:
                    pass
            print(line)
            print(detail)
            failed += 0 if c.passed else 1
        print()
    total = sum(len(r.checks) for r in reports)
    print(f"{total - failed}/{total} checks passed")

    if args.json:
        dump_report(reports, args.json)
        print(f"report written to {args.json}")
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(girth5_csv(girth5_report()))
        print(f"case table written to {args.table}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfgraph",
        description="Exact computations around sparse halves of triangle-free graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    target = argparse.ArgumentParser(add_help=False)
    one_graph = target.add_mutually_exclusive_group(required=True)
    one_graph.add_argument("--named", choices=NAMED_GRAPH_NAMES)
    one_graph.add_argument("--file")

    graphs = sub.add_parser("graphs", help="enumerate or inspect graphs")
    gsub = graphs.add_subparsers(dest="graphs_cmd", required=True)
    enum = gsub.add_parser("enumerate", help="triangle-free graphs up to isomorphism")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--count-only", action="store_true")
    gsub.add_parser("info", help="basic facts about one graph", parents=[target])

    beta = sub.add_parser("beta", help="exact beta or certified upper bounds")
    bsub = beta.add_subparsers(dest="beta_cmd", required=True)
    for name, help_text in (("exact", "exact minimum over halves"),
                            ("bound", "certified upper bound via one construction "
                                      "(triangle-free graphs only)")):
        p = bsub.add_parser(name, help=help_text, parents=[target])
        if name == "bound":
            p.add_argument("--method", required=True,
                           choices=[*BOUND_METHODS, "krivelevich"])
            p.add_argument("--seed", type=int, default=1,
                           help="local-search seed (default 1, used for reproduction)")

    verify = sub.add_parser("verify", help="reproduce the checkable claims")
    vsub = verify.add_subparsers(dest="verify_cmd", required=True)
    paper = vsub.add_parser("paper", help="run a reproduction section")
    paper.add_argument("--section", default="all", choices=[*SECTIONS, "all"])
    paper.add_argument("--json", help="write the JSON report here")
    paper.add_argument("--table", help="write the 80-row girth-5 CSV table here")
    paper.add_argument("--seed", type=int, default=1,
                       help="seed for the stochastic checks (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"graphs": cmd_graphs, "beta": cmd_beta, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (OSError, ValueError, ArithmeticError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
