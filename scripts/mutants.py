#!/usr/bin/env python3
"""Mutation gate: each mutant breaks one line the proofs rest on, and its tests must fail.

    python3 scripts/mutants.py

An entry is (file under src/, exact old text, replacement, test ids). For
each entry, `src` and `tests` are copied to a temporary directory, the old
text must occur exactly once in the copy, and the replacement is applied
there; the named tests then run with `pytest -x` against the copy. A mutant
whose tests pass survives; one whose tests run longer than TIMEOUT_S is
stopped and counted as killed, since a mutant that makes the code loop
would otherwise hang the gate. The script prints one killed/survived line
per entry and exits 1 if any survived. Standard library only.

Only mutants that change behaviour belong here. Dropping a pruning rule of
the enumeration only adds duplicate children and keeps every key, so only a
test that pins the `_canonize` calls per level can kill it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPHCORE = "halfgraph/graphcore.py"
GRAPHCORE_TESTS = "tests/test_graphcore.py::"
HALVES = "halfgraph/halves.py"
HALVES_TESTS = "tests/test_halves.py::"
CONSTRUCTIONS = "halfgraph/constructions.py"
CONSTRUCTIONS_TESTS = "tests/test_constructions.py::"
INDEPENDENCE = "halfgraph/independence.py"
INDEPENDENCE_TESTS = "tests/test_independence.py::"
EXACTMATH = "halfgraph/exactmath.py"
EXACTMATH_TESTS = "tests/test_exactmath.py::"
SRG = "halfgraph/srg.py"
SRG_TESTS = "tests/test_srg.py::"
DENSITY = "halfgraph/density.py"
GIRTH5 = "halfgraph/girth5.py"
GIRTH5_TESTS = "tests/test_girth5.py::"
VERIFY = "halfgraph/verify.py"
VERIFY_TESTS = "tests/test_verify.py::"
REPORT = "halfgraph/report.py"
CLI_TESTS = "tests/test_cli.py::"
TIMEOUT_S = 120  # per mutant; each entry's tests take a few seconds

MUTANTS = [
    (  # prune with any found automorphism, not only those fixing the node's singletons
        GRAPHCORE,
        "gens = [gamma for gamma, fix in found if not fixed & ~fix]",
        "gens = [gamma for gamma, fix in found]",
        [GRAPHCORE_TESTS + "test_canonical_key_prunes_only_with_automorphisms_fixing_the_node"],
    ),
    (  # stored automorphisms moved by perm instead of its inverse
        GRAPHCORE,
        "bytes([pos[gamma[v]] for v in perm])",
        "bytes([perm[gamma[v]] for v in perm])",
        [GRAPHCORE_TESTS + "test_stored_automorphisms_are_automorphisms_of_the_canonical_forms"],
    ),
    (  # a class listed from its parent plus K1 keeps the parent's isolated-vertex count
        GRAPHCORE,
        "found[(n, n - len(core), core)]",
        "found[(n, n - 1 - len(core), core)]",
        [GRAPHCORE_TESTS + "test_enumeration_output_is_pinned"],
    ),
    (  # the parent's automorphisms send the new isolated vertex to vertex 0
        GRAPHCORE,
        "fixed = bytes([n - 1])",
        "fixed = bytes([0])",
        [GRAPHCORE_TESTS + "test_stored_automorphisms_are_automorphisms_of_the_canonical_forms"],
    ),
    (  # a mask may leave out isolated vertices: children with one are canonized again
        GRAPHCORE,
        "        if not row:\n            subsets = [s | (1 << v) for s in subsets]\n            continue\n",
        "",
        [GRAPHCORE_TESTS + "test_canonize_calls_per_level_are_pinned"],
    ),
    (  # induced 2-matchings: d may lie below c, so each cd edge comes twice and out of order
        GRAPHCORE,
        "adj[c] & rest & ~((2 << c) - 1)",
        "adj[c] & rest",
        [GRAPHCORE_TESTS + "test_induced_2matchings_match_the_nested_loop"],
    ),
    (  # graph6 size field: the digit "~" (63) refused in the 4- and 8-byte forms
        GRAPHCORE,
        'if not 63 <= b <= 126:\n            raise Graph6Error("invalid size byte", start)',
        'if not 63 <= b <= 125:\n            raise Graph6Error("invalid size byte", start)',
        [GRAPHCORE_TESTS + "test_graph6_size_field_forms"],
    ),
    (  # alpha search branches on the first vertex of maximum degree, not the last
        GRAPHCORE,
        "if d >= top_deg:",
        "if d > top_deg:",
        [GRAPHCORE_TESTS
         + "test_independence_number_matches_the_oracle_on_seeded_and_named_graphs"],
    ),
    (  # alpha search without its node budget: a search past ALPHA_MAX_NODES runs on
        GRAPHCORE,
        "        if nodes > ALPHA_MAX_NODES:\n"
        '            raise ResourceLimitError(f"independence search exceeded {ALPHA_MAX_NODES} nodes")\n',
        "",
        [GRAPHCORE_TESTS + "test_independence_search_budget_boundary"],
    ),
    (  # alpha's matching bound leaves the matched partner free to match again
        GRAPHCORE,
        "                m ^= nb & -nb\n",
        "",
        [GRAPHCORE_TESTS + "test_independence_number_matches_the_oracle",
         GRAPHCORE_TESTS
         + "test_independence_number_matches_the_oracle_on_seeded_and_named_graphs"],
    ),
    (  # leaf key rows built from vertex labels instead of positions
        GRAPHCORE,
        "bit[v] = 1 << i",
        "bit[v] = 1 << v",
        [GRAPHCORE_TESTS + "test_perm_key_matches_the_oracle"],
    ),
    (  # twin rule inverted: a mask may take a twin only without the lower one
        GRAPHCORE,
        "s & need == need",
        "not s & need",
        [GRAPHCORE_TESTS + "test_enumeration_counts"],
    ),
    (  # tie-break: a vertex that only ties the new one beats it
        GRAPHCORE,
        "+ inside * k > own",
        "+ inside * k >= own",
        [GRAPHCORE_TESTS + "test_enumeration_counts"],
    ),
    (  # S(3,6,22) without the transvection: H0's orbit shrinks to 1 hyperoval
        GRAPHCORE,
        "for rows in (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0)",
        "for rows in (((0, 1, 0)",
        [GRAPHCORE_TESTS + "test_named_graph6_is_pinned"],
    ),
    (  # S(3,6,22) from the second hyperoval, the first without point 10: other bytes, still SRGs
        GRAPHCORE,
        "if not arc >> p & 1",
        "if not (arc | 1 << 10) >> p & 1",
        [GRAPHCORE_TESTS + "test_named_graph6_is_pinned"],
    ),
    (  # twin rule dropped: every twin may enter the half out of order
        HALVES,
        "if mask & twin_bit[index] == twin_bit[index]:",
        "if True:",
        [HALVES_TESTS + "test_branch_and_bound_node_counts_are_pinned"],
    ),
    (  # the root's exclude subtree cut on every graph, with no proof of symmetry
        HALVES,
        "if nodes <= 5 * classes * classes or not _transitive_blowup(adj):",
        "if False:",
        [HALVES_TESTS + "test_warm_started_search_matches_the_cold_oracle"],
    ),
    (  # the cost rule dropped: symmetry is proved, and Clebsch's exclude subtree cut, at once
        HALVES,
        "if nodes <= 5 * classes * classes or not _transitive_blowup(adj):",
        "if not _transitive_blowup(adj):",
        [HALVES_TESTS + "test_branch_and_bound_node_counts_are_pinned"],
    ),
    (  # the cost rule sized for 1.1 us a node: petersen x2 pays for a proof that saves less
        HALVES,
        "if nodes <= 5 * classes * classes or",
        "if nodes <= 3 * classes * classes or",
        [HALVES_TESTS + "test_branch_and_bound_node_counts_are_pinned"],
    ),
    (  # the symmetry proof lifts the quotient's automorphisms to twin classes of unequal size
        HALVES,
        "    if len({mask.bit_count() for mask in masks}) > 1:\n        return False\n",
        "",
        [HALVES_TESTS + "test_root_cut_declines_a_regular_graph_with_unequal_twin_classes"],
    ),
    (  # completion bound weakened: each gain level counts one vertex fewer
        HALVES,
        "over = (rest & level).bit_count() - slack",
        "over = (rest & level).bit_count() - slack - 1",
        [HALVES_TESTS + "test_branch_and_bound_node_counts_are_pinned"],
    ),
    (  # an include child keeps its parent's number of gain levels: no new top level
        HALVES,
        "            if below & row:\n                grown.append(below & row)\n",
        "",
        [HALVES_TESTS + "test_branch_and_bound_node_counts_are_pinned"],
    ),
    (  # odd n: the half-weight vertex of greatest cost instead of least
        HALVES,
        "return min(((adj[v] & mask).bit_count(), v)",
        "return max(((adj[v] & mask).bit_count(), v)",
        [HALVES_TESTS
         + "test_twin_pruned_branch_bound_matches_the_oracle_on_small_triangle_free_graphs"],
    ),
    (  # odd n: the doubled value of a half leaves out its half-weight vertex
        HALVES,
        "return 2 * edges + (_odd_cost(adj, n, mask)[0] if odd else 0)",
        "return 2 * edges",
        [HALVES_TESTS
         + "test_twin_pruned_branch_bound_matches_the_oracle_on_small_triangle_free_graphs"],
    ),
    (  # weights up to 2 accepted
        HALVES,
        "p < 0 or p > q",
        "p < 0 or p > 2 * q",
        [HALVES_TESTS + "test_beta_of_half_validation"],
    ),
    (  # warm start at the descent's value itself: a search that only meets it keeps no mask
        HALVES,
        "best_doubled, best_mask = value + 1, None",
        "best_doubled, best_mask = value, None",
        [HALVES_TESTS + "test_warm_started_search_matches_the_cold_oracle"],
    ),
    (  # descent: the bin shift moves the swapped-out vertex's neighbours up and the other's down
        HALVES,
        "(above & down) | (below & up)",
        "(below & down) | (above & up)",
        [HALVES_TESTS + "test_steepest_descent_matches_the_oracle_on_strongly_regular_graphs"],
    ),
    (  # descent: a common neighbour of the swapped pair moves down and up instead of staying put
        HALVES,
        "down, up = adj[u] & ~adj[w], adj[w] & ~adj[u]",
        "down, up = adj[u], adj[w]",
        [HALVES_TESTS + "test_steepest_descent_small_cases[common-neighbour]",
         HALVES_TESTS + "test_steepest_descent_matches_the_oracle_on_strongly_regular_graphs"],
    ),
    (  # spectral floor one edge too high: a descent that meets the true floor is refused
        HALVES,
        "return max(0, -(-n * (2 * k + d - root) // 16))",
        "return max(0, 1 - (-n * (2 * k + d - root) // 16))",
        [HALVES_TESTS + "test_the_floor_stop_keeps_every_certificate"],
    ),
    (  # local search stops only at an edgeless half, not at the spectral floor
        HALVES,
        "if edges == floor:",
        "if edges == 0:",
        [HALVES_TESTS + "test_local_search_stops_at_the_floor"],
    ),
    (  # local search certifies a recount of its final mask, not the descent's own count
        HALVES,
        'return _mask_certificate(g, "local-search", mask, edges,',
        'return _mask_certificate(g, "local-search", mask, _induced_edges(g.adj, mask),',
        [HALVES_TESTS + "test_local_search_checks_the_descent_count_against_a_recount"],
    ),
    (  # a mask certificate expects 2 * edges / (2n^2), leaving out the pivot's cost
        HALVES,
        "Fraction(2 * edges + cost, 2 * n * n)",
        "Fraction(2 * edges, 2 * n * n)",
        [CONSTRUCTIONS_TESTS + "test_m22_recipe"],
    ),
    (  # the two-weight closed form takes p * rho_rest for p^2 * rho_rest
        HALVES,
        "+ p**2 * part_density(g, rest))",
        "+ p * part_density(g, rest))",
        [CONSTRUCTIONS_TESTS + "test_maxdeg_values"],
    ),
    (  # the filling weight over 2|rest| + 2: the combination row follows the derived weight
        HALVES,
        "2 * rest.bit_count()",
        "2 * rest.bit_count() + 2",
        [CONSTRUCTIONS_TESTS + "test_maxdeg_combination_identity"],
    ),
    (  # the neighborhood union keeps its roots
        CONSTRUCTIONS,
        "        mask &= ~_mask_of(roots)\n",
        "",
        [CONSTRUCTIONS_TESTS + "test_recipe_certificates_are_pinned"],
    ),
    (  # the three-half bound lists the two edge halves in reverse
        CONSTRUCTIONS,
        "c1, c2 = edge_halves(g, (v1, v2))",
        "c2, c1 = edge_halves(g, (v1, v2))",
        [CONSTRUCTIONS_TESTS + "test_triple_certificates_are_pinned"],
    ),
    (  # the three-half bound breaks ties toward the highest index
        CONSTRUCTIONS,
        "key=lambda i: (values[i], i))",
        "key=lambda i: (values[i], -i))",
        [CONSTRUCTIONS_TESTS + "test_triple_certificates_are_pinned"],
    ),
    (  # the independent set is certified with one induced edge instead of none
        INDEPENDENCE,
        '_mask_certificate(g, "independence", a_mask, 0,',
        '_mask_certificate(g, "independence", a_mask, 1,',
        [INDEPENDENCE_TESTS + "test_mask_cases_carry_their_induced_edge_count"],
    ),
    (  # Horner's scheme on (p, r, d) triples drops the constant term
        EXACTMATH,
        "        if e in coeffs:\n            cp, cr, cd = coeffs[e]",
        "        if e and e in coeffs:\n            cp, cr, cd = coeffs[e]",
        [EXACTMATH_TESTS + "test_eval_matches_the_oracle"],
    ),
    (  # Horner's scheme on (p, r, d) triples multiplies by x's numerator only
        EXACTMATH,
        "        d *= xd\n",
        "",
        [EXACTMATH_TESTS + "test_eval_matches_the_oracle"],
    ),
    (  # Horner's scheme on (p, r, d) triples drops the 161*r*xr cross term of a product
        EXACTMATH,
        "p * xp + _SQ * r * xr",
        "p * xp",
        [EXACTMATH_TESTS + "test_eval_matches_the_oracle"],
    ),
    (  # Taylor shift: each pass stops one coefficient above index k
        EXACTMATH,
        "for j in range(d - 1, k - 1, -1):",
        "for j in range(d - 1, k, -1):",
        [EXACTMATH_TESTS + "test_taylor_shift_matches_the_binomial_formula"],
    ),
    (  # QuadNum sign with mixed-sign parts: a^2 and 161*b^2 compared the wrong way round
        EXACTMATH,
        "self.a * self.a > _SQ * self.b * self.b",
        "self.a * self.a < _SQ * self.b * self.b",
        [EXACTMATH_TESTS + "test_quadnum_sign_matches_the_oracle"],
    ),
    (  # order n without the 1 of n = 1 + (k/c)(k-1+c)
        SRG,
        "Fraction(c + k * (k - 1 + c), c)",
        "Fraction(k * (k - 1 + c), c)",
        [SRG_TESTS + "test_srg_from_qc_examples"],
    ),
    (  # density n/k instead of k/n
        SRG,
        "Fraction(p.k * p.n.denominator, p.n.numerator)",
        "Fraction(p.n.numerator, p.k * p.n.denominator)",
        [SRG_TESTS + "test_rho_qc_known_values"],
    ),
    (  # the general C4 line with 81/255 instead of 81/256: the composition is not 27/1024
        DENSITY,
        "Fraction(81, 256)",
        "Fraction(81, 255)",
        [VERIFY_TESTS + "test_general_bound_row_is_27_1024"],
    ),
    (  # the 2/5 root moved to 3/8: the factorisation of 1/50 - (alpha/2)(1/2 - alpha) fails
        VERIFY,
        "root = Fraction(2, 5)",
        "root = Fraction(3, 8)",
        [VERIFY_TESTS + "test_two_fifths_row"],
    ),
    (  # an equality row passes whatever its two sides are
        VERIFY,
        "left == right",
        "True",
        [VERIFY_TESTS + "test_equality_rows_fail_on_a_wrong_q1"],
    ),
    (  # a scan row passes whatever it counts
        VERIFY,
        "bad == 0",
        "True",
        [VERIFY_TESTS + "test_count_row_fails_when_graphs_lie_below_the_line"],
    ),
    (  # a one-value row passes whatever the value is
        VERIFY,
        "ok(value)",
        "True",
        [VERIFY_TESTS + "test_one_value_row_fails_on_a_wrong_krein_bound"],
    ),
    (  # each absorbed vertex counted against the edges once instead of twice
        GIRTH5,
        "e += (k * t - 2 * e) // (n - t)",
        "e += (k * t - e) // (n - t)",
        [GIRTH5_TESTS + "test_report_shape_and_bounds",
         GIRTH5_TESTS + "test_extremal_cells_are_tight"],
    ),
    (  # every row written as passing: the JSON hides a crashed check
        REPORT,
        '"pass": self.passed,',
        '"pass": True,',
        [CLI_TESTS + "test_verify_reports_a_crashing_check_as_an_error_row"],
    ),
]


def run_mutant(file: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'killed (timeout)' or 'SURVIVED': how the named tests end on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="halfgraph-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = work / "src" / file
        text = target.read_text()
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{file}: {old!r} occurs {count} times, expected once")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        imported = subprocess.run(
            [sys.executable, "-c", "import halfgraph; print(halfgraph.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True).stdout
        if not Path(imported.strip()).is_relative_to(work):
            raise SystemExit(f"the tests would import halfgraph from {imported.strip()}")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
        if result.returncode not in (0, 1):
            raise SystemExit(f"pytest could not run the tests (exit {result.returncode}):\n"
                             f"{result.stdout}{result.stderr}")
        return "killed" if result.returncode == 1 else "SURVIVED"


def main() -> int:
    survivors = 0
    for file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(file, old, new, tests)
        survivors += outcome == "SURVIVED"
        print(f"{outcome:<8} {file}: {old!r} -> {new!r} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
