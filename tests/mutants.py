"""Mutation check for the test oracles: each mutant must be caught by its tests.

Usage: python tests/mutants.py

Every entry of MUTANTS names a source file, an exact piece of its text, a
replacement for it, and the tests that must catch the change.  For each
entry the script copies src/ and tests/ into a temporary directory, makes
the replacement there and runs pytest on the named tests; every named test
must fail.  The text must occur exactly once in the file: a mutant whose
text is gone is an error, never a skip, so a rewrite of the checked code
shows here until the entry is brought up to date.  Before any mutant runs,
the named tests must pass on an unchanged copy, so that a failure is the
mutant's doing.  Each pytest run is stopped after TIMEOUT_S seconds; a
mutant whose run is stopped is reported as timed out, neither caught nor
missed, since a mutant that makes a test loop forever shows nothing about
whether the test would catch it.

This is mutation analysis in the sense of DeMillo, Lipton and Sayward,
"Hints on test data selection: help for the practicing programmer" (IEEE
Computer 11(4), 1978).  It uses the standard library only; pytest does not
collect it.  Two mutants run at a time.  Exit status 0 when every mutant
is caught, 1 when any is missed or timed out.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300         # per pytest run; the slowest mutant run takes under 40 s on 2 cores


class Mutant(NamedTuple):
    name: str
    path: str            # relative to the repository root
    old: str             # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("kernel drops the z^3 component of the left factor",
           "src/sympdec/_kernels_py.py",
           "powers = [j for j in (1, 2, 3) if any(a[j::4])]",
           "powers = [j for j in (1, 2) if any(a[j::4])]",
           ("tests/test_kernels.py::test_backend_matches_scalar_reference",
            "tests/test_kernels.py::test_odd_components_in_one_factor_match_the_scalar_reference",
            "tests/test_kernels.py::test_python_kernel_matches_scalar_reference_property")),
    Mutant("kernel drops the wrap-around sign of z^4 = -1",
           "src/sympdec/_kernels_py.py",
           "(o + j - 4, -v)",
           "(o + j - 4, v)",
           ("tests/test_kernels.py::test_backend_matches_scalar_reference",
            "tests/test_kernels.py::test_python_kernel_on_sparse_and_rational_structure",
            # kron multiplies a non-integer scalar through the kernel
            "tests/test_matrix.py::test_kron_and_transpose_match_entrywise_references",
            "tests/test_matrix.py::test_scale_and_negate",
            "tests/test_cyclotomic.py::test_i_squared_is_minus_one")),
    Mutant("kernel's zero-skip over b's rows stops one component short",
           "src/sympdec/_kernels_py.py",
           "row_b, row_a = range(m4), range(k4)",
           "row_b, row_a = range(m4 - 1), range(k4)",
           ("tests/test_kernels.py::test_python_kernel_on_empty_shapes_zero_lines_and_single_nonzeros",
            "tests/test_kernels.py::test_backend_matches_scalar_reference",
            "tests/test_kernels.py::test_python_kernel_matches_scalar_reference_property")),
    Mutant("kernel's zero-skip over a's rows stops one component short",
           "src/sympdec/_kernels_py.py",
           "row_b, row_a = range(m4), range(k4)",
           "row_b, row_a = range(m4), range(k4 - 1)",
           ("tests/test_kernels.py::test_python_kernel_on_empty_shapes_zero_lines_and_single_nonzeros",
            "tests/test_kernels.py::test_backend_matches_scalar_reference",
            "tests/test_kernels.py::test_python_kernel_matches_scalar_reference_property")),
    Mutant("slot swap of P_j misses the last column of each slot",
           "src/sympdec/groups.py",
           "    for t in range(n):\n        cols[lo + t]",
           "    for t in range(n - 1):\n        cols[lo + t]",
           ("tests/test_groups.py::test_conjugation_gathers_match_the_dense_permutation_products",
            "tests/test_groups.py::test_sj_conjugation_identity")),
    Mutant("diag(P, P) index list shifts its second half by one",
           "src/sympdec/groups.py",
           "return cols + [len(cols) + c for c in cols]",
           "return cols + [len(cols) + (c + 1) % len(cols) for c in cols]",
           ("tests/test_groups.py::test_conjugation_gathers_match_the_dense_permutation_products",
            "tests/test_groups.py::test_l_conjugation_identity")),
    Mutant("basis pairs of J kron J carry the wrong sign",
           "src/sympdec/groups.py",
           "(a, a + count + n, 1) if a % (2 * n) < n",
           "(a, a + count + n, -1) if a % (2 * n) < n",
           ("tests/test_groups.py::test_change_of_basis_matches_the_gram_scan",
            "tests/test_groups.py::test_tensor_sp_sp")),
    Mutant("Gram route accepts every input",
           "src/sympdec/groups.py",
           "    return (all(x == d2 for x in p[4 * k:4 * n * k:step])\n"
           "            and all(x == -d2 for x in p[4 * n * k::step])\n"
           "            and p.count(0) == len(p) - n)\n",
           "    return True\n",
           ("tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_gram_and_block_routes_form_a_biconditional",
            "tests/test_groups.py::test_gram_route_matches_the_dense_gram_product")),
    Mutant("Gram target check skips the zero count",
           "src/sympdec/groups.py",
           "            and p.count(0) == len(p) - n)\n",
           "            )\n",
           ("tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_gram_and_block_routes_form_a_biconditional",
            "tests/test_groups.py::test_gram_route_matches_the_dense_gram_product",
            "tests/test_groups.py::test_gram_route_refuses_a_matrix_that_breaks_one_antisymmetric_pair")),
    Mutant("Gram route reads Q - Q^T",
           "src/sympdec/groups.py",
           "p = list(map(sub, transposed_num(q, n, n), q))",
           "p = list(map(sub, q, transposed_num(q, n, n)))",
           ("tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_gram_and_block_routes_form_a_biconditional",
            "tests/test_groups.py::test_gram_route_matches_the_dense_gram_product")),
    Mutant("block route accepts every input",
           "src/sympdec/groups.py",
           "    p11, p12, p21, p22 = _quadrants(p, k)\n",
           "    return True\n",
           ("tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_block_route_refuses_each_broken_condition_alone")),
    Mutant("block route compares P12 with P21, not its transpose",
           "src/sympdec/groups.py",
           "list(map(sub, p12, transposed_num(p21, k, k)))",
           "list(map(sub, p12, p21))",
           ("tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_gram_and_block_routes_form_a_biconditional",
            "tests/test_groups.py::test_random_sp_passes_both_routes_property")),
    Mutant("quadrant reader swaps the 12 and 21 quadrants",
           "src/sympdec/groups.py",
           "return left[:half], right[:half], left[half:], right[half:]",
           "return left[:half], left[half:], right[:half], right[half:]",
           ("tests/test_groups.py::test_quadrant_reader_matches_gather",
            "tests/test_groups.py::test_is_symplectic_agrees_with_sympy_property",
            "tests/test_groups.py::test_block_route_refuses_each_broken_condition_alone")),
    Mutant("is_orthogonal accepts every input",
           "src/sympdec/groups.py",
           "    return is_scaled_identity(gram, n, m.den * m.den)",
           "    return True",
           ("tests/test_groups.py::test_is_orthogonal_agrees_with_sympy_property",
            "tests/test_groups.py::test_orthogonal_predicates")),
    Mutant("SNF leaves negative diagonal entries",
           "src/sympdec/intmatrix.py",
           "    return [abs(a[i][i]) for i in range(n)]",
           "    return [a[i][i] for i in range(n)]",
           ("tests/test_snf.py::test_randomized_snf",
            "tests/test_snf.py::test_snf_property")),
    Mutant("SNF skips the divisibility step",
           "src/sympdec/intmatrix.py",
           "                        if any(x % p for x in row[t + 1:]):",
           "                        if False:",
           ("tests/test_snf.py::test_randomized_snf",
            "tests/test_snf.py::test_diagonal_matches_sympy_on_random_matrices")),
    Mutant("SNF leaves the entry right of each pivot uncleared",
           "src/sympdec/intmatrix.py",
           "                for j in range(t + 1, c):\n                    if pivot_row[j]:",
           "                for j in range(t + 2, c):\n                    if pivot_row[j]:",
           # test_randomized_snf reaches a matrix where this mutant cycles forever
           ("tests/test_snf.py::test_rectangular_shapes",
            "tests/test_snf.py::test_diagonal_matches_sympy_on_random_matrices")),
    Mutant("unit-pivot exit also taken for |p| = 2",
           "src/sympdec/intmatrix.py",
           "                if p == 1 or p == -1:",
           "                if -2 <= p <= 2:",
           ("tests/test_snf.py::test_a_pivot_of_two_is_not_a_unit",
            "tests/test_snf.py::test_rectangular_shapes",
            "tests/test_snf.py::test_randomized_snf")),
    Mutant("constructions take unmarked non-members on trust",
           "src/sympdec/groups.py",
           "    if isinstance(m, group):\n        return\n",
           "    return\n",
           ("tests/test_groups.py::test_constructions_reject_unmarked_non_members",
            "tests/test_groups.py::test_direct_sum_rejects_non_members")),
    Mutant("tensor_sp_sp gather multiplies by i where it should by -i",
           "src/sympdec/groups.py",
           "3: ((2, 1), (3, 1), (0, -1), (1, -1))}",
           "3: ((2, -1), (3, -1), (0, 1), (1, 1))}",
           ("tests/test_groups.py::test_tensor_sp_sp_inverse_and_gram_oracle",
            "tests/test_groups.py::test_tensor_sp_sp")),
    Mutant("content reduction leaves a common factor 2",
           "src/sympdec/matrix.py",
           "    if g > 1:\n        num = [x // g for x in num]",
           "    if g > 2:\n        num = [x // g for x in num]",
           ("tests/test_matrix.py::test_content_is_reduced_against_the_denominator",
            "tests/test_cyclotomic.py::test_canonical_form_makes_equality_structural",
            "tests/test_cyclotomic.py::test_field_laws_randomized")),
    Mutant("kron's -1 block reuses B's rows unnegated",
           "src/sympdec/matrix.py",
           "scaled = {0: [[0] * w] * p, 1: rows(other.num)}",
           "scaled = {0: [[0] * w] * p, 1: rows(other.num), -1: rows(other.num)}",
           ("tests/test_matrix.py::test_kron_matches_the_entrywise_reference_property",
            "tests/test_matrix.py::test_kron_and_transpose_match_entrywise_references",
            "tests/test_groups.py::test_tensor_sp_o_center_to_center")),
    Mutant("constructor skips the content reduction for every den >= 1",
           "src/sympdec/matrix.py",
           "        if den == 1:\n            self.num, self.den = num, den\n",
           "        if den >= 1:\n            self.num, self.den = num, den\n",
           ("tests/test_matrix.py::test_content_is_reduced_against_the_denominator",
            "tests/test_matrix.py::test_common_denominator_is_canonical",
            "tests/test_matrix.py::test_a_matrix_from_a_tuple_a_generator_or_a_list_is_the_same")),
    Mutant("place_blocks runs past a gap in the column indices",
           "src/sympdec/matrix.py",
           "if e == b.cols or col_idx[e] != col_idx[e - 1] + 1:",
           "if e == b.cols or col_idx[e] < col_idx[e - 1]:",
           ("tests/test_matrix.py::test_place_blocks_copies_runs_of_any_index_list",
            "tests/test_matrix.py::test_place_blocks_scatters_and_rejects_bad_indices")),
    Mutant("place_blocks does not bring blocks over the common denominator",
           "src/sympdec/matrix.py",
           "src = b.num if f == 1 else [x * f for x in b.num]",
           "src = b.num",
           ("tests/test_matrix.py::test_block_assembly_matches_entrywise_reference",)),
    Mutant("induced-map windows admit their upper limit",
           "src/sympdec/induced.py",
           "if limit is not None and i >= limit:",
           "if limit is not None and i > limit:",
           ("tests/test_induced.py::test_every_entry_is_eight_periodic_from_its_declared_degree",)),
    Mutant("certificate checks only z = 0 in the z-dependent degree",
           "src/sympdec/lifting.py",
           "for z, hz in h.candidates if isinstance(h, ZDependent)",
           "for z, hz in h.candidates[:1] if isinstance(h, ZDependent)",
           ("tests/test_lifting.py::test_certificate_reports_a_rejected_map_at_its_degree",)),
    Mutant("certificate memo keys on the groups only and hides a failing matrix",
           "src/sympdec/lifting.py",
           "            iso = verdicts.get(hz)\n            if iso is None:\n"
           "                iso = verdicts[hz] = is_isomorphism(hz)\n",
           "            iso = verdicts.get((hz.source, hz.target))\n            if iso is None:\n"
           "                iso = verdicts[hz.source, hz.target] = is_isomorphism(hz)\n",
           ("tests/test_lifting.py::test_certificate_reports_a_rejected_map_at_its_degree",)),
    Mutant("J-iso records degree 2's z = 0 map for both z",
           "src/sympdec/suites.py",
           "h.candidates if isinstance(h, ZDependent) else ((0, h), (1, h))",
           "((0, h.z0), (1, h.z0)) if isinstance(h, ZDependent) else ((0, h), (1, h))",
           ("tests/test_lifting.py::test_certificate_agrees_with_the_j_iso_suite",)),
    Mutant("the witness keeps the larger u of the two sign families",
           "src/sympdec/induced.py",
           "u, v, sign = min(candidates, key=lambda t: (t[0], t[1]))",
           "u, v, sign = max(candidates, key=lambda t: (t[0], t[1]))",
           ("tests/test_lifting.py::test_bezout_matches_brute_force_minimum",)),
    Mutant("no-section case one claims 1Z is proper for m = 1",
           "src/sympdec/lifting.py",
           "    if 1 < m and 4 * m + 4 < n:\n",
           "    if 4 * m + 4 < n:\n",
           ("tests/test_lifting.py::test_every_obstruction_names_a_proper_subgroup",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("no-section case two takes its coefficient from m instead of n",
           "src/sympdec/lifting.py",
           "SMALL_ODD_CASES[n], n, \"n\",",
           "SMALL_ODD_CASES[n], m, \"n\",",
           ("tests/test_lifting.py::test_no_section_witness_small_n_case",)),
    Mutant("a binding carries the first degree's table answers to later degrees",
           "src/sympdec/induced.py",
           "    sources, targets = _groups(source_parts, d), _groups(target_parts, d)\n",
           "    sources = p.__dict__.setdefault(\"sources\", _groups(source_parts, d))\n"
           "    targets = p.__dict__.setdefault(\"targets\", _groups(target_parts, d))\n",
           ("tests/test_induced.py::test_a_run_builds_what_each_degree_builds_alone",)),
    Mutant("a binding runs the checks listed after the window before it",
           "src/sympdec/induced.py",
           "    for check in before:\n",
           "    for check in before + after:\n",
           ("tests/test_induced.py::test_the_window_is_checked_before_the_checks_listed_after_it",)),
    Mutant("a run's memo key drops the rule's rows, so one map serves different rows",
           "src/sympdec/induced.py",
           "            key = (groups, *rows)\n",
           "            key = groups\n",
           ("tests/test_induced.py::test_a_run_builds_what_each_degree_builds_alone",
            "tests/test_lifting.py::test_certificate_constructs_one_abhom_per_distinct_key")),
    Mutant("the checks listed after the window are marked done before they run",
           "src/sympdec/induced.py",
           "        for check in after:\n            check(p)\n        after.clear()\n",
           "        after.clear()\n        for check in after:\n            check(p)\n",
           ("tests/test_induced.py::test_a_run_runs_post_window_checks_at_its_first_degree",
            "tests/test_induced.py::test_the_window_is_checked_before_the_checks_listed_after_it")),
    Mutant("iso test skips the rank count",
           "src/sympdec/induced.py",
           "if a.count(0) != b.count(0) or prod(",
           "if prod(",
           ("tests/test_induced.py::test_each_count_decides_alone",
            "tests/test_induced.py::test_isomorphism_agrees_with_its_two_halves",
            "tests/test_induced.py::test_isomorphism_agrees_with_sympy_on_composite_torsion")),
    Mutant("iso test skips the torsion-order count",
           "src/sympdec/induced.py",
           " or prod(filter(None, a)) != prod(filter(None, b)):",
           ":",
           ("tests/test_induced.py::test_each_count_decides_alone",
            "tests/test_induced.py::test_zero_dimensional_homs",
            "tests/test_induced.py::test_isomorphism_agrees_with_its_two_halves",
            "tests/test_induced.py::test_isomorphism_agrees_with_sympy_on_composite_torsion")),
    Mutant("the CLI lets ValueError through as a traceback",
           "src/sympdec/cli.py",
           "    except ValueError as exc:\n"
           "        print(f\"error: {_reason(exc)}\", file=sys.stderr)\n        return 2\n",
           "",
           ("tests/test_cli.py::test_out_of_domain_sizes_exit_two",
            "tests/test_cli.py::test_no_cli_input_produces_a_traceback",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the JSON writer tests int before bool, so true prints as 1",
           "src/sympdec/cli.py",
           "    if obj is None:\n        return \"null\"\n",
           "    if obj is None:\n        return \"null\"\n"
           "    if isinstance(obj, int):\n        return int.__repr__(obj)\n",
           ("tests/test_cli.py::test_json_writer_matches_json_dumps",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the JSON writer drops the key sort",
           "src/sympdec/cli.py",
           "for key, value in sorted(obj.items())]",
           "for key, value in obj.items()]",
           ("tests/test_cli.py::test_json_writer_matches_json_dumps",
            "tests/test_cli_golden.py::test_cli_matches_golden",
            "tests/test_induced_golden.py::test_induced_cli_matches_golden")),
    Mutant("the writer prints a NamedTuple result as the list of its values",
           "src/sympdec/cli.py",
           "        if hasattr(obj, \"_fields\"):\n",
           "        if False:\n",
           ("tests/test_cli_golden.py::test_cli_matches_golden",
            "tests/test_lifting.py::test_reports_serialize")),
    Mutant("a group prints as its tuple",
           "src/sympdec/cli.py",
           "        return list(obj.factors)\n",
           "        return obj.factors\n",
           ("tests/test_human_golden.py::test_human_output_matches_golden",)),
    Mutant("pi states its group as the tuple of its orders",
           "src/sympdec/cli.py",
           "group = list(answer.group.factors) if",
           "group = answer.group.factors if",
           ("tests/test_human_golden.py::test_human_output_matches_golden",)),
    Mutant("the parse path ignores unrecognised arguments instead of falling back",
           "src/sympdec/cli.py",
           "        if not extras:\n",
           "        if True:\n",
           ("tests/test_cli.py::test_parse_path_matches_the_full_parser",)),
    Mutant("the canonical reader skips the choices check",
           "src/sympdec/cli.py",
           "        if action.choices is not None and value not in action.choices:\n"
           "            return None\n",
           "",
           ("tests/test_cli.py::test_parse_path_matches_the_full_parser",
            "tests/test_cli.py::test_parse_path_matches_the_full_parser_property")),
    Mutant("the canonical reader takes a value that starts with -",
           "src/sympdec/cli.py",
           'if action is None or word[:1] == "-":',
           "if action is None:",
           ("tests/test_cli.py::test_parse_path_matches_the_full_parser",
            "tests/test_cli.py::test_parse_path_matches_the_full_parser_property")),
    Mutant("the canonical reader skips the required check",
           "src/sympdec/cli.py",
           "if values[dest] is _MISSING:",
           "if False:",
           ("tests/test_cli.py::test_parse_path_matches_the_full_parser",
            "tests/test_cli.py::test_parse_path_matches_the_full_parser_property")),
    Mutant("the induced view names each part once, not once per generator",
           "src/sympdec/induced.py",
           "for (_, name, _, k), g in sides\n                                   for _ in g.factors]",
           "for (_, name, _, k), g in sides]",
           ("tests/test_induced.py::test_source_names_follow_generators",
            "tests/test_induced_golden.py::test_induced_cli_matches_golden")),
    Mutant("interleaved sums swap the halves of each block's index list",
           "src/sympdec/groups.py",
           "idx = [*range(o, o + k), *range(total + o, total + o + k)]",
           "idx = [*range(total + o, total + o + k), *range(o, o + k)]",
           ("tests/test_groups.py::test_interleaved_sums_match_the_conjugated_block_diagonal",)),
    Mutant("place_blocks drops its lower range checks",
           "src/sympdec/matrix.py",
           "if any(not 0 <= r < rows for r in row_idx) or any(not 0 <= c < cols for c in col_idx):",
           "if any(not r < rows for r in row_idx) or any(not c < cols for c in col_idx):",
           ("tests/test_matrix.py::test_place_blocks_scatters_and_rejects_bad_indices",)),
    Mutant("formulas compares the left block with right",
           "src/sympdec/suites.py",
           "rows = zip(left.matrix.row_lists(), right.matrix.row_lists())",
           "rows = zip(right.matrix.row_lists(), right.matrix.row_lists())",
           ("tests/test_suites.py::test_each_suite_runs_clean",
            "tests/test_suites.py::test_tensor_left_right_check_reads_each_block",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the AbHom constructor skips its well-definedness scan",
           "src/sympdec/induced.py",
           "if a and (a * e % t if t else e):",
           "if False:",
           ("tests/test_induced.py::test_well_definedness_enforced",
            "tests/test_induced.py::test_well_definedness_property",
            "tests/test_induced.py::test_the_build_refuses_what_the_public_constructors_refuse")),
    Mutant("AbHom build skips operator.index on a coefficient",
           "src/sympdec/induced.py",
           "e = index(x) % t if t else index(x)",
           "e = index(x) % t if t else x",
           ("tests/test_induced.py::test_rule_builds_match_the_public_constructors",)),
    Mutant("AbHom's key drops the matrix entries",
           "src/sympdec/induced.py",
           "    key = (src, tgt, tuple(data))",
           "    key = (src, tgt)",
           ("tests/test_induced.py::test_equal_maps_compare_and_hash_equal_and_no_field_is_assigned",
            "tests/test_lifting.py::test_certificate_reports_a_rejected_map_at_its_degree")),
    Mutant("_groups returns the group without testing the kind",
           "src/sympdec/induced.py",
           "        if kind != GROUP:\n            raise OutOfRangeError(",
           "        if False:\n            raise OutOfRangeError(",
           ("tests/test_induced.py::test_the_build_reads_each_part_as_the_public_table_answers",)),
    Mutant("the stable symplectic table drops pi_5 to the trivial group",
           "src/sympdec/homotopy.py",
           "5: _Z2",
           "5: _TRIVIAL",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_homotopy.py::test_sp_stable_values",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the symplectic boundary pair takes Z/2 for even n",
           "src/sympdec/homotopy.py",
           "_Z2 if n % 2 else _TRIVIAL",
           "_TRIVIAL if n % 2 else _Z2",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_homotopy.py::test_sp_boundary_parity",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the classifying space reads degree i of the group, not i - 1",
           "src/sympdec/homotopy.py",
           "TABLES[family](i - 1, n)",
           "TABLES[family](i, n)",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_homotopy.py::test_classifying_shift",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the projective symplectic group is simply connected",
           "src/sympdec/homotopy.py",
           "return GROUP, _Z2, \"fundamental group",
           "return GROUP, _TRIVIAL, \"fundamental group",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_homotopy.py::test_psp",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the classifying space answers the psp constant before the size check",
           "src/sympdec/homotopy.py",
           "    _check(i - 1, n)\n    if family == \"psp\"",
           "    if family == \"psp\"",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("the unitary table puts Z in the even degrees",
           "src/sympdec/homotopy.py",
           "_Z if i % 2 else _TRIVIAL",
           "_TRIVIAL if i % 2 else _Z",
           ("tests/test_homotopy.py::test_tables_match_the_oracle",
            "tests/test_homotopy.py::test_u_gl_table",
            "tests/test_cli_golden.py::test_cli_matches_golden")),
    Mutant("random_sp adds to the A^{-T} column where it should subtract",
           "src/sympdec/groups.py",
           "right[j] = _plus(right[j], -c, right[i])",
           "right[j] = _plus(right[j], c, right[i])",
           ("tests/test_groups.py::test_random_sp_is_the_product_of_its_generators",
            "tests/test_groups.py::test_random_sp_and_gl_draws_are_pinned",
            "tests/test_groups.py::test_random_sp_passes_both_routes_property")),
    Mutant("random_so drops the sign of s in the imaginary part of row q",
           "src/sympdec/groups.py",
           "im[q] = [cq * x + sp * y for x, y in zip(im_q, re_p)]",
           "im[q] = [cq * x + abs(sp) * y for x, y in zip(im_q, re_p)]",
           ("tests/test_groups.py::test_random_so_is_the_product_of_its_rotations",
            "tests/test_groups.py::test_random_so_draws_are_pinned",
            "tests/test_groups.py::test_random_so_membership_and_determinism",
            "tests/test_groups.py::test_random_so_lies_in_so_property")),
    Mutant("the stream's refill repeats its old bytes instead of extending the digest",
           "src/sympdec/groups.py",
           "self._buf = self._xof.digest(2 * end)",
           "self._buf = self._buf * 2",
           ("tests/test_groups.py::test_stream_matches_the_shake_reference",)),
    Mutant("the stream's shuffle stops one index early",
           "src/sympdec/groups.py",
           "for i in reversed(range(1, len(x))):",
           "for i in reversed(range(2, len(x))):",
           ("tests/test_groups.py::test_stream_matches_the_shake_reference",
            "tests/test_groups.py::test_stream_reaches_every_order_and_value",
            "tests/test_groups.py::test_random_so_draws_are_pinned")),
]

_FAILED = re.compile(r"^FAILED (\S+?)(?:\[[^\]]*\])?(?: - |$)", re.M)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.so")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess | None:
    """The finished pytest run of tests in tree, or None if it ran past TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # a fixed hypothesis seed makes each verdict repeatable
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _apply(tree: Path, m: Mutant) -> str | None:
    """Make the replacement in tree; returns an error text, or None."""
    path = tree / m.path
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        return f"old text occurs {count} times in {m.path}, expected once"
    path.write_text(text.replace(m.old, m.new))
    return None


def run_mutant(m: Mutant) -> tuple[str, str]:
    """(outcome, detail) for one mutant, in a fresh copy of the tree; the
    outcome is "caught", "MISSED" or "TIMED OUT"."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sympdec-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        error = _apply(tree, m)
        if error:
            return "MISSED", error
        proc = _pytest(tree, m.tests)
    if proc is None:
        return "TIMED OUT", f"pytest stopped after {TIMEOUT_S} s"
    failed = set(_FAILED.findall(proc.stdout))
    survivors = [t for t in m.tests if t not in failed]
    if proc.returncode != 1 or survivors:
        tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
        return "MISSED", (f"not failed: {', '.join(survivors) or '-'} "
                          f"(pytest exit {proc.returncode}: {tail[0]})")
    return "caught", f"{len(m.tests)} tests failed, {time.perf_counter() - start:.0f} s"


def main() -> int:
    start = time.perf_counter()

    # every named test must pass before any mutant may claim to have failed it
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="sympdec-mutant-") as tmp:
        _copy_tree(Path(tmp))
        clean = _pytest(Path(tmp), tests)
    if clean is None:
        print(f"the named tests on the unchanged tree ran past {TIMEOUT_S} s")
        return 1
    if clean.returncode != 0:
        print(clean.stdout[-2000:] + clean.stderr[-2000:])
        print(f"the named tests do not pass on the unchanged tree (pytest exit {clean.returncode})")
        return 1

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    for m, (outcome, detail) in zip(MUTANTS, results):
        print(f"{outcome}: {m.name} ({detail})")
    outcomes = [outcome for outcome, _ in results]
    caught, timed_out = outcomes.count("caught"), outcomes.count("TIMED OUT")
    print(f"{caught} of {len(MUTANTS)} mutants caught by {len(tests)} tests, "
          f"{len(MUTANTS) - caught - timed_out} missed, {timed_out} timed out, "
          f"{time.perf_counter() - start:.0f} s")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
