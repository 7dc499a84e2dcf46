"""Mutation catalog: every certificate step must be load-bearing.

Each entry is (name, file, exact old text, new text, killing tests).  The
old text must occur exactly once in its file; the new text drops or
weakens one certificate step; the killing tests are pytest node ids, and
at least one of them must fail once the mutant is in place.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant is applied to a fresh temporary copy of ``src/`` and
``tests/``, and only its killing tests run there, with ``pytest -x`` and
``PYTEST_DISABLE_PLUGIN_AUTOLOAD=1``.  Before any mutant, the union of the
killing tests runs once the same way on an unmutated copy.  The run exits
1 if an old text does not match exactly once, if a killing test fails or
errors on the unmutated copy, if a mutant survives (its tests pass) or if
its test run errors instead of failing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SYMPOW = "src/ksw/sympow.py"
_WEIL = "src/ksw/weil.py"
_LINALG = "src/ksw/linalg.py"
_CLIFFORD = "src/ksw/clifford.py"
_T_BLADE_COLUMNS = "tests/test_clifford.py::test_blade_columns_are_the_unit_blade_products"
_CORR = "src/ksw/formal_corr.py"
_T_SYMPOW = "tests/test_sympow.py::"
_T_WEIL = "tests/test_weil.py::"
_T_CLI = "tests/test_cli.py::"
_T_CORR = "tests/test_formal_corr.py::"
_T_PRODUCTS = "tests/test_linalg.py::test_products_equal_controls"
_T_ECHELON = "tests/test_linalg.py::test_kernel_basis_matches_the_rref_oracle_on_seeded_matrices"
_T_REDUCED = "tests/test_linalg.py::test_reduced_echelon_basis_is_the_reduced_echelon_kernel_basis"
_KS = "src/ksw/kuga_satake.py"
_T_KS = "tests/test_kuga_satake.py::"
_SUITE = "src/ksw/suite.py"
_T_CONTROLS = "tests/test_suite_controls.py::"

CATALOG = [
    (
        "level_two_part: drop the degenerate-image check",
        _SYMPOW,
        "    if image is None:\n",
        "    if False:\n",
        [_T_SYMPOW + "test_level_two_part_rejects_a_degenerate_image"],
    ),
    (
        "level_two_part: drop the |p-q| <= 2 check",
        _SYMPOW,
        "    if not _level_factor(d_a, norm, 2, _level_factor(d_a, norm, 0, image)).is_zero():\n",
        "    if False:\n",
        [_T_SYMPOW + "test_level_two_part_rejects_a_wrong_rotation_generator"],
    ),
    (
        "_blocks: drop (a), the harmonic block owns its rows",
        _SYMPOW,
        "    owns_rows = len({next(iter(row)) for row in rows if len(row) == 1}) == harm.cols\n",
        "    owns_rows = True\n",
        [_T_SYMPOW + "test_decompose_rejects_a_harmonic_block_that_owns_no_rows"],
    ),
    (
        "_blocks: drop (b), C . H = 0",
        _SYMPOW,
        "        and (sym.contraction * harm).is_zero()\n",
        "        and True\n",
        [_T_SYMPOW + "test_decompose_rejects_a_harmonic_block_off_the_contraction_kernel"],
    ),
    (
        "_blocks: drop (c'), C . Q^l H == c_l Q^(l-1) H",
        _SYMPOW,
        "            sym.contraction * lift == casimir_block_eigenvalue(space.h, k, l) * block\n",
        "            True\n",
        [_T_SYMPOW + "test_decompose_rejects_a_lower_block_with_a_swapped_column"],
    ),
    (
        "_blocks: the scalar of (c') taken at l + 1",
        _SYMPOW,
        "casimir_block_eigenvalue(space.h, k, l) * block",
        "casimir_block_eigenvalue(space.h, k, l + 1) * block",
        [_T_SYMPOW + "test_decompose_sums_and_certificates"],
    ),
    (
        "_blocks: no lower blocks at k = 2",
        _SYMPOW,
        "    lower = _blocks(space, k - 2) if k >= 2 else []\n",
        "    lower = _blocks(space, k - 2) if k > 2 else []\n",
        [_T_SYMPOW + "test_decompose_k2"],
    ),
    (
        "_stack_rank: drop the exact fallback",
        _SYMPOW,
        "    return Matrix._of(read + list(rows), sym.dim).rank()\n",
        "    return 0\n",
        [_T_SYMPOW + "test_stack_rank_falls_back_to_the_exact_rank"],
    ),
    (
        "_stack_rank: drop the harmonicity product",
        _SYMPOW,
        "    if rank == target and (Matrix._of(read, sym.dim) * sym.contraction.transpose()).is_zero():\n",
        "    if rank == target:\n",
        [_T_SYMPOW + "test_isotropic_stack_rank_certifies_only_harmonic_stacks"],
    ),
    (
        "_echelon_mod_p: the slot width without the target term",
        _LINALG,
        "    size = (((p - 1) + target * (p - 1) ** 2).bit_length() + 8) // 8\n",
        "    size = ((p - 1).bit_length() + 8) // 8\n",
        ["tests/test_linalg.py::test_echelon_mod_p_slots_never_carry"],
    ),
    (
        "_echelon_mod_p: never stops at the target",
        _LINALG,
        "        if len(pivots) == target:\n            break\n",
        "        if False:\n            break\n",
        [_T_SYMPOW + "test_isotropic_span_builds_only_the_power_rows_it_reads"],
    ),
    (
        "isotropic_span_check: the target without the rank of C",
        _SYMPOW,
        "    target = sym.dim - sym.contraction.rank()",
        "    target = sym.dim",
        [_T_SYMPOW + "test_isotropic_span_signature_33"],
    ),
    (
        "isotropic_span_check: drop v^k from the witness",
        _SYMPOW,
        "        yield zero\n",
        "        pass\n",
        [_T_SYMPOW + "test_isotropic_span_hyperbolic_plane"],
    ),
    (
        "isotropic_span_check: the points of degree 2k - 1",
        _SYMPOW,
        "_exponent_basis(space.h - 1, 2 * k)",
        "_exponent_basis(space.h - 1, 2 * k - 1)",
        [_T_SYMPOW + "test_isotropic_span_hyperbolic_plus_negative"],
    ),
    (
        "isotropic_span_check: a shortfall returns False",
        _SYMPOW,
        '        raise DecompositionFailure("harmonic blocks failed to span; signals an arithmetic bug")\n',
        "        return False\n",
        [_T_SYMPOW + "test_isotropic_span_shortfall_raises"],
    ),
    (
        "build_sym: drop the off-diagonal 2 of the contraction",
        _SYMPOW,
        "g[i].get(j, 0) * (1 if i == j else 2)",
        "g[i].get(j, 0)",
        [_T_SYMPOW + "test_contraction_and_q_mult_against_polynomial_oracle"],
    ),
    (
        "build_sym: mu_j for the falling factor mu_j - 1 of d^2/dy_i^2",
        _SYMPOW,
        "gw * mu[i] * (mu[j] - (i == j))",
        "gw * mu[i] * mu[j]",
        [_T_SYMPOW + "test_contraction_and_q_mult_against_polynomial_oracle"],
    ),
    (
        "sym_derivation: drop the exponent weight of d/dy_i",
        _SYMPOW,
        "yield tuple(target), a * e\n",
        "yield tuple(target), a\n",
        [_T_SYMPOW + "test_sym_derivation_against_polynomial_oracle"],
    ),
    (
        "weil_class_space: drop the entry check phi^2 = -d.I, d > 0",
        _WEIL,
        "    if not (d > 0 and endo.phi * endo.phi == -d * Matrix.identity(8)):\n",
        "    if False:\n",
        [_T_WEIL + "test_class_space_refuses_phi_squared_not_minus_d_before_any_elimination"],
    ),
    (
        "weil_class_space: drop the d > 0 guard",
        _WEIL,
        "    if not (d > 0 and endo.phi * endo.phi == -d * Matrix.identity(8)):\n",
        "    if not (endo.phi * endo.phi == -d * Matrix.identity(8)):\n",
        [_T_WEIL + "test_class_space_refuses_d_not_positive_before_any_elimination"],
    ),
    (
        "weil_class_space: drop the dependent-pair check",
        _WEIL,
        "    if basis is None:\n",
        "    if False:\n",
        [_T_WEIL + "test_a_wrong_eigenvector_wedge_raises"],
    ),
    (
        "weil_class_space: drop both relations D_P X = -4n.den.Y and m.D_P Y = 4den.X",
        _WEIL,
        "    if _apply_wedge4(cols, xs) != {mask: -4 * n * den * y for mask, y in ys.items()} or (\n"
        "        {mask: m * y for mask, y in _apply_wedge4(cols, ys).items()} != {mask: 4 * den * x for mask, x in xs.items()}\n"
        "    ):\n",
        "    if False:\n",
        [_T_WEIL + "test_a_wrong_eigenvector_wedge_raises"],
    ),
    (
        "weil_class_space: drop the second relation m.D_P Y = 4den.X",
        _WEIL,
        "    if _apply_wedge4(cols, xs) != {mask: -4 * n * den * y for mask, y in ys.items()} or (\n",
        "    if _apply_wedge4(cols, xs) != {mask: -4 * n * den * y for mask, y in ys.items()} and (\n",
        [_T_WEIL + "test_each_relation_is_checked_on_its_own"],
    ),
    (
        "weil_class_space: drop the first relation D_P X = -4n.den.Y",
        _WEIL,
        "    if _apply_wedge4(cols, xs) != {mask: -4 * n * den * y for mask, y in ys.items()} or (\n",
        "    if False or (\n",
        [_T_WEIL + "test_each_relation_is_checked_on_its_own"],
    ),
    (
        "weil_class_space: drop the numerator of d from D_P X = -4n.den.Y",
        _WEIL,
        "{mask: -4 * n * den * y for mask, y in ys.items()}",
        "{mask: -4 * den * y for mask, y in ys.items()}",
        [_T_WEIL + "test_constructed_class_space_is_the_exact_kernel_basis"],
    ),
    (
        "weil_class_space: drop the denominator of phi from m.D_P Y = 4den.X",
        _WEIL,
        "{mask: 4 * den * x for mask, x in xs.items()}",
        "{mask: 4 * x for mask, x in xs.items()}",
        [_T_WEIL + "test_constructed_class_space_is_the_exact_kernel_basis"],
    ),
    (
        "weil_class_space: D_P X = +4n.den.Y, the sign of mu^2 lost",
        _WEIL,
        "{mask: -4 * n * den * y for mask, y in ys.items()}",
        "{mask: 4 * n * den * y for mask, y in ys.items()}",
        [_T_WEIL + "test_weil_class_space_block_instance"],
    ),
    (
        "weil_class_space: drop the denominator m of d from m.D_P Y = 4den.X",
        _WEIL,
        "{mask: m * y for mask, y in _apply_wedge4(cols, ys).items()}",
        "_apply_wedge4(cols, ys)",
        [_T_WEIL + "test_constructed_class_space_is_the_exact_kernel_basis"],
    ),
    (
        "_span_basis: the second pivot is the first nonzero position, not the last",
        _WEIL,
        "    q2 = max(xs.keys() | ys.keys(), key=position, default=None)\n",
        "    q2 = min(xs.keys() | ys.keys(), key=position, default=None)\n",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "_span_basis: the first pivot is the first nonzero of v1, not the last",
        _WEIL,
        "    q1 = max(v1, key=position)\n",
        "    q1 = min(v1, key=position)\n",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "_span_basis: first nonzero made negative",
        _WEIL,
        "if v[min(v, key=position)] > 0 else",
        "if v[min(v, key=position)] < 0 else",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "hodge_class_dimension: drop the J.J == -I check",
        _WEIL,
        "    Weight1Structure(dim, j)\n",
        "    pass\n",
        [_T_WEIL + "test_hodge_class_dimension_needs_j_squared_minus_identity"],
    ),
    (
        "_apply_wedge4: keep the entries that cancel to zero",
        _WEIL,
        "    return {mask: y for mask, y in out.items() if y}\n",
        "    return out\n",
        [_T_WEIL + "test_weil_class_space_block_instance"],
    ),
    (
        "certify_22: the zero test always passes",
        _WEIL,
        "    return not any(_apply_wedge4(cols, {mask: x for mask, x in zip(masks, v) if x}) for v in classes)\n",
        "    return not any({} for v in classes)\n",
        [_T_WEIL + "test_weil_class_space_exists_without_balance"],
    ),
    (
        "_wedge_into: e_S^e_r always signed +",
        _WEIL,
        "(-x * y if (mask >> r).bit_count() & 1 else x * y)",
        "x * y",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "_wedge_into: drop the r not in S guard",
        _WEIL,
        "            if not mask >> r & 1:\n                key",
        "            if True:\n                key",
        [_T_WEIL + "test_wedge_into_adds_the_exterior_product_of_basis_vectors"],
    ),
    (
        "_eigenvector_wedge: mu^2 = +n.m in the cross term",
        _WEIL,
        "{c: -n * m * den}",
        "{c: n * m * den}",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "cmd_weil_analyze: turn every workbench error into exit 2",
        "src/ksw/cli.py",
        "    except (NonScalarSquare, NotQuadratic, NotCommutingWithJ) as exc:\n",
        "    except WorkbenchError as exc:\n",
        [_T_CLI + "test_weil_analyze_class_space_fault_is_a_violation"],
    ),
    (
        "rational_sqrt: drop the denominator test",
        "src/ksw/qspace.py",
        "rn * rn == n and rd * rd == d",
        "rn * rn == n",
        ["tests/test_qspace.py::test_is_rational_square_and_same_class"],
    ),
    (
        "qspace: import sympy eagerly",
        "src/ksw/qspace.py",
        "from math import isqrt\n",
        "from math import isqrt\n\nimport sympy\n",
        [_T_CLI + "test_importing_the_cli_leaves_sympy_out"],
    ),
    (
        "products_equal: drop the shape check",
        _LINALG,
        "    if a.rows != c.rows or b.cols != d.cols:\n",
        "    if False:\n",
        [_T_PRODUCTS],
    ),
    (
        "products_equal: swap s and t",
        _LINALG,
        "anums, brows, cden * dd)\n        if any(_accumulate(acc, cnums, drows, -aden * db)",
        "anums, brows, aden * db)\n        if any(_accumulate(acc, cnums, drows, -cden * dd)",
        [_T_PRODUCTS],
    ),
    (
        "products_equal: swap D_b and D_d",
        _LINALG,
        "anums, brows, cden * dd)\n        if any(_accumulate(acc, cnums, drows, -aden * db)",
        "anums, brows, cden * db)\n        if any(_accumulate(acc, cnums, drows, -aden * dd)",
        [_T_PRODUCTS],
    ),
    (
        "_bareiss_echelon: divide by prev instead of the row's stored pivot",
        _LINALG,
        "            rows[i] = {j: x // base[i] for j, x in new.items() if x}\n",
        "            rows[i] = {j: x // prev for j, x in new.items() if x}\n",
        [_T_ECHELON],
    ),
    (
        "_bareiss_echelon: skip the pivot-row rescale",
        _LINALG,
        "        if base[r] != prev:\n",
        "        if False:\n",
        [_T_ECHELON],
    ),
    (
        "reduced_echelon_basis: drop the dependent-columns test",
        _LINALG,
        "    if len(pivots) < m.cols:\n",
        "    if False:\n",
        [_T_SYMPOW + "test_level_two_part_rejects_a_degenerate_image"],
    ),
    (
        "reduced_echelon_basis: keep the sign of the free entries",
        _LINALG,
        "            out[n - 1 - f][p] = -v\n",
        "            out[n - 1 - f][p] = v\n",
        [_T_REDUCED],
    ),
    (
        "reduced_echelon_basis: drop the position reversal",
        _LINALG,
        "    rows = [{n - 1 - j: x for j, x in nums.items()}",
        "    rows = [{j: x for j, x in nums.items()}",
        [_T_REDUCED],
    ),
    (
        "_eigenvector_wedge: take every pivot, not only those of the e_c",
        _WEIL,
        " for p in _bareiss_echelon(pairs, 16) if p % 2 == 0]\n",
        " for p in _bareiss_echelon(pairs, 16)]\n",
        [_T_WEIL + "test_weil_class_space_bases_are_pinned"],
    ),
    (
        "_primitive_columns: drop the sign normalisation",
        _LINALG,
        "            scale[f] = gcd(g, x) if g > 0 else -gcd(g, x)\n",
        "            scale[f] = gcd(g, x)\n",
        ["tests/test_linalg.py::test_rank_kernel_rank_one"],
    ),
    (
        "_sign_table: a wrong step",
        _CLIFFORD,
        "        table[mask] = table[mask ^ low] ^ (low - 1)\n",
        "        table[mask] = table[mask ^ low] ^ low\n",
        ["tests/test_clifford.py::test_sign_and_contract_tables_exhaustive_h1_to_h6"],
    ),
    (
        "_blade_columns: drop the reordering sign",
        _CLIFFORD,
        "                column[m ^ b] = -w if flip.bit_count() & 1 else w\n",
        "                column[m ^ b] = w\n",
        [_T_BLADE_COLUMNS],
    ),
    (
        "_blade_columns: the contraction read at the target mask",
        _CLIFFORD,
        "            w = c * contract[m & b]\n",
        "            w = c * contract[m ^ b]\n",
        [_T_BLADE_COLUMNS],
    ),
    (
        "_blade_columns: the left and right sign masks swapped",
        _CLIFFORD,
        "                flip = sm & b if left else sb & m\n",
        "                flip = sb & m if left else sm & b\n",
        [_T_BLADE_COLUMNS],
    ),
    (
        "block_max_level: drop the already-killed test",
        _SYMPOW,
        "        if level > 0 and reduced.is_zero():\n",
        "        if False:\n",
        [_T_SYMPOW + "test_block_max_level_rejects_a_wrong_annihilator"],
    ),
    (
        "embedding_has_full_rank: accept every block",
        _KS,
        "    return embedding_unit_block(ks, v0).rank() == ks.space.h\n",
        "    return True\n",
        [_T_KS + "test_embedding_full_rank_rejects_a_repeated_row"],
    ),
    (
        "graded product: e's left out of the Koszul odd mask",
        _CORR,
        "f | e << b if koszul else f,",
        "f if koszul else f,",
        [_T_CORR + "test_kunneth_square_kummer_case"],
    ),
    (
        "graded product: e's put into the broken odd mask",
        _CORR,
        "f | e << b if koszul else f,",
        "f | e << b if koszul else f | e << b,",
        [_T_CORR + "test_negative_control_broken_grading_kills_the_square"],
    ),
    (
        "graded product: drop the e-square vanishing",
        _CORR,
        "                if f1 & f2 or e1 & e2:\n",
        "                if f1 & f2:\n",
        [_T_CORR + "test_odd_squares_vanish"],
    ),
    (
        "element product frame: over the left denominator alone",
        _LINALG,
        "self.den * other.den * scale",
        "self.den * scale",
        [
            _T_CORR + "test_products_match_the_three_term_reference",
            "tests/test_clifford.py::test_element_product_matches_fraction_reference",
        ],
    ),
    (
        "verify_j_square: accept every e",
        _KS,
        "        if slots[x] != minus_one:\n",
        "        if False:\n",
        [_T_KS + "test_j_square_rejects_a_perturbed_e"],
    ),
    (
        "J^2 sum: drop the leftover-slot test",
        _KS,
        "        if any(slots):\n",
        "        if False:\n",
        [_T_KS + "test_j_square_rejects_a_square_off_minus_one_by_a_nonscalar"],
    ),
    (
        "element product frame: over the left denominator alone, seen by the canonical forms",
        _LINALG,
        "self.den * other.den * scale",
        "self.den * scale",
        ["tests/test_clifford.py::test_one_element_built_several_ways_is_equal_and_hashes_equal"],
    ),
    (
        "check_quadratic_endo: phi and J refused only when every side is off",
        _WEIL,
        "    if phi.cols != n or j.rows != n or j.cols != n:\n",
        "    if phi.cols != n and j.rows != n and j.cols != n:\n",
        [_T_CLI + "test_weil_analyze_rejects_phi_of_another_dimension"],
    ),
    (
        "space_from_json: a declared dim refused when it equals the gram size",
        "src/ksw/serialize.py",
        '_json_int(data["dim"], "dim") != gram.rows',
        '_json_int(data["dim"], "dim") == gram.rows',
        [_T_CLI + "test_qform_inspect_holds_the_declared_dim_to_the_gram"],
    ),
    (
        "kunneth_coefficient: unequal pair coefficients pass as uniform",
        _CORR,
        "            if c is None or (coef is not None and c != coef):\n",
        "            if c is None and (coef is not None and c != coef):\n",
        [_T_CORR + "test_kunneth_coefficient_refuses_unequal_pair_coefficients"],
    ),
    (
        "_wedge4_moves: drop the move sign",
        _WEIL,
        "                    flip = ((low_t ^ ((1 << j) - 1)) & rest).bit_count() & 1\n",
        "                    flip = 0\n",
        [_T_WEIL + "test_apply_wedge4_is_the_derivation_times_the_vector"],
    ),
    (
        "_wedge4_moves: sign of moving e_t out alone",
        _WEIL,
        "flip = ((low_t ^ ((1 << j) - 1)) & rest)",
        "flip = (low_t & rest)",
        [_T_WEIL + "test_apply_wedge4_is_the_derivation_times_the_vector"],
    ),
    (
        "matrix_from_json: a digit string over the int limit is a bad matrix payload",
        "src/ksw/serialize.py",
        "        except ValueError:  # over the int digit limit: parse_rational words the message\n            pass\n",
        "        except ZeroDivisionError:\n            pass\n",
        [_T_CLI + "test_matrix_entries_parse_as_before"],
    ),
    (
        "structure_commutators: the product table certificate always holds",
        _KS,
        "        table_ok = _table_is_clifford(alg)\n",
        "        table_ok = True\n",
        [_T_KS + "test_right_mul_commutes_needs_the_table_certificate", _T_CONTROLS + "test_ks_checks_fail_under_their_faults"],
    ),
    (
        "structure_commutators: skip the last generator",
        _KS,
        "range(s, alg.h, samples)",
        "range(s, alg.h - 1, samples)",
        [_T_KS + "test_right_mul_commutes_entries_split_the_generators", _T_CONTROLS + "test_ks_checks_fail_under_their_faults"],
    ),
    (
        "generator pairs: skip every x",
        _KS,
        "            if x & bit:\n",
        "            if True:\n",
        [_T_CONTROLS + "test_ks_checks_fail_under_their_faults"],
    ),
    (
        "generator identity: drop the relabel sign on the left side",
        _KS,
        "                if target.get(m ^ bit, 0) * k != n * f[m]:\n",
        "                if target.get(m ^ bit, 0) * k != n * contract[m & bit]:\n",
        [_T_KS + "test_structure_commutators_random_h7"],
    ),
    (
        "table certificate: drop the bilinear sign law",
        _KS,
        " or sign[m] != sign[m ^ low] ^ sign[low]:",
        ":",
        [_T_KS + "test_table_certificate_rejects_each_broken_law"],
    ),
    (
        "table certificate: drop the nonzero d_i",
        _KS,
        "    return unit != 0 and all(contract[1 << i] for i in range(alg.h))\n",
        "    return True\n",
        [_T_KS + "test_table_certificate_rejects_each_broken_law"],
    ),
    (
        "vector identities: plane anticommutes compares v.e with e.v, the negation dropped",
        _KS,
        "_same(ve, 1, ev, -1)",
        "_same(ve, 1, ev, 1)",
        [_T_KS + "test_vector_identities_match_element_products"],
    ),
    (
        "vector identities: perp commutes compares w.e with -e.w",
        _KS,
        "_accumulate(dict(blade_e[i]), {i: 1}, e_blade, -1)",
        "_accumulate(dict(blade_e[i]), {i: 1}, e_blade, 1)",
        [_T_KS + "test_vector_identities_match_element_products"],
    ),
    (
        "vector identities: the columns e_i.e and e.e_i swapped",
        _KS,
        '    blade_e = dict(zip(bits, _blade_columns(e, "right", bits)))\n    e_blade = dict(zip(bits, _blade_columns(e, "left", bits)))\n',
        '    blade_e = dict(zip(bits, _blade_columns(e, "left", bits)))\n    e_blade = dict(zip(bits, _blade_columns(e, "right", bits)))\n',
        [_T_KS + "test_vector_identities_match_element_products"],
    ),
    (
        "matrix sign laws: skip the P-perp vectors",
        _KS,
        "[(period.alpha, -1), (period.beta, -1)] + [(w, 1) for w in plane_orthogonal_basis(ks.base)]",
        "[(period.alpha, -1), (period.beta, -1)]",
        [_T_KS + "test_matrix_sign_laws_read_the_perp_vectors"],
    ),
    (
        "ks build --v0: index 0 refused",
        "src/ksw/cli.py",
        "        if not 0 <= args.v0 < h:\n",
        "        if not 1 <= args.v0 < h:\n",
        [_T_CLI + "test_ks_build_v0_edges"],
    ),
    (
        "ks build --v0: the message names h as the last index",
        "src/ksw/cli.py",
        '"--v0 index %d outside 0..%d" % (args.v0, h - 1)',
        '"--v0 index %d outside 0..%d" % (args.v0, h)',
        [_T_CLI + "test_ks_build_v0_out_of_range"],
    ),
    (
        "ks build --v0: the null-vector test inverted",
        "src/ksw/cli.py",
        "        if not hk.space.quadratic(v0):\n",
        "        if hk.space.quadratic(v0):\n",
        [_T_CLI + "test_ks_build_v0_edges"],
    ),
    (
        "Weight1Structure: J refused only when both sides are off",
        "src/ksw/hodge.py",
        "        if j.rows != dim or j.cols != dim:\n",
        "        if j.rows != dim and j.cols != dim:\n",
        [_T_CLI + "test_weil_analyze_rejects_a_non_square_j"],
    ),
    (
        "suite config: ks.instances_per_h must be at least 1",
        _SUITE,
        '    ("ks", "instances_per_h", 0),\n',
        '    ("ks", "instances_per_h", 1),\n',
        [_T_CLI + "test_suite_ks_with_no_instances_per_h_is_vacuous"],
    ),
    (
        "randgen: a rotation pair off the unit circle",
        "src/ksw/randgen.py",
        "    (Fraction(5, 13), Fraction(12, 13)),\n",
        "    (Fraction(5, 14), Fraction(12, 13)),\n",
        ["tests/test_hodge.py::test_pythagorean_pairs_lie_on_the_unit_circle"],
    ),
    (
        "CliffordElement repr: blade labels from e-1",
        _CLIFFORD,
        '"e%d" % (i + 1)',
        '"e%d" % (i - 1)',
        ["tests/test_clifford.py::test_element_repr_names_blades_from_e1"],
    ),
]

_FAULTS = _T_CONTROLS + "test_%s_checks_fail_under_their_faults"

#: one mutant per predicate of the suite's check table (check, old text, new text, family of its control rows)
CATALOG += [
    ("suite: %s always holds" % check, _SUITE, old, new, [_FAULTS % family])
    for check, old, new, family in (
        ("linalg.inverse_roundtrip", "lambda t: t.m * t.inv == Matrix.identity(t.m.rows)", "lambda t: True", "linalg_and_qspace"),
        ("qspace.signature_congruence", "lambda t: t.scrambled.signature == t.base.signature", "lambda t: True", "linalg_and_qspace"),
        (
            "qspace.discriminant_square_class",
            "lambda t: same_square_class(t.disc, prod(t.scrambled.diag_values, start=_ONE))",
            "lambda t: True",
            "linalg_and_qspace",
        ),
        (
            "clifford.dimension_counts",
            "    return alg.dim == 2 ** t.h and len(alg.even_masks) == 2 ** (t.h - 1) and len(alg.odd_masks) == 2 ** (t.h - 1)\n",
            "    return True\n",
            "clifford",
        ),
        ("clifford.anticommutation", "t.v * t.w + t.w * t.v == t.two_vw if t.pair", "True if t.pair", "clifford"),
        ("clifford.associativity", "(t.x * t.y) * t.z == t.x * (t.y * t.z)", "True", "clifford"),
        ("clifford.parity_additivity", '(_even_part(t.x) * _even_part(t.y)).parity == "even"', "True", "clifford"),
        ("ks.e_square", "lambda t: kuga_satake.verify_e_square(t.ks)", "lambda t: True", "ks"),
        ("ks.j_square", "lambda t: kuga_satake.verify_j_square(t.ks)", "lambda t: True", "ks"),
        (
            "ks.commutators",
            "lambda t: kuga_satake.structure_commutators(t.ks, samples=t.samples, raise_on_failure=False).ok",
            "lambda t: True",
            "ks",
        ),
        ("ks.torus_dimension", "lambda t: t.ks.torus_complex_dim == 2 ** (t.h - 2)", "lambda t: True", "ks"),
        (
            "ks.basis_independence",
            "    return _e_of(t, tuple(a * x + b * y for x, y in pairs), tuple(-b * x + a * y for x, y in pairs)) == t.ks.e\n",
            "    return True\n",
            "ks",
        ),
        (
            "ks.orientation_reversal",
            "lambda t: _e_of(t, t.hk.period.beta, t.hk.period.alpha) == -t.ks.e",
            "lambda t: True",
            "ks",
        ),
        ("ks.endo_rank", "lambda t: kuga_satake.embedding_has_full_rank(t.ks, t.v0)", "lambda t: True", "ks"),
        ("ks.endo_sign_laws", "lambda t: kuga_satake.embedding_sign_laws(t.ks, t.v0, matrix_level=t.h <= 5)", "lambda t: True", "ks"),
        (
            "ks.odd_even_iso inverse",
            "lambda t: kuga_satake.odd_even_inverse(t.ks, t.v0) * t.riso == Matrix.identity(1 << (t.h - 1))",
            "lambda t: True",
            "ks",
        ),
        ("hodge.period_isotropy", "    return d_aa == 0 and cross == 0 and half == t.hk.period.norm > 0\n", "    return True\n", "hodge"),
        ("hodge.rotation_skew", "    return (a.transpose() * g + g * a).is_zero()\n", "    return True\n", "hodge"),
        (
            "hodge.h2_spectrum",
            "    return spec.dim(2, 0) == 1 and spec.dim(0, 2) == 1 and spec.dim(1, 1) == t.h - 2\n",
            "    return True\n",
            "hodge",
        ),
        ("sympow.decompose", "        dims_ok and dec.total == sympow.sym_dim(t.h, t.k),\n", "        True,\n", "sympow"),
        (
            "sympow.harmonic_symmetry",
            "    return reduced_echelon_basis(swap * harm) == reduced_echelon_basis(harm)\n",
            "    return True\n",
            "sympow",
        ),
        ("sympow.level_filtration", "lambda t: len(sympow.level_two_part(t.hk, t.k)) == t.h", "lambda t: True", "sympow"),
        ("sympow.block_level", "    return all(lvl == 2 * (t.k - 2 * l) for l, lvl in levels), str(levels)\n", "    return True, str(levels)\n", "sympow"),
        ("sympow.isotropic_span", "lambda t: sympow.isotropic_span_check(t.space, t.k)", "lambda t: True", "sympow"),
        ("sympow.isotropic_definite_control", '    return False, "expected NotApplicable"\n', '    return True, "expected NotApplicable"\n', "sympow"),
        ("weil.balanced_block", "lambda t: _analysis(t.j, t.phi) == (2, 2, True, 2, True)", "lambda t: True", "weil"),
        ("weil.unbalanced_control", "lambda t: _analysis(t.j, t.j) == (4, 0, False, 2, False)", "lambda t: True", "weil"),
        (
            "weil.trace_criterion",
            "lambda t: is_weil(t.endo) == ((t.endo.phi * t.endo.j).trace() == 0) == t.balanced",
            "lambda t: True",
            "weil",
        ),
        ("weil.conjugation_invariance", "lambda t: len(weil_class_space(t.endo)) == 2", "lambda t: True", "weil"),
        ("betti.bound_monotone", "lambda t: t.k >= t.prev", "lambda t: True", "betti"),
        (
            "betti.catalog_tight",
            "lambda t: all(betti.audit_b3(e).status == betti.STATUS_TIGHT for e in betti.default_catalog())",
            "lambda t: True",
            "betti",
        ),
        (
            "betti.factor_dims",
            "lambda t: [betti.ks_factor_dims(h) for h in (7, 6, 3)] == [{4, 8}, {2, 4, 8}, {1, 2}]",
            "lambda t: True",
            "betti",
        ),
        ("corr.uniform_coefficient", "lambda t: (t.uniform, ", "lambda t: (True, ", "corr"),
        ("corr.kunneth_block", "lambda t: formal_corr.is_kunneth_concentrated(t.gamma)", "lambda t: True", "corr"),
        (
            "corr.pushforward_pairing value",
            "            ok &= fwd == gamma.algebra.element({(0, (1 << (i - 1)) | (1 << (jj - 1)), n - 2): t.coef or 0})\n",
            "            pass\n",
            "corr",
        ),
        ("corr.pushforward_pairing antisymmetry", "            ok &= formal_corr.gamma_pushforward(gamma, jj, i) == -fwd\n", "            pass\n", "corr"),
        ("corr.negative_control", "lambda t: not formal_corr.kunneth_coefficient(t.gamma, t.b3, 2)[2]", "lambda t: True", "corr"),
    )
]

#: the intertwining row of ks.odd_even_iso, and the driver that folds the table
CATALOG += [
    (
        "suite: drop the ks.odd_even_iso intertwining",
        _SUITE,
        'lambda t: products_equal(_mul_block(t.ks.e, "left", "odd"), t.riso, t.riso, t.ks.j_even) if t.h <= 6 else None',
        "lambda t: None",
        [_T_KS + "test_operator_identity_checks_reject_a_perturbed_j"],
    ),
    (
        "suite: the isotropic split forms split h // 3",
        _SUITE,
        "Matrix.diagonal([1] * (h // 2) + [-1] * (h - h // 2))",
        "Matrix.diagonal([1] * (h // 3) + [-1] * (h - h // 2))",
        [_T_CONTROLS + "test_isotropic_family_forms_keep_their_signatures"],
    ),
    (
        "suite: the qspace diagonal entries from -3..2, 4",
        _SUITE,
        "(-3, -2, -1, 1, 2, 3)) for _ in range(h)]\n        base = ",
        "(-3, -2, -1, 1, 2, 4)) for _ in range(h)]\n        base = ",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "suite: the clifford element diagonal from -3..2, 4",
        _SUITE,
        "diag = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))",
        "diag = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 4)))",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "suite: the sympow decompose diagonal entries from -3..2, 4",
        _SUITE,
        "(-3, -2, -1, 1, 2, 3)) for _ in range(h)]\n        yield ",
        "(-3, -2, -1, 1, 2, 4)) for _ in range(h)]\n        yield ",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "randgen: the Pythagorean pair (1, 0) read as (1, 1)",
        "src/ksw/randgen.py",
        "(Fraction(1), Fraction(0)),",
        "(Fraction(1), Fraction(1)),",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "randgen: the Pythagorean pair 5/13 read as 5/14",
        "src/ksw/randgen.py",
        "Fraction(5, 13)",
        "Fraction(5, 14)",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "randgen: the Pythagorean pair 20/29 read as 20/30",
        "src/ksw/randgen.py",
        "Fraction(20, 29)",
        "Fraction(20, 30)",
        [_T_CONTROLS + "test_each_family_draws_the_instances_it_drew"],
    ),
    (
        "suite driver: a check with no instances passes",
        _SUITE,
        "_check(name, ok, detail) if count else _vacuous(name, NO_INSTANCES)",
        "_check(name, True, detail)",
        [_T_CLI + "test_suite_check_with_zero_trials_is_vacuous"],
    ),
    (
        "suite driver: predicates outside _attempt",
        _SUITE,
        "(None, t.outcome) if t.outcome else _attempt(predicate, t)",
        "(None, t.outcome) if t.outcome else (predicate(t), None)",
        [_T_CLI + "test_suite_weil_certificate_failure_fails_its_checks_and_reports_the_rest"],
    ),
    (
        "suite driver: a predicate that raised leaves its check passing",
        _SUITE,
        "            if outcome:\n                raised.setdefault(name, outcome)\n",
        "            if outcome:\n                pass\n",
        [_T_CLI + "test_suite_weil_certificate_failure_fails_its_checks_and_reports_the_rest"],
    ),
    (
        "suite driver: an instance that could not be built is dropped",
        _SUITE,
        "(None, t.outcome) if t.outcome else",
        "(None, None) if t.outcome else",
        [_T_CLI + "test_suite_capped_clifford_elements_are_skipped"],
    ),
    (
        "suite driver: the last instance or row of a name decides it",
        _SUITE,
        "                ok[name] = ok.get(name, True) and result\n",
        "                ok[name] = result\n",
        [_FAULTS % "ks"],
    ),
    (
        "suite driver: a predicate's (ok, detail) always passes",
        _SUITE,
        "                    result, details[name] = result\n",
        "                    details[name] = result[1]\n",
        [_FAULTS % "sympow"],
    ),
    (
        "suite driver: ks instances over the cap fail every ks check",
        _SUITE,
        "        if t.outcome and family.unbuilt:\n",
        "        if False:\n",
        [_T_CONTROLS + "test_ks_instances_over_the_cap_keep_their_shapes"],
    ),
    (
        "suite driver: no ks instance built leaves the ks checks vacuous",
        _SUITE,
        "    if unbuilt and not count:\n",
        "    if False:\n",
        [_T_CONTROLS + "test_ks_instances_over_the_cap_keep_their_shapes"],
    ),
    (
        "suite driver: no ks.build line",
        _SUITE,
        "        checks.append(_result(family.unbuilt, *unbuilt))\n",
        "        pass\n",
        [_T_CONTROLS + "test_ks_instances_over_the_cap_keep_their_shapes"],
    ),
]


def _read(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def unmatched() -> list[str]:
    """Names of the mutants whose old text does not occur exactly once in its file."""
    return [name for name, path, old, _, _ in CATALOG if _read(path).count(old) != 1]


def _copy_tree(tmp: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, sub), os.path.join(tmp, sub), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)


def _pytest(tmp: str, tests) -> subprocess.CompletedProcess:
    """pytest -x on the copy in tmp, with no entry-point plugins loaded (they only cost start-up)."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tmp,
        env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True,
        text=True,
    )


def killing_tests() -> list[str]:
    """Every killing test of the catalog once, in catalog order."""
    return list(dict.fromkeys(node_id for *_, tests in CATALOG for node_id in tests))


def run_unmutated() -> subprocess.CompletedProcess:
    """The killing tests on an unmutated copy, run as each mutant's are: all must pass."""
    with tempfile.TemporaryDirectory(prefix="ksw-unmutated-") as tmp:
        _copy_tree(tmp)
        return _pytest(tmp, killing_tests())


def run_mutant(mutant) -> tuple[str, str, float]:
    """(name, verdict, seconds): 'killed', 'SURVIVED' or 'ERROR (exit n)'."""
    name, path, old, new, tests = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ksw-mutant-") as tmp:
        _copy_tree(tmp)
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
            fh.write(_read(path).replace(old, new))
        result = _pytest(tmp, tests)
    # pytest exits 1 when a collected test failed; 0 means every killing test passed
    verdict = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR (exit %d)" % result.returncode)
    return name, verdict, time.perf_counter() - start


def main() -> int:
    stale = unmatched()
    if stale:
        for name in stale:
            print("old text does not match exactly once: %s" % name)
        return 1
    # a killing test that fails without a mutant (a broken environment, a
    # test already red) would count every mutant it names as killed
    clean = run_unmutated()
    if clean.returncode:
        print("the killing tests do not pass on the unmutated sources (exit %d):" % clean.returncode)
        print(clean.stdout[-4000:] + clean.stderr[-4000:])
        return 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_mutant, CATALOG))
    for name, verdict, seconds in results:
        print("%-8s %5.1f s  %s" % (verdict, seconds, name))
    killed = sum(verdict == "killed" for _, verdict, _ in results)
    print("%d of %d mutants killed" % (killed, len(results)))
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
