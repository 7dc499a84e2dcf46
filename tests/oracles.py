"""Independent oracles for the exact code paths.

These deliberately avoid the package's own algorithms: the Clifford
reducer rewrites words in the tensor algebra, the numeric helpers go
through numpy, the wedge derivation expands in raw 4-tensor
coordinates, the diagonalization is symmetric Gaussian elimination
on a dense `Fraction` Gram matrix, and the right-multiplication family
is sampled with element products, blade by blade, instead of proved on
the generators, J^2 = -I is checked as e.(e.x) == -x with two element
products per even blade, the generator identities of that proof are
compared at both x and x ^ 2^i, the Clifford multiplication operators
sum every unit-blade product move by move into `induced_operator`,
a k-th power of a linear form is expanded over every monomial, the
contraction and the Q-multiplication of Sym^k apply sum G_ij d_i d_j and
sum B_ij y_i y_j term by term over every ordered pair (i, j), and the
graded product multiplies its three sign terms, each counted pair by pair.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd, prod

import numpy as np


def clifford_word_reduce(word, diag):
    """Reduce a product of orthogonal basis vectors modulo x.x = (x,x).

    ``word`` is a list of 0-based indices; returns (coef, mask) for the
    canonical sorted blade.  Bubble rewriting: adjacent equal indices
    contract to the diagonal value, out-of-order neighbours anticommute.
    """
    coef = Fraction(1)
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a == b:
                coef *= diag[a]
                del letters[i : i + 2]
                changed = True
                break
            if a > b:
                letters[i], letters[i + 1] = b, a
                coef = -coef
                changed = True
                break
    mask = 0
    for i in letters:
        mask |= 1 << i
    return coef, mask


def mask_word(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def to_float(matrix):
    return np.array([[float(x) for x in row] for row in matrix], dtype=float)


def float_rank(matrix, tol=1e-9):
    arr = to_float(matrix)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    scale = max(arr.shape) * (s[0] if len(s) else 0.0)
    return int(np.sum(s > tol * max(scale, 1.0)))


def eigenvalue_counts(matrix, values, tol=1e-9):
    """How many float eigenvalues fall within tol of each target value."""
    arr = to_float(matrix)
    eig = np.linalg.eigvals(arr)
    return [int(np.sum(np.abs(eig - v) < tol)) for v in values]


def wedge4_derivation_bruteforce(op):
    """Derivation extension to the 4th exterior power via raw 4-tensors.

    Embeds e_S as the signed sum over all 24 slot permutations (the sorted
    tuple carries coefficient +1), applies op to one slot at a time, and
    reads the wedge coordinates back off the strictly increasing tuples;
    the slot sum commutes with the alternation, so no renormalization is
    needed.  Returns the matrix as a list of rows.
    """
    from itertools import combinations

    n = op.rows
    dense = [list(row) for row in op]
    basis = list(combinations(range(n), 4))
    index = {s: i for i, s in enumerate(basis)}
    cols = []
    for subset in basis:
        tensor = {}
        for perm in permutations(range(4)):
            sign = _perm_sign(perm)
            key = tuple(subset[p] for p in perm)
            tensor[key] = tensor.get(key, Fraction(0)) + sign
        out_tensor = {}
        for key, coef in tensor.items():
            for slot in range(4):
                for j in range(n):
                    c = dense[j][key[slot]]
                    if not c:
                        continue
                    new_key = key[:slot] + (j,) + key[slot + 1 :]
                    out_tensor[new_key] = out_tensor.get(new_key, Fraction(0)) + coef * c
        col = [Fraction(0)] * len(basis)
        for s, pos in index.items():
            col[pos] = out_tensor.get(s, Fraction(0))
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def diagonalize_reference(gram, repairs=None):
    """Congruence diagonalization by symmetric elimination on dense Fractions.

    The same pivot rule as `ksw.qspace.diagonalize`: a zero diagonal entry
    is swapped with the next nonzero one, or else the basis vector of the
    first nonzero off-diagonal entry in its row is added to it.  Returns
    (T as a `Matrix`, d); each repair taken is appended to ``repairs``
    ("swap" or "add").  Raises `Degenerate` on a degenerate form.
    """
    from ksw.errors import Degenerate
    from ksw.linalg import Matrix

    n = gram.rows
    g = [list(row) for row in gram]
    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]

    def add_basis(i, j, c):
        # basis_i += c * basis_j, with the matching symmetric Gram update
        for k in range(n):
            basis[i][k] += c * basis[j][k]
        for k in range(n):
            g[i][k] += c * g[j][k]
        for k in range(n):
            g[k][i] += c * g[k][j]

    def swap_basis(i, j):
        basis[i], basis[j] = basis[j], basis[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    log = repairs if repairs is not None else []
    for i in range(n):
        if not g[i][i]:
            pivot_at = next((j for j in range(i + 1, n) if g[j][j]), None)
            if pivot_at is not None:
                swap_basis(i, pivot_at)
                log.append("swap")
            else:
                off = next((j for j in range(i + 1, n) if g[i][j]), None)
                if off is None:
                    raise Degenerate("zero row in reduced Gram")
                add_basis(i, off, Fraction(1))
                log.append("add")
        piv = g[i][i]
        for j in range(i + 1, n):
            if g[i][j]:
                add_basis(j, i, -g[i][j] / piv)
    return Matrix(basis, n).transpose(), tuple(g[i][i] for i in range(n))


def right_mul_commutes_reference(ks, samples, rng):
    """Family (iv) of `structure_commutators` sampled, as element identities.

    For each sample c, drawn as `structure_commutators` draws its unused c, whether
    e.(e_A.c) == (e.e_A).c for every blade A.  Returns [(c, outcome)].
    """
    from ksw.kuga_satake import _random_element

    alg, e = ks.algebra, ks.e
    out = []
    for _ in range(samples):
        c = _random_element(alg, rng)
        out.append((c, all(e * (alg.blade(m) * c) == (e * alg.blade(m)) * c for m in range(alg.dim))))
    return out


def j_square_reference(ks):
    """J^2 = -I on C+ as element identities: e.(e.x) == -x for every even blade x."""
    alg, e = ks.algebra, ks.e
    return all(e * (e * alg.blade(m)) == -alg.blade(m) for m in alg.even_masks)


def generator_identities_reference(alg, columns, generators):
    """(e.x).v_i == e.(x.v_i) on the columns e.x, compared at every blade x, both x and x ^ 2^i."""
    sign, contract = alg.sign, alg.contract
    for i in generators:
        bit = 1 << i
        f = [-contract[m & bit] if sign[m] & bit else contract[m & bit] for m in range(alg.dim)]
        for x, col in enumerate(columns):
            target = columns[x ^ bit]
            if len(target) != len(col):
                return False
            for m, n in col.items():
                if target.get(m ^ bit, 0) * f[x] != n * f[m]:
                    return False
    return True


def mul_block_reference(x, side, domain):
    """Left/right multiplication by x from one graded piece, as `induced_operator` of element-kernel products.

    Column m is `_product_numerators` of x against the unit blade m, its
    moves summed and zero-tested by `induced_operator`.
    """
    from ksw.clifford import _product_numerators
    from ksw.linalg import induced_operator

    alg = x.algebra
    if domain == "full":
        codomain = "full"
    else:
        codomain = domain if x.parity == "even" else {"even": "odd", "odd": "even"}[domain]
    xs = x.nums.items()

    def moves(m):
        operands = (xs, ((m, 1),)) if side == "left" else (((m, 1),), xs)
        return _product_numerators(alg, *operands).items()

    return induced_operator(alg.masks(domain), alg.index_map(codomain), moves, x.den * alg.scale)


def embedding_matrix_stack(ks, v0):
    """Rows = vectorized E_{b_i} over the original basis b_i, h x 4^(h-1); rank h expected."""
    from ksw.kuga_satake import endomorphism_embedding
    from ksw.linalg import Matrix

    h = ks.space.h
    rows = []
    for i in range(h):
        em = endomorphism_embedding(ks, tuple(Fraction(1) if j == i else 0 for j in range(h)), v0)
        rows.append([x for row in em for x in row])
    return Matrix(rows)


def embedding_rank(ks, v0):
    """Exact rank of the full stack: the reference for `embedding_has_full_rank`."""
    return embedding_matrix_stack(ks, v0).rank()


def power_row_full_basis(sym, v):
    """(position, coefficient) of (sum v_i y_i)^k for every nonzero monomial of Sym^k, in basis order.

    Each coefficient is k!/prod(mu_i!) * prod(v_i^mu_i) in `Fraction`s,
    over the whole monomial basis.
    """
    out = []
    for pos, mu in enumerate(sym.basis):
        c = Fraction(factorial(sym.k), prod(factorial(m) for m in mu)) * prod(Fraction(x) ** m for x, m in zip(v, mu))
        if c:
            out.append((pos, c))
    return out


def contraction_column_reference(gram, mu):
    """sum_ij G_ij d/dy_i d/dy_j applied to y^mu, as {exponent tuple: Fraction}, zeros dropped.

    Every ordered pair (i, j) is its own term: d/dy_j first, then d/dy_i.
    """
    out = {}
    for i, j in product(range(len(mu)), repeat=2):
        nu = list(mu)
        c = gram[i, j] * nu[j]
        nu[j] -= 1
        c *= nu[i]
        nu[i] -= 1
        if c:
            out[tuple(nu)] = out.get(tuple(nu), 0) + c
    return {key: c for key, c in out.items() if c}


def q_mult_column_reference(inverse_gram, nu):
    """sum_ij B_ij y_i y_j times y^nu, as {exponent tuple: Fraction}, zeros dropped; B = G^-1."""
    out = {}
    for i, j in product(range(len(nu)), repeat=2):
        mu = list(nu)
        mu[i] += 1
        mu[j] += 1
        out[tuple(mu)] = out.get(tuple(mu), 0) + inverse_gram[i, j]
    return {key: c for key, c in out.items() if c}


def hstack(*mats):
    """The `Matrix` of the side-by-side blocks, built from their dense rows."""
    from ksw.linalg import Matrix

    if any(m.rows != mats[0].rows for m in mats):
        raise ValueError("row counts differ")
    return Matrix([sum((m.row(i) for m in mats), ()) for i in range(mats[0].rows)], sum(m.cols for m in mats))


def _cancel(row, p, prow):
    """Content-free integer combination of the sparse rows row and prow that is zero at p."""
    b = row.get(p)
    if not b:
        return row
    a = prow[p]
    out = {j: a * x for j, x in row.items()}
    for j, x in prow.items():
        s = out.get(j, 0) - b * x
        if s:
            out[j] = s
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()}


def greedy_eigenvector_choice(phi):
    """The c with e_c outside the span of the e_c' and phi e_c' taken before it, for c = 0..7.

    Each e_c is reduced against a pairwise Gauss-Jordan echelon of the
    vectors taken so far; when it survives, e_c and phi e_c join it.
    """
    rows, _ = phi.cleared()
    cols = [{r: row[c] for r, row in enumerate(rows) if c in row} for c in range(phi.cols)]
    echelon = {}  # pivot -> row, zero at the earlier pivots

    def extend(v):
        for p, row in echelon.items():
            v = _cancel(v, p, row)
        if v:
            echelon[min(v)] = v
        return bool(v)

    us = []
    for c in range(phi.cols):
        if extend({c: 1}):
            us.append(c)
            extend(cols[c])
    return us


def eigenvector_wedge_reference(endo):
    """(u's, X, Y) of the Weil eigenvector wedge, the minors expanded by Leibniz's formula.

    The u's are `greedy_eigenvector_choice`.  With P = den.phi integral,
    d = n/m and mu^2 = -n.m, column i of the 8x4 matrix over Z[mu] is
    m.P u_i + den.mu u_i, and X + mu.Y on the 4-subset S is the sum over
    the 24 permutations of its signed products.
    """
    us = greedy_eigenvector_choice(endo.phi)
    rows, den = endo.phi.cleared()
    d = Fraction(endo.d)
    n, m = d.numerator, d.denominator
    w = [[(m * rows[r].get(c, 0), den if r == c else 0) for c in us] for r in range(8)]
    xs, ys = [], []
    for subset in combinations(range(8), 4):
        x = y = 0
        for perm in permutations(range(4)):
            a, b = 1, 0
            for t in range(4):
                p, q = w[subset[t]][perm[t]]
                a, b = a * p - n * m * b * q, a * q + b * p
            sign = _perm_sign(perm)
            x += sign * a
            y += sign * b
        xs.append(x)
        ys.append(y)
    return us, xs, ys


def _inversion_parity(a, b):
    """Parity of the pairs (i in mask a, j in mask b) with i > j, counted bit by bit."""
    return sum(1 for i in range(a.bit_length()) for j in range(i) if a >> i & 1 and b >> j & 1) & 1


def graded_product_reference(x, y):
    """x * y of two graded elements as a ``dict[monomial, Fraction]``, sign term by sign term.

    The f-f reordering sign always; under the Koszul rule also the e-e
    reordering sign and the cross sign (-1)^(|E1||F2|) of moving the e's
    of x past the f's of y.  The broken rule grades the e's even and
    keeps only the first.  Monomials that repeat an f or an e vanish.
    """
    from ksw.formal_corr import SIGN_KOSZUL

    koszul = x.algebra.sign_rule == SIGN_KOSZUL
    out = {}
    for (f1, e1, q1), c1 in x.terms.items():
        for (f2, e2, q2), c2 in y.terms.items():
            if f1 & f2 or e1 & e2:
                continue
            sign = -1 if _inversion_parity(f1, f2) else 1
            if koszul:
                if _inversion_parity(e1, e2):
                    sign = -sign
                if e1.bit_count() & 1 and f2.bit_count() & 1:
                    sign = -sign
            key = (f1 | f2, e1 | e2, q1 + q2)
            s = out.get(key, 0) + sign * c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
