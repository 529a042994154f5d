"""Structure analysis for a finite dimensional associative unital algebra,
held as its left regular representation.

An algebra of dimension n with basis b_0..b_{n-1} is stored as the n x n
matrices left[i] of y -> b_i y (column j holds the coordinates of b_i b_j)
and the coordinates of its unit.  Products, the trace form, the nilpotency
guard and minimal polynomials are Mat products and eliminations in linalg;
nothing here multiplies structure constants one coordinate at a time.
left_mult_matrix(x) adds up only the left[i] with x_i nonzero.

This backs every indecomposability question in the package: End algebras of
objects and of modules are converted to a TableAlgebra by end_table, from
all d^2 basis products in one matrix (the callers build it with one product
per object, or per basis element, rather than per pair), the radical is the
kernel of the regular trace form (valid over Q, and over F_p when p exceeds
the algebra dimension), built from the n traces of the left matrices, as L
is a homomorphism, and idempotents are found in the algebra itself.  A
candidate x is placed at coordinates spanning a complement of the radical,
its minimal polynomial is factored by arcat.poly (in the package, over F_p
and over Q), and the CRT idempotent of k[x] at one irreducible factor is
exact: no quotient algebra is built and nothing is lifted, since the radical
is nilpotent and idempotents lift modulo nil ideals (Lam, A First Course in
Noncommutative Rings, section 21).  All verdicts are exact: "no nontrivial
idempotent" is returned only with a certificate (dimension one, a quotient
by the radical of dimension one, or a candidate whose minimal polynomial is
a power of an irreducible of the quotient's dimension).

primitive_idempotents does the Krull-Schmidt split of modules and objects:
it splits A completely inside its corners e A e, each read off A's matrices
by one elimination, and checks completeness and orthogonality once, in A.

Algebras are immutable after construction, so radical_basis builds the
radical once per algebra and memoises it on the algebra, the way modcat
memoises minimal presentations on a module.  A corner's radical is not
built at all: _corner sets it to e rad(A) e.
"""

import itertools
import random
from typing import List, Optional, Tuple

from . import poly
from .errors import CapExceededError, PreconditionError
from .linalg import Field, Mat, hstack, solve

SEARCH_ATTEMPTS = 200


class TableAlgebra:
    """An algebra of dimension n with basis b_0..b_{n-1}.

    Built from the n x (n^2 + 1) matrix that one solve against the basis
    returns: column i*n + j holds the coordinates of b_i * b_j and the last
    column those of 1.  left[i] is the n x n matrix of y -> b_i y, unit the
    coordinate tuple of 1.  Elements are coordinate tuples.
    """

    def __init__(self, field: Field, products: Mat):
        n = products.rows
        if products.cols != n * n + 1:
            raise ValueError(f"expected {n} x {n * n + 1} products, got {products!r}")
        self.field = field
        self.dim = n
        rows = [products.row(k) for k in range(n)]
        self.left = [Mat(field, n, n, [v for r in rows for v in r[i * n:(i + 1) * n]])
                     for i in range(n)]
        self.unit = products.col(n * n)
        # row i is left[i] read row major, so x^T _flat is x_i left[i] summed
        self._flat = Mat(field, n, n * n, [v for m in self.left for v in m.data])
        self._radical: Optional[Mat] = None

    def left_mult_matrix(self, x: Tuple) -> Mat:
        """The matrix of y -> x y: the sum of x_i left[i], read off the rows
        of _flat at the nonzero coordinates of x only.  Candidates, radical
        vectors and idempotents are mostly sparse; the sums are those of
        the dense product x^T _flat, term for term."""
        f, n = self.field, self.dim
        acc = [f.zero()] * (n * n)
        for i, c in enumerate(x):
            if c:
                acc = [a + c * v if v else a for a, v in zip(acc, self._flat.row(i))]
        return Mat(f, n, n, acc if f.p is None else [a % f.p for a in acc])

    def mul(self, x: Tuple, y: Tuple) -> Tuple:
        return (self.left_mult_matrix(x) @ Mat(self.field, self.dim, 1, y)).data

    def is_commutative(self) -> bool:
        # b_i b_j = b_j b_i for all i, j: read row major, the transpose of
        # _flat lists (b_i b_j)_k and the left matrices side by side list
        # (b_j b_i)_k, both in the order k, j, i
        return self._flat.transpose().data == hstack(self.left).data

    def minimal_polynomial(self, x: Tuple) -> List:
        """Monic coefficients [c_0, ..., c_{d-1}, 1] with sum c_i x^i = 0.

        One elimination of the Krylov matrix [1, x, ..., x^n]: its pivots are
        the first d columns, and column d of the echelon form writes x^d in
        terms of them.
        """
        f = self.field
        lx = self.left_mult_matrix(x)
        powers = [Mat(f, self.dim, 1, self.unit)]
        for _ in range(self.dim):
            powers.append(lx @ powers[-1])
        reduced, pivots = hstack(powers).rref()
        d = len(pivots)
        return [f.neg(reduced.at(i, d)) for i in range(d)] + [f.one()]


def radical_basis(alg: TableAlgebra) -> Mat:
    """Columns span rad(alg), from the kernel of the regular trace form.

    Requires Q or F_p with p > dim; the form's radical then equals the
    Jacobson radical, and nilpotency is asserted as a guard.  Built once per
    algebra and memoised on it.
    """
    if alg._radical is None:
        alg._radical = _trace_form_radical(alg)
    return alg._radical


def _trace_form_radical(alg: TableAlgebra) -> Mat:
    """The kernel of the trace form Tr(L_x L_y), with nilpotency asserted
    (see radical_basis); the p > dim precondition is checked here.

    The form is built from the n traces Tr(L_(b_l)), as Tr(L_(b_i) L_(b_j))
    = sum_l (b_i b_j)_l Tr(L_(b_l)) for the homomorphism L (see
    _trace_form); a zero dimensional algebra has the empty radical.
    """
    f = alg.field
    n = alg.dim
    if f.is_prime_field and f.p <= n:
        raise PreconditionError(
            f"field F_{f.p} too small for a {n} dimensional End algebra; "
            "use p > dim for radical computations")
    rad = _trace_form(alg).kernel_basis()
    _assert_nilpotent(alg, rad)
    return rad


def _trace_form(alg: TableAlgebra) -> Mat:
    """The n x n matrix of Tr(L_(b_i) L_(b_j)), L the left regular
    representation (Ronyai, J. Symbolic Comput. 9, 1990).

    Every table here is exact (End and corner products solved
    exactly), so L is a homomorphism: L_(b_i) L_(b_j) = L_(b_i b_j) =
    sum_l (b_i b_j)_l L_(b_l), and Tr(L_(b_i) L_(b_j)) = sum_l (b_i b_j)_l
    Tr(L_(b_l)).  Column i*n + j of hstack(left) holds the coordinates of
    b_i b_j, so the form, read row major, is the one 1 x n by n x n^2
    product traces @ hstack(left): n^3 multiplications instead of the n^4
    of Tr(left[i] left[j]) pair by pair, and the same matrix.
    """
    f, n = alg.field, alg.dim
    if n == 0:
        return Mat.zeros(f, 0, 0)
    traces = Mat(f, 1, n, [f.of(sum(m.at(k, k) for k in range(n))) for m in alg.left])
    return Mat(f, n, n, (traces @ hstack(alg.left)).data)


def _assert_nilpotent(alg: TableAlgebra, rad: Mat):
    """rad^k = 0 for some k <= dim + 1; rad^(k+1) is spanned by the products
    of the generators with a basis of rad^k."""
    gens = [alg.left_mult_matrix(rad.col(j)) for j in range(rad.cols)]
    span = rad
    for _ in range(alg.dim + 1):
        if span.cols == 0:
            return
        products = hstack([g @ span for g in gens])
        if products.is_zero():
            return
        span, _ = products.column_space_basis()
    raise AssertionError("radical candidate is not nilpotent")


def _poly_eval(alg: TableAlgebra, coeffs: List, x: Tuple) -> Tuple:
    # Horner on [c_0, ..., c_k], lowest degree first
    f = alg.field
    lx = alg.left_mult_matrix(x)
    unit = Mat(f, alg.dim, 1, alg.unit)
    acc = Mat.zeros(f, alg.dim, 1)
    for c in reversed(coeffs):
        acc = lx @ acc + unit.scale(c)
    return acc.data


def _split_idempotent_from_element(alg: TableAlgebra, x: Tuple, minpoly: List,
                                   factors: List) -> Optional[Tuple]:
    """The CRT idempotent of k[x] in alg at the first irreducible factor p
    of minpoly, by degree and then coefficients: e = 1 mod p^a and e = 0
    mod m2 = minpoly / p^a, for the multiplicity a of p in factors (the
    factor list of minpoly); None when minpoly has one irreducible factor.

    The order ignores multiplicities: those of minpoly(x) and of the
    minimal polynomial of x modulo rad may differ, while the factors are
    the same, so this picks the factor that the search modulo rad would,
    and e lies in that search's idempotent class.  The name stays because
    bench/tracer.py traces this function as `candidate`.
    """
    if len(factors) < 2:
        return None
    f = alg.field
    p, a = min(factors, key=lambda pa: (len(pa[0]), pa[0][::-1]))
    m1 = [f.one()]
    for _ in range(a):
        m1 = poly.mul(m1, p, f)
    m2 = poly.quo_rem(minpoly, m1, f)[0]
    _, u, h = poly.gcdex(m1, m2, f)
    e = _poly_eval(alg, poly.quo_rem(poly.mul(u, m2, f), minpoly, f)[1], x)
    if h != [f.one()] or alg.mul(e, e) != e or e == alg.unit or not any(e):
        raise AssertionError("CRT element is not a nontrivial idempotent")
    return e


def _candidates(field: Field, d: int, rng: random.Random):
    """Coordinates in a d dimensional space: the unit vectors, the sums of
    two of them, then random tuples from rng."""
    basis = Mat.identity(field, d)
    for i in range(d):
        yield basis.col(i)
    for i in range(d):
        for j in range(i + 1, d):
            yield tuple(map(field.add, basis.col(i), basis.col(j)))
    while True:
        yield tuple(field.random(rng) for _ in range(d))


def find_idempotent_semisimple(alg: TableAlgebra, rad: Mat) -> Optional[Tuple]:
    """Nontrivial idempotent of alg, or a certified None, by a search in
    alg over the coordinates of alg / rad, for rad = radical_basis(alg),
    which the caller holds already.

    The d = dim alg / rad coordinates are those at which rref([rad | 1])
    puts its pivots in 1: their basis elements span a complement of rad.
    The candidates (`_candidates`, seeded by d) are placed there, and each
    one's minimal polynomial is computed and factored once, for the split
    (`_split_idempotent_from_element`) and for the certificate.

    None is certified when some candidate x has minimal polynomial p^a
    with deg p = d.  rad is nilpotent, so the minimal polynomial of the
    class of x modulo rad divides p^a and is p^f, and k[x mod rad] =
    k[t]/(p^f) has dimension f deg p <= d = deg p.  So f = 1: k[x mod rad]
    is a field that fills alg / rad, and alg is local.  Over F_p a non-local
    alg always has a split element; over Q the search may be inconclusive
    and raises rather than guess.

    The name stays, though alg need not be semisimple, because
    bench/run.py counts searches by it (`algebra.candidates_per_search`).
    """
    f, n = alg.field, alg.dim
    _, pivots = hstack([rad, Mat.identity(f, n)]).rref()
    comp = [j - rad.cols for j in pivots if j >= rad.cols]
    d = len(comp)
    rng = random.Random(20240 + d)
    for xbar in itertools.islice(_candidates(f, d, rng), SEARCH_ATTEMPTS):
        x = [f.zero()] * n
        for i, c in zip(comp, xbar):
            x[i] = c
        x = tuple(x)
        coeffs = alg.minimal_polynomial(x)
        # degree <= 1: x is a scalar, nothing to split or certify
        factors = poly.factor(coeffs, f) if len(coeffs) > 2 else []
        e = _split_idempotent_from_element(alg, x, coeffs, factors)
        if e is not None:
            return e
        if len(factors) == 1 and len(factors[0][0]) == d + 1:
            return None  # certified: alg / rad is the field k[x mod rad]
    raise CapExceededError(
        f"idempotent search inconclusive after {SEARCH_ATTEMPTS} attempts "
        f"(dim {n}, dim mod rad {d})")


def find_nontrivial_idempotent(alg: TableAlgebra) -> Optional[Tuple]:
    """Nontrivial idempotent of alg, or a certified None (alg is local).

    A zero algebra has no identity and is refused.  dim alg = 1, or
    alg / rad = k, is local with no search: every brick and every local
    End with top k.  Otherwise find_idempotent_semisimple searches alg.
    """
    if alg.dim == 0:
        raise PreconditionError("zero algebra has no identity")
    if alg.dim == 1:
        return None
    rad = radical_basis(alg)
    if alg.dim - rad.cols == 1:
        return None
    return find_idempotent_semisimple(alg, rad)


def _corner(alg: TableAlgebra, e: Tuple) -> Tuple[TableAlgebra, Mat]:
    """The corner algebra e alg e of an idempotent e, and its basis as columns
    in alg's coordinates.

    M is the matrix of x -> e x e and (R, p) its echelon form: the basis is
    the pivot columns c_i = M b_(p_i), and M = C R, so R y are the
    coordinates of any y = e y e.  As e c_j = c_j e = c_j, c_i c_j =
    M (b_(p_i) c_j): the table is R left[p_i] C, and the unit R e.

    The corner's radical is e rad(alg) e, memoised on it: R C = 1 gives
    R M = R, so its coordinates are the column space of R rad(alg), and no
    trace form is built for a corner.
    """
    f, n = alg.field, alg.dim
    ev = Mat(f, n, 1, e)
    # rows i*n..i*n+n-1 of _flat as n^2 x n are left[i]: this lists b_i e
    right = Mat(f, n, n, (Mat(f, n * n, n, alg._flat.data) @ ev).data).transpose()
    m = alg.left_mult_matrix(e) @ right
    reduced, pivots = m.rref()
    r = len(pivots)
    red = Mat(f, r, n, reduced.data[:r * n])
    basis = Mat(f, n, r, [m.at(i, p) for i in range(n) for p in pivots])
    products = hstack([red @ (alg.left[p] @ basis) for p in pivots] + [red @ ev])
    corner = TableAlgebra(f, products)
    corner._radical = (red @ radical_basis(alg)).column_space_basis()[0]
    return corner, basis


def primitive_idempotents(alg: TableAlgebra) -> List[Tuple]:
    """A complete set of primitive orthogonal idempotents, in alg's coordinates.

    A nontrivial idempotent e splits the unit of a corner B into e + (1 - e),
    and the search goes on in e B e, then (1-e) B (1-e), until
    find_nontrivial_idempotent certifies every corner local; a corner of a
    corner is a corner of alg.  The sum of the e_i = 1 and e_i e_j =
    [i = j] e_i are checked once, in alg.
    """
    f = alg.field
    out: List[Tuple] = []
    stack = [(alg, Mat.identity(f, alg.dim))]
    while stack:
        corner, embed = stack.pop()
        e = find_nontrivial_idempotent(corner)
        if e is None:
            out.append((embed @ Mat(f, corner.dim, 1, corner.unit)).data)
            continue
        for idem in (tuple(map(f.sub, corner.unit, e)), e):
            sub, basis = _corner(corner, idem)
            stack.append((sub, embed @ basis))
    n, k = alg.dim, len(out)
    idems = Mat(f, n, k, [e[i] for i in range(n) for e in out])
    if (idems @ Mat(f, k, 1, [f.one()] * k)).data != alg.unit:
        raise AssertionError("primitive idempotents do not sum to 1")
    for i, e in enumerate(out):
        # column j of e idems is e e_j
        if alg.left_mult_matrix(e) @ idems != Mat(f, n, k, [
                e[r] if j == i else f.zero() for r in range(n) for j in range(k)]):
            raise AssertionError("primitive idempotents are not orthogonal")
    return out


def end_table(field: Field, basis: Mat, unit_vec: Mat, products: Mat) -> TableAlgebra:
    """Algebra table from a flattened End space.

    basis columns are the flattened basis vectors b_0..b_(d-1), unit_vec
    the flattened identity, and products the N x d^2 matrix whose column
    i*d + j is the flattened product b_i * b_j.  One exact solve writes
    every product and the unit in the basis, and refuses a space that is
    not closed under composition.
    """
    coords = solve(basis, hstack([products, unit_vec]))
    if coords is None:
        raise AssertionError("End space is not closed under composition "
                             "or misses the identity")
    return TableAlgebra(field, coords)
