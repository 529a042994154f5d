"""Structure analysis for a finite dimensional associative unital algebra
given by a multiplication table.

This backs every indecomposability question in the package: End algebras of
objects and of modules are converted to a TableAlgebra, the radical is the
kernel of the regular trace form (valid over Q, and over F_p when p exceeds
the algebra dimension), idempotents of the semisimple quotient are found by
coprime splitting of minimal polynomials and lifted by Newton iteration
e <- 3e^2 - 2e^3.  All verdicts are exact: "no nontrivial idempotent" is
returned only with a certificate (dimension one, or a commutative quotient
with a primitive element whose minimal polynomial is irreducible).
"""

import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import sympy

from .errors import CapExceededError, PreconditionError
from .linalg import Field, Mat, hstack, solve

SEARCH_ATTEMPTS = 200


class TableAlgebra:
    """An algebra of dimension n with basis b_0..b_{n-1} and a full table.

    table[i][j] holds the coordinate tuple of b_i * b_j; unit is the
    coordinate tuple of 1.  Elements are coordinate tuples.
    """

    def __init__(self, field: Field, table: List[List[Tuple]], unit: Tuple):
        self.field = field
        self.dim = len(table)
        self.table = table
        self.unit = tuple(unit)

    def zero(self) -> Tuple:
        return tuple([self.field.zero()] * self.dim)

    def basis_element(self, i: int) -> Tuple:
        z, o = self.field.zero(), self.field.one()
        return tuple(o if j == i else z for j in range(self.dim))

    def mul(self, x: Tuple, y: Tuple) -> Tuple:
        f = self.field
        z = f.zero()
        out = [z] * self.dim
        for i, xi in enumerate(x):
            if xi == z:
                continue
            for j, yj in enumerate(y):
                if yj == z:
                    continue
                c = f.mul(xi, yj)
                row = self.table[i][j]
                for k, r in enumerate(row):
                    if r != z:
                        out[k] = f.add(out[k], f.mul(c, r))
        return tuple(out)

    def add(self, x: Tuple, y: Tuple) -> Tuple:
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(x, y))

    def sub(self, x: Tuple, y: Tuple) -> Tuple:
        f = self.field
        return tuple(f.sub(a, b) for a, b in zip(x, y))

    def scale(self, c, x: Tuple) -> Tuple:
        f = self.field
        return tuple(f.mul(c, a) for a in x)

    def left_mult_matrix(self, x: Tuple) -> Mat:
        cols = [self.mul(x, self.basis_element(j)) for j in range(self.dim)]
        flat = [cols[j][i] for i in range(self.dim) for j in range(self.dim)]
        return Mat(self.field, self.dim, self.dim, flat)

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.table[i][j] != self.table[j][i]:
                    return False
        return True

    def minimal_polynomial(self, x: Tuple) -> List:
        """Monic coefficients [c_0, ..., c_{k-1}, 1] with sum c_i x^i = 0."""
        f = self.field
        powers = [self.unit]
        current = self.unit
        while True:
            stack = Mat(f, self.dim, len(powers),
                        [powers[j][i] for i in range(self.dim) for j in range(len(powers))])
            current = self.mul(current, x)
            rhs = Mat.column(f, list(current))
            dep = solve(stack, rhs)
            if dep is not None and stack @ dep == rhs:
                coeffs = [f.neg(dep.at(i, 0)) for i in range(len(powers))]
                coeffs.append(f.one())
                return coeffs
            powers.append(current)
            if len(powers) > self.dim + 1:
                raise AssertionError("minimal polynomial search overran the dimension")


def radical_basis(alg: TableAlgebra) -> Mat:
    """Columns span rad(alg), from the kernel of the regular trace form.

    Requires Q or F_p with p > dim; the form's radical then equals the
    Jacobson radical, and nilpotency is asserted as a guard.
    """
    f = alg.field
    if f.is_prime_field and f.p <= alg.dim:
        raise PreconditionError(
            f"field F_{f.p} too small for a {alg.dim} dimensional End algebra; "
            "use p > dim for radical computations")
    n = alg.dim
    mult = [alg.left_mult_matrix(alg.basis_element(i)) for i in range(n)]
    gram = []
    for i in range(n):
        row = []
        li = mult[i]
        for j in range(n):
            lj = mult[j]
            # trace(L_i L_j) without forming the product
            tr = f.zero()
            for k in range(n):
                for l in range(n):
                    tr = f.add(tr, f.mul(li.at(k, l), lj.at(l, k)))
            row.append(tr)
        gram.append(row)
    rad = Mat.from_rows(f, gram).kernel_basis() if n else Mat.zeros(f, 0, 0)
    _assert_nilpotent(alg, rad)
    return rad


def _assert_nilpotent(alg: TableAlgebra, rad: Mat):
    span = [tuple(rad.col(j)) for j in range(rad.cols)]
    gens = list(span)
    steps = 0
    while span:
        steps += 1
        if steps > alg.dim + 1:
            raise AssertionError("radical candidate is not nilpotent")
        nxt = [alg.mul(x, g) for x in span for g in gens]
        cols = [v for v in nxt if any(c != alg.field.zero() for c in v)]
        if not cols:
            return
        m = Mat(alg.field, alg.dim, len(cols),
                [cols[j][i] for i in range(alg.dim) for j in range(len(cols))])
        basis, _ = m.column_space_basis()
        span = [tuple(basis.col(j)) for j in range(basis.cols)]


class QuotientAlgebra:
    """alg / ideal with canonical coset representatives."""

    def __init__(self, alg: TableAlgebra, ideal: Mat):
        f = alg.field
        n = alg.dim
        k = ideal.cols
        _, pivots = hstack([ideal, Mat.identity(f, n)]).rref()
        comp = [j - k for j in pivots if j >= k]
        self.alg = alg
        self.ideal = ideal
        self.comp_indices = comp
        self.dim = d = len(comp)
        z, o = f.zero(), f.one()
        self.lift_matrix = Mat(f, n, d, [o if i == j else z for i in range(n) for j in comp])
        # one coset decomposition x = ideal part + lift part for every product
        # of lifted basis elements and for the unit; the lift part is the image
        lifts = [self.lift_matrix.col(i) for i in range(d)]
        rhs = [Mat.column(f, list(alg.mul(a, b))) for a in lifts for b in lifts]
        coords = solve(hstack([ideal, self.lift_matrix]),
                       hstack(rhs + [Mat.column(f, list(alg.unit))]))
        if coords is None:
            raise AssertionError("coset decomposition failed")
        table = [[coords.col(i * d + j)[k:] for j in range(d)] for i in range(d)]
        self.quotient = TableAlgebra(f, table, coords.col(d * d)[k:])

    def lift(self, xbar: Tuple) -> Tuple:
        v = self.lift_matrix @ Mat.column(self.alg.field, list(xbar))
        return tuple(v.col(0))


def _to_sympy_poly(field: Field, coeffs: List):
    t = sympy.Symbol("t")
    cs = list(reversed(coeffs))  # sympy wants leading coefficient first
    if field.is_prime_field:
        return sympy.Poly([int(c) for c in cs], t, modulus=field.p)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       if isinstance(c, Fraction) else sympy.Rational(c) for c in cs],
                      t, domain="QQ")


def _from_sympy_coeffs(field: Field, poly) -> List:
    cs = poly.all_coeffs()  # leading first
    out = []
    for c in reversed(cs):
        if field.is_prime_field:
            out.append(int(c) % field.p)
        else:
            r = sympy.Rational(c)
            out.append(Fraction(int(r.p), int(r.q)))
    return out


def _poly_eval(alg: TableAlgebra, coeffs: List, x: Tuple) -> Tuple:
    # Horner on [c_0, ..., c_k], lowest degree first
    acc = alg.zero()
    for c in reversed(coeffs):
        acc = alg.mul(acc, x)
        acc = alg.add(acc, alg.scale(c, alg.unit))
    return acc


def _split_idempotent_from_element(alg: TableAlgebra, x: Tuple) -> Optional[Tuple]:
    """A nontrivial idempotent of k[x] when min poly splits into coprime parts."""
    coeffs = alg.minimal_polynomial(x)
    if len(coeffs) <= 2:
        return None
    poly = _to_sympy_poly(alg.field, coeffs)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return None
    m1 = factors[0][0] ** factors[0][1]
    m2 = poly.quo(m1)
    s, u, h = m1.gcdex(m2)
    if not h.is_one:
        return None
    e_poly = (u * m2) % poly
    e = _poly_eval(alg, _from_sympy_coeffs(alg.field, e_poly), x)
    if alg.mul(e, e) != e:
        raise AssertionError("CRT element is not idempotent")
    if e == alg.zero() or e == alg.unit:
        return None
    return e


def _candidates(alg: TableAlgebra, rng: random.Random):
    for i in range(alg.dim):
        yield alg.basis_element(i)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            yield alg.add(alg.basis_element(i), alg.basis_element(j))
    while True:
        yield tuple(alg.field.random(rng) for _ in range(alg.dim))


def find_idempotent_semisimple(alg: TableAlgebra) -> Optional[Tuple]:
    """Nontrivial idempotent of a semisimple algebra, or a certified None.

    None is certified: dim 1, or commutative with a primitive element whose
    minimal polynomial is irreducible (a field).  A noncommutative semisimple
    algebra over F_p always has one; over Q the search may be inconclusive
    and raises rather than guess.
    """
    if alg.dim == 0:
        raise PreconditionError("zero algebra has no identity")
    if alg.dim == 1:
        return None
    commutative = alg.is_commutative()
    rng = random.Random(20240 + alg.dim)
    attempts = 0
    for x in _candidates(alg, rng):
        attempts += 1
        if attempts > SEARCH_ATTEMPTS:
            break
        e = _split_idempotent_from_element(alg, x)
        if e is not None:
            return e
        if commutative:
            coeffs = alg.minimal_polynomial(x)
            if len(coeffs) == alg.dim + 1:
                poly = _to_sympy_poly(alg.field, coeffs)
                _, factors = poly.factor_list()
                if len(factors) == 1 and factors[0][1] == 1:
                    return None  # certified: the algebra is the field k[x]
    raise CapExceededError(
        f"idempotent search inconclusive after {SEARCH_ATTEMPTS} attempts "
        f"(dim {alg.dim}, commutative={commutative})")


def lift_idempotent(alg: TableAlgebra, e0: Tuple) -> Tuple:
    """Newton lift e <- 3e^2 - 2e^3 until exactly idempotent."""
    e = e0
    for _ in range(64):
        if alg.mul(e, e) == e:
            return e
        sq = alg.mul(e, e)
        cube = alg.mul(sq, e)
        e = alg.sub(alg.scale(alg.field.of(3), sq), alg.scale(alg.field.of(2), cube))
    raise AssertionError("idempotent lift did not converge")


def find_nontrivial_idempotent(alg: TableAlgebra) -> Optional[Tuple]:
    """Nontrivial idempotent of alg, or a certified None (alg is local)."""
    if alg.dim == 1:
        return None
    rad = radical_basis(alg)
    if rad.cols == 0:
        return find_idempotent_semisimple(alg)
    quo = QuotientAlgebra(alg, rad)
    ebar = find_idempotent_semisimple(quo.quotient)
    if ebar is None:
        return None
    e = lift_idempotent(alg, quo.lift(ebar))
    if e == alg.zero() or e == alg.unit:
        raise AssertionError("lifted idempotent degenerated")
    return e


def end_table(field: Field, basis: Mat, unit_vec: Mat,
              compose: Callable[[int, int], Mat]) -> TableAlgebra:
    """Algebra table from a flattened End space.

    basis columns are the flattened basis vectors, unit_vec the flattened
    identity, compose(i, j) the flattened product b_i * b_j.
    """
    n = basis.cols
    products = [compose(i, j) for i in range(n) for j in range(n)]
    coords = solve(basis, hstack(products + [unit_vec]))
    if coords is None:
        raise AssertionError("End space is not closed under composition "
                             "or misses the identity")
    table = [[coords.col(i * n + j) for j in range(n)] for i in range(n)]
    return TableAlgebra(field, table, coords.col(n * n))
