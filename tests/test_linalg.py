import random
from fractions import Fraction

import pytest

from arcat.linalg import (Field, Mat, block_diag, equation_matrix, hstack,
                          kron, solve, split_blocks, vstack)

from _support import reference_matmul, reference_rref, typed_entries

F5 = Field.prime(5)
F2 = Field.prime(2)
F3 = Field.prime(3)
F101 = Field.prime(101)
# a Mersenne prime, so entry products exceed 64 bits
FBIG = Field.prime(2 ** 61 - 1)
QQ = Field.rationals()


def rand_mat(field, rows, cols, rng):
    return Mat(field, rows, cols, [field.random(rng) for _ in range(rows * cols)])


def test_field_rejects_composite_modulus():
    # beyond 6: a semiprime with both factors above 1000, a Carmichael
    # number, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (6, 1009 * 1013, 561, 3215031751):
        with pytest.raises(ValueError):
            Field.prime(n)


def test_field_accepts_large_prime_and_refuses_uncertifiable_moduli():
    f = Field.prime(1000003)
    assert f.mul(f.inv(1009), 1009) == 1
    with pytest.raises(ValueError):
        Field.prime(2 ** 89 - 1)


def test_field_of_fraction_over_fp():
    assert F101.of(Fraction(1, 2)) == 51
    assert F101.of(Fraction(-3, 4)) == F101.mul(F101.neg(3), F101.inv(4))
    assert F101.of(Fraction(202, 3)) == 0
    assert Mat.from_rows(F101, [[Fraction(1, 2), 3]]).data == (51, 3)
    assert Mat.column(F5, [Fraction(2, 3)]).data == (4,)
    with pytest.raises(ZeroDivisionError):
        F101.of(Fraction(1, 101))


def test_field_arithmetic_f5():
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.neg(1) == 4
    assert F5.of(-1) == 4


def test_rref_rank_one():
    a = Mat.from_rows(F5, [[1, 2], [2, 4]])
    r, pivots = a.rref()
    assert r.to_lists() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_swap():
    a = Mat.from_rows(F3, [[0, 1], [1, 0]])
    r, pivots = a.rref()
    assert r == Mat.identity(F3, 2)
    assert pivots == (0, 1)


def sparse_entry(field, density, rng):
    """Zero with probability 1 - density, else a random nonzero element;
    over Q a fraction with a denominator up to 7."""
    if rng.random() >= density:
        return field.zero()
    if field.p is not None:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 8))


def rref_oracle_cases(field, rng):
    """Seeded matrices at densities 0.1, 0.5 and 1, plus empty shapes, zero
    matrices, repeated rows and rank-deficient wide matrices."""
    def sample(rows, cols, density):
        return Mat(field, rows, cols, [sparse_entry(field, density, rng)
                                       for _ in range(rows * cols)])
    cases = [Mat.zeros(field, r, c) for r, c in ((0, 0), (0, 4), (4, 0), (3, 5))]
    for density in (0.1, 0.5, 1):
        for _ in range(12):
            cases.append(sample(rng.randrange(1, 7), rng.randrange(1, 9), density))
        top = sample(3, 6, density)
        cases.append(vstack([top, top, Mat(field, 1, 6, top.row(0))]))
        # rank at most 2 with 8 columns: a product through 2 dimensions
        cases.append(sample(4, 2, density) @ sample(2, 8, density))
    return cases


@pytest.mark.parametrize("field", [F2, F3, F101, QQ], ids=["F2", "F3", "F101", "Q"])
def test_rref_matches_the_whole_row_oracle(field):
    rng = random.Random(1300 + (field.p or 0))
    for a in rref_oracle_cases(field, rng):
        got, pivots = a.rref()
        want, want_pivots = reference_rref(a)
        assert pivots == want_pivots
        assert typed_entries(got) == typed_entries(want)
        assert a.rank() == len(want_pivots)
        assert a.kernel_basis().cols == a.cols - len(want_pivots)


def matmul_oracle_cases(field, rng):
    """Seeded operand pairs: every empty shape, 1 x k, k x 1, k = 1, 2 and 3,
    all-zero rows, 0/1 entries, and fully dense and 5%-dense operands at
    shapes where either the row-accumulating or the dot-product path runs."""
    def sample(rows, cols, density, units=False):
        if units:
            return Mat(field, rows, cols, [field.one() if rng.random() < density
                                           else field.zero() for _ in range(rows * cols)])
        return Mat(field, rows, cols, [sparse_entry(field, density, rng)
                                       for _ in range(rows * cols)])
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 4), (4, 0, 0),
              (1, 5, 4), (5, 4, 1), (1, 6, 1), (4, 1, 5), (1, 1, 1), (1, 1, 6),
              (2, 2, 2), (3, 3, 3), (7, 2, 5), (4, 3, 6), (36, 3, 36),
              (12, 12, 12), (13, 13, 9), (48, 4, 48), (4, 30, 4), (20, 7, 11)]
    cases = []
    for n, k, m in shapes:
        for density in (0.05, 0.5, 1):
            cases.append((sample(n, k, density), sample(k, m, density)))
        cases.append((sample(n, k, 0.3, units=True), sample(k, m, 0.6)))
    for n, k, m in ((6, 5, 7), (12, 12, 12)):
        a = sample(n, k, 0.4)
        zero_rows = Mat(field, n, k, [x if (i // k) % 3 else field.zero()
                                      for i, x in enumerate(a.data)])
        cases.append((zero_rows, sample(k, m, 1)))
        cases.append((Mat.zeros(field, n, k), sample(k, m, 1)))
        cases.append((sample(n, k, 1), Mat.zeros(field, k, m)))
    return cases


@pytest.mark.parametrize("field", [F2, F101, FBIG, QQ], ids=["F2", "F101", "Fbig", "Q"])
def test_matmul_matches_the_triple_loop_oracle(field):
    rng = random.Random(1400 + (field.p or 0) % 1000)
    for a, b in matmul_oracle_cases(field, rng):
        got = a @ b
        assert typed_entries(got) == typed_entries(reference_matmul(a, b))
        if field.p is not None:
            assert all(type(x) is int and 0 <= x < field.p for x in got.data)


def reference_block_diag(field, mats):
    """block_diag as a list of zero rows filled block by block."""
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[field.zero()] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            out[r0 + i][c0:c0 + m.cols] = list(m.row(i))
        r0 += m.rows
        c0 += m.cols
    return Mat(field, rows, cols, [x for row in out for x in row])


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_block_diag_matches_the_row_list_construction(field):
    rng = random.Random(1500 + (field.p or 0))
    shapes = [(0, 0), (1, 1), (2, 3), (3, 1), (0, 2), (2, 0), (4, 4)]
    cases = [[], [Mat.zeros(field, 0, 0)] * 3, [rand_mat(field, 2, 2, rng)]]
    for _ in range(30):
        picks = [rng.choice(shapes) for _ in range(rng.randrange(1, 6))]
        cases.append([rand_mat(field, r, c, rng) for r, c in picks])
    for mats in cases:
        assert (typed_entries(block_diag(field, mats))
                == typed_entries(reference_block_diag(field, mats)))
    with pytest.raises(ValueError):
        block_diag(field, [Mat.zeros(F5, 1, 1)])


def reference_hstack(mats):
    """hstack as each row of the result built from the rows of the blocks."""
    rows = mats[0].rows
    return Mat(mats[0].field, rows, sum(m.cols for m in mats),
               [x for i in range(rows) for m in mats for x in m.row(i)])


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_hstack_matches_the_row_construction(field):
    """Both paths of hstack, row slices for few wide blocks and column
    slices for many thin ones, against the row-by-row oracle, with empty
    rows and columns."""
    rng = random.Random(1550 + (field.p or 0))
    cases = []
    for rows in range(6):
        for widths in ([0, 1, 1, 2, 0, 1, 1, 1], [3, 5], [0, 0], [1] * 12, [4, 0, 2]):
            cases.append([rand_mat(field, rows, c, rng) for c in widths])
    thin = sum(4 * sum(m.cols for m in mats) <= len(mats) * mats[0].rows for mats in cases)
    assert 0 < thin < len(cases)
    for mats in cases:
        assert typed_entries(hstack(mats)) == typed_entries(reference_hstack(mats))
    with pytest.raises(ValueError):
        hstack([Mat.zeros(field, 1, 1), Mat.zeros(field, 2, 1)])


def test_solve_identity():
    b = Mat.from_rows(F5, [[2], [3]])
    assert solve(Mat.identity(F5, 2), b) == b


def test_solve_free_variables_zero():
    a = Mat.from_rows(F2, [[1, 1]])
    b = Mat.from_rows(F2, [[1]])
    x = solve(a, b)
    assert x.to_lists() == [[1], [0]]


def test_solve_inconsistent():
    a = Mat.from_rows(F5, [[1, 2], [2, 4]])
    b = Mat.from_rows(F5, [[1], [1]])
    assert solve(a, b) is None


def test_kernel_canonical():
    a = Mat.from_rows(F5, [[1, 2]])
    k = a.kernel_basis()
    assert k.to_lists() == [[3], [1]]


def test_kernel_of_injective_is_empty():
    a = Mat.identity(F101, 3)
    assert a.kernel_basis().cols == 0


def test_kron_permutation():
    s = Mat.from_rows(F2, [[0, 1], [1, 0]])
    k = kron(s, Mat.identity(F2, 2))
    assert k.to_lists() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]


def test_empty_matrices_compose():
    a = Mat.zeros(F5, 0, 3)
    b = Mat.zeros(F5, 3, 2)
    c = a @ b
    assert (c.rows, c.cols) == (0, 2)
    assert Mat.zeros(F5, 2, 0).kernel_basis().cols == 0


def test_rationals_exact():
    a = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    inv = a.inverse()
    assert inv @ a == Mat.identity(QQ, 2)
    assert a.at(0, 0) * 1 == 1  # Fraction compares with int


# +-1, a negative fraction, an integer, a denominator written negative, and
# large coprime numerator/denominator pairs (2^89 - 1 is prime) of both signs
Q_INVERSE_CASES = [Fraction(1), Fraction(-1), Fraction(-3, 7), Fraction(-5), Fraction(1, -4),
                   Fraction(2 ** 89 - 1, 3 ** 60), Fraction(-(3 ** 60), 2 ** 89 - 1)]


def test_field_inverse_over_q_swaps_numerator_and_denominator():
    for a in Q_INVERSE_CASES:
        inv = QQ.inv(a)
        assert type(inv) is Fraction
        sign = 1 if a > 0 else -1
        assert (inv.numerator, inv.denominator) == (sign * a.denominator, abs(a.numerator))
        assert inv == Fraction(1) / a and a * inv == 1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())


def hilbert(n):
    return Mat(QQ, n, n, [Fraction(1, i + j + 1) for i in range(n) for j in range(n)])


def large_denominator_rows(rows, cols, rng):
    """Numerators up to 10^12 over pairwise coprime primes up to 2^61 - 1."""
    primes = [2 ** 61 - 1, 2 ** 31 - 1, 10 ** 9 + 7, 10 ** 9 + 9, 998244353]
    return Mat(QQ, rows, cols, [Fraction(rng.randrange(-10 ** 12, 10 ** 12), rng.choice(primes))
                                for _ in range(rows * cols)])


def assert_shared_zero_and_one(r, pivots):
    """Every zero entry of a Q rref is the shared zero, every pivot the
    shared one."""
    assert all(x is QQ.zero() for x in r.data if not x)
    assert all(r.at(i, j) is QQ.one() for i, j in enumerate(pivots))


def test_q_kernels_under_coefficient_growth():
    """The 8 x 8 Hilbert matrix and rows with large coprime denominators
    through rref (against the whole-row oracle, with entry types), solve,
    kernel_basis and inverse round trips."""
    rng = random.Random(1600)
    h = hilbert(8)
    inv = h.inverse()
    assert inv is not None
    # the inverse of H_n is integral, with corner entry n^2 and entry sum n^2
    assert all(type(x) is Fraction and x.denominator == 1 for x in inv.data)
    assert inv.at(0, 0) == 64 and sum(inv.data) == 64
    assert inv.inverse() == h
    noisy = large_denominator_rows(8, 8, rng)
    cases = [h, hstack([h, Mat.identity(QQ, 8)]), Mat(QQ, 7, 8, h.data[:56]),
             vstack([Mat(QQ, 4, 8, h.data[:32]), noisy]), noisy,
             large_denominator_rows(5, 7, rng),
             large_denominator_rows(6, 3, rng) @ large_denominator_rows(3, 7, rng)]
    for a in cases:
        got, pivots = a.rref()
        want, want_pivots = reference_rref(a)
        assert pivots == want_pivots
        assert typed_entries(got) == typed_entries(want)
        assert_shared_zero_and_one(got, pivots)
        k = a.kernel_basis()
        assert k.cols == a.cols - len(pivots)
        assert (a @ k).is_zero()
        x0 = large_denominator_rows(a.cols, 2, rng)
        b = a @ x0
        x = solve(a, b)
        assert x is not None and a @ x == b
        if a.rows == a.cols == len(pivots):
            a_inv = a.inverse()
            assert a_inv is not None and a_inv.inverse() == a
            assert solve(a, b) == a_inv @ b
    assert all(type(v) is Fraction for v in (noisy @ noisy).data)


def test_typed_entries_refuses_an_int_in_a_q_result():
    """Negative control for the typed oracles: a Q result with a pivot one
    or a zero replaced by the int of the same value is still equal as a
    matrix, but no longer matches its oracle."""
    a = hilbert(3)
    e = Mat.from_rows(QQ, [[1, 0], [0, 0]])
    for got, want in ((a.rref()[0], reference_rref(a)[0]), (e @ e, reference_matmul(e, e))):
        assert typed_entries(got) == typed_entries(want)
        for pos in (0, 1):
            data = list(got.data)
            data[pos] = int(data[pos])
            spliced = Mat(QQ, got.rows, got.cols, data)
            assert spliced == got
            assert typed_entries(spliced) != typed_entries(want)


def test_stack_shapes():
    a = Mat.from_rows(F5, [[1, 2], [3, 4]])
    b = Mat.from_rows(F5, [[0], [1]])
    assert hstack([a, b]).cols == 3
    assert vstack([a, a]).rows == 4
    d = block_diag(F5, [a, Mat.identity(F5, 1)])
    assert (d.rows, d.cols) == (3, 3)
    assert d.at(2, 2) == 1 and d.at(2, 0) == 0


def test_randomized_invariants():
    rng = random.Random(7)
    for field in (F101, QQ, F5):
        for _ in range(40):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(0, 5)
            a = rand_mat(field, rows, cols, rng)
            r, pivots = a.rref()
            r2, pivots2 = r.rref()
            assert r2 == r and pivots2 == pivots
            # rank plus nullity is the column count
            k = a.kernel_basis()
            assert len(pivots) + k.cols == cols
            if k.cols:
                assert (a @ k).is_zero()
            # consistent systems solve exactly
            x0 = rand_mat(field, cols, 2, rng)
            b = a @ x0
            x = solve(a, b)
            assert x is not None and a @ x == b
            # a k-column solve is the k one-column solves side by side
            k_cols = rng.randrange(1, 4)
            b = hstack([a @ rand_mat(field, cols, k_cols, rng),
                        rand_mat(field, rows, k_cols, rng)])
            singles = [solve(a, Mat.column(field, b.col(j))) for j in range(b.cols)]
            if None in singles:
                assert solve(a, b) is None
            else:
                assert solve(a, b) == hstack(singles)
            consistent = a @ rand_mat(field, cols, k_cols, rng)
            assert solve(a, consistent) == hstack(
                [solve(a, Mat.column(field, consistent.col(j))) for j in range(k_cols)])
            # one inconsistent column sinks the whole call
            if len(pivots) < rows:
                outside = next(e for e in Mat.identity(field, rows).to_lists()
                               if solve(a, Mat.column(field, e)) is None)
                assert solve(a, hstack([consistent, Mat.column(field, outside)])) is None


def test_randomized_kron_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_mat(F101, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        c = rand_mat(F101, a.cols, rng.randrange(1, 4), rng)
        b = rand_mat(F101, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        d = rand_mat(F101, b.cols, rng.randrange(1, 4), rng)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_randomized_inverse():
    rng = random.Random(13)
    found = 0
    for _ in range(60):
        a = rand_mat(F101, 3, 3, rng)
        inv = a.inverse()
        if inv is not None:
            found += 1
            assert a @ inv == Mat.identity(F101, 3)
    assert found > 30


def _term_oracle(field, shapes, u, sign, a, b, p, q):
    """The block of sign * a X_u b over all unknowns, by kron and the vec
    identity vec_r(a X b) = (a kron b^T) vec_r(X)."""
    blocks = []
    for w, (r, c) in shapes.items():
        if w != u:
            blocks.append(Mat.zeros(field, p * q, r * c))
            continue
        left = Mat.identity(field, p) if a is None else a
        right = Mat.identity(field, q) if b is None else b
        blocks.append(kron(left, right.transpose()).scale(sign))
    return hstack(blocks) if blocks else Mat.zeros(field, p * q, 0)


def test_equation_matrix_matches_kron_oracle():
    rng = random.Random(23)
    for field in (F101, QQ):
        for _ in range(60):
            shapes = {("x", k): (rng.randrange(0, 4), rng.randrange(0, 4))
                      for k in range(rng.randrange(0, 4))}
            total = sum(r * c for r, c in shapes.values())
            equations, expected = [], []
            for _ in range(rng.randrange(0, 4)):
                p, q = rng.randrange(0, 4), rng.randrange(0, 4)
                terms = []
                block = Mat.zeros(field, p * q, total)
                for _ in range(rng.randrange(0, 4) if shapes else 0):
                    u = rng.choice(list(shapes))
                    r, c = shapes[u]
                    sign = rng.choice((1, -1))
                    a = None if r == p and rng.random() < 0.4 else rand_mat(field, p, r, rng)
                    b = None if c == q and rng.random() < 0.4 else rand_mat(field, c, q, rng)
                    terms.append((sign, a, u, b))
                    block = block + _term_oracle(field, shapes, u, sign, a, b, p, q)
                equations.append((p, q, terms))
                expected.append(block)
            got = equation_matrix(field, shapes, equations)
            want = vstack(expected) if expected else Mat.zeros(field, 0, total)
            assert got == want
            assert [type(v) for v in got.data] == [type(v) for v in want.data]
            # and the matrix acts as the system on a random solution vector
            xs = {u: rand_mat(field, r, c, rng) for u, (r, c) in shapes.items()}
            vec = Mat.column(field, [v for x in xs.values() for v in x.data])
            lhs = []
            for p, q, terms in equations:
                acc = Mat.zeros(field, p, q)
                for sign, a, u, b in terms:
                    t = xs[u] if a is None else a @ xs[u]
                    t = t if b is None else t @ b
                    acc = acc + t.scale(sign)
                lhs.extend(acc.data)
            assert (got @ vec).data == tuple(lhs)


def test_equation_matrix_identity_term_and_shape_check():
    shapes = {"x": (2, 2)}
    got = equation_matrix(F5, shapes, [(2, 2, [(-1, None, "x", None)])])
    assert got == Mat.identity(F5, 4).scale(-1)
    with pytest.raises(ValueError):
        equation_matrix(F5, shapes, [(2, 3, [(1, None, "x", None)])])
    with pytest.raises(ValueError):
        equation_matrix(F5, shapes, [(3, 2, [(1, Mat.zeros(F5, 3, 1), "x", None)])])


def test_split_blocks_inverts_the_layout():
    rng = random.Random(29)
    shapes = {"a": (2, 3), "b": (0, 4), "c": (1, 1), "d": (3, 0)}
    mats = {u: rand_mat(F101, r, c, rng) for u, (r, c) in shapes.items()}
    flat = tuple(v for m in mats.values() for v in m.data)
    assert split_blocks(F101, shapes, flat) == mats
    with pytest.raises(ValueError):
        split_blocks(F101, shapes, flat[:-1])
