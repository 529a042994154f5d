"""End-algebra analysis on hand-built algebras with known answers."""

import random
from collections import Counter

import pytest

from _support import (F101, QQ, a2_quiver, a3_rad2, cyclic_rad2, rand_invertible,
                      reference_find_nontrivial_idempotent, reference_left_mult_matrix,
                      reference_trace_form, typed_entries)
from arcat import algebra
from arcat.algebra import (TableAlgebra, end_table, find_nontrivial_idempotent,
                           primitive_idempotents, radical_basis)
from arcat.errors import PreconditionError
from arcat.fincat import category_of
from arcat.linalg import Field, Mat, hstack
from arcat.modcat import (almost_split_sequence, ar_quiver, conjugate_module, direct_sum,
                          end_algebra, verify_almost_split)
from arcat.quiver import Arrow, BoundQuiver, MonomialIdeal, Path, Quiver
from arcat.repcat import tensor_base


def table_algebra(field, n, mult, unit):
    """The algebra with b_i b_j = mult(i, j), both coordinate lists."""
    cols = [mult(i, j) for i in range(n) for j in range(n)] + [unit]
    return TableAlgebra(field, Mat.from_rows(field, [[c[k] for c in cols]
                                                     for k in range(n)]))


def unit_vector(n, i):
    return [1 if k == i else 0 for k in range(n)]


def diagonal(field, n=2):
    """k^n with b_i the i-th coordinate idempotent."""
    return table_algebra(field, n, lambda i, j: unit_vector(n, i) if i == j else [0] * n,
                         [1] * n)


def upper_triangular(field):
    """Upper-triangular 2 x 2 matrices on the basis E11, E12, E22."""
    units = [(0, 0), (0, 1), (1, 1)]

    def mult(i, j):
        (a, b), (c, d) = units[i], units[j]
        return unit_vector(3, units.index((a, d))) if b == c else [0, 0, 0]
    return table_algebra(field, 3, mult, [1, 0, 1])


def matrix_algebra(field):
    """M_2(k) on the basis E11, E12, E21, E22: E_ab E_cd = [b = c] E_ad."""
    def mult(i, j):
        (a, b), (c, d) = divmod(i, 2), divmod(j, 2)
        return unit_vector(4, 2 * a + d) if b == c else [0] * 4
    return table_algebra(field, 4, mult, [1, 0, 0, 1])


def truncated(field, coeffs):
    """k[t]/(f) on the basis 1, t, ..., t^(d-1), for monic f with lower
    coefficients coeffs: t^d = -sum coeffs[i] t^i."""
    d = len(coeffs)
    powers = [unit_vector(d, e) for e in range(d)]
    for _ in range(d - 1):
        # t * v = v shifted up by one degree, with its t^d term rewritten
        v = [field.of(c) for c in powers[-1]]
        powers.append([field.sub(a, field.mul(v[-1], field.of(c)))
                       for a, c in zip([field.zero()] + v[:-1], coeffs)])
    return table_algebra(field, d, lambda i, j: powers[i + j], unit_vector(d, 0))


def assert_nontrivial_idempotent(alg, e):
    assert e is not None
    assert alg.mul(e, e) == e
    assert e != alg.unit and any(e)


def dual_numbers(field):
    return truncated(field, [0, 0])  # t^2 = 0


def non_residue_field():
    r = 2
    assert pow(r, 50, 101) == 100  # Euler: 2 is not a square mod 101
    return truncated(F101, [-r, 0])  # t^2 = r


@pytest.mark.parametrize("field", [F101, QQ])
def test_diagonal_algebra_splits(field):
    alg = diagonal(field)
    assert radical_basis(alg).cols == 0
    assert alg.is_commutative()
    assert_nontrivial_idempotent(alg, find_nontrivial_idempotent(alg))


@pytest.mark.parametrize("field", [F101, QQ])
def test_upper_triangular_radical_and_lift(field):
    alg = upper_triangular(field)
    rad = radical_basis(alg)
    assert rad.cols == 1
    assert rad.col(0)[0] == 0 and rad.col(0)[2] == 0 and rad.col(0)[1] != 0  # E12
    assert not alg.is_commutative()
    assert_nontrivial_idempotent(alg, find_nontrivial_idempotent(alg))


def assert_same_class(alg, e, ref):
    """e is a nontrivial idempotent and e - ref lies in rad(alg)."""
    assert_nontrivial_idempotent(alg, e)
    f, rad = alg.field, radical_basis(alg)
    diff = Mat.column(f, [f.sub(a, b) for a, b in zip(e, ref)])
    assert hstack([rad, diff]).rank() == rad.cols


@pytest.mark.parametrize("field", [F101, QQ])
def test_split_of_a_non_idempotent_class(field):
    # k[t]/(t^3 - t^2) = k[t]/(t^2) x k; t is idempotent modulo the radical
    # spanned by t^2 - t, and the CRT idempotents of k[t] are t^2 and
    # 1 - t^2; which one is found depends on the order of the factors t
    # and t - 1, by coefficients: t - 1 first over Q, t first over F_101
    alg = truncated(field, [0, 0, -1])
    assert radical_basis(alg).cols == 1
    t = tuple(field.of(c) for c in (0, 1, 0))
    assert alg.mul(t, t) != t
    e = find_nontrivial_idempotent(alg)
    assert_same_class(alg, e, reference_find_nontrivial_idempotent(alg))
    assert e == tuple(field.of(c) for c in ((0, 0, 1) if field.p is None else (1, 0, -1)))


@pytest.mark.parametrize("field", [F101, QQ])
def test_dual_numbers_are_local(field):
    alg = dual_numbers(field)
    assert radical_basis(alg).cols == 1
    assert find_nontrivial_idempotent(alg) is None


@pytest.mark.parametrize("field", [F101, QQ])
def test_matrix_algebra_is_semisimple_and_splits(field):
    alg = matrix_algebra(field)
    assert radical_basis(alg).cols == 0
    assert not alg.is_commutative()
    assert_nontrivial_idempotent(alg, find_nontrivial_idempotent(alg))


@pytest.mark.parametrize("alg", [non_residue_field(), truncated(QQ, [1, 0])],
                         ids=["F101[t]/(t^2-2)", "Q[t]/(t^2+1)"])
def test_fields_are_certified_local(alg):
    assert radical_basis(alg).cols == 0
    assert alg.is_commutative()
    assert find_nontrivial_idempotent(alg) is None


def test_left_matrices_are_the_products():
    for alg in (upper_triangular(F101), matrix_algebra(QQ), non_residue_field()):
        n = alg.dim
        basis = [tuple(alg.field.of(c) for c in unit_vector(n, i)) for i in range(n)]
        for i in range(n):
            assert alg.left_mult_matrix(basis[i]) == alg.left[i]
            for j in range(n):
                assert alg.left[i].col(j) == alg.mul(basis[i], basis[j])
        assert alg.mul(alg.unit, basis[-1]) == basis[-1] == alg.mul(basis[-1], alg.unit)


def test_minimal_polynomial_against_direct_evaluation():
    rng = random.Random(5)
    algs = [diagonal(F101), upper_triangular(QQ), dual_numbers(F101),
            matrix_algebra(F101), matrix_algebra(QQ), non_residue_field(),
            truncated(QQ, [1, 0]), truncated(F101, [3, 0, 5, 1])]
    for alg in algs:
        f, n = alg.field, alg.dim
        elements = [tuple(f.of(c) for c in unit_vector(n, i)) for i in range(n)]
        elements += [tuple(f.random(rng) for _ in range(n)) for _ in range(4)]
        for x in elements:
            coeffs = alg.minimal_polynomial(x)
            d = len(coeffs) - 1
            assert 1 <= d <= n and coeffs[-1] == f.one()
            powers = [alg.unit]
            for _ in range(d):
                powers.append(alg.mul(powers[-1], x))
            total = [f.zero()] * n
            for c, p in zip(coeffs, powers):
                total = [f.add(a, f.mul(c, b)) for a, b in zip(total, p)]
            assert not any(total)
            lower = Mat(f, n, d, [powers[j][i] for i in range(n) for j in range(d)])
            assert lower.rank() == d


# name: (algebra over a field, number of primitive idempotents)
SPLIT_CASES = {"T2": (upper_triangular, 2), "M2": (matrix_algebra, 2),
               "kxkxk": (lambda f: diagonal(f, 3), 3), "dual-numbers": (dual_numbers, 1),
               "k[t]/(t^3-t^2)": (lambda f: truncated(f, [0, 0, -1]), 2),
               "k[t]/(t^3+t^2)": (lambda f: truncated(f, [0, 0, 1]), 2)}


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_primitive_idempotents_split_completely(field, name):
    build, count = SPLIT_CASES[name]
    alg = build(field)
    n = alg.dim
    zero = (field.zero(),) * n
    idems = primitive_idempotents(alg)
    assert len(idems) == count
    total = zero
    for e in idems:
        total = tuple(map(field.add, total, e))
    assert total == alg.unit
    for i, e in enumerate(idems):
        for j, g in enumerate(idems):
            assert alg.mul(e, g) == (e if i == j else zero)
        corner, basis = algebra._corner(alg, e)
        # the corner's table is alg's product on its basis, with unit e
        assert (basis @ Mat.column(field, corner.unit)).data == e
        for k in range(corner.dim):
            assert basis @ corner.left[k] == alg.left_mult_matrix(basis.col(k)) @ basis
        # split and local: the corner modulo its radical is k
        assert corner.dim - radical_basis(corner).cols == 1


def one_loop_sum_end(field):
    """End of the sum k[x]/(x^2) + k + k[x]/(x^2) of modules over one loop
    mod rad^2: a non-semisimple algebra with three summands."""
    loop = Quiver(["v"], [Arrow("x", "v", "v")])
    cat = category_of(BoundQuiver(loop, MonomialIdeal(frozenset(
        [Path("v", "v", ("x", "x"))]))), field)
    family = sorted(ar_quiver(cat).modules, key=lambda m: -m.dims["v"])
    return end_algebra(direct_sum([family[0], family[1], family[0]])[0])[0]


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
@pytest.mark.parametrize("name", sorted(SPLIT_CASES) + ["loop-sum"])
def test_corner_radical_is_e_rad_e(field, name, monkeypatch):
    # oracle: the trace-form radical of the corner itself, built directly
    build = algebra._trace_form_radical
    built = []
    monkeypatch.setattr(algebra, "_trace_form_radical",
                        lambda alg: built.append(alg) or build(alg))
    alg = one_loop_sum_end(field) if name == "loop-sum" else SPLIT_CASES[name][0](field)
    built.clear()  # knitting the loop's family builds radicals of its own
    idems = primitive_idempotents(alg)
    assert built == [alg]  # no corner builds a trace form
    for e in idems + [tuple(map(field.sub, alg.unit, idems[0]))]:
        corner, _ = algebra._corner(alg, e)
        derived, direct = corner._radical, build(corner)
        assert derived.cols == direct.cols == hstack([derived, direct]).rank()


def oracle_algebras(field):
    """The SPLIT_CASES algebras, the loop-sum End algebra and the zero
    dimensional corner of dual-numbers at the idempotent 0."""
    algs = {name: build(field) for name, (build, _) in SPLIT_CASES.items()}
    algs["loop-sum"] = one_loop_sum_end(field)
    dual = algs["dual-numbers"]
    algs["dim-0 corner"] = algebra._corner(dual, (field.zero(),) * dual.dim)[0]
    return algs


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_trace_form_matches_pairwise_traces(field):
    algs = oracle_algebras(field)
    assert algs["dim-0 corner"].dim == 0
    for name, alg in algs.items():
        assert typed_entries(algebra._trace_form(alg)) == \
            typed_entries(reference_trace_form(alg)), name


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_left_mult_matrix_matches_the_dense_product(field):
    rng = random.Random(77 + (field.p or 0))
    for name, alg in oracle_algebras(field).items():
        n = alg.dim
        basis = [tuple(field.of(c) for c in unit_vector(n, i)) for i in range(n)]
        vectors = [(field.zero(),) * n] + basis
        vectors += [tuple(map(field.add, basis[i], basis[j]))
                    for i in range(n) for j in range(i + 1, n)]
        vectors.append(tuple(field.random(rng) or field.one() for _ in range(n)))
        for x in vectors:
            assert typed_entries(alg.left_mult_matrix(x)) == \
                typed_entries(reference_left_mult_matrix(alg, x)), (name, x)


def test_primitive_idempotents_refuse_a_non_idempotent(monkeypatch):
    # negative control: 2 b_0 squares to 4 b_0, and once every corner is
    # declared local the leaves' units sum to 8 b_0 + (1 - 2 b_0) != 1
    found = []

    def fake(alg):
        found.append(alg)
        return (2, 0, 0) if len(found) == 1 else None

    monkeypatch.setattr(algebra, "find_nontrivial_idempotent", fake)
    with pytest.raises(AssertionError, match="sum to 1"):
        primitive_idempotents(diagonal(F101, 3))


def test_primitive_idempotents_refuse_non_orthogonal_leaves(monkeypatch):
    # negative control: corners embedded so that the leaves are 2 b_0 and
    # 1 - 2 b_0, which sum to 1, but 2 b_0 squares to 4 b_0
    point = TableAlgebra(F101, Mat.from_rows(F101, [[1, 1]]))  # k: b b = b = 1
    leaves = iter([(-1, 1, 1), (2, 0, 0)])  # the complement's corner is built first
    monkeypatch.setattr(algebra, "find_nontrivial_idempotent",
                        lambda alg: (1, 0, 0) if alg.dim == 3 else None)
    monkeypatch.setattr(algebra, "_corner",
                        lambda alg, e: (point, Mat.column(F101, next(leaves))))
    with pytest.raises(AssertionError, match="not orthogonal"):
        primitive_idempotents(diagonal(F101, 3))


def test_small_prime_field_is_refused():
    for p in (2, 3):
        alg = matrix_algebra(Field.prime(p))
        with pytest.raises(PreconditionError):
            radical_basis(alg)
        with pytest.raises(PreconditionError):
            find_nontrivial_idempotent(alg)
    radical_basis(matrix_algebra(Field.prime(5)))  # p > dim is accepted


def m2_on_basis(field, rows):
    """The algebra of 2 x 2 matrices spanned by those with the given
    row-major entries (M_2(k) for four independent ones), through end_table
    as End algebras are built."""
    mats = [Mat(field, 2, 2, [field.of(v) for v in r]) for r in rows]

    def flat(m):
        return Mat.column(field, list(m.data))
    return end_table(field, hstack([flat(b) for b in mats]), flat(Mat.identity(field, 2)),
                     hstack([flat(a @ b) for a in mats for b in mats]))


@pytest.mark.parametrize("rows,tries,last", [
    # 1, E12, E21, [[1,1],[1,0]]: no basis element splits, E12 + E21 does
    (((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)), 8, (0, 1, 1, 0)),
    # every basis element and every pair fails; the seeded random tries split
    (((3, 1, 1, 2), (1, 0, 0, 1), (1, 3, 3, 4), (3, 2, 1, 0)), 12, None)],
    ids=["pair", "random"])
def test_idempotent_search_reaches_pairs_and_random_candidates(rows, tries, last,
                                                               monkeypatch):
    """M_2(F_5) on two bases: the search past the basis vectors, to the
    sums of pairs and to the seeded random candidates, and the idempotent
    it finds is certified."""
    f5 = Field.prime(5)
    alg = m2_on_basis(f5, rows)
    tried, candidates = [], algebra._candidates

    def counting(fld, d, rng):
        for x in candidates(fld, d, rng):
            tried.append(x)
            yield x

    monkeypatch.setattr(algebra, "_candidates", counting)
    assert_nontrivial_idempotent(alg, find_nontrivial_idempotent(alg))
    assert len(tried) == tries
    if last is not None:
        assert tried[-1] == last


def test_zero_algebra_is_refused():
    zero = TableAlgebra(F101, Mat(F101, 0, 1, []))
    for search in (find_nontrivial_idempotent, primitive_idempotents):
        with pytest.raises(PreconditionError, match="zero algebra has no identity"):
            search(zero)


def knitted_and_summed_ends(fld):
    """End algebras over fld of every knitted node of A3 mod rad^2 (x) A2
    and of the 2-cycle mod rad^2 (x) A2, and of scrambled sums of two to
    four nodes with the first summand repeated, three of each count per
    category, from a fixed design seed."""
    design = random.Random("idempotent-oracle")
    algs = []
    for bq in (a3_rad2(), cyclic_rad2(2)):
        base = tensor_base(bq, category_of(a2_quiver(), fld))
        pool = ar_quiver(base).modules
        sums = []
        for count in (2, 3, 4) * 3:
            picks = design.sample(range(len(pool)), count - 1)
            m = direct_sum([pool[i] for i in picks + picks[:1]], base)[0]
            sums.append(conjugate_module(m, {x: rand_invertible(fld, m.dims[x], design)
                                             for x in base.objects})[0])
        algs += [end_algebra(m)[0] for m in pool + sums]
    return algs


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_idempotent_search_in_a_matches_the_quotient_route(fld):
    """Oracle: the search modulo rad with a Newton lift
    (`reference_find_nontrivial_idempotent`).  Both routes certify the same
    algebras local, and elsewhere the idempotent found in A lies in the
    reference's class modulo rad.  Besides the knitted and summed End
    algebras, the nonzero oracle_algebras; among them k[t]/(t^3 + t^2),
    where the factor t of the minimal polynomial of t has multiplicity 2
    in A and 1 modulo rad, and precedes t + 1 by coefficients but not by
    multiplicity."""
    algs = oracle_algebras(fld)
    del algs["dim-0 corner"]  # refused by both routes
    counts = Counter()
    for alg in knitted_and_summed_ends(fld) + list(algs.values()):
        e, ref = find_nontrivial_idempotent(alg), reference_find_nontrivial_idempotent(alg)
        assert (e is None) == (ref is None)
        if e is not None:
            assert_same_class(alg, e, ref)
        counts["local" if e is None else
               "split, rad != 0" if radical_basis(alg).cols else "split, rad = 0"] += 1
    assert len(counts) == 3, counts


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_a_one_factor_candidate_below_the_top_dimension_is_no_certificate(fld):
    """Negative control: T_2(k) on the basis 1 + E12, E11, E12.  The first
    candidate, 1 + E12, has minimal polynomial (x - 1)^2, one factor of
    degree 1 < dim T_2 / rad = 2: it certifies nothing, and the next
    candidate, E11, splits."""
    alg = m2_on_basis(fld, ((1, 1, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    assert alg.dim - radical_basis(alg).cols == 2
    one_plus_e12 = (fld.one(), fld.zero(), fld.zero())
    assert alg.minimal_polynomial(one_plus_e12) == [fld.one(), fld.of(-2), fld.one()]
    assert_nontrivial_idempotent(alg, find_nontrivial_idempotent(alg))


def test_radical_is_memoised():
    alg = upper_triangular(F101)
    assert radical_basis(alg) is radical_basis(alg)


def test_almost_split_builds_each_radical_once(monkeypatch):
    built = []
    build = algebra._trace_form_radical

    def counting(alg):
        built.append(alg)
        return build(alg)

    monkeypatch.setattr(algebra, "_trace_form_radical", counting)
    # k[x]/(x^3): the sequence ending at k[x]/(x^2) has End = k[x]/(x^2) at
    # both ends, so the idempotent search and the radical maps share a radical
    loop = Quiver(["v"], [Arrow("x", "v", "v")])
    cat = category_of(BoundQuiver(loop, MonomialIdeal(frozenset(
        [Path("v", "v", ("x", "x", "x"))]))), F101)
    family = ar_quiver(cat).modules
    z = next(m for m in family if m.dims["v"] == 2)
    built.clear()
    verify_almost_split(almost_split_sequence(z), family)
    assert any(alg.dim == 2 for alg in built)
    # the list keeps every algebra alive, so ids are distinct objects
    assert len({id(alg) for alg in built}) == len(built)
