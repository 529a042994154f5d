import hashlib
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from arcat.errors import PreconditionError
from arcat.fincat import (AddMor, AddObject, FinCategory, Hull, KarObject,
                          _representable_action, category_of, decompose_object, hom_basis,
                          opposite_category, point_category, split_idempotent,
                          tensor_product)
from arcat.linalg import Field, Mat, hstack
from arcat.modcat import CModule, yoneda_projective
from arcat.quiver import Arrow, BoundQuiver, Quiver, linear_quiver

from _support import (F101, QQ, a2_quiver, a3_quiver, a3_rad2, cyclic_rad2,
                      hash_line_categories, load_tool, one_loop_rad2,
                      reference_category_check, reference_compose, reference_pre_matrix,
                      reference_entrywise, reference_identity, reference_is_zero_mor,
                      reference_scale, reference_zero_mor, typed_entries)


def dims(c):
    return {key: len(labels) for key, labels in c.hom.items()}


def test_path_category_a2():
    c = category_of(a2_quiver(), F101)
    assert dims(c) == {("1", "1"): 1, ("1", "2"): 1, ("2", "1"): 0, ("2", "2"): 1}
    assert c.hom[("1", "2")] == (("a1",),)
    assert c.radical[("1", "2")] == frozenset([0])
    assert c.radical[("1", "1")] == frozenset()
    u1 = c.units["1"]
    f = c.basis_coords("1", "2", 0)
    assert c.compose("1", "1", "2", u1, f) == f


def test_path_category_loop():
    c = category_of(one_loop_rad2(), F101)
    assert c.hom[("v", "v")] == ((), ("x",))
    assert c.radical[("v", "v")] == frozenset([1])
    x = c.basis_coords("v", "v", 1)
    assert c.compose("v", "v", "v", x, x) == c.zero_coords("v", "v")


def test_path_category_cyclic_rad2():
    c = category_of(cyclic_rad2(3), F101)
    d = dims(c)
    for i in range(3):
        v, w, z = str(i), str((i + 1) % 3), str((i + 2) % 3)
        assert d[(v, v)] == 1
        assert d[(v, w)] == 1
        assert d[(v, z)] == 0


def test_point_category():
    c = point_category(F101)
    assert dims(c) == {("pt", "pt"): 1}
    assert c.radical[("pt", "pt")] == frozenset()


def test_validation_rejects_unit_in_radical():
    c = category_of(a2_quiver(), F101)
    bad = dict(c.radical)
    bad[("1", "1")] = frozenset([0])
    with pytest.raises(PreconditionError):
        FinCategory(c.field, c.objects, c.hom, c.comp, c.units, bad)


def test_validation_rejects_radical_ideal_violation():
    c = category_of(one_loop_rad2(), F101)
    comp = {key: {pair: dict(entry) for pair, entry in table.items()}
            for key, table in c.comp.items()}
    # declare x * x = e while keeping x marked radical
    comp[("v", "v", "v")][(1, 1)] = {0: F101.one()}
    with pytest.raises(PreconditionError):
        FinCategory(c.field, c.objects, c.hom, comp, c.units, c.radical)


def perturbed_comp(c, key, pair, entry):
    comp = {k: {p: dict(e) for p, e in table.items()} for k, table in c.comp.items()}
    comp[key][pair] = entry
    return comp


def test_validation_rejects_broken_unit_law():
    c = category_of(a2_quiver(), F101)
    # declare a1 o 1 = 2 a1
    comp = perturbed_comp(c, ("1", "1", "2"), (0, 0), {0: F101.of(2)})
    with pytest.raises(PreconditionError, match=r"right unit law fails at \('1', '2'\)"):
        FinCategory(c.field, c.objects, c.hom, comp, c.units, c.radical)


def test_validation_rejects_associativity_broken_at_a_non_identity_triple():
    c = category_of(BoundQuiver(linear_quiver(4)), F101)
    # declare a2 o a1 = 2 (a1 a2): the unit laws and the radical still hold,
    # but a3 o (a2 o a1) is twice (a3 o a2) o a1 on the triple of arrows
    comp = perturbed_comp(c, ("1", "2", "3"), (0, 0), {0: F101.of(2)})
    with pytest.raises(PreconditionError,
                       match=r"associativity fails at \('1', '2', '3', '4'\)"):
        FinCategory(c.field, c.objects, c.hom, comp, c.units, c.radical)


def dual_numbers_off_basis(field):
    """k[x]/(x^2) on the basis {1 + x, x}: the identity 1 = (1 + x) - x is not
    a basis element."""
    one = field.one()
    comp = {("v", "v", "v"): {(0, 0): {0: one, 1: one},  # (1 + x)^2 = (1 + x) + x
                              (0, 1): {1: one}, (1, 0): {1: one}}}
    return FinCategory(field, ["v"], {("v", "v"): ("1+x", "x")}, comp,
                       {"v": (one, field.neg(one))}, {("v", "v"): frozenset([1])})


def test_unit_off_the_basis_skips_no_functoriality_pair():
    c = dual_numbers_off_basis(F101)
    assert c.unit_index("v") is None
    assert c._non_unit_indices("v", "v") == (0, 1)
    nilpotent = Mat.from_rows(F101, [[0, 1], [0, 0]])
    good = {("v", "v", 0): Mat.identity(F101, 2) + nilpotent, ("v", "v", 1): nilpotent}
    CModule(c, {"v": 2}, good)
    # x acts as an idempotent n, n^2 != 0: the unit still acts as 1 + n - n = 1,
    # but (1 + x)^2 acts as 1 + 3n, not as M(1 + x) + M(x) = 1 + 2n
    idem = Mat.from_rows(F101, [[1, 0], [0, 0]])
    bad = {("v", "v", 0): Mat.identity(F101, 2) + idem, ("v", "v", 1): idem}
    with pytest.raises(PreconditionError,
                       match=r"not functorial at \('v', 'v', 'v', 0, 0\)"):
        CModule(c, {"v": 2}, bad)


def check_outcome(build):
    try:
        build()
    except PreconditionError:
        return "refuse"
    return "accept"


def bump_sweep(c):
    """Every coefficient g_j o f_i -> h_k of the composition table of c,
    present or not, bumped by one and rebuilt through the constructor: the
    outcomes, each checked against the scalar oracle."""
    outcomes = Counter()
    fld = c.field
    for (x, y, z) in [(x, y, z) for x in c.objects for y in c.objects for z in c.objects]:
        table = c.comp.get((x, y, z), {})
        for i in range(c.dim(x, y)):
            for j in range(c.dim(y, z)):
                entry = table.get((i, j), {})
                for k in range(c.dim(x, z)):
                    bumped = {**entry, k: fld.add(entry.get(k, fld.zero()), fld.one())}
                    comp = {**c.comp, (x, y, z): {**table, (i, j): bumped}}
                    args = (fld, c.objects, c.hom, comp, c.units, c.radical)
                    got = check_outcome(lambda: FinCategory(*args))
                    assert got == check_outcome(lambda: reference_category_check(*args)), \
                        ((x, y, z), (i, j), k)
                    outcomes[got] += 1
    return outcomes


def test_category_check_agrees_with_the_scalar_oracle_on_every_perturbation():
    """Every coefficient g_j o f_i -> h_k of the composition table, present or
    not, bumped by one: the checks on the representables accept exactly the
    tables that the scalar unit, associativity and radical loops accept."""
    outcomes = set()
    for c in (category_of(BoundQuiver(linear_quiver(4)), F101),
              category_of(one_loop_rad2(), F101), dual_numbers_off_basis(F101)):
        outcomes |= set(bump_sweep(c))
    assert outcomes == {"accept", "refuse"}


def test_opposite_and_tensor_categories_of_the_hash_lines_are_valid(monkeypatch):
    """opposite_category and tensor_product build unvalidated, on the
    proofs in their docstrings.  Every such category of the hash lines, the
    tensor categories, their opposite factors and the opposites that
    duality_D works over, passes _validate when it is called, and so do its
    tables rebuilt through the constructor, which validates them."""
    derived = {}
    for _, c in hash_line_categories(monkeypatch):
        for d in (c, c.meta.get("b"), opposite_category(c)):
            if d is not None and d.meta["kind"] in ("opposite", "tensor"):
                derived[id(d)] = d
    kinds = Counter(d.meta["kind"] for d in derived.values())
    assert kinds["opposite"] > kinds["tensor"] > 0, kinds
    for d in derived.values():
        d._validate()
        rebuilt = FinCategory(d.field, d.objects, d.hom, d.comp, d.units, d.radical)
        assert rebuilt == d


def path_categories(c):
    """The path categories c is built from: c itself, the base of an
    opposite and both factors of a tensor product, recursively."""
    kind = c.meta["kind"]
    if kind == "path":
        return [c]
    if kind == "opposite":
        return path_categories(c.meta["base"])
    return path_categories(c.meta["b"]) + path_categories(c.meta["a"])


def test_path_categories_of_the_hash_lines_and_the_knit_probe_are_valid(monkeypatch):
    """category_of, and so point_category, builds unvalidated, on the proof
    in its docstring.  The path category of every quiver of the hash lines
    and of tools/knit_probe.py, and the point over F_2, F_101 and Q, pass
    _validate and the scalar oracle (reference_category_check)."""
    probe = load_tool(monkeypatch, "knit_probe")
    cats = [c for _, c in hash_line_categories(monkeypatch)]
    cats += [make() for make, _ in probe.JOBS.values()]
    cats += [point_category(fld) for fld in (Field.prime(2), F101, QQ)]
    paths = {id(p): p for c in cats for p in path_categories(c)}
    assert len(paths) > len(probe.JOBS)
    for p in paths.values():
        p._validate()
        reference_category_check(p.field, p.objects, p.hom, p.comp, p.units, p.radical)


def test_a_perturbed_opposite_table_is_refused_through_the_constructor():
    """opposite_category validates nothing, but a table taken from an
    opposite and rebuilt through the constructor is still checked: on the
    opposites of A4 and of the loop mod x^2, every coefficient bumped by one
    is accepted exactly when the scalar oracle accepts it.  The outcomes
    are those of the same sweep on the category itself, whose bumps are the
    opposite's with the factors swapped: every bump is refused on A4, and
    all but one on the loop, the idempotent x o x = x that the radical
    check lets through."""
    for c, refused in ((category_of(BoundQuiver(linear_quiver(4)), F101), 20),
                       (category_of(one_loop_rad2(), F101), 7)):
        op = opposite_category(c)
        assert op.meta["kind"] == "opposite"
        outcomes = bump_sweep(op)
        assert outcomes == bump_sweep(c) and outcomes["refuse"] == refused, outcomes


def test_tensor_dimensions_multiply():
    b = category_of(a3_rad2(), F101)
    a = category_of(a2_quiver(), F101)
    t = tensor_product(b, a)
    assert len(t.objects) == 6
    for x in b.objects:
        for y in b.objects:
            for u in a.objects:
                for v in a.objects:
                    assert t.dim((x, u), (y, v)) == b.dim(x, y) * a.dim(u, v)


def test_tensor_square_composite():
    a = category_of(a2_quiver(), F101)
    t = tensor_product(a, a)
    s, m1, m2, e = ("1", "1"), ("2", "1"), ("1", "2"), ("2", "2")
    f1 = t.basis_coords(s, m1, 0)   # (a1, unit)
    g1 = t.basis_coords(m1, e, 0)   # (unit, a1)
    f2 = t.basis_coords(s, m2, 0)   # (unit, a1)
    g2 = t.basis_coords(m2, e, 0)   # (a1, unit)
    diag = t.basis_coords(s, e, 0)  # (a1, a1)
    assert t.compose(s, m1, e, f1, g1) == diag
    assert t.compose(s, m2, e, f2, g2) == diag


def test_tensor_field_mismatch():
    b = category_of(a2_quiver(), F101)
    a = category_of(a2_quiver(), QQ)
    with pytest.raises(PreconditionError):
        tensor_product(b, a)


def test_opposite_is_involution():
    for bq in (a3_rad2(), cyclic_rad2(4)):
        c = category_of(bq, F101)
        t = tensor_product(c, category_of(a2_quiver(), F101))
        for cat in (c, t):
            op = opposite_category(cat)
            assert opposite_category(op) == cat
            assert opposite_category(op) is cat
            # an uncached copy of the opposite is reversed back by construction
            copy = FinCategory(op.field, op.objects, op.hom, op.comp, op.units, op.radical)
            assert opposite_category(copy) == cat
            assert opposite_category(copy) is not cat


def test_opposite_reverses_composition():
    c = category_of(a3_quiver(), F101)
    op = opposite_category(c)
    assert op.hom[("3", "1")] == c.hom[("1", "3")]
    f = op.basis_coords("3", "2", 0)
    g = op.basis_coords("2", "1", 0)
    assert op.compose("3", "2", "1", f, g) == op.basis_coords("3", "1", 0)


def test_hom_basis_additive():
    c = category_of(a2_quiver(), F101)
    x = AddObject.of(["1", "1"])
    y = AddObject.of(["1", "2"])
    assert len(hom_basis(c, x, y)) == 4
    assert len(hom_basis(c, y, x)) == 2
    assert len(hom_basis(c, "2", "1")) == 0


def test_split_idempotent_certificates():
    c = category_of(a2_quiver(), F101)
    hull = Hull(c)
    y = AddObject.of(["1", "2"])
    ky = hull.to_kar(y)
    e = hull.zero_mor(y, y)
    blocks = [list(row) for row in e.blocks]
    blocks[0][0] = tuple(c.units["1"])
    e = AddMor(y, y, tuple(tuple(row) for row in blocks))
    f, g = split_idempotent(c, KarObject(y, e))
    assert hull.then(f, g) == e


def test_decompose_plain_and_sum():
    c = category_of(a2_quiver(), F101)
    assert len(decompose_object(c, "1")) == 1
    pieces = decompose_object(c, AddObject.of(["1", "1"]))
    assert len(pieces) == 2
    hull = Hull(c)
    total = hull.zero_mor(pieces[0].piece.base, pieces[0].piece.base)
    for s in pieces:
        assert hull.then(s.include, s.include) == s.include
        total = hull.add(total, s.include)
    assert total == hull.identity(pieces[0].piece.base)


def test_decompose_over_rationals():
    c = category_of(a2_quiver(), QQ)
    pieces = decompose_object(c, AddObject.of(["1", "2"]))
    assert len(pieces) == 2


def test_decompose_conjugated_idempotent():
    for field in (F101, QQ):
        c = category_of(a2_quiver(), field)
        hull = Hull(c)
        y = AddObject.of(["1", "1", "2"])
        basis = hull.kar_hom_basis(hull.to_kar(y), hull.to_kar(y))
        assert len(basis) == 7
        rng = random.Random(20240 + (field.p or 0))
        for _ in range(3):
            while True:
                g = hull.mor_from_coords(
                    basis, tuple(field.random(rng) for _ in basis))
                ginv = hull.invert(g)
                if ginv is not None:
                    break
            e = hull.zero_mor(y, y)
            blocks = [list(row) for row in e.blocks]
            blocks[0][0] = tuple(c.units["1"])
            e = AddMor(y, y, tuple(tuple(row) for row in blocks))
            econj = hull.then(hull.then(ginv, e), g)
            assert hull.then(econj, econj) == econj
            pieces = decompose_object(c, KarObject(y, econj))
            assert len(pieces) == 1
            assert hull.then(pieces[0].project, pieces[0].include) == econj
            other = KarObject(y, hull.sub(hull.identity(y), econj))
            assert len(hull.kar_hom_basis(pieces[0].piece, other)) == 2


def test_decompose_tensor_object():
    b = category_of(a2_quiver(), F101)
    t = tensor_product(b, b)
    pieces = decompose_object(t, AddObject.of([("1", "1"), ("2", "2")]))
    assert len(pieces) == 2


# ---------------------------------------------------------------------------
# hull arithmetic against a per-block oracle on FinCategory.compose


def kronecker():
    return BoundQuiver(Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")]))


def hull_categories(field):
    """One-loop rad^2 (dim End(v) = 2), the Kronecker quiver (dim Hom(1, 2)
    = 2) and A3 rad^2 (x) A2, where flat offsets differ from block indices."""
    return [category_of(one_loop_rad2(), field), category_of(kronecker(), field),
            tensor_product(category_of(a3_rad2(), field), category_of(a2_quiver(), field))]


def oracle_then(cat, f, g):
    """g o f block by block: (g o f)_ki = sum over j of g_kj o f_ji."""
    fld = cat.field
    blocks = []
    for k, zs in enumerate(g.tgt.summands):
        row = []
        for i, xs in enumerate(f.src.summands):
            acc = cat.zero_coords(xs, zs)
            for j, ys in enumerate(f.tgt.summands):
                part = cat.compose(xs, ys, zs, f.blocks[j][i], g.blocks[k][j])
                acc = tuple(fld.add(a, b) for a, b in zip(acc, part))
            row.append(acc)
        blocks.append(tuple(row))
    return AddMor(f.src, g.tgt, tuple(blocks))


def typed(f):
    return [[[(type(v), v) for v in cell] for cell in row] for row in f.blocks]


def rand_obj(cat, rng, lo=0, hi=3):
    return AddObject.of([rng.choice(cat.objects) for _ in range(rng.randint(lo, hi))])


def rand_mor(cat, x, y, rng):
    """Random blocks, about a third of them zero."""
    fld = cat.field
    return AddMor(x, y, tuple(
        tuple(cat.zero_coords(xs, ys) if rng.random() < 0.3
              else tuple(fld.random(rng) for _ in range(cat.dim(xs, ys)))
              for xs in x.summands) for ys in y.summands))


def unit_mor(hull, x, y, t):
    n = hull.flat_dim(x, y)
    fld = hull.cat.field
    return hull.unflatten(x, y, Mat.column(fld, [fld.one() if s == t else fld.zero()
                                                 for s in range(n)]))


def oracle_operator(hull, x, y, fn):
    """Columns: the flattened fn(h) for the unit vectors h of flat Hom(x, y)."""
    n = hull.flat_dim(x, y)
    cols = [list(hull.flatten(fn(unit_mor(hull, x, y, t))).col(0)) for t in range(n)]
    return Mat(hull.cat.field, len(cols[0]), n, [c[r] for r in range(len(cols[0])) for c in cols])


def rand_idempotent(hull, x, rng):
    """A diagonal unit on a random subset of summands, conjugated by a random
    automorphism whose inverse the oracle certifies."""
    cat = hull.cat
    keep = [rng.random() < 0.5 for _ in x.summands]
    e = AddMor(x, x, tuple(tuple(cat.units[xs] if i == j and keep[i] else cat.zero_coords(xs, ys)
                                 for i, xs in enumerate(x.summands))
                           for j, ys in enumerate(x.summands)))
    for _ in range(20):
        g = rand_mor(cat, x, x, rng)
        ginv = hull.invert(g)
        if ginv is not None:
            assert oracle_then(cat, g, ginv) == hull.identity(x)
            e = oracle_then(cat, oracle_then(cat, ginv, e), g)
            break
    assert oracle_then(cat, e, e) == e
    return e


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_hull_then_matches_block_oracle(field):
    rng = random.Random(f"then-{field}")
    for cat in hull_categories(field):
        hull = Hull(cat)
        for _ in range(40):
            x, y, z = (rand_obj(cat, rng) for _ in range(3))
            f, g = rand_mor(cat, x, y, rng), rand_mor(cat, y, z, rng)
            got, want = hull.then(f, g), oracle_then(cat, f, g)
            assert got == want and typed(got) == typed(want)
            assert hull.post_matrix(g, x) @ hull.flatten(f) == hull.flatten(got)
            assert hull.pre_matrix(f, z) @ hull.flatten(g) == hull.flatten(got)
        empty = AddObject(())
        y = rand_obj(cat, rng, lo=1)
        assert hull.then(hull.zero_mor(empty, y), rand_mor(cat, y, y, rng)) == hull.zero_mor(empty, y)
        assert hull.then(rand_mor(cat, y, y, rng), hull.zero_mor(y, empty)) == hull.zero_mor(y, empty)
        assert hull.then(hull.zero_mor(y, empty), hull.zero_mor(empty, y)) == hull.zero_mor(y, y)


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_kar_hom_basis_matches_block_oracle(field):
    rng = random.Random(f"kar-{field}")
    for cat in hull_categories(field):
        hull = Hull(cat)
        for _ in range(12):
            bx, by = rand_obj(cat, rng), rand_obj(cat, rng)
            kx = KarObject(bx, rand_idempotent(hull, bx, rng))
            ky = KarObject(by, rand_idempotent(hull, by, rng))
            got = hull.kar_hom_basis(kx, ky)
            if hull.flat_dim(bx, by) == 0:
                assert got == []
                continue
            sandwich = oracle_operator(
                hull, bx, by, lambda h: oracle_then(cat, oracle_then(cat, kx.idem, h), ky.idem))
            want, _ = sandwich.column_space_basis()
            assert [list(hull.flatten(b).col(0)) for b in got] == \
                [list(want.col(j)) for j in range(want.cols)]
            for b in got:
                assert oracle_then(cat, oracle_then(cat, kx.idem, b), ky.idem) == b
        empty = hull.to_kar(AddObject(()))
        assert hull.kar_hom_basis(empty, hull.to_kar(cat.objects[0])) == []


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_kar_end_algebra_matches_block_oracle(field):
    rng = random.Random(f"end-{field}")
    noncommutative = 0
    for cat in hull_categories(field):
        hull = Hull(cat)
        for _ in range(6):
            base = rand_obj(cat, rng, lo=1)
            x = KarObject(base, rand_idempotent(hull, base, rng))
            if hull.is_zero_mor(x.idem):
                continue
            alg, basis = hull.kar_end_algebra(x)
            basis_mat = hstack([hull.flatten(b) for b in basis])
            assert hull.mor_from_coords(basis, alg.unit) == x.idem
            for i in range(alg.dim):
                for j in range(alg.dim):
                    # column j of left[i] holds b_i * b_j = b_i o b_j, b_j applied first
                    prod = basis_mat @ Mat(field, alg.dim, 1, alg.left[i].col(j))
                    assert prod == hull.flatten(oracle_then(cat, basis[j], basis[i]))
            noncommutative += not alg.is_commutative()
    assert noncommutative


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_invert_matches_block_oracle(field):
    rng = random.Random(f"invert-{field}")
    for cat in hull_categories(field):
        hull = Hull(cat)
        seen = {True: 0, False: 0}
        for _ in range(30):
            x = rand_obj(cat, rng, lo=1)
            f = rand_mor(cat, x, x, rng)
            g = hull.invert(f)
            rank = oracle_operator(hull, x, x, lambda h: oracle_then(cat, h, f)).rank()
            assert (g is not None) == (rank == hull.flat_dim(x, x))
            if g is not None:
                assert oracle_then(cat, f, g) == hull.identity(x)
                assert oracle_then(cat, g, f) == hull.identity(x)
            seen[g is not None] += 1
        assert seen[True] and seen[False]
        # non-invertible by construction: a proper idempotent and a radical map
        x = AddObject.of([cat.objects[0], cat.objects[-1]])
        e = hull.identity(x)
        proper = AddMor(x, x, ((e.blocks[0][0], e.blocks[0][1]),
                               (e.blocks[1][0], cat.zero_coords(x.summands[1], x.summands[1]))))
        assert hull.invert(proper) is None
        assert hull.invert(hull.sub(e, e)) is None
        assert hull.invert(hull.zero_mor(x, AddObject.of([cat.objects[0]]))) is None
        assert hull.invert(e) == e
        assert hull.invert(hull.identity(AddObject(()))) == hull.identity(AddObject(()))


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_mor_from_coords_matches_sum_of_scaled_basis(field):
    rng = random.Random(f"coords-{field}")
    for cat in hull_categories(field):
        hull = Hull(cat)
        for _ in range(15):
            x, y = rand_obj(cat, rng, lo=1), rand_obj(cat, rng, lo=1)
            basis = hull.kar_hom_basis(hull.to_kar(x), hull.to_kar(y))
            if not basis:
                continue
            coords = tuple(field.zero() if rng.random() < 0.3 else field.random(rng)
                           for _ in basis)
            want = hull.zero_mor(x, y)
            for c, b in zip(coords, basis):
                want = hull.add(want, hull.scale(c, b))
            got = hull.mor_from_coords(basis, coords)
            assert got == want
            assert typed(got) == typed(want)


def test_completion_object_idempotent_must_be_an_endomorphism_of_its_base():
    c = category_of(a2_quiver(), F101)
    hull = Hull(c)
    one, both = AddObject.of(["1"]), AddObject.of(["1", "2"])
    plain = hull.to_kar("1")
    bad = [KarObject(one, hull.identity(AddObject.of(["1", "1"]))),
           KarObject(one, hull.zero_mor(one, both)),
           KarObject(both, hull.identity(one))]
    for x in bad:
        for call in (lambda: hull.to_kar(x), lambda: hull.kar_hom_basis(x, plain),
                     lambda: hull.kar_hom_basis(plain, x), lambda: hom_basis(c, x, "2"),
                     lambda: decompose_object(c, x)):
            with pytest.raises(PreconditionError, match="endomorphism of its base"):
                call()
    # the well-formed completion object passes
    assert len(decompose_object(c, KarObject(one, hull.identity(one)))) == 1


# ---------------------------------------------------------------------------
# golden decompose_object output: SHA-256 over every summand's include and
# project blocks, entry types included


def decompose_digest(c, x):
    h = hashlib.sha256()
    for s in decompose_object(c, x):
        for mor in (s.include, s.project):
            h.update(repr([[[(type(v).__name__, str(v)) for v in cell] for cell in row]
                           for row in mor.blocks]).encode())
    return h.hexdigest()


def scrambled(c, y, seed):
    """The units of y's first two summands, conjugated by a fixed automorphism."""
    hull = Hull(c)
    basis = hull.kar_hom_basis(hull.to_kar(y), hull.to_kar(y))
    rng = random.Random(seed)
    while True:
        g = hull.mor_from_coords(basis, tuple(c.field.random(rng) for _ in basis))
        ginv = hull.invert(g)
        if ginv is not None:
            break
    blocks = [list(row) for row in hull.zero_mor(y, y).blocks]
    blocks[0][0], blocks[1][1] = c.units[y.summands[0]], c.units[y.summands[1]]
    e = AddMor(y, y, tuple(tuple(row) for row in blocks))
    return KarObject(y, hull.then(hull.then(ginv, e), g))


@lru_cache(maxsize=None)
def golden_sums():
    out = {}
    for name, bq in (("A3rad2xA2", a3_rad2()), ("C2rad2xA2", cyclic_rad2(2))):
        c = tensor_product(category_of(bq, F101), category_of(a2_quiver(), F101))
        objs = c.objects
        y = AddObject.of([objs[0], objs[0], objs[1], objs[2]])
        out[name + ":sum"] = (c, y)
        out[name + ":all"] = (c, AddObject.of(list(objs) + [objs[-1]]))
        out[name + ":scrambled"] = (c, scrambled(c, y, 7))
    c = tensor_product(category_of(a3_rad2(), QQ), category_of(a2_quiver(), QQ))
    objs = c.objects
    out["A3rad2xA2-Q:sum"] = (c, AddObject.of([objs[0], objs[0], objs[1], objs[3]]))
    return out


GOLDEN_DECOMPOSE = {
    "A3rad2xA2-Q:sum": "3b2d07fcbce15f7b481fded1c9632ed82820b7882ff82ed2712e423529bdb73e",
    "A3rad2xA2:all": "dde75c7c94c5193203d7503a3d24595dd02f08766a6b47188716385f80171985",
    "A3rad2xA2:scrambled": "54ea7725b34f6058eceabc1f70714b46f34fcd8e58485a9952c69431e43b1f7f",
    "A3rad2xA2:sum": "2edd1d3efb59b05b8b260ebad9d2cabd52e0281a0fe7b723c8dbeee8847eb49e",
    "C2rad2xA2:all": "d6907c2920213297c379eb815092a6ce2c5a705325d9e9910ce3f3da3fd0b801",
    "C2rad2xA2:scrambled": "750e276b65ee4a73110bd4c9a609dc8542ee59e9f26541d38f32ef5f21609930",
    "C2rad2xA2:sum": "68d236cdd1c144587d14a2bf54afec02a4167f6392a77a16c5c42bd792d965f6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DECOMPOSE))
def test_decompose_object_golden(name):
    c, x = golden_sums()[name]
    assert decompose_digest(c, x) == GOLDEN_DECOMPOSE[name]


@pytest.mark.parametrize("field", [Field.prime(2), F101, QQ], ids=["F2", "F101", "Q"])
def test_hull_arithmetic_matches_the_nested_block_tuples(field):
    """add, sub, scale, zero_mor, identity and is_zero_mor through the flat
    layout equal their block-by-block oracles, entry types included, on
    additive objects with repeated summands, zero-dimensional blocks (the
    Kronecker quiver's Hom(2, 1), A3 mod rad^2 (x) A2) and no summands."""
    rng = random.Random(17)
    for cat in hull_categories(field):
        hull = Hull(cat)
        a, b = cat.objects[0], cat.objects[-1]
        objs = [AddObject(()), AddObject((a, a)), AddObject((b, a, b)), rand_obj(cat, rng, 1, 4)]
        for x in objs:
            assert typed(hull.identity(x)) == typed(reference_identity(cat, x))
            assert hull.identity(x) == reference_identity(cat, x)
            for y in objs:
                zero = hull.zero_mor(x, y)
                assert zero == reference_zero_mor(cat, x, y)
                assert typed(zero) == typed(reference_zero_mor(cat, x, y))
                assert hull.is_zero_mor(zero)
                for _ in range(3):
                    f, g = rand_mor(cat, x, y, rng), rand_mor(cat, x, y, rng)
                    c = field.random(rng)
                    for got, want in ((hull.add(f, g), reference_entrywise(field.add, f, g)),
                                      (hull.sub(f, g), reference_entrywise(field.sub, f, g)),
                                      (hull.scale(c, f), reference_scale(field, c, f)),
                                      (hull.scale(field.zero(), f),
                                       reference_scale(field, field.zero(), f))):
                        assert got == want and typed(got) == typed(want)
                    assert hull.is_zero_mor(f) == reference_is_zero_mor(field, f)
                    assert hull.is_zero_mor(hull.sub(f, f))


# ---------------------------------------------------------------------------
# precomposition through the memoised representables, against the walks of
# the comp tables that it replaced (_support.reference_compose and
# reference_pre_matrix), entries and their types


def rand_scalar(fld, rng):
    """A random field element, a third of them zero; over Q with
    denominators, so that both routes meet non-integral Fractions."""
    if rng.random() < 0.3:
        return fld.zero()
    if fld.p is None:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return fld.random(rng)


def rand_coords(cat, x, y, rng):
    return tuple(rand_scalar(cat.field, rng) for _ in range(cat.dim(x, y)))


def typed_coords(coords):
    return [(type(v), v) for v in coords]


def test_compose_matches_the_table_walk(monkeypatch):
    """FinCategory.compose, the action of f on Hom(-, z) applied to g,
    equals the walk of comp[(x, y, z)] on every object triple of every
    hash-line category over F_101 and Q, zero-dimensional homs included,
    for random, zero and basis coordinates."""
    fields, empty = set(), 0
    for _, cat in hash_line_categories(monkeypatch):
        rng = random.Random(f"compose-{cat!r}")
        fields.add(cat.field)
        for x, y, z in itertools.product(cat.objects, repeat=3):
            empty += not (cat.dim(x, y) and cat.dim(y, z) and cat.dim(x, z))
            pairs = [(rand_coords(cat, x, y, rng), rand_coords(cat, y, z, rng))
                     for _ in range(2)]
            pairs.append((cat.zero_coords(x, y), rand_coords(cat, y, z, rng)))
            pairs += [(cat.basis_coords(x, y, i), cat.basis_coords(y, z, j))
                      for i in range(cat.dim(x, y)) for j in range(cat.dim(y, z))]
            for f, g in pairs:
                got = cat.compose(x, y, z, f, g)
                want = reference_compose(cat, x, y, z, f, g)
                assert type(got) is tuple and typed_coords(got) == typed_coords(want)
    assert fields == {F101, QQ} and empty


def test_pre_matrix_matches_the_table_walk(monkeypatch):
    """Hull.pre_matrix, the Yoneda matrix of f on Hom(-, Z), equals the
    block walk of the comp tables on every hash-line category over F_101
    and Q: for block morphisms with zero blocks, Z with repeated summands,
    zero-dimensional homs between summands, the zero morphism and objects
    with no summands."""
    seen = Counter()
    for _, cat in hash_line_categories(monkeypatch):
        rng = random.Random(f"pre-{cat!r}")
        hull = Hull(cat)
        for t in range(12):
            x, y = rand_obj(cat, rng, 0 if t == 0 else 1), rand_obj(cat, rng, 1)
            zs = rand_obj(cat, rng, 1, 2).summands
            z = AddObject.of(zs + zs[:1] if t % 2 else zs)
            for f in (rand_mor(cat, x, y, rng), hull.zero_mor(x, y)):
                got, want = hull.pre_matrix(f, z), reference_pre_matrix(cat, f, z)
                assert typed_entries(got) == typed_entries(want)
                seen["zero block"] += any(c == cat.field.zero() for row in f.blocks
                                          for b in row for c in b)
                seen["repeat"] += len(set(z.summands)) < len(z.summands)
                seen["zero dim"] += any(not cat.dim(u, w) for u in x.summands + y.summands
                                        for w in z.summands)
                seen["empty"] += not x.summands
        empty = AddObject(())
        f = rand_mor(cat, x, y, rng)
        assert typed_entries(hull.pre_matrix(f, empty)) == typed_entries(
            reference_pre_matrix(cat, f, empty))
    assert min(seen.values()) > 0 and len(seen) == 4, seen


def test_a_pickled_category_drops_the_action_memo_and_rebuilds_it():
    """The representables' matrices are built once per object and kept on
    the category: validation, yoneda_projective, compose and pre_matrix
    read the same matrices.  Pickling drops the memo, and the copy rebuilds
    identical ones."""
    c = category_of(a3_rad2(), QQ)
    cat = FinCategory(c.field, c.objects, c.hom, c.comp, c.units, c.radical)
    assert set(cat._actions) == set(cat.objects)
    dims, action = _representable_action(cat, "2")
    assert _representable_action(cat, "2") is cat._actions["2"]
    p2 = yoneda_projective(cat, "2")
    assert all(p2.action[key] is mat for key, mat in action.items())
    rng = random.Random(31)
    hull = Hull(cat)
    x, y = AddObject(("1", "2")), AddObject(("2", "3", "2"))
    z = AddObject(("3", "2", "3"))
    f = rand_mor(cat, x, y, rng)
    g = rand_coords(cat, "1", "2", rng), rand_coords(cat, "2", "3", rng)
    back = pickle.loads(pickle.dumps(cat))
    assert back._actions == {} and back._representables == {}
    assert typed_entries(Hull(back).pre_matrix(f, z)) == typed_entries(hull.pre_matrix(f, z))
    assert (typed_coords(back.compose("1", "2", "3", *g))
            == typed_coords(cat.compose("1", "2", "3", *g)))
    assert set(back._actions) == {"2", "3"}
    for w in cat.objects:
        got_dims, got_action = _representable_action(back, w)
        want_dims, want_action = _representable_action(cat, w)
        assert got_dims == want_dims
        assert {k: typed_entries(m) for k, m in got_action.items()} == \
            {k: typed_entries(m) for k, m in want_action.items()}


# ---------------------------------------------------------------------------
# negative controls for refusals of the tables and the hull


def test_validation_rejects_a_missing_hom_table_and_a_unit_of_the_wrong_length():
    c = category_of(a2_quiver(), F101)
    hom = {key: labels for key, labels in c.hom.items() if key != ("2", "1")}
    with pytest.raises(PreconditionError, match=r"missing hom table for \('2', '1'\)"):
        FinCategory(c.field, c.objects, hom, c.comp, c.units, c.radical)
    units = {**c.units, "2": c.units["2"] + (F101.zero(),)}
    with pytest.raises(PreconditionError, match="unit of 2 has wrong length"):
        FinCategory(c.field, c.objects, c.hom, c.comp, units, c.radical)


def test_hull_refuses_a_non_idempotent_a_non_endomorphism_and_a_mismatched_composite():
    c = category_of(one_loop_rad2(), F101)
    hull = Hull(c)
    v, vv = AddObject(("v",)), AddObject(("v", "v"))
    with pytest.raises(PreconditionError, match="idempotent must be an endomorphism"):
        hull.check_idempotent(hull.zero_mor(v, vv))
    twice = hull.scale(F101.of(2), hull.identity(v))
    with pytest.raises(PreconditionError, match="morphism is not idempotent"):
        hull.check_idempotent(twice)
    with pytest.raises(PreconditionError, match="morphism is not idempotent"):
        decompose_object(c, KarObject(v, twice))
    hull.check_idempotent(hull.identity(vv))
    with pytest.raises(PreconditionError, match="composition type mismatch"):
        hull.then(hull.identity(v), hull.identity(vv))
