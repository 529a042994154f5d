import random

import pytest

from arcat.errors import PreconditionError
from arcat.fincat import (AddMor, AddObject, FinCategory, Hull, KarObject,
                          category_of, decompose_object, hom_basis,
                          opposite_category, point_category, split_idempotent,
                          tensor_product)
from arcat.linalg import Field

from _support import (F101, QQ, a2_quiver, a3_quiver, a3_rad2, cyclic_rad2,
                      one_loop_rad2, point_quiver)


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
