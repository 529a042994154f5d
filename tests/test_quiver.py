import random

import pytest

from _support import (F101, a2_quiver, a3_quiver, a3_rad2, a_m_rad_n, cyclic_rad2,
                      one_loop_rad2, point_quiver, reference_all_paths, reference_bounds)
from arcat.complexes import Cyclic, Interval, NComplexSpec, Window, build_category
from arcat.errors import CapExceededError, NotAdmissibleError, PreconditionError
from arcat.fincat import category_of
from arcat.modcat import representation_category
from arcat.quiver import (Arrow, BoundQuiver, MonomialIdeal, Path, Quiver,
                          cyclic_quiver, enumerate_paths, is_admissible,
                          linear_quiver, opposite)


def test_generator_too_short():
    with pytest.raises(PreconditionError):
        MonomialIdeal(frozenset([Path("1", "2", ("a1",))]))


def test_generator_must_compose():
    q = linear_quiver(3)
    bad = Path("1", "3", ("a2", "a1"))  # a2 then a1 does not compose
    with pytest.raises(PreconditionError):
        is_admissible(q, MonomialIdeal(frozenset([bad])))


def test_a2_bounds():
    bq = a2_quiver()
    assert bq.bounds == {"1": 2, "2": 2}


def test_loop_without_relations_is_not_admissible():
    q = Quiver(["v"], [Arrow("x", "v", "v")])
    assert is_admissible(q, MonomialIdeal()) is None
    with pytest.raises(NotAdmissibleError):
        BoundQuiver(q, MonomialIdeal())


def test_loop_with_square_zero():
    bq = one_loop_rad2()
    assert bq.bounds == {"v": 2}
    assert [p.arrows for p in bq.paths("v", "v")] == [(), ("x",)]


def test_cap_exceeded_is_distinct():
    q = linear_quiver(40)
    with pytest.raises(CapExceededError):
        is_admissible(q, MonomialIdeal(), cap=32)
    assert is_admissible(q, MonomialIdeal(), cap=64) is not None


def test_enumerate_paths_examples():
    bq = a2_quiver()
    assert [p.arrows for p in enumerate_paths(bq, "1", "2")] == [("a1",)]
    assert [p.arrows for p in enumerate_paths(bq, "2", "1")] == []

    assert [p.arrows for p in enumerate_paths(a3_quiver(), "1", "3")] == [("a1", "a2")]
    assert enumerate_paths(a3_rad2(), "1", "3") == []

    cz2 = cyclic_rad2(2)
    assert [p.arrows for p in enumerate_paths(cz2, "0", "0")] == [()]
    assert [p.arrows for p in enumerate_paths(cz2, "0", "1")] == [("a0",)]


def test_enumerate_paths_sorted_by_length_then_name():
    q = Quiver(["1", "2"], [Arrow("b", "1", "2"), Arrow("a", "1", "2")])
    bq = BoundQuiver(q)
    assert [p.arrows for p in enumerate_paths(bq, "1", "2")] == [("a",), ("b",)]


def test_path_counts_match_adjacency_powers():
    # independent oracle: in an acyclic quiver with no relations the number of
    # paths v -> w equals the sum over k of entries of the k-th adjacency power
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 6)
        vertices = [str(i) for i in range(n)]
        arrows = []
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                for _ in range(rng.randrange(0, 2)):
                    arrows.append(Arrow(f"a{idx}", str(i), str(j)))
                    idx += 1
        bq = BoundQuiver(Quiver(vertices, arrows))
        adj = [[0] * n for _ in range(n)]
        for a in arrows:
            adj[int(a.source)][int(a.target)] += 1
        total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        power = [row[:] for row in total]
        for _ in range(n):
            power = [[sum(power[i][k] * adj[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
            total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert len(bq.paths(str(i), str(j))) == total[i][j]


def test_path_table_matches_the_breadth_first_reference():
    """The path table of the admissibility walk against today's breadth-first
    search (reference_all_paths), entry by entry and in order, and the
    bounds against the longest paths of that table."""
    bqs = [BoundQuiver(linear_quiver(m)) for m in range(1, 7)]
    bqs += [a_m_rad_n(m, n) for m in range(3, 8) for n in range(2, m)]
    bqs += [cyclic_rad2(n) for n in range(1, 6)] + [one_loop_rad2()]
    # a square with a diagonal: the walk meets a path of length 2 from 1 to 4
    # before the diagonal, so only the sort puts the table in order
    square = Quiver(["1", "2", "3", "4"],
                    [Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"),
                     Arrow("d", "3", "4"), Arrow("e", "1", "4")])
    bqs += [BoundQuiver(square),
            BoundQuiver(square, MonomialIdeal(frozenset([Path("1", "4", ("c", "d"))])))]
    specs = [NComplexSpec(2, Interval(1)), NComplexSpec(2, Interval(5)),
             NComplexSpec(4, Interval(6)), NComplexSpec(3, Window(-1, 3)),
             NComplexSpec(3, Window(0, 5)), NComplexSpec(1, Cyclic(1)),
             NComplexSpec(2, Cyclic(2)), NComplexSpec(2, Cyclic(3))]
    bqs += [build_category(s) for spec in specs for s in dict.fromkeys((spec, spec.padded()))]
    for bq in bqs + [opposite(bq) for bq in bqs]:
        want = reference_all_paths(bq)
        assert list(bq.all_paths().items()) == list(want.items())
        assert bq.bounds == reference_bounds(want)
        assert is_admissible(bq.quiver, bq.ideal) == bq.bounds


def test_opposite_reverses_generators():
    bq = a3_rad2()
    op = opposite(bq)
    gen = next(iter(op.ideal.generators))
    assert (gen.source, gen.target, gen.arrows) == ("3", "1", ("a2", "a1"))
    assert [a for a in op.quiver.arrows if a.name == "a1"][0].source == "2"


def test_opposite_is_an_involution():
    for bq in (a2_quiver(), a3_rad2(), cyclic_rad2(3), one_loop_rad2()):
        back = opposite(opposite(bq))
        assert back == bq
        assert back.bounds == bq.bounds


def test_the_opposite_keeps_the_cap_that_admitted_the_quiver():
    """A40 has a surviving path of length 39, beyond the default cap of
    32: admitted at cap 64, its representation category, over the
    opposite, is built, with the hom dimensions of category_of transposed.
    Reversal keeps every bound, and the opposite of the opposite is the
    quiver, on every quiver of the test support as well."""
    with pytest.raises(CapExceededError, match="surviving path of length 32 reached"):
        BoundQuiver(linear_quiver(40))
    long = BoundQuiver(linear_quiver(40), cap=64)
    rep, cat = representation_category(long, F101), category_of(long, F101)
    assert rep.objects == cat.objects
    assert all(rep.dim(x, y) == cat.dim(y, x) for x in cat.objects for y in cat.objects)
    for bq in (long, a2_quiver(), a3_quiver(), a3_rad2(), a_m_rad_n(5, 3), cyclic_rad2(2),
               cyclic_rad2(4), one_loop_rad2(), point_quiver(), BoundQuiver(Quiver([], []))):
        assert opposite(bq).bounds == bq.bounds
        back = opposite(opposite(bq))
        assert back == bq and back.bounds == bq.bounds


def test_cyclic_quiver_single_vertex():
    q = cyclic_quiver(1)
    assert len(q.arrows) == 1 and q.arrows[0].source == q.arrows[0].target
