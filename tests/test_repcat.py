"""Representations, the tensor-module dictionary, and induced covers."""

import random
from collections import Counter
from itertools import product

import pytest

from _support import (F101, QQ, a2_quiver, a3_rad2, cyclic_rad2, module_print,
                      one_loop_rad2, path_route_sharp, point_pool, rand_module,
                      rand_qrep, reference_rep_map_failure, reference_sum_injections,
                      reference_unit_block, typed_entries)
from arcat import modcat, repcat
from arcat.complexes import Interval, NComplexSpec, build_category, from_rep
from arcat.errors import PreconditionError, VerificationError
from arcat.fincat import category_of, point_category
from arcat.linalg import Field, Mat
from arcat.modcat import (CModule, ModuleMap, ar_quiver, direct_sum, hom_space,
                          is_isomorphic, simple_module, yoneda_projective, zero_map,
                          zero_module)
from arcat.quiver import Arrow, BoundQuiver, Path, Quiver
from arcat.repcat import (QRep, QRepMap, adjunction_unit, check_adjunction,
                          f_star_v, lemma2_cover, phi, phi_map, psi, psi_map,
                          qrep_hom, rep_direct_sum, rep_injections, sharp, tensor_base,
                          zero_rep)


def one_dim(field):
    cat = point_category(field)
    return cat, CModule(cat, {"pt": 1}, {("pt", "pt", 0): Mat.identity(field, 1)})


def constant_a2_rep():
    bq = a2_quiver()
    cat, k1 = one_dim(F101)
    arrow = ModuleMap(k1, k1, {"pt": Mat.identity(F101, 1)})
    return bq, cat, QRep(bq, cat, {"1": k1, "2": k1}, {"a1": arrow})


def test_rep_validation_rejects_broken_relation():
    bq = a3_rad2()
    cat, k1 = one_dim(F101)
    ident = ModuleMap(k1, k1, {"pt": Mat.identity(F101, 1)})
    with pytest.raises(PreconditionError):
        QRep(bq, cat, {"1": k1, "2": k1, "3": k1}, {"a1": ident, "a2": ident})


def test_rep_map_validation_rejects_broken_square():
    bq, cat, r = constant_a2_rep()
    k1 = r.vertex_modules["1"]
    good = {"1": ModuleMap(k1, k1, {"pt": Mat.identity(F101, 1)}),
            "2": ModuleMap(k1, k1, {"pt": Mat.zeros(F101, 1, 1)})}
    with pytest.raises(PreconditionError):
        QRepMap(r, r, good)


def doubled_identity_rep(bq, vertices):
    """A representation with A2 coefficients over F_101 whose vertex modules
    are all P_2 and whose arrow maps are the identity of P_2 doubled at
    object 1, which is not natural; the map is built unvalidated."""
    coeff = category_of(a2_quiver(), F101)
    p2 = yoneda_projective(coeff, "2")
    bad = ModuleMap(p2, p2, {"1": Mat.identity(F101, 1).scale(F101.of(2)),
                             "2": Mat.identity(F101, 1)}, validate=False)
    return coeff, {v: p2 for v in vertices}, {a.name: bad for a in bq.quiver.arrows}


def test_rep_validation_checks_each_arrow_map_and_vertex_module():
    """QRep._validate runs each vertex module's and arrow map's own check,
    after the endpoints and before the relations, so a representation
    built from given data cannot carry a map that is not natural or a
    module that is not a functor, directly or through from_rep."""
    bq = a2_quiver()
    coeff, mods, maps = doubled_identity_rep(bq, bq.quiver.vertices)
    with pytest.raises(PreconditionError, match=r"naturality fails at \('1', '2', 0\)"):
        QRep(bq, coeff, mods, maps)
    spec = NComplexSpec(2, Interval(2))
    shape = build_category(spec)
    coeff, mods, maps = doubled_identity_rep(shape, shape.quiver.vertices)
    r = QRep(shape, coeff, mods, maps, validate=False)
    with pytest.raises(PreconditionError, match=r"naturality fails at \('1', '2', 0\)"):
        from_rep(spec, r)
    # a vertex module whose unit acts by 2 is refused by its own check
    p2 = mods[1]
    twisted = CModule(coeff, p2.dims, {**p2.action, ("1", "1", 0): p2.action[("1", "1", 0)]
                                       .scale(F101.of(2))}, validate=False)
    zero = zero_module(coeff)
    with pytest.raises(PreconditionError, match="unit does not act as identity at '1'"):
        QRep(bq, coeff, {"1": twisted, "2": zero}, {"a1": zero_map(twisted, zero)})
    # the endpoint check still comes first
    with pytest.raises(PreconditionError, match="arrow map endpoints wrong"):
        QRep(bq, coeff, {"1": twisted, "2": zero}, {"a1": zero_map(zero, zero)})


def test_qrep_hom_refuses_representations_over_different_data():
    bq, cat, r = constant_a2_rep()
    for other in (zero_rep(a3_rad2(), cat), zero_rep(bq, point_category(QQ))):
        for pair in ((r, other), (other, r)):
            with pytest.raises(PreconditionError, match="representations over different data"):
                qrep_hom(*pair)


def test_roundtrip_point_coefficients_exact():
    bq, cat, r = constant_a2_rep()
    t = tensor_base(bq, cat)
    m = phi(r, t)
    assert m.dims == {("1", "pt"): 1, ("2", "pt"): 1}
    assert psi(m) == r
    assert phi(psi(m), t) == m


def test_roundtrip_on_yoneda_modules():
    bq = a3_rad2()
    coeff = category_of(a2_quiver(), F101)
    t = tensor_base(bq, coeff)
    for x in t.objects:
        m = yoneda_projective(t, x)
        r = psi(m)
        assert phi(r, t) == m
        assert psi(phi(r, t)) == r


def test_roundtrip_random_reps():
    rng = random.Random(4102)
    cases = [(a2_quiver(), *point_pool(F101)),
             (a3_rad2(), *point_pool(F101)),
             (cyclic_rad2(2), *point_pool(F101))]
    for bq, coeff, pool in cases:
        t = tensor_base(bq, coeff)
        for _ in range(6):
            r = rand_qrep(bq, coeff, pool, rng)
            m = phi(r, t)
            assert psi(m) == r
            assert phi(psi(m), t) == m


def test_psi_rejects_non_tensor_module():
    coeff = category_of(a2_quiver(), F101)
    with pytest.raises(PreconditionError):
        psi(yoneda_projective(coeff, "1"))


def test_qrep_hom_matches_module_hom_dims():
    bq = a3_rad2()
    cat, k1 = one_dim(F101)
    t = tensor_base(bq, cat)
    reps = {x: psi(yoneda_projective(t, x)) for x in t.objects}
    for x in t.objects:
        for y in t.objects:
            got = len(qrep_hom(reps[x], reps[y]))
            assert got == t.dim(x, y)
            independent = len(hom_space(yoneda_projective(t, x),
                                        yoneda_projective(t, y)))
            assert got == independent
    # non-representables, with point and A2 coefficients
    rng = random.Random(17)
    a2 = category_of(a2_quiver(), F101)
    for coeff, pool in ((cat, [k1]), (a2, ar_quiver(a2).modules)):
        t = tensor_base(bq, coeff)
        reps = [rand_qrep(bq, coeff, pool, rng) for _ in range(3)]
        for r in reps:
            for s in reps:
                got = qrep_hom(r, s)
                assert len(got) == len(hom_space(phi(r, t), phi(s, t)))
                for f in got:
                    QRepMap(r, s, f.comps, validate=True)  # raises unless a morphism


@pytest.mark.parametrize("field", [F101, QQ])
def test_map_dictionary_round_trips_and_composes(field):
    rng = random.Random(29)
    bq = a3_rad2()
    a2 = category_of(a2_quiver(), field)
    for coeff, pool in (point_pool(field), (a2, ar_quiver(a2).modules)):
        t = tensor_base(bq, coeff)
        reps = [rand_qrep(bq, coeff, pool, rng) for _ in range(3)]
        mods = [phi(r, t) for r in reps]
        images = {}
        for i, r in enumerate(reps):
            for j, s in enumerate(reps):
                images[i, j] = [(f, phi_map(f, t)) for f in qrep_hom(r, s)]
                for f, g in images[i, j]:
                    assert g.src == mods[i] and g.tgt == mods[j]
                    assert psi_map(g, r, s) == f
                if images[i, j]:  # psi_map reading both ends off the modules
                    assert psi_map(images[i, j][0][1]) == images[i, j][0][0]
                for g in hom_space(mods[i], mods[j]):
                    assert phi_map(psi_map(g, r, s), t) == g
        for i, j, k in product(range(3), repeat=3):
            for (f, f_mod), (h, h_mod) in zip(images[i, j], images[j, k]):
                assert phi_map(f.then(h), t) == f_mod.then(h_mod)
                assert psi_map(f_mod.then(h_mod), reps[i], reps[k]) == f.then(h)


def test_induction_shapes_respect_relations():
    cat, k1 = one_dim(F101)
    ind = f_star_v(a3_rad2(), "1", k1)
    assert {v: m.total_dim() for v, m in ind.vertex_modules.items()} == \
        {"1": 1, "2": 1, "3": 0}
    assert ind.arrow_maps["a2"].is_zero()
    ind_free = f_star_v(a2_quiver(), "1", k1)
    assert ind_free.arrow_maps["a1"].comps["pt"] == Mat.identity(F101, 1)


def test_induction_of_representable_is_projective():
    bq = a3_rad2()
    coeff = category_of(a2_quiver(), F101)
    t = tensor_base(bq, coeff)
    for v in bq.quiver.vertices:
        for x in coeff.objects:
            ind = phi(f_star_v(bq, v, yoneda_projective(coeff, x)), t)
            pair = is_isomorphic(ind, yoneda_projective(t, (v, x)))
            assert pair is not None
            f, g = pair
            assert f.then(g) == ModuleMap(ind, ind,
                                          {o: Mat.identity(F101, ind.dims[o])
                                           for o in t.objects})


def induction_by_sums(bq, v, p):
    """f_star_v by the sum formula: one copy of p per path from v, and each
    arrow a sum of projection . identity . injection blocks, one per path
    extension that the ideal does not kill."""
    sums = {w: direct_sum([p] * len(bq.paths(v, w)), p.cat) for w in bq.quiver.vertices}
    arrow_maps = {}
    for a in bq.quiver.arrows:
        (src, _, projs), (tgt, injs, _) = sums[a.source], sums[a.target]
        targets = [q.arrows for q in bq.paths(v, a.target)]
        cur = zero_map(src, tgt)
        for i, q in enumerate(bq.paths(v, a.source)):
            ext = Path(v, a.target, q.arrows + (a.name,))
            if not bq.ideal.kills(ext):
                cur = cur.add(projs[i].then(injs[targets.index(ext.arrows)]))
        arrow_maps[a.name] = cur
    return QRep(bq, p.cat, {w: total for w, (total, _, _) in sums.items()},
                arrow_maps, validate=False)


def typed(mats):
    """Every entry of every matrix of a dict, with its type."""
    return {k: [(type(x), x) for x in a.data] for k, a in mats.items()}


def typed_rep(r):
    """Every entry of every action and arrow map, with its type."""
    return ({w: (m.dims, typed(m.action)) for w, m in r.vertex_modules.items()},
            {n: typed(f.comps) for n, f in r.arrow_maps.items()})


INDUCTION_QUIVERS = (a2_quiver, a3_rad2, lambda: cyclic_rad2(2), lambda: cyclic_rad2(3),
                     one_loop_rad2)


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_induction_matches_the_sum_formula(field):
    a2 = category_of(a2_quiver(), field)
    coefficients = point_pool(field)[1] + list(ar_quiver(a2).modules)
    for make in INDUCTION_QUIVERS:
        bq = make()
        for v in bq.quiver.vertices:
            for p in coefficients:
                ind = f_star_v(bq, v, p)
                ind._validate()
                oracle = induction_by_sums(bq, v, p)
                assert ind == oracle
                assert typed_rep(ind) == typed_rep(oracle)


def kronecker():
    return BoundQuiver(Quiver(["1", "2"], [Arrow("b", "1", "2"), Arrow("c", "1", "2")]))


def test_induction_with_a_misplaced_block_is_caught(monkeypatch):
    """Moving the block that sends copy e to copy q.a onto another copy breaks
    the relation on the loop mod x^2, and the adjunction on the Kronecker
    quiver, where no relation can catch it."""
    _, k1 = one_dim(F101)
    for bq, v, arrow, caught_by_validate in ((one_loop_rad2(), "v", "x", True),
                                             (kronecker(), "1", "b", False)):
        ind = f_star_v(bq, v, k1)
        f = ind.arrow_maps[arrow]
        block = f.comps["pt"]
        # k1 is one dimensional, so each copy is one row: rotate the rows
        moved = Mat(F101, block.rows, block.cols,
                    block.data[block.cols:] + block.data[:block.cols])
        assert moved != block
        broken = QRep(bq, ind.coeff, ind.vertex_modules,
                      {**ind.arrow_maps, arrow: ModuleMap(f.src, f.tgt, {"pt": moved})},
                      validate=False)
        if caught_by_validate:
            with pytest.raises(PreconditionError):
                broken._validate()
            continue
        broken._validate()
        check_adjunction(bq, v, k1, ind)
        monkeypatch.setattr(repcat, "f_star_v", lambda *args: broken)
        with pytest.raises((PreconditionError, VerificationError)):
            check_adjunction(bq, v, k1, ind)
        monkeypatch.undo()


def test_adjunction_on_random_reps():
    rng = random.Random(515)
    bq = a3_rad2()
    cat, pool = point_pool(F101)
    k1 = pool[0]
    for _ in range(5):
        r = rand_qrep(bq, cat, pool, rng)
        for v in bq.quiver.vertices:
            report = check_adjunction(bq, v, k1, r)
            assert report.dim == r.vertex_modules[v].total_dim()


def test_adjunction_on_the_loop():
    """The loop mod x^2 has a nontrivial path from its vertex to itself, so
    the unit has to pick the trivial copy."""
    bq = one_loop_rad2()
    for coeff in (point_category(F101), category_of(a2_quiver(), F101)):
        for r in map(psi, ar_quiver(tensor_base(bq, coeff)).modules):
            for p in ar_quiver(coeff).modules:
                report = check_adjunction(bq, "v", p, r)
                assert report.dim == len(hom_space(p, r.vertex_modules["v"]))


def test_adjunction_flags_invalid_representation():
    bq = a3_rad2()
    cat, k1 = one_dim(F101)
    ident = ModuleMap(k1, k1, {"pt": Mat.identity(F101, 1)})
    broken = QRep(bq, cat, {"1": k1, "2": k1, "3": k1},
                  {"a1": ident, "a2": ident}, validate=False)
    with pytest.raises(VerificationError):
        check_adjunction(bq, "1", k1, broken)


def test_lemma2_cover_on_random_reps(monkeypatch):
    """The cover is surjective, and the vertexwise covers build no kernel."""
    def refuse(*args):
        raise AssertionError("kernel_module called")

    monkeypatch.setattr(modcat, "kernel_module", refuse)
    rng = random.Random(616)
    for bq in (a2_quiver(), a3_rad2(), cyclic_rad2(2)):
        cat, pool = point_pool(F101)
        for _ in range(4):
            r = rand_qrep(bq, cat, pool, rng)
            res = lemma2_cover(r)
            assert res.cover.is_surjective()
            for v, piece in res.pieces:
                assert piece.total_dim() == r.vertex_modules[v].total_dim()


def cover_cases():
    """Random representations with point and A2 coefficients over F_101."""
    rng = random.Random(818)
    a2 = category_of(a2_quiver(), F101)
    pools = [point_pool(F101), (a2, list(ar_quiver(a2).modules))]
    for bq in (a2_quiver(), a3_rad2(), cyclic_rad2(2)):
        for cat, pool in pools:
            for _ in range(2):
                yield rand_qrep(bq, cat, pool, rng)


def test_lemma2_cover_validates_once(monkeypatch):
    """The sharp maps are certified by the copair's validation alone."""
    calls = []
    real = QRepMap._validate

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(QRepMap, "_validate", counting)
    for r in cover_cases():
        calls.clear()
        res = lemma2_cover(r)
        assert calls == [res.cover]


def perturbed(g: QRepMap, w, c) -> QRepMap:
    """g with entry (0, 0) of its block at vertex w and object c raised by 1."""
    f = g.comps[w]
    block = f.comps[c]
    fld = block.field
    moved = Mat(fld, block.rows, block.cols,
                (fld.add(block.data[0], fld.one()),) + block.data[1:])
    comp = ModuleMap(f.src, f.tgt, {**f.comps, c: moved}, validate=False)
    return QRepMap(g.src, g.tgt, {**g.comps, w: comp}, validate=False)


def test_lemma2_cover_refuses_a_perturbed_sharp_block(monkeypatch):
    """Negative control: with one entry of one sharp block changed, in a
    way that QRepMap._validate refuses, the cover is refused too."""
    real = repcat.sharp
    refused = 0
    for r in cover_cases():
        bq, coeff = r.bq, r.coeff
        sources = [v for v in bq.quiver.vertices if not r.vertex_modules[v].is_zero()]
        for target in range(len(sources)):
            for w in bq.quiver.vertices:
                for c in coeff.objects:
                    seen = []

                    def broken(*args, target=target, w=w, c=c):
                        g = real(*args)
                        if len(seen) == target and g.comps[w].comps[c].data:
                            g = perturbed(g, w, c)
                            try:
                                g._validate()
                            except PreconditionError:
                                seen.append(True)
                                return g
                        seen.append(False)
                        return g

                    monkeypatch.setattr(repcat, "sharp", broken)
                    try:
                        lemma2_cover(r)
                        caught = False
                    except PreconditionError:
                        caught = True
                    monkeypatch.undo()
                    assert caught == any(seen)
                    refused += caught
    assert refused >= 10


def test_lemma2_cover_zero_rep():
    bq, cat, _ = constant_a2_rep()
    res = lemma2_cover(zero_rep(bq, cat))
    assert res.pieces == []
    assert res.cover.is_surjective()


def test_rep_direct_sum_dims_and_hom_additivity():
    """phi carries the vertexwise sum to the direct sum of modules over the
    tensor category, entry for entry and type for type."""
    bq = a3_rad2()
    for fld in (F101, QQ):
        rng = random.Random(717)
        cat, pool = point_pool(fld)
        r = rand_qrep(bq, cat, pool, rng)
        s = rand_qrep(bq, cat, pool, rng)
        total = rep_direct_sum([r, s], bq, cat)
        assert total.total_dim() == r.total_dim() + s.total_dim()
        assert len(qrep_hom(total, r)) == len(qrep_hom(r, r)) + len(qrep_hom(s, r))
        base = tensor_base(bq, cat)
        assert (module_print(phi(total, base))
                == module_print(direct_sum([phi(r, base), phi(s, base)])[0]))


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_sharp_matches_the_path_route(field):
    """sharp, each leg extended from its prefix's, against the legs built
    from scratch as psi_map followed by r.path_map(q) (path_route_sharp),
    every entry typed: on the loop mod x^2 and A3 mod rad^2 with A2
    coefficients, for scrambled sums of indecomposable representations, at
    every vertex, every indecomposable coefficient module and every basis
    map p -> r(v) and one random combination of them."""
    rng = random.Random(3131)
    coeff = category_of(a2_quiver(), field)
    pool = ar_quiver(coeff).modules
    longer = 0
    for bq in (one_loop_rad2(), a3_rad2()):
        base = tensor_base(bq, coeff)
        indecomposables = ar_quiver(base).modules
        for _ in range(3):
            r = psi(rand_module(indecomposables, base, rng, 4))
            for v in bq.quiver.vertices:
                for p in pool:
                    ind = f_star_v(bq, v, p)
                    basis = hom_space(p, r.vertex_modules[v])
                    combo = zero_map(p, r.vertex_modules[v])
                    for b in basis:
                        combo = combo.add(b.scale(field.random(rng)))
                    for f in basis + [combo]:
                        got = sharp(bq, v, r, f, ind)
                        want = path_route_sharp(bq, v, r, f, ind)
                        assert {w: typed(g.comps) for w, g in got.comps.items()} == \
                            {w: typed(g.comps) for w, g in want.comps.items()}
                        longer += any(not f.then(r.path_map(q)).is_zero()
                                      for w in bq.quiver.vertices
                                      for q in bq.paths(v, w) if q.length)
    assert longer


@pytest.mark.parametrize("fld", [Field.prime(2), F101, QQ], ids=["F2", "F101", "Q"])
def test_dictionary_unit_and_sharp_built_by_proof_pass_validation(fld):
    """phi, psi (its vertex modules, arrow maps and representation),
    psi_map, phi_map, adjunction_unit and sharp build unvalidated, on the
    proofs in their docstrings: for random representations of A3 mod rad^2
    and the 2-cycle mod rad^2 with A2 coefficients, each passes an explicit
    _validate, the maps on hom bases and, for sharp, on every basis map
    p -> r(v) of every indecomposable coefficient module p."""
    rng = random.Random(4949)
    coeff = category_of(a2_quiver(), fld)
    pool = list(ar_quiver(coeff).modules)
    legs = 0
    for bq in (a3_rad2(), cyclic_rad2(2)):
        base = tensor_base(bq, coeff)
        reps = [rand_qrep(bq, coeff, pool, rng) for _ in range(3)]
        for r in reps:
            m = phi(r, base)
            m._validate()
            psi(m)._validate()
        for r, s in product(reps, repeat=2):
            for f in qrep_hom(r, s)[:3]:
                g = phi_map(f, base)
                g._validate()
                psi_map(g, r, s)._validate()
                psi_map(g)._validate()
        for v in bq.quiver.vertices:
            for p in pool:
                ind = f_star_v(bq, v, p)
                adjunction_unit(bq, v, p, ind)._validate()
                for r in reps:
                    for f in hom_space(p, r.vertex_modules[v]):
                        sharp(bq, v, r, f, ind)._validate()
                        legs += 1
    assert legs


def test_unit_and_sharp_recover_cover_map():
    bq = a3_rad2()
    cat, k1 = one_dim(F101)
    _, _, r = constant_a2_rep()
    bq2 = a2_quiver()
    psi_map = ModuleMap(k1, r.vertex_modules["1"], {"pt": Mat.identity(F101, 1)})
    rep_map = sharp(bq2, "1", r, psi_map)
    unit = adjunction_unit(bq2, "1", k1)
    assert unit.then(rep_map.comps["1"]) == psi_map


def test_rep_injections_and_unit_match_the_hand_built_blocks():
    """rep_injections against block columns built one entry at a time, and
    adjunction_unit against kron(e_1, 1), over F_2, F_101 and Q, with
    zero-dimensional summands, entry types included."""
    for fld in (Field.prime(2), F101, QQ):
        coeff = category_of(a2_quiver(), fld)
        mods = [yoneda_projective(coeff, "1"), zero_module(coeff), simple_module(coeff, "2")]
        for bq in (a3_rad2(), one_loop_rad2()):
            vertices = bq.quiver.vertices
            reps = [f_star_v(bq, v, m) for m in mods for v in vertices[:2]]
            total = rep_direct_sum(reps, bq, coeff)
            for k in (0, 2, len(reps)):
                built = rep_injections(total, reps[:k])
                for v in vertices:
                    for c in coeff.objects:
                        inj, _ = reference_sum_injections(
                            fld, total.vertex_modules[v].dims[c],
                            [r.vertex_modules[v].dims[c] for r in reps[:k]])
                        assert ([typed_entries(f.comps[v].comps[c]) for f in built]
                                == [typed_entries(m) for m in inj])
            for v in vertices:
                count = len(bq.paths(v, v))
                for m in mods:
                    unit = adjunction_unit(bq, v, m)
                    for c in coeff.objects:
                        assert (typed_entries(unit.comps[c])
                                == typed_entries(reference_unit_block(fld, count, m.dims[c])))


def broken_copies(f: QRepMap, fld) -> list:
    """f with one defect each, built unvalidated: every component doubled
    at one vertex, doubled at the coefficient object '1' alone, given an
    extra column at one object, or missing at one vertex."""
    out = []
    for v, comp in f.comps.items():
        out.append(QRepMap(f.src, f.tgt, {**f.comps, v: comp.scale(2)}, validate=False))
        if "1" in comp.comps:
            doubled = {x: b.scale(2) if x == "1" else b for x, b in comp.comps.items()}
            out.append(QRepMap(f.src, f.tgt, {**f.comps, v: ModuleMap(
                comp.src, comp.tgt, doubled, validate=False)}, validate=False))
        x, b = next(iter(comp.comps.items()))
        wide = ModuleMap(comp.src, comp.tgt,
                         {**comp.comps, x: Mat.zeros(fld, b.rows, b.cols + 1)}, validate=False)
        out.append(QRepMap(f.src, f.tgt, {**f.comps, v: wide}, validate=False))
        out.append(QRepMap(f.src, f.tgt, {w: c for w, c in f.comps.items() if w != v},
                           validate=False))
    return out


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_stacked_validation_matches_each_map_alone(fld):
    """morphism_failures, which stacks the squares of all the maps, names
    the same first failure for each map as the map checked alone
    (reference_rep_map_failure): on hom bases and sum injections into
    random representations of A2, A3 mod rad^2 and the 2-cycle mod rad^2
    with point and A2 coefficients, and on copies of them with one defect
    each, mixed in one call.  A map into another representation is refused
    by its target."""
    rng = random.Random(3030)
    a2 = category_of(a2_quiver(), fld)
    seen = Counter()
    for bq in (a2_quiver(), a3_rad2(), cyclic_rad2(2)):
        for coeff, pool in (point_pool(fld), (a2, list(ar_quiver(a2).modules))):
            parts = [rand_qrep(bq, coeff, pool, rng) for _ in range(2)]
            tgt = rep_direct_sum(parts, bq, coeff)
            maps = rep_injections(tgt, parts)
            for _ in range(2):
                maps += qrep_hom(rand_qrep(bq, coeff, pool, rng), tgt)
            maps += [bad for f in list(maps) if not f.is_zero()
                     for bad in broken_copies(f, fld)]
            rng.shuffle(maps)
            want = [reference_rep_map_failure(f) for f in maps]
            assert repcat.morphism_failures(tgt, maps) == want
            seen.update(w.split(" at ")[0] if w else "passes" for w in want)
            foreign = QRepMap(maps[0].src, zero_rep(bq, coeff), maps[0].comps, validate=False)
            assert repcat.morphism_failures(tgt, [foreign, maps[0]]) \
                == ["map into another representation", want[0]]
    assert set(seen) == {"passes", "naturality fails", "square", "bad component shape",
                         "missing component"}, seen


def test_adjunction_refuses_a_transpose_that_is_not_natural(monkeypatch):
    """Negative control for the stacked check of check_adjunction's
    transposes: a map p -> r(v) doubled at the A2 object '1' is not natural,
    and when hom_space hands it out in place of a basis map, its transpose
    is refused."""
    bq = a2_quiver()
    a2 = category_of(a2_quiver(), F101)
    p = max(ar_quiver(a2).modules, key=lambda m: m.total_dim())
    r = f_star_v(bq, "1", p)
    check_adjunction(bq, "1", p, r)
    basis = hom_space(p, r.vertex_modules["1"])
    bad = ModuleMap(basis[0].src, basis[0].tgt,
                    {x: b.scale(2) if x == "1" else b for x, b in basis[0].comps.items()},
                    validate=False)
    with pytest.raises(PreconditionError, match="naturality fails"):
        bad._validate()
    monkeypatch.setattr(repcat, "hom_space", lambda m, n: [bad] + basis[1:])
    with pytest.raises(PreconditionError, match="naturality fails"):
        check_adjunction(bq, "1", p, r)
