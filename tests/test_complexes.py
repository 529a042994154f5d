"""Complex shapes, coils, approximations, and the module dictionary."""

import importlib.util
import os
import random
import sys
from collections import Counter
from typing import List

import pytest

from _support import (F101, QQ, a2_quiver, coil_injections, coil_route_approximation,
                      complex_sum_maps, module_print, point_pool, rand_complex,
                      rand_homotopy, rand_module, reference_composite_or_none,
                      reference_generator_certificate, special_case_lift, typed_entries)
from arcat import cli, complexes, modcat
from arcat.complexes import (Cyclic, Interval, NComplex, NComplexSpec, Window,
                             assemble_null_homotopic, build_category, coil_epi,
                             factor_null_homotopy, find_null_homotopy, from_rep,
                             hard_truncate, interval_J, pad_complex,
                             right_approximation, stalk,
                             stalk_filtration_certificate, _direct_sum)
from arcat.errors import PreconditionError, VerificationError
from arcat.fincat import FinCategory, category_of
from arcat.linalg import Field, Mat, solve, hstack, vstack
from arcat.modcat import (CModule, ModuleMap, almost_split_sequence, ar_quiver,
                          flatten_map, hom_space, identity_map, verify_almost_split,
                          zero_map)
from arcat.repcat import (QRepMap, f_star_v, phi, psi, psi_map, qrep_hom,
                          rep_copair, rep_direct_sum, rep_injections, tensor_base,
                          zero_rep)

PT, POOL = point_pool(F101)
K1 = POOL[0]


def interval_module_count(m: int, n: int) -> int:
    """Supports of length at most n inside [1, m], one module each."""
    return sum(min(n, m - i + 1) for i in range(1, m + 1))


def test_spec_validation():
    with pytest.raises(PreconditionError):
        NComplexSpec(1, Interval(3))
    with pytest.raises(PreconditionError):
        NComplexSpec(2, Window(2, 1))
    with pytest.raises(PreconditionError):
        NComplexSpec(2, Cyclic(0))
    NComplexSpec(1, Cyclic(1))


def test_build_category_shapes():
    b = build_category(NComplexSpec(2, Interval(3)))
    assert b.quiver.vertices == (1, 2, 3)
    assert sorted(g.arrows for g in b.ideal.generators) == [("a1", "a2")]
    assert build_category(NComplexSpec(2, Interval(2))).ideal.generators == frozenset()
    c = build_category(NComplexSpec(2, Cyclic(2)))
    assert sorted(g.arrows for g in c.ideal.generators) == [("a0", "a1"), ("a1", "a0")]
    loop = build_category(NComplexSpec(1, Cyclic(1)))
    assert sorted(g.arrows for g in loop.ideal.generators) == [("a0", "a0")]
    w = build_category(NComplexSpec(3, Window(-1, 3)))
    assert w.quiver.vertices == (-1, 0, 1, 2, 3)
    assert sorted(g.arrows for g in w.ideal.generators) == \
        [("a-1", "a0", "a1"), ("a0", "a1", "a2")]


def test_complex_validation_rejects_bad_window():
    spec = NComplexSpec(2, Interval(3))
    ident = ModuleMap(K1, K1, {"pt": Mat.identity(F101, 1)})
    with pytest.raises(PreconditionError):
        NComplex(spec, PT, {1: K1, 2: K1, 3: K1}, {1: ident, 2: ident})


def test_interval_j_shapes():
    spec = NComplexSpec(3, Window(0, 3))
    j = interval_J(spec, 0, K1)
    assert j.degree_dims() == {0: 1, 1: 1, 2: 1, 3: 0}
    assert j.composite(0, 2).comps["pt"] == Mat.identity(F101, 1)
    doubled = interval_J(NComplexSpec(1, Cyclic(1)), 0, K1)
    assert doubled.degree_dims() == {0: 2}
    d = doubled.differentials[0].comps["pt"]
    assert [d.at(0, 0), d.at(0, 1), d.at(1, 0), d.at(1, 1)] == \
        [F101.zero(), F101.zero(), F101.one(), F101.zero()]
    two = interval_J(NComplexSpec(2, Cyclic(2)), 0, K1)
    assert two.degree_dims() == {0: 1, 1: 1}
    assert two.differentials[0].comps["pt"] == Mat.identity(F101, 1)
    assert two.differentials[1].is_zero()
    with pytest.raises(PreconditionError):
        interval_J(NComplexSpec(3, Window(0, 3)), 2, K1)


def test_interval_j_is_induction():
    cases = [(NComplexSpec(2, Interval(3)), 1),
             (NComplexSpec(2, Interval(3)), 2),
             (NComplexSpec(2, Cyclic(2)), 0),
             (NComplexSpec(1, Cyclic(1)), 0)]
    for spec, v in cases:
        bq = build_category(spec)
        assert interval_J(spec, v, K1) == f_star_v(bq, v, K1)


def test_module_roundtrip_all_shapes():
    rng = random.Random(808)
    for spec in (NComplexSpec(2, Interval(3)), NComplexSpec(3, Window(-1, 2)),
                 NComplexSpec(2, Cyclic(3))):
        base = tensor_base(build_category(spec), PT)
        for _ in range(4):
            x = rand_complex(spec, PT, POOL, rng)
            assert from_rep(spec, x) == x
            m = phi(x, base)
            assert from_rep(spec, psi(m)) == x


def test_coil_epi_shapes_and_split_on_coils():
    spec = NComplexSpec(2, Interval(3))
    st = stalk(spec, 2, K1)
    ce = coil_epi(st)
    assert ce.blocks == [1, 2, 3]
    assert ce.padded.degree_dims() == {1: 0, 2: 1, 3: 0, 4: 0}
    assert ce.source.degree_dims() == {1: 0, 2: 1, 3: 1, 4: 0}
    assert ce.p.is_surjective()
    z = interval_J(spec.padded(), 1, K1)
    cz = coil_epi(z)
    idx = cz.blocks.index(1)
    section = coil_injections(cz)[idx]
    back = section.then(cz.p)
    ident = QRepMap(cz.padded, cz.padded,
                    {i: identity_map(cz.padded.components[i])
                     for i in cz.padded.spec.degrees()})
    assert back == ident


def test_coil_epi_surjective_on_random_complexes():
    rng = random.Random(909)
    for spec in (NComplexSpec(2, Interval(3)), NComplexSpec(3, Window(0, 3)),
                 NComplexSpec(2, Cyclic(2)), NComplexSpec(2, Cyclic(3))):
        for _ in range(4):
            z = rand_complex(spec, PT, POOL, rng)
            assert coil_epi(z).p.is_surjective()
    spec = NComplexSpec(2, Interval(2))
    assert coil_epi(from_rep(spec, zero_rep(build_category(spec), PT))).p.is_zero()


def test_null_homotopy_factorization_random():
    rng = random.Random(1010)
    for spec in (NComplexSpec(2, Interval(3)), NComplexSpec(3, Window(0, 3)),
                 NComplexSpec(2, Cyclic(2))):
        for _ in range(4):
            z = rand_complex(spec, PT, POOL, rng)
            zp = rand_complex(spec, PT, POOL, rng)
            ce = coil_epi(z)
            src = pad_complex(zp, ce.padded.spec) if not spec.cyclic else zp
            s = rand_homotopy(src, ce.padded, rng)
            l = assemble_null_homotopic(src, ce.padded, s)
            lifted = factor_null_homotopy(l, ce)
            assert lifted.then(ce.p) == l


def test_null_homotopy_order_one_cycle():
    spec = NComplexSpec(1, Cyclic(1))
    k2 = CModule(PT, {"pt": 2}, {("pt", "pt", 0): Mat.identity(F101, 2)})
    d = ModuleMap(k2, k2, {"pt": Mat(F101, 2, 2,
                                     [F101.zero(), F101.one(),
                                      F101.zero(), F101.zero()])})
    z = NComplex(spec, PT, {0: k2}, {0: d})
    ce = coil_epi(z)
    assert ce.source.degree_dims() == {0: 4}
    l = QRepMap(z, z, {0: d})
    lifted = factor_null_homotopy(l, ce)
    assert lifted.then(ce.p) == l


def test_non_homotopic_map_is_reported():
    spec = NComplexSpec(2, Interval(3))
    st = stalk(spec, 2, K1)
    ident = QRepMap(st, st, {i: identity_map(st.components[i])
                             for i in spec.degrees()})
    assert find_null_homotopy(ident) is None
    with pytest.raises(PreconditionError):
        factor_null_homotopy(ident, coil_epi(st))


def test_hard_truncate():
    spec = NComplexSpec(2, Window(0, 2))
    j0 = interval_J(spec, 0, K1)
    assert hard_truncate(j0, 1) == stalk(spec, 1, K1)
    assert hard_truncate(hard_truncate(j0, 1), 1) == hard_truncate(j0, 1)
    assert hard_truncate(j0, 0) == j0
    assert hard_truncate(j0, 3).is_zero()
    with pytest.raises(PreconditionError):
        hard_truncate(stalk(NComplexSpec(2, Cyclic(2)), 0, K1), 1)


def test_right_approximation_certificates():
    rng = random.Random(1111)
    spec = NComplexSpec(2, Interval(3))
    padded = spec.padded()
    gens = [interval_J(padded, j, K1) for j in (1, 2, 3)]
    for _ in range(3):
        z = rand_complex(spec, PT, POOL, rng)
        ap = right_approximation(z, gens)
        assert all(ap.certified)
        assert ap.chain_map.is_surjective()
    empty = right_approximation(rand_complex(spec, PT, POOL, rng), [])
    assert empty.chain_map.is_surjective()
    assert empty.certified == []


def test_right_approximation_splits_on_generator():
    spec = NComplexSpec(2, Cyclic(2))
    z = interval_J(spec, 0, K1)
    ap = right_approximation(z, [z])
    flat_basis = [f.then(ap.chain_map) for f in qrep_hom(ap.padded, ap.source)]
    ident = QRepMap(ap.padded, ap.padded,
                    {i: identity_map(ap.padded.components[i])
                     for i in spec.degrees()})
    mat = hstack([chain_flat(f) for f in flat_basis])
    assert solve(mat, chain_flat(ident)) is not None


def test_stalk_filtration():
    spec = NComplexSpec(2, Cyclic(2))
    filt = stalk_filtration_certificate(interval_J(spec, 0, K1))
    assert [(j, m.total_dim()) for j, m in filt.steps] == [(1, 1), (0, 1)]
    single = stalk_filtration_certificate(stalk(spec, 1, K1))
    assert [(j, m.total_dim()) for j, m in single.steps] == [(1, 1)]
    rng = random.Random(1212)
    for _ in range(5):
        x = rand_complex(spec, PT, POOL, rng)
        f = stalk_filtration_certificate(x)
        assert f is not None
        assert sum(m.total_dim() for _, m in f.steps) == x.total_dim()
    with pytest.raises(PreconditionError):
        stalk_filtration_certificate(stalk(NComplexSpec(2, Interval(2)), 1, K1))


def test_indecomposable_counts_match_interval_oracle():
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 2)):
        spec = NComplexSpec(n, Interval(m))
        base = tensor_base(build_category(spec), PT)
        knitted = ar_quiver(base)
        assert len(knitted.modules) == interval_module_count(m, n)


def test_transported_almost_split_sequence():
    spec = NComplexSpec(2, Cyclic(2))
    base = tensor_base(build_category(spec), PT)
    knitted = ar_quiver(base)
    assert len(knitted.modules) == 4
    non_proj = [z for z, pr in zip(knitted.modules, knitted.projective)
                if not pr]
    assert len(non_proj) == 2
    for z in non_proj:
        ass = almost_split_sequence(z)
        verify_almost_split(ass.sequence, knitted.modules)
        left = from_rep(spec, psi(ass.sequence.left))
        mid = from_rep(spec, psi(ass.sequence.middle))
        right = from_rep(spec, psi(ass.sequence.right))
        inc = psi_map(ass.sequence.include, left, mid)
        pro = psi_map(ass.sequence.project, mid, right)
        assert inc.then(pro).is_zero()


def test_direct_sum_and_pad():
    spec = NComplexSpec(2, Interval(2))
    st1 = stalk(spec, 1, K1)
    st2 = stalk(spec, 2, K1)
    total = from_rep(spec, rep_direct_sum([st1, st2], build_category(spec), PT))
    injs, projs = complex_sum_maps([st1, st2], total)
    assert total.degree_dims() == {1: 1, 2: 1}
    assert injs[0].then(projs[0]).comps[1] == identity_map(K1)
    assert rep_injections(total, [st1, st2])[0].then(projs[0]).comps[1] == identity_map(K1)
    wide = pad_complex(st1, NComplexSpec(2, Window(0, 3)))
    assert wide.degree_dims() == {0: 0, 1: 1, 2: 0, 3: 0}
    with pytest.raises(PreconditionError):
        pad_complex(st1, NComplexSpec(3, Window(0, 3)))


# ---------------------------------------------------------------------------
# block assembly and the generator certificate against the constructions
# they replace

BENCH_SPECS = (NComplexSpec(2, Interval(5)), NComplexSpec(3, Window(0, 5)),
               NComplexSpec(2, Cyclic(2)))


def typed(f: ModuleMap):
    """Every entry of every component, with its type."""
    return {c: [(type(v), v) for v in m.data] for c, m in f.comps.items()}


def typed_chain(f: QRepMap):
    return {i: typed(g) for i, g in f.comps.items()}


def chain_flat(f: QRepMap) -> Mat:
    """The components of a chain map stacked in degree order."""
    return vstack([flatten_map(f.comps[i]) for i in f.src.spec.degrees()])


def coefficient_pools(fld):
    a2 = category_of(a2_quiver(), fld)
    return [point_pool(fld), (a2, list(ar_quiver(a2).modules))]


def test_complex_direct_sum_matches_sum_of_products():
    rng = random.Random(1313)
    for fld in (F101, QQ):
        for coeff, pool in coefficient_pools(fld):
            loop = NComplexSpec(1, Cyclic(1))
            for spec in BENCH_SPECS + (loop,):
                xs = ([interval_J(spec, 0, pool[k % len(pool)]) for k in range(3)]
                      if spec == loop else
                      [rand_complex(spec, coeff, pool, rng) for _ in range(3)])
                total = _direct_sum(xs, spec, coeff)
                injs, projs = complex_sum_maps(xs, total)
                for i in spec.diff_degrees():
                    j = spec.wrap(i + 1)
                    old = zero_map(total.components[i], total.components[j])
                    for k, x in enumerate(xs):
                        old = old.add(projs[k].comps[i].then(x.differentials[i])
                                      .then(injs[k].comps[j]))
                    assert typed(total.differentials[i]) == typed(old)
                total._validate()
                for k in range(1, len(xs) + 1):
                    built = rep_injections(total, xs[:k])
                    assert [typed_chain(f) for f in built] == \
                        [typed_chain(f) for f in injs[:k]]
                    for f in built:
                        f._validate()


def test_copair_matches_sum_of_products():
    rng = random.Random(1414)
    for fld in (F101, QQ):
        for coeff, pool in coefficient_pools(fld):
            for spec in BENCH_SPECS:
                xs = [rand_complex(spec, coeff, pool, rng) for _ in range(3)]
                tgt = rand_complex(spec, coeff, pool, rng)
                maps = []
                for x in xs:
                    basis = qrep_hom(x, tgt)
                    maps.append(basis[0].add(basis[-1]) if basis else
                                QRepMap(x, tgt, {i: zero_map(x.components[i],
                                                             tgt.components[i])
                                                 for i in spec.degrees()}))
                total = _direct_sum(xs, spec, coeff)
                _, projs = complex_sum_maps(xs, total)
                new = rep_copair(total, tgt, maps)
                for i in spec.degrees():
                    old = zero_map(total.components[i], tgt.components[i])
                    for k, f in enumerate(maps):
                        old = old.add(projs[k].comps[i].then(f.comps[i]))
                    assert typed(new.comps[i]) == typed(old)


def reference_certificate(g: NComplex, y: NComplex, g_map: QRepMap,
                          target_dim: int) -> bool:
    """The certificate by a whole basis of Hom(G, Y): its composites with
    g_map must have rank dim Hom(G, Z)."""
    if target_dim == 0:
        return True
    cols = [chain_flat(f.then(g_map)) for f in qrep_hom(g, y)]
    return bool(cols) and hstack(cols).rank() == target_dim


def zero_block(injections, k, g_map, pieces):
    """g_map with the block of evaluation copy k replaced by the zero map;
    pieces are the summands of Y, g_map's source."""
    legs = [f.then(g_map) for f in rep_injections(g_map.src, pieces)]
    src = injections[k].src
    legs[k] = QRepMap(src, g_map.tgt,
                      {i: zero_map(src.components[i], g_map.tgt.components[i])
                       for i in src.spec.degrees()})
    return injections, rep_copair(g_map.src, g_map.tgt, legs)


def scaled_degree(injections, k, g_map, pieces):
    """Copy k's injection doubled in its lowest nonzero degree: no longer a
    chain map, though its composite with g_map keeps its rank."""
    f = injections[k]
    low = next(i for i in f.src.spec.degrees() if not f.src.components[i].is_zero())
    comps = {i: c.scale(2) if i == low else c for i, c in f.comps.items()}
    bad = QRepMap(f.src, f.tgt, comps, validate=False)
    return injections[:k] + [bad] + injections[k + 1:], g_map


def scaled_object(injections, k, g_map, pieces):
    """Copy k's injection doubled at the coefficient object '1' in every
    degree: its chain squares still commute and its composite with g_map
    keeps its rank, but where a square of the coefficients joins '1' to a
    nonzero object it is no longer a map of coefficient modules."""
    f = injections[k]
    comps = {i: ModuleMap(c.src, c.tgt, {x: b.scale(2) if x == "1" else b
                                         for x, b in c.comps.items()}, validate=False)
             for i, c in f.comps.items()}
    bad = QRepMap(f.src, f.tgt, comps, validate=False)
    return injections[:k] + [bad] + injections[k + 1:], g_map


def foreign_target(injections, k, g_map, pieces):
    """Copy k's injection retargeted at another sum of the same pieces, whose
    last piece with a nonzero differential, a cover coil, has its
    differentials doubled: still a chain map into that sum, with the same
    components, but not a map into Y."""
    pieces = list(pieces)
    last = max(j for j, x in enumerate(pieces)
               if not all(d.is_zero() for d in x.differentials.values()))
    assert last >= len(injections) > k
    x = pieces[last]
    pieces[last] = NComplex(x.spec, x.coeff, x.components,
                            {i: d.scale(2) for i, d in x.differentials.items()})
    other = _direct_sum(pieces, x.spec, x.coeff)
    assert other != g_map.src
    f = injections[k]
    moved = QRepMap(f.src, other, rep_injections(other, pieces[:k + 1])[k].comps)
    assert moved.comps == f.comps
    return injections[:k] + [moved] + injections[k + 1:], g_map


CORRUPTIONS = (zero_block, scaled_degree, foreign_target, scaled_object)


def corrupted_copies(total: int) -> List[int]:
    """The first, a middle and the last of total evaluation copies."""
    return sorted({0, total // 2, total - 1}) if total else []


def spy_certificates(monkeypatch, corrupt=None, at=0):
    """Records every call of the generator certificate as (gens,
    multiplicities, injections, g_map, pieces, certified), pieces being the
    summands of Y (recorded from _direct_sum); corrupt, if given, first
    rewrites the injections and g_map it is handed at evaluation copy
    corrupted_copies(...)[at]: the first, a middle or the last."""
    calls = []
    original = complexes._certify_generators
    summing = complexes._direct_sum
    sums = []

    def recording(xs, spec, coeff):
        total = summing(xs, spec, coeff)
        sums.append((total, list(xs)))
        return total

    monkeypatch.setattr(complexes, "_direct_sum", recording)

    def spy(gens, multiplicities, injections, g_map):
        pieces = next(xs for total, xs in sums if total is g_map.src)
        if corrupt is not None:
            k = corrupted_copies(sum(multiplicities))[at]
            injections, g_map = corrupt(list(injections), k, g_map, pieces)
        out = original(gens, multiplicities, injections, g_map)
        calls.append((gens, multiplicities, injections, g_map, pieces, out))
        return out

    monkeypatch.setattr(complexes, "_certify_generators", spy)
    return calls


def test_generator_certificate_agrees_with_reference(monkeypatch):
    calls = spy_certificates(monkeypatch)
    rng = random.Random(1515)
    for fld in (F101, QQ):
        pt, pool = point_pool(fld)
        for spec in BENCH_SPECS:
            padded = spec.padded()
            gens = [interval_J(padded, j, pool[0]) for j in spec.degrees()]
            for _ in range(2):
                z = rand_complex(spec, pt, pool, rng)
                ap = right_approximation(z, gens)
                assert ap.certified == [True] * len(gens)
                gens_p, mults, _, g_map, _, out = calls[-1]
                assert out == ap.certified and g_map is ap.chain_map
                assert [reference_certificate(g, ap.source, ap.chain_map, m)
                        for g, m in zip(gens_p, mults)] == [True] * len(gens)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_generator_certificate_negative_control(monkeypatch, corrupt):
    """Each corruption of the first, a middle or the last evaluation copy
    fails the certificate of exactly the generator that copy belongs to.
    scaled_object runs over A2 coefficients with the coils of the module of
    dimension (1, 1), where scaling at one object breaks naturality; the
    others run over the point."""
    rng = random.Random(1616)
    for at in range(3):
        with monkeypatch.context() as patch:
            calls = spy_certificates(patch, corrupt, at)
            for fld in (F101, QQ):
                pt, pool = coefficient_pools(fld)[1 if corrupt is scaled_object else 0]
                module = max(pool, key=lambda p: p.total_dim())
                for spec in BENCH_SPECS:
                    padded = spec.padded()
                    gens = [interval_J(padded, j, module) for j in spec.degrees()]
                    z = rand_complex(spec, pt, pool, rng)
                    while sum(len(hom_space(module, z.components[j]))
                              for j in spec.degrees()) < 3:
                        z = rand_complex(spec, pt, pool, rng)
                    with pytest.raises(VerificationError):
                        right_approximation(z, gens)
                    gens_p, mults, injections, bad_map, _, out = calls[-1]
                    k = corrupted_copies(sum(mults))[at]
                    owner = [s for s, m in enumerate(mults) for _ in range(m)][k]
                    assert out == [s != owner for s in range(len(gens))]
                    if corrupt is scaled_object:
                        with pytest.raises(PreconditionError, match="naturality fails"):
                            injections[k]._validate()
                    for g, m, ok in zip(gens_p, mults, out):
                        if ok:
                            assert reference_certificate(g, bad_map.src, bad_map, m)


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_stacked_certificate_matches_the_per_copy_loop(monkeypatch, fld):
    """The stacked certificate against the per-copy loop it replaced
    (reference_generator_certificate): the same certified list on every
    approximation case, and under each corruption of the first, a middle
    and the last evaluation copy.  The cases' A2 generators are coils of
    one simple module, which scaled_object leaves natural, so the
    benchmark shapes also run with the coils of the A2 module of dimension
    (1, 1) as generators; every corruption then fails some generator."""
    stacked_certificate = complexes._certify_generators
    calls = spy_certificates(monkeypatch)
    rng = random.Random(2828)
    cases = list(approximation_cases(fld, rng))
    a2, pool = coefficient_pools(fld)[1]
    module = max(pool, key=lambda p: p.total_dim())
    for spec in BENCH_SPECS:
        gens = [interval_J(spec.padded(), j, module) for j in spec.degrees()]
        cases.append((rand_complex(spec, a2, pool, rng), gens))
    for z, gens in cases:
        right_approximation(z, gens)
    refused = Counter()
    for gens, mults, injections, g_map, pieces, out in calls:
        assert out == reference_generator_certificate(gens, mults, injections, g_map)
        for corrupt in CORRUPTIONS:
            for k in corrupted_copies(sum(mults)):
                bad_injections, bad_map = corrupt(list(injections), k, g_map, pieces)
                got = stacked_certificate(gens, mults, bad_injections, bad_map)
                assert got == reference_generator_certificate(gens, mults, bad_injections,
                                                              bad_map)
                refused[corrupt.__name__] += got.count(False)
    assert all(refused[c.__name__] for c in CORRUPTIONS), refused


def test_right_approximation_builds_only_what_it_needs(monkeypatch):
    targets = []
    original = complexes.qrep_hom

    def spy(x, z):
        targets.append(z)
        return original(x, z)

    monkeypatch.setattr(complexes, "qrep_hom", spy)
    spec = NComplexSpec(3, Window(0, 5))
    gens = [interval_J(spec.padded(), j, K1) for j in spec.degrees()]
    z = rand_complex(spec, PT, POOL, random.Random(1717))
    ap = right_approximation(z, gens)
    assert len(targets) == len(gens)
    assert all(t is ap.padded for t in targets)


def test_build_category_once_per_spec(monkeypatch):
    built = []
    original = complexes.BoundQuiver

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(complexes, "_CATEGORIES", {})
    monkeypatch.setattr(complexes, "BoundQuiver", counting)
    spec = NComplexSpec(2, Interval(5))
    first = build_category(spec)
    assert build_category(NComplexSpec(2, Interval(5))) is first
    gens = [interval_J(spec.padded(), j, K1) for j in spec.degrees()]
    right_approximation(rand_complex(spec, PT, POOL, random.Random(1818)), gens)
    assert len(built) == 2
    assert set(complexes._CATEGORIES) == {spec, spec.padded()}


def test_window_check_names_first_nonzero_window():
    spec = NComplexSpec(2, Interval(4))
    ident = identity_map(K1)
    zero = zero_map(K1, K1)
    comps = {i: K1 for i in spec.degrees()}
    for diffs, first in (({1: ident, 2: ident, 3: ident}, 1),
                         ({1: zero, 2: ident, 3: ident}, 2),
                         ({1: ident, 2: zero, 3: ident}, None)):
        if first is None:
            NComplex(spec, PT, comps, diffs)
            continue
        with pytest.raises(PreconditionError, match=f"from degree {first} is nonzero"):
            NComplex(spec, PT, comps, diffs)
    loop = NComplexSpec(1, Cyclic(1))
    with pytest.raises(PreconditionError, match="from degree 0 is nonzero"):
        NComplex(loop, PT, {0: K1}, {0: ident})
    NComplex(loop, PT, {0: K1}, {0: zero})


def typed_complex(x: NComplex):
    return ({i: module_print(m) for i, m in x.components.items()},
            {i: typed(d) for i, d in x.differentials.items()})


def approximation_cases(fld, rng):
    """(z, generators) over the benchmark shapes with random z and interval
    generators, and over the one-vertex cycle with a stalk and a coil as z,
    for point and A2 coefficients."""
    loop = NComplexSpec(1, Cyclic(1))
    for coeff, pool in coefficient_pools(fld):
        for spec in BENCH_SPECS:
            gens = [interval_J(spec.padded(), j, pool[0]) for j in spec.degrees()]
            for _ in range(2):
                yield rand_complex(spec, coeff, pool, rng), gens
        for z in (stalk(loop, 0, pool[-1]), interval_J(loop, 0, pool[-1])):
            yield z, [interval_J(loop, 0, pool[0])]


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_right_approximation_matches_the_coil_route(fld):
    """The approximation from the cover-coil legs against the one through
    the coil epimorphism, p' and r = p' p: the same source, map,
    multiplicities and certificates, every entry typed."""
    for z, gens in approximation_cases(fld, random.Random(2323)):
        ap = right_approximation(z, gens)
        want = coil_route_approximation(z, gens)
        assert typed_complex(ap.source) == typed_complex(want.source)
        assert typed_chain(ap.chain_map) == typed_chain(want.chain_map)
        assert typed_complex(ap.padded) == typed_complex(want.padded)
        assert ap.multiplicities == want.multiplicities
        assert ap.certified == want.certified == [True] * len(gens)


def draw_complex(spec, coeff, pool, rng):
    """rand_complex; on the one-vertex cycle, whose relation repeats its
    arrow so that rand_complex cannot draw there, a scrambled sum of the
    indecomposable modules of the tensor category read back as a complex."""
    if spec != NComplexSpec(1, Cyclic(1)):
        return rand_complex(spec, coeff, pool, rng)
    base = tensor_base(build_category(spec), coeff)
    return from_rep(spec, psi(rand_module(ar_quiver(base).modules, base, rng, 6)))


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "Q"])
def test_factor_lift_matches_the_special_case_route(fld):
    """The lift through the copies of the shape quiver's paths against the
    one built shape by shape (special_case_lift), every entry typed, on the
    cycles of order 1, 2 and 3 and the benchmark shapes, with point and A2
    coefficients.  Lifts are not unique, so only this pins the formula.  Each
    case draws at least four maps, and more, up to 24, until two lifts are
    nonzero."""
    rng = random.Random(2727)
    for coeff, pool in coefficient_pools(fld):
        for spec in BENCH_SPECS + (NComplexSpec(1, Cyclic(1)), NComplexSpec(2, Cyclic(3))):
            nonzero = draws = 0
            while draws < 4 or (nonzero < 2 and draws < 24):
                draws += 1
                ce = coil_epi(draw_complex(spec, coeff, pool, rng))
                src = draw_complex(spec, coeff, pool, rng)
                if not spec.cyclic:
                    src = pad_complex(src, ce.padded.spec)
                l = assemble_null_homotopic(src, ce.padded,
                                            rand_homotopy(src, ce.padded, rng))
                lifted = factor_null_homotopy(l, ce)
                assert typed_chain(lifted) == typed_chain(special_case_lift(l, ce))
                nonzero += not lifted.is_zero()
            assert nonzero, (coeff.objects, spec)


@pytest.mark.parametrize("fld", [Field.prime(2), F101, QQ], ids=["F2", "F101", "Q"])
def test_homotopies_and_truncations_built_by_proof_pass_validation(fld):
    """find_null_homotopy's components and hard_truncate build unvalidated,
    on the proofs in their docstrings: over point and A2 coefficients and
    the benchmark shapes, every component of the homotopy found for a
    random null-homotopic map, and every hard truncation of a random
    complex of the window shape, pass an explicit _validate (for a
    truncation, QRep's, which validates its vertex modules and arrow maps
    too)."""
    rng = random.Random(4848)
    found = truncated = 0
    for coeff, pool in coefficient_pools(fld):
        for spec in BENCH_SPECS:
            for _ in range(3):
                src = rand_complex(spec, coeff, pool, rng)
                tgt = rand_complex(spec, coeff, pool, rng)
                s = find_null_homotopy(assemble_null_homotopic(
                    src, tgt, rand_homotopy(src, tgt, rng)))
                for comp in s.values():
                    comp._validate()
                found += any(not comp.is_zero() for comp in s.values())
                if isinstance(spec.shape, Window):
                    for floor in spec.degrees():
                        t = hard_truncate(src, floor)
                        t._validate()
                        truncated += not t.is_zero()
    assert found and truncated


def null_homotopy_refusals():
    """How many of 10 null-homotopic maps per shape factor_null_homotopy
    refuses, over A2 coefficients and F_101: the benchmark shapes and the
    3-cycle, sources and targets from rand_complex, maps assembled from
    rand_homotopy, all drawn from random.Random(5)."""
    a2 = category_of(a2_quiver(), F101)
    pool = list(ar_quiver(a2).modules)
    rng = random.Random(5)
    refused = []
    for spec in BENCH_SPECS + (NComplexSpec(2, Cyclic(3)),):
        count = 0
        for _ in range(10):
            ce = coil_epi(rand_complex(spec, a2, pool, rng))
            src = rand_complex(spec, a2, pool, rng)
            if not spec.cyclic:
                src = pad_complex(src, ce.padded.spec)
            l = assemble_null_homotopic(src, ce.padded, rand_homotopy(src, ce.padded, rng))
            try:
                assert factor_null_homotopy(l, ce).then(ce.p) == l
            except PreconditionError:
                count += 1
        refused.append(count)
    return refused


def test_null_homotopy_is_natural_over_a2_coefficients():
    """find_null_homotopy solves with the naturality equations of each s_i,
    so every null-homotopic map over A2 coefficients factors."""
    assert null_homotopy_refusals() == [0, 0, 0, 0]


def test_null_homotopy_without_naturality_refuses(monkeypatch):
    """Negative control: without the naturality equations the solve can
    return a homotopy that is not a map of coefficient modules, and 5 of
    the 40 maps are refused."""
    monkeypatch.setattr(complexes, "naturality_equations", lambda *args: [])
    assert null_homotopy_refusals() == [1, 2, 1, 1]


def test_every_leg_and_copair_is_a_chain_map(monkeypatch):
    """sharp (the legs), rep_copair and rep_injections build their chain
    maps unvalidated; every one built by coil_epi and right_approximation on
    the benchmark shapes and the one-vertex cycle passes the full check."""
    built = {"sharp": [], "rep_copair": [], "rep_injections": []}
    for name, out in built.items():
        def recording(*args, original=getattr(complexes, name), out=out):
            made = original(*args)
            out.extend(made if isinstance(made, list) else [made])
            return made

        monkeypatch.setattr(complexes, name, recording)
    rng = random.Random(2424)
    cases = 0
    for fld in (F101, QQ):
        for z, gens in approximation_cases(fld, rng):
            coil_epi(z)
            right_approximation(z, gens)
            cases += 1
    # per case the copairs p (coil_epi) and the approximation map, whose
    # blocks are the evaluation maps and the cover-coil legs
    assert len(built["rep_copair"]) == 2 * cases
    for f in built["sharp"] + built["rep_copair"] + built["rep_injections"]:
        f._validate()
    assert {f.src.spec for f in built["sharp"]} == \
        {s.padded() for s in BENCH_SPECS} | {NComplexSpec(1, Cyclic(1))}


def test_right_approximation_builds_no_coil_epi_and_no_projection(monkeypatch):
    """The approximation reads the coil part off the cover-coil legs: no
    coil epimorphism, no direct sum with its projections, and no kernel of
    a projective cover."""
    cases = [case for fld in (F101, QQ)
             for case in approximation_cases(fld, random.Random(2525))]
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return spy

    monkeypatch.setattr(complexes, "coil_epi", refuse("coil_epi"))
    monkeypatch.setattr(modcat, "direct_sum", refuse("direct_sum"))
    monkeypatch.setattr(complexes, "direct_sum", refuse("direct_sum"), raising=False)
    monkeypatch.setattr(modcat, "kernel_module", refuse("kernel_module"))
    for z, gens in cases:
        assert all(right_approximation(z, gens).certified)
    assert calls == []


def test_validation_sits_at_the_boundary(monkeypatch):
    """Chain maps are validated where they are handed out: coil_epi's map
    p and the approximation map by QRepMap._validate, and the
    evaluation-copy injections of the generator certificate by one stacked
    check, each copy once; legs and sums are not."""
    validated, stacked = [], []
    original = QRepMap._validate
    stacking = complexes.morphism_failures

    def recording(self):
        validated.append(self)
        return original(self)

    def recording_stacked(tgt, maps):
        stacked.append((tgt, list(maps)))
        return stacking(tgt, maps)

    cases = list(approximation_cases(F101, random.Random(2626)))
    monkeypatch.setattr(QRepMap, "_validate", recording)
    monkeypatch.setattr(complexes, "morphism_failures", recording_stacked)
    for z, gens in cases:
        del validated[:]
        epi = coil_epi(z)
        assert len(validated) == 1 and validated[0] is epi.p
        del validated[:]
        ap = right_approximation(z, gens)
        assert len(validated) == 1 and validated[0] is ap.chain_map
        (tgt, copies), = stacked
        del stacked[:]
        assert tgt is ap.source
        assert len(copies) == len({id(f) for f in copies}) == sum(ap.multiplicities)
        assert all(f.tgt is ap.source for f in copies)


def test_every_coil_is_a_complex(monkeypatch):
    """interval_J builds its coils unvalidated; every coil built for the
    benchmark shapes and the one-vertex cycle passes the full check."""
    coils = []
    original = complexes.interval_J

    def recording(spec, j, m):
        coil = original(spec, j, m)
        coils.append(coil)
        return coil

    monkeypatch.setattr(complexes, "interval_J", recording)
    rng = random.Random(1919)
    loop = NComplexSpec(1, Cyclic(1))
    for fld in (F101, QQ):
        for coeff, pool in coefficient_pools(fld):
            for spec in BENCH_SPECS:
                padded = spec.padded()
                gens = [recording(padded, j, pool[0]) for j in spec.degrees()]
                for _ in range(2):
                    z = rand_complex(spec, coeff, pool, rng)
                    coil_epi(z)
                    right_approximation(z, gens)
            for m in pool:
                coil_epi(recording(loop, 0, m))
    assert {c.spec for c in coils} == {s.padded() for s in BENCH_SPECS} | {loop}
    for coil in coils:
        coil._validate()


def test_coil_validation_compares_no_module_with_itself(monkeypatch):
    """Endpoint checks meet the same module objects again and again; the
    identity shortcut of CModule.__eq__ answers them without comparing
    categories, dimensions or actions."""
    compared = []
    original = FinCategory.__eq__

    def counting(self, other):
        compared.append((self, other))
        return original(self, other)

    monkeypatch.setattr(FinCategory, "__eq__", counting)
    for fld in (F101, QQ):
        for coeff, pool in coefficient_pools(fld):
            for spec in BENCH_SPECS:
                for j in spec.padded().degrees()[:2]:
                    coil = interval_J(spec.padded(), j, pool[-1])
                    coil._validate()
                    QRepMap(coil, coil, {i: identity_map(coil.components[i])
                                         for i in spec.padded().degrees()})
                    d = coil.differentials[j]
                    assert d == d and d.src == d.src
    assert compared == []


def test_every_representation_of_a_complex_is_valid(monkeypatch):
    """_direct_sum builds its sums of complexes unvalidated; every one built
    for the benchmark shapes and the one-vertex cycle passes the full check,
    and phi takes each complex as it is."""
    reps = []
    original = complexes._direct_sum

    def recording(xs, spec, coeff):
        rep = original(xs, spec, coeff)
        reps.append(rep)
        return rep

    monkeypatch.setattr(complexes, "_direct_sum", recording)
    rng = random.Random(2121)
    loop = NComplexSpec(1, Cyclic(1))
    for fld in (F101, QQ):
        for coeff, pool in coefficient_pools(fld):
            for spec in BENCH_SPECS + (loop,):
                gens = [interval_J(spec.padded(), j, pool[0]) for j in spec.degrees()]
                if spec == loop:
                    zs = [stalk(loop, 0, pool[-1]), interval_J(loop, 0, pool[-1])]
                else:
                    zs = [rand_complex(spec, coeff, pool, rng) for _ in range(2)]
                for z in zs:
                    phi(z)
                    right_approximation(z, gens)
    specs = BENCH_SPECS + (loop,)
    assert {r.bq for r in reps} == {build_category(s.padded()) for s in specs}
    for rep in reps:
        rep._validate()


def test_benchmark_complexes_workload_passes_its_checks():
    """One pass of the complexes-rep benchmark workload at seed 1, which
    reads the complexes API as the benchmark does (from_rep, coil_epi's p
    and padded, right_approximation's certificates, pad_chain_map, chain-map
    components by degree and then): every op runs and passes every check of
    its oracle."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    ops = workloads.build("complexes-rep", 1)
    assert {op.name.split(":")[0] for op in ops} == {
        "coil", "approx", "factor", "roundtrip", "cover", "adjunction"}
    for op in ops:
        for label, got, want in op.check(op.run()):
            assert got == want, f"{op.name}: {label}"


def output_hash_shapes(monkeypatch):
    """tools/output_hash.py's SHAPES, the complex shapes its `shapes` line
    runs, as specs read by the CLI."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and bench/
    spec = importlib.util.spec_from_file_location(
        "_output_hash", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                     "tools", "output_hash.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return [cli.load_spec(f"[quiver]\ncomplex = {shape}\n\n[command]\nname = info\n")
            .quiver.complex_spec for shape in tool.SHAPES]


def test_composites_are_the_degree_walk(monkeypatch):
    """_composite_or_none, the path map of a run of differentials, equals
    the degree walk, one `then` per differential, entry types included, on
    random complexes over F_101 and Q of every shape of the `shapes` hash
    line, at every start from two degrees below the shape to two above and
    every length up to two past the number of degrees: runs that leave a
    linear shape are None on both routes."""
    rng = random.Random(59)
    for spec in output_hash_shapes(monkeypatch):
        degs = spec.degrees()
        for fld in (F101, QQ):
            pt, pool = point_pool(fld)
            if spec.shape == Cyclic(1):  # rand_complex samples no loop: two coils
                z = _direct_sum([interval_J(spec, 0, pool[0])] * 2, spec, pt)
            else:
                z = rand_complex(spec, pt, pool, rng)
            seen = Counter()
            for j in range(degs[0] - 2, degs[-1] + 3):
                for count in range(len(degs) + 3):
                    got = complexes._composite_or_none(z, j, count)
                    want = reference_composite_or_none(z, j, count)
                    seen[got is None] += 1
                    if want is None:
                        assert got is None, (spec, j, count)
                        continue
                    assert (got.src, got.tgt) == (want.src, want.tgt)
                    assert ([(c, typed_entries(m)) for c, m in got.comps.items()]
                            == [(c, typed_entries(m)) for c, m in want.comps.items()])
            assert seen[False] and (spec.cyclic or seen[True]), spec
