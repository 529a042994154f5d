"""Acceptance suite: nine end-to-end checks, one printed line each.

Counts are asserted against independent oracles (interval-module
enumeration, direct construction of expected sequence terms); everything
else is certified by ranks, idempotent identities, or explicit inverse
pairs.  All randomness is seeded.
"""

import os
import random
import sys
from functools import lru_cache

import pytest

from _support import (F101, a2_quiver, a3_rad2, cyclic_rad2, point_pool,
                      rand_complex, rand_homotopy, rand_invertible,
                      rand_module, rand_qrep, recursive_decompose_module)
from arcat import cli
from arcat.complexes import (Cyclic, Interval, NComplexSpec, Window,
                             assemble_null_homotopic, build_category,
                             coil_epi, factor_null_homotopy, interval_J,
                             pad_chain_map, right_approximation)
from arcat.errors import PreconditionError, VerificationError
from arcat.fincat import AddObject, Hull, category_of, decompose_object
from arcat.modcat import (CModule, ShortExact, almost_split_sequence,
                          ar_quiver, conjugate_module, decompose_module, direct_sum,
                          duality_D, identity_map, is_isomorphic,
                          simple_module, tau, verify_almost_split,
                          yoneda_projective, zero_map)
from arcat.repcat import check_adjunction, lemma2_cover, phi, psi, tensor_base
from conftest import record_acceptance

PAIR_NAMES = ("A2 with point coefficients",
              "A3 rad-square with A2 coefficients",
              "cyclic-2 rad-square with A2 coefficients")

CASE_NAMES = PAIR_NAMES + ("three-term 2-complexes over mod k",
                           "2-periodic complexes over mod k")


@lru_cache(maxsize=None)
def _pair(name):
    """(bound quiver, coefficient category, coefficient module pool)."""
    if name == PAIR_NAMES[0]:
        bq = a2_quiver()
        coeff, pool = point_pool(F101)
    elif name == PAIR_NAMES[1]:
        bq = a3_rad2()
        coeff = category_of(a2_quiver(), F101)
        pool = list(ar_quiver(coeff).modules)
    elif name == PAIR_NAMES[2]:
        bq = cyclic_rad2(2)
        coeff = category_of(a2_quiver(), F101)
        pool = list(ar_quiver(coeff).modules)
    elif name == CASE_NAMES[3]:
        bq = build_category(NComplexSpec(2, Interval(3)))
        coeff, pool = point_pool(F101)
    else:
        bq = build_category(NComplexSpec(2, Cyclic(2)))
        coeff, pool = point_pool(F101)
    return bq, coeff, pool


@lru_cache(maxsize=None)
def _base(name):
    bq, coeff, _ = _pair(name)
    return tensor_base(bq, coeff)


@lru_cache(maxsize=None)
def _knit(name):
    return ar_quiver(_base(name))


def _report(line: str):
    print(line)
    record_acceptance(line)


def _run(n: int, label: str, body):
    try:
        detail = body()
    except BaseException as e:
        _report(f"criterion {n}: FAIL - {label} ({type(e).__name__}: {e})")
        raise
    _report(f"criterion {n}: PASS - {label} ({detail})")


def test_criterion_1_dictionary_round_trip():
    def body():
        rng = random.Random(101)
        trips = 0
        for name in PAIR_NAMES:
            bq, coeff, pool = _pair(name)
            base = _base(name)
            for _ in range(18):
                r = rand_qrep(bq, coeff, pool, rng)
                m = phi(r, base)
                assert psi(m) == r
                assert phi(psi(m), base) == m
                trips += 1
        assert trips >= 50
        return f"{trips} exact round trips over {len(PAIR_NAMES)} category pairs"

    _run(1, "representation-module dictionary inverts exactly", body)


def _nonzero_module(pool, coeff, rng):
    while True:
        p = rand_module(pool, coeff, rng)
        if p.total_dim() > 0:
            return p


def test_criterion_2_induced_covers_and_adjunction():
    def body():
        rng = random.Random(202)
        covers = instances = 0
        for name in PAIR_NAMES:
            bq, coeff, pool = _pair(name)
            for _ in range(18):
                r = rand_qrep(bq, coeff, pool, rng)
                res = lemma2_cover(r)
                assert res.cover.is_surjective()
                covers += 1
            for _ in range(8):
                r = rand_qrep(bq, coeff, pool, rng)
                for v in bq.quiver.vertices:
                    p = _nonzero_module(pool, coeff, rng)
                    check_adjunction(bq, v, p, r)
                    instances += 1
        assert covers >= 50 and instances >= 50
        return f"{covers} surjective covers, {instances} adjunction certificates"

    _run(2, "induced projectives cover and satisfy the adjunction", body)


def test_criterion_3_ar_quivers_close_and_every_sequence_verifies():
    def body():
        parts = []
        for name in PAIR_NAMES:
            knitted = _knit(name)
            nonproj = [i for i, p in enumerate(knitted.projective) if not p]
            for i in nonproj:
                ass = almost_split_sequence(knitted.modules[i])
                verify_almost_split(ass.sequence, knitted.modules)
            parts.append(f"{len(knitted.modules)} modules / "
                         f"{len(nonproj)} sequences")
        return "; ".join(parts)

    _run(3, "AR quivers close and all almost split sequences verify", body)


def test_criterion_4_three_term_complex_category():
    def body():
        knitted = _knit(CASE_NAMES[3])
        oracle = sum(min(2, 3 - i + 1) for i in range(1, 4))
        assert oracle == 5
        assert len(knitted.modules) == oracle
        nonproj = [i for i, p in enumerate(knitted.projective) if not p]
        assert len(nonproj) == 2
        for i in nonproj:
            ass = almost_split_sequence(knitted.modules[i])
            verify_almost_split(ass.sequence, knitted.modules)
        return ("5 indecomposables match the interval oracle; "
                "every non-projective one (2 of 5) verified")

    _run(4, "three-term 2-complex category has the predicted AR structure", body)


def test_criterion_5_two_periodic_complex_category():
    def body():
        name = CASE_NAMES[4]
        base = _base(name)
        knitted = _knit(name)
        assert len(knitted.modules) == 4
        s0 = simple_module(base, (0, "pt"))
        s1 = simple_module(base, (1, "pt"))
        p0 = yoneda_projective(base, (0, "pt"))
        ass = almost_split_sequence(s0)
        assert is_isomorphic(ass.sequence.left, s1) is not None
        assert is_isomorphic(ass.sequence.middle, p0) is not None
        assert is_isomorphic(ass.sequence.right, s0) is not None
        verify_almost_split(ass.sequence, knitted.modules)
        return ("4 indecomposables; the sequence ending at the degree-0 "
                "simple runs S1 -> P0 -> S0 and verifies in full")

    _run(5, "2-periodic complexes of vector spaces knit as predicted", body)


def _pick_summands(pool, rng, budget=8, most=4):
    picks = []
    while len(picks) < most:
        fits = [i for i, m in enumerate(pool) if m.total_dim() <= budget]
        if not fits or (picks and rng.random() < 0.3):
            break
        i = rng.choice(fits)
        picks.append(i)
        budget -= pool[i].total_dim()
    return picks


def _first_ratio(hull, comp, e):
    fld = hull.cat.field
    a, b = hull.flatten(comp), hull.flatten(e)
    for i in range(b.rows):
        if b.at(i, 0) != fld.zero():
            return fld.mul(a.at(i, 0), fld.inv(b.at(i, 0)))
    raise AssertionError("zero idempotent")


def _object_class(hull, cat, summand):
    """The unique base object certified isomorphic to the summand."""
    e = hull.then(summand.project, summand.include)
    matches = []
    for idx, x in enumerate(cat.objects):
        kx = hull.to_kar(x)
        fwd = hull.kar_hom_basis(summand.piece, kx)
        bwd = hull.kar_hom_basis(kx, summand.piece)
        if not fwd or not bwd:
            continue
        comp = hull.then(fwd[0], bwd[0])
        if hull.is_zero_mor(comp):
            continue
        lam = _first_ratio(hull, comp, e)
        assert lam != cat.field.zero()
        assert comp == hull.scale(lam, e)
        matches.append(idx)
    assert len(matches) == 1
    return matches[0]


def _criterion_6_module_sums(rng):
    """(pool, picks, m) for the 50 scrambled module sums of criterion 6, drawn
    from rng in turn."""
    pool_cases = (PAIR_NAMES[0], PAIR_NAMES[1])
    for k in range(50):
        name = pool_cases[k % 2]
        base = _base(name)
        pool = list(_knit(name).modules)
        picks = _pick_summands(pool, rng) or [0]
        summed = direct_sum([pool[i] for i in picks], base)[0]
        mats = {x: rand_invertible(base.field, summed.dims[x], rng)
                for x in base.objects}
        yield pool, picks, conjugate_module(summed, mats)[0]


def test_criterion_6_krull_schmidt_recovers_multisets():
    def body():
        rng = random.Random(606)
        mod_runs = obj_runs = 0
        pool_cases = (PAIR_NAMES[0], PAIR_NAMES[1])
        for pool, picks, m in _criterion_6_module_sums(rng):
            pieces = decompose_module(m)
            got = []
            for p in pieces:
                assert p.include.then(p.project) == identity_map(p.module)
                e = p.project.then(p.include)
                assert e.then(e) == e
                fits = [j for j in range(len(pool))
                        if pool[j].dims == p.module.dims
                        and is_isomorphic(p.module, pool[j]) is not None]
                assert len(fits) == 1
                got.append(fits[0])
            total = zero_map(m, m)
            for p in pieces:
                total = total.add(p.project.then(p.include))
            assert total == identity_map(m)
            assert sorted(got) == sorted(picks)
            mod_runs += 1
        for k in range(50):
            name = pool_cases[k % 2]
            base = _base(name)
            hull = Hull(base)
            dims = {i: yoneda_projective(base, x).total_dim()
                    for i, x in enumerate(base.objects)}
            picks = []
            budget = 8
            while len(picks) < 4:
                fits = [i for i in dims if dims[i] <= budget]
                if not fits or (picks and rng.random() < 0.3):
                    break
                i = rng.choice(fits)
                picks.append(i)
                budget -= dims[i]
            if not picks:
                picks = [0]
            amb = AddObject.of([base.objects[i] for i in picks])
            pieces = decompose_object(base, amb)
            assert len(pieces) == len(picks)
            ident = hull.identity(amb)
            total = hull.zero_mor(amb, amb)
            got = []
            for s in pieces:
                e = hull.then(s.project, s.include)
                assert hull.then(e, e) == e
                total = hull.add(total, e)
                got.append(_object_class(hull, base, s))
            assert total == ident
            assert sorted(got) == sorted(picks)
            obj_runs += 1
        assert mod_runs + obj_runs >= 50
        return (f"{mod_runs} module sums and {obj_runs} object sums "
                "recovered with idempotent certificates")

    _run(6, "random direct sums decompose back to their summand multisets", body)


def _decompose_workload_modules(monkeypatch, seeds):
    """The distinct module inputs of the decompose benchmark workload at the
    given seeds, read through its ops with the decomposition stubbed out."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(workloads, "decompose_module", lambda m: m)
    pools = workloads.decompose_pools()
    distinct = {}
    for seed in seeds:
        for op in workloads.build("decompose", seed, prepared=pools):
            if op.name.startswith("module:"):
                m = op.run()[0]
                key = (id(m.cat), frozenset(m.dims.items()), frozenset(m.action.items()))
                distinct.setdefault(key, m)
    return list(distinct.values())


def test_decompose_module_agrees_with_the_recursive_oracle(monkeypatch):
    """One split of End(m) against the recursive split: equal summand
    multisets, and decompose_module's pieces satisfy sum include o project
    = 1 and project_j o include_i = [i = j]."""
    mods = _decompose_workload_modules(monkeypatch, (1, 2, 3))
    assert mods
    mods += [m for _, _, m in _criterion_6_module_sums(random.Random(606))]
    for m in mods:
        pieces = decompose_module(m)
        total = zero_map(m, m)
        for i, p in enumerate(pieces):
            total = total.add(p.project.then(p.include))
            for j, q in enumerate(pieces):
                comp = p.include.then(q.project)
                assert comp == identity_map(p.module) if i == j else comp.is_zero()
        assert total == identity_map(m)
        unmatched = [q.module for q in recursive_decompose_module(m)]
        for p in pieces:
            hits = [k for k, q in enumerate(unmatched) if is_isomorphic(p.module, q) is not None]
            assert hits, "a summand has no partner in the oracle's answer"
            unmatched.pop(hits[0])
        assert not unmatched


def test_criterion_7_approximations_coils_and_homotopies():
    def body():
        rng = random.Random(707)
        specs = [NComplexSpec(2, Interval(3)),
                 NComplexSpec(3, Window(0, 3)),
                 NComplexSpec(2, Cyclic(2))]
        coils = factored = certs = 0
        for spec in specs:
            coeff, pool = point_pool(F101)
            padded = spec.padded()
            gens = [interval_J(padded, j, pool[0]) for j in spec.degrees()]
            for _ in range(20):
                z = rand_complex(spec, coeff, pool, rng)
                coil = coil_epi(z)
                for i in coil.padded.spec.degrees():
                    assert coil.p.comps[i].is_surjective()
                coils += 1
                ap = right_approximation(z, gens)
                assert len(ap.certified) == len(gens) and all(ap.certified)
                certs += len(ap.certified)
                src = rand_complex(spec, coeff, pool, rng)
                s = rand_homotopy(src, z, rng)
                l = assemble_null_homotopic(src, z, s)
                lifted = factor_null_homotopy(l, coil)
                spec_p = coil.padded.spec
                lp = pad_chain_map(l, spec_p) if l.src.spec != spec_p else l
                comp = lifted.then(coil.p)
                for i in spec_p.degrees():
                    assert comp.comps[i].sub(lp.comps[i]).is_zero()
                factored += 1
        return (f"{coils} coil surjections, {certs} generator certificates, "
                f"{factored} exact factorizations over 3 shapes")

    _run(7, "approximations certify and null-homotopic maps factor exactly", body)


def test_criterion_8_double_duality_is_the_identity():
    def body():
        corpus = []
        for name in CASE_NAMES:
            corpus.extend(_knit(name).modules)
        for m in corpus:
            # the dual is memoised as an involution, so dualize an uncached
            # copy of it to build the double dual afresh
            d = duality_D(m)
            dd = duality_D(CModule(d.cat, d.dims, d.action))
            assert dd is not m
            assert dd.dims == m.dims
            pair = is_isomorphic(m, dd)
            assert pair is not None
            f, g = pair
            assert f.then(g) == identity_map(m)
            assert g.then(f) == identity_map(dd)
        return f"{len(corpus)} corpus modules, inverse pairs certified"

    _run(8, "componentwise duality squares to the identity", body)


def test_criterion_9_negative_controls(tmp_path):
    def body():
        base = _base(PAIR_NAMES[0])
        knitted = _knit(PAIR_NAMES[0])
        z = next(m for i, m in enumerate(knitted.modules)
                 if not knitted.projective[i])
        x = tau(z)
        total, injs, projs = direct_sum([x, z])
        split = ShortExact(x, total, z, injs[0], projs[1])
        with pytest.raises(VerificationError):
            verify_almost_split(split, knitted.modules)
        p = yoneda_projective(base, base.objects[0])
        with pytest.raises(PreconditionError):
            tau(p)
        with pytest.raises(PreconditionError):
            almost_split_sequence(p)
        job = tmp_path / "projective.job"
        job.write_text("[quiver]\nvertices = 1 2\narrow a1: 1 -> 2\n"
                       "[command]\nname = ass\ntarget = projective 1:pt\n",
                       encoding="utf-8")
        assert cli.main([str(job)]) == 2
        split_job = tmp_path / "split.job"
        split_job.write_text("[quiver]\nvertices = 1 2\narrow a1: 1 -> 2\n"
                             "[command]\nname = verify\ntarget = dims 1 0\n"
                             "sequence = split\n", encoding="utf-8")
        assert cli.main([str(split_job)]) == 3
        return ("split sequence rejected, projective translate rejected, "
                "CLI exits 2 on projective target and 3 on the split control")

    _run(9, "negative controls are rejected with the right errors", body)
