"""Shared builders for the test suite: small bound quivers and random data."""

import importlib.util
import itertools
import os
import random
import sys
from typing import List, Optional

from arcat import poly
from arcat.errors import CapExceededError, PreconditionError, VerificationError
from arcat.fincat import (AddMor, AddObject, FinCategory, Hull, opposite_category,
                          point_category)
from arcat.linalg import Field, Mat, hstack, kron, solve, vstack
from arcat.algebra import TableAlgebra, end_table, find_nontrivial_idempotent, radical_basis
from arcat import modcat
from arcat.modcat import (AlmostSplit, CModule, Image, ModuleMap, ShortExact, check_short_exact,
                          cokernel_module, conjugate_module, copair, direct_sum, end_algebra,
                          factor_through_cokernel, flatten_map, hom_space, identity_map,
                          image_module, is_isomorphic, map_from_coords, minimal_presentation,
                          proj_sum, proj_sum_map, projective_cover, sum_map, zero_map,
                          zero_module)
from arcat.quiver import (Arrow, BoundQuiver, MonomialIdeal, Path, Quiver,
                          cyclic_quiver, linear_quiver)
from arcat.repcat import QRep, QRepMap, qrep_hom, rep_copair, rep_injections

F101 = Field.prime(101)
QQ = Field.rationals()


def load_tool(monkeypatch, name: str):
    """tools/<name>.py, loaded as a module.  The tools put src/ (and bench/)
    in front of sys.path; monkeypatch restores it afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        f"_{name}", os.path.join(root, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hash_line_categories(monkeypatch):
    """(label, category) for the lines of tools/output_hash.py that knit:
    the `validate` sweep, the `verify` categories over F_101 and Q, the
    loop mod x^2 (x) A2 of `sequences`, and the tensor pairs of
    `idempotents`."""
    tool = load_tool(monkeypatch, "output_hash")
    cats = list(tool.sweep_categories())
    for fld in (F101, QQ):
        cats += [(f"{name}/{fld}", c) for name, c in tool.verify_categories(fld)]
        cats.append((f"loop-rad2xA2/{fld}", tool.tensor_base(
            tool.loop_rad2(), tool.category_of(tool.inputs.a_m_rad_n(2), fld))))
        cats += [(f"{name}/{fld}", tool.tensor_base(*tool.workloads.tensor_pair(name, fld)))
                 for name in tool.workloads.DECOMPOSE_PAIRS]
    return cats


def a2_quiver() -> BoundQuiver:
    return BoundQuiver(linear_quiver(2))


def a3_quiver() -> BoundQuiver:
    return BoundQuiver(linear_quiver(3))


def a3_rad2() -> BoundQuiver:
    q = linear_quiver(3)
    gen = Path("1", "3", ("a1", "a2"))
    return BoundQuiver(q, MonomialIdeal(frozenset([gen])))


def a_m_rad_n(m: int, n: int) -> BoundQuiver:
    q = linear_quiver(m)
    gens = []
    for i in range(1, m - n + 1):
        arrows = tuple(f"a{i + k}" for k in range(n))
        gens.append(Path(str(i), str(i + n), arrows))
    return BoundQuiver(q, MonomialIdeal(frozenset(gens)))


def cyclic_rad2(n: int) -> BoundQuiver:
    q = cyclic_quiver(n)
    gens = []
    for i in range(n):
        a, b = f"a{i}", f"a{(i + 1) % n}"
        gens.append(Path(str(i), str((i + 2) % n), (a, b)))
    return BoundQuiver(q, MonomialIdeal(frozenset(gens)))


def one_loop_rad2() -> BoundQuiver:
    q = Quiver(["v"], [Arrow("x", "v", "v")])
    return BoundQuiver(q, MonomialIdeal(frozenset([Path("v", "v", ("x", "x"))])))


def point_quiver() -> BoundQuiver:
    return BoundQuiver(Quiver(["pt"], []))


def typed_entries(mat: Mat):
    """A matrix's shape and entries with their types, so that Fraction(1)
    and 1 differ."""
    return (mat.rows, mat.cols, tuple((type(v), v) for v in mat.data))


def module_print(m: CModule):
    return (tuple(m.dims.items()),
            tuple((k, typed_entries(a)) for k, a in m.action.items()))


def reference_simple_module(cat: FinCategory, x) -> CModule:
    """The simple at x as a hand-built action table, validated: k at x, the
    identity for the one basis element of End(x) outside the radical, zero
    everywhere else."""
    (unit,) = (i for i in range(cat.dim(x, x)) if i not in cat.radical[(x, x)])
    dims = {y: int(y == x) for y in cat.objects}
    action = {(y, z, i): (Mat.identity(cat.field, 1) if (y, z, i) == (x, x, unit)
                          else Mat.zeros(cat.field, dims[y], dims[z]))
              for y in cat.objects for z in cat.objects for i in range(cat.dim(y, z))}
    return CModule(cat, dims, action, validate=True)


def rand_mat(field: Field, rows: int, cols: int, rng) -> Mat:
    return Mat(field, rows, cols, [field.random(rng) for _ in range(rows * cols)])


def rand_invertible(field: Field, n: int, rng) -> Mat:
    while True:
        g = rand_mat(field, n, n, rng)
        if g.inverse() is not None:
            return g


def reference_all_paths(bq: BoundQuiver):
    """Every surviving path, keyed by (source, target) and sorted by (length,
    arrows), found by breadth-first search from each vertex: the oracle for
    the path table of quiver's depth-first walk."""
    q = bq.quiver
    table = {(v, w): [] for v in q.vertices for w in q.vertices}
    for v in q.vertices:
        table[(v, v)].append(q.trivial_path(v))
        frontier = [(v, ())]
        while frontier:
            nxt = []
            for vertex, arrows in frontier:
                for a in q.out_arrows(vertex):
                    word = arrows + (a.name,)
                    if bq.ideal.kills_suffix(word):
                        continue
                    table[(v, a.target)].append(Path(v, a.target, word))
                    nxt.append((a.target, word))
            frontier = nxt
    for paths in table.values():
        paths.sort(key=lambda p: (p.length, p.arrows))
    return table


def reference_bounds(table):
    """The nilpotency bound of each vertex off a path table: one more than
    the longest surviving path that starts or ends there."""
    vertices = {v for v, _ in table}
    return {v: 1 + max(p.length for (s, t), paths in table.items() if v in (s, t)
                       for p in paths)
            for v in vertices}


def reference_act(m: CModule, x, y, coords) -> Mat:
    """The action of a hom coordinate vector at (x, y) as a sum of scaled
    action matrices, one Mat addition per nonzero coordinate: the oracle for
    CModule.act, which combines the entries in one pass."""
    fld = m.cat.field
    out = Mat.zeros(fld, m.dims[x], m.dims[y])
    for i, c in enumerate(coords):
        if c != fld.zero():
            out = out + m.action[(x, y, i)].scale(c)
    return out


def rand_module(pool: List[CModule], cat: FinCategory, rng,
                max_total: int = 3, conjugate: bool = True) -> CModule:
    """A random direct sum from the pool, optionally in scrambled coordinates."""
    parts = []
    budget = rng.randint(0, max_total)
    attempts = 0
    total = 0
    while attempts < 12:
        attempts += 1
        piece = rng.choice(pool)
        if total + piece.total_dim() > budget:
            continue
        parts.append(piece)
        total += piece.total_dim()
    m = direct_sum(parts, cat)[0] if parts else zero_module(cat)
    if not conjugate:
        return m
    mats = {x: rand_invertible(cat.field, m.dims[x], rng) for x in cat.objects}
    return conjugate_module(m, mats)[0]


def _chain(sampled, names):
    cur = None
    for name in names:
        step = sampled[name]
        cur = step if cur is None else cur.then(step)
    return cur


def rand_qrep(bq: BoundQuiver, coeff: FinCategory, pool: List[CModule], rng,
              max_total: int = 3) -> QRep:
    """A random representation; arrow maps are sampled inside the linear
    subspace cut out by the relations whose other arrows are already fixed.

    Generators must not repeat an arrow, so that each activated constraint
    stays linear in the arrow being sampled.
    """
    fld = coeff.field
    arrows = {a.name: a for a in bq.quiver.arrows}
    mods = {v: rand_module(pool, coeff, rng, max_total) for v in bq.quiver.vertices}
    sampled = {}
    for name in sorted(arrows):
        a = arrows[name]
        src, tgt = mods[a.source], mods[a.target]
        basis = hom_space(src, tgt)
        if not basis:
            sampled[name] = zero_map(src, tgt)
            continue
        blocks = []
        for gen in sorted(bq.ideal.generators, key=lambda p: (p.length, p.arrows)):
            if name not in gen.arrows:
                continue
            if gen.arrows.count(name) > 1:
                raise ValueError(f"generator repeats arrow {name!r}")
            if any(other not in sampled for other in gen.arrows if other != name):
                continue
            i = gen.arrows.index(name)
            before = _chain(sampled, gen.arrows[:i])
            after = _chain(sampled, gen.arrows[i + 1:])
            cols = []
            for b in basis:
                term = b if before is None else before.then(b)
                term = term if after is None else term.then(after)
                cols.append(flatten_map(term))
            blocks.append(hstack(cols))
        if blocks:
            ker = vstack(blocks).kernel_basis()
        else:
            ker = Mat.identity(fld, len(basis))
        cur = zero_map(src, tgt)
        if ker.cols:
            weights = [fld.random(rng) for _ in range(ker.cols)]
            for j, b in enumerate(basis):
                scalar = fld.zero()
                for t in range(ker.cols):
                    scalar = fld.add(scalar, fld.mul(ker.at(j, t), weights[t]))
                cur = cur.add(b.scale(scalar))
        sampled[name] = cur
    return QRep(bq, coeff, mods, sampled, validate=True)


def point_pool(field: Field):
    """The coefficient pool for plain vector spaces: the one simple module."""
    cat = point_category(field)
    one = CModule(cat, {"pt": 1}, {("pt", "pt", 0): Mat.identity(field, 1)})
    return cat, [one]


def rand_hom(src: CModule, tgt: CModule, rng):
    """A random natural map, sampled from the hom-space basis."""
    fld = src.cat.field
    cur = zero_map(src, tgt)
    for b in hom_space(src, tgt):
        cur = cur.add(b.scale(fld.random(rng)))
    return cur


def rand_complex(spec, coeff: FinCategory, pool: List[CModule], rng,
                 max_total: int = 3):
    from arcat.complexes import build_category, from_rep
    return from_rep(spec, rand_qrep(build_category(spec), coeff, pool, rng,
                                    max_total))


def rand_homotopy(src, tgt, rng):
    """Random degreewise maps shaped like a homotopy between two complexes."""
    spec = src.spec
    ell = spec.window_len
    s = {}
    for i in spec.degrees():
        t = spec.wrap(i - (ell - 1))
        if t is None:
            continue
        s[i] = rand_hom(src.components[i], tgt.components[t], rng)
    return s


def recursive_decompose_module(m: CModule) -> List[Image]:
    """Indecomposable summands by the recursive split: a new End algebra for
    every piece, one idempotent at a time, then the sum and orthogonality of
    the pieces checked as maps.  The oracle for modcat.decompose_module,
    which splits End(m) once."""
    if m.is_zero():
        return []
    out: List[Image] = []

    def recurse(sub: CModule, include, project):
        alg, basis = end_algebra(sub)
        coords = find_nontrivial_idempotent(alg)
        if coords is None:
            out.append(Image(sub, include, project))
            return
        e = map_from_coords(basis, coords)
        for idem in (e, identity_map(sub).sub(e)):
            img = image_module(idem)
            recurse(img.module, img.include.then(include), project.then(img.project))

    recurse(m, identity_map(m), identity_map(m))
    total = zero_map(m, m)
    for p in out:
        total = total.add(p.project.then(p.include))
    assert total == identity_map(m), "summand idempotents do not sum to the identity"
    for i, p in enumerate(out):
        for j, q in enumerate(out):
            comp = p.include.then(q.project)
            assert comp == identity_map(p.module) if i == j else comp.is_zero(), \
                "summand idempotents are not orthogonal"
    return out


def reference_splitting_section(se):
    """A section of the right map, when the sequence splits, by an exact
    solve over a basis of Hom(Z, Y) for a lift of 1_Z: the oracle for
    modcat.splits, which counts Hom dimensions instead."""
    candidates = hom_space(se.right, se.middle)
    if not candidates:
        return None
    cols = hstack([flatten_map(s.then(se.project)) for s in candidates])
    sol = solve(cols, flatten_map(identity_map(se.right)))
    if sol is None:
        return None
    return map_from_coords(candidates, tuple(sol.col(0)))


def composite_rank_verify(se, test_modules) -> int:
    """The almost split check by composite ranks: for each test module m,
    hom bases of Hom(m, right) and Hom(m, middle), the rank of the composites
    with the right map, and dually for the left map, with is_isomorphic
    asked at every m on both sides.  The oracle for
    modcat.verify_almost_split, which reads the same cokernel dimensions off
    presentations as Hom-dimension defects; same refusals, same messages."""
    if isinstance(se, AlmostSplit):
        se = se.sequence
    check_short_exact(se)
    if reference_splitting_section(se) is not None:
        raise VerificationError("sequence splits")
    top = {}
    for term, name in ((se.right, "right"), (se.left, "left")):
        alg, _ = end_algebra(term)
        if find_nontrivial_idempotent(alg) is not None:
            raise VerificationError(f"{name} term is decomposable")
        top[name] = alg.dim - radical_basis(alg).cols
    for m in test_modules:
        if m.is_zero():
            raise VerificationError("zero module in the test family")
        into = hom_space(m, se.right)
        lifted = hom_space(m, se.middle)
        cols = [flatten_map(b.then(se.project)) for b in lifted]
        rank = hstack(cols).rank() if cols else 0
        coker = len(into) - rank
        if is_isomorphic(m, se.right) is not None:
            if coker != top["right"]:
                raise VerificationError(
                    f"maps from the right term itself: cokernel {coker}, "
                    f"expected {top['right']}")
        elif coker != 0:
            raise VerificationError(
                f"a map {m!r} -> right term does not factor through the middle")
        outof = hom_space(se.left, m)
        extended = hom_space(se.middle, m)
        cols = [flatten_map(se.include.then(b)) for b in extended]
        rank = hstack(cols).rank() if cols else 0
        coker = len(outof) - rank
        if is_isomorphic(m, se.left) is not None:
            if coker != top["left"]:
                raise VerificationError(
                    f"maps into the left term itself: cokernel {coker}, "
                    f"expected {top['left']}")
        elif coker != 0:
            raise VerificationError(
                f"a map left term -> {m!r} does not extend through the middle")
    return len(test_modules)


def reference_matmul(a: Mat, b: Mat) -> Mat:
    """The product by the full triple loop, every entry a sum over all k
    terms, reduced once mod p over F_p: the oracle for Mat.__matmul__,
    which must agree on the entries and their types."""
    f = a.field
    n, m, k = a.rows, b.cols, a.cols
    out = [f.zero()] * (n * m)
    for i in range(n):
        for j in range(m):
            s = 0 if f.p is not None else f.zero()
            for t in range(k):
                s += a.data[i * k + t] * b.data[t * m + j]
            out[i * m + j] = s % f.p if f.p is not None else s
    return Mat(f, n, m, out)


def reference_rref(a: Mat):
    """Reduced row echelon form by whole-row operations through the Field
    methods, zero entries included: the oracle for Mat.rref, which must
    agree on the form, the pivots and the entry types."""
    f = a.field
    m = a.to_lists()
    pivots = []
    r = 0
    for j in range(a.cols):
        sel = next((i for i in range(r, a.rows) if m[i][j] != f.zero()), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = f.inv(m[r][j])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][j] != f.zero():
                c = m[i][j]
                m[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[i], m[r])]
        pivots.append(j)
        r += 1
        if r == a.rows:
            break
    return Mat(f, a.rows, a.cols, [x for row in m for x in row]), tuple(pivots)


def reference_trace_form(alg: TableAlgebra) -> Mat:
    """The n x n matrix of Tr(left[i] left[j]), one product per pair: the
    oracle for algebra._trace_form."""
    f, n = alg.field, alg.dim
    data = []
    for a in alg.left:
        for b in alg.left:
            prod = a @ b
            tr = f.zero()
            for k in range(n):
                tr = f.add(tr, prod.at(k, k))
            data.append(tr)
    return Mat(f, n, n, data)


def reference_left_mult_matrix(alg: TableAlgebra, x) -> Mat:
    """x^T _flat as one dense product: the oracle for left_mult_matrix."""
    n = alg.dim
    return Mat(alg.field, n, n, (Mat(alg.field, 1, n, x) @ alg._flat).data)


def reference_find_nontrivial_idempotent(alg: TableAlgebra):
    """A nontrivial idempotent of alg, or None when alg is local, the long
    way: the table of alg / rad on the coordinates at which rref([rad | 1])
    puts its pivots in 1, a search there (`_reference_quotient_search`), and
    a Newton lift e <- 3e^2 - 2e^3 of the idempotent it finds back into alg.
    The oracle for algebra.find_nontrivial_idempotent, which searches alg
    itself: its idempotent lies in the class of this one modulo rad."""
    f, n = alg.field, alg.dim
    if n == 1:
        return None
    rad = radical_basis(alg)
    k = rad.cols
    _, pivots = hstack([rad, Mat.identity(f, n)]).rref()
    comp = [j - k for j in pivots if j >= k]
    d = len(comp)
    lift = Mat(f, n, d, [f.one() if i == j else f.zero() for i in range(n) for j in comp])
    # x = rad part + lift part, for every product of lifted basis elements
    # and for the unit; the lift parts are the quotient's table
    coords = solve(hstack([rad, lift]),
                   hstack([alg.left[i] @ lift for i in comp] + [Mat.column(f, alg.unit)]))
    quotient = TableAlgebra(f, Mat(f, d, coords.cols, coords.data[k * coords.cols:]))
    ebar = _reference_quotient_search(quotient)
    if ebar is None:
        return None
    e = lift @ Mat.column(f, ebar)
    for _ in range(64):
        le = alg.left_mult_matrix(e.data)
        sq = le @ e
        if sq == e:
            return e.data
        e = sq.scale(3) - (le @ sq).scale(2)
    raise AssertionError("idempotent lift did not converge")


def _reference_quotient_search(alg: TableAlgebra):
    """A nontrivial idempotent of a semisimple alg, or None when it is a
    field: the unit vectors, their pairwise sums and seeded random tuples,
    each split by CRT at the first factor of its minimal polynomial in
    poly.factor's order; None is certified by a commutative alg with a
    candidate whose minimal polynomial is irreducible of degree dim alg."""
    f, n = alg.field, alg.dim
    if n == 1:
        return None
    commutative = alg.is_commutative()
    rng = random.Random(20240 + n)
    basis = [Mat.identity(f, n).col(i) for i in range(n)]
    pairs = (tuple(map(f.add, basis[i], basis[j])) for i in range(n) for j in range(i + 1, n))
    randoms = (tuple(f.random(rng) for _ in range(n)) for _ in itertools.count())
    for x in itertools.islice(itertools.chain(basis, pairs, randoms), 200):
        coeffs = alg.minimal_polynomial(x)
        factors = poly.factor(coeffs, f) if len(coeffs) > 2 else []
        if len(factors) > 1:
            m1 = [f.one()]
            for _ in range(factors[0][1]):
                m1 = poly.mul(m1, factors[0][0], f)
            m2 = poly.quo_rem(coeffs, m1, f)[0]
            u = poly.gcdex(m1, m2, f)[1]
            e = (f.zero(),) * n
            for c in reversed(poly.quo_rem(poly.mul(u, m2, f), coeffs, f)[1]):
                e = tuple(f.add(a, f.mul(c, b)) for a, b in zip(alg.mul(x, e), alg.unit))
            assert alg.mul(e, e) == e and e != alg.unit and any(e)
            return e
        if commutative and len(coeffs) == n + 1 and len(factors) == 1 \
                and factors[0][1] == 1:
            return None
    raise CapExceededError("reference idempotent search inconclusive")


def reference_end_algebra(m: CModule) -> TableAlgebra:
    """End(m) with each product b_i b_j composed as a map, one `then` per
    pair: the oracle for modcat.end_algebra's products by blocks."""
    basis = hom_space(m, m)
    products = hstack([flatten_map(bj.then(bi)) for bi in basis for bj in basis])
    return end_table(m.cat.field, hstack([flatten_map(b) for b in basis]),
                     flatten_map(identity_map(m)), products)


# ---------------------------------------------------------------------------
# oracles for the complexes module: sums with all their maps, and the
# approximation through the full coil epimorphism


def complex_sum_maps(xs, total):
    """(injections, projections) of total = complexes._direct_sum(xs, ...), as
    validated chain maps whose components at each degree are those of
    modcat.direct_sum of the summands' components there."""
    injs, projs = [{} for _ in xs], [{} for _ in xs]
    for i in total.spec.degrees():
        t = total.components[i]
        _, vi, vp = direct_sum([x.components[i] for x in xs], total.coeff)
        for k, x in enumerate(xs):
            injs[k][i] = ModuleMap(x.components[i], t, vi[k].comps)
            projs[k][i] = ModuleMap(t, x.components[i], vp[k].comps)
    return ([QRepMap(x, total, c) for x, c in zip(xs, injs)],
            [QRepMap(total, x, c) for x, c in zip(xs, projs)])


def coil_injections(coil):
    """The injections of the coils J_j(z_j) into coil.source, one per block
    j in order, by rep_injections, unvalidated."""
    from arcat import complexes as cx
    spec_p = coil.padded.spec
    return rep_injections(coil.source, [cx.interval_J(spec_p, j, coil.padded.components[j])
                                        for j in coil.blocks])


def interval_J_map(spec, j, f: ModuleMap, src, tgt):
    """The coil construction applied to a coefficient map f, validated; src
    and tgt are the coils of f.src and f.tgt at degree j."""
    if spec.cyclic and spec.shape.order == 1:
        comp = sum_map(src.components[0], tgt.components[0], [f, f])
        return QRepMap(src, tgt, {0: comp})
    comps = {}
    for i in spec.degrees():
        if src.components[i].is_zero() and tgt.components[i].is_zero():
            comps[i] = zero_map(src.components[i], tgt.components[i])
        elif src.components[i] == f.src:
            comps[i] = f
        else:
            comps[i] = zero_map(src.components[i], tgt.components[i])
    return QRepMap(src, tgt, comps)


def coil_route_approximation(z, gens):
    """The right approximation through the coil epimorphism p of z: the
    cover coils map into the coils of z by interval_J_map, their sum by the
    validated p' onto p's source, and r = p' p.  Y's injections come from
    complex_sum_maps.  The oracle for complexes.right_approximation, which
    builds r from the cover-coil legs alone."""
    from arcat import complexes as cx
    coil = cx.coil_epi(z)
    spec_p, zp = coil.padded.spec, coil.padded
    covers = [(j, projective_cover(z.components[j])) for j in coil.blocks]
    cover_coils = [cx.interval_J(spec_p, j, cov.psum.module) for j, cov in covers]
    cover_maps = [interval_J_map(spec_p, j, cov.cover, src, inj.src)
                  for (j, cov), src, inj in zip(covers, cover_coils, coil_injections(coil))]
    coil_src = cx._direct_sum(cover_coils, spec_p, z.coeff)
    p_prime = QRepMap(coil_src, coil.source,
                      {i: sum_map(coil_src.components[i], coil.source.components[i],
                                  [f.comps[i] for f in cover_maps])
                       for i in spec_p.degrees()})
    r = p_prime.then(coil.p)
    gens_p = [cx.pad_complex(g, spec_p) if g.spec != spec_p else g for g in gens]
    pieces, piece_maps, multiplicities = [], [], []
    for g in gens_p:
        basis = qrep_hom(g, zp)
        multiplicities.append(len(basis))
        pieces += [g] * len(basis)
        piece_maps += basis
    pieces.append(coil_src)
    piece_maps.append(r)
    y = cx._direct_sum(pieces, spec_p, z.coeff)
    injs, _ = complex_sum_maps(pieces, y)
    g_map = rep_copair(y, zp, piece_maps)
    g_map._validate()
    if not g_map.is_surjective():
        raise VerificationError("approximation map is not degreewise surjective")
    certified = cx._certify_generators(gens_p, multiplicities, injs, g_map)
    if not all(certified):
        raise VerificationError("approximation certificate failed")
    return cx.Approximation(y, g_map, zp, multiplicities, certified)


def reference_rep_map_failure(f: QRepMap) -> Optional[str]:
    """Why f is not a morphism of representations, or None: each component
    validated as a ModuleMap on its own and each arrow square compared as
    two composite ModuleMaps.  The oracle for repcat.morphism_failures,
    which stacks the squares of many maps."""
    try:
        if f.src.bq is not f.tgt.bq and f.src.bq != f.tgt.bq:
            raise PreconditionError("map between representations of different quivers")
        for v in f.src.bq.quiver.vertices:
            comp = f.comps.get(v)
            if comp is None:
                raise PreconditionError(f"missing component at vertex {v!r}")
            if comp.src != f.src.vertex_modules[v] or comp.tgt != f.tgt.vertex_modules[v]:
                raise PreconditionError(f"component endpoints wrong at {v!r}")
            comp._validate()
        for a in f.src.bq.quiver.arrows:
            left = f.src.arrow_maps[a.name].then(f.comps[a.target])
            right = f.comps[a.source].then(f.tgt.arrow_maps[a.name])
            if left != right:
                raise PreconditionError(f"square at arrow {a.name!r} does not commute")
    except PreconditionError as e:
        return str(e)
    return None


def reference_generator_certificate(gens, multiplicities, injections,
                                    g_map: QRepMap) -> List[bool]:
    """certified[s] copy by copy: each injection of G_s's evaluation copies
    must be a map out of G_s into Y, the source of g_map, and pass
    QRepMap._validate on its own, and the flattened composites with g_map
    must have rank multiplicities[s].  The oracle for
    complexes._certify_generators, which checks every copy in one stacked
    pass."""
    certified = []
    pos = 0
    for g, mult in zip(gens, multiplicities):
        copies = injections[pos:pos + mult]
        pos += mult
        try:
            for f in copies:
                if f.src is not g and f.src != g:
                    raise PreconditionError("copy is not a map out of its generator")
                if f.tgt is not g_map.src and f.tgt != g_map.src:
                    raise PreconditionError("copy is not a map into Y")
                f._validate()
        except PreconditionError:
            certified.append(False)
            continue
        cols = [vstack([flatten_map(c) for c in f.then(g_map).comps.values()])
                for f in copies]
        certified.append(not cols or hstack(cols).rank() == mult)
    return certified


def path_route_sharp(bq, v, r: QRep, psi_map: ModuleMap, ind: QRep) -> QRepMap:
    """The transpose f_star_v(p) -> r of psi_map: p -> r(v) leg by leg, the
    copy of path q taking psi_map followed by r.path_map(q), each path's
    composite built from scratch; unvalidated.  The oracle for
    repcat.sharp, which extends the leg of each path's prefix."""
    return QRepMap(ind, r, {w: copair(ind.vertex_modules[w], r.vertex_modules[w],
                                      [psi_map.then(r.path_map(q)) for q in bq.paths(v, w)])
                            for w in bq.quiver.vertices}, validate=False)


def special_case_lift(l, coil):
    """The lift of a null-homotopic l through coil.p built shape by shape:
    on the one-vertex cycle the coil's component is M + M and the lift maps
    into it by (s d ; s); on any other shape, for the offset k of the coil's
    window that lands at degree i, by the differentials from i up to the
    window's top followed by s there.  Validated, residual unchecked.  The
    oracle for complexes.factor_null_homotopy, which takes one formula over
    the paths of the shape quiver."""
    from arcat import complexes as cx
    spec_p = coil.padded.spec
    lp = cx.pad_chain_map(l, spec_p) if l.src.spec != spec_p else l
    s = cx.find_null_homotopy(lp)
    length = spec_p.window_len
    src = lp.src
    injections = coil_injections(coil)
    comps = {}
    for i in spec_p.degrees():
        cur = zero_map(src.components[i], coil.source.components[i])
        for t, j in enumerate(coil.blocks):
            inj = injections[t].comps[i]
            if spec_p.cyclic and spec_p.shape.order == 1:
                first = src.d(0).then(s[0])
                block = ModuleMap(src.components[0], inj.src,
                                  {c: vstack([first.comps[c], s[0].comps[c]])
                                   for c in src.coeff.objects}, validate=False)
                cur = cur.add(block.then(inj))
                continue
            for k in range(length):
                if spec_p.wrap(j + k) != i:
                    continue
                top = spec_p.wrap(j + length - 1)
                walk = cx._composite_or_none(src, i, (j + length - 1) - i
                                             if not spec_p.cyclic
                                             else (top - i) % spec_p.shape.order)
                cur = cur.add(walk.then(s[top]).then(inj))
        comps[i] = cur
    return QRepMap(src, coil.source, comps)


# ---------------------------------------------------------------------------
# the routes that the representables, unit values and block injections
# replaced, kept as oracles


def reference_category_check(fld: Field, objects, hom, comp, units, radical):
    """The category laws one scalar composite at a time: the unit laws on
    every basis element, associativity on every basis triple and the
    radical ideal property on every basis pair.  Raises PreconditionError
    where FinCategory's validation must refuse: the oracle for its checks
    on the matrices of the representables."""
    zero, one = fld.zero(), fld.one()

    def basis(x, y, i):
        return tuple(one if k == i else zero for k in range(len(hom[(x, y)])))

    def compose(x, y, z, f, g):
        out = [zero] * len(hom[(x, z)])
        for (i, j), entry in comp.get((x, y, z), {}).items():
            for k, v in entry.items():
                out[k] = fld.add(out[k], fld.mul(fld.mul(f[i], g[j]), v))
        return tuple(out)

    def radical_coords(x, y, coords):
        return all(c == zero for i, c in enumerate(coords) if i not in radical[(x, y)])

    for x in objects:
        for y in objects:
            if (x, y) not in hom:
                raise PreconditionError(f"missing hom table for {(x, y)}")
    for x in objects:
        if len(units[x]) != len(hom[(x, x)]) or radical_coords(x, x, units[x]):
            raise PreconditionError(f"bad unit of {x}")
        for y in objects:
            for i in range(len(hom[(x, y)])):
                f = basis(x, y, i)
                if compose(x, x, y, units[x], f) != f or compose(x, y, y, f, units[y]) != f:
                    raise PreconditionError(f"unit law fails at {(x, y)}")
    for w, x, y, z in itertools.product(objects, repeat=4):
        for i, j, k in itertools.product(range(len(hom[(w, x)])), range(len(hom[(x, y)])),
                                         range(len(hom[(y, z)]))):
            f, g, h = basis(w, x, i), basis(x, y, j), basis(y, z, k)
            if (compose(w, y, z, compose(w, x, y, f, g), h)
                    != compose(w, x, z, f, compose(x, y, z, g, h))):
                raise PreconditionError(f"associativity fails at {(w, x, y, z)}")
    for x, y, z in itertools.product(objects, repeat=3):
        for i, j in itertools.product(range(len(hom[(x, y)])), range(len(hom[(y, z)]))):
            if ((i in radical[(x, y)] or j in radical[(y, z)])
                    and not radical_coords(x, z, compose(x, y, z, basis(x, y, i),
                                                         basis(y, z, j)))):
                raise PreconditionError(f"radical not an ideal at {(x, y, z)}")


def reference_compose(cat: FinCategory, x, y, z, f, g) -> tuple:
    """Coordinates of g o f for f: x -> y, g: y -> z, by a walk of
    comp[(x, y, z)] with the field's scalar arithmetic: the oracle of
    FinCategory.compose, which acts through the representable Hom(-, z)."""
    fld = cat.field
    zero = fld.zero()
    out = [zero] * cat.dim(x, z)
    table = cat.comp.get((x, y, z), {})
    for i, fi in enumerate(f):
        if fi == zero:
            continue
        for j, gj in enumerate(g):
            if gj == zero:
                continue
            entry = table.get((i, j))
            if not entry:
                continue
            c = fld.mul(fi, gj)
            for k, v in entry.items():
                out[k] = fld.add(out[k], fld.mul(c, v))
    return tuple(out)


def reference_pre_matrix(cat: FinCategory, f: AddMor, z: AddObject) -> Mat:
    """The matrix of g -> g o f, flat Hom(f.tgt, z) -> flat Hom(f.src, z),
    by a walk of the comp tables block by block: the oracle of
    Hull.pre_matrix, which is the Yoneda matrix of f on Hom(-, z)."""
    fld = cat.field
    zero, add, mul = fld.zero(), fld.add, fld.mul
    hull = Hull(cat)
    src_off, cols = hull._layout(f.tgt, z)
    tgt_off, rows = hull._layout(f.src, z)
    data = [zero] * (rows * cols)
    for i, xs in enumerate(f.src.summands):
        for j, ys in enumerate(f.tgt.summands):
            fb = f.blocks[j][i]
            for k, zs in enumerate(z.summands):
                table = cat.comp.get((xs, ys, zs))
                if not table:
                    continue
                r0, c0 = tgt_off[i][k], src_off[j][k]
                for (a, b), entry in table.items():
                    s = fb[a]
                    if s == zero:
                        continue
                    for t, v in entry.items():
                        idx = (r0 + t) * cols + c0 + b
                        data[idx] = add(data[idx], mul(s, v))
    return Mat(fld, rows, cols, data)


def reference_unit_values(psum, phi: ModuleMap) -> Mat:
    """The values of phi: Hom(-, X) -> n at the units of the summands of
    psum = Hom(-, X), stacked in order into one column: phi read by Yoneda,
    one unit vector of flat Hom(x_k, X) at a time."""
    cat = psum.cat
    vals = []
    for k, x in enumerate(psum.vertices):
        unit = [cat.field.zero()] * psum.module.dims[x]
        off = sum(cat.dim(x, v) for v in psum.vertices[:k])
        unit[off:off + cat.dim(x, x)] = cat.units[x]
        vals.extend((phi.comps[x] @ Mat.column(cat.field, unit)).data)
    return Mat.column(cat.field, vals)


def reference_syzygy(pres) -> AddMor:
    """A block morphism P2 -> P1 whose image is the kernel of the
    differential of pres: one summand y of X2 per vector of the kernel
    basis of the differential's component at y, sent to that vector of
    P1(y) = flat Hom(y, X1).  The oracle for the syzygy that
    modcat.Presentation keeps, read off the second cover instead."""
    cat = pres.p1.cat
    kernels = [(y, pres.differential.comps[y].kernel_basis()) for y in cat.objects]
    x2 = AddObject(tuple(y for y, k in kernels for _ in range(k.cols)))
    values = [v for _, k in kernels for v in k.transpose().data]
    return Hull(cat).unflatten(x2, pres.p1.obj, Mat.column(cat.field, values))


class ReferenceExt1:
    """Ext^1(z, x) on the syzygy K of the minimal presentation of z: the
    cocycles are the naturality-solve basis of hom_space(K, x), the
    coboundaries the restrictions to K of the basis of hom_space(P0, x),
    and each map xi: K -> x is read on P1 as the column of its values
    xi(t_i) at the unit values t_i of the second cover P1 -> K (`on_p1`).
    representatives holds the chosen cocycles so read, representative_maps
    the maps K -> x themselves, and classes takes columns, as in
    modcat.Ext1.  The oracle for modcat.Ext1, which takes the cocycles as
    the kernel of the Yoneda matrix of the syzygy P2 -> P1 and solves no
    hom space."""

    def __init__(self, z: CModule, x: CModule):
        self.z, self.x = z, x
        self.pres = minimal_presentation(z)
        kernel = self.pres.kernel
        self.lifts = modcat._cover_map(kernel.module)[2]
        self.cocycle_basis = hom_space(kernel.module, x)
        restricted = [self.on_p1(kernel.include.then(psi))
                      for psi in hom_space(self.pres.p0.module, x)]
        rows = sum(x.dims[u] for u in self.pres.p1.vertices)
        combined = hstack([Mat.zeros(z.cat.field, rows, 0)] + restricted
                          + [self.on_p1(b) for b in self.cocycle_basis])
        span, pivots = combined.column_space_basis()
        self._span = span
        self._class_slots = [t for t, p in enumerate(pivots) if p >= len(restricted)]
        self.representative_maps = [self.cocycle_basis[pivots[t] - len(restricted)]
                                    for t in self._class_slots]
        self.representatives = [self.on_p1(xi) for xi in self.representative_maps]
        self.dim = len(self.representatives)

    def on_p1(self, xi: ModuleMap) -> Mat:
        """xi o cover_1 as the column of the xi(t_i), one block per summand
        of P1."""
        return Mat.column(self.x.cat.field,
                          [v for u, t in zip(self.pres.p1.vertices, self.lifts)
                           for v in (xi.comps[u] @ t).data])

    def classes(self, cocycles: Mat) -> Mat:
        """Class coordinates in the basis of representatives, one column per
        column of cocycles."""
        coords = solve(self._span, cocycles)
        if coords is None:
            raise PreconditionError("cocycle is not in the expected hom space")
        return Mat(self._span.field, self.dim, cocycles.cols,
                   [coords.at(t, j) for t in self._class_slots for j in range(cocycles.cols)])


def reference_extension_from_cocycle(ext: ReferenceExt1, xi: ModuleMap) -> ShortExact:
    """The pushout of the syzygy inclusion K -> P0 along the cocycle
    xi: K -> x: the cokernel of the validated pair (xi, -incl): K -> x + P0,
    checked exact.  The oracle of modcat.extension_from_cocycle, which
    pushes out P1 -> P0 along the cocycle's unit values instead."""
    kernel = ext.pres.kernel
    xp, injs, projs = direct_sum([ext.x, ext.pres.p0.module])
    phi = ModuleMap(kernel.module, xp,
                    {o: vstack([xi.comps[o], -kernel.include.comps[o]])
                     for o in ext.z.cat.objects}, validate=True)
    ck = cokernel_module(phi)
    include = injs[0].then(ck.project)
    project = factor_through_cokernel(ck, projs[1].then(ext.pres.cover))
    se = ShortExact(ext.x, ck.module, ext.z, include, project)
    check_short_exact(se)
    return se


def reference_proj_sum_matrix(src, tgt, phi: ModuleMap) -> AddMor:
    """The block morphism g: X -> Y with proj_sum_map(src, tgt, g) = phi,
    read back off phi by Yoneda (`reference_unit_values`): the blocks out of
    summand k are the image under phi of the unit of that summand, a column
    of flat Hom(x_k, Y).  The oracle for the presentation matrix, which
    modcat reads off the second cover's unit values."""
    return Hull(src.cat).unflatten(src.obj, tgt.obj, reference_unit_values(src, phi))


def reference_end_action_on_kernel(pres, theta: ModuleMap) -> ModuleMap:
    """The lift of theta through the cover solved over the basis of
    hom_space(P0, P0), then restricted to the presentation kernel: the
    oracle for modcat._end_action_on_kernel's lift from unit values."""
    p = pres.cover
    hom_pp = hom_space(pres.p0.module, pres.p0.module)
    sol = solve(hstack([flatten_map(b.then(p)) for b in hom_pp]), flatten_map(p.then(theta)))
    theta0 = map_from_coords(hom_pp, tuple(sol.col(0)))
    kappa = pres.kernel.include
    return ModuleMap(pres.kernel.module, pres.kernel.module,
                     {x: solve(kappa.comps[x], theta0.comps[x] @ kappa.comps[x])
                      for x in pres.p0.cat.objects})


def reference_sum_injections(fld: Field, total: int, sizes):
    """(injections, projections) of the leading blocks of the given sizes in
    k^total, one entry at a time, as direct_sum built them: the oracle for
    modcat._block_injections and its transposes."""
    one, zero = fld.one(), fld.zero()
    injections, projections, off = [], [], 0
    for d in sizes:
        inj, prj = [zero] * (total * d), [zero] * (d * total)
        for c in range(d):
            inj[(off + c) * d + c] = one
            prj[c * total + off + c] = one
        injections.append(Mat(fld, total, d, inj))
        projections.append(Mat(fld, d, total, prj))
        off += d
    return injections, projections


def reference_unit_block(fld: Field, count: int, d: int) -> Mat:
    """kron(e_1, 1_d): the first of count blocks of size d."""
    unit = Mat(fld, count, 1, [fld.one()] + [fld.zero()] * (count - 1))
    return kron(unit, Mat.identity(fld, d))


def reference_dualized(m: CModule) -> ModuleMap:
    """g*: P0* -> P1* by the transposed block route: g^op, the block
    morphism X0 -> X1 over the opposite category with the transposed blocks
    of the presentation matrix, and g* = Hom_op(-, g^op) by proj_sum_map.
    The oracle of modcat._dualized, which reads g*'s components off the
    Yoneda matrices."""
    pres = minimal_presentation(m)
    g = pres.matrix
    op = opposite_category(m.cat)
    blocks = tuple(tuple(row[i] for row in g.blocks) for i in range(len(g.src.summands)))
    return proj_sum_map(proj_sum(op, pres.p0.vertices), proj_sum(op, pres.p1.vertices),
                        AddMor(g.tgt, g.src, blocks))


def reference_entrywise(op, f: AddMor, g: AddMor) -> AddMor:
    """op applied coordinate by coordinate to the nested block tuples of f
    and g: the oracle of Hull.add and Hull.sub."""
    return AddMor(f.src, f.tgt,
                  tuple(tuple(tuple(map(op, fb, gb)) for fb, gb in zip(frow, grow))
                        for frow, grow in zip(f.blocks, g.blocks)))


def reference_scale(fld: Field, c, f: AddMor) -> AddMor:
    """c f block by block, the oracle of Hull.scale."""
    return AddMor(f.src, f.tgt, tuple(tuple(tuple(fld.mul(c, a) for a in fb) for fb in row)
                                      for row in f.blocks))


def reference_zero_mor(cat: FinCategory, x: AddObject, y: AddObject) -> AddMor:
    """The zero block morphism from zero_coords, the oracle of Hull.zero_mor."""
    return AddMor(x, y, tuple(tuple(cat.zero_coords(xs, ys) for xs in x.summands)
                              for ys in y.summands))


def reference_identity(cat: FinCategory, x: AddObject) -> AddMor:
    """The units on the diagonal blocks and zero_coords elsewhere, the oracle
    of Hull.identity."""
    return AddMor(x, x, tuple(tuple(tuple(cat.units[xs]) if i == j else cat.zero_coords(xs, ys)
                                    for i, xs in enumerate(x.summands))
                              for j, ys in enumerate(x.summands)))


def reference_is_zero_mor(fld: Field, f: AddMor) -> bool:
    """Every coordinate of every block is zero: the oracle of Hull.is_zero_mor."""
    return all(c == fld.zero() for row in f.blocks for cell in row for c in cell)


def reference_composite_or_none(z, j: int, count: int):
    """d^{j+count-1} ... d^j by the degree walk, one `then` per differential
    from the identity at degree j, or None as soon as a degree leaves the
    shape: the oracle of complexes._composite_or_none."""
    start = z.spec.wrap(j)
    if start is None:
        return None
    cur = identity_map(z.components[start])
    for k in range(count):
        w = z.spec.wrap(j + k)
        if w is None or w not in z.spec.diff_degrees():
            return None
        cur = cur.then(z.d(w))
    return cur


def reference_almost_split_sequence(z: CModule, family: List[CModule]):
    """The almost split sequence ending at z by the route that takes no
    recorded translate, and the index of its left term in family: the
    sequence at a fresh copy of z, which tau_inverse recorded nothing on
    and handed no presentation, so its left term is D Tr of the copy
    (`modcat._transpose_raw`), off a fresh minimal presentation; that term
    is then found in family by an is_isomorphic scan over the modules of
    its dimension vector, as knitting registered it before the translate
    was handed over.  The oracle for the sequence knitting memoises on z."""
    fresh = CModule(z.cat, z.dims, z.action)
    ass = modcat.almost_split_sequence(fresh)
    assert ass.tau_module == modcat.duality_D(modcat._transpose_raw(fresh))
    idx = next(i for i, m in enumerate(family)
               if m.dims == ass.tau_module.dims and is_isomorphic(ass.tau_module, m) is not None)
    return ass, idx
