"""Seeded input builders for the benchmark workloads.

These mirror the random generators of the test suite but live here, so the
benchmark's inputs change only when the benchmark changes.  Each builder
draws sizes and summands from `shape` and coordinates, base changes and
map entries from `rng`, both `random.Random`: the workloads fix `shape`
so that every seed gives inputs of the same sizes, and so the same cost.
"""

from arcat.fincat import point_category
from arcat.linalg import Mat, hstack, vstack
from arcat.modcat import (CModule, conjugate_module, direct_sum, flatten_map,
                          hom_space, zero_map, zero_module)
from arcat.quiver import (BoundQuiver, MonomialIdeal, Path, cyclic_quiver,
                          linear_quiver)
from arcat.repcat import QRep


def a_m_rad_n(m, n=None):
    """A_m = 1 -> 2 -> ... -> m, modulo the paths of length n (None: no ideal)."""
    gens = []
    if n is not None:
        for i in range(1, m - n + 1):
            gens.append(Path(str(i), str(i + n),
                             tuple(f"a{i + k}" for k in range(n))))
    return BoundQuiver(linear_quiver(m), MonomialIdeal(frozenset(gens)))


def cyclic_rad2(n):
    """The oriented n-cycle 0 -> 1 -> ... -> 0 modulo all paths of length 2."""
    gens = [Path(str(i), str((i + 2) % n), (f"a{i}", f"a{(i + 1) % n}"))
            for i in range(n)]
    return BoundQuiver(cyclic_quiver(n), MonomialIdeal(frozenset(gens)))


def point_pool(field):
    """The point category and its one indecomposable module."""
    cat = point_category(field)
    one = CModule(cat, {"pt": 1}, {("pt", "pt", 0): Mat.identity(field, 1)})
    return cat, [one]


def rand_mat(field, rows, cols, rng):
    return Mat(field, rows, cols, [field.random(rng) for _ in range(rows * cols)])


def rand_invertible(field, n, rng):
    while True:
        g = rand_mat(field, n, n, rng)
        if g.inverse() is not None:
            return g


def scramble(m, rng):
    """m in random coordinates: an invertible base change at every object."""
    mats = {x: rand_invertible(m.cat.field, m.dims[x], rng) for x in m.cat.objects}
    return conjugate_module(m, mats)[0]


def rand_module(pool, cat, rng, shape, max_total=3):
    """A random direct sum from the pool, in scrambled coordinates."""
    parts = []
    total = 0
    budget = shape.randint(0, max_total)
    for _ in range(12):
        piece = shape.choice(pool)
        if total + piece.total_dim() <= budget:
            parts.append(piece)
            total += piece.total_dim()
    m = direct_sum(parts, cat)[0] if parts else zero_module(cat)
    return scramble(m, rng)


def nonzero_module(pool, cat, rng, shape):
    while True:
        m = rand_module(pool, cat, rng, shape)
        if m.total_dim() > 0:
            return m


def rand_hom(src, tgt, rng):
    """A random natural map, sampled from the hom-space basis."""
    fld = src.cat.field
    cur = zero_map(src, tgt)
    for b in hom_space(src, tgt):
        cur = cur.add(b.scale(fld.random(rng)))
    return cur


def _chain(sampled, names):
    cur = None
    for name in names:
        step = sampled[name]
        cur = step if cur is None else cur.then(step)
    return cur


def rand_qrep(bq, coeff, pool, rng, shape, max_total=3):
    """A random representation of bq with coefficients in coeff-modules.

    Each arrow map is sampled inside the subspace cut out by the relations
    whose other arrows are already fixed, so every relation holds.
    """
    fld = coeff.field
    arrows = {a.name: a for a in bq.quiver.arrows}
    mods = {v: rand_module(pool, coeff, rng, shape, max_total) for v in bq.quiver.vertices}
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
        ker = vstack(blocks).kernel_basis() if blocks else Mat.identity(fld, len(basis))
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


def rand_complex(spec, coeff, pool, rng, shape, max_total=3):
    from arcat.complexes import build_category, from_rep
    return from_rep(spec, rand_qrep(build_category(spec), coeff, pool, rng,
                                    shape, max_total))


def rand_homotopy(src, tgt, rng):
    """Random degreewise maps shaped like a homotopy between two complexes."""
    spec = src.spec
    s = {}
    for i in spec.degrees():
        t = spec.wrap(i - (spec.window_len - 1))
        if t is not None:
            s[i] = rand_hom(src.components[i], tgt.components[t], rng)
    return s
