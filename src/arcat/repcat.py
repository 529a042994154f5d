"""Representations of a bound quiver with coefficients in a module category.

A QRep assigns to each vertex a CModule over a fixed coefficient category
and to each arrow a ModuleMap; validating it validates each of those and
verifies that the monomial relations vanish.  A QRepMap is a family of vertexwise ModuleMaps, each validated as
a map of coefficient modules, commuting with every arrow; maps into one
representation are validated together (morphism_failures), each square
once for all of them, and a single map is the case of one.  These are the
only such classes: an n-complex (complexes.NComplex) is a QRep of its
shape quiver and a chain map is a QRepMap.  phi and psi repackage
representations exactly as modules over the tensor product of the
opposite path category with the coefficient category, and are mutually
inverse on the nose.

Validation follows modcat's one rule: a representation or morphism is
validated when it is built from data given from outside or when the check
is the certificate of a public answer (check_adjunction's transposes,
lemma2_cover's map).  Everything derived from valid inputs is built
unvalidated, with its proof in its docstring: phi, psi and their maps
(restrictions along functors), the adjunction unit and sharp, induced
representations, direct sums, injections and copairs.

The induced representation f_star_v(p) puts one copy of p at w for every
surviving path q: v -> w, and acts by path-shift matrices: an arrow a sends
copy q to copy q.a, or to zero when q.a is killed, one block matrix per
coefficient object.  Direct sums of representations, their block-column
injections, copairs out of them, and the transposition sharp across the
evaluation adjunction are assembled the same way, blockwise with
modcat.sum_map, modcat._block_injections and modcat.copair.
check_adjunction certifies the adjunction by computing both hom spaces
independently and verifying the two transposition maps are mutually inverse
on bases, the transposes of each direction validated together;
lemma2_cover assembles the canonical projective cover of a representation
from the f_star_v of vertexwise covers.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PreconditionError, VerificationError
from .fincat import FinCategory, category_of, opposite_category, tensor_product
from .linalg import Mat, equation_matrix, hstack, split_blocks
from .modcat import (CModule, ModuleMap, _block_injections, _cover_map, copair, hom_space,
                     identity_map, naturality_equations, sum_map, sum_module, zero_map,
                     zero_module)
from .quiver import BoundQuiver, Path


class QRep:
    """A representation: vertex modules over the coefficients, arrow maps."""

    def __init__(self, bq: BoundQuiver, coeff: FinCategory,
                 vertex_modules: Dict, arrow_maps: Dict, validate: bool = True):
        self.bq = bq
        self.coeff = coeff
        self.vertex_modules = dict(vertex_modules)
        self.arrow_maps = dict(arrow_maps)
        if validate:
            self._validate()

    def _validate(self):
        """Check the vertex modules, the arrow maps' endpoints, each vertex
        module's and arrow map's own laws (CModule._validate,
        ModuleMap._validate), and that every relation vanishes, shortest
        first and then by source vertex.  A relation through a zero arrow
        map vanishes without a product."""
        vertices = self.bq.quiver.vertices
        for v in vertices:
            m = self.vertex_modules.get(v)
            if m is None or not (m.cat is self.coeff or m.cat == self.coeff):
                raise PreconditionError(f"missing or foreign module at vertex {v!r}")
        for a in self.bq.quiver.arrows:
            f = self.arrow_maps.get(a.name)
            if f is None:
                raise PreconditionError(f"missing arrow map for {a.name!r}")
            if f.src != self.vertex_modules[a.source] or f.tgt != self.vertex_modules[a.target]:
                raise PreconditionError(f"arrow map endpoints wrong for {a.name!r}")
        for v in vertices:
            self.vertex_modules[v]._validate()
        for a in self.bq.quiver.arrows:
            self.arrow_maps[a.name]._validate()
        zero = {name: f.is_zero() for name, f in self.arrow_maps.items()}
        for gen in sorted(self.bq.ideal.generators,
                          key=lambda p: (p.length, vertices.index(p.source), p.arrows)):
            if not any(zero[a] for a in gen.arrows) and not self.path_map(gen).is_zero():
                raise PreconditionError(self._relation_failure(gen))

    def _relation_failure(self, gen: Path) -> str:
        return f"relation {gen!r} does not vanish"

    def path_map(self, p: Path) -> ModuleMap:
        """The composite map along a path, arrows applied in storage order."""
        cur = identity_map(self.vertex_modules[p.source])
        for name in p.arrows:
            cur = cur.then(self.arrow_maps[name])
        return cur

    def total_dim(self) -> int:
        return sum(m.total_dim() for m in self.vertex_modules.values())

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.vertex_modules.values())

    def __eq__(self, other):
        return (isinstance(other, QRep) and self.bq == other.bq
                and self.coeff == other.coeff
                and self.vertex_modules == other.vertex_modules
                and self.arrow_maps == other.arrow_maps)

    __hash__ = object.__hash__

    def __repr__(self):
        dims = {v: m.total_dim() for v, m in self.vertex_modules.items()}
        return f"QRep({dims})"


class QRepMap:
    """A morphism of representations: vertexwise maps commuting with arrows."""

    def __init__(self, src: QRep, tgt: QRep, comps: Dict, validate: bool = True):
        self.src = src
        self.tgt = tgt
        self.comps = dict(comps)
        if validate:
            self._validate()

    def _validate(self):
        """The checks of `morphism_failures`, on this map alone."""
        validate_morphisms(self.tgt, [self])

    def then(self, other: "QRepMap") -> "QRepMap":
        comps = {v: self.comps[v].then(other.comps[v]) for v in self.comps}
        return QRepMap(self.src, other.tgt, comps, validate=False)

    def add(self, other: "QRepMap") -> "QRepMap":
        comps = {v: self.comps[v].add(other.comps[v]) for v in self.comps}
        return QRepMap(self.src, self.tgt, comps, validate=False)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps.values())

    def is_surjective(self) -> bool:
        return all(f.is_surjective() for f in self.comps.values())

    def __eq__(self, other):
        return (isinstance(other, QRepMap) and self.src == other.src
                and self.tgt == other.tgt and self.comps == other.comps)

    __hash__ = object.__hash__


def morphism_failures(tgt: QRep, maps: Sequence[QRepMap]) -> List[Optional[str]]:
    """Why each of maps into tgt is not a morphism of representations, or
    None where it is: QRepMap._validate's checks, made for all the maps at
    once, with each map's first failure.

    Vertex by vertex, each map's component there must join its vertex
    modules, over one category with the right shapes
    (ModuleMap._shape_failure), and be natural on the squares of
    modcat._squares; then every arrow's square must commute.  The components
    of the maps still passing are stacked side by side, and each square is
    one comparison (`_stacked_mismatches`): at a vertex and a square
    (x, y, i) of the coefficients, tgt(f_i) @ hstack(X_k,y) against
    hstack(X_k,x @ src_k(f_i)); at an arrow a: v -> w and an object c,
    tgt(a)(c) @ hstack(X_k,v(c)) against hstack(X_k,w(c) @ src_k(a)(c)).
    Column block k of each side is map k's square, so the sides agree
    exactly when every map's square holds, and on a mismatch the blocks
    that differ name the maps that fail.
    """
    failures: List[Optional[str]] = [None] * len(maps)
    for k, f in enumerate(maps):
        if f.tgt is not tgt and f.tgt != tgt:
            failures[k] = "map into another representation"
        elif f.src.bq is not tgt.bq and f.src.bq != tgt.bq:
            failures[k] = "map between representations of different quivers"

    def passing(v, c) -> List[int]:
        """The maps with no failure yet and a nonempty column block at v, c."""
        return [k for k, failure in enumerate(failures)
                if failure is None and maps[k].src.vertex_modules[v].dims[c]]

    for v in tgt.bq.quiver.vertices:
        n = tgt.vertex_modules[v]
        for k, f in enumerate(maps):
            if failures[k] is not None:
                continue
            comp = f.comps.get(v)
            m = f.src.vertex_modules[v]
            if comp is None:
                failures[k] = f"missing component at vertex {v!r}"
            elif (comp.src is not m and comp.src != m) or (comp.tgt is not n and comp.tgt != n):
                failures[k] = f"component endpoints wrong at {v!r}"
            else:
                failures[k] = comp._shape_failure()
        cat = n.cat
        for x, y in ((x, y) for x in cat.objects if n.dims[x] for y in cat.objects):
            for i in cat._non_unit_indices(x, y):
                key = (x, y, i)
                ks = passing(v, y)
                if not ks:
                    break
                comps = [maps[k].comps[v] for k in ks]
                for j in _stacked_mismatches(n.action[key], [g.comps[y] for g in comps],
                                             [g.comps[x] @ g.src.action[key] for g in comps]):
                    failures[ks[j]] = f"naturality fails at {key}"
    for a in tgt.bq.quiver.arrows:
        bad = set()
        for c in tgt.coeff.objects:
            ks = passing(a.source, c)
            if ks and tgt.vertex_modules[a.target].dims[c]:
                bad.update(ks[j] for j in _stacked_mismatches(
                    tgt.arrow_maps[a.name].comps[c],
                    [maps[k].comps[a.source].comps[c] for k in ks],
                    [maps[k].comps[a.target].comps[c] @ maps[k].src.arrow_maps[a.name].comps[c]
                     for k in ks]))
        for k in bad:
            failures[k] = f"square at arrow {a.name!r} does not commute"
    return failures


def _stacked_mismatches(fixed: Mat, comps: Sequence[Mat], sides: Sequence[Mat]) -> List[int]:
    """The positions k where fixed @ comps[k] differs from sides[k], from one
    product fixed @ hstack(comps) against hstack(sides), read block by block
    only when the two differ."""
    left = fixed @ hstack(comps)
    if left.data == hstack(sides).data:
        return []
    bad, off, width = [], 0, left.cols
    for k, side in enumerate(sides):
        c = side.cols
        if any(left.data[r * width + off:r * width + off + c] != side.data[r * c:r * c + c]
               for r in range(left.rows)):
            bad.append(k)
        off += c
    return bad


def validate_morphisms(tgt: QRep, maps: Sequence[QRepMap]):
    """Raises PreconditionError with the first failure that
    `morphism_failures` finds among maps, in their order."""
    for failure in morphism_failures(tgt, maps):
        if failure is not None:
            raise PreconditionError(failure)


def zero_rep(bq: BoundQuiver, coeff: FinCategory) -> QRep:
    z = zero_module(coeff)
    return QRep(bq, coeff, {v: z for v in bq.quiver.vertices},
                {a.name: zero_map(z, z) for a in bq.quiver.arrows}, validate=False)


def rep_direct_sum(reps: List[QRep], bq: BoundQuiver, coeff: FinCategory) -> QRep:
    """The vertexwise sum_module of reps, in order, each arrow acting by
    the block sum of its maps (sum_map)."""
    vertex_modules = {v: sum_module([r.vertex_modules[v] for r in reps], coeff)
                      for v in bq.quiver.vertices}
    arrow_maps = {a.name: sum_map(vertex_modules[a.source], vertex_modules[a.target],
                                  [r.arrow_maps[a.name] for r in reps])
                  for a in bq.quiver.arrows}
    return QRep(bq, coeff, vertex_modules, arrow_maps, validate=False)


def rep_injections(total: QRep, reps: Sequence[QRep]) -> List[QRepMap]:
    """The injections of the leading summands reps of total =
    rep_direct_sum(reps + rest), built unvalidated: each component is a
    block column (modcat._block_injections), which commutes with the
    block-diagonal actions and arrow maps."""
    coeff, vertices = total.coeff, total.bq.quiver.vertices
    blocks = {(v, c): _block_injections(coeff.field, total.vertex_modules[v].dims[c],
                                        [r.vertex_modules[v].dims[c] for r in reps])
              for v in vertices for c in coeff.objects}
    out = []
    for k, r in enumerate(reps):
        comps = {v: ModuleMap(r.vertex_modules[v], total.vertex_modules[v],
                              {c: blocks[(v, c)][k] for c in coeff.objects}, validate=False)
                 for v in vertices}
        out.append(QRepMap(r, total, comps, validate=False))
    return out


def rep_copair(src: QRep, tgt: QRep, maps: Sequence[QRepMap]) -> QRepMap:
    """The map out of the direct sum src whose restriction to summand k is
    maps[k], vertexwise by copair, built unvalidated: src's arrow maps are
    block diagonal, so it is a morphism iff every maps[k] is."""
    return QRepMap(src, tgt, {v: copair(src.vertex_modules[v], tgt.vertex_modules[v],
                                        [f.comps[v] for f in maps])
                              for v in src.bq.quiver.vertices}, validate=False)


# ---------------------------------------------------------------------------
# the equivalence with modules over the tensor category


def tensor_base(bq: BoundQuiver, coeff: FinCategory) -> FinCategory:
    """The tensor category hosting phi images: op path category times coeff."""
    return tensor_product(opposite_category(category_of(bq, coeff.field)), coeff)


def phi(r: QRep, base: Optional[FinCategory] = None) -> CModule:
    """Repackages a representation as a module over the tensor category.

    Built unvalidated: p (x) f, for a surviving path p: y -> x of the quiver
    and f: c -> d, acts by r(p) at c followed by r_y(f).  A unit, the
    trivial path (x) a unit of the coefficients, acts by the identity.  The
    path maps compose along concatenation, a killed concatenation acts by
    zero since r's relations vanish, and r(p) is natural in the
    coefficients, so the action is functorial.
    """
    t = base if base is not None else tensor_base(r.bq, r.coeff)
    bop = t.meta["b"]
    coeff = t.meta["a"]
    dims = {(v, c): r.vertex_modules[v].dims[c] for v in bop.objects for c in coeff.objects}
    path_maps: Dict[Tuple, ModuleMap] = {}

    def composite(y, x, label) -> ModuleMap:
        key = (y, x, label)
        if key not in path_maps:
            path_maps[key] = r.path_map(Path(y, x, label))
        return path_maps[key]

    action = {}
    for (x, c) in t.objects:
        for (y, d) in t.objects:
            da = coeff.dim(c, d)
            for idx in range(t.dim((x, c), (y, d))):
                ib, ia = divmod(idx, da)
                label = bop.hom[(x, y)][ib]
                rp = composite(y, x, label)
                action[((x, c), (y, d), idx)] = (
                    rp.comps[c] @ r.vertex_modules[y].action[(c, d, ia)])
    return CModule(t, dims, action, validate=False)


def psi(m: CModule) -> QRep:
    """Reads a representation back off a module over the tensor category.

    Built unvalidated: the vertex module at v is m restricted along the
    functor c -> (v, c), f -> 1_v (x) f, and so a module.  The arrow a: v ->
    w acts by m(a (x) 1_c), natural in c since (a (x) 1)(1 (x) f) =
    a (x) f = (1 (x) f)(a (x) 1) in the tensor category.  A monomial
    generator g is zero in the path category, so the product of its
    arrows' actions is m(g (x) 1) = 0 and the relations vanish.
    """
    t = m.cat
    if t.meta.get("kind") != "tensor":
        raise PreconditionError("module is not over a tensor product category")
    bop = t.meta["b"]
    coeff = t.meta["a"]
    if bop.meta.get("kind") != "opposite" or bop.meta["base"].meta.get("kind") != "path":
        raise PreconditionError("tensor factor is not an opposite path category")
    bq = bop.meta["base"].meta["bq"]
    fld = t.field
    vertex_modules = {}
    for v in bq.quiver.vertices:
        unit_idx = bop.hom[(v, v)].index(())
        dims = {c: m.dims[(v, c)] for c in coeff.objects}
        action = {}
        for c in coeff.objects:
            for d in coeff.objects:
                da = coeff.dim(c, d)
                for ia in range(da):
                    action[(c, d, ia)] = m.action[((v, c), (v, d), unit_idx * da + ia)]
        vertex_modules[v] = CModule(coeff, dims, action, validate=False)
    arrow_maps = {}
    for a in bq.quiver.arrows:
        v, w = a.source, a.target
        arrow_idx = bop.hom[(w, v)].index((a.name,))
        comps = {}
        for c in coeff.objects:
            da = coeff.dim(c, c)
            coords = [fld.zero()] * t.dim((w, c), (v, c))
            for ia, u in enumerate(coeff.units[c]):
                coords[arrow_idx * da + ia] = u
            comps[c] = m.act((w, c), (v, c), tuple(coords))
        arrow_maps[a.name] = ModuleMap(vertex_modules[v], vertex_modules[w],
                                       comps, validate=False)
    return QRep(bq, coeff, vertex_modules, arrow_maps, validate=False)


def psi_map(f: ModuleMap, src: Optional[QRep] = None,
            tgt: Optional[QRep] = None) -> QRepMap:
    """Transports a map of tensor-category modules to representations, src
    and tgt being psi(f.src) and psi(f.tgt) when given.  Built unvalidated:
    the naturality of f at 1_v (x) g and at a (x) 1_c is that of each
    vertex component and the commuting square of each arrow."""
    if src is None:
        src = psi(f.src)
    if tgt is None:
        tgt = psi(f.tgt)
    comps = {}
    for v in src.bq.quiver.vertices:
        comps[v] = ModuleMap(src.vertex_modules[v], tgt.vertex_modules[v],
                             {c: f.comps[(v, c)] for c in src.coeff.objects},
                             validate=False)
    return QRepMap(src, tgt, comps, validate=False)


def phi_map(f: QRepMap, base: Optional[FinCategory] = None) -> ModuleMap:
    """Transports a map of representations to tensor-category modules.
    Built unvalidated: f is natural in the coefficients at every vertex and
    commutes with every arrow, so with every p (x) g (see phi)."""
    src = phi(f.src, base)
    tgt = phi(f.tgt, base)
    comps = {(v, c): f.comps[v].comps[c]
             for v in f.src.bq.quiver.vertices for c in f.src.coeff.objects}
    return ModuleMap(src, tgt, comps, validate=False)


def qrep_hom(r: QRep, s: QRep) -> List[QRepMap]:
    """A basis of representation morphisms by one combined linear kernel.

    The unknowns are the components X_(v,c), natural in c at every vertex v,
    and every arrow a: v -> w gives X_(w,c) r_a(c) = s_a(c) X_(v,c).  This
    is solved on its own rather than through `phi` and `hom_space`, so that
    `check_adjunction` compares two independent computations.
    """
    if r.bq != s.bq or r.coeff != s.coeff:
        raise PreconditionError("representations over different data")
    coeff = r.coeff
    fld = coeff.field
    vertices = r.bq.quiver.vertices
    shapes = {(v, c): (s.vertex_modules[v].dims[c], r.vertex_modules[v].dims[c])
              for v in vertices for c in coeff.objects}
    if not any(p * q for p, q in shapes.values()):
        return []
    equations = []
    for v in vertices:
        equations += naturality_equations(r.vertex_modules[v], s.vertex_modules[v],
                                          lambda c, v=v: (v, c))
    for arr in r.bq.quiver.arrows:
        v, w = arr.source, arr.target
        for c in coeff.objects:
            p, q = s.vertex_modules[w].dims[c], r.vertex_modules[v].dims[c]
            if p * q == 0:
                continue
            equations.append((p, q, [(1, None, (w, c), r.arrow_maps[arr.name].comps[c]),
                                     (-1, s.arrow_maps[arr.name].comps[c], (v, c), None)]))
    ker = equation_matrix(fld, shapes, equations).kernel_basis()
    out = []
    for j in range(ker.cols):
        blocks = split_blocks(fld, shapes, ker.col(j))
        comps = {v: ModuleMap(r.vertex_modules[v], s.vertex_modules[v],
                              {c: blocks[(v, c)] for c in coeff.objects}, validate=False)
                 for v in vertices}
        out.append(QRepMap(r, s, comps, validate=False))
    return out


# ---------------------------------------------------------------------------
# induced representations


def f_star_v(bq: BoundQuiver, v, p: CModule) -> QRep:
    """Induction of a coefficient module along the vertex inclusion.

    Vertex w carries one copy of p per surviving path q: v -> w, in the
    order of bq.paths(v, w), and an arrow a: w -> u acts at each coefficient
    object by kron(S_a, 1), where the 0/1 matrix S_a sends copy q to copy
    q.a, or to zero when q.a is killed: each 1 of S_a is written straight
    in as an identity block.  Built unvalidated: identity blocks commute
    with the block-diagonal actions of the sums, and a monomial generator g
    sends copy q to copy q.g, which contains g and so is killed.
    """
    fld = p.cat.field
    one, zero = fld.one(), fld.zero()
    table = bq.all_paths()
    paths = {w: table[(v, w)] for w in bq.quiver.vertices}
    # one zero module for the vertices no path reaches, one zero map for the
    # arrows between them
    unreached = zero_module(p.cat)
    idle = zero_map(unreached, unreached)
    vertex_modules = {w: sum_module([p] * len(plist), p.cat) if plist else unreached
                      for w, plist in paths.items()}
    arrow_maps = {}
    for a in bq.quiver.arrows:
        src, tgt = paths[a.source], paths[a.target]
        if not src and not tgt:
            arrow_maps[a.name] = idle
            continue
        row_of = {q.arrows: j for j, q in enumerate(tgt)}
        shift = [(i, row_of.get(q.arrows + (a.name,))) for i, q in enumerate(src)]
        comps = {}
        for c in p.cat.objects:
            d = p.dims[c]
            cols = len(src) * d
            data = [zero] * (len(tgt) * d * cols)
            for i, j in shift:
                if j is not None:
                    start = j * d * cols + i * d
                    data[start:start + d * (cols + 1):cols + 1] = [one] * d
            comps[c] = Mat(fld, len(tgt) * d, cols, data)
        arrow_maps[a.name] = ModuleMap(vertex_modules[a.source], vertex_modules[a.target],
                                       comps, validate=False)
    return QRep(bq, p.cat, vertex_modules, arrow_maps, validate=False)


def adjunction_unit(bq: BoundQuiver, v, p: CModule,
                    ind: Optional[QRep] = None) -> ModuleMap:
    """The unit p -> f_star_v(p)(v): inclusion of the trivial path block,
    which comes first in bq.paths(v, v).  Built unvalidated: f_star_v(p)(v)
    is a sum_module of copies of p, and a block injection into it is
    natural."""
    if ind is None:
        ind = f_star_v(bq, v, p)
    count = len(bq.paths(v, v))
    return ModuleMap(p, ind.vertex_modules[v],
                     {c: _block_injections(p.cat.field, count * p.dims[c], [p.dims[c]])[0]
                      for c in p.cat.objects}, validate=False)


def sharp(bq: BoundQuiver, v, r: QRep, psi_map: ModuleMap,
          ind: Optional[QRep] = None) -> QRepMap:
    """Transposes p -> r(v) across the adjunction to f_star_v(p) -> r: the
    copy of p at path q: v -> w maps by psi_map followed by r along q.  ind
    is f_star_v(bq, v, p), built here when not given.

    The leg of the trivial path is psi_map, and the leg of a path q.a the
    leg of q followed by r's map of a; a prefix of a surviving path
    survives, so shortest first every leg extends one built before it.
    Built unvalidated: for a natural psi_map every leg is natural, so is
    their copair out of the sum ind(w), and an arrow a sends copy q to copy
    q.a, whose leg is q's followed by r(a), or to zero when q.a is killed,
    where r(a) after q's leg is psi_map followed by r along the killed
    q.a, which vanishes.  Callers whose psi_map is not known natural
    validate the result, as check_adjunction and lemma2_cover do.
    """
    if ind is None:
        ind = f_star_v(bq, v, psi_map.src)
    table = bq.all_paths()
    legs = {}
    for q in sorted((q for w in bq.quiver.vertices for q in table[(v, w)]),
                    key=lambda q: q.length):
        legs[q.arrows] = (legs[q.arrows[:-1]].then(r.arrow_maps[q.arrows[-1]])
                          if q.arrows else psi_map)
    comps = {w: copair(ind.vertex_modules[w], r.vertex_modules[w],
                       [legs[q.arrows] for q in table[(v, w)]])
             for w in bq.quiver.vertices}
    return QRepMap(ind, r, comps, validate=False)


@dataclass
class AdjunctionReport:
    dim: int
    checked_maps: int


def check_adjunction(bq: BoundQuiver, v, p: CModule, r: QRep) -> AdjunctionReport:
    """Certifies the evaluation adjunction by independent hom computations.

    Both hom spaces are solved separately, their dimensions compared, and
    the two transposition maps checked to be mutually inverse on the bases.
    The transposes of each direction, all maps ind -> r, are built
    unvalidated (sharp) and validated together (validate_morphisms).
    """
    ind = f_star_v(bq, v, p)
    lhs = qrep_hom(ind, r)
    rhs = hom_space(p, r.vertex_modules[v])
    if len(lhs) != len(rhs):
        raise VerificationError(
            f"adjunction dimensions differ: {len(lhs)} vs {len(rhs)}")
    unit = adjunction_unit(bq, v, p, ind)
    transposes = [sharp(bq, v, r, psi_map, ind) for psi_map in rhs]
    validate_morphisms(r, transposes)
    for psi_map, rep_map in zip(rhs, transposes):
        if unit.then(rep_map.comps[v]) != psi_map:
            raise VerificationError("unit transposition does not round trip")
    again = [sharp(bq, v, r, unit.then(rep_map.comps[v]), ind) for rep_map in lhs]
    validate_morphisms(r, again)
    for rep_map, back in zip(lhs, again):
        if back != rep_map:
            raise VerificationError("counit transposition does not round trip")
    return AdjunctionReport(dim=len(lhs), checked_maps=len(lhs) + len(rhs))


@dataclass
class CoverResult:
    source: QRep
    cover: QRepMap
    pieces: List[Tuple[str, CModule]]


def lemma2_cover(r: QRep) -> CoverResult:
    """The canonical surjection onto r from induced vertexwise covers.

    The sharp maps are built unvalidated and certified once, as the copair:
    its source is a rep_direct_sum, block diagonal in every action and
    arrow map, so the copair is a morphism iff every sharp map is.
    """
    bq, coeff = r.bq, r.coeff
    parts, maps, pieces = [], [], []
    for v in bq.quiver.vertices:
        rv = r.vertex_modules[v]
        if rv.is_zero():
            continue
        _, cov, _ = _cover_map(rv)
        pieces.append((v, cov.src))
        ind = f_star_v(bq, v, cov.src)
        parts.append(ind)
        maps.append(sharp(bq, v, r, cov, ind))
    total = rep_direct_sum(parts, bq, coeff)
    cover = rep_copair(total, r, maps)
    cover._validate()
    for w in bq.quiver.vertices:
        for c in coeff.objects:
            comp = cover.comps[w].comps[c]
            if comp.rank() != r.vertex_modules[w].dims[c]:
                raise VerificationError(
                    f"cover not surjective at vertex {w!r}, object {c!r}")
    return CoverResult(total, cover, pieces)
