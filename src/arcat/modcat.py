"""Finite dimensional contravariant modules over a FinCategory.

A CModule assigns to every object x a space k^dims[x] and to every hom basis
element f_i: x -> y a matrix action[(x, y, i)]: k^dims[y] -> k^dims[x];
composites reverse, M(g o f) = M(f) M(g).  ModuleMaps are natural
transformations with per object components.

Validation happens at the trust boundary, by one rule: a module or map is
verified when it is built from data given from outside, or when the check
is the certificate of a public answer.  The unit law and functoriality are
checked by fincat._functor_failure, with one matrix product per middle
object, and naturality square by square, on the squares of `_squares`, the
very ones the hom spaces solve (naturality_equations).  Those leave out the
identity squares, which hold for every module, since each acts by the
identity at every unit: the validated ones are checked for it, and the
constructions built unvalidated prove it.  Every derived module and map is
built unvalidated, with its proof in its docstring: the representables
(their matrices are the ones FinCategory's laws make functorial), base
changes (conjugate_module) and their isos, sub-modules and their
inclusions (one exact solve against bases of full column rank), the
projection onto an image, cokernels and their projections (the spans are
submodules), among them the top quotients and so the simple modules, the
tops of the representables, the maps out of sums of representables
(Yoneda), the factorization through a cokernel (by its own check against
the map it factors), the dualized presentation, and duals of modules and
maps (transposed actions).  Composites, sums and scalings of maps,
identities, zero maps, direct sums (sum_module) with their block injections
and projections, and the block maps between sums (sum_map, copair) are
natural or functorial by linear algebra alone.  Every certificate the
program reports is still checked: cover surjectivity and, where a cover
must be minimal (projective_cover and both covers of a presentation),
ker <= rad, the rebuilt presentation, exactness and non-splitness, the
almost split property, the decomposition identities (in End(m), by
algebra.primitive_idempotents), and the closure of knitting's summand
multiplicities to the dimension of the middle term.

Sums of representables are fincat.Hull's Hom(-, X), block sums of the
memoised representables.  A map out of Hom(-, X) is its values at the
units of the summands (Yoneda), and `_from_units` builds every such map
from them: the covers and Hull's Hom(-, g) for block morphisms g.  A
presentation's matrix g is read off the unit values of its second cover.
A block morphism g: X1 -> X0 turns maps out of Hom(-, X0) into maps out of
Hom(-, X1) through one Yoneda matrix (fincat's `_yoneda`, on the field,
dims and action of b), [b(g_ji)]: Hom(P0, b) -> Hom(P1, b), the map that
fincat.Hull.pre_matrix is on b = Hom(-, Z).  Every Hom computation on a
presentation is one of these: on its matrix, the nullity is dim Hom(m, b)
(hom_dim), the columns are the coboundaries of Ext^1(m, b), and into the
representables it is the dualized presentation g*, whose cokernel is Tr m
(`_dualized`); on the
presentation's syzygy P2 -> P1, whose image is the kernel of the
differential, the kernel is the cocycles.  So Ext^1(m, b) is H^1 of
Hom(P2 -> P1 -> P0, b), read on columns of unit values on P1, and an
extension is the pushout of P1 -> P0 along one such column (Ext1,
extension_from_cocycle).

On this representation the module category is computed exactly: hom spaces,
and their dimensions off presentations (`_yoneda`), kernels, images, cokernels,
radicals, projective covers and minimal presentations, projectivity by
counting top dimensions, the standard duality, the transpose and the
projective summands, both off one dualized presentation, the translates
built from them, Ext^1 with explicit extension classes on P1, almost split
sequences with non-splitness counted by Hom dimensions (`splits`) and
independent verification by Hom-dimension defects,
Krull-Schmidt decomposition with idempotent certificates, summand
multiplicities by a trace pairing, the Auslander-Reiten quiver by knitting
in one pass over its nodes (the radicals of projectives and the middle
terms certified by the multiplicities of registered nodes, with
decomposition only as the fallback), and global dimension by iterated
syzygies.

Modules and maps are immutable after construction: nothing assigns to the
dims or action of a CModule once it is built.  So each fact about a module
is computed once and memoised on it, by object identity: its minimal
presentation, with the syzygy P2 -> P1 taken from the same kernel bases
that certify the second cover minimal; its dual (on both sides, so
duality_D is an exact involution); its top dimensions (`_top_count`); and
its End reading, dim End and dim End/rad or None when End is not local
(`_local_end`), which also certifies non-isomorphism (is_isomorphic: when
m and n are isomorphic and End(n) is local, some element of every basis
of Hom(m, n) is an isomorphism); the almost split sequence ending at it;
and, on z = tau_inverse(m) for an m with no injective summand, m itself
as the translate of z, which that sequence takes as its left term, so
knitting computes each translate once, and the dual of D m's minimal
presentation as z's own, certified minimal (`_checked_transpose`), so
z is presented once.  The representable Hom(-, x) is
memoised on its category, over the action matrices that fincat memoises
there (`_representable_action`).  Other sums of representables, projective
covers and End algebras themselves are not memoised: long-lived modules
would keep them alive, for little gain.  The presentation, the dual, the
sequence, the recorded translate, the representables and their matrices
are dropped when a module or category is pickled.
"""

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (TableAlgebra, end_table, find_nontrivial_idempotent,
                      primitive_idempotents, radical_basis)
from .errors import CapExceededError, PreconditionError, VerificationError
from .fincat import (AddMor, AddObject, FinCategory, Hull, _combination,
                     _functor_failure, _representable_action, _yoneda, category_of,
                     opposite_category)
from .linalg import (Mat, block_diag, equation_matrix, hstack, solve, split_blocks,
                     vstack)
from .quiver import BoundQuiver, opposite


class CModule:
    """A contravariant functor from a FinCategory to finite vector spaces.

    Built from given data it is validated on construction (validate=True);
    the constructions of this module that prove their result functorial pass
    validate=False (see the module docstring).  Immutable after
    construction: callers must never assign to dims or action, because the
    memoised presentation, dual, top count, End reading, almost split
    sequence (`_ass`) and translate recorded by tau_inverse (`_tau`) are
    keyed on the object itself.
    """

    def __init__(self, cat: FinCategory, dims: Dict, action: Dict, validate: bool = True):
        self.cat = cat
        self.dims = dict(dims)
        self.action = dict(action)
        self._presentation: Optional["Presentation"] = None
        self._dual: Optional["CModule"] = None
        self._top: Optional[Tuple[Dict, bool]] = None
        self._end: Optional[Tuple[int, Optional[int]]] = None
        self._tau: Optional["CModule"] = None
        self._ass: Optional["AlmostSplit"] = None
        if validate:
            self._validate()

    def __getstate__(self):
        return {**self.__dict__, "_presentation": None, "_dual": None, "_tau": None,
                "_ass": None}

    def act(self, x, y, coords) -> Mat:
        """The matrix of the action of a hom coordinate vector at (x, y)."""
        return Mat(self.cat.field, self.dims[x], self.dims[y],
                   _combination(self.cat.field, self.dims, self.action, x, y,
                                enumerate(coords)))

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())

    def _validate(self):
        """Check the dimensions and shapes, the unit action and functoriality
        (fincat._functor_failure)."""
        cat = self.cat
        dims, action = self.dims, self.action
        for x in cat.objects:
            if x not in dims or dims[x] < 0:
                raise PreconditionError(f"missing or negative dimension at {x!r}")
        for x in cat.objects:
            for y in cat.objects:
                for i in range(cat.dim(x, y)):
                    m = action.get((x, y, i))
                    if m is None or m.rows != dims[x] or m.cols != dims[y]:
                        raise PreconditionError(f"bad action matrix at {(x, y, i)}")
        failure = _functor_failure(cat, dims, action)
        if failure is not None:
            kind, where = failure
            if kind == "unit":
                raise PreconditionError(f"unit does not act as identity at {where!r}")
            raise PreconditionError(f"action not functorial at {where}")

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, CModule) and self.cat == other.cat
                and self.dims == other.dims and self.action == other.action)

    __hash__ = object.__hash__

    def __repr__(self):
        return f"CModule(dims={self.dims})"


class ModuleMap:
    """A natural transformation between CModules over the same category."""

    def __init__(self, src: CModule, tgt: CModule, comps: Dict, validate: bool = True):
        self.src = src
        self.tgt = tgt
        self.comps = dict(comps)
        if validate:
            self._validate()

    def _validate(self):
        """Check the categories, the component shapes (`_shape_failure`) and
        naturality on the squares of `_squares`, the ones hom spaces solve:
        the identity squares hold by the unit law of both modules."""
        failure = self._shape_failure()
        if failure is not None:
            raise PreconditionError(failure)
        for key in _squares(self.src, self.tgt):
            x, y, _ = key
            if self.comps[x] @ self.src.action[key] != self.tgt.action[key] @ self.comps[y]:
                raise PreconditionError(f"naturality fails at {key}")

    def _shape_failure(self) -> Optional[str]:
        """Why the two modules lie over different categories or a component
        has the wrong shape, or None."""
        cat = self.src.cat
        if not (self.tgt.cat is cat or self.tgt.cat == cat):
            return "map between modules over different categories"
        for x in cat.objects:
            m = self.comps.get(x)
            if m is None or m.rows != self.tgt.dims[x] or m.cols != self.src.dims[x]:
                return f"bad component shape at {x!r}"
        return None

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """The composite (other o self), self applied first."""
        comps = {x: other.comps[x] @ self.comps[x] for x in self.src.cat.objects}
        return ModuleMap(self.src, other.tgt, comps, validate=False)

    def add(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.tgt,
                         {x: self.comps[x] + other.comps[x] for x in self.comps},
                         validate=False)

    def sub(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.tgt,
                         {x: self.comps[x] - other.comps[x] for x in self.comps},
                         validate=False)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.src, self.tgt,
                         {x: self.comps[x].scale(c) for x in self.comps},
                         validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def is_injective(self) -> bool:
        return all(m.rank() == m.cols for m in self.comps.values())

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.comps.values())

    def inverse(self) -> Optional["ModuleMap"]:
        inv = {}
        for x, m in self.comps.items():
            if m.rows != m.cols:
                return None
            mi = m.inverse()
            if mi is None:
                return None
            inv[x] = mi
        return ModuleMap(self.tgt, self.src, inv, validate=False)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, ModuleMap) and self.src == other.src
                and self.tgt == other.tgt and self.comps == other.comps)

    __hash__ = object.__hash__

    def __repr__(self):
        return f"ModuleMap({self.src.dims} -> {self.tgt.dims})"


def identity_map(m: CModule) -> ModuleMap:
    return ModuleMap(m, m, {x: Mat.identity(m.cat.field, m.dims[x])
                            for x in m.cat.objects}, validate=False)


def zero_map(m: CModule, n: CModule) -> ModuleMap:
    return ModuleMap(m, n, {x: Mat.zeros(m.cat.field, n.dims[x], m.dims[x])
                            for x in m.cat.objects}, validate=False)


def zero_module(cat: FinCategory) -> CModule:
    """The zero module, built unvalidated: every action is the empty
    matrix, the identity of k^0, so the unit law and functoriality hold."""
    dims = {x: 0 for x in cat.objects}
    action = {(x, y, i): Mat.zeros(cat.field, 0, 0)
              for x in cat.objects for y in cat.objects
              for i in range(cat.dim(x, y))}
    return CModule(cat, dims, action, validate=False)


def sum_module(mods: Sequence[CModule], cat: FinCategory) -> CModule:
    """The direct sum of modules over cat, in order, with block-diagonal
    actions, built unvalidated: functorial block by block, and a unit acts
    by the block diagonal of identities, the identity.  The sum of one
    module is that module, the empty sum the zero module."""
    if len(mods) == 1:
        return mods[0]
    if not mods:
        return zero_module(cat)
    fld = cat.field
    dims = {x: sum(m.dims[x] for m in mods) for x in cat.objects}
    action = {(x, y, i): block_diag(fld, [m.action[(x, y, i)] for m in mods])
              for x in cat.objects for y in cat.objects for i in range(cat.dim(x, y))}
    return CModule(cat, dims, action, validate=False)


def _block_injections(fld, total: int, sizes: Sequence[int]) -> List[Mat]:
    """The block columns of the leading summands of k^total, of the given
    dimensions in order: the identity on the summand's rows, zero
    elsewhere.  Their transposes are the block projections."""
    one, zero = fld.one(), fld.zero()
    out, off = [], 0
    for d in sizes:
        data = [zero] * (total * d)
        data[off * d:(off + d) * d:d + 1] = [one] * d
        out.append(Mat(fld, total, d, data))
        off += d
    return out


def direct_sum(mods: Sequence[CModule], cat: Optional[FinCategory] = None):
    """Returns (sum_module(mods), injections, projections) in the given order."""
    if not mods and cat is None:
        raise PreconditionError("empty direct sum needs an explicit category")
    cat = mods[0].cat if mods else cat
    total = sum_module(mods, cat)
    blocks = {x: _block_injections(cat.field, total.dims[x], [m.dims[x] for m in mods])
              for x in cat.objects}
    injections = [ModuleMap(m, total, {x: blocks[x][k] for x in cat.objects}, validate=False)
                  for k, m in enumerate(mods)]
    projections = [ModuleMap(total, m, {x: blocks[x][k].transpose() for x in cat.objects},
                             validate=False)
                   for k, m in enumerate(mods)]
    return total, injections, projections


def sum_map(src: CModule, tgt: CModule, maps: Sequence[ModuleMap]) -> ModuleMap:
    """The direct sum of maps f_k: src_k -> tgt_k, from the direct sum src of
    their sources to the direct sum tgt of their targets, built unvalidated:
    the actions of src and tgt are block diagonal, so naturality holds
    block by block."""
    fld = src.cat.field
    return ModuleMap(src, tgt, {c: block_diag(fld, [f.comps[c] for f in maps])
                                for c in src.cat.objects}, validate=False)


def copair(src: CModule, tgt: CModule, maps: Sequence[ModuleMap]) -> ModuleMap:
    """The map out of the direct sum src whose restriction to summand k is
    maps[k], built unvalidated: the action of src is block diagonal, so each
    column block is natural exactly when maps[k] is."""
    if not maps:
        return zero_map(src, tgt)
    return ModuleMap(src, tgt, {c: hstack([f.comps[c] for f in maps])
                                for c in src.cat.objects}, validate=False)


def conjugate_module(m: CModule, mats: Dict) -> Tuple[CModule, ModuleMap]:
    """Transport of structure along invertible components; returns (n, iso n -> m).

    Both are built unvalidated: f: x -> y acts on n by g_x^-1 m(f) g_y, so
    a unit acts by g_x^-1 g_x = 1, n(f) n(h) = g_x^-1 m(f) m(h) g_z =
    n(h o f), and g_x n(f) = m(f) g_y is the naturality of the iso.  The
    shapes of the mats are checked by the products that build n's action
    (every object has its unit's action)."""
    inv = {}
    for x in m.cat.objects:
        gi = mats[x].inverse()
        if gi is None:
            raise PreconditionError(f"base change at {x!r} is not invertible")
        inv[x] = gi
    action = {key: inv[key[0]] @ mat @ mats[key[1]] for key, mat in m.action.items()}
    n = CModule(m.cat, dict(m.dims), action, validate=False)
    return n, ModuleMap(n, m, mats, validate=False)


# ---------------------------------------------------------------------------
# distinguished modules


def yoneda_projective(cat: FinCategory, x) -> CModule:
    """The representable Hom(-, x), memoised on the category and built
    unvalidated: its matrices are fincat._representable_action's, memoised
    on the category too, whose unit law and functoriality are the right
    unit law and associativity of cat, checked by FinCategory._validate or
    proved by cat's construction."""
    if x not in cat.objects:
        raise PreconditionError(f"{x!r} is not an object of the category")
    if x not in cat._representables:
        cat._representables[x] = CModule(cat, *_representable_action(cat, x), validate=False)
    return cat._representables[x]


def yoneda_map(cat: FinCategory, x, y, h_coords) -> ModuleMap:
    """The map Hom(-, x) -> Hom(-, y) given by postcomposition with h: x -> y,
    the 1x1 case of `proj_sum_map`."""
    src, tgt = proj_sum(cat, (x,)), proj_sum(cat, (y,))
    if len(h_coords) != cat.dim(x, y):
        raise PreconditionError(f"h needs {cat.dim(x, y)} coordinates")
    return proj_sum_map(src, tgt, AddMor(src.obj, tgt.obj, ((tuple(h_coords),),)))


def simple_module(cat: FinCategory, x) -> CModule:
    """The simple top of the representable at x (`top_quotient`), for
    basic categories: End(x) must have the unit as its one basis element
    outside the radical."""
    if x not in cat.objects:
        raise PreconditionError(f"{x!r} is not an object of the category")
    non_rad = [i for i in range(cat.dim(x, x)) if i not in cat.radical[(x, x)]]
    if len(non_rad) != 1 or cat.units[x] != cat.basis_coords(x, x, non_rad[0]):
        raise PreconditionError(f"End({x!r}) is not basic with unit basis element")
    return top_quotient(yoneda_projective(cat, x)).module


def representation_category(bq: BoundQuiver, fld) -> FinCategory:
    """The category whose CModules are representations of the bound quiver.

    Modules here are contravariant, so representations (covariant functors)
    live over the opposite path category; the representable at a vertex v is
    then the expected projective with dim at w = #paths v -> w.
    """
    return category_of(opposite(bq), fld)


# ---------------------------------------------------------------------------
# hom spaces and flattening


def _hom_shapes(m: CModule, n: CModule) -> Dict:
    """The component shapes of a map m -> n, the layout of `flatten_map`."""
    return {x: (n.dims[x], m.dims[x]) for x in m.cat.objects}


def flatten_map(phi: ModuleMap) -> Mat:
    """The components stacked row major, in the layout of `_hom_shapes`."""
    return Mat.column(phi.src.cat.field,
                      [v for x in phi.src.cat.objects for v in phi.comps[x].data])


def _squares(m: CModule, n: CModule) -> List[Tuple]:
    """The naturality squares X_x m(f_i) = n(f_i) X_y of maps m -> n that
    can fail, as keys (x, y, i): every hom basis element f_i: x -> y but
    the identity of x (`_non_unit_indices`), where n(x) and m(y) are
    nonzero.  A square with n(x) or m(y) zero has both sides empty, and
    the identity square holds for every X, since both modules act by the
    identity at every unit: a module built from data is checked for that
    (CModule._validate), and each construction built unvalidated proves it
    in its docstring."""
    cat = m.cat
    return [(x, y, i) for x in cat.objects for y in cat.objects if n.dims[x] * m.dims[y]
            for i in cat._non_unit_indices(x, y)]


def naturality_equations(m: CModule, n: CModule, unknown=lambda x: x) -> List:
    """The equations X_x m(f) = n(f) X_y, one per square of `_squares`, that
    make components X_x: m_x -> n_x natural, for `equation_matrix`; the
    component at x is the unknown named unknown(x).  ModuleMap._validate
    checks the same squares, so a map passes validation exactly when its
    flat components solve these equations."""
    return [(n.dims[x], m.dims[y], [(1, None, unknown(x), m.action[(x, y, i)]),
                                    (-1, n.action[(x, y, i)], unknown(y), None)])
            for x, y, i in _squares(m, n)]


def hom_space(m: CModule, n: CModule) -> List[ModuleMap]:
    """A canonical basis of the space of natural maps m -> n."""
    fld = m.cat.field
    shapes = _hom_shapes(m, n)
    if not any(r * c for r, c in shapes.values()):
        return []
    ker = equation_matrix(fld, shapes, naturality_equations(m, n)).kernel_basis()
    return [ModuleMap(m, n, split_blocks(fld, shapes, ker.col(j)), validate=False)
            for j in range(ker.cols)]


# ---------------------------------------------------------------------------
# subquotients


@dataclass
class Kernel:
    module: CModule
    include: ModuleMap


@dataclass
class Image:
    module: CModule
    include: ModuleMap
    project: ModuleMap


@dataclass
class Cokernel:
    module: CModule
    project: ModuleMap
    sections: Dict


def _submodule_on_bases(m: CModule, bases: Dict) -> Kernel:
    """The submodule spanned objectwise by the given invariant column bases.

    The actions out of each object x come from one solve against bases[x],
    one block of columns per hom basis element (x, y, i).  The bases have
    full column rank, and the exact solve gives M(f) B_y = B_x A(f) for
    every f: x -> y, so A(f) is unique and the unit law, functoriality
    (B_x A(g o f) = M(f) M(g) B_z = B_x A(f) A(g)) and the naturality of the
    inclusion follow from those of m: both are built unvalidated.
    """
    cat = m.cat
    dims = {x: bases[x].cols for x in cat.objects}
    action = {}
    for x in cat.objects:
        keys = [(x, y, i) for y in cat.objects for i in range(cat.dim(x, y))]
        sol = solve(bases[x], hstack([m.action[k] @ bases[k[1]] for k in keys]))
        if sol is None:
            raise PreconditionError(f"spans are not invariant at {x!r}")
        pos = 0
        for k in keys:
            width = dims[k[1]]
            action[k] = Mat(cat.field, sol.rows, width,
                            [v for r in range(sol.rows) for v in sol.row(r)[pos:pos + width]])
            pos += width
    sub = CModule(cat, dims, action, validate=False)
    return Kernel(sub, ModuleMap(sub, m, bases, validate=False))


def kernel_module(phi: ModuleMap) -> Kernel:
    bases = {x: phi.comps[x].kernel_basis() for x in phi.src.cat.objects}
    return _submodule_on_bases(phi.src, bases)


def image_module(phi: ModuleMap) -> Image:
    """The image of phi, with phi = include o project.

    project is built unvalidated: include o project = phi by the solve, and
    include is injective, so the naturality of project follows from that of
    phi (B_x P_x m(f) = phi_x m(f) = n(f) phi_y = B_x A(f) P_y).
    """
    m, n = phi.src, phi.tgt
    bases = {x: phi.comps[x].column_space_basis()[0] for x in m.cat.objects}
    sub = _submodule_on_bases(n, bases)
    project = {}
    for x in m.cat.objects:
        sol = solve(bases[x], phi.comps[x])
        if sol is None:
            raise AssertionError("image factorization failed")
        project[x] = sol
    return Image(sub.module, sub.include,
                 ModuleMap(m, sub.module, project, validate=False))


def _projection_and_section(s: Mat) -> Tuple[Mat, Mat]:
    """pi, whose rows are the kernel basis of s^T and so span the left null
    space of s (a projection with kernel im s), and its canonical section.
    When s has no columns both are the identity: the kernel basis of the
    0 x d matrix s^T is the identity, and so is the solution against it
    (every cover of a module over the point takes this path)."""
    if not s.cols:
        one = Mat.identity(s.field, s.rows)
        return one, one
    pi = s.transpose().kernel_basis().transpose()
    sec = solve(pi, Mat.identity(s.field, pi.rows))
    if sec is None:
        raise AssertionError("cokernel projection has no section")
    return pi, sec


def _cokernel(n: CModule, spans: Dict) -> Cokernel:
    """The quotient of n by the submodule whose value at x is the column
    span of spans[x]: the rows of the projection pi_x span the left null
    space of spans[x] (`_projection_and_section`, which reads only that
    span), s_x is a section of pi_x, and f acts by pi_x n(f) s_y.

    The module and the projection are built unvalidated: the spans are
    stable under n, so pi_x n(f) = (pi_x n(f) s_y) pi_y; functoriality and
    the unit law then follow from those of n, since every pi_x is
    surjective.
    """
    cat = n.cat
    pis, sections = {}, {}
    for x in cat.objects:
        pis[x], sections[x] = _projection_and_section(spans[x])
    dims = {x: pis[x].rows for x in cat.objects}
    action = {}
    for x in cat.objects:
        for y in cat.objects:
            for i in range(cat.dim(x, y)):
                action[(x, y, i)] = pis[x] @ n.action[(x, y, i)] @ sections[y]
    coker = CModule(cat, dims, action, validate=False)
    return Cokernel(coker, ModuleMap(n, coker, pis, validate=False), sections)


def cokernel_module(phi: ModuleMap) -> Cokernel:
    """The cokernel of phi: n = phi.tgt modulo the images of the
    components, stable under n because phi is natural (`_cokernel`)."""
    return _cokernel(phi.tgt, phi.comps)


def factor_through_cokernel(ck: Cokernel, psi: ModuleMap) -> ModuleMap:
    """The unique map out of the cokernel with (result o project) = psi.

    Built unvalidated: the check (result o project) = psi, which refuses a
    psi that does not kill the image, proves it natural.  With N the source
    of psi, C the cokernel and T the target, for f: x -> y,
    out_x C(f) project_y = out_x project_x N(f) = psi_x N(f) = T(f) psi_y =
    T(f) out_y project_y, and the surjective project_y cancels on the right.
    """
    comps = {x: psi.comps[x] @ ck.sections[x] for x in psi.src.cat.objects}
    out = ModuleMap(ck.module, psi.tgt, comps, validate=False)
    if ck.project.then(out) != psi:
        raise PreconditionError("map does not kill the image, cannot factor")
    return out


def _radical_actions(m: CModule, x) -> Mat:
    """The hstack of m(r) over the radical basis elements r out of x, in
    order; its column span is rad m at x, the sum of the images m(r)."""
    cat = m.cat
    cols = [m.action[(x, y, i)] for y in cat.objects for i in sorted(cat.radical[(x, y)])]
    return hstack(cols) if cols else Mat.zeros(cat.field, m.dims[x], 0)


def radical_submodule(m: CModule) -> Kernel:
    """The intersection of maximal submodules: sums of radical actions."""
    return _submodule_on_bases(m, {x: _radical_actions(m, x).column_space_basis()[0]
                                   for x in m.cat.objects})


def top_quotient(m: CModule) -> Cokernel:
    """m / rad m, quotiented by the radical actions themselves
    (`_cokernel`): their column spans are rad m, a submodule, and no
    radical submodule is built."""
    return _cokernel(m, {x: _radical_actions(m, x) for x in m.cat.objects})


# ---------------------------------------------------------------------------
# projective covers and presentations


@dataclass
class ProjSum:
    """Hom(-, X) for the additive object X = AddObject(vertices), repeats
    allowed: its value at y is flat Hom(y, X) in the layout of fincat.Hull,
    one block of hom coordinates per summand, in the order of vertices."""

    cat: FinCategory
    vertices: Tuple
    module: CModule

    @property
    def obj(self) -> AddObject:
        return AddObject(self.vertices)


def proj_sum(cat: FinCategory, vertices: Sequence) -> ProjSum:
    """Hom(-, X) for X = AddObject(vertices), the sum_module of the memoised
    representables Hom(-, x_k) in order, by Yoneda's additivity: flat
    Hom(y, X) holds one block Hom(y, x_k) per summand, in order (the layout
    that proj_sum_map and `_yoneda` read), and precomposition with f
    acts on each block, g_k -> g_k o f."""
    vertices = tuple(vertices)
    mods = [yoneda_projective(cat, v) for v in vertices]
    return ProjSum(cat, vertices, sum_module(mods, cat))


def _from_units(psum: ProjSum, n: CModule, values: Sequence[Mat]) -> ModuleMap:
    """The map Hom(-, X) -> n whose value at the unit of summand k is the
    column values[k] of n(x_k): by Yoneda it sends g: y -> x_k to
    n(g) values[k].  It is built unvalidated, because it is natural by the
    functoriality of n: n(g o f) v = n(f) n(g) v."""
    cat = psum.cat
    comps = {}
    for y in cat.objects:
        cols = [n.action[(y, x, i)] @ v for x, v in zip(psum.vertices, values)
                for i in range(cat.dim(y, x))]
        comps[y] = hstack(cols) if cols else Mat.zeros(cat.field, n.dims[y], 0)
    return ModuleMap(psum.module, n, comps, validate=False)


def proj_sum_map(src: ProjSum, tgt: ProjSum, g: AddMor) -> ModuleMap:
    """Hom(-, g): Hom(-, X) -> Hom(-, Y) for a block morphism g: X -> Y,
    h -> g o h, built from its unit values (`_from_units`): at the unit of
    summand k it is g's block column k, a vector of flat Hom(x_k, Y)."""
    if g.src != src.obj or g.tgt != tgt.obj:
        raise PreconditionError("block morphism between other additive objects")
    fld = src.cat.field
    values = [Mat.column(fld, [c for row in g.blocks for c in row[k]])
              for k in range(len(src.vertices))]
    return _from_units(src, tgt.module, values)


@dataclass
class Cover:
    psum: ProjSum
    cover: ModuleMap
    kernel: Kernel


def _top_lifts(m: CModule) -> Dict:
    """At each object x, columns that lift a basis of the top m(x)/rad m(x).

    The projection `_projection_and_section` of S = _radical_actions(m, x)
    maps onto the top with kernel rad m(x), and the lifts are the columns of
    its section.  These are the sections of top_quotient(m), which
    quotients by the same S.
    """
    return {x: _projection_and_section(_radical_actions(m, x))[1] for x in m.cat.objects}


def _cover_map(m: CModule) -> Tuple[ProjSum, ModuleMap, List[Mat]]:
    """The sum of representables of a projective cover of m, its map onto
    m, certified surjective, without the kernel, and the map's unit values
    (`_from_units`): the lifts of a top basis (`_top_lifts`), one column of
    m(x_k) per summand k."""
    top = _top_lifts(m)
    psum = proj_sum(m.cat, [x for x in m.cat.objects for _ in range(top[x].cols)])
    lifts = [Mat(m.cat.field, top[x].rows, 1, top[x].col(j))
             for x in m.cat.objects for j in range(top[x].cols)]
    p = _from_units(psum, m, lifts)
    if not p.is_surjective():
        raise AssertionError("cover map is not surjective")
    return psum, p, lifts


def projective_cover(m: CModule) -> Cover:
    """A projective cover (`_cover_map`) with its kernel, certified to lie
    in the radical.

    ker <= rad is read off the coordinates (`_top_rows`): the kernel
    inclusion must vanish on every coordinate outside the radical.
    """
    psum, p, _ = _cover_map(m)
    ker = kernel_module(p)
    _check_kernel_in_radical(psum, ker.include.comps)
    return Cover(psum, p, ker)


def _top_rows(cat: FinCategory, vertices: Sequence, y, basis: Mat) -> Mat:
    """The rows of basis, a span in flat Hom(y, X) for X = AddObject(vertices),
    at the coordinates outside the radical, in order: a span lies in rad
    Hom(y, X) exactly when these rows vanish.

    rad Hom(-, X) at y is the span of the radical basis coordinates of flat
    Hom(y, X).  It is spanned by the g o r with r radical, radical since the
    radical is an ideal (a law of every FinCategory), and it holds
    each radical basis element r: y -> X_k as 1 o r.
    """
    rows, pos = [], 0
    for x in vertices:
        rows.extend(pos + t for t in range(cat.dim(y, x)) if t not in cat.radical[(y, x)])
        pos += cat.dim(y, x)
    return Mat(cat.field, len(rows), basis.cols, [v for r in rows for v in basis.row(r)])


def _check_kernel_in_radical(psum: ProjSum, bases: Dict):
    """Raises unless the kernel bases of a cover from psum (bases[y], the
    kernel basis of its component at y) lie in the radical (`_top_rows`)."""
    for y in psum.cat.objects:
        if not _top_rows(psum.cat, psum.vertices, y, bases[y]).is_zero():
            raise AssertionError("cover kernel is not contained in the radical")


@dataclass
class Presentation:
    """P1 -g-> P0 -cover-> m -> 0, with K the kernel of the cover.  The
    differential is the second cover P1 -> K followed by the kernel
    inclusion, so block column i of the matrix g is incl(t_i), a column of
    P0(x1_i), for the unit value t_i in K(x1_i) of that cover.

    The syzygy is a block morphism P2 -> P1 whose image is the kernel of
    the differential: one summand y of X2 per vector of the kernel basis of
    the second cover's component at y, sent to that vector of P1(y) = flat
    Hom(y, X1).  By Yoneda the summand's unit goes to its vector, so the
    image holds the whole kernel at every object.  The kernel inclusion is
    injective, so at every object the differential incl o cover_1 has the
    row space of the second cover, hence the same reduced echelon form and
    the same kernel basis: the syzygy is the one the differential gives.

    That is the presentation `_minimal_presentation` builds.  The one that
    tau_inverse hands to z = Tr D m is the dual of D m's, with the same
    fields (`_checked_transpose`): the matrix is g^op, the differential g*,
    the cover the cokernel projection P1* -> z, and the syzygy the kernel
    bases of g*.  ar_quiver may hand it on to an isomorphic node, with the
    cover composed with the isomorphism.  No computation reads K, so a
    handed-over presentation builds it on first use, as the image of the
    differential (`kernel`).  K is not compared: the differential and the
    cover determine it."""
    p1: ProjSum
    p0: ProjSum
    differential: ModuleMap
    cover: ModuleMap
    matrix: AddMor
    syzygy: AddMor
    _kernel: Optional[Kernel] = field(default=None, compare=False, repr=False)

    @property
    def kernel(self) -> Kernel:
        """K, the kernel of the cover: the image of the differential, whose
        columns span it at every object (`_submodule_on_bases`)."""
        if self._kernel is None:
            self._kernel = _submodule_on_bases(
                self.p0.module, {y: self.differential.comps[y].column_space_basis()[0]
                                 for y in self.p0.cat.objects})
        return self._kernel


def minimal_presentation(m: CModule) -> Presentation:
    """P1 -> P0 -> m -> 0 from two projective covers; built once per module
    and memoised on it."""
    if m._presentation is None:
        m._presentation = _minimal_presentation(m)
    return m._presentation


def _minimal_presentation(m: CModule) -> Presentation:
    """The second cover is certified minimal from the kernel bases of its
    components alone, and the same bases are the syzygy P2 -> P1
    (`Presentation`): the second syzygy module itself is never built.  The
    matrix is read off the second cover's own unit values, and rebuilt into
    the differential as a check."""
    c0 = projective_cover(m)
    incl = c0.kernel.include
    psum1, cover1, lifts = _cover_map(c0.kernel.module)
    kernels = {y: cover1.comps[y].kernel_basis() for y in m.cat.objects}
    _check_kernel_in_radical(psum1, kernels)
    d = cover1.then(incl)
    values = [v for x, t in zip(psum1.vertices, lifts) for v in (incl.comps[x] @ t).data]
    matrix = Hull(m.cat).unflatten(psum1.obj, c0.psum.obj, Mat.column(m.cat.field, values))
    if proj_sum_map(psum1, c0.psum, matrix) != d:
        raise AssertionError("presentation matrix does not rebuild the differential")
    return Presentation(psum1, c0.psum, d, c0.cover, matrix, _syzygy(psum1, kernels),
                        c0.kernel)


def _syzygy(p1: ProjSum, kernels: Dict) -> AddMor:
    """The block morphism X2 -> X1 of `Presentation.syzygy`, from kernels[y],
    a kernel basis of the differential's component at y: one summand y of X2
    per basis vector, sent to that vector of P1(y) = flat Hom(y, X1)."""
    x2 = AddObject(tuple(y for y, k in kernels.items() for _ in range(k.cols)))
    values = [v for k in kernels.values() for v in k.transpose().data]
    return Hull(p1.cat).unflatten(x2, p1.obj, Mat.column(p1.cat.field, values))


def hom_dim(a: CModule, b: CModule) -> int:
    """dim Hom(a, b), counted for a projective a, else the nullity of the
    Yoneda matrix of the memoised minimal presentation of a (`_yoneda`),
    with no hom basis built; when b vanishes on P0 or P1 the nullity is
    dim Hom(P0, b), with no matrix built.

    A projective a is the sum of t_x copies of Hom(-, x), for its top
    dimensions t_x (`_top_count`), and Hom(Hom(-, x), b) = b(x) by Yoneda,
    so dim Hom(a, b) = sum_x t_x dim b(x), with no presentation built.
    """
    tops, projective = _top_count(a)
    if projective:
        return sum(t * b.dims[x] for x, t in tops.items())
    pres = minimal_presentation(a)
    width = sum(b.dims[x] for x in pres.p0.vertices)
    if not width or not any(b.dims[u] for u in pres.p1.vertices):
        return width
    return width - _yoneda(b.cat.field, b.dims, b.action, pres.matrix).rank()


def _top_count(m: CModule) -> Tuple[Dict, bool]:
    """The top dimensions t_x = dim m(x) - dim rad m(x) and whether m is
    projective (see is_projective_module), counted once per module and
    memoised on it."""
    if m._top is None:
        cat = m.cat
        tops = {x: m.dims[x] - _radical_actions(m, x).rank() for x in cat.objects}
        covered = sum(t * sum(cat.dim(y, x) for y in cat.objects) for x, t in tops.items())
        m._top = tops, covered == m.total_dim()
    return m._top


def is_projective_module(m: CModule) -> bool:
    """Whether m is projective, by counting: no presentation is built.

    With t_x = dim m(x) - dim rad m(x), the dimension of the top at x, the
    projective cover of m is the sum of t_x copies of Hom(-, x) (the
    split-basic assumption of `projective_cover`: Hom(-, x) has a simple,
    one dimensional top at x).  A cover is surjective, so its kernel has
    dimension sum_x t_x dim Hom(-, x) - dim m, and m is projective exactly
    when that kernel is zero.  The count is memoised (`_top_count`).
    """
    return _top_count(m)[1]


# ---------------------------------------------------------------------------
# duality, transpose, translates


def duality_D(m: CModule) -> CModule:
    """The componentwise dual, a module over the opposite category; an exact
    involution.

    Built once per module and cached on both sides, so that
    duality_D(duality_D(m)) is m.  It is built unvalidated: its action is the
    transpose of the functorial action of m, over opposite_category, whose
    tables are those of m.cat with the factors swapped, and transposing
    reverses products, (M(f) M(g))^T = M(g)^T M(f)^T; a unit acts by
    1^T = 1.
    """
    if m._dual is None:
        op = opposite_category(m.cat)
        action = {}
        for x in op.objects:
            for y in op.objects:
                for i in range(op.dim(x, y)):
                    action[(x, y, i)] = m.action[(y, x, i)].transpose()
        dual = CModule(op, dict(m.dims), action, validate=False)
        m._dual, dual._dual = dual, m
    return m._dual


def dual_map(phi: ModuleMap) -> ModuleMap:
    """Duality on maps: reverses direction, transposes components.  Built
    unvalidated: transposing phi_x m(f) = n(f) phi_y gives the naturality
    square of D phi at f in the opposite category, D m(f) phi_x^T =
    phi_y^T D n(f)."""
    return ModuleMap(duality_D(phi.tgt), duality_D(phi.src),
                     {x: phi.comps[x].transpose() for x in phi.comps},
                     validate=False)


def _dualized(m: CModule) -> Dict:
    """The components of g* = Hom(g, P_-): P0* -> P1*, keyed by object, for
    the minimal presentation Hom(-, g): P1 -> P0 of m, over the opposite
    category, where P0* = Hom_op(-, X0) and P1* = Hom_op(-, X1).

    At y, flat Hom_op(y, X0) is flat Hom(X0, y) = Hom(P0, P_y) (Yoneda), and
    g* sends h to h o g: its component at y is the Yoneda matrix of the
    presentation into the representable P_y (`_yoneda` on the memoised
    `_representable_action`), whose kernel is Hom(m, P_y), each map phi
    given by phi o cover.  g* is natural, as Hom(g, -) is; its cokernel is
    Tr m.
    """
    g, fld = minimal_presentation(m).matrix, m.cat.field
    return {y: _yoneda(fld, *_representable_action(m.cat, y), g) for y in m.cat.objects}


def _transpose_raw(m: CModule) -> CModule:
    """Tr m, the cokernel of g* (`_dualized`) in P1*, without the
    projective-summand check of `transpose` and with no presentation
    handed over: the column spans of g* form its image, a submodule, as g*
    is natural (`_cokernel`).  The plain route that tests and
    tools/output_hash.py compare against."""
    p1 = proj_sum(opposite_category(m.cat), minimal_presentation(m).p1.vertices)
    return _cokernel(p1.module, _dualized(m)).module


def transpose(m: CModule) -> CModule:
    """Tr m, the cokernel of the dualized differential g* of a minimal
    presentation (`_transpose_raw`).

    Rejects inputs with a projective direct summand, read off the kernel of
    the same g* (`_checked_transpose`), so the presentation is dualized once
    and no hom space is built.
    """
    tr, gap = _checked_transpose(m)
    if gap:
        raise PreconditionError(f"projective summand with dims {gap} present")
    return tr


def _checked_transpose(m: CModule) -> Tuple[CModule, Dict]:
    """Tr m and the dimension vector of the largest projective summand of m
    (`_projective_summand_dims`), both off one dualized presentation
    g*: P0* -> P1* (`_dualized`).  When m has no projective summand,
    P0* -g*-> P1* -> Tr m -> 0 is memoised on Tr m as its minimal
    presentation, certified as follows.

    Its matrix is g^op, the transposed blocks of m's (`_dual_matrix`), and
    must rebuild g* (proj_sum_map), as in `_minimal_presentation`.  Its
    cover is the cokernel projection.  The first cover P1* -> Tr m is
    minimal when its kernel, the image of g*, lies in the radical of P1*:
    `_check_kernel_in_radical` on the columns of g*.  The second,
    P0* -> im g*, is minimal when ker g* lies in the radical of P0*, which
    is what the empty projective-summand count says: it is the rank of the
    rows of ker g* outside that radical.  The kernel bases of g* are then
    the syzygy (`_syzygy`), and the presentation's kernel, built on first
    use, is the image of g*.  Minimal presentations are unique up to
    isomorphism, so this one serves Tr m wherever a fresh one would (ARS
    ch. IV.1; Auslander-Bridger 1969).
    """
    op, pres, g = opposite_category(m.cat), minimal_presentation(m), _dualized(m)
    kernels = {y: g[y].kernel_basis() for y in op.objects}
    gap = _projective_summand_dims(op, pres.p0.vertices, kernels)
    p0 = proj_sum(op, pres.p1.vertices)
    ck = _cokernel(p0.module, g)
    if not gap:
        p1 = proj_sum(op, pres.p0.vertices)
        differential = ModuleMap(p1.module, p0.module, g, validate=False)
        matrix = _dual_matrix(pres.matrix)
        if proj_sum_map(p1, p0, matrix) != differential:
            raise AssertionError("presentation matrix does not rebuild the differential")
        _check_kernel_in_radical(p0, g)
        ck.module._presentation = Presentation(p1, p0, differential, ck.project, matrix,
                                               _syzygy(p1, kernels))
    return ck.module, gap


def _dual_matrix(g: AddMor) -> AddMor:
    """g^op: X0 -> X1 over the opposite category for a block morphism
    g: X1 -> X0, block (x0_j -> x1_i) the coordinates of g's block
    (x1_i -> x0_j): Hom_op(x0_j, x1_i) = Hom(x1_i, x0_j)."""
    return AddMor(g.tgt, g.src, tuple(tuple(row[i] for row in g.blocks)
                                      for i in range(len(g.src.summands))))


def _projective_summand_dims(op: FinCategory, x0: Sequence, kernels: Dict) -> Dict:
    """The dimension vector of the largest projective direct summand of m,
    at the objects where it is nonzero, in the order of the objects, for
    kernels[x] a kernel basis of the component at x of g* = _dualized(m),
    op the opposite category and x0 the vertices of P0.

    The multiplicity a_x of P_x = Hom(-, x) as a summand of m is the rank of
    the composition pairing Hom(P_x, m) x Hom(m, P_x) -> End(P_x)/rad, which
    is k (the split-basic assumption of `projective_cover`).  The kernel of
    g*[x] is Hom(m, P_x), each phi given by h = phi o cover in
    Hom(P0, P_x) = flat Hom(X0, x) = flat Hom_op(x, X0) (`_dualized`).  P_x
    is projective, so every map P_x -> m is cover o u for some u in flat
    Hom(x, X0), and phi o cover o u = sum_k h_k u_k is outside the radical
    only through the summands x0_k = x, where it is the product of the
    coefficients of h_k and u_k at the one basis element of End(x) outside
    the radical.  So a_x is the rank of the top rows of that kernel
    (`_top_rows`, over op).  A pairing of a summand P_x^a with its
    complement lands in the radical (Krull-Schmidt), so the rank is exact in
    every characteristic.
    """
    gap = {y: 0 for y in op.objects}
    for x in op.objects:
        a = _top_rows(op, x0, x, kernels[x]).rank()
        for y in op.objects:
            gap[y] += a * op.dim(x, y)
    return {y: d for y, d in gap.items() if d}


def tau(m: CModule) -> CModule:
    """The translate D Tr; rejects projective summands, whose translate
    would vanish, by the check of `transpose`."""
    return duality_D(transpose(m))


def tau_inverse(m: CModule) -> CModule:
    """The inverse translate z = Tr D m; zero exactly on injectives.

    When m has no injective summand, z records m as its translate
    (`z._tau`), which almost_split_sequence(z) takes as its left term, and
    z holds its minimal presentation P0* -g*-> P1* -> z -> 0 already, the
    dual of that of D m, certified by `_checked_transpose`.  The proof:
    an injective summand of m is a projective summand of D m, and the
    projective-summand count of D m finds none.  Then P0* -> P1* -> z -> 0
    is a minimal presentation of z, so Tr z is the cokernel of its dual,
    which is g again: Tr z = coker g = D m through D m's own cover, and
    tau z = D Tr z = D D m = m, up to isomorphism (ARS ch. IV.1;
    Auslander-Bridger 1969).  With an injective summand nothing is recorded
    or handed over.
    """
    z, gap = _checked_transpose(duality_D(m))
    if not gap:
        z._tau = m
    return z


def is_injective_module(m: CModule) -> bool:
    return is_projective_module(duality_D(m))


# ---------------------------------------------------------------------------
# End algebras, isomorphism and decomposition


def end_algebra(m: CModule) -> Tuple[TableAlgebra, List[ModuleMap]]:
    """End(m) as a table algebra on the canonical basis b_0..b_(d-1) of
    hom_space(m, m), and that basis.

    The product b_i b_j (b_j first) has component b_i,x b_j,x at each
    object x, which is block (i, j) of vstack(b_k,x) @ hstack(b_k,x), both
    stacks over k.  So all d^2 products come from one product per object,
    and their flattened columns are cut out of the blocks in the layout of
    flatten_map, column i*d + j for b_i b_j.
    """
    basis = hom_space(m, m)
    if not basis:
        raise PreconditionError("End algebra of the zero module")
    d = len(basis)
    basis_mat = hstack([flatten_map(b) for b in basis])
    data = []
    for x in m.cat.objects:
        k = m.dims[x]
        if not k:
            continue
        comps = [b.comps[x] for b in basis]
        blocks = (vstack(comps) @ hstack(comps)).data
        w = d * k
        data.extend(blocks[(i * k + r) * w + j * k + c]
                    for r in range(k) for c in range(k) for i in range(d) for j in range(d))
    products = Mat(m.cat.field, basis_mat.rows, d * d, data)
    alg = end_table(m.cat.field, basis_mat, flatten_map(identity_map(m)), products)
    return alg, basis


def map_from_coords(basis: List[ModuleMap], coords) -> ModuleMap:
    fld = basis[0].src.cat.field
    out = zero_map(basis[0].src, basis[0].tgt)
    for c, b in zip(coords, basis):
        if c != fld.zero():
            out = out.add(b.scale(c))
    return out


def is_isomorphic(m: CModule, n: CModule) -> Optional[Tuple[ModuleMap, ModuleMap]]:
    """An explicit inverse pair (f: m -> n, g: n -> m), or a certified None.

    Only the forward basis of Hom(m, n) is built.  With m.dims == n.dims
    every component of a map m -> n is square, so an injective f is
    invertible: the first injective basis element f is returned with
    f.inverse() (Mat.inverse checks both sides).

    When no basis element is injective, None is certified by a local
    End, read off the memoised End reading (`_local_end`) of n first, then
    of m: callers pass the registered node, the end term or the
    representable second, whose reading is usually there already.  In a
    Krull-Schmidt category an indecomposable has a local End (Fitting's
    lemma; Krause, Expo. Math. 33, 2015), and the proof needs only that.
    If End(n) is local and phi = sum a_i f_i is an isomorphism, then 1_n =
    sum a_i (f_i o phi^-1).  The non-units of a local ring form its
    radical, a subspace, so some f_i o phi^-1 is a unit: f_i is an
    isomorphism, hence injective.  The same argument runs in End(m) when
    m is the local side.  When both modules are decomposable the forward
    basis decides nothing, and CapExceededError is raised; an empty
    Hom(m, n) still certifies None there, with no End reading.
    """
    if m.is_zero() or n.is_zero():
        if m.is_zero() and n.is_zero():
            return zero_map(m, n), zero_map(n, m)
        return None
    if m.dims != n.dims:
        return None
    fwd = hom_space(m, n)
    if not fwd:
        return None
    f = next((a for a in fwd if a.is_injective()), None)
    if f is not None:
        return f, f.inverse()
    if _local_end(n)[1] is None and _local_end(m)[1] is None:
        raise CapExceededError("isomorphism test inconclusive: both modules are decomposable")
    return None


def decompose_module(m: CModule) -> List[Image]:
    """Indecomposable summands: the images of the primitive idempotents e_i
    of A = End(m), which primitive_idempotents checks in A to sum to 1 and
    be orthogonal.  That carries over to maps, as the table is exact and
    map_from_coords linear and multiplicative.  image_module gives e_i =
    include_i o project_i, include_i injective, project_i surjective; so
    e_j e_i = [i = j] e_i gives project_j o include_i = [i = j].  End of a
    piece is e_i A e_i, a corner certified local.
    """
    if m.is_zero():
        return []
    alg, basis = end_algebra(m)
    idems = primitive_idempotents(alg)
    if len(idems) == 1:  # m is indecomposable: the image of 1 is m itself
        return [Image(m, identity_map(m), identity_map(m))]
    return [image_module(map_from_coords(basis, e)) for e in idems]


def _local_end(m: CModule) -> Tuple[int, Optional[int]]:
    """(dim End(m), dim End(m)/rad End(m)), with None for the second entry
    when End(m) is not local: find_nontrivial_idempotent finds an
    idempotent, so m is decomposable.  Read once per nonzero module and
    memoised on it; the memo keeps the two numbers, not the algebra.  A
    brick, End(m) = k, reads (1, 1) off one count or rank on the memoised
    presentation (hom_dim), with no algebra built; any other module reads
    it off end_algebra."""
    if m._end is None:
        if hom_dim(m, m) == 1:
            m._end = 1, 1
        else:
            _read_end(m, end_algebra(m)[0])
    return m._end


def _read_end(m: CModule, alg: TableAlgebra):
    """Memoises on m the End reading of `_local_end` off alg = End(m), for
    a caller that has built End(m) already."""
    local = find_nontrivial_idempotent(alg) is None
    m._end = alg.dim, (alg.dim - radical_basis(alg).cols) if local else None


def _summand_multiplicity(y: CModule, m: CModule) -> Optional[int]:
    """The multiplicity of the indecomposable y as a direct summand of m,
    certified by a trace pairing, or None where the certificate does not
    apply: the characteristic divides dim y, or End(y)/rad is not k, as
    the memoised End reading (`_local_end`) says.

    The multiplicity a is the rank of the composition pairing
    Hom(y, m) x Hom(m, y) -> End(y)/rad = k (Krull-Schmidt; Krause,
    Expo. Math. 33, 2015): with m = y^a + w, w free of y, a pairing through w
    lands in the radical, and the pairing on the y^a blocks is that of k^a.
    The rank is taken of T[a][b] = sum_x tr(g_b,x f_a,x), over bases f of
    Hom(y, m) and g of Hom(m, y): the trace of lambda 1 + r, r radical and
    so nilpotent, is lambda dim y, so T is dim y times the pairing.
    """
    p = y.cat.field.p
    if p is not None and y.total_dim() % p == 0:
        return None
    if _local_end(y)[1] != 1:
        return None
    fwd = hom_space(y, m)
    bwd = hom_space(m, y) if fwd else []
    if not bwd:
        return 0
    objs = [x for x in y.cat.objects if y.dims[x] and m.dims[x]]
    width = sum(y.dims[x] * m.dims[x] for x in objs)
    fs = Mat(y.cat.field, len(fwd), width,
             [v for f in fwd for x in objs for v in f.comps[x].transpose().data])
    gs = Mat(y.cat.field, len(bwd), width,
             [v for g in bwd for x in objs for v in g.comps[x].data])
    return (fs @ gs.transpose()).rank()


# ---------------------------------------------------------------------------
# extensions


class Ext1:
    """Ext^1(z, x) as H^1 of Hom(P2 -> P1 -> P0, x) on the memoised minimal
    presentation of z, each map out of a sum of representables read as its
    column of unit values, one block x(u) per summand u (`_yoneda`).

    The cocycles are the maps P1 -> x that vanish on the kernel of the
    differential, the image of the presentation's syzygy P2 -> P1: the
    kernel of its Yoneda matrix.  They are the maps K -> x composed with
    the second cover, which maps onto K.  The coboundaries, the psi o g for maps psi:
    P0 -> x, are the columns of the Yoneda matrix of the presentation, in
    the order of the unit-value basis of Hom(P0, x).  The representatives
    are the cocycle basis columns at the pivots beyond the coboundaries,
    and no hom space is solved.
    """

    def __init__(self, z: CModule, x: CModule):
        self.z = z
        self.x = x
        self.pres = minimal_presentation(z)
        fld = x.cat.field
        coboundaries = _yoneda(fld, x.dims, x.action, self.pres.matrix)
        cocycles = _yoneda(fld, x.dims, x.action, self.pres.syzygy).kernel_basis()
        span, pivots = hstack([coboundaries, cocycles]).column_space_basis()
        self._span = span
        self._class_slots = [t for t, p in enumerate(pivots) if p >= coboundaries.cols]
        self.representatives = [Mat.column(x.cat.field, span.col(t)) for t in self._class_slots]
        self.dim = len(self.representatives)

    def classes(self, cocycles: Mat) -> Mat:
        """Class coordinates in the basis of representatives, one column per
        column of cocycles, each the unit values of a cocycle P1 -> x."""
        coords = solve(self._span, cocycles)
        if coords is None:
            raise PreconditionError("column is not a cocycle")
        return Mat(self._span.field, self.dim, cocycles.cols,
                   [coords.at(t, j) for t in self._class_slots for j in range(cocycles.cols)])


@dataclass
class ShortExact:
    left: CModule
    middle: CModule
    right: CModule
    include: ModuleMap
    project: ModuleMap


def check_short_exact(se: ShortExact):
    if not se.include.is_injective():
        raise VerificationError("left map is not injective")
    if not se.project.is_surjective():
        raise VerificationError("right map is not surjective")
    if not se.include.then(se.project).is_zero():
        raise VerificationError("composite through the middle is nonzero")
    for x in se.middle.cat.objects:
        if se.middle.dims[x] != se.left.dims[x] + se.right.dims[x]:
            raise VerificationError(f"middle dimension mismatch at {x!r}")


def extension_from_cocycle(ext: Ext1, v: Mat) -> ShortExact:
    """The extension 0 -> x -> e -> z -> 0 of the cocycle psi: P1 -> x with
    the unit values v (`Ext1`): the pushout of the differential g: P1 -> P0
    along psi, e the cokernel of (psi, -g): P1 -> x + P0.

    psi is built by Yoneda (`_from_units`) and g is natural, so the column
    spans of the pair form its image, a submodule (`_cokernel`).  They are
    the spans of (xi, -incl): K -> x + P0 for the map xi: K -> x with
    psi = xi o cover_1, since cover_1 maps onto K, so e is the pushout of
    the syzygy inclusion along xi.  Exactness is not checked here: `splits`
    checks it first, and almost_split_sequence and verify_almost_split both
    ask it; a column v that is no cocycle fails there, as x -> e is then not
    injective.
    """
    pres, x = ext.pres, ext.x
    shapes = {k: (x.dims[u], 1) for k, u in enumerate(pres.p1.vertices)}
    psi = _from_units(pres.p1, x, list(split_blocks(x.cat.field, shapes, v.data).values()))
    xp, injs, projs = direct_sum([x, pres.p0.module])
    ck = _cokernel(xp, {o: vstack([psi.comps[o], -pres.differential.comps[o]])
                        for o in x.cat.objects})
    include = injs[0].then(ck.project)
    project = factor_through_cokernel(ck, projs[1].then(pres.cover))
    return ShortExact(x, ck.module, ext.z, include, project)


def splits(se: ShortExact) -> bool:
    """Whether 0 -> X -> Y -> Z -> 0 splits, after check_short_exact, by
    counting with hom_dim: no hom basis or section is built.  This is the
    one exactness check of a sequence: extension_from_cocycle leaves it
    here.

    Hom(Z, -) is left exact, so the image of Hom(Z, Y) -> End(Z) has
    dimension dim Hom(Z, Y) - dim Hom(Z, X).  The sequence splits exactly
    when 1_Z lies in that image, and the image is a right ideal of End(Z)
    (if p o s = f, then p o (s o e) = f o e), so it holds 1_Z exactly when
    it is all of End(Z).
    """
    check_short_exact(se)
    z = se.right
    return hom_dim(z, se.middle) - hom_dim(z, se.left) == hom_dim(z, z)


# ---------------------------------------------------------------------------
# almost split sequences


@dataclass
class AlmostSplit:
    sequence: ShortExact
    tau_module: CModule
    ext_dim: int
    socle_class: Tuple


def _socle(ext: Ext1, rads: Sequence[ModuleMap]) -> Mat:
    """The canonical basis, in class coordinates, of the classes of Ext^1
    that every s in rads, an endomorphism of ext.x, kills by
    postcomposition: the common kernel of the class matrices of the s o psi
    over the representatives psi.  s o psi has the unit values s(v_i), so s
    acts on a column by the block diagonal of its components at the
    vertices of P1.  The empty first block makes it all of Ext^1 when rads
    is empty."""
    fld = ext.x.cat.field
    reps = hstack(ext.representatives)
    return vstack([Mat.zeros(fld, 0, ext.dim)]
                  + [ext.classes(block_diag(fld, [s.comps[u] for u in ext.pres.p1.vertices])
                                 @ reps) for s in rads]).kernel_basis()


def almost_split_sequence(z: CModule) -> AlmostSplit:
    """The almost split sequence ending at an indecomposable non-projective z,
    built once and memoised on z; a refusal is not memoised, so it is raised
    again on every call.

    The class is taken in the socle of Ext^1(z, tau z); the materialized
    sequence is checked exact and non-split (`splits`).  The left term is
    the translate that tau_inverse recorded on z (`z._tau`) when z was built
    as tau_inverse(m) of an m with no injective summand: that m is tau z up
    to isomorphism, by the minimality proof of tau_inverse, so knitting gets
    its registered node back.  Otherwise it is tau(z) = D Tr z, and Tr z
    keeps the dual of z's presentation as its own (`_checked_transpose`),
    so verification, which presents D of each test module, finds D tau z =
    Tr z presented already.  The projective-summand check of `tau` passes:
    the local End(z), read off the memoised End reading (`_local_end`), and
    is_projective_module prove that z has no projective summand.

    The socle of Ext^1(z, tau z) under End(z) is simple, and it is the
    socle under End(tau z) (ARS ch. V.2; Auslander-Reiten, Comm. Algebra
    3, 1975), where s acts on a cocycle psi: P1 -> tau z by s o psi, with
    no lift through the cover.  So the socle is what the radical basis of
    End(tau z) kills (`_socle`), and the class is one product of the
    representatives with its coordinates.  The End reading of tau z is
    memoised off that same algebra (`_read_end`), so verify_almost_split
    does not build End(tau z) again.  When rad End(z) = 0, that is
    dim End(z) = dim End(z)/rad, Ext^1 is its own socle (one dimensional,
    dual to the stable End(z) = k) and End(tau z) is not built.
    """
    if z._ass is None:
        z._ass = _almost_split_sequence(z)
    return z._ass


def _almost_split_sequence(z: CModule) -> AlmostSplit:
    if z.is_zero():
        raise PreconditionError("zero module has no almost split sequence")
    dim, top = _local_end(z)
    if top is None:
        raise PreconditionError("module is decomposable")
    if is_projective_module(z):
        raise PreconditionError("projective module has no almost split sequence")
    tz = z._tau if z._tau is not None else tau(z)
    if tz.is_zero():
        raise AssertionError("translate of a non-projective vanished")
    ext = Ext1(z, tz)
    if ext.dim == 0:
        raise AssertionError("vanishing Ext against the translate")
    rads = []
    if dim > top:
        alg_t, basis_t = end_algebra(tz)
        _read_end(tz, alg_t)
        rad = radical_basis(alg_t)
        rads = [map_from_coords(basis_t, tuple(rad.col(j))) for j in range(rad.cols)]
    socle = _socle(ext, rads)
    if socle.cols == 0:
        raise AssertionError("empty socle in Ext against the translate")
    coords = tuple(socle.col(0))
    se = extension_from_cocycle(ext, hstack(ext.representatives)
                                @ Mat.column(z.cat.field, coords))
    if splits(se):
        raise AssertionError("candidate almost split sequence splits")
    return AlmostSplit(se, tz, ext.dim, coords)


def verify_almost_split(se: ShortExact, test_modules: Sequence[CModule]) -> int:
    """Checks the almost split property of a sequence against test modules.

    Exactness and non-splitness (both by `splits`) and indecomposability
    of both end terms are checked first, the latter with dim End/rad of
    each, both from the memoised End reading (`_local_end`): after
    almost_split_sequence(z) the left term's is new only when rad End(z) =
    0, as the socle step reads it otherwise.  Then, for each
    test module m, maps m -> right factor through the middle unless m is
    isomorphic to the right term, where the failure space has dimension
    dim End/rad; dually for maps left -> m.  Returns the number of test
    modules, raises VerificationError on any failure.

    The failure spaces are measured by Auslander's defects (ARS ch. IV.4).
    For the sequence 0 -> X -> Y -> Z -> 0, proved exact by
    check_short_exact, Hom(m, -) is left exact, so 0 -> Hom(m, X) ->
    Hom(m, Y) -> Hom(m, Z) is exact and the maps m -> Z that do not factor
    through Y span a space of dimension dim Hom(m, Z) - dim Hom(m, Y) +
    dim Hom(m, X).  Dually Hom(-, m) is left exact, and the maps X -> m
    that do not extend through Y span dim Hom(X, m) - dim Hom(Y, m) +
    dim Hom(Z, m).  Each dimension is one rank on a memoised presentation
    (`hom_dim`, by Yoneda), so no hom basis or composite is built.  The
    first defect is read off the presentation of m.  The second is read
    off the presentation of D m: D is an exact duality
    (ARS ch. II), so Hom(X, m) = Hom(D m, D X) for every X, and the defect
    is dim Hom(D m, D X) - dim Hom(D m, D Y) + dim Hom(D m, D Z).  D X,
    D Y and D Z only transpose matrices, so no presentation of the fresh
    X or Y is built, and knitting has already presented D m for every
    non-injective knitted m (ar_quiver).  A projective m, or the D m of an
    injective m, is not presented at all: hom_dim counts with its memoised top
    dimensions, which knitting's projectivity tests have already counted.

    is_isomorphic runs only where a defect is nonzero, and not when m is
    the end term itself.  A zero defect is
    correct for every m not isomorphic to the end term, and it cannot occur
    at m isomorphic to Z: the dimensions are invariant under isomorphism,
    so Hom(Z, Y) -> Hom(Z, Z) would be onto, and a lift of 1_Z would be a
    section of Y -> Z, which `splits` has already refused: there the same
    count finds that no section exists.  Likewise a zero covariant defect
    at m isomorphic to X would extend 1_X to a retraction of X -> Y, and a
    retraction splits the sequence too.
    """
    if isinstance(se, AlmostSplit):
        se = se.sequence
    if splits(se):
        raise VerificationError("sequence splits")
    top = {}  # dim End/rad of each end term
    for term, name in ((se.right, "right"), (se.left, "left")):
        top[name] = _local_end(term)[1]
        if top[name] is None:
            raise VerificationError(f"{name} term is decomposable")
    x, y, z = se.left, se.middle, se.right
    dx, dy, dz = (duality_D(t) for t in (x, y, z))
    for m in test_modules:
        if m.is_zero():
            raise VerificationError("zero module in the test family")
        coker = hom_dim(m, z) - hom_dim(m, y) + hom_dim(m, x)
        if coker and (m is z or is_isomorphic(m, z) is not None):
            if coker != top["right"]:
                raise VerificationError(
                    f"maps from the right term itself: cokernel {coker}, "
                    f"expected {top['right']}")
        elif coker:
            raise VerificationError(
                f"a map {m!r} -> right term does not factor through the middle")
        dm = duality_D(m)
        coker = hom_dim(dm, dx) - hom_dim(dm, dy) + hom_dim(dm, dz)
        if coker and (m is x or is_isomorphic(m, x) is not None):
            if coker != top["left"]:
                raise VerificationError(
                    f"maps into the left term itself: cokernel {coker}, "
                    f"expected {top['left']}")
        elif coker:
            raise VerificationError(
                f"a map left term -> {m!r} does not extend through the middle")
    return len(test_modules)


# ---------------------------------------------------------------------------
# Auslander-Reiten quiver by knitting


@dataclass
class ARQuiver:
    modules: List[CModule]
    projective: List[bool]
    injective: List[bool]
    edges: Dict[Tuple[int, int], int]
    tau_pairs: List[Tuple[int, int]]


def ar_quiver(cat: FinCategory, cap: int = 64) -> ARQuiver:
    """Knits the Auslander-Reiten quiver from the projectives.

    The nodes are done in one pass, in the order they are registered.  The
    edges into node z are read off once, from the summands of one module
    E: rad z for a projective z, and otherwise the middle term of the
    almost split sequence ending at z, which stays memoised on z, so a
    caller that asks for it again gets the same sequence.  The left term
    of that sequence is tau z.  When z was registered as tau_inverse(X) of
    a done node X, it is X itself (tau_inverse records it, with its
    minimality proof, and hands z its presentation), and `register` finds
    X by identity, with no isomorphism test; otherwise it is D Tr z,
    registered by an is_isomorphic scan over the nodes of its dimension
    vector.  A node registered before its tau_inverse copy (a
    decomposition piece, or a left term) takes the copy's work when the
    scan matches them, with an isomorphism f from the copy: the recorded
    translate, as tau z = tau(copy) up to isomorphism, unless the
    sequence at z is built already, and the presentation, with its cover
    followed by f, unless z is presented already.  Likewise a left term
    D Tr y that the scan matches to z hands D z the presentation of Tr y
    (`_checked_transpose`), its cover followed by D g for the inverse g of
    f, unless D z is presented already.  So every non-injective node
    leaves knitting with D of it presented, as tau_inverse presents D m
    at every other one, and verify_almost_split presents no D of a node.

    tau_inverse is not taken at a node j that the sequence at a node i
    registered as tau(node i): tau_inverse(node j) is isomorphic to
    node i, since tau^-1 tau z = z for every indecomposable non-projective
    z (ARS ch. IV.1), so registering it would find node i and add nothing.
    Node numbering, edges and tau pairs are those of taking it.  The
    summands of E are certified among the registered nodes by their
    multiplicities (`_summand_multiplicity`), trying the nodes Y with
    dim Y <= dim E at every object in the order `known_summands` gives.
    Once sum a_Y dim Y = dim E, E is the sum of the Y^a_Y, since what is left
    over has dimension zero.  Only when the certified multiplicities do not
    close is E decomposed (decompose_module) and its pieces registered;
    that fallback is the one route that can add a predecessor.  Closure
    under the inverse translate reaches every successor, and a closed
    knitting is the whole AR quiver: the nodes reached are closed under
    predecessors and successors, so they form finite components holding
    every projective, and by Auslander's theorem a finite component is the
    whole AR quiver of its connected block (ARS ch. VI.1).  One cap guards
    against infinite type: CapExceededError is raised for a node of total
    dimension above cap, or for more than 2 * cap nodes.
    """
    modules: List[CModule] = []
    edges: Dict[Tuple[int, int], int] = {}
    tau_pairs: List[Tuple[int, int]] = []
    projective: List[bool] = []
    injective: List[bool] = []
    by_dims: Dict[Tuple, List[int]] = {}  # node indices by dimension vector

    def dim_key(m: CModule) -> Tuple:
        return tuple(m.dims[x] for x in cat.objects)

    def register(m: CModule) -> int:
        # nodes are pairwise non-isomorphic, and is_isomorphic needs equal dims
        bucket = by_dims.setdefault(dim_key(m), [])
        for idx in bucket:  # a translate tau_inverse recorded is the node itself
            if modules[idx] is m:
                return idx
        for idx in bucket:
            pair = is_isomorphic(m, modules[idx])
            if pair is None:
                continue
            z, (f, g) = modules[idx], pair
            if m._tau is not None and z._tau is None and z._ass is None:
                z._tau = m._tau  # tau z = tau m: hand the copy's work to z
                if z._presentation is None:
                    z._presentation = replace(m._presentation,
                                              cover=m._presentation.cover.then(f))
            dm, dz = m._dual, duality_D(z)  # a left term D Tr y: dm = Tr y, from tau(y)
            if dm is not None and dm._presentation is not None and dz._presentation is None:
                dz._presentation = replace(dm._presentation,
                                           cover=dm._presentation.cover.then(dual_map(g)))
            return idx
        if m.total_dim() > cap:
            raise CapExceededError(
                f"indecomposable of total dimension {m.total_dim()} exceeds cap {cap}")
        if len(modules) >= 2 * cap:
            raise CapExceededError(f"more than {2 * cap} indecomposables")
        modules.append(m)
        bucket.append(len(modules) - 1)
        projective.append(is_projective_module(m))
        injective.append(is_injective_module(m))
        return len(modules) - 1

    def known_summands(e: CModule, i: int, jt: Optional[int]) -> Optional[Dict[int, int]]:
        """The multiplicities of the registered nodes in e, the predecessors
        of node i: rad of the projective node i when jt is None, else the
        middle term of the sequence from node jt = tau z to z = node i.
        None unless they are certified and their sum closes to dim e.

        A radical tries every node: there is no translate, so no recorded
        edge can stand in for a node already done.  A middle term tries
        the mesh, the nodes with an edge out of jt (Gabriel, LNM 831,
        1980), then the nodes after i but jt.  A done node j that is a
        summand of e has an irreducible map from tau z, so node jt was
        registered and the edge (jt, j) recorded when j was done.  An end
        term as a summand of e would be a loop of the AR quiver, and there
        are none (Bautista and Smalo, 1983).  Leaving a candidate out costs
        no soundness: had it a summand in e, the sum would not close and e
        would be decomposed."""
        if jt is None:
            order = list(range(len(modules)))
        else:
            order = sorted({j for (s, j) in edges if s == jt})
            order += [j for j in range(i + 1, len(modules)) if j != jt]
        left = list(dim_key(e))
        counts = {}
        for j in order:
            if not any(left):
                break
            y = modules[j]
            dims = dim_key(y)
            if any(d > r for d, r in zip(dims, left)):
                continue
            if hom_dim(y, e) == 0:
                continue
            a = _summand_multiplicity(y, e)
            if not a:
                continue
            counts[j] = a
            left = [r - a * d for r, d in zip(left, dims)]
        return None if any(left) else counts

    for x in cat.objects:
        register(yoneda_projective(cat, x))
    inverse_known = set()  # nodes j with tau^-1 (node j) registered already
    for i, m in enumerate(modules):  # register appends the nodes still to do
        jt = None
        if projective[i]:
            e = radical_submodule(m).module
        else:
            ass = almost_split_sequence(m)
            jt = register(ass.tau_module)
            tau_pairs.append((jt, i))
            inverse_known.add(jt)
            e = ass.sequence.middle
        counts = known_summands(e, i, jt)
        if counts is None:
            counts = {}
            for piece in decompose_module(e):
                j = register(piece.module)
                counts[j] = counts.get(j, 0) + 1
        for j, a in counts.items():
            edges[(j, i)] = edges.get((j, i), 0) + a
        if not injective[i] and i not in inverse_known:
            register(tau_inverse(m))
    return ARQuiver(modules, projective, injective, edges, tau_pairs)


def global_dimension(cat: FinCategory, cap: int = 16) -> Optional[int]:
    """Max projective dimension of the simples; None when it exceeds the cap."""
    best = 0
    for x in cat.objects:
        m = simple_module(cat, x)
        depth = 0
        while True:
            ker = projective_cover(m).kernel
            if ker.module.is_zero():
                break
            depth += 1
            if depth > cap:
                return None
            m = ker.module
        best = max(best, depth)
    return best
