"""Finite k-linear categories with explicit hom bases and structure constants.

A FinCategory carries, for every ordered object pair, a finite hom basis and
sparse composition constants, plus the subset of basis elements spanning the
radical (valid for the split basic categories built here: path categories of
bound quivers, their opposites, and tensor products of those).

Validation happens at the trust boundary, by one rule: a category is
checked (FinCategory._validate) when its tables are given from outside, as
tables passed to the constructor are, or when the check is the certificate
of a public answer, as the CLI's `tensor` and `info` jobs make it on the
categories they report.  The check covers the unit laws, associativity and
the radical ideal property, on the action matrices of the representables
Hom(-, w) (`_representable_action`), built once per object and memoised on
the category.  modcat wraps them as its projectives without checking them
again, and compose and Hull.pre_matrix act through them, so precomposition
is read off the comp tables in that one place.  Every category derived
here is built with validate=False, and its docstring proves its laws:
category_of (and so point_category) from the concatenation of paths,
opposite_category and tensor_product from the laws of their factors.

On top of that sit the additive hull (formal finite sums, block morphisms)
and the idempotent completion (pairs of an additive object and an idempotent
endomorphism), with certified Krull-Schmidt decomposition: one End algebra
per object, split by algebra.primitive_idempotents, which checks the sum and
orthogonality of the idempotents in that algebra.

Hull arithmetic runs through linalg, and every operation is the same three
steps: flatten, linear algebra, unflatten.  A block morphism f: X -> Y
flattens to one column: the coordinates of its (X_i -> Y_j) blocks, source
summand major, each block in the hom basis of the category.  Sums,
differences, scalings, zero and identity morphisms and the zero test are
entrywise on these columns.  Composing with a fixed morphism is linear in
this layout, so the hull builds one matrix per fixed morphism:
post_matrix(g, X), the matrix of f -> g o f, by a sparse walk of the comp
tables, and pre_matrix(f, Z), the matrix of g -> g o f, as the Yoneda
matrix of f on Hom(-, Z) (`_yoneda`), block diagonal in the representables
of Z's summands.  Composites, the hom spaces e_y Hom(X, Y) e_x of the
completion, End algebra tables and inverses are products and eliminations
of these matrices.  No nested block tuple is read or built outside
flatten and unflatten.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import TableAlgebra, end_table, primitive_idempotents
from .errors import PreconditionError
from .linalg import Field, Mat, block_diag, hstack, solve, vstack
from .quiver import BoundQuiver, MonomialIdeal, Quiver

Coords = Tuple
Label = object
ObjectId = object


class FinCategory:
    """A k-linear category with finitely many objects and finite hom bases.

    hom[(x, y)] lists the basis labels of Hom(x, y).  comp[(x, y, z)] maps a
    pair (i, j) of basis indices, f_i: x -> y and g_j: y -> z, to the sparse
    coordinates {k: scalar} of the composite g_j o f_i in the basis of
    Hom(x, z); absent pairs compose to zero.  units[x] is the coordinate
    tuple of the identity in End(x), radical[(x, y)] the set of basis indices
    spanning the radical.

    Tables given from outside are validated on construction
    (validate=True); the constructions of this module prove their tables
    valid and pass validate=False (see the module docstring).
    """

    def __init__(self, field: Field, objects: Sequence[ObjectId],
                 hom: Dict[Tuple[ObjectId, ObjectId], Tuple[Label, ...]],
                 comp: Dict, units: Dict[ObjectId, Coords],
                 radical: Dict[Tuple[ObjectId, ObjectId], frozenset],
                 meta: Optional[dict] = None, validate: bool = True):
        self.field = field
        self.objects = tuple(objects)
        self.hom = hom
        self.comp = comp
        self.units = units
        self.radical = radical
        self.meta = meta or {}
        self._opposite: Optional["FinCategory"] = None
        # dims and action of Hom(-, x) by object, memoised by _representable_action
        self._actions: Dict[ObjectId, Tuple[Dict, Dict]] = {}
        # representables Hom(-, x) by object, memoised by modcat.yoneda_projective
        self._representables: Dict[ObjectId, object] = {}
        self._non_unit: Dict[Tuple[ObjectId, ObjectId], Tuple[int, ...]] = {}
        if validate:
            self._validate()

    def __getstate__(self):
        return {**self.__dict__, "_actions": {}, "_representables": {}}

    def dim(self, x: ObjectId, y: ObjectId) -> int:
        return len(self.hom[(x, y)])

    def zero_coords(self, x: ObjectId, y: ObjectId) -> Coords:
        return tuple([self.field.zero()] * self.dim(x, y))

    def basis_coords(self, x: ObjectId, y: ObjectId, i: int) -> Coords:
        z, o = self.field.zero(), self.field.one()
        return tuple(o if k == i else z for k in range(self.dim(x, y)))

    def compose(self, x: ObjectId, y: ObjectId, z: ObjectId,
                f: Coords, g: Coords) -> Coords:
        """Coordinates of g o f for f: x -> y, g: y -> z: the action of f on
        the representable Hom(-, z) (`_representable_action`), applied to g."""
        fld = self.field
        dims, action = _representable_action(self, z)
        act = Mat(fld, dims[x], dims[y], _combination(fld, dims, action, x, y, enumerate(f)))
        return (act @ Mat.column(fld, g)).data

    def unit_index(self, x: ObjectId) -> Optional[int]:
        """The index i with units[x] the basis vector e_i, or None when the
        identity of x is not a basis element."""
        zero = self.field.zero()
        hits = [i for i, c in enumerate(self.units[x]) if c != zero]
        if len(hits) == 1 and self.units[x][hits[0]] == self.field.one():
            return hits[0]
        return None

    def _non_unit_indices(self, x: ObjectId, y: ObjectId) -> Tuple[int, ...]:
        """The basis indices of Hom(x, y), leaving out the identity of x when
        x == y and that identity is a basis element.  Memoised: module
        validation asks for it at every object pair of every module."""
        out = self._non_unit.get((x, y))
        if out is None:
            skip = self.unit_index(x) if x == y else None
            out = self._non_unit[(x, y)] = tuple(
                i for i in range(self.dim(x, y)) if i != skip)
        return out

    def is_radical(self, x: ObjectId, y: ObjectId, coords: Coords) -> bool:
        rad = self.radical[(x, y)]
        zero = self.field.zero()
        return all(c == zero for i, c in enumerate(coords) if i not in rad)

    def _validate(self):
        """Check the hom tables, the units, the unit laws, associativity and
        the radical, the last three on the representables.

        By Yoneda, the right unit law f o 1 = f and associativity are the
        unit law and the functoriality of every representable Hom(-, w), so
        `_functor_failure` checks them on `_representable_action`'s
        matrices, the very matrices that modcat.yoneda_projective wraps.
        The left unit law 1 o f = f is no functor law; it is read off the
        same matrices as M_w(f) u_w = f, for f: x -> w and the unit u_w of
        End(w).  So is the radical ideal property: column j of M_w(f_i), for
        f_i: x -> y, is g_j o f_i, which must lie in rad(x, w) when f_i or
        g_j is radical.
        """
        fld = self.field
        objs = self.objects
        for x in objs:
            for y in objs:
                if (x, y) not in self.hom:
                    raise PreconditionError(f"missing hom table for {(x, y)}")
        for x in objs:
            u = self.units[x]
            if len(u) != self.dim(x, x):
                raise PreconditionError(f"unit of {x} has wrong length")
            if self.is_radical(x, x, u):
                raise PreconditionError(f"unit of {x} lies in the radical")
        for w in objs:
            dims, action = _representable_action(self, w)
            unit = Mat.column(fld, self.units[w])
            for x in objs:
                if dims[x] and ((vstack([action[(x, w, i)] for i in range(dims[x])]) @ unit).data
                                != Mat.identity(fld, dims[x]).data):
                    raise PreconditionError(f"left unit law fails at {(x, w)}")
            failure = _functor_failure(self, dims, action)
            if failure is not None:
                kind, where = failure
                if kind == "unit":
                    raise PreconditionError(f"right unit law fails at {(where, w)}")
                raise PreconditionError(f"associativity fails at {where[:3] + (w,)}")
            for x in objs:
                top = [t for t in range(dims[x]) if t not in self.radical[(x, w)]]
                for y in objs:
                    for i in range(self.dim(x, y)):
                        cols = (range(dims[y]) if i in self.radical[(x, y)]
                                else self.radical[(y, w)])
                        if any(action[(x, y, i)].at(t, j) for t in top for j in cols):
                            raise PreconditionError(f"radical not an ideal at {(x, y, w)}")

    def __eq__(self, other):
        return (isinstance(other, FinCategory) and self.field == other.field
                and self.objects == other.objects and self.hom == other.hom
                and self.comp == other.comp and self.units == other.units
                and self.radical == other.radical)

    __hash__ = object.__hash__

    def __repr__(self):
        total = sum(len(v) for v in self.hom.values())
        return f"FinCategory({len(self.objects)} objects, total dim {total}, {self.field})"


def _representable_action(cat: FinCategory, w: ObjectId) -> Tuple[Dict, Dict]:
    """The dimensions and action matrices of the representable Hom(-, w),
    built once per object and memoised on cat.  f_a: y -> z acts by
    g -> g o f_a: column b of its matrix is g_b o f_a, the entry (a, b) of
    comp[(y, z, w)]."""
    if w in cat._actions:
        return cat._actions[w]
    fld = cat.field
    dims = {y: cat.dim(y, w) for y in cat.objects}
    action = {}
    for y in cat.objects:
        for z in cat.objects:
            datas = [[fld.zero()] * (dims[y] * dims[z]) for _ in range(cat.dim(y, z))]
            for (a, b), entry in cat.comp.get((y, z, w), {}).items():
                for t, v in entry.items():
                    datas[a][t * dims[z] + b] = v
            action.update(((y, z, a), Mat(fld, dims[y], dims[z], data))
                          for a, data in enumerate(datas))
    cat._actions[w] = dims, action
    return dims, action


def _combination(fld: Field, dims: Dict, action: Dict, x, z, coeffs) -> List:
    """The row-major entries of sum c M(h_k) over the pairs (k, c) of
    coeffs, for the basis elements h_k: x -> z and their matrices
    M(h_k) = action[(x, z, k)]: k^dims[z] -> k^dims[x]."""
    out = [fld.zero()] * (dims[x] * dims[z])
    if fld.p is not None:
        for k, c in coeffs:
            if c:
                out = [e + c * a for e, a in zip(out, action[(x, z, k)].data)]
        return [e % fld.p for e in out]
    # a Fraction product costs far more than a zero test
    for k, c in coeffs:
        if c:
            out = [e + c * a if a else e for e, a in zip(out, action[(x, z, k)].data)]
    return out


def _yoneda(fld: Field, dims: Dict, action: Dict, g: "AddMor") -> Mat:
    """[b(g_ji)]: sum_j b(x0_j) -> sum_i b(x1_i), for the contravariant
    functor b with the given dims and action (as in `_combination`) and a
    block morphism g: X1 -> X0 with blocks g_ji: x1_i -> x0_j; only the
    action at the pairs (x1_i, x0_j) is read.  It is the map Hom(P_X0, b)
    -> Hom(P_X1, b), phi -> phi o P_g, for P_X = Hom(-, X): by Yoneda a
    map phi: P_x0 -> b is its value v at the unit, and phi o P_g is then
    b(g) v, so Hom(P_X, b) is the column of unit values, one block b(x) per
    summand.  For the matrix of a presentation P1 -g-> P0 -> a, Hom(-, b)
    is left exact, so the kernel is Hom(a, b), each phi given by phi o
    cover.  For b = Hom(-, Z) it is precomposition, g -> g o f
    (`Hull.pre_matrix`)."""
    x0, x1 = g.tgt.summands, g.src.summands
    data = []
    for i, u in enumerate(x1):
        blocks = [_combination(fld, dims, action, u, x, enumerate(g.blocks[j][i]))
                  for j, x in enumerate(x0)]
        for r in range(dims[u]):
            for x, block in zip(x0, blocks):
                data.extend(block[r * dims[x]:(r + 1) * dims[x]])
    return Mat(fld, sum(dims[u] for u in x1), sum(dims[x] for x in x0), data)


def _functor_failure(cat: FinCategory, dims: Dict, action: Dict) -> Optional[Tuple]:
    """Where the matrices action[(x, y, i)]: k^dims[y] -> k^dims[x], one per
    hom basis element f_i: x -> y, fail to be a contravariant functor, or
    None: ("unit", x) when the unit of x does not act as the identity, and
    ("composite", (x, y, z, i, j)) when M(g_j o f_i) != M(f_i) M(g_j).

    Functoriality is checked with one product per middle object y: the
    vstack of M(f_i) over the basis elements f_i: x -> y times the hstack
    of M(g_j) over the g_j: y -> z, each (i, j) block compared with the
    combination of M(k) that the composition table gives for g_j o f_i.  A
    pair whose f_i or g_j is the identity basis element is left out: M(1) =
    1 by the unit check, so both sides are M(g_j) (or M(f_i)) by the unit
    laws of the category, which FinCategory._validate checks or its
    construction proves.  A unit that
    is not a basis element skips nothing.  Sources and targets of dimension
    zero carry empty blocks and are left out of the product.
    """
    fld = cat.field
    for x in cat.objects:
        unit = _combination(fld, dims, action, x, x, enumerate(cat.units[x]))
        if unit != list(Mat.identity(fld, dims[x]).data):
            return "unit", x
    for y in cat.objects:
        left = [(x, i) for x in cat.objects if dims[x]
                for i in cat._non_unit_indices(x, y)]
        right = [(z, j) for z in cat.objects if dims[z]
                 for j in cat._non_unit_indices(y, z)]
        if not left or not right:
            continue
        prod = (vstack([action[(x, y, i)] for x, i in left])
                @ hstack([action[(y, z, j)] for z, j in right]))
        width, got = prod.cols, prod.data
        r0 = 0
        for x, i in left:
            c0 = 0
            for z, j in right:
                entry = cat.comp.get((x, y, z), {}).get((i, j), {})
                block = [v for r in range(r0, r0 + dims[x])
                         for v in got[r * width + c0:r * width + c0 + dims[z]]]
                if block != _combination(fld, dims, action, x, z, entry.items()):
                    return "composite", (x, y, z, i, j)
                c0 += dims[z]
            r0 += dims[x]
    return None


def category_of(bq: BoundQuiver, field: Field) -> FinCategory:
    """The k-linear path category of a bound quiver; basis = surviving paths.

    Built unvalidated: the composite of two surviving paths is their
    concatenation, or zero when the ideal kills the word.  The ideal is
    monomial, so a word is killed exactly when it contains a generator, and
    (fg)h and f(gh) are both the word fgh, or both zero.  The trivial path
    of v is a basis element, the unit of v, and concatenating it changes no
    word.  Every object pair has its table, the radical is spanned by the
    paths of length >= 1, which form an ideal, as a word with such a factor
    is such a path or zero, and the unit, of length 0, lies outside it.
    """
    objects = list(bq.quiver.vertices)
    hom = {}
    for v in objects:
        for w in objects:
            hom[(v, w)] = tuple(p.arrows for p in bq.paths(v, w))
    index = {key: {lab: i for i, lab in enumerate(labels)} for key, labels in hom.items()}
    one = field.one()
    comp = {}
    for v in objects:
        for w in objects:
            for z in objects:
                table = {}
                for i, f in enumerate(hom[(v, w)]):
                    for j, g in enumerate(hom[(w, z)]):
                        word = f + g
                        if word in index[(v, z)]:
                            table[(i, j)] = {index[(v, z)][word]: one}
                if table:
                    comp[(v, w, z)] = table
    units = {v: tuple(one if lab == () else field.zero() for lab in hom[(v, v)])
             for v in objects}
    radical = {key: frozenset(i for i, lab in enumerate(labels) if len(lab) >= 1)
               for key, labels in hom.items()}
    return FinCategory(field, objects, hom, comp, units, radical,
                       meta={"kind": "path", "bq": bq}, validate=False)


def tensor_product(b: FinCategory, a: FinCategory) -> FinCategory:
    """The tensor product category: pairs of objects, hom spaces tensored.

    Basis labels are pairs (b label, a label) in b-major order, and the
    composite of basis pairs is the pair of composites with multiplied
    coefficients.  The radical is rad b (x) a + b (x) rad a, which is the
    radical of the tensor product for the split basic categories built here.

    Built unvalidated: b and a are valid, and the laws hold factorwise.
    Every object pair has its table, and the unit of (x, u) is u_x (x) u_u.
    Composition is the tensor product of the two bilinear compositions, so
    (h (x) h')((g (x) g')(f (x) f')) = (hgf) (x) (h'g'f') = ((h (x) h')(g (x)
    g'))(f (x) f') and (1 (x) 1)(f (x) f') = f (x) f' = (f (x) f')(1 (x) 1).
    A composite with a factor in rad b (x) a lies in rad b (x) a, as rad b
    is an ideal of b, and likewise for b (x) rad a.  The unit is not
    radical: u_x has a coordinate outside rad b, u_u one outside rad a, and
    their product is a nonzero coordinate of u_x (x) u_u outside the radical.
    """
    if b.field != a.field:
        raise PreconditionError("tensor factors over different fields")
    fld = b.field
    objects = [(x, u) for x in b.objects for u in a.objects]
    hom = {}
    for (x, u) in objects:
        for (y, v) in objects:
            hom[((x, u), (y, v))] = tuple((lb, la)
                                          for lb in b.hom[(x, y)]
                                          for la in a.hom[(u, v)])
    comp = {}
    for (x, u) in objects:
        for (y, v) in objects:
            for (z, w) in objects:
                bt = b.comp.get((x, y, z), {})
                at = a.comp.get((u, v, w), {})
                if not bt or not at:
                    continue
                da1 = a.dim(u, v)
                da2 = a.dim(v, w)
                da3 = a.dim(u, w)
                table = {}
                for (ib, jb), centb in bt.items():
                    for (ia, ja), centa in at.items():
                        entry = {}
                        for kb, cb in centb.items():
                            for ka, ca in centa.items():
                                entry[kb * da3 + ka] = fld.mul(cb, ca)
                        table[(ib * da1 + ia, jb * da2 + ja)] = entry
                comp[((x, u), (y, v), (z, w))] = table
    units = {}
    for (x, u) in objects:
        ub, ua = b.units[x], a.units[u]
        units[(x, u)] = tuple(fld.mul(cb, ca) for cb in ub for ca in ua)
    radical = {}
    for (x, u) in objects:
        for (y, v) in objects:
            da = a.dim(u, v)
            rb = b.radical[(x, y)]
            ra = a.radical[(u, v)]
            idx = set()
            for ib in range(b.dim(x, y)):
                for ia in range(da):
                    if ib in rb or ia in ra:
                        idx.add(ib * da + ia)
            radical[((x, u), (y, v))] = frozenset(idx)
    return FinCategory(fld, objects, hom, comp, units, radical,
                       meta={"kind": "tensor", "b": b, "a": a}, validate=False)


def opposite_category(c: FinCategory) -> FinCategory:
    """Same objects and labels, arrows formally reversed; an exact involution.

    Built once per category and cached on both sides, so that
    opposite_category(opposite_category(c)) is c.  Built unvalidated: c is
    valid, and the tables of the opposite are those of c with the factors
    swapped, g o_op f = f o g.  So associativity of the opposite is that of
    c read backwards, its left unit law is the right unit law of c and vice
    versa, the units are c's, and rad_op(x, y) = rad(y, x) is an ideal, as
    the ideal property is two sided.
    """
    if c._opposite is not None:
        return c._opposite
    hom = {(x, y): c.hom[(y, x)] for x in c.objects for y in c.objects}
    comp = {}
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                base = c.comp.get((z, y, x), {})
                if not base:
                    continue
                comp[(x, y, z)] = {(i, j): dict(entry)
                                   for (j, i), entry in base.items()}
    radical = {(x, y): c.radical[(y, x)] for x in c.objects for y in c.objects}
    op = FinCategory(c.field, c.objects, hom, comp, dict(c.units), radical,
                     meta={"kind": "opposite", "base": c}, validate=False)
    c._opposite, op._opposite = op, c
    return op


def point_category(field: Field, name: str = "pt") -> FinCategory:
    """The one object category with End = k (coefficients "mod k"), the
    path category of one vertex with no arrows, so built unvalidated."""
    return category_of(BoundQuiver(Quiver([name], []), MonomialIdeal()), field)


# ---------------------------------------------------------------------------
# additive hull and idempotent completion


@dataclass(frozen=True)
class AddObject:
    """A formal finite direct sum; summand order normalized by object id."""

    summands: Tuple[ObjectId, ...]

    @staticmethod
    def of(summands: Sequence[ObjectId]) -> "AddObject":
        return AddObject(tuple(sorted(summands, key=repr)))

    @property
    def is_zero(self) -> bool:
        return not self.summands


@dataclass(frozen=True)
class AddMor:
    """A block morphism between additive objects.

    blocks[j][i] is the coordinate tuple of the (source summand i ->
    target summand j) component.
    """

    src: AddObject
    tgt: AddObject
    blocks: Tuple[Tuple[Coords, ...], ...]


@dataclass(frozen=True)
class KarObject:
    """An object of the idempotent completion: (additive object, idempotent)."""

    base: AddObject
    idem: AddMor


@dataclass
class Summand:
    """One indecomposable piece of a decomposition with its certificates."""

    piece: KarObject
    include: AddMor   # base -> base, carries piece -> ambient
    project: AddMor   # base -> base, carries ambient -> piece


class Hull:
    """Block morphism calculus over a FinCategory.

    flatten(f) lists the blocks of f: X -> Y source summand major, block
    (X_i -> Y_j) at the offset of pair (i, j), each block in the hom basis
    of Hom(X_i, Y_j); unflatten is its inverse, and every operation below
    is flatten, linear algebra on the flat columns, unflatten.
    post_matrix(g, X) is the matrix of f -> g o f from flat Hom(X, g.src)
    to flat Hom(X, g.tgt), walked off the comp tables; pre_matrix(f, Z) the
    matrix of g -> g o f from flat Hom(f.tgt, Z) to flat Hom(f.src, Z), the
    action of f on Hom(-, Z) through the memoised representables.  Every
    composite below is a product with one of them.
    """

    def __init__(self, cat: FinCategory):
        self.cat = cat

    # construction ---------------------------------------------------------
    def to_add(self, x) -> AddObject:
        if isinstance(x, AddObject):
            return x
        if isinstance(x, KarObject):
            raise PreconditionError("expected an additive object, got a completion object")
        if x not in self.cat.objects:
            raise PreconditionError(f"{x!r} is not an object of the category")
        return AddObject.of([x])

    def to_kar(self, x) -> KarObject:
        if isinstance(x, KarObject):
            if x.idem.src != x.base or x.idem.tgt != x.base:
                raise PreconditionError(
                    "the idempotent of a completion object must be an "
                    "endomorphism of its base")
            return x
        add = self.to_add(x)
        return KarObject(add, self.identity(add))

    def zero_mor(self, x: AddObject, y: AddObject) -> AddMor:
        return self.unflatten(x, y, Mat.zeros(self.cat.field, self.flat_dim(x, y), 1))

    def identity(self, x: AddObject) -> AddMor:
        """The unit of each summand in its diagonal block, zero elsewhere."""
        off, n = self._layout(x, x)
        vals = [self.cat.field.zero()] * n
        for i, xs in enumerate(x.summands):
            vals[off[i][i]:off[i][i] + self.cat.dim(xs, xs)] = self.cat.units[xs]
        return self.unflatten(x, x, Mat.column(self.cat.field, vals))

    # arithmetic -----------------------------------------------------------
    def add(self, f: AddMor, g: AddMor) -> AddMor:
        return self.unflatten(f.src, f.tgt, self.flatten(f) + self.flatten(g))

    def sub(self, f: AddMor, g: AddMor) -> AddMor:
        return self.unflatten(f.src, f.tgt, self.flatten(f) - self.flatten(g))

    def scale(self, c, f: AddMor) -> AddMor:
        return self.unflatten(f.src, f.tgt, self.flatten(f).scale(c))

    def then(self, f: AddMor, g: AddMor) -> AddMor:
        """The composite g o f (f applied first)."""
        if f.tgt != g.src:
            raise PreconditionError("composition type mismatch")
        return self.unflatten(f.src, g.tgt, self.post_matrix(g, f.src) @ self.flatten(f))

    # flattening -----------------------------------------------------------
    def flat_dim(self, x: AddObject, y: AddObject) -> int:
        return sum(self.cat.dim(xs, ys) for xs in x.summands for ys in y.summands)

    def _layout(self, x: AddObject, y: AddObject) -> Tuple[List[List[int]], int]:
        """off[i][j], the position of block (x_i -> y_j) in flat Hom(x, y),
        and the flat dimension."""
        off, pos = [], 0
        for xs in x.summands:
            row = []
            for ys in y.summands:
                row.append(pos)
                pos += self.cat.dim(xs, ys)
            off.append(row)
        return off, pos

    def post_matrix(self, g: AddMor, x: AddObject) -> Mat:
        """The matrix of f -> g o f, flat Hom(x, g.src) -> flat Hom(x, g.tgt)."""
        cat = self.cat
        fld = cat.field
        zero, add, mul = fld.zero(), fld.add, fld.mul
        src_off, cols = self._layout(x, g.src)
        tgt_off, rows = self._layout(x, g.tgt)
        data = [zero] * (rows * cols)
        for i, xs in enumerate(x.summands):
            for j, ys in enumerate(g.src.summands):
                c0 = src_off[i][j]
                for k, zs in enumerate(g.tgt.summands):
                    table = cat.comp.get((xs, ys, zs))
                    if not table:
                        continue
                    gb, r0 = g.blocks[k][j], tgt_off[i][k]
                    for (a, b), entry in table.items():
                        s = gb[b]
                        if s == zero:
                            continue
                        for t, v in entry.items():
                            idx = (r0 + t) * cols + c0 + a
                            data[idx] = add(data[idx], mul(s, v))
        return Mat(fld, rows, cols, data)

    def pre_matrix(self, f: AddMor, z: AddObject) -> Mat:
        """The matrix of g -> g o f, flat Hom(f.tgt, z) -> flat Hom(f.src, z):
        the Yoneda matrix (`_yoneda`) of f on Hom(-, z), whose value at y is
        flat Hom(y, z) and whose action at the pairs f reads is the block
        diagonal of the representables Hom(-, z_k) (`_representable_action`)."""
        cat = self.cat
        reps = [_representable_action(cat, w) for w in z.summands]
        ends = set(f.src.summands) | set(f.tgt.summands)
        dims = {y: sum(d[y] for d, _ in reps) for y in ends}
        action = {(u, x, a): block_diag(cat.field, [act[(u, x, a)] for _, act in reps])
                  for u in set(f.src.summands) for x in set(f.tgt.summands)
                  for a in range(cat.dim(u, x))}
        return _yoneda(cat.field, dims, action, f)

    def flatten(self, f: AddMor) -> Mat:
        return Mat.column(self.cat.field, [c for i in range(len(f.src.summands))
                                           for row in f.blocks for c in row[i]])

    def unflatten(self, x: AddObject, y: AddObject, vec: Mat) -> AddMor:
        vals = list(vec.col(0))
        pos = 0
        blocks = [[None] * len(x.summands) for _ in y.summands]
        for i, xs in enumerate(x.summands):
            for j, ys in enumerate(y.summands):
                d = self.cat.dim(xs, ys)
                blocks[j][i] = tuple(vals[pos:pos + d])
                pos += d
        return AddMor(x, y, tuple(tuple(row) for row in blocks))

    def is_zero_mor(self, f: AddMor) -> bool:
        return self.flatten(f).is_zero()

    # completion -----------------------------------------------------------
    def check_idempotent(self, e: AddMor):
        if e.src != e.tgt:
            raise PreconditionError("idempotent must be an endomorphism")
        if self.then(e, e) != e:
            raise PreconditionError("morphism is not idempotent")

    def kar_hom_basis(self, x, y) -> List[AddMor]:
        """Canonical basis of e_y Hom(base_x, base_y) e_x for plain, additive
        or completion objects x and y."""
        x, y = self.to_kar(x), self.to_kar(y)
        return self._columns(x.base, y.base, self._kar_hom_matrix(x, y))

    def _kar_hom_matrix(self, x: KarObject, y: KarObject) -> Mat:
        """The canonical basis of e_y Hom(base_x, base_y) e_x as flat columns:
        the pivot columns of the matrix of h -> e_y o h o e_x."""
        if self.flat_dim(x.base, y.base) == 0:
            return Mat.zeros(self.cat.field, 0, 0)
        op = self.post_matrix(y.idem, x.base) @ self.pre_matrix(x.idem, y.base)
        return op.column_space_basis()[0]

    def _columns(self, x: AddObject, y: AddObject, mat: Mat) -> List[AddMor]:
        return [self.unflatten(x, y, Mat(self.cat.field, mat.rows, 1, mat.col(j)))
                for j in range(mat.cols)]

    def kar_end_algebra(self, x) -> Tuple[TableAlgebra, List[AddMor]]:
        alg, basis, _ = self._end_algebra(self.to_kar(x))
        return alg, basis

    def _end_algebra(self, x: KarObject) -> Tuple[TableAlgebra, List[AddMor], Mat]:
        """End(x), its canonical basis, and that basis as flat columns."""
        basis_mat = self._kar_hom_matrix(x, x)
        if basis_mat.cols == 0:
            raise PreconditionError("End algebra of the zero object")
        basis = self._columns(x.base, x.base, basis_mat)
        products = hstack([self.post_matrix(b, x.base) @ basis_mat for b in basis])
        alg = end_table(self.cat.field, basis_mat, self.flatten(x.idem), products)
        return alg, basis, basis_mat

    def mor_from_coords(self, basis: List[AddMor], coords: Coords) -> AddMor:
        basis_mat = hstack([self.flatten(b) for b in basis])
        return self.unflatten(basis[0].src, basis[0].tgt,
                              basis_mat @ Mat.column(self.cat.field, coords))

    def invert(self, f: AddMor) -> Optional[AddMor]:
        """Two sided inverse of an endomorphism-shaped block morphism, if any."""
        if f.src != f.tgt:
            return None
        sol = solve(self.post_matrix(f, f.src), self.flatten(self.identity(f.src)))
        if sol is None:
            return None
        g = self.unflatten(f.src, f.src, sol)
        if self.then(f, g) != self.identity(f.src) or self.then(g, f) != self.identity(f.src):
            return None
        return g


def hom_basis(c: FinCategory, x, y) -> List[AddMor]:
    """Basis of Hom(x, y) for plain, additive, or completion objects."""
    return Hull(c).kar_hom_basis(x, y)


def split_idempotent(c: FinCategory, x: KarObject) -> Tuple[AddMor, AddMor]:
    """The canonical splitting e = g o f through (base, e); f o g = 1_(base,e).

    Both maps are carried by e itself: f includes the completion object into
    the base, g projects onto it.  Both composites are e o e = e, which
    check_idempotent verifies exactly.
    """
    Hull(c).check_idempotent(x.idem)
    return x.idem, x.idem


def decompose_object(c: FinCategory, x) -> List[Summand]:
    """Indecomposable summands with pairwise orthogonal primitive idempotents.

    primitive_idempotents splits A = End(x) and checks in A that the e_i sum
    to 1 and e_i e_j = [i = j] e_i; that carries over, as the table is exact
    and coordinates -> basis columns linear, injective, multiplicative, with
    1 -> x.idem.  A summand has include = project = e_i, the identity of the
    piece (base, e_i), and End(piece) = e_i A e_i is a corner certified local.
    """
    hull = Hull(c)
    kx = hull.to_kar(x)
    hull.check_idempotent(kx.idem)
    if hull.is_zero_mor(kx.idem):
        return []
    alg, _, basis_mat = hull._end_algebra(kx)
    idems = [hull.unflatten(kx.base, kx.base, basis_mat @ Mat.column(c.field, e))
             for e in primitive_idempotents(alg)]
    return [Summand(KarObject(kx.base, e), include=e, project=e) for e in idems]
