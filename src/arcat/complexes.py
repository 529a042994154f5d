"""Bounded n-complexes over a coefficient category, as representations.

A complex shape is a linear run of degrees (interval or explicit window)
where any n consecutive differentials compose to zero, or a cyclic grading
where consecutive pairs compose to zero.  Each shape compiles to a bound
quiver whose vertices are the degrees, whose arrows are the differentials
and whose relations are the vanishing windows.  An NComplex is a QRep of
that quiver with degree access on top, and a chain map is a QRepMap with
components keyed by degree; sums, copairs, injections, hom bases and
validation are repcat's, and phi and psi carry complexes to modules over
the tensor category and back.

The coil J_j(M) is the induced representation f_star_j(M) of the shape
quiver (repcat.f_star_v): one copy of M per surviving path from degree j,
so M on one window of consecutive degrees from j, joined by identities.
A map f: M -> Z_j gives the coil's leg J_j(M) -> Z, its transpose across
the evaluation adjunction (repcat's sharp): the copy of path q takes f
followed by Z along q.  The coil map sums the legs of one map into each
degree of Z: of the identities, a degreewise-surjective chain map onto Z
through which every null-homotopic map factors by an explicit homotopy
formula; of the projective covers P_j -> Z_j, the coil part of a right
approximation, which adds evaluation copies of the requested generators.

Validation follows modcat's one rule: a complex or chain map is validated
when it is built from data given from outside (from_rep) or when the check
is the certificate of a public answer: the coil map, the approximation
map and its generator certificate, the lift of a null-homotopic map, the
map assembled from a homotopy and the steps of a stalk filtration.
Everything else is derived from valid inputs and built unvalidated, with
its proof in its docstring: coils, sums, legs, copairs, truncations and
the homotopies that find_null_homotopy solves for.

An approximation's source Y is one flat sum of the evaluation copies'
generators and the cover coils, and it certifies each generator G by
preimages: the injections of G's evaluation copies are validated chain
maps G -> Y, and their composites with the validated approximation map
have rank dim Hom(G, Z), so Hom(G, Y) -> Hom(G, Z) is surjective.  The
copies of all generators are validated and composed in one stacked pass.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, VerificationError
from .fincat import FinCategory
from .linalg import Mat, equation_matrix, hstack, solve, split_blocks, vstack
from .modcat import (CModule, ModuleMap, _cover_map, cokernel_module,
                     factor_through_cokernel, identity_map,
                     kernel_module, naturality_equations, zero_map, zero_module)
from .quiver import Arrow, BoundQuiver, MonomialIdeal, Path, Quiver
from .repcat import (QRep, QRepMap, f_star_v, morphism_failures, qrep_hom,
                     rep_copair, rep_direct_sum, rep_injections, sharp)


@dataclass(frozen=True)
class Interval:
    m: int


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int


@dataclass(frozen=True)
class Cyclic:
    order: int


Shape = Union[Interval, Window, Cyclic]


@dataclass(frozen=True)
class NComplexSpec:
    """A nilpotency degree together with the run of degrees carrying it.

    Linear shapes kill every composite of n consecutive differentials and
    need n >= 2; cyclic shapes always kill consecutive pairs around the
    circle, for any order >= 1.
    """
    n: int
    shape: Shape

    def __post_init__(self):
        if isinstance(self.shape, Interval):
            if self.n < 2 or self.shape.m < 1:
                raise PreconditionError("interval shapes need n >= 2 and m >= 1")
        elif isinstance(self.shape, Window):
            if self.n < 2 or self.shape.lo > self.shape.hi:
                raise PreconditionError("window shapes need n >= 2 and lo <= hi")
        elif isinstance(self.shape, Cyclic):
            if self.n < 1 or self.shape.order < 1:
                raise PreconditionError("cyclic shapes need n >= 1 and order >= 1")
        else:
            raise PreconditionError(f"unknown shape {self.shape!r}")

    @cached_property
    def cyclic(self) -> bool:
        return isinstance(self.shape, Cyclic)

    @property
    def window_len(self) -> int:
        """How many consecutive degrees one vanishing composite spans."""
        return 2 if self.cyclic else self.n

    @cached_property
    def _degrees(self) -> Tuple[int, ...]:
        if isinstance(self.shape, Interval):
            return tuple(range(1, self.shape.m + 1))
        if isinstance(self.shape, Window):
            return tuple(range(self.shape.lo, self.shape.hi + 1))
        return tuple(range(self.shape.order))

    @cached_property
    def _diff_degrees(self) -> Tuple[int, ...]:
        return self._degrees if self.cyclic else self._degrees[:-1]

    def degrees(self) -> List[int]:
        return list(self._degrees)

    def diff_degrees(self) -> List[int]:
        return list(self._diff_degrees)

    def wrap(self, i: int) -> Optional[int]:
        """The degree i normalizes to, or None when it falls off the shape."""
        if self.cyclic:
            return i % self.shape.order
        return i if self._degrees[0] <= i <= self._degrees[-1] else None

    @cached_property
    def _arrows(self) -> Dict[int, str]:
        return {i: f"a{i}" for i in self._diff_degrees}

    def arrow(self, i: int) -> str:
        name = self._arrows.get(self.wrap(i))
        if name is None:
            raise PreconditionError(f"no differential at degree {i}")
        return name

    def padded(self) -> "NComplexSpec":
        """The window extended so every coil starting inside it fits."""
        if self.cyclic:
            return self
        lo, hi = self._degrees[0], self._degrees[-1]
        return NComplexSpec(self.n, Window(lo, hi + self.n - 1))


_CATEGORIES: Dict[NComplexSpec, BoundQuiver] = {}


def build_category(spec: NComplexSpec) -> BoundQuiver:
    """The bound quiver whose representations are complexes of this shape,
    built once per shape."""
    bq = _CATEGORIES.get(spec)
    if bq is None:
        bq = _CATEGORIES[spec] = _bound_quiver(spec)
    return bq


def _bound_quiver(spec: NComplexSpec) -> BoundQuiver:
    """The degrees as vertices, an arrow spec.arrow(i): i -> i + 1 for each
    differential, and the vanishing windows as relations.  Every path of
    window_len arrows contains a window, so a surviving path has at most
    window_len - 1 arrows and the path walk's cap is window_len."""
    length = spec.window_len
    arrows = [Arrow(spec.arrow(i), i, spec.wrap(i + 1)) for i in spec._diff_degrees]
    windows = [Path(i, spec.wrap(i + length),
                    tuple(spec.arrow(i + k) for k in range(length)))
               for i in spec._degrees if spec.wrap(i + length) is not None]
    return BoundQuiver(Quiver(list(spec._degrees), arrows),
                       MonomialIdeal(frozenset(windows)), cap=length)


class NComplex(QRep):
    """A complex of shape spec: a representation of build_category(spec).

    The shape quiver's vertices are the degrees, so the components are the
    vertex modules, and a chain map is a QRepMap with components keyed by
    degree.  The differential at degree i, d(i), is the arrow map of
    spec.arrow(i); the maps are stored once, as the arrow maps.
    """

    def __init__(self, spec: NComplexSpec, coeff: FinCategory,
                 components: Dict[int, CModule],
                 differentials: Dict[int, ModuleMap], validate: bool = True):
        self.spec = spec
        super().__init__(build_category(spec), coeff, components,
                         {spec.arrow(i): d for i, d in differentials.items()},
                         validate)

    @property
    def differentials(self) -> Mapping[int, ModuleMap]:
        """The differentials by degree, read-only, read off the arrow maps
        on each access."""
        return MappingProxyType({i: self.d(i) for i in self.spec._diff_degrees})

    def _validate(self):
        """QRep's checks; the relations are the windows of differentials."""
        QRep._validate(self)

    def _relation_failure(self, window: Path) -> str:
        return (f"window of {self.spec.window_len} differentials from degree "
                f"{window.source} is nonzero")

    @property
    def components(self) -> Dict[int, CModule]:
        return self.vertex_modules

    def d(self, i: int) -> ModuleMap:
        return self.arrow_maps[self.spec.arrow(i)]

    def composite(self, i: int, count: int) -> ModuleMap:
        """The composite of `count` differentials starting at degree i."""
        cur = _composite_or_none(self, i, count)
        if cur is None:
            raise PreconditionError(
                f"no {count} consecutive differentials from degree {i}")
        return cur

    def degree_dims(self) -> Dict[int, int]:
        return {i: self.components[i].total_dim() for i in self.spec._degrees}


def from_rep(spec: NComplexSpec, r: QRep) -> NComplex:
    """A representation of build_category(spec) as a complex, validated."""
    x = _view(spec, r)
    x._validate()
    return x


def _view(spec: NComplexSpec, r: QRep) -> NComplex:
    """A representation of build_category(spec) as a complex, unvalidated:
    its arrow maps are taken as they are, without keying them by degree and
    back."""
    x = NComplex.__new__(NComplex)
    x.spec = spec
    QRep.__init__(x, r.bq, r.coeff, r.vertex_modules, r.arrow_maps, validate=False)
    return x


def _direct_sum(xs: Sequence[NComplex], spec: NComplexSpec,
                coeff: FinCategory) -> NComplex:
    """rep_direct_sum of complexes of shape spec, as a complex; built
    unvalidated, with no injection or projection (rep_injections builds
    those read)."""
    return _view(spec, rep_direct_sum(xs, build_category(spec), coeff))


def _zero_filled(spec: NComplexSpec, coeff: FinCategory, comps: Mapping[int, CModule],
                 diffs: Mapping[int, ModuleMap]) -> NComplex:
    """The complex of shape spec with the given components and differentials,
    the zero module at every other degree and the zero map at every other
    differential, built unvalidated: callers whose given pieces are not a
    complex already validate the result."""
    z = zero_module(coeff)
    comps = {i: comps.get(i, z) for i in spec._degrees}
    diffs = {i: diffs[i] if i in diffs else zero_map(comps[i], comps[spec.wrap(i + 1)])
             for i in spec._diff_degrees}
    return NComplex(spec, coeff, comps, diffs, validate=False)


def stalk(spec: NComplexSpec, degree: int, m: CModule) -> NComplex:
    """m concentrated in one degree, all differentials zero."""
    w = spec.wrap(degree)
    if w is None:
        raise PreconditionError(f"degree {degree} is outside the shape")
    return _zero_filled(spec, m.cat, {w: m}, {})


# ---------------------------------------------------------------------------
# coil complexes and the coil epimorphism


def interval_J(spec: NComplexSpec, j: int, m: CModule) -> NComplex:
    """The coil J_j(m): f_star_v of m along degree j on the shape quiver.

    Its copies of m sit on the surviving paths from degree j, one per
    degree of the window from j, and the differentials shift each copy to
    the next, so m is spread over the window joined by identities.  On a
    linear shape the whole window must fit.  The coil is a complex by
    construction and is built unvalidated (f_star_v's proof).
    """
    degs = spec._degrees
    if not spec.cyclic and (j not in degs or j + spec.window_len - 1 not in degs):
        raise PreconditionError(f"window from degree {j} does not fit the shape")
    return _view(spec, f_star_v(build_category(spec), spec.wrap(j), m))


def pad_complex(x: NComplex, spec: NComplexSpec) -> NComplex:
    """x viewed on a larger window, zero outside its own degrees."""
    if x.spec == spec:
        return x
    if x.spec.cyclic or spec.cyclic:
        raise PreconditionError("only linear shapes can be padded")
    if x.spec.n != spec.n:
        raise PreconditionError("padding cannot change the nilpotency degree")
    old = set(x.spec._degrees)
    if not old <= set(spec._degrees):
        raise PreconditionError("target window does not contain the source")
    return _zero_filled(spec, x.coeff, x.components, x.differentials)


def pad_chain_map(f: QRepMap, spec: NComplexSpec) -> QRepMap:
    """f between its ends padded to spec (`pad_complex`), zero at the new
    degrees; f itself when both ends already have that shape."""
    if f.src.spec == spec and f.tgt.spec == spec:
        return f
    src = pad_complex(f.src, spec)
    tgt = pad_complex(f.tgt, spec)
    comps = {i: f.comps[i] if i in f.comps
             else zero_map(src.components[i], tgt.components[i]) for i in spec._degrees}
    return QRepMap(src, tgt, comps, validate=False)


def _coil_legs(z: NComplex, maps: Sequence[ModuleMap]) -> Tuple[NComplex, List[NComplex],
                                                                List[QRepMap]]:
    """z padded, the coils J_j(M_k) and their legs (sharp) into it, of
    maps[k]: M_k -> z_j for the k-th degree j of z; all built unvalidated."""
    spec_p = z.spec.padded()
    zp = pad_complex(z, spec_p)
    coils = [interval_J(spec_p, j, f.src) for j, f in zip(z.spec._degrees, maps)]
    legs = [sharp(zp.bq, j, zp, f, coil)
            for j, f, coil in zip(z.spec._degrees, maps, coils)]
    return zp, coils, legs


@dataclass
class CoilEpi:
    padded: NComplex
    source: NComplex
    blocks: List[int]
    p: QRepMap


def coil_epi(z: NComplex) -> CoilEpi:
    """The degreewise-surjective map from the sum of coils on z's degrees.

    The coil at degree j maps in by the leg of the identity of z_j
    (`_coil_legs`): the composites (1, d, d^2, ...) starting at j; the
    identity block at each degree forces surjectivity.  p, the copair of
    the legs out of the coils' sum, is a public answer, so it is validated
    and checked surjective.
    """
    blocks = z.spec.degrees()
    zp, coils, legs = _coil_legs(z, [identity_map(z.components[j]) for j in blocks])
    p = rep_copair(_direct_sum(coils, zp.spec, z.coeff), zp, legs)
    p._validate()
    for i in p.tgt.spec._degrees:
        if not p.comps[i].is_surjective():
            raise VerificationError(f"coil map not surjective at degree {i}")
    return CoilEpi(p.tgt, p.src, blocks, p)


def _composite_or_none(z: NComplex, j: int, count: int) -> Optional[ModuleMap]:
    """d^{j+count-1} ... d^j, the path map of its run of differentials, or
    None when the run leaves the shape."""
    spec = z.spec
    steps = [spec.wrap(j + k) for k in range(count + 1)]
    if None in steps or any(w not in spec._diff_degrees for w in steps[:-1]):
        return None
    return z.path_map(Path(steps[0], steps[-1], tuple(spec.arrow(w) for w in steps[:-1])))


def _homotopy_terms(src: NComplex, tgt: NComplex, i: int, mids) -> List:
    """The summands d_tgt^(k) s d_src^(window-1-k) at degree i of the map
    induced by a homotopy s defined at the degrees in mids, as triples
    (mid, before, after); summands running off a linear shape are dropped.
    A run of differentials between two degrees of the shape stays on it, so
    both composites exist once mid and low lie on the shape."""
    spec = src.spec
    length = spec.window_len
    out = []
    for k in range(length):
        mid = spec.wrap(i + length - 1 - k)
        low = spec.wrap(i - k)
        if mid is None or low is None or mid not in mids:
            continue
        out.append((mid, _composite_or_none(src, i, length - 1 - k),
                    _composite_or_none(tgt, low, k)))
    return out


def assemble_null_homotopic(src: NComplex, tgt: NComplex,
                            s: Dict[int, ModuleMap]) -> QRepMap:
    """The chain map determined by a homotopy: the sum over each degree of
    d_tgt^(k) s d_src^(window-1-k); always null-homotopic by construction."""
    comps = {}
    for i in src.spec._degrees:
        cur = zero_map(src.components[i], tgt.components[i])
        for mid, before, after in _homotopy_terms(src, tgt, i, s):
            cur = cur.add(before.then(s[mid]).then(after))
        comps[i] = cur
    return QRepMap(src, tgt, comps, validate=True)


def find_null_homotopy(l: QRepMap) -> Optional[Dict[int, ModuleMap]]:
    """Degreewise maps s with l = sum of d^(k) s d^(window-1-k), or None.

    s at degree i points window-1 degrees down; summands whose degrees fall
    off a linear shape are dropped.  The unknowns are the components
    X_(i,c) of s, and each degree i and coefficient object c gives the
    equation l_i(c) = sum of after(c) X_(mid,c) before(c).  The naturality
    equations of each s_i make it a map of coefficient modules, so the
    components are built unvalidated: the solve proves them natural.
    """
    spec = l.src.spec
    coeff = l.src.coeff
    fld = coeff.field
    lows = {}
    for i in spec._degrees:
        low = spec.wrap(i - (spec.window_len - 1))
        if low is not None:
            lows[i] = low
    shapes = {(i, c): (l.tgt.components[low].dims[c], l.src.components[i].dims[c])
              for i, low in lows.items() for c in coeff.objects}
    equations, rhs = [], []
    for i in spec._degrees:
        tgt_i, src_i = l.tgt.components[i], l.src.components[i]
        live = [c for c in coeff.objects if tgt_i.dims[c] * src_i.dims[c]]
        terms = _homotopy_terms(l.src, l.tgt, i, lows) if live else []
        for c in live:
            equations.append((tgt_i.dims[c], src_i.dims[c],
                              [(1, after.comps[c], (mid, c), before.comps[c])
                               for mid, before, after in terms]))
            rhs.extend(l.comps[i].comps[c].data)
    for i, low in lows.items():
        natural = naturality_equations(l.src.components[i], l.tgt.components[low],
                                       lambda c, i=i: (i, c))
        equations += natural
        rhs += [fld.zero()] * sum(p * q for p, q, _ in natural)
    sol = solve(equation_matrix(fld, shapes, equations), Mat.column(fld, rhs))
    if sol is None:
        return None
    blocks = split_blocks(fld, shapes, sol.col(0))
    return {i: ModuleMap(l.src.components[i], l.tgt.components[low],
                         {c: blocks[(i, c)] for c in coeff.objects}, validate=False)
            for i, low in lows.items()}


def factor_null_homotopy(l: QRepMap, coil: CoilEpi) -> QRepMap:
    """Factors a null-homotopic map l through the coil surjection exactly.

    With l = sum of d^(k) s d^(window-1-k), the coils' sum has at degree
    i one copy of z_j for each coil J_j(z_j) and path q: j -> i, coil by
    coil and in bq.paths order within a coil.  The lift maps into copy q by
    the window-1-len(q) differentials from i up to the window's top
    j + window - 1, then s there; the copies are stacked in that order.

    Every degree i of the padded shape has a copy.  On a linear shape with
    top degree hi the coils start at every degree of z, so i <= hi has the
    trivial path from j = i, and hi < i <= hi + n - 1 has the path from
    j = hi, of length i - hi <= n - 1, which survives.  On a cyclic shape
    every degree is a coil block, with its trivial path.
    """
    spec_p = coil.padded.spec
    lp = pad_chain_map(l, spec_p)
    if lp.tgt != coil.padded:
        raise PreconditionError("map target does not match the coil target")
    s = find_null_homotopy(lp)
    if s is None:
        raise PreconditionError("map is not null-homotopic")
    length = spec_p.window_len
    paths = coil.padded.bq.all_paths()
    tops = {j: s[spec_p.wrap(j + length - 1)] for j in coil.blocks}
    src = lp.src
    comps = {}
    for i in spec_p._degrees:
        copies = [_composite_or_none(src, i, length - 1 - q.length).then(tops[j])
                  for j in coil.blocks for q in paths[(j, i)]]
        comps[i] = ModuleMap(src.components[i], coil.source.components[i],
                             {c: vstack([f.comps[c] for f in copies])
                              for c in src.coeff.objects}, validate=False)
    lifted = QRepMap(src, coil.source, comps, validate=True)
    if lifted.then(coil.p) != lp:
        raise VerificationError("factorization residual is nonzero")
    return lifted


# ---------------------------------------------------------------------------
# truncation and approximations


def hard_truncate(x: NComplex, floor: int) -> NComplex:
    """Zeroes every component below the floor; window shapes only.

    Built unvalidated: a kept differential joins two kept components, every
    other one is a zero map, and a window of differentials either passes a
    zero map or is a window of x, so it vanishes.
    """
    if not isinstance(x.spec.shape, Window):
        raise PreconditionError("hard truncation needs a window shape")
    return _zero_filled(x.spec, x.coeff, {i: c for i, c in x.components.items() if i >= floor},
                        {i: d for i, d in x.differentials.items() if i >= floor})


@dataclass
class Approximation:
    source: NComplex
    chain_map: QRepMap
    padded: NComplex
    multiplicities: List[int]
    certified: List[bool]


def right_approximation(z: NComplex, gens: Sequence[NComplex]) -> Approximation:
    """An approximation Y -> z: evaluation copies of each generator plus the
    coils of projective covers.

    The projective cover cov_j: P_j -> z_j of each degree j gives the coil
    J_j(P_j) and its leg, the transpose of cov_j (sharp): cov_j followed by
    d^k at degree j + k (`_coil_legs`).  Y is the flat sum of the copies'
    sources, the generators, and the cover coils, and the map Y -> z is the
    copair of the evaluation maps and the legs, built unvalidated.
    Validation is at the boundary: the map is validated, every block
    included, and checked degreewise surjective.  certified[s] says that
    Hom(G_s, Y) -> Hom(G_s, z) is surjective, shown by preimages
    (`_certify_generators`).
    """
    zp, coils, legs = _coil_legs(z, [_cover_map(z.components[j])[1]
                                     for j in z.spec._degrees])
    spec_p = zp.spec
    gens_p = [pad_complex(g, spec_p) for g in gens]
    eval_bases = [qrep_hom(g, zp) for g in gens_p]
    multiplicities = [len(basis) for basis in eval_bases]
    copies = [f for basis in eval_bases for f in basis]
    pieces = [f.src for f in copies]
    y = _direct_sum(pieces + coils, spec_p, z.coeff)
    g_map = rep_copair(y, zp, copies + legs)
    g_map._validate()
    if not g_map.is_surjective():
        raise VerificationError("approximation map is not degreewise surjective")
    certified = _certify_generators(gens_p, multiplicities,
                                    rep_injections(y, pieces), g_map)
    if not all(certified):
        raise VerificationError("approximation certificate failed")
    return Approximation(y, g_map, zp, multiplicities, certified)


def _certify_generators(gens: Sequence[NComplex], multiplicities: Sequence[int],
                        injections: Sequence[QRepMap],
                        g_map: QRepMap) -> List[bool]:
    """certified[s] for each generator G_s: the injections of its evaluation
    copies (the next multiplicities[s] of `injections`) are maps out of G_s
    into Y, the source of g_map, that pass validation as chain maps, and
    their composites with the validated g_map have rank multiplicities[s] =
    dim Hom(G_s, Z).  Those preimages then span Hom(G_s, Z), so
    Hom(G_s, Y) -> Hom(G_s, Z) is surjective.

    All the copies are checked in one stacked pass: validation by
    repcat.morphism_failures, which names the copies that fail, and the
    composites by one product per degree and coefficient object, g_map's
    component times the copies' nonempty components side by side, whose
    column block k is copy k's composite.  Each copy's composite, read
    column by column in the same order for every copy, is one row of its
    generator's rank matrix."""
    y = g_map.src
    copies = injections[:sum(multiplicities)]
    owner = [s for s, mult in enumerate(multiplicities) for _ in range(mult)]
    certified = [True] * len(gens)
    for s, f, failure in zip(owner, copies, morphism_failures(y, copies)):
        g = gens[s]
        if failure is not None or (f.src is not g and f.src != g):
            certified[s] = False
    kept = [k for k, s in enumerate(owner) if certified[s]]
    flat: Dict[int, List] = {k: [] for k in kept}
    for v, comp in g_map.comps.items():
        for c, mat in comp.comps.items():
            ks = [k for k in kept if copies[k].comps[v].comps[c].cols]
            if not ks or not mat.rows:
                continue
            prod = mat @ hstack([copies[k].comps[v].comps[c] for k in ks])
            off = 0
            for k in ks:
                w = copies[k].comps[v].comps[c].cols
                for j in range(off, off + w):
                    flat[k] += prod.data[j::prod.cols]
                off += w
    fld = y.coeff.field
    for s, mult in enumerate(multiplicities):
        if certified[s] and mult:
            rows = [flat[k] for k in kept if owner[k] == s]
            certified[s] = Mat(fld, mult, len(rows[0]),
                               [x for row in rows for x in row]).rank() == mult
    return certified


# ---------------------------------------------------------------------------
# stalk filtrations on cyclic shapes


@dataclass
class StalkFiltration:
    steps: List[Tuple[int, CModule]]


def stalk_filtration_certificate(x: NComplex,
                                 cap: int = 64) -> Optional[StalkFiltration]:
    """Greedily peels stalk subcomplexes spanned by differential kernels.

    Success certifies membership in the extension closure of stalks;
    returning None only means the greedy search gave up.
    """
    if not x.spec.cyclic:
        raise PreconditionError("stalk filtrations are for cyclic shapes")
    spec = x.spec
    steps: List[Tuple[int, CModule]] = []
    cur = x
    rounds = 0
    while cur.total_dim() > 0:
        rounds += 1
        if rounds > cap:
            return None
        peeled = False
        for j in spec._degrees:
            ker = kernel_module(cur.d(j))
            if ker.module.total_dim() == 0:
                continue
            steps.append((j, ker.module))
            ck = cokernel_module(ker.include)
            comps = dict(cur.components)
            comps[j] = ck.module
            diffs = {}
            for i in spec._diff_degrees:
                d = cur.d(i)
                if i == j:
                    d = factor_through_cokernel(ck, d)
                if spec.wrap(i + 1) == j:
                    d = d.then(ck.project)
                diffs[i] = d
            cur = NComplex(spec, x.coeff, comps, diffs, validate=True)
            peeled = True
            break
        if not peeled:
            return None
    return StalkFiltration(steps)
