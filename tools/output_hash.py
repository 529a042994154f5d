"""Bit-identity hashes of arcat's outputs, for comparing two checkouts.

    python3 tools/output_hash.py --seed 1

Prints one SHA-256 per set:

- `cli`: the exit code, stdout and stderr of 75 CLI jobs, run in process
  through `cli.main`: `ar-quiver` (text, `--out dot`, `--field Q`), `ass`
  over F_101 and Q, `verify` and `info` on A4 and A5 mod rad^2, mod rad^3
  and without relations and on the 2-, 3- and 4-cycles mod rad^2 (63
  jobs); `tensor` on A4 mod rad^2 and the 2-cycle mod rad^2 (2 jobs);
  `ar-quiver` over F_101 and Q, `roundtrip` and `ass` at two simples, with
  A2 coefficients, on A3 mod rad^2 and the 2-cycle mod rad^2 (10 jobs).
- `decompose-modules` and `decompose-objects`: every `decompose_module`
  answer, and every `decompose_object` answer, of the decompose benchmark
  workload at the given seed, in op order (the seed draws the order), with
  every matrix entry and block coordinate hashed together with its type.
  The two lines are separate so that one can stay bit-identical while the
  other changes (a summand of a module with multiplicity may come back in
  another basis of the same module).
- `validate`: the accept/refuse outcome of every single-entry +1
  perturbation of every action matrix of the knitted modules, and of every
  coefficient of the composition table, of six categories: A5 mod rad^3,
  the 3-cycle mod rad^2, A4 without relations and one loop mod rad^2 over
  F_101, A3 mod rad^2 over Q, and A3 mod rad^2 with A2 coefficients over
  F_101.  A4 has composites of three arrows, so there a table perturbation
  can break associativity alone; the loop has a non-identity endomorphism
  and a zero composite of two non-identity basis elements.  An outcome is
  `accept` or the class of the error; messages are left out, since a
  refusal only has to name one failing statement.
- `presentations`: for every knitted module of the six `validate`
  categories, the components of its minimal presentation's differential
  and cover map, and the action of its transpose (`_transpose_raw`), every
  entry hashed with its type.
- `complexes`: every coil, approximation and factoring answer of the
  complexes-rep benchmark workload at the given seed, in op order: coil
  sources and maps, approximation sources, chain maps, multiplicities and
  certificates, and factored lifts, every entry hashed with its type (the
  workload's representation ops are left out); then the exit code, stdout
  and stderr of 48 `approximate` CLI jobs: interval 4, window 0..3 with
  n = 3, and the cycles of order 2 and 1 (n = 1), each with `generators =
  none` and `coils`, on a stalk of the point and of both A2 projectives,
  over F_101 and with `--field Q`.
- `coils`: over F_101 and Q, with point and A2 coefficients, on the two
  cyclic shapes that the complexes-rep workload never draws, the
  one-vertex cycle with n = 1 and the 3-cycle with n = 2.  The targets z
  are the stalk and the coil of every indecomposable coefficient module at
  every degree, then four direct sums of one to three of those drawn from
  a fixed seed.  For each z: `coil_epi` (source and map),
  `right_approximation` with generators `none` and `coils` (the coils of
  the representable projectives at every degree, as the CLI builds them;
  source, map, multiplicities and certificates), and `factor_null_homotopy`
  through z's coil map of a null-homotopic map from another drawn sum,
  assembled from a random homotopy; every entry hashed with its type.
- `shapes`: the exit code, stdout and stderr of 147 CLI jobs on seven
  complex shapes (interval 3 and 11, window 0..3 and -1..3 with n = 3, the
  cycles of order 2, of order 1 with n = 1 and of order 3 with n = 2):
  `info`, `ar-quiver`, `ass` at the simples of degrees 0 and 1, `verify` at
  the simple of degree 1, `roundtrip` and `tensor`, each plain, with `--out
  dot` and with `--field Q`.  A degree outside the shape is refused, and so
  is `--out` on any command but `ar-quiver` (42 jobs); the refusals are
  hashed too.
- `verify`: the outcome of `verify_almost_split` against the complete
  knitted family of A4 mod rad^2, A5 mod rad^3, the 3-cycle mod rad^2 and A3
  mod rad^2 with A2 coefficients, over F_101, at every non-projective z, on
  four sequences: the almost split sequence ending at z, the split control
  tau z -> tau z + z -> z, the almost split sequence with its left map
  replaced by zero, and the extension of z by the first knitted x other than
  tau z with Ext^1(z, x) nonzero, at the first class representative (exact
  and non-split, but not almost split).  An outcome is the returned count,
  or the message of the `VerificationError`, since the messages name the
  failing statement.
- `sequences`: over F_101 and Q, on the four `verify` categories and on
  one loop mod rad^2 with A2 coefficients, the almost split sequence
  ending at every non-projective knitted z: the actions of its three
  terms and of the translate, its `include` and `project` components, its
  `ext_dim` and its `socle_class`, every entry hashed with its type.  On
  the loop category some z have radical endomorphisms, so their socle
  classes come from the End(z) action on Ext^1.

- `idempotents`: `primitive_idempotents` of the End algebras of scrambled
  direct sums of knitted modules of A3 mod rad^2 and the 2-cycle mod rad^2,
  both with A2 coefficients, over F_101 and over Q: for each pair and field,
  three sums of each of two, three and four summands, with the first
  summand repeated, drawn with their base changes from a fixed design
  seed; every coordinate hashed with its type.
- `repcat`: over F_101 and over Q, on the three representation pairs of
  the complexes-rep workload (A2 with point coefficients, A3 mod rad^2 and
  the 2-cycle mod rad^2 with A2 coefficients): `f_star_v` and
  `adjunction_unit` at every vertex and every indecomposable coefficient
  module, and likewise on one loop mod rad^2 with point and A2
  coefficients (two paths from its vertex to itself); then, for
  representations drawn as that workload draws them (the same design seed
  and pools, the given seed for coordinates), with its vertex and
  coefficient module, `lemma2_cover` and `sharp` of every basis map
  p -> r(v); every entry hashed with its type.
- `linalg`: the products `a @ b` of a fixed corpus of operand pairs drawn
  from a design seed, over F_2, F_101 and Q: empty shapes, outer products
  (one inner index), matrix-vector products, and products with inner
  dimensions 2 to 30, up to 48 x 4 x 48, each at left and right densities
  0.02, 0.1, 0.5 and 1; every entry hashed with its type.  It pins the
  product kernels bit for bit, whichever path each product takes.

Run it in two checkouts and compare the lines.  It imports arcat from the
checkout's `src/`, and takes the job texts and the workload inputs from
`bench/workloads.py` and `bench/inputs.py`, which it only reads.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from arcat import cli  # noqa: E402
from arcat.algebra import primitive_idempotents  # noqa: E402
from arcat.complexes import (Cyclic, NComplex, NComplexSpec,  # noqa: E402
                             assemble_null_homotopic, build_category, coil_epi,
                             factor_null_homotopy, from_rep, interval_J,
                             right_approximation, stalk)
from arcat.errors import PreconditionError, VerificationError  # noqa: E402
from arcat.fincat import FinCategory, category_of  # noqa: E402
from arcat.linalg import Field, Mat  # noqa: E402
from arcat.modcat import (CModule, Ext1, ModuleMap, ShortExact,  # noqa: E402
                          _transpose_raw, almost_split_sequence, ar_quiver,
                          direct_sum, end_algebra, extension_from_cocycle,
                          hom_space, minimal_presentation,
                          representation_category, verify_almost_split,
                          yoneda_projective)
from arcat.quiver import Arrow, BoundQuiver, MonomialIdeal, Path, Quiver  # noqa: E402
from arcat.repcat import (QRep, QRepMap, adjunction_unit, f_star_v,  # noqa: E402
                          lemma2_cover, rep_direct_sum, sharp, tensor_base)

# (label, family, m, n): A_m modulo rad^n (n None: no relations), or the
# m-cycle modulo rad^2 when family is "C"
KNIT = (("A4-rad2", "A", 4, 2), ("A4-rad3", "A", 4, 3), ("A4", "A", 4, None),
        ("A5-rad2", "A", 5, 2), ("A5-rad3", "A", 5, 3), ("A5", "A", 5, None),
        ("C2-rad2", "C", 2, 2), ("C3-rad2", "C", 3, 2), ("C4-rad2", "C", 4, 2))
A2_COEFFICIENT = "\n[coefficient]\nvertices = 1 2\narrow b1: 1 -> 2\n"


def cli_jobs():
    """(name, job text, extra argv) for the 75 jobs, in a fixed order."""
    job = workloads._job_text
    jobs = []
    for label, family, m, n in KNIT:
        # a middle vertex: its simple is not projective
        mid = f"simple {(m + 1) // 2 if family == 'A' else m // 2}:pt"
        jobs += [(f"{label}.ar", job(family, m, n, "ar-quiver"), []),
                 (f"{label}.dot", job(family, m, n, "ar-quiver"), ["--out", "dot"]),
                 (f"{label}.ar-Q", job(family, m, n, "ar-quiver"), ["--field", "Q"]),
                 (f"{label}.ass", job(family, m, n, "ass", mid), []),
                 (f"{label}.ass-Q", job(family, m, n, "ass", mid), ["--field", "Q"]),
                 (f"{label}.verify", job(family, m, n, "verify", mid), []),
                 (f"{label}.info", job(family, m, n, "info"), [])]
    for label, family, m, n in (("A4-rad2", "A", 4, 2), ("C2-rad2", "C", 2, 2)):
        jobs.append((f"{label}.tensor", job(family, m, n, "tensor"), []))
    for label, family, m, targets in (("A3-rad2xA2", "A", 3, ("2:1", "2:2")),
                                      ("C2-rad2xA2", "C", 2, ("0:1", "1:2"))):
        jobs += [(f"{label}.ar", job(family, m, 2, "ar-quiver") + A2_COEFFICIENT, []),
                 (f"{label}.ar-Q", job(family, m, 2, "ar-quiver") + A2_COEFFICIENT,
                  ["--field", "Q"]),
                 (f"{label}.roundtrip", job(family, m, 2, "roundtrip") + A2_COEFFICIENT, [])]
        jobs += [(f"{label}.ass-{t}", job(family, m, 2, "ass", f"simple {t}") + A2_COEFFICIENT, [])
                 for t in targets]
    return jobs


# (label, complex line, stalk degree)
APPROXIMATE_SHAPES = (("interval4", "interval 4", 2), ("window0-3", "window 0 3 n=3", 1),
                      ("cyclic2", "cyclic 2", 0), ("cyclic1", "cyclic 1 n=1", 0))


def approximate_jobs():
    """(name, job text, extra argv) for the 48 `approximate` jobs."""
    jobs = []
    for label, shape, degree in APPROXIMATE_SHAPES:
        for coeff, obj, extra in (("pt", "pt", ""), ("A2-1", "1", A2_COEFFICIENT),
                                  ("A2-2", "2", A2_COEFFICIENT)):
            for gens in ("none", "coils"):
                text = (f"[field]\np = {workloads.P}\n\n[quiver]\ncomplex = {shape}\n\n"
                        f"[command]\nname = approximate\ntarget = stalk {degree} {obj}\n"
                        f"generators = {gens}\n" + extra)
                name = f"{label}.{coeff}.{gens}"
                jobs += [(name, text, []), (f"{name}-Q", text, ["--field", "Q"])]
    return jobs


SHAPES = ("interval 3", "interval 11", "window 0 3 n=3", "window -1 3 n=3",
          "cyclic 2", "cyclic 1 n=1", "cyclic 3 n=2")
SHAPE_COMMANDS = (("info", None), ("ar-quiver", None), ("ass", "simple 0:pt"),
                  ("ass", "simple 1:pt"), ("verify", "simple 1:pt"),
                  ("roundtrip", None), ("tensor", None))


def shape_jobs():
    """(name, job text, extra argv) for the 147 complex-shape jobs."""
    jobs = []
    for shape in SHAPES:
        for command, target in SHAPE_COMMANDS:
            text = (f"[field]\np = {workloads.P}\n\n[quiver]\ncomplex = {shape}\n\n"
                    f"[command]\nname = {command}\n")
            if target:
                text += f"target = {target}\n"
            name = f"{shape}.{command}.{target}"
            jobs += [(name, text, []), (f"{name}-dot", text, ["--out", "dot"]),
                     (f"{name}-Q", text, ["--field", "Q"])]
    return jobs


def run_jobs(h, jobs):
    """Feeds the exit code, stdout and stderr of each job into h."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.txt")
        for name, text, argv in jobs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([path] + argv)
            h.update(repr((name, code, out.getvalue(), err.getvalue())).encode())


def cli_hash():
    h = hashlib.sha256()
    run_jobs(h, cli_jobs())
    return h.hexdigest()


def shapes_hash():
    h = hashlib.sha256()
    run_jobs(h, shape_jobs())
    return h.hexdigest()


def canon(obj):
    """A nested tuple that fixes every value and the type of every entry."""
    if isinstance(obj, (int, Fraction)):
        return (type(obj).__name__, str(obj))
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Mat):
        return ("Mat", obj.rows, obj.cols, tuple(canon(v) for v in obj.data))
    if isinstance(obj, CModule):
        return ("CModule", canon(obj.dims), canon(obj.action))
    if isinstance(obj, ModuleMap):
        return ("ModuleMap", canon(obj.src), canon(obj.tgt), canon(obj.comps))
    # before QRep, since a complex is one: complexes, and chain maps out of
    # them, hash under their own tags with degree keys
    if isinstance(obj, NComplex):
        return ("NComplex", canon(obj.components), canon(dict(obj.differentials)))
    if isinstance(obj, QRep):
        return ("QRep", canon(obj.vertex_modules), canon(obj.arrow_maps))
    if isinstance(obj, QRepMap):
        tag = "NChainMap" if isinstance(obj.src, NComplex) else "QRepMap"
        return (tag, canon(obj.src), canon(obj.tgt), canon(obj.comps))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(canon(getattr(obj, f.name))
                                             for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in obj.items()))
    raise TypeError(f"cannot hash a {type(obj).__name__}")


def decompose_hashes(seed):
    """{kind: digest} for the module and the object ops, each in op order."""
    hashes = {"module": hashlib.sha256(), "object": hashlib.sha256()}
    for op in workloads.build("decompose", seed, prepared=workloads.decompose_pools()):
        hashes[op.name.split(":")[0]].update(repr((op.name, canon(op.run()))).encode())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def complexes_answer(name, answer):
    """The parts of a complexes-rep answer that the hash fixes."""
    kind = name.split(":")[0]
    if kind == "coil":
        return (answer.source, answer.p)
    if kind == "approx":
        return (answer.source, answer.chain_map, answer.multiplicities, answer.certified)
    return answer


def complexes_hash(seed):
    h = hashlib.sha256()
    for op in workloads.build("complexes-rep", seed):
        if op.name.split(":")[0] in ("coil", "approx", "factor"):
            h.update(repr((op.name, canon(complexes_answer(op.name, op.run())))).encode())
    run_jobs(h, approximate_jobs())
    return h.hexdigest()


# the cyclic shapes of `coils`, and the random sums drawn on each
COIL_SPECS = (NComplexSpec(1, Cyclic(1)), NComplexSpec(2, Cyclic(3)))
COIL_SUMS = 4


def coil_answers(z, gens, null):
    """coil_epi, right_approximation without and with gens, and the factoring
    of null through the coil map, as `complexes_answer` keeps them."""
    epi = coil_epi(z)
    out = [complexes_answer("coil", epi)]
    for g in ([], gens):
        out.append(complexes_answer("approx", right_approximation(z, g)))
    out.append(factor_null_homotopy(null, epi))
    return out


def coils_hash():
    h = hashlib.sha256()
    for fld in (Field.prime(workloads.P), Field.rationals()):
        rng = random.Random("coils")
        a2 = category_of(inputs.a_m_rad_n(2), fld)
        for coeff, pool in (inputs.point_pool(fld), (a2, list(ar_quiver(a2).modules))):
            for spec in COIL_SPECS:
                bq = build_category(spec)
                gens = [interval_J(spec, j, yoneda_projective(coeff, x))
                        for j in spec.degrees() for x in coeff.objects]
                pieces = [make(spec, j, m) for m in pool for j in spec.degrees()
                          for make in (stalk, interval_J)]

                def rand_sum():
                    picks = [rng.choice(pieces) for _ in range(rng.randrange(1, 4))]
                    return from_rep(spec, rep_direct_sum(picks, bq, coeff))

                zs = pieces + [rand_sum() for _ in range(COIL_SUMS)]
                for k, z in enumerate(zs):
                    src = rand_sum()
                    null = assemble_null_homotopic(src, z, inputs.rand_homotopy(src, z, rng))
                    h.update(repr((repr(fld), coeff.objects, spec, k,
                                   canon(coil_answers(z, gens, null)))).encode())
    return h.hexdigest()


def loop_rad2():
    """One vertex with a loop x, modulo x^2."""
    return BoundQuiver(Quiver(["v"], [Arrow("x", "v", "v")]),
                       MonomialIdeal(frozenset([Path("v", "v", ("x", "x"))])))


def sweep_categories():
    """(label, category) for the perturbation sweep of `validate`."""
    fp, qq = Field.prime(101), Field.rationals()
    return (("A5-rad3", representation_category(inputs.a_m_rad_n(5, 3), fp)),
            ("C3-rad2", representation_category(inputs.cyclic_rad2(3), fp)),
            ("A3-rad2-Q", representation_category(inputs.a_m_rad_n(3, 2), qq)),
            ("A4", representation_category(inputs.a_m_rad_n(4), fp)),
            ("A3-rad2xA2", tensor_base(inputs.a_m_rad_n(3, 2),
                                       category_of(inputs.a_m_rad_n(2), fp))),
            ("loop-rad2", representation_category(loop_rad2(), fp)))


def outcome(build):
    try:
        build()
    except (PreconditionError, VerificationError) as exc:
        return type(exc).__name__
    return "accept"


def validate_hash():
    h = hashlib.sha256()
    for label, cat in sweep_categories():
        fld = cat.field
        for n, m in enumerate(ar_quiver(cat).modules):
            for key, mat in m.action.items():
                for e in range(len(mat.data)):
                    data = list(mat.data)
                    data[e] = fld.add(data[e], fld.one())
                    action = {**m.action, key: Mat(fld, mat.rows, mat.cols, data)}
                    h.update(repr((label, n, key, e, outcome(
                        lambda: CModule(cat, m.dims, action)))).encode())
        for key, table in cat.comp.items():
            for pair, entry in table.items():
                for k in entry:
                    bumped = {**entry, k: fld.add(entry[k], fld.one())}
                    comp = {**cat.comp, key: {**table, pair: bumped}}
                    h.update(repr((label, key, pair, k, outcome(
                        lambda: FinCategory(fld, cat.objects, cat.hom, comp, cat.units,
                                            cat.radical)))).encode())
    return h.hexdigest()


def presentations_hash():
    h = hashlib.sha256()
    for label, cat in sweep_categories():
        for n, m in enumerate(ar_quiver(cat).modules):
            pres = minimal_presentation(m)
            h.update(repr((label, n, canon(pres.differential.comps), canon(pres.cover.comps),
                           canon(_transpose_raw(m).action))).encode())
    return h.hexdigest()


def verify_categories(fp=Field.prime(101)):
    """(label, category) for `verify`, and over other fields for `sequences`."""
    return (("A4-rad2", representation_category(inputs.a_m_rad_n(4, 2), fp)),
            ("A5-rad3", representation_category(inputs.a_m_rad_n(5, 3), fp)),
            ("C3-rad2", representation_category(inputs.cyclic_rad2(3), fp)),
            ("A3-rad2xA2", tensor_base(inputs.a_m_rad_n(3, 2),
                                       category_of(inputs.a_m_rad_n(2), fp))))


def verify_outcome(se, family):
    try:
        return verify_almost_split(se, family)
    except VerificationError as exc:
        return str(exc)


def verify_hash():
    h = hashlib.sha256()
    for label, cat in verify_categories():
        ar = ar_quiver(cat)
        tau_of = {z: t for t, z in ar.tau_pairs}
        for n, (z, proj) in enumerate(zip(ar.modules, ar.projective)):
            if proj:
                continue
            se = almost_split_sequence(z).sequence
            total, injs, projs = direct_sum([se.left, z])
            controls = (("ass", se),
                        ("split", ShortExact(se.left, total, z, injs[0], projs[1])),
                        ("zero-include", ShortExact(se.left, se.middle, z,
                                                    se.include.scale(cat.field.zero()),
                                                    se.project)))
            for t, x in enumerate(ar.modules):
                ext = Ext1(z, x)
                if t != tau_of[n] and ext.dim:
                    controls += (("other-ext", extension_from_cocycle(
                        ext, ext.representatives[0])),)
                    break
            for kind, seq in controls:
                h.update(repr((label, n, kind, verify_outcome(seq, ar.modules))).encode())
    return h.hexdigest()


def sequences_hash():
    h = hashlib.sha256()
    for fld in (Field.prime(101), Field.rationals()):
        cats = verify_categories(fld) + (
            ("loop-rad2xA2", tensor_base(loop_rad2(), category_of(inputs.a_m_rad_n(2), fld))),)
        for label, cat in cats:
            ar = ar_quiver(cat)
            for n, (z, proj) in enumerate(zip(ar.modules, ar.projective)):
                if not proj:
                    h.update(repr((repr(fld), label, n,
                                   canon(almost_split_sequence(z)))).encode())
    return h.hexdigest()


def idempotents_hash():
    h = hashlib.sha256()
    design = random.Random("idempotents-design")
    for fld in (Field.prime(workloads.P), Field.rationals()):
        for name in workloads.DECOMPOSE_PAIRS:
            base = tensor_base(*workloads.tensor_pair(name, fld))
            pool = ar_quiver(base).modules
            for count in (2, 3, 4) * 3:
                picks = design.sample(range(len(pool)), count - 1)
                picks.append(picks[0])
                m = inputs.scramble(direct_sum([pool[i] for i in picks], base)[0], design)
                idems = primitive_idempotents(end_algebra(m)[0])
                h.update(repr((repr(fld), name, picks, canon(idems))).encode())
    return h.hexdigest()


# representations drawn per pair and field for `repcat`
REPCAT_REPS = 10


def repcat_hash(seed):
    h = hashlib.sha256()
    for fld in (Field.prime(workloads.P), Field.rationals()):
        rng = random.Random(f"repcat:{seed}")
        shape = random.Random("complexes-rep-design")
        points = inputs.point_pool(fld)[1]
        a2_modules = list(ar_quiver(category_of(inputs.a_m_rad_n(2), fld)).modules)
        pairs = []
        for name in workloads.REP_PAIRS:
            bq, coeff = workloads.tensor_pair(name, fld)
            pairs.append((name, bq, coeff, points if coeff.objects == ("pt",) else a2_modules))
        # the loop has two paths from its vertex to itself, so it pins the
        # order of the copies and the copy the unit picks
        inductions = [(name, bq, pool) for name, bq, _, pool in pairs]
        inductions.append(("loop-rad2", loop_rad2(), points + a2_modules))
        for name, bq, pool in inductions:
            for v in bq.quiver.vertices:
                for k, p in enumerate(pool):
                    ind = f_star_v(bq, v, p)
                    h.update(repr((repr(fld), name, v, k, canon(ind),
                                   canon(adjunction_unit(bq, v, p, ind)))).encode())
        for name, bq, coeff, pool in pairs:
            for c in range(REPCAT_REPS):
                r = inputs.rand_qrep(bq, coeff, pool, rng, shape)
                v = bq.quiver.vertices[c % len(bq.quiver.vertices)]
                p = inputs.nonzero_module(pool, coeff, rng, shape)
                ind = f_star_v(bq, v, p)
                maps = [sharp(bq, v, r, f, ind) for f in hom_space(p, r.vertex_modules[v])]
                h.update(repr((repr(fld), name, c, canon(lemma2_cover(r)),
                               canon(maps))).encode())
    return h.hexdigest()


# (n, k, m): an n x k by k x m product
LINALG_SHAPES = ((0, 0, 0), (0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (5, 1, 6),
                 (7, 6, 1), (1, 8, 5), (7, 2, 5), (3, 3, 3), (12, 12, 12),
                 (13, 13, 9), (48, 4, 48), (4, 30, 4))
LINALG_DENSITIES = (0.02, 0.1, 0.5, 1)


def corpus_mat(fld, rows, cols, density, rng):
    """Zero with probability 1 - density, else a random nonzero element; over
    Q a fraction with a denominator up to 7."""
    def entry():
        if rng.random() >= density:
            return fld.zero()
        if fld.p is not None:
            return rng.randrange(1, fld.p)
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 8))
    return Mat(fld, rows, cols, [entry() for _ in range(rows * cols)])


def linalg_hash():
    h = hashlib.sha256()
    design = random.Random("linalg-design")
    for fld in (Field.prime(2), Field.prime(workloads.P), Field.rationals()):
        for n, k, m in LINALG_SHAPES:
            for da in LINALG_DENSITIES:
                for db in LINALG_DENSITIES:
                    a = corpus_mat(fld, n, k, da, design)
                    b = corpus_mat(fld, k, m, db, design)
                    h.update(repr((repr(fld), canon(a), canon(b), canon(a @ b))).encode())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the decompose and complexes-rep workloads and of "
                             "the repcat representations (default 1)")
    args = parser.parse_args(argv)
    print(f"cli {cli_hash()}")
    decompose = decompose_hashes(args.seed)
    print(f"decompose-modules seed {args.seed} {decompose['module']}")
    print(f"decompose-objects seed {args.seed} {decompose['object']}")
    print(f"validate {validate_hash()}")
    print(f"complexes seed {args.seed} {complexes_hash(args.seed)}")
    print(f"presentations {presentations_hash()}")
    print(f"coils {coils_hash()}")
    print(f"shapes {shapes_hash()}")
    print(f"verify {verify_hash()}")
    print(f"sequences {sequences_hash()}")
    print(f"idempotents {idempotents_hash()}")
    print(f"repcat seed {args.seed} {repcat_hash(args.seed)}")
    print(f"linalg {linalg_hash()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
