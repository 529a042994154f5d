"""The four benchmark workloads as seeded lists of timed operations.

`prepare(name)` runs once per run, in a process of its own, and returns the
inputs or oracle answers that every pass shares.  `build(name, seed, ...)`
runs in each pass's child before timing starts: it builds every input from
the seed and the prepared data and returns a list of `Op`.  Each op's
`run` is the work a user asks arcat for, including the certificates arcat
checks itself; its `check` compares the answer with an oracle and runs
after every op of the pass has finished, outside the timed region.

A check returns a list of (label, got, want) comparisons; the op fails if
any pair differs.
"""

import contextlib
import io
import os
import random
import re
from collections import Counter

from arcat import cli
from arcat.complexes import (Cyclic, Interval, NComplexSpec, Window,
                             assemble_null_homotopic, coil_epi,
                             factor_null_homotopy, interval_J, pad_chain_map,
                             right_approximation)
from arcat.errors import VerificationError
from arcat.fincat import AddObject, Hull, category_of, decompose_object
from arcat.linalg import Field
from arcat.modcat import (ShortExact, almost_split_sequence, ar_quiver,
                          decompose_module, direct_sum, hom_space,
                          identity_map, is_isomorphic, tau,
                          verify_almost_split, zero_map)
from arcat.repcat import check_adjunction, lemma2_cover, phi, psi, tensor_base

import inputs

P = 101
DOT_NODE = re.compile(r"\s*n\d+ \[label=")


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def prepare(name):
    """Data shared by every pass of a run, or None."""
    if name == "tensor-q":
        return tensor_oracle()
    if name == "decompose":
        return decompose_pools()
    return None


def build(name, seed, job_dir=None, prepared=None):
    rng = random.Random(f"{name}:{seed}")
    if name == "knit-fp":
        return _knit_fp(rng, job_dir)
    if name == "tensor-q":
        return _tensor_q(rng, prepared)
    if name == "decompose":
        return _decompose(rng, prepared)
    if name == "complexes-rep":
        return _complexes_rep(rng)
    raise ValueError(f"unknown workload {name!r}")


def dims_of(m):
    return tuple(m.dims[x] for x in m.cat.objects)


# ---------------------------------------------------------------------------
# knit-fp: distinct CLI jobs over F_101, no category shared between jobs

# (family, m, n): A_m modulo rad^n (n None: no relations), or the n-cycle
# modulo rad^2 when family is "C".
KNIT_CATEGORIES = (
    ("A", 4, 2), ("A", 4, 3), ("A", 4, None),
    ("A", 5, 2), ("A", 5, 3), ("A", 6, 2), ("A", 7, 2),
    ("C", 2, 2), ("C", 3, 2), ("C", 4, 2), ("C", 5, 2),
)
KNIT_KINDS = ("text", "dot", "ass")


def knit_count(family, m, n):
    """Indecomposables of A_m mod rad^n (sum of m-k+1 for k <= n), or 2m for
    the m-cycle mod rad^2: interval-module counts, independent of arcat."""
    if family == "C":
        return 2 * m
    n = m if n is None else n
    return sum(m - k + 1 for k in range(1, n + 1))


def _job_text(family, m, n, command, target=None):
    lines = ["[field]", f"p = {P}", "", "[quiver]"]
    if family == "A":
        lines.append("vertices = " + " ".join(str(i) for i in range(1, m + 1)))
        lines += [f"arrow a{i}: {i} -> {i + 1}" for i in range(1, m)]
        rels = [[f"a{i + k}" for k in range(n)] for i in range(1, m - n + 1)] if n else []
    else:
        lines.append("vertices = " + " ".join(str(i) for i in range(m)))
        lines += [f"arrow a{i}: {i} -> {(i + 1) % m}" for i in range(m)]
        rels = [[f"a{i}", f"a{(i + 1) % m}"] for i in range(m)]
    if rels:
        lines += ["", "[ideal]"] + ["relation = " + " ".join(r) for r in rels]
    lines += ["", "[command]", f"name = {command}"]
    if target:
        lines.append(f"target = {target}")
    return "\n".join(lines) + "\n"


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_knit(kind, want):
    def check(answer):
        code, out = answer
        lines = out.splitlines()
        got = [("exit code", code, 0)]
        if kind == "dot":
            nodes = sum(1 for ln in lines if DOT_NODE.match(ln))
            got.append(("DOT nodes", nodes, want))
            return got
        verified = [ln for ln in lines if ln.startswith("verified:")]
        got.append(("verified line", len(verified), 1))
        if kind == "text":
            head = [ln for ln in lines if ln.startswith("indecomposables: ")]
            count = int(head[0].split(": ")[1]) if head else None
            got.append(("indecomposables", count, want))
        else:
            words = verified[0].split() if verified else []
            checked = int(words[-3]) if len(words) >= 3 else None
            got.append(("test modules", checked, want))
        return got
    return check


def _knit_fp(rng, job_dir):
    os.makedirs(job_dir, exist_ok=True)
    ops = []
    for k, (family, m, n) in enumerate(KNIT_CATEGORIES):
        kind = KNIT_KINDS[k % len(KNIT_KINDS)]
        target = None
        if kind == "ass":
            # a middle vertex: every simple but the sink of A_m is non-projective
            target = f"simple {(m + 1) // 2 if family == 'A' else m // 2}:pt"
        command = "ass" if kind == "ass" else "ar-quiver"
        label = f"{family}{m}" + (f"-rad{n}" if n else "")
        path = os.path.join(job_dir, f"{label}.job")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_job_text(family, m, n, command, target))
        argv = [path] + (["--out", "dot"] if kind == "dot" else [])
        ops.append(Op(f"{kind}:{label}", lambda argv=argv: _run_cli(argv),
                      _check_knit(kind, knit_count(family, m, n))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tensor-q: the acceptance tensor pairs over Q through the library

# name -> (bound quiver builder, coefficient, modules, non-projectives)
TENSOR_PAIRS = {
    "A2xpt": (lambda: inputs.a_m_rad_n(2), "pt", 3, 1),
    "A3rad2xA2": (lambda: inputs.a_m_rad_n(3, 2), "A2", 20, 14),
    "C2rad2xA2": (lambda: inputs.cyclic_rad2(2), "A2", 18, 14),
}


def tensor_pair(name, fld):
    make_bq, coeff, _, _ = TENSOR_PAIRS[name]
    if coeff == "pt":
        c = inputs.point_pool(fld)[0]
    else:
        c = category_of(inputs.a_m_rad_n(2), fld)
    return make_bq(), c


def knit_summary(knitted):
    """Counts and the dim-vector multiset of a knitted family."""
    return {"modules": len(knitted.modules),
            "sequences": sum(1 for p in knitted.projective if not p),
            "dims": sorted(list(dims_of(m)) for m in knitted.modules)}


def tensor_oracle():
    """Knits each pair over F_101: the same counts and dim vectors must come
    out of the Q computation, by independent arithmetic."""
    out = {}
    for name, (_, _, modules, sequences) in TENSOR_PAIRS.items():
        bq, coeff = tensor_pair(name, Field.prime(P))
        summary = knit_summary(ar_quiver(tensor_base(bq, coeff)))
        if (summary["modules"], summary["sequences"]) != (modules, sequences):
            raise VerificationError(
                f"F_{P} oracle for {name}: {summary['modules']} modules, "
                f"{summary['sequences']} sequences; documented "
                f"{modules} and {sequences}")
        out[name] = summary
    return out


def _tensor_q(rng, expected):
    qq = Field.rationals()
    state = {}
    ops = []
    names = list(TENSOR_PAIRS)
    rng.shuffle(names)
    for name in names:
        bq, coeff = tensor_pair(name, qq)

        def knit(name=name, bq=bq, coeff=coeff):
            state[name] = ar_quiver(tensor_base(bq, coeff))
            return knit_summary(state[name])

        def check_knit(answer, name=name):
            want = expected[name]
            return [(key, answer[key], want[key])
                    for key in ("modules", "sequences", "dims")]

        ops.append(Op(f"knit:{name}", knit, check_knit))
        order = list(range(TENSOR_PAIRS[name][3]))
        rng.shuffle(order)
        for k in order:
            def ass(name=name, k=k):
                knitted = state[name]
                nonproj = [i for i, p in enumerate(knitted.projective) if not p]
                seq = almost_split_sequence(knitted.modules[nonproj[k]]).sequence
                checked = verify_almost_split(seq, knitted.modules)
                return (checked, len(knitted.modules), dims_of(seq.left),
                        dims_of(seq.middle), dims_of(seq.right))

            def check_ass(answer):
                checked, family, left, middle, right = answer
                return [("test modules", checked, family),
                        ("middle = left + right", middle,
                         tuple(a + b for a, b in zip(left, right)))]

            ops.append(Op(f"ass:{name}:{k}", ass, check_ass))
        if name == "A2xpt":
            def split_control(name=name):
                knitted = state[name]
                z = next(m for i, m in enumerate(knitted.modules)
                         if not knitted.projective[i])
                x = tau(z)
                total, injs, projs = direct_sum([x, z])
                try:
                    verify_almost_split(ShortExact(x, total, z, injs[0], projs[1]),
                                        knitted.modules)
                except VerificationError:
                    return "rejected"
                return "accepted"

            ops.append(Op("split-control", split_control,
                          lambda answer: [("split sequence", answer, "rejected")]))
    return ops


# ---------------------------------------------------------------------------
# decompose: scrambled random direct sums back to their summands

DECOMPOSE_PAIRS = ("A3rad2xA2", "C2rad2xA2")
# Decomposition cost depends steeply on which summands are summed, and the
# idempotent search's cost on the coordinates (one sum took 107 ms under one
# base change and 228 ms under another), so the sums and their scrambling
# base changes come from a fixed design seed, at a ladder of (summand count,
# dim End) rungs, ROUNDS times over; every rung is reachable with a repeated
# summand in its pool.  The run seed draws the op order.
DECOMPOSE_LADDERS = {
    ("module", "A3rad2xA2"): ((2, 4), (3, 7), (4, 8), (4, 10), (4, 12), (5, 12)),
    ("module", "C2rad2xA2"): ((2, 4), (3, 7), (4, 8), (4, 10), (4, 12), (5, 12)),
    ("object", "A3rad2xA2"): ((2, 4), (3, 7), (4, 9), (4, 12), (5, 13)),
    ("object", "C2rad2xA2"): ((2, 4), (3, 7), (3, 9), (4, 12), (4, 13)),
}
ROUNDS = 3


def decompose_pools():
    """{pair: (base category, knitted indecomposables)} over F_101."""
    fp = Field.prime(P)
    out = {}
    for name in DECOMPOSE_PAIRS:
        base = tensor_base(*tensor_pair(name, fp))
        out[name] = (base, list(ar_quiver(base).modules))
    return out


def _pick(rng, size, count, end_dim, target):
    """count indices below size, with a repeat, and dim End equal to target."""
    for _ in range(100000):
        picks = [rng.randrange(size) for _ in range(count)]
        if len(set(picks)) < count and end_dim(picks) == target:
            return picks
    raise ValueError(f"no sum of {count} with a repeat and dim End {target}")


def _decompose(rng, pools):
    design = random.Random("decompose-design")
    ops = []
    for name in DECOMPOSE_PAIRS:
        base, pool = pools[name]
        homs = [[len(hom_space(a, b)) for b in pool] for a in pool]
        objs = base.objects
        end_m = lambda ps: sum(homs[i][j] for i in ps for j in ps)
        end_o = lambda ps: sum(base.dim(objs[i], objs[j]) for i in ps for j in ps)
        for count, target in DECOMPOSE_LADDERS[("module", name)] * ROUNDS:
            picks = _pick(design, len(pool), count, end_m, target)
            m = inputs.scramble(direct_sum([pool[i] for i in picks], base)[0], design)
            ops.append(Op(f"module:{name}:n{count}:end{target}",
                          lambda m=m: (m, decompose_module(m)),
                          _module_check(pool, picks)))
        for count, target in DECOMPOSE_LADDERS[("object", name)] * ROUNDS:
            picks = _pick(design, len(objs), count, end_o, target)
            amb = AddObject.of([objs[i] for i in picks])
            ops.append(Op(f"object:{name}:n{count}:end{target}",
                          lambda base=base, amb=amb: (amb, decompose_object(base, amb)),
                          _object_check(base, picks)))
    rng.shuffle(ops)
    return ops


def _module_check(pool, picks):
    def check(answer):
        m, pieces = answer
        got = []
        total = zero_map(m, m)
        for p in pieces:
            total = total.add(p.project.then(p.include))
            fits = [j for j, q in enumerate(pool)
                    if q.dims == p.module.dims and is_isomorphic(p.module, q) is not None]
            got.append(fits[0] if len(fits) == 1 else ("unmatched", len(fits)))
        return [("summand multiset", Counter(got), Counter(picks)),
                ("idempotents sum to 1", total == identity_map(m), True)]
    return check


def _object_class(hull, base, summand):
    """Indices of the base objects x with End(piece) -> Hom(piece, x) ->
    piece composing to a nonzero multiple of the piece's idempotent."""
    fld = base.field
    e = hull.flatten(hull.then(summand.project, summand.include))
    matches = []
    for idx, x in enumerate(base.objects):
        kx = hull.to_kar(x)
        fwd = hull.kar_hom_basis(summand.piece, kx)
        bwd = hull.kar_hom_basis(kx, summand.piece)
        if not fwd or not bwd:
            continue
        comp = hull.flatten(hull.then(fwd[0], bwd[0]))
        if comp.is_zero():
            continue
        i = next(i for i in range(e.rows) if e.at(i, 0) != fld.zero())
        lam = fld.mul(comp.at(i, 0), fld.inv(e.at(i, 0)))
        if comp == e.scale(lam):
            matches.append(idx)
    return matches[0] if len(matches) == 1 else ("unmatched", len(matches))


def _object_check(base, picks):
    def check(answer):
        amb, pieces = answer
        hull = Hull(base)
        total = hull.zero_mor(amb, amb)
        got = []
        for s in pieces:
            total = hull.add(total, hull.then(s.project, s.include))
            got.append(_object_class(hull, base, s))
        return [("summand multiset", Counter(got), Counter(picks)),
                ("idempotents sum to 1", total == hull.identity(amb), True)]
    return check


# ---------------------------------------------------------------------------
# complexes-rep: complexes of vector spaces and representations of the pairs

COMPLEX_SPECS = (NComplexSpec(2, Interval(5)), NComplexSpec(3, Window(0, 5)),
                 NComplexSpec(2, Cyclic(2)))
COMPLEXES_PER_SPEC = 30
REP_PAIRS = ("A2xpt", "A3rad2xA2", "C2rad2xA2")
REPS_PER_PAIR = 30


def _complexes_rep(rng):
    """Sizes and summands come from a fixed design seed, so every seed has
    the same cost profile; the run seed draws coordinates and maps."""
    fp = Field.prime(P)
    shape = random.Random("complexes-rep-design")
    point, point_mods = inputs.point_pool(fp)
    groups = []
    for s, spec in enumerate(COMPLEX_SPECS):
        padded = spec.padded()
        gens = [interval_J(padded, j, point_mods[0]) for j in spec.degrees()]
        for c in range(COMPLEXES_PER_SPEC):
            z = inputs.rand_complex(spec, point, point_mods, rng, shape)
            src = inputs.rand_complex(spec, point, point_mods, rng, shape)
            null = assemble_null_homotopic(src, z, inputs.rand_homotopy(src, z, rng))
            groups.append(_complex_ops(f"{s}.{c}", z, gens, null))
    a2 = category_of(inputs.a_m_rad_n(2), fp)
    a2_pool = list(ar_quiver(a2).modules)
    for name in REP_PAIRS:
        bq, coeff = tensor_pair(name, fp)
        pool = point_mods if coeff.objects == point.objects else a2_pool
        base = tensor_base(bq, coeff)
        for c in range(REPS_PER_PAIR):
            r = inputs.rand_qrep(bq, coeff, pool, rng, shape)
            v = bq.quiver.vertices[c % len(bq.quiver.vertices)]
            p = inputs.nonzero_module(pool, coeff, rng, shape)
            groups += _rep_ops(f"{name}.{c}", bq, base, r, v, p)
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _complex_ops(label, z, gens, null):
    """coil_epi, right_approximation, then factoring through that coil."""
    coil = {}

    def run_coil():
        coil["epi"] = coil_epi(z)
        return coil["epi"]

    def check_coil(epi):
        return [(f"coil surjective at degree {i}", epi.p.comps[i].is_surjective(), True)
                for i in epi.padded.spec.degrees()]

    def check_approx(ap):
        return [("generator certificates", ap.certified, [True] * len(gens))]

    def run_factor():
        return factor_null_homotopy(null, coil["epi"])

    def check_factor(lifted):
        spec_p = coil["epi"].padded.spec
        lp = pad_chain_map(null, spec_p) if null.src.spec != spec_p else null
        comp = lifted.then(coil["epi"].p)
        return [(f"residual at degree {i}", comp.comps[i].sub(lp.comps[i]).is_zero(), True)
                for i in spec_p.degrees()]

    return [Op(f"coil:{label}", run_coil, check_coil),
            Op(f"approx:{label}", lambda: right_approximation(z, gens), check_approx),
            Op(f"factor:{label}", run_factor, check_factor)]


def _rep_ops(label, bq, base, r, v, p):
    def check_roundtrip(back):
        return [("psi(phi(r)) == r", back == r, True)]

    def check_cover(res):
        return [("cover surjective", res.cover.is_surjective(), True)]

    def check_adj(report):
        return [("adjunction dimension", report.dim,
                 len(hom_space(p, r.vertex_modules[v])))]

    return [[Op(f"roundtrip:{label}", lambda: psi(phi(r, base)), check_roundtrip)],
            [Op(f"cover:{label}", lambda: lemma2_cover(r), check_cover)],
            [Op(f"adjunction:{label}", lambda: check_adjunction(bq, v, p, r), check_adj)]]

