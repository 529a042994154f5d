"""Knit probe: AR quivers of a fixed list of categories, with the share of
radicals and middle terms that knitting certified from nodes it had already
registered.

    python3 tools/knit_probe.py

Knits, over F_101, the path categories of A_4..A_8, D6, E6, E7 and E8 (no
relations), A3 mod rad^2 (x) A2 and A3 (x) A2 (tensor_base, as the CLI's
`tensor` coefficient builds them), the 4-cycle mod rad^2, and the Kronecker
quiver at caps 20 and 28 (rows `kronecker` and `kronecker28`; cap 20 bounds
the total dimension of a node by 20 and the node count by 40, as `--cap 20`
does), which is of infinite type and ends in CapExceededError, and the loop
mod x^2 (x) A3 (row `loop2xA3`, 36 nodes): at 27 of its 33 almost split
sequences rad End(z) != 0, so the socle is taken under End(tau z), a branch
that no benchmark workload reaches; then E6 and
E7 over Q (rows `E6/Q` and `E7/Q`), where exact rational arithmetic is the
cost.  E8 and `kronecker28` are the rows where hom spaces dominate.
Prints one line per job: wall time, node count, the radicals of
projectives knitted and those of them decomposed (`rad fallback`), and the
middle terms of almost split sequences, split into those whose summands
ar_quiver certified by multiplicities and those it decomposed (the
fallback), the End algebras built (`ends`, the modcat.end_algebra calls
of the knit), the hom spaces built (`homs`, the modcat.hom_space calls
of the knit, those of end_algebra among them), the idempotent searches
run (`searches`, the algebra.find_idempotent_semisimple calls of the knit:
an End algebra whose top is k needs none), the isomorphism tests run
(`isos`, the modcat.is_isomorphic calls of the knit: a translate that
tau_inverse recorded is registered by identity, with none), the minimal
presentations built (`pres`, the modcat._minimal_presentation calls of the
knit: builds, not memo hits, and none for a node that tau_inverse or a
copy of it handed its presentation), the inverse translates taken
(`tinv`, the modcat.tau_inverse calls of the knit: none at a node whose
tau^-1 the sequence at that node's successor named already) and the
validations run (`vals`, the _validate calls of FinCategory, CModule,
ModuleMap, QRep and QRepMap during the knit: every object knitting builds
is derived, and proved valid by its construction).

The count wraps modcat.radical_submodule, modcat.almost_split_sequence,
modcat.decompose_module, modcat.end_algebra, modcat.hom_space,
modcat.is_isomorphic, modcat._minimal_presentation, modcat.tau_inverse,
algebra.find_idempotent_semisimple and the five _validate methods inside
this script: a decompose_module
call on the radical or the middle term built last is a fallback (ar_quiver
decomposes either, if at all, right after building it).  arcat itself has
no switch for this.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from arcat import algebra, modcat, repcat  # noqa: E402
from arcat.errors import CapExceededError  # noqa: E402
from arcat.fincat import FinCategory, category_of  # noqa: E402
from arcat.linalg import Field  # noqa: E402
from arcat.quiver import (Arrow, BoundQuiver, MonomialIdeal, Path, Quiver,  # noqa: E402
                          cyclic_quiver, linear_quiver)
from arcat.repcat import tensor_base  # noqa: E402

F101 = Field.prime(101)
QQ = Field.rationals()


def tree(edges, field=F101):
    """The path category over field of the quiver with arrows u -> v for
    (u, v) in edges."""
    vertices = sorted({v for e in edges for v in e}, key=int)
    arrows = [Arrow(f"a{k}", u, v) for k, (u, v) in enumerate(edges)]
    return category_of(BoundQuiver(Quiver(vertices, arrows)), field)


def chain(n):
    return [(str(i), str(i + 1)) for i in range(1, n)]


def rad2(quiver):
    """quiver modulo all paths of length 2."""
    gens = [Path(a.source, b.target, (a.name, b.name))
            for a in quiver.arrows for b in quiver.arrows if a.target == b.source]
    return BoundQuiver(quiver, MonomialIdeal(frozenset(gens)))


def a_n(n):
    return category_of(BoundQuiver(linear_quiver(n)), F101)


JOBS = {
    **{f"A{m}": (lambda m=m: tree(chain(m)), 64) for m in range(4, 9)},
    "D6": (lambda: tree(chain(4) + [("4", "5"), ("4", "6")]), 64),
    "E6": (lambda: tree(chain(5) + [("3", "6")]), 64),
    "E7": (lambda: tree(chain(6) + [("3", "7")]), 64),
    "E8": (lambda: tree(chain(7) + [("3", "8")]), 64),
    "A3rad2xA2": (lambda: tensor_base(rad2(linear_quiver(3)), a_n(2)), 64),
    "A3xA2": (lambda: tensor_base(BoundQuiver(linear_quiver(3)), a_n(2)), 64),
    "C4rad2": (lambda: category_of(rad2(cyclic_quiver(4)), F101), 64),
    "kronecker": (lambda: tree([("1", "2"), ("1", "2")]), 20),
    "kronecker28": (lambda: tree([("1", "2"), ("1", "2")]), 28),
    "loop2xA3": (lambda: tensor_base(rad2(Quiver(["v"], [Arrow("x", "v", "v")])), a_n(3)), 64),
    "E6/Q": (lambda: tree(chain(5) + [("3", "6")], QQ), 64),
    "E7/Q": (lambda: tree(chain(6) + [("3", "7")], QQ), 64),
}


def knit_counting(cat, cap=64):
    """ar_quiver(cat, cap), as the CLI's `--cap` knits, or None when the cap
    is exceeded, with the numbers of radicals and middle terms knitted and
    of those decomposed, and of the End algebras and hom spaces built and
    idempotent searches, isomorphism tests, presentations, inverse
    translates and validations run, keyed as the columns."""
    last = {}
    counts = dict.fromkeys(("radicals", "rad fallback", "middle", "fallback", "ends",
                            "homs", "searches", "isos", "pres", "tinv", "vals"), 0)
    rad, ass = modcat.radical_submodule, modcat.almost_split_sequence
    decompose, end, hom = modcat.decompose_module, modcat.end_algebra, modcat.hom_space
    search, iso = algebra.find_idempotent_semisimple, modcat.is_isomorphic
    present, tinv = modcat._minimal_presentation, modcat.tau_inverse

    def counting_rad(m):
        out = rad(m)
        last["built"], last["kind"] = out.module, "rad fallback"
        counts["radicals"] += 1
        return out

    def counting_ass(z):
        out = ass(z)
        last["built"], last["kind"] = out.sequence.middle, "fallback"
        counts["middle"] += 1
        return out

    def counting_decompose(m):
        if m is last.get("built"):
            counts[last["kind"]] += 1
        return decompose(m)

    def counting_end(m):
        counts["ends"] += 1
        return end(m)

    def counting_hom(m, n):
        counts["homs"] += 1
        return hom(m, n)

    def counting_search(alg, *rad):
        counts["searches"] += 1
        return search(alg, *rad)

    def counting_iso(m, n):
        counts["isos"] += 1
        return iso(m, n)

    def counting_present(m):
        counts["pres"] += 1
        return present(m)

    def counting_tinv(m):
        counts["tinv"] += 1
        return tinv(m)

    checks = {cls: cls._validate for cls in (FinCategory, modcat.CModule, modcat.ModuleMap,
                                              repcat.QRep, repcat.QRepMap)}

    def counting_check(check):
        def counted(self):
            counts["vals"] += 1
            return check(self)
        return counted

    modcat.radical_submodule, modcat.almost_split_sequence = counting_rad, counting_ass
    modcat.decompose_module, modcat.end_algebra = counting_decompose, counting_end
    modcat.hom_space, algebra.find_idempotent_semisimple = counting_hom, counting_search
    modcat.is_isomorphic = counting_iso
    modcat._minimal_presentation, modcat.tau_inverse = counting_present, counting_tinv
    for cls, check in checks.items():
        cls._validate = counting_check(check)
    try:
        ar = modcat.ar_quiver(cat, cap)
    except CapExceededError:
        ar = None
    finally:
        modcat.radical_submodule, modcat.almost_split_sequence = rad, ass
        modcat.decompose_module, modcat.end_algebra = decompose, end
        modcat.hom_space, algebra.find_idempotent_semisimple = hom, search
        modcat.is_isomorphic = iso
        modcat._minimal_presentation, modcat.tau_inverse = present, tinv
        for cls, check in checks.items():
            cls._validate = check
    return ar, counts


def main():
    print(f"{'job':<11} {'wall_s':>7} {'nodes':>5} {'radicals':>8} {'rad fallback':>12} "
          f"{'middle':>6} {'certified':>9} {'fallback':>8} {'ends':>5} {'homs':>5} "
          f"{'searches':>8} {'isos':>5} {'pres':>5} {'tinv':>5} {'vals':>5}")
    for name, (make, cap) in JOBS.items():
        cat = make()
        start = time.perf_counter()
        ar, counts = knit_counting(cat, cap)
        seconds = time.perf_counter() - start
        shown = "cap" if ar is None else str(len(ar.modules))
        print(f"{name:<11} {seconds:7.2f} {shown:>5} {counts['radicals']:8d} "
              f"{counts['rad fallback']:12d} {counts['middle']:6d} "
              f"{counts['middle'] - counts['fallback']:9d} {counts['fallback']:8d} "
              f"{counts['ends']:5d} {counts['homs']:5d} {counts['searches']:8d} "
              f"{counts['isos']:5d} {counts['pres']:5d} {counts['tinv']:5d} "
              f"{counts['vals']:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
