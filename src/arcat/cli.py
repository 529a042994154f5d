"""Command-line front end: job files in, certificates and DOT graphs out.

A job file has sections [field], [quiver], [ideal], [coefficient], and
[command].  The quiver section either lists vertices and arrows or names a
complex shape; the ideal section lists relations as arrow sequences in
application order; the coefficient section is a second quiver (with inline
relations) or a point.  Exit codes: 0 verified, 1 parse or usage error,
2 precondition failure, 3 verification failure, including an internal
consistency check (AssertionError or ZeroDivisionError) that failed.

`_HANDLERS` is the command table: it maps each command name to its handler,
to the [command] parameters that handler reads and to the flags among
`--out` and `--verify-family` that it reads, with their defaults.  A job
that sets any other parameter, or a command line that gives any other of
those two flags, is refused.  Every handler takes (job, out, args): the
parsed job, the list of output lines it appends to, and the parsed command
line.
"""

import argparse
import sys
from dataclasses import astuple, dataclass, field as dc_field, fields
from typing import Dict, List, Optional, Tuple

from .complexes import (NComplexSpec, Interval, Window, Cyclic, build_category,
                        interval_J, right_approximation, stalk)
from .errors import (CapExceededError, NotAdmissibleError, PreconditionError,
                     VerificationError)
from .fincat import FinCategory, category_of, point_category
from .linalg import Field
from .modcat import (CModule, ShortExact, almost_split_sequence, ar_quiver,
                     direct_sum, is_isomorphic, simple_module, tau,
                     verify_almost_split, yoneda_projective)
from .quiver import Arrow, BoundQuiver, MonomialIdeal, Path, Quiver
from .repcat import f_star_v, phi, psi, tensor_base


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class QuiverDraft:
    """The quiver lines of a job, unresolved; each arrow (name, source,
    target) and each relation (its arrow names) keeps its job-file line."""
    vertices: List[str] = dc_field(default_factory=list)
    arrows: List[Tuple[str, str, str, int]] = dc_field(default_factory=list)
    relations: List[Tuple[List[str], int]] = dc_field(default_factory=list)
    complex_spec: Optional[NComplexSpec] = None
    point: Optional[bool] = None  # None: no point line


@dataclass
class JobSpec:
    fld: Field
    quiver: QuiverDraft
    coefficient: QuiverDraft
    command: str
    params: Dict[str, List[str]]


_TRUE, _FALSE = ("true", "yes", "1"), ("false", "no", "0")
# the words of a `complex` line, each taking its shape's fields as integers
_SHAPES = {"interval": Interval, "window": Window, "cyclic": Cyclic}


def _parse_complex_line(value: str, line: int) -> NComplexSpec:
    words, n = [], None
    for word in value.split():
        k, eq, v = word.partition("=")
        if not eq:
            words.append(word)
        elif k != "n":
            raise ParseError(f"unknown complex option {k!r}", line)
        elif n is not None:
            raise ParseError(f"duplicate complex option {k!r}", line)
        else:
            n = v
    try:
        n = int("2" if n is None else n)
    except ValueError:
        raise ParseError(f"bad n value {n!r}", line)
    shape = _SHAPES.get(words[0]) if words else None
    try:
        if shape is not None and len(words) == 1 + len(fields(shape)):
            return NComplexSpec(n, shape(*(int(w) for w in words[1:])))
    except PreconditionError as e:  # a ValueError too, so caught first
        raise ParseError(str(e), line)
    except ValueError:
        raise ParseError(f"bad complex shape {value!r}", line)
    raise ParseError(f"bad complex shape {value!r}", line)


def load_spec(text: str, field_override: Optional[str] = None) -> JobSpec:
    """Parses and fully validates a job description."""
    sections = {"field": [], "quiver": [], "ideal": [], "coefficient": [],
                "command": []}
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ParseError(f"unknown section [{name}]", no)
            current = name
            continue
        if current is None:
            raise ParseError("content before any section header", no)
        sections[current].append((no, line))

    fld = _parse_field(sections["field"], field_override)
    quiver = _parse_quiver_lines(sections["quiver"], allow_complex=True)
    for no, line in sections["ideal"]:
        key, _, value = line.partition("=")
        if key.strip() != "relation":
            raise ParseError(f"expected 'relation = ...', got {line!r}", no)
        if quiver.complex_spec is not None:
            raise ParseError("complex shapes carry their own relations", no)
        quiver.relations.append((value.split(), no))
    coefficient = _parse_quiver_lines(sections["coefficient"],
                                      allow_complex=False, allow_point=True)

    command = None
    params: Dict[str, List[str]] = {}
    param_lines: Dict[str, int] = {}
    for no, line in sections["command"]:
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {line!r}", no)
        key, value = key.strip(), value.strip()
        if key == "name":
            if value not in _HANDLERS:
                raise ParseError(f"unknown command {value!r}", no)
            if command is not None:
                raise ParseError("more than one command name", no)
            command = value
        else:
            if key in params:
                raise ParseError(f"duplicate parameter {key!r}", no)
            params[key] = value.split()
            param_lines[key] = no
    if command is None:
        raise ParseError("missing command name")
    for key, no in param_lines.items():
        if key not in _HANDLERS[command][1]:
            raise ParseError(f"command {command!r} reads no parameter {key!r}", no)
    return JobSpec(fld, quiver, coefficient, command, params)


def _parse_field(lines, override: Optional[str]) -> Field:
    choice = None
    for no, line in lines:
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if choice is not None:
            raise ParseError(f"more than one field line: {line!r}", no)
        if key == "p":
            choice = value
        elif key == "rationals" and value in _TRUE:
            choice = "Q"
        else:
            raise ParseError(f"bad field line {line!r}", no)
    if override is not None:
        choice = override
    if choice is None:
        choice = "101"
    if choice in ("Q", "q", "rationals"):
        return Field.rationals()
    try:
        p = int(choice)
    except ValueError:
        raise ParseError(f"bad field {choice!r}")
    try:
        return Field.prime(p)
    except (ValueError, PreconditionError) as e:
        raise ParseError(str(e))


def _parse_quiver_lines(lines, allow_complex: bool,
                        allow_point: bool = False) -> QuiverDraft:
    draft = QuiverDraft()
    for no, line in lines:
        if line.startswith("arrow "):
            name, colon, ends = line[len("arrow "):].partition(":")
            if not colon or "->" not in ends or not name.strip():
                raise ParseError(f"expected 'arrow name: src -> tgt'", no)
            src, _, tgt = ends.partition("->")
            draft.arrows.append((name.strip(), src.strip(), tgt.strip(), no))
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ParseError(f"expected 'key = value', got {line!r}", no)
        if key == "vertices":
            draft.vertices.extend(value.split())
        elif key == "complex" and allow_complex:
            if draft.complex_spec is not None:
                raise ParseError("more than one complex line", no)
            draft.complex_spec = _parse_complex_line(value, no)
        elif key == "relation":
            draft.relations.append((value.split(), no))
        elif key == "point" and allow_point:
            if draft.point is not None:
                raise ParseError("more than one point line", no)
            if value not in _TRUE + _FALSE:
                raise ParseError(f"bad point value {value!r}", no)
            draft.point = value in _TRUE
        else:
            raise ParseError(f"unexpected line {line!r}", no)
    if draft.complex_spec is not None and (draft.vertices or draft.arrows):
        raise ParseError("complex shapes exclude explicit vertices and arrows")
    if draft.point and (draft.vertices or draft.arrows or draft.relations):
        raise ParseError("point = true excludes vertices, arrows and relations")
    if draft.point is False and not draft.vertices:
        raise ParseError("point = false needs vertices")
    if draft.relations and not draft.vertices:
        raise ParseError("relation lines need vertices and arrows")
    return draft


def _spec_text(spec: NComplexSpec) -> str:
    word = next(w for w, shape in _SHAPES.items() if isinstance(spec.shape, shape))
    return " ".join([word, *map(str, astuple(spec.shape))]) + f" (n={spec.n})"


def _resolve_bound_quiver(draft: QuiverDraft, cap: int) -> BoundQuiver:
    if draft.complex_spec is not None:
        return build_category(draft.complex_spec)
    if not draft.vertices:
        raise ParseError("quiver needs vertices")
    for name, src, tgt, no in draft.arrows:
        if src not in draft.vertices or tgt not in draft.vertices:
            raise ParseError(f"arrow {name} has endpoint outside the quiver", no)
    arrows = [Arrow(n, s, t) for n, s, t, _ in draft.arrows]
    by_name = {a.name: a for a in arrows}
    try:
        quiver = Quiver(draft.vertices, arrows)
    except ValueError as e:
        raise ParseError(str(e))
    gens = []
    for rel, no in draft.relations:
        if not rel:
            raise ParseError("empty relation", no)
        for name in rel:
            if name not in by_name:
                raise ParseError(f"relation uses unknown arrow {name!r}", no)
        for first, second in zip(rel, rel[1:]):
            if by_name[first].target != by_name[second].source:
                raise ParseError(f"relation {rel} does not compose", no)
        gens.append(Path(by_name[rel[0]].source, by_name[rel[-1]].target,
                         tuple(rel)))
    return BoundQuiver(quiver, MonomialIdeal(frozenset(gens)), cap=cap)


def _resolve_coefficient(draft: QuiverDraft, fld: Field, cap: int) -> FinCategory:
    if draft.point or (not draft.vertices and not draft.arrows):
        return point_category(fld)
    return category_of(_resolve_bound_quiver(draft, cap), fld)


def _categories(job: JobSpec, cap: int) -> Tuple[BoundQuiver, FinCategory]:
    """The job's bound quiver and its coefficient category."""
    return (_resolve_bound_quiver(job.quiver, cap),
            _resolve_coefficient(job.coefficient, job.fld, cap))


def _obj_text(obj) -> str:
    if isinstance(obj, tuple):
        return ":".join(_obj_text(o) for o in obj)
    return str(obj)


def _find_object(cat: FinCategory, text: str):
    for obj in cat.objects:
        if _obj_text(obj) == text:
            return obj
    raise PreconditionError(f"no object named {text!r}")


def _dim_vector_text(m: CModule) -> str:
    return ",".join(str(m.dims[x]) for x in m.cat.objects)


def _module_by_dims(knitted, text: str, what: str) -> CModule:
    """The one knitted module whose dim vector is text, its entries
    separated by commas or whitespace, as `dims` targets and family files
    write them."""
    wanted = ",".join(text.replace(",", " ").split())
    matches = [m for m in knitted.modules if _dim_vector_text(m) == wanted]
    if len(matches) != 1:
        raise PreconditionError(f"{what} {wanted} matches {len(matches)} modules")
    return matches[0]


def _resolve_target(base: FinCategory, knitted, params) -> CModule:
    spec = params.get("target")
    if not spec:
        raise ParseError("command needs a target")
    kind, rest = spec[0], spec[1:]
    if kind == "projective" and len(rest) == 1:
        return yoneda_projective(base, _find_object(base, rest[0]))
    if kind == "simple" and len(rest) == 1:
        return simple_module(base, _find_object(base, rest[0]))
    if kind == "dims" and rest:
        return _module_by_dims(knitted, " ".join(rest), "dim vector")
    raise ParseError(f"bad target {' '.join(spec)!r}")


def _node_flags(knitted, i: int) -> List[str]:
    """The flags of node i: projective, injective, both or neither."""
    return [flag for flag, holds in (("projective", knitted.projective),
                                     ("injective", knitted.injective)) if holds[i]]


def export_dot(knitted) -> str:
    """A deterministic DOT rendering of a knitted family."""
    lines = ["digraph ar {", "  rankdir=LR;"]
    for i, m in enumerate(knitted.modules):
        flags = "".join(f" {flag[0].upper()}" for flag in _node_flags(knitted, i))
        lines.append(f'  n{i} [label="({_dim_vector_text(m)}){flags}"];')
    for (src, tgt), mult in sorted(knitted.edges.items()):
        label = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{src} -> n{tgt}{label};")
    for (tz, z) in sorted(knitted.tau_pairs, key=lambda p: p[1]):
        lines.append(f"  n{z} -> n{tz} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _family(knitted, choice: str) -> List[CModule]:
    if choice == "complete":
        return list(knitted.modules)
    if not choice.startswith("supplied:"):
        raise ParseError(f"bad verify family {choice!r}")
    path = choice[len("supplied:"):]
    with open(path, "r", encoding="utf-8") as fh:
        wanted = [line.strip() for line in fh if line.strip()]
    if not wanted:  # a family of no modules would verify nothing
        raise ParseError(f"verify family {path!r} has no entries")
    return [_module_by_dims(knitted, text, "family entry") for text in wanted]


def _knit(job: JobSpec, cap: int):
    b, coeff = _categories(job, cap)
    base = tensor_base(b, coeff)
    return base, ar_quiver(base, cap)


def _cmd_info(job: JobSpec, out: List[str], args):
    b, coeff = _categories(job, args.cap)
    coeff._validate()  # category_of builds unvalidated: "categories valid" is checked here
    out.append(f"field: {job.fld}")
    if job.quiver.complex_spec is not None:
        out.append(f"complex shape: {_spec_text(job.quiver.complex_spec)}")
    out.append(f"quiver: {len(b.quiver.vertices)} vertices, "
               f"{len(b.quiver.arrows)} arrows, "
               f"{len(b.ideal.generators)} relations")
    paths = sum(len(b.paths(v, w)) for v in b.quiver.vertices
                for w in b.quiver.vertices)
    out.append(f"surviving paths: {paths}")
    out.append(f"coefficient objects: {len(coeff.objects)}, "
               f"total dim {sum(coeff.dim(x, y) for x in coeff.objects for y in coeff.objects)}")
    out.append(f"tensor category objects: {len(b.quiver.vertices) * len(coeff.objects)}")
    out.append("verified: quiver admissible, categories valid")


def _cmd_tensor(job: JobSpec, out: List[str], args):
    base = tensor_base(*_categories(job, args.cap))
    base._validate()  # tensor_product builds unvalidated: the printed laws are checked here
    out.append(f"objects: {len(base.objects)}")
    for x in base.objects:
        out.append(f"  {_obj_text(x)}")
    total = sum(base.dim(x, y) for x in base.objects for y in base.objects)
    out.append(f"total hom dimension: {total}")
    rad = sum(len(base.radical[(x, y)]) for x in base.objects for y in base.objects)
    out.append(f"radical dimension: {rad}")
    out.append("verified: category laws hold")


def _cmd_ar_quiver(job: JobSpec, out: List[str], args):
    knitted = _knit(job, args.cap)[1]
    if args.out == "dot":
        out.append(export_dot(knitted).rstrip("\n"))
        return
    out.append(f"indecomposables: {len(knitted.modules)}")
    for i, m in enumerate(knitted.modules):
        flags = _node_flags(knitted, i)
        suffix = f" ({', '.join(flags)})" if flags else ""
        out.append(f"  [{i}] dims ({_dim_vector_text(m)}){suffix}")
    for (src, tgt), mult in sorted(knitted.edges.items()):
        out.append(f"  edge {src} -> {tgt} x{mult}")
    for (tz, z) in sorted(knitted.tau_pairs, key=lambda p: p[1]):
        out.append(f"  tau [{z}] = [{tz}]")
    out.append("verified: knitting closed under tau-inverse")


def _cmd_sequence(job: JobSpec, out: List[str], args):
    """`verify`, and `ass`, which is `verify` of the almost split sequence
    that also prints the sequence's terms.  Refusals come in one order:
    the target, then the test family, then the sequence."""
    base, knitted = _knit(job, args.cap)
    target = _resolve_target(base, knitted, job.params)
    family = _family(knitted, args.verify_family)
    kind = " ".join(job.params.get("sequence", ["almost-split"]))
    if kind == "almost-split":
        ass = almost_split_sequence(target)
        se = ass.sequence
    elif kind == "split":
        left = tau(target)
        total, injs, projs = direct_sum([left, target])
        se = ShortExact(left, total, target, injs[0], projs[1])
    else:
        raise ParseError(f"bad sequence kind {kind!r}")
    checked = verify_almost_split(se, family)
    if job.command == "ass":
        out.append(f"almost split sequence ending at ({_dim_vector_text(target)})")
        for name, term in (("left  ", se.left), ("middle", se.middle), ("right ", se.right)):
            out.append(f"  {name} ({_dim_vector_text(term)})")
        out.append(f"  ext dimension {ass.ext_dim}")
    out.append(f"verified: almost split against {checked} test modules")


def _cmd_approximate(job: JobSpec, out: List[str], args):
    spec = job.quiver.complex_spec
    if spec is None:
        raise PreconditionError("approximate needs a complex shape")
    coeff = _resolve_coefficient(job.coefficient, job.fld, args.cap)
    tspec = job.params.get("target")
    if not tspec or tspec[0] != "stalk" or len(tspec) != 3:
        raise ParseError("approximate needs 'target = stalk <degree> <object>'")
    try:
        degree = int(tspec[1])
    except ValueError:
        raise ParseError(f"bad stalk degree {tspec[1]!r}")
    mod = yoneda_projective(coeff, _find_object(coeff, tspec[2]))
    z = stalk(spec, degree, mod)
    gen_choice = " ".join(job.params.get("generators", ["none"]))
    if gen_choice == "coils":
        padded = spec.padded()
        gens = [interval_J(padded, j, yoneda_projective(coeff, x))
                for j in spec.degrees() for x in coeff.objects]
    elif gen_choice == "none":
        gens = []
    else:
        raise ParseError(f"bad generators choice {gen_choice!r}")
    ap = right_approximation(z, gens)
    out.append(f"target degrees: {z.degree_dims()}")
    out.append(f"approximation source degrees: {ap.source.degree_dims()}")
    out.append(f"generator multiplicities: {ap.multiplicities}")
    out.append(f"verified: degreewise surjective, "
               f"{len(ap.certified)} generator certificates")


def _cmd_roundtrip(job: JobSpec, out: List[str], args):
    b, coeff = _categories(job, args.cap)
    base = tensor_base(b, coeff)
    for x in base.objects:
        m = yoneda_projective(base, x)
        r = psi(m)
        if phi(r, base) != m or psi(phi(r, base)) != r:
            raise VerificationError(f"round trip failed at {_obj_text(x)}")
    for v in b.quiver.vertices:
        for c in coeff.objects:
            ind = phi(f_star_v(b, v, yoneda_projective(coeff, c)), base)
            if is_isomorphic(ind, yoneda_projective(base, (v, c))) is None:
                raise VerificationError(f"induction mismatch at ({v}, {_obj_text(c)})")
    out.append(f"round trips verified: {len(base.objects)}")
    out.append(f"inductions certified projective: {len(b.quiver.vertices) * len(coeff.objects)}")
    out.append("verified: dictionary is exact on representables")


# command -> (name of its handler, the [command] parameters it reads, the
# flags of _FLAGS it reads with their defaults); main looks the handler up
# by name when it runs, so a replaced handler is called
_HANDLERS = {
    "info": ("_cmd_info", (), {}),
    "tensor": ("_cmd_tensor", (), {}),
    "ar-quiver": ("_cmd_ar_quiver", (), {"out": "text"}),
    "ass": ("_cmd_sequence", ("target",), {"verify_family": "complete"}),
    "verify": ("_cmd_sequence", ("target", "sequence"), {"verify_family": "complete"}),
    "approximate": ("_cmd_approximate", ("target", "generators"), {}),
    "roundtrip": ("_cmd_roundtrip", (), {}),
}
_FLAGS = {"out": "--out", "verify_family": "--verify-family"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(prog="arcat", description=__doc__.splitlines()[0])
    parser.add_argument("job", help="path to the job file")
    parser.add_argument("--field", help="override: a prime p or Q")
    parser.add_argument("--cap", type=int, default=64,
                        help="dimension and node caps")
    parser.add_argument("--out", choices=("text", "dot"), help="ar-quiver only")
    parser.add_argument("--verify-family",
                        help="ass and verify only: complete or supplied:<file>")
    parser.add_argument("--output", help="write output to a file")
    try:
        args = parser.parse_args(argv)
        if args.cap < 1:
            parser.error(f"--cap must be at least 1, got {args.cap}")
        with open(args.job, "r", encoding="utf-8") as fh:
            job = load_spec(fh.read(), args.field)
        handler, _, flags = _HANDLERS[job.command]
        for flag, name in _FLAGS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, flags.get(flag))
            elif flag not in flags:
                raise ParseError(f"command {job.command!r} reads no flag {name!r}")
        out: List[str] = []
        globals()[handler](job, out, args)
        text_out = "\n".join(out) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text_out)
        else:
            sys.stdout.write(text_out)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (PreconditionError, NotAdmissibleError, CapExceededError) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 3
    except (AssertionError, ZeroDivisionError) as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
