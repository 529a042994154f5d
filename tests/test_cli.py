"""End-to-end tests for the command-line front end via its main() entry."""

import os
import subprocess
import sys

from _support import *  # noqa: F401,F403  (path setup)

from arcat import cli
from arcat.fincat import FinCategory

A2_QUIVER = """
[field]
p = 101

[quiver]
vertices = 1 2
arrow a1: 1 -> 2
"""

A3_RAD2 = """
[quiver]
vertices = 1 2 3
arrow a1: 1 -> 2
arrow a2: 2 -> 3

[ideal]
relation = a1 a2
"""

A2_DOT = """digraph ar {
  rankdir=LR;
  n0 [label="(1,1) P I"];
  n1 [label="(0,1) P"];
  n2 [label="(1,0) I"];
  n0 -> n2;
  n1 -> n0;
  n2 -> n1 [style=dashed];
}
"""

A4_RAD2 = """
[field]
p = 101

[quiver]
vertices = 1 2 3 4
arrow a1: 1 -> 2
arrow a2: 2 -> 3
arrow a3: 3 -> 4

[ideal]
relation = a1 a2
relation = a2 a3

[command]
name = ar-quiver
"""

CYCLE3_RAD2 = """
[quiver]
vertices = 0 1 2
arrow a0: 0 -> 1
arrow a1: 1 -> 2
arrow a2: 2 -> 0

[ideal]
relation = a0 a1
relation = a1 a2
relation = a2 a0

[command]
name = ar-quiver
"""

A4_RAD2_DOT = """digraph ar {
  rankdir=LR;
  n0 [label="(1,1,0,0) P I"];
  n1 [label="(0,1,1,0) P I"];
  n2 [label="(0,0,1,1) P I"];
  n3 [label="(0,0,0,1) P"];
  n4 [label="(0,1,0,0)"];
  n5 [label="(0,0,1,0)"];
  n6 [label="(1,0,0,0) I"];
  n0 -> n6;
  n1 -> n4;
  n2 -> n5;
  n3 -> n2;
  n4 -> n0;
  n5 -> n1;
  n4 -> n5 [style=dashed];
  n5 -> n3 [style=dashed];
  n6 -> n4 [style=dashed];
}
"""

CYCLE3_RAD2_TEXT = """indecomposables: 6
  [0] dims (1,1,0) (projective, injective)
  [1] dims (0,1,1) (projective, injective)
  [2] dims (1,0,1) (projective, injective)
  [3] dims (0,1,0)
  [4] dims (0,0,1)
  [5] dims (1,0,0)
  edge 0 -> 5 x1
  edge 1 -> 3 x1
  edge 2 -> 4 x1
  edge 3 -> 0 x1
  edge 4 -> 1 x1
  edge 5 -> 2 x1
  tau [3] = [4]
  tau [4] = [5]
  tau [5] = [3]
verified: knitting closed under tau-inverse
"""

A4_RAD2_Q_TEXT = """indecomposables: 7
  [0] dims (1,1,0,0) (projective, injective)
  [1] dims (0,1,1,0) (projective, injective)
  [2] dims (0,0,1,1) (projective, injective)
  [3] dims (0,0,0,1) (projective)
  [4] dims (0,1,0,0)
  [5] dims (0,0,1,0)
  [6] dims (1,0,0,0) (injective)
  edge 0 -> 6 x1
  edge 1 -> 4 x1
  edge 2 -> 5 x1
  edge 3 -> 2 x1
  edge 4 -> 0 x1
  edge 5 -> 1 x1
  tau [4] = [5]
  tau [5] = [3]
  tau [6] = [4]
verified: knitting closed under tau-inverse
"""


def run(tmp_path, text, *flags, capsys=None):
    job = tmp_path / "job.txt"
    job.write_text(text, encoding="utf-8")
    code = cli.main([str(job), *flags])
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ar_quiver_text(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = ar-quiver\n"
    code, out, err = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "indecomposables: 3" in out
    assert "verified" in out


def test_ar_quiver_dot_frozen_and_deterministic(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = ar-quiver\n"
    code, out, _ = run(tmp_path, text, "--out", "dot", capsys=capsys)
    assert code == 0
    assert out == A2_DOT
    code, out2, _ = run(tmp_path, text, "--out", "dot", capsys=capsys)
    assert code == 0 and out2 == out


def test_ar_quiver_golden_outputs(tmp_path, capsys):
    for text, flags, expected in ((A4_RAD2, ("--out", "dot"), A4_RAD2_DOT),
                                  (CYCLE3_RAD2, (), CYCLE3_RAD2_TEXT),
                                  (A4_RAD2, ("--field", "Q"), A4_RAD2_Q_TEXT)):
        code, out, _ = run(tmp_path, text, *flags, capsys=capsys)
        assert code == 0
        assert out == expected


def test_output_file(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = ar-quiver\n"
    target = tmp_path / "graph.dot"
    code, out, _ = run(tmp_path, text, "--out", "dot",
                       "--output", str(target), capsys=capsys)
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == A2_DOT


def test_output_unwritable_path_exits_1(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = ar-quiver\n"
    code, _, err = run(tmp_path, text, "--output",
                       str(tmp_path / "no_dir" / "graph.dot"), capsys=capsys)
    assert code == 1
    assert "parse error" in err


def test_info_resolves_complex_and_coefficient(tmp_path, capsys):
    text = """
[quiver]
complex = cyclic 2

[coefficient]
vertices = 1 2
arrow b1: 1 -> 2

[command]
name = info
"""
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "complex shape: cyclic 2 (n=2)" in out
    assert "tensor category objects: 4" in out


def test_tensor_listing(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = tensor\n"
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "objects: 2" in out
    assert "total hom dimension: 3" in out


def spy_validate(monkeypatch):
    """The categories FinCategory._validate runs on, in order."""
    seen = []
    check = FinCategory._validate

    def spying(cat):
        seen.append(cat)
        return check(cat)

    monkeypatch.setattr(FinCategory, "_validate", spying)
    return seen


def test_tensor_job_validates_the_category_it_prints(tmp_path, capsys, monkeypatch):
    """Derived categories build unvalidated, so the `tensor` job validates
    the category it prints itself, and nothing else: its `verified:
    category laws hold` line is a certificate."""
    seen = spy_validate(monkeypatch)
    code, out, _ = run(tmp_path, A3_RAD2 + "\n[command]\nname = tensor\n", capsys=capsys)
    assert code == 0 and "verified: category laws hold" in out
    assert [c.meta["kind"] for c in seen] == ["tensor"]
    printed = seen[-1]
    assert f"objects: {len(printed.objects)}\n" in out
    total = sum(printed.dim(x, y) for x in printed.objects for y in printed.objects)
    assert f"total hom dimension: {total}\n" in out


def test_ar_quiver_validates_only_the_path_and_point_categories(tmp_path, capsys,
                                                                  monkeypatch):
    """Knitting builds the path categories of the coefficient (the point)
    and of the quiver, the tensor category and its opposite (for
    duality_D) unvalidated, each proved valid by its construction: an
    `ar-quiver` job runs no FinCategory._validate."""
    seen = spy_validate(monkeypatch)
    code, out, _ = run(tmp_path, A3_RAD2 + "\n[command]\nname = ar-quiver\n", capsys=capsys)
    assert code == 0 and "verified: knitting closed under tau-inverse" in out
    assert seen == []


def test_info_job_validates_exactly_its_coefficient_category(tmp_path, capsys, monkeypatch):
    """The `info` job validates its coefficient category, so its
    `categories valid` line is a certificate, and builds no path category
    of the quiver: one FinCategory._validate, on the A2 coefficient."""
    seen = spy_validate(monkeypatch)
    text = A3_RAD2 + ("\n[coefficient]\nvertices = 1 2\narrow b1: 1 -> 2\n"
                      "\n[command]\nname = info\n")
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0 and "verified: quiver admissible, categories valid" in out
    assert [(c.meta["kind"], c.objects) for c in seen] == [("path", ("1", "2"))]


def test_ass_simple_verified(tmp_path, capsys):
    text = A3_RAD2 + "\n[command]\nname = ass\ntarget = simple 2:pt\n"
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "ext dimension 1" in out
    assert "verified: almost split against 5 test modules" in out


def test_ass_projective_target_exits_2(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = ass\ntarget = projective 1:pt\n"
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 2
    assert "precondition failed" in err


def test_verify_split_control_exits_3(tmp_path, capsys):
    text = A2_QUIVER + ("\n[command]\nname = verify\n"
                        "target = dims 1 0\nsequence = split\n")
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 3
    assert "sequence splits" in err


def test_verify_split_projective_target_refused_by_tau(tmp_path, capsys):
    text = A2_QUIVER + ("\n[command]\nname = verify\n"
                        "target = projective 2:pt\nsequence = split\n")
    code, out, err = run(tmp_path, text, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == ("precondition failed: projective summand with dims "
                   "{('2', 'pt'): 1} present\n")


def test_verify_almost_split_passes(tmp_path, capsys):
    text = A2_QUIVER + ("\n[command]\nname = verify\n"
                        "target = dims 1 0\nsequence = almost-split\n")
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "against 3 test modules" in out


def test_verify_family_supplied(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("1,0\n1,1\n", encoding="utf-8")
    text = A2_QUIVER + ("\n[command]\nname = verify\n"
                        "target = dims 1 0\nsequence = almost-split\n")
    code, out, _ = run(tmp_path, text, "--verify-family",
                       f"supplied:{fam}", capsys=capsys)
    assert code == 0
    assert "against 2 test modules" in out



def test_an_empty_supplied_family_is_refused(tmp_path, capsys):
    """A supplied family file with no entries, empty or blank lines only,
    would verify nothing: exit 1 with a parse error that names the file."""
    fam = tmp_path / "family.txt"
    text = A2_QUIVER + "\n[command]\nname = verify\ntarget = dims 1 0\n"
    for content in ("", "\n  \n\n"):
        fam.write_text(content, encoding="utf-8")
        code, out, err = run(tmp_path, text, "--verify-family", f"supplied:{fam}",
                             capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"parse error: verify family {str(fam)!r} has no entries\n"

LOOP_RAD10 = """
[quiver]
vertices = 1
arrow x: 1 -> 1

[ideal]
relation = x x x x x x x x x x
"""


def test_family_entries_read_like_dims_targets(tmp_path, capsys):
    """A family entry may separate its entries by spaces, as a `dims`
    target does: on A2, `1 0` is the simple (1,0); on the loop mod x^10,
    whose modules have one entry, `1 0` names no module, not the one of
    dimension 10."""
    fam = tmp_path / "family.txt"
    fam.write_text("1 0\n1, 1\n", encoding="utf-8")
    text = A2_QUIVER + ("\n[command]\nname = verify\n"
                        "target = dims 1 0\nsequence = almost-split\n")
    code, out, _ = run(tmp_path, text, "--verify-family", f"supplied:{fam}", capsys=capsys)
    assert code == 0 and "against 2 test modules" in out
    fam.write_text("1 0\n", encoding="utf-8")
    text = LOOP_RAD10 + "\n[command]\nname = verify\ntarget = dims 9\n"
    code, out, err = run(tmp_path, text, "--verify-family", f"supplied:{fam}", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "precondition failed: family entry 1,0 matches 0 modules\n"


def test_roundtrip_command(tmp_path, capsys):
    text = A3_RAD2 + """
[coefficient]
vertices = 1 2
arrow b1: 1 -> 2

[command]
name = roundtrip
"""
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "round trips verified: 6" in out
    assert "inductions certified projective: 6" in out


def test_approximate_with_coils(tmp_path, capsys):
    text = """
[quiver]
complex = cyclic 2

[command]
name = approximate
target = stalk 0 pt
generators = coils
"""
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0
    assert "degreewise surjective" in out
    code, out, _ = run(tmp_path, text.replace("coils", "none"), capsys=capsys)
    assert code == 0


def test_parse_error_reports_line(tmp_path, capsys):
    text = "[quiver]\nvertices = 1 2\narrow a1: 1 -> 2\nbogus here\n"
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 1
    assert "line 4" in err


def test_unknown_section_and_missing_command(tmp_path, capsys):
    code, _, err = run(tmp_path, "[nope]\nx = 1\n", capsys=capsys)
    assert code == 1 and "unknown section" in err
    code, _, err = run(tmp_path, "[quiver]\nvertices = 1\n", capsys=capsys)
    assert code == 1 and "missing command name" in err


def test_short_relation_exits_2(tmp_path, capsys):
    text = ("[quiver]\nvertices = 1 2\narrow a1: 1 -> 2\n"
            "[ideal]\nrelation = a1\n[command]\nname = info\n")
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 2
    assert "length 1" in err


def test_unbound_loop_exits_2(tmp_path, capsys):
    text = ("[quiver]\nvertices = 1\narrow a: 1 -> 1\n"
            "[command]\nname = info\n")
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 2
    assert "not admissible" in err


def test_long_surviving_path_is_walked_without_recursion(tmp_path, capsys):
    """A loop modulo l^1100 has 1100 surviving paths, the longest of 1099
    arrows: deeper than Python's recursion limit."""
    text = ("[quiver]\nvertices = 1\narrow l: 1 -> 1\n[ideal]\nrelation = "
            + " ".join(["l"] * 1100) + "\n[command]\nname = info\n")
    code, out, err = run(tmp_path, text, "--cap", "2000", capsys=capsys)
    assert code == 0, err
    assert "surviving paths: 1100" in out
    text = "[quiver]\nvertices = 1\narrow l: 1 -> 1\n[command]\nname = info\n"
    code, _, err = run(tmp_path, text, "--cap", "2000", capsys=capsys)
    assert code == 2 and "ideal is not admissible" in err


def test_long_complex_shapes_walk_to_their_window(tmp_path, capsys):
    """A shape's longest surviving path has window_len - 1 arrows, which
    the path walk's cap of window_len admits at any --cap."""
    for shape, paths in (("interval 40 n=40", 820), ("window -3 60 n=50", 1975)):
        text = f"[quiver]\ncomplex = {shape}\n[command]\nname = info\n"
        for flags in ((), ("--cap", "2")):
            code, out, err = run(tmp_path, text, *flags, capsys=capsys)
            assert code == 0, err
            assert f"surviving paths: {paths}" in out


def test_usage_error_and_missing_file_exit_1(tmp_path, capsys):
    assert cli.main(["--nope"]) == 1
    capsys.readouterr()
    assert cli.main([str(tmp_path / "absent.job")]) == 1
    _, err = capsys.readouterr()
    assert "parse error" in err
    # a directory, or a file that is not UTF-8, as the job or as the family
    binary = tmp_path / "binary.job"
    binary.write_bytes(b"[quiver]\nvertices = \xff\xfe\n")
    for path in (tmp_path, binary):
        assert cli.main([str(path)]) == 1
        _, err = capsys.readouterr()
        assert "parse error" in err
    job = tmp_path / "job.txt"
    job.write_text(A2_QUIVER + "\n[command]\nname = verify\ntarget = dims 1 0\n",
                   encoding="utf-8")
    for path in (tmp_path, binary):
        assert cli.main([str(job), "--verify-family", f"supplied:{path}"]) == 1
        _, err = capsys.readouterr()
        assert "parse error" in err


def test_field_override_and_rationals(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = info\n"
    code, out, _ = run(tmp_path, text, "--field", "Q", capsys=capsys)
    assert code == 0 and "field: Q" in out
    for composite in ("6", "1022117"):
        code, _, err = run(tmp_path, text, "--field", composite, capsys=capsys)
        assert code == 1 and "not prime" in err


def test_complex_excludes_explicit_relations(tmp_path, capsys):
    text = ("[quiver]\ncomplex = interval 3\n"
            "[ideal]\nrelation = a1 a2\n[command]\nname = info\n")
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 1
    assert "carry their own relations" in err


def test_complex_options_are_n_once(tmp_path, capsys):
    for line, message in (("interval 3 m=5", "unknown complex option 'm'"),
                          ("interval 3 n=3 n=4", "duplicate complex option 'n'")):
        text = f"[quiver]\ncomplex = {line}\n[command]\nname = info\n"
        code, out, err = run(tmp_path, text, capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"parse error: line 2: {message}\n"


def test_coefficient_is_a_point_or_a_quiver(tmp_path, capsys):
    """Relations alone, or point = true beside quiver lines, are refused
    rather than read as the point category."""
    for lines, message in (
            ("relation = b1 b1", "relation lines need vertices and arrows"),
            ("point = true\nvertices = 1 2", "point = true excludes"),
            ("point = true\narrow b1: 1 -> 2", "point = true excludes"),
            ("point = true\nrelation = b1 b1", "point = true excludes")):
        text = A2_QUIVER + f"\n[coefficient]\n{lines}\n[command]\nname = info\n"
        code, out, err = run(tmp_path, text, capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("parse error: ") and message in err
    for lines in ("", "point = true"):
        text = A2_QUIVER + f"\n[coefficient]\n{lines}\n[command]\nname = info\n"
        code, out, _ = run(tmp_path, text, capsys=capsys)
        assert code == 0 and "coefficient objects: 1, total dim 1" in out


def test_module_entry_point(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(A2_QUIVER + "\n[command]\nname = info\n", encoding="utf-8")
    # the child imports the same arcat as this process, however it was found
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "arcat.cli", str(job)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "verified" in proc.stdout


# Imports the CLI, runs jobs that factor minimal polynomials over F_101 and
# over Q (through the CLI and through decompose_module), and reports whether
# sympy was ever imported.
NO_SYMPY_CHILD = """
import sys
from arcat import cli, poly
from arcat.fincat import category_of
from arcat.linalg import Field
from arcat.modcat import ar_quiver, decompose_module, direct_sum
from arcat.quiver import BoundQuiver, linear_quiver

fields = set()
factor = poly.factor
poly.factor = lambda f, field: fields.add(repr(field)) or factor(f, field)
assert cli.main([sys.argv[1]]) == 0
assert cli.main([sys.argv[2], "--field", "Q"]) == 0
for field in (Field.prime(101), Field.rationals()):
    family = ar_quiver(category_of(BoundQuiver(linear_quiver(3)), field)).modules
    m = direct_sum([family[0], family[1], family[0]])[0]
    assert len(decompose_module(m)) == 3
print("factored over", sorted(fields))
print("sympy imported:", "sympy" in sys.modules)
"""


def test_runtime_never_imports_sympy(tmp_path):
    ar_job = tmp_path / "ar.txt"
    ar_job.write_text(A4_RAD2, encoding="utf-8")
    ass_job = tmp_path / "ass.txt"
    ass_job.write_text(A3_RAD2 + "\n[command]\nname = ass\ntarget = simple 2:pt\n",
                       encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_CHILD, str(ar_job), str(ass_job)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == "factored over ['F_101', 'Q']"
    assert lines[-1] == "sympy imported: False"


def test_bad_stalk_degree_is_a_parse_error(tmp_path, capsys):
    text = ("[quiver]\ncomplex = cyclic 2\n"
            "[command]\nname = approximate\ntarget = stalk x pt\n")
    code, _, err = run(tmp_path, text, capsys=capsys)
    assert code == 1 and "parse error" in err and "'x'" in err


def test_cap_below_one_is_a_usage_error(tmp_path, capsys):
    text = A2_QUIVER + "\n[command]\nname = info\n"
    for cap in ("0", "-1"):
        code, _, err = run(tmp_path, text, "--cap", cap, capsys=capsys)
        assert code == 1 and "parse error" in err and "--cap" in err


def test_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    text = A2_QUIVER + "\n[command]\nname = info\n"
    for exc in (AssertionError("summands disagree"), ZeroDivisionError("inverse of zero")):
        def broken(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "_cmd_info", broken)
        code, _, err = run(tmp_path, text, capsys=capsys)
        assert code == 3 and f"internal check failed: {exc}" in err


CYCLIC2_STALK = "[quiver]\ncomplex = cyclic 2\n[command]\nname = approximate\ntarget = stalk 0 pt\n"
JOB_PER_COMMAND = {
    "info": A2_QUIVER + "\n[command]\nname = info\n",
    "tensor": A2_QUIVER + "\n[command]\nname = tensor\n",
    "ar-quiver": A2_QUIVER + "\n[command]\nname = ar-quiver\n",
    "ass": A3_RAD2 + "\n[command]\nname = ass\ntarget = simple 2:pt\n",
    "verify": A2_QUIVER + "\n[command]\nname = verify\ntarget = dims 1 0\nsequence = almost-split\n",
    "approximate": CYCLIC2_STALK + "generators = coils\n",
    "roundtrip": A3_RAD2 + "\n[command]\nname = roundtrip\n",
}


def test_every_command_of_the_table_runs_from_a_job_file(tmp_path, capsys):
    assert sorted(JOB_PER_COMMAND) == sorted(cli._HANDLERS)
    for command, text in JOB_PER_COMMAND.items():
        code, out, err = run(tmp_path, text, capsys=capsys)
        assert code == 0 and err == "", (command, err)
        assert out.splitlines()[-1].startswith("verified"), command
    text = A2_QUIVER + "\n[command]\nname = knit\n"
    code, out, err = run(tmp_path, text, capsys=capsys)
    assert code == 1 and out == ""
    assert err == "parse error: line 10: unknown command 'knit'\n"


def test_a_parameter_the_command_does_not_read_exits_1(tmp_path, capsys):
    """A misspelt `sequence` would otherwise verify the almost split
    sequence instead of the split control, and `ass` reads no `sequence`."""
    verify = A2_QUIVER + "\n[command]\nname = verify\ntarget = dims 1 0\n"
    for text, command, key, no in (
            (verify + "sequense = split\n", "verify", "sequense", 12),
            (verify.replace("verify", "ass") + "sequence = split\n", "ass", "sequence", 12),
            (A2_QUIVER + "\n[command]\ntarget = dims 1 0\nname = info\n", "info", "target", 10),
            (CYCLIC2_STALK + "sequence = split\n", "approximate", "sequence", 6)):
        code, out, err = run(tmp_path, text, capsys=capsys)
        assert code == 1 and out == ""
        assert err == (f"parse error: line {no}: command {command!r} reads no "
                       f"parameter {key!r}\n")


def test_a_flag_the_command_does_not_read_exits_1(tmp_path, capsys):
    """Only `ar-quiver` reads `--out` and only `ass` and `verify` read
    `--verify-family`; another command given either flag is refused, even
    with the default value, and the commands that read them print as
    without the flag when it carries the default."""
    for command, flag, value in (("info", "--out", "dot"), ("ass", "--out", "text"),
                                 ("info", "--verify-family", "bogus"),
                                 ("ar-quiver", "--verify-family", "complete")):
        code, out, err = run(tmp_path, JOB_PER_COMMAND[command], flag, value, capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"parse error: command {command!r} reads no flag {flag!r}\n"
    for command, flag, value in (("ar-quiver", "--out", "text"),
                                 ("ass", "--verify-family", "complete"),
                                 ("verify", "--verify-family", "complete")):
        plain = run(tmp_path, JOB_PER_COMMAND[command], capsys=capsys)
        assert plain[0] == 0
        assert run(tmp_path, JOB_PER_COMMAND[command], flag, value, capsys=capsys) == plain


def test_sequence_commands_refuse_the_target_then_the_family(tmp_path, capsys):
    """`ass` and `verify` refuse in one order, target, family, sequence:
    a missing family file is reported before the projective target's
    missing almost split sequence."""
    absent = tmp_path / "absent.txt"
    text = A2_QUIVER + "\n[command]\nname = ass\ntarget = projective 1:pt\n"
    code, out, err = run(tmp_path, text, "--verify-family", f"supplied:{absent}",
                         capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("parse error: ") and str(absent) in err
    text = A2_QUIVER + "\n[command]\nname = ass\ntarget = projective 7:pt\n"
    code, _, err = run(tmp_path, text, "--verify-family", f"supplied:{absent}",
                       capsys=capsys)
    assert code == 2 and err == "precondition failed: no object named '7:pt'\n"


def test_point_values_are_true_or_false(tmp_path, capsys):
    for lines, message in (("point = maybe", "line 10: bad point value 'maybe'"),
                           ("point = false", "point = false needs vertices"),
                           ("point = no\narrow b1: 1 -> 2", "point = false needs vertices"),
                           ("point = true\npoint = true", "line 11: more than one point line")):
        text = A2_QUIVER + f"\n[coefficient]\n{lines}\n[command]\nname = info\n"
        code, out, err = run(tmp_path, text, capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"parse error: {message}\n"
    text = A2_QUIVER + ("\n[coefficient]\npoint = 0\nvertices = 1 2\narrow b1: 1 -> 2\n"
                        "[command]\nname = info\n")
    code, out, _ = run(tmp_path, text, capsys=capsys)
    assert code == 0 and "coefficient objects: 2, total dim 3" in out


def test_a_second_field_line_exits_1(tmp_path, capsys):
    for lines in ("p = 101\np = 7", "p = 7\nrationals = yes", "rationals = yes\np = 101"):
        text = f"[field]\n{lines}\n" + A3_RAD2 + "\n[command]\nname = info\n"
        code, out, err = run(tmp_path, text, "--field", "Q", capsys=capsys)
        second = lines.splitlines()[1]
        assert code == 1 and out == ""
        assert err == f"parse error: line 3: more than one field line: {second!r}\n"


A2_LINES = "[quiver]\nvertices = 1 2\narrow a1: 1 -> 2\n"
INFO = "[command]\nname = info\n"
PARSE_REFUSALS = [
    ("[quiver]\ncomplex = interval 3 n=x\n" + INFO, (), "line 2: bad n value 'x'"),
    ("[quiver]\ncomplex = interval x\n" + INFO, (), "line 2: bad complex shape 'interval x'"),
    ("[quiver]\ncomplex = interval 3 4\n" + INFO, (),
     "line 2: bad complex shape 'interval 3 4'"),
    ("[quiver]\ncomplex = interval 0\n" + INFO, (),
     "line 2: interval shapes need n >= 2 and m >= 1"),
    ("name = info\n" + A2_LINES + INFO, (), "line 1: content before any section header"),
    (A2_LINES + "[ideal]\nrel = a1\n" + INFO, (),
     "line 5: expected 'relation = ...', got 'rel = a1'"),
    (A2_LINES + "[command]\nname\n", (), "line 5: expected 'key = value', got 'name'"),
    ("[quiver]\nvertices 1 2\n" + INFO, (), "line 2: expected 'key = value', got 'vertices 1 2'"),
    (A2_LINES + INFO + "name = tensor\n", (), "line 6: more than one command name"),
    (A2_LINES + "[command]\nname = ass\ntarget = simple 1:pt\ntarget = simple 2:pt\n", (),
     "line 7: duplicate parameter 'target'"),
    ("[field]\nq = 3\n" + A2_LINES + INFO, (), "line 2: bad field line 'q = 3'"),
    ("[field]\np = x\n" + A2_LINES + INFO, (), "bad field 'x'"),
    ("[quiver]\nvertices = 1 2\narrow a1 1 -> 2\n" + INFO, (),
     "line 3: expected 'arrow name: src -> tgt'"),
    ("[quiver]\ncomplex = interval 3\ncomplex = interval 4\n" + INFO, (),
     "line 3: more than one complex line"),
    ("[quiver]\nvertices = 1 2\nfoo = bar\n" + INFO, (), "line 3: unexpected line 'foo = bar'"),
    ("[quiver]\ncomplex = interval 3\nvertices = 1\n" + INFO, (),
     "complex shapes exclude explicit vertices and arrows"),
    (INFO, (), "quiver needs vertices"),
    ("[quiver]\nvertices = 1 2\narrow a1: 1 -> 3\n" + INFO, (),
     "line 3: arrow a1 has endpoint outside the quiver"),
    (A2_LINES + "[ideal]\nrelation =\n" + INFO, (), "line 5: empty relation"),
    (A2_LINES + "[ideal]\nrelation = a1 zz\n" + INFO, (),
     "line 5: relation uses unknown arrow 'zz'"),
    ("[quiver]\nvertices = 1 2 3\narrow a1: 1 -> 2\narrow a2: 2 -> 3\n[ideal]\n"
     "relation = a2 a1\n" + INFO, (), "line 6: relation ['a2', 'a1'] does not compose"),
    (A2_LINES + "[coefficient]\nvertices = 1 2\narrow b1: 1 -> 2\nrelation = b1 zz\n" + INFO,
     (), "line 7: relation uses unknown arrow 'zz'"),
    (A2_LINES + "[command]\nname = ass\n", (), "command needs a target"),
    (A2_LINES + "[command]\nname = ass\ntarget = foo\n", (), "bad target 'foo'"),
    (A2_LINES + "[command]\nname = ass\ntarget = simple 1:pt\n", ("--verify-family", "bogus"),
     "bad verify family 'bogus'"),
    (A2_LINES + "[command]\nname = verify\ntarget = simple 1:pt\nsequence = other\n", (),
     "bad sequence kind 'other'"),
    (A2_LINES + "[command]\nname = verify\ntarget = simple 1:pt\nsequence =\n", (),
     "bad sequence kind ''"),
    (A2_LINES + "[command]\nname = verify\ntarget = simple 1:pt\nsequence = almost-split junk\n",
     (), "bad sequence kind 'almost-split junk'"),
    ("[quiver]\ncomplex = cyclic 2\n[command]\nname = approximate\n", (),
     "approximate needs 'target = stalk <degree> <object>'"),
    (CYCLIC2_STALK + "generators = all\n", (), "bad generators choice 'all'"),
    (CYCLIC2_STALK + "generators =\n", (), "bad generators choice ''"),
    (CYCLIC2_STALK + "generators = coils extra\n", (), "bad generators choice 'coils extra'"),
    ("[quiver]\nvertices = 1 2\narrow : 1 -> 2\n" + INFO, (),
     "line 3: expected 'arrow name: src -> tgt'"),
]


def test_every_parse_refusal_exits_1_with_its_line(tmp_path, capsys):
    """Each ParseError of the job reader and the commands, one job apiece:
    exit 1, nothing on stdout and exactly the refusal on stderr, with the
    line it names.  approximate without a complex shape is a precondition
    failure, exit 2."""
    for text, flags, message in PARSE_REFUSALS:
        code, out, err = run(tmp_path, text, *flags, capsys=capsys)
        assert (code, out, err) == (1, "", f"parse error: {message}\n"), message
    text = A2_LINES + "[command]\nname = approximate\ntarget = stalk 0 pt\n"
    code, out, err = run(tmp_path, text, capsys=capsys)
    assert (code, out, err) == (2, "", "precondition failed: approximate needs a complex shape\n")
